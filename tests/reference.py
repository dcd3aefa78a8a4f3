"""Dense references the tests compare the library's builders against.

The library builds every operator once, in ``GraphAnalysis.columns``, and
judges every multiplicity claim by the distance from w to its l-th nearest
eigenvalue.  The functions here are the plain forms the tests check those
against: the dense adjacency matrix A, the nonsymmetric mass-weighted
Laplacian L(MB) of a reduction, and the grouped multiplicity rule.  The
tests import this module; ``scripts/random_sweep.py`` loads it by path.
"""

from __future__ import annotations

import numpy as np

from starlap import Graph, GraphAnalysis, MultiplicityTable, Reduction


def adjacency(g: Graph) -> np.ndarray:
    """Symmetric weighted adjacency matrix with zero diagonal."""
    a = np.zeros((g.n, g.n))
    a[g.u, g.v] = g.w
    a[g.v, g.u] = g.w
    return a


def mass_laplacian(r: Reduction) -> np.ndarray:
    """Nonsymmetric mass-weighted Laplacian L(MB) = diag(column sums of M B) - M B.

    Written from the reduced graph's edge columns: entry (i, j) of an edge
    is 0.0 - m_i * w, the expression's at B's entry w.
    """
    red = GraphAnalysis(r.reduced)
    g, mass = red.graph, np.asarray(red.graph.mass)
    with np.errstate(over="ignore", invalid="ignore"):
        lmb = np.diag(red.mass_strengths)
        lmb[g.u, g.v] = 0.0 - mass[g.u] * g.w
        lmb[g.v, g.u] = 0.0 - mass[g.v] * g.w
    return lmb


def multiplicity_at(table: MultiplicityTable, value: float) -> int:
    """Multiplicity of the group whose representative is nearest `value`.

    Returns 0 when no representative lies within the table's tol.
    """
    best = None
    for g in table.groups:
        d = abs(g.value - value)
        if d <= table.tol and (best is None or d < best[0]):
            best = (d, g.multiplicity)
    return best[1] if best is not None else 0
