"""The full check suite of one graph, as the ``verify`` command reports it.

In report order: the multiplicity predictions of the dependent-row
partitions (every weight-uniform star among them), an optional request to
reduce the first star, the eight reduction identities of
``reduction.verify_reduction`` (adjacency with interlacing, then
Laplacian), as ``reduce`` states them, and the Fiedler sign agreement
between the graph and its reduction, which is computed first.

Layer functions are called through their modules (``reduction.reduce_all``),
so a rebinding of a module attribute, as a tracer or a test does, sees every
call made from here.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

from . import eigen, graphs, partition, reduction, stars
from .errors import NonFiniteSpectrumError


@dataclass(frozen=True)
class GraphVerification:
    """The checks in report order and the results they were read from.

    The reduction identity checks are among `checks`, each named as
    ``reduce`` names it with a "reduction-" prefix.
    """

    checks: tuple[eigen.Check, ...]
    warnings: tuple[str, ...]
    dependent_rows: tuple[stars.LDependentPartition, ...]
    reduction: reduction.Reduction
    signs: partition.SignAgreementReport | None

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)


def verify_graph(
    g: graphs.Graph | stars.GraphAnalysis, tol: float = eigen.DEFAULT_TOL, q: int | None = None
) -> GraphVerification:
    """Run every check of the suite on one graph.

    With q (at least 1) only the first detected star is reduced, by
    min(q, m - 1) vertices; without it every reducible star is collapsed.
    The request is a check of tol 0 whose residual is 1 when the first star
    cannot be reduced.  The sign agreement, compared first so that later
    checks read the spectra it solved, is a check of tol 0 whose residual
    is the fraction of compared vertices whose signs disagree: 0, with the
    reason in its note, when the comparison is inconclusive (on a graph too
    small or disconnected, among others), and NaN, with the error, when a
    Fiedler pair is not finite.
    """
    if q is not None and q < 1:
        raise ValueError(f"q must be at least 1, got {q}")
    ctx = stars.analyze(g)
    detected = ctx.stars
    qs: str | list[int] = "collapse"
    if q is not None:
        qs = [0] * len(detected)
        if not detected:
            unreduced, note = 0.0, "no stars to reduce; identity reduction"
        elif reason := stars.unreducible_reason(ctx, detected[0]):
            unreduced, note = 1.0, (f"first star v1={list(detected[0].v1)} has {reason} "
                                    "and cannot be reduced")
        else:
            qs[0] = min(q, detected[0].m - 1)
            unreduced, note = 0.0, f"reducing star v1={list(detected[0].v1)} by q={qs[0]}"
    r = reduction.reduce_all(ctx, qs)
    try:
        signs = partition.compare_signs(ctx, r, tol)
    except NonFiniteSpectrumError as exc:
        signs, disagreement, sign_note = None, math.nan, str(exc)
    else:
        disagreement = 0.0 if signs.degenerate else 1.0 - signs.agreement_fraction
        sign_note = f"inconclusive: {signs.reason}" if signs.degenerate else ""

    checks, warnings = stars.verify_star_predictions(ctx, tol)
    if q is not None:
        checks.append(eigen.Check(f"reduction-requested(q={q})", unreduced, 0.0, note))
    checks += [
        replace(c, name=f"reduction-{c.name}") for c in reduction.verify_reduction(ctx, r, tol)
    ]
    checks.append(eigen.Check("sign-agreement", disagreement, 0.0, sign_note))

    return GraphVerification(
        checks=tuple(checks),
        warnings=tuple(warnings),
        dependent_rows=ctx.dependent_rows,
        reduction=r,
        signs=signs,
    )
