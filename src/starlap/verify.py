"""The full check suite of one graph, as the ``verify`` command reports it.

In report order: the multiplicity predictions of the dependent-row
partitions (every weight-uniform star among them), an optional request to
reduce the first star, the reduction identities (adjacency with
interlacing, then Laplacian), and the Fiedler sign agreement between the
graph and its reduction.

Layer functions are called through their modules (``reduction.reduce_all``),
so a rebinding of a module attribute, as a tracer or a test does, sees every
call made from here.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

from . import eigen, graphs, partition, reduction, stars
from .eigen import Check
from .errors import NonFiniteSpectrumError


@dataclass(frozen=True)
class GraphVerification:
    """The checks in report order and the results they were read from.

    The reduction identity checks are among `checks`, each named as
    ``reduce`` names it with a "reduction-" prefix.
    """

    checks: tuple[Check, ...]
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
    cannot be reduced.  The sign agreement is a check of tol 0 whose
    residual is the fraction of compared vertices whose signs disagree: 0,
    with the reason in its note, when the comparison is inconclusive (on a
    graph with fewer than two vertices or more than one component, among
    others), and NaN, with the error, when a Fiedler pair is not finite.
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
    # the Fiedler pairs the sign comparison reads are solved on the
    # conditions on which compare_signs solves them, each from one build of
    # its matrix for the values and the LU solve: the graph's first, before
    # the claims read L's values, and the reduced graph's before the
    # Laplacian checks read L~'s, so neither those checks nor the sign
    # comparison build a matrix
    fiedler_pairs = ctx.graph.n >= 2 and len(ctx.components) == 1
    if fiedler_pairs:
        ctx.second_vector("mass-laplacian")

    checks, warnings = stars.verify_star_predictions(ctx, tol)
    if q is not None:
        checks.append(Check(f"reduction-requested(q={q})", unreduced, 0.0, note))
    reduction_checks = reduction.verify_adjacency_reduction(ctx, r, tol)
    if fiedler_pairs:
        ctx.reduced(r).second_vector("mass-laplacian")
    reduction_checks += reduction.verify_laplacian_reduction(ctx, r, tol)
    checks += [replace(c, name=f"reduction-{c.name}") for c in reduction_checks]
    try:
        signs = partition.compare_signs(ctx, r, tol)
    except NonFiniteSpectrumError as exc:
        signs, disagreement, note = None, math.nan, str(exc)
    else:
        disagreement, note = 0.0, f"inconclusive: {signs.reason}"
        if not signs.degenerate:
            disagreement, note = 1.0 - signs.agreement_fraction, ""
    checks.append(Check("sign-agreement", disagreement, 0.0, note))

    return GraphVerification(
        checks=tuple(checks),
        warnings=tuple(warnings),
        dependent_rows=ctx.dependent_rows,
        reduction=r,
        signs=signs,
    )
