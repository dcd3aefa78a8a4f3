"""The full check suite of one graph, as the ``verify`` command reports it.

In report order: the (m, k)-star multiplicity predictions, the multiplicities
implied by disjoint dependent-row partitions, an optional request to reduce
the first star, the reduction identities (adjacency, Laplacian, interlacing),
and the Fiedler sign agreement between the graph and its reduction.

Layer functions are called through their modules (``reduction.reduce_all``),
so a rebinding of a module attribute, as a tracer or a test does, sees every
call made from here.
"""

from __future__ import annotations

from dataclasses import dataclass

from . import eigen, graphs, partition, reduction, stars
from .errors import NonFiniteSpectrumError


@dataclass(frozen=True)
class NamedCheck:
    name: str
    passed: bool
    detail: str = ""


@dataclass(frozen=True)
class GraphVerification:
    """The named checks in report order and the results they were read from."""

    checks: tuple[NamedCheck, ...]
    warnings: tuple[str, ...]
    dependent_rows: tuple[stars.LDependentPartition, ...]
    reduction: reduction.Reduction
    records: tuple[reduction.VerificationRecord, reduction.VerificationRecord]
    signs: partition.SignAgreementReport | None

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)


def verify_graph(
    g: graphs.Graph | stars.GraphAnalysis, tol: float = eigen.DEFAULT_TOL, q: int | None = None
) -> GraphVerification:
    """Run every check of the suite on one graph.

    With q (at least 1) only the first detected star is reduced, by
    min(q, m - 1) vertices; without it every weight-uniform star is
    collapsed.  The sign comparison needs both graphs connected with at
    least two vertices, and is otherwise reported as an inconclusive pass.
    """
    if q is not None and q < 1:
        raise ValueError(f"q must be at least 1, got {q}")
    ctx = stars.analyze(g)
    checks: list[NamedCheck] = []
    # the sign comparison reads the second eigenvectors of L and L~; asking
    # for them before any eigenvalue solves each matrix once, with vectors
    connected = ctx.graph.n >= 2 and len(ctx.components) == 1
    if connected:
        ctx.second_vector("laplacian")

    def add(name: str, passed: bool, detail: str = "") -> None:
        checks.append(NamedCheck(name, bool(passed), detail))

    star_verification = stars.verify_star_predictions(ctx, tol)
    for c in star_verification.checks:
        add(
            f"{c.family}-multiplicity(w={c.eigenvalue:.12g})",
            c.passed,
            f"computed {c.computed} >= predicted {c.predicted}",
        )
    dependent = stars.verify_dependent_rows(ctx, tol)
    for c in dependent.checks:
        name = (
            f"dependent-rows-multiplicity(w={c.eigenvalue:.12g})"
            if c.family == "laplacian"
            else "dependent-rows-normalized-multiplicity"
        )
        add(name, c.passed, f"computed {c.computed} >= {c.predicted}")

    detected = ctx.stars
    qs: str | list[int] = "collapse"
    if q is not None:
        qs = [0] * len(detected)
        name = f"reduction-requested(q={q})"
        if not detected:
            add(name, True, "no stars to reduce; identity reduction")
        elif detected[0].weight_uniform is None:
            add(name, False, f"first star v1={list(detected[0].v1)} has unequal weight vectors "
                "and cannot be reduced")
        else:
            qs[0] = min(q, detected[0].m - 1)
            add(name, True, f"reducing star v1={list(detected[0].v1)} by q={qs[0]}")
    r = reduction.reduce_all(ctx, qs)
    red = ctx.reduced(r)
    comparable = connected and r.reduced.n >= 2 and len(red.components) == 1
    if comparable:
        red.second_vector("mass-laplacian")
    records = (
        reduction.verify_adjacency_reduction(ctx, r, tol),
        reduction.verify_laplacian_reduction(ctx, r, tol),
    )
    for c in records[0].checks + records[1].checks:
        add(f"reduction-{c.name}", c.passed, f"residual {c.residual:.3g} <= {c.tol:.3g}")
    add("reduction-interlacing", reduction.interlacing_check(ctx, r, tol))

    signs = None
    if not connected or r.reduced.n < 2:
        add("sign-agreement", True, "inconclusive: graph too small or disconnected")
    elif not comparable:
        add("sign-agreement", True, "inconclusive: reduced graph is disconnected")
    else:
        try:
            signs = partition.compare_signs(ctx, r, tol)
        except NonFiniteSpectrumError as exc:
            add("sign-agreement", False, str(exc))
        else:
            if signs.degenerate:
                add("sign-agreement", True, f"inconclusive: {signs.reason}")
            else:
                fraction = signs.agreement_fraction
                add("sign-agreement", signs.passed, f"agreement fraction {fraction}")

    return GraphVerification(
        checks=tuple(checks),
        warnings=star_verification.warnings + tuple(ctx.structural[1]),
        dependent_rows=dependent.partitions,
        reduction=r,
        records=records,
        signs=signs,
    )
