"""The full check suite of one graph, as the ``verify`` command reports it.

In report order: the multiplicity predictions of the dependent-row
partitions (every weight-uniform star among them), an optional request to
reduce the first star, the reduction identities (adjacency, Laplacian,
interlacing), and the Fiedler sign agreement between the graph and its
reduction.

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
    min(q, m - 1) vertices; without it every reducible star is collapsed.
    The sign comparison is an inconclusive pass on a graph with fewer than
    two vertices or more than one component.
    """
    if q is not None and q < 1:
        raise ValueError(f"q must be at least 1, got {q}")
    ctx = stars.analyze(g)
    checks: list[NamedCheck] = []

    def add(name: str, passed: bool, detail: str = "") -> None:
        checks.append(NamedCheck(name, bool(passed), detail))

    detected = ctx.stars
    qs: str | list[int] = "collapse"
    if q is not None:
        qs = [0] * len(detected)
        if not detected:
            requested = (True, "no stars to reduce; identity reduction")
        elif reason := stars.unreducible_reason(ctx, detected[0]):
            requested = (False, f"first star v1={list(detected[0].v1)} has {reason} "
                         "and cannot be reduced")
        else:
            qs[0] = min(q, detected[0].m - 1)
            requested = (True, f"reducing star v1={list(detected[0].v1)} by q={qs[0]}")
    r = reduction.reduce_all(ctx, qs)

    star_verification = stars.verify_star_predictions(ctx, tol)
    for c in star_verification.checks:
        add(
            f"{c.family}-multiplicity(w={c.eigenvalue:.12g})",
            c.passed,
            f"computed {c.computed} >= predicted {c.predicted}",
        )
    if q is not None:
        add(f"reduction-requested(q={q})", *requested)
    records = (
        reduction.verify_adjacency_reduction(ctx, r, tol),
        reduction.verify_laplacian_reduction(ctx, r, tol),
    )
    for c in records[0].checks + records[1].checks:
        note = f"; {c.note}" if c.note else ""
        add(f"reduction-{c.name}", c.passed, f"residual {c.residual:.3g} <= {c.tol:.3g}{note}")
    add("reduction-interlacing", reduction.interlacing_check(ctx, r, tol))
    try:
        signs, failure = partition.compare_signs(ctx, r, tol), ""
    except NonFiniteSpectrumError as exc:
        signs, failure = None, str(exc)
    if signs is None:
        add("sign-agreement", False, failure)
    elif signs.degenerate:
        add("sign-agreement", True, f"inconclusive: {signs.reason}")
    else:
        add("sign-agreement", signs.passed, f"agreement fraction {signs.agreement_fraction}")

    return GraphVerification(
        checks=tuple(checks),
        warnings=star_verification.warnings,
        dependent_rows=ctx.dependent_rows,
        reduction=r,
        records=records,
        signs=signs,
    )
