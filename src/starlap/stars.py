"""Detection and certification of spectra-shaping substructures.

Two structures are handled:

* star classes: maximal sets of at least two vertices sharing an identical
  open neighborhood (an independent set by construction).  When the members
  also carry identical weight vectors toward the shared neighborhood, the
  class predicts a Laplacian eigenvalue equal to the common strength with
  multiplicity at least (class size - 1), and analogous bounds for the
  signless and normalized Laplacians.

* dependent-row partitions (v1, v2, v3): vertices in v3 whose adjacency rows
  are linear combinations of the v1 rows, everything attached only into v2,
  all of v1 and v3 sharing a common strength.  Such a partition certifies the
  common strength as a Laplacian eigenvalue with multiplicity at least |v3|.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import TYPE_CHECKING, Sequence

import numpy as np

from . import eigen
from .errors import (
    ConditionViolatedError,
    IndexOutOfRangeError,
    InfeasibleSpecError,
    NoCommonStrengthError,
    UnequalWeightVectorsError,
)
from .graphs import (
    Graph,
    adjacency,
    build_graph,
    connected_components,
    normalized_laplacian_from,
    strengths,
)

if TYPE_CHECKING:
    from .reduction import Reduction

WEIGHT_TOL = 1e-9
COEFF_EPS = 1e-12


@dataclass(frozen=True)
class MkStar:
    """A class of vertices (v1) with identical neighborhoods (v2).

    `weight_uniform` holds the common strength when all v1 vertices also share
    identical weight vectors toward v2, and None for purely structural classes.
    """

    v1: tuple[int, ...]
    v2: tuple[int, ...]
    weight_uniform: float | None

    @property
    def m(self) -> int:
        return len(self.v1)

    @property
    def k(self) -> int:
        return len(self.v2)

    @property
    def degree(self) -> int:
        return self.m - 1


@dataclass(frozen=True)
class StarClass:
    """Stars grouped by equal weight; degree is the summed multiplicity bound."""

    weight: float
    stars: tuple[MkStar, ...]
    degree: int


@dataclass(frozen=True)
class LDependentPartition:
    """Certified dependent-row partition with per-row combination coefficients.

    coefficients[i] maps each contributing v1 vertex j to a(j) in
    row_i = sum_j a(j) * row_j.  The definition asks for positive
    coefficients; an unconstrained least-squares fit may come back with
    small negative entries, which is recorded in `coefficients_nonnegative`
    rather than rejected.
    """

    v1: tuple[int, ...]
    v2: tuple[int, ...]
    v3: tuple[int, ...]
    coefficients: dict[int, dict[int, float]]
    wtilde: float
    coefficients_nonnegative: bool

    @property
    def l(self) -> int:
        return len(self.v3)


@dataclass(frozen=True)
class PredictionReport:
    """Eigenvalue/multiplicity lower bounds read off the detected structure."""

    laplacian_predictions: tuple[tuple[float, int], ...]
    signless_predictions: tuple[tuple[float, int], ...]
    normalized_prediction: tuple[float, int] | None
    ldependent_predictions: tuple[tuple[float, int], ...]


@dataclass(frozen=True)
class PredictionCheck:
    family: str
    eigenvalue: float
    predicted: int
    computed: int
    passed: bool


@dataclass(frozen=True)
class StarVerification:
    checks: tuple[PredictionCheck, ...]
    warnings: tuple[str, ...]
    passed: bool


@dataclass(frozen=True)
class DependentRowsVerification:
    """Disjoint dependent-row partitions and the multiplicity checks they imply."""

    partitions: tuple[LDependentPartition, ...]
    checks: tuple[PredictionCheck, ...]


class GraphAnalysis:
    """Lazily filled, per-graph record of the work that several checks share.

    The adjacency matrix and the strengths (both read-only), the isolated
    vertices, the connected components, the detected stars, the
    proportional-row groups and the certification of the structural-only
    stars are computed once, on first use.  Each matrix family is solved at
    most once through ``eigen.sym_eigen``, for its eigenvalues only, except
    the Laplacian and the mass Laplacian, whose second eigenvector the sign
    comparison reads; only that vector is kept.  The analysis of a reduction
    that removed nothing reads the spectrum of a mass family whose matrix
    equals the original's plain one (M^(1/2) A M^(1/2) and A, the mass
    Laplacian and L, with unit masses) from the original's analysis.

    Families: "adjacency" (A), "laplacian" (L), "signless" (Q), "normalized"
    (the normalized Laplacian), and with the vertex masses M,
    "mass-adjacency" (M^(1/2) A M^(1/2)) and "mass-laplacian"
    (diag(column sums of M A) - M^(1/2) A M^(1/2)), the reduced graph's
    operators when the graph came out of a reduction.
    """

    _KEEP_SECOND_VECTOR = ("laplacian", "mass-laplacian")
    _UNREDUCED_FAMILY = {"mass-adjacency": "adjacency", "mass-laplacian": "laplacian"}

    def __init__(self, graph: Graph, unreduced: GraphAnalysis | None = None):
        """`unreduced` is the analysis of the same graph before a reduction that removed nothing."""
        self.graph = graph
        self._unreduced = unreduced
        self._values: dict[str, np.ndarray] = {}
        self._second: dict[str, np.ndarray] = {}
        self._reduced: GraphAnalysis | None = None

    @cached_property
    def adjacency(self) -> np.ndarray:
        a = adjacency(self.graph)
        a.setflags(write=False)
        return a

    @cached_property
    def strengths(self) -> np.ndarray:
        s = strengths(self.graph)
        s.setflags(write=False)
        return s

    @cached_property
    def isolated(self) -> list[int]:
        """The vertices of zero strength, which have no normalized row."""
        return np.flatnonzero(self.strengths <= 0.0).tolist()

    @cached_property
    def components(self) -> list[frozenset[int]]:
        return connected_components(self.graph)

    @cached_property
    def stars(self) -> tuple[MkStar, ...]:
        return tuple(detect_stars(self))

    @cached_property
    def proportional(self) -> tuple[LDependentPartition, ...]:
        return tuple(detect_proportional_ldependent(self))

    @cached_property
    def structural(self) -> tuple[list[LDependentPartition], list[str]]:
        return certify_structural_stars(self)

    def matrix(self, family: str) -> np.ndarray:
        """One family's matrix, built from the cached A and strengths.

        Every family but "adjacency", which is the cached A itself, is built
        anew on each call.
        """
        a, s = self.adjacency, self.strengths
        if family == "adjacency":
            return a
        if family == "laplacian":
            return np.diag(s) - a
        if family == "signless":
            return np.diag(s) + a
        if family == "normalized":
            return normalized_laplacian_from(a, s)
        mass = np.asarray(self.graph.mass)
        root = np.sqrt(mass)
        sym = a * np.outer(root, root)
        if family == "mass-adjacency":
            return sym
        if family == "mass-laplacian":
            return np.diag((mass[:, None] * a).sum(axis=0)) - sym
        raise ValueError(f"unknown matrix family {family!r}")

    def values(self, family: str, matrix: np.ndarray | None = None) -> np.ndarray:
        """Ascending eigenvalues of one family, solved on first use.

        `matrix` is the family's matrix when the caller has already built it.
        """
        if family in self._values:
            return self._values[family]
        if matrix is None:
            matrix = self.matrix(family)
        source, plain = self._unreduced, self._UNREDUCED_FAMILY.get(family)
        plain_matrix = source.matrix(plain) if source is not None and plain else None
        if plain_matrix is not None and np.array_equal(matrix, plain_matrix):
            self._values[family] = source.values(plain, plain_matrix)
            if plain in source._second:
                self._second[family] = source._second[plain]
        else:
            keep = family in self._KEEP_SECOND_VECTOR
            spec = eigen.sym_eigen(matrix, vectors=keep)
            self._values[family] = spec.values
            if keep and spec.n >= 2:
                self._second[family] = spec.vectors[:, 1].copy()
        return self._values[family]

    def check_claims(
        self, family: str, claims: Sequence[tuple[float, int]], tol_rel: float
    ) -> list[PredictionCheck]:
        """Each (value, bound) claim against the multiplicity at value in one family.

        Multiplicities are read off the family's spectrum grouped at tol_rel;
        with no claims nothing is solved.
        """
        if not claims:
            return []
        table = eigen.group_multiplicities(self.values(family), tol_rel)
        checks = []
        for value, bound in claims:
            computed = eigen.multiplicity_at(table, value, tol_rel)
            checks.append(PredictionCheck(family, value, bound, computed, computed >= bound))
        return checks

    def second_vector(self, family: str) -> np.ndarray:
        """Sign-normalized eigenvector of the second-smallest eigenvalue."""
        self.values(family)
        return self._second[family]

    def reduced(self, r: Reduction) -> GraphAnalysis:
        """Analysis of a reduction's reduced graph, kept for the latest reduction."""
        if self._reduced is None or self._reduced.graph is not r.reduced:
            self._reduced = GraphAnalysis(r.reduced, self if r.q_total == 0 else None)
        return self._reduced


def analyze(g: Graph | GraphAnalysis) -> GraphAnalysis:
    """The analysis of a graph: `g` itself when it already is one."""
    return g if isinstance(g, GraphAnalysis) else GraphAnalysis(g)


def _class_rows(g: Graph | GraphAnalysis, v1: Sequence[int], v2: Sequence[int]) -> np.ndarray:
    return analyze(g).adjacency[np.ix_(list(v1), list(v2))]


def _uniform_weight(rows: np.ndarray) -> float | None:
    """Common strength if all rows agree entrywise within tolerance, else None.

    Rows that agree only within tolerance count as equal;
    verify_star_predictions reports such stars.
    """
    tol = WEIGHT_TOL * max(1.0, float(rows.max()) if rows.size else 0.0)
    spread = float(np.abs(rows - rows[0]).max()) if rows.size else 0.0
    if spread > tol:
        return None
    return float(rows[0].sum())


def detect_stars(g: Graph | GraphAnalysis) -> list[MkStar]:
    """All maximal classes of >= 2 vertices with identical open neighborhoods.

    Classes with an empty neighborhood (isolated twins) are skipped.  Output
    is ordered by the smallest vertex index in v1.
    """
    ctx = analyze(g)
    graph = ctx.graph
    by_neighborhood: dict[frozenset[int], list[int]] = {}
    adj: list[set[int]] = [set() for _ in range(graph.n)]
    for u, v, _ in graph.edges:
        adj[u].add(v)
        adj[v].add(u)
    for v in range(graph.n):
        by_neighborhood.setdefault(frozenset(adj[v]), []).append(v)
    a = ctx.adjacency
    stars = []
    for nbhd, members in by_neighborhood.items():
        if len(members) < 2 or not nbhd:
            continue
        v1 = tuple(sorted(members))
        v2 = tuple(sorted(nbhd))
        rows = a[np.ix_(list(v1), list(v2))]
        stars.append(MkStar(v1=v1, v2=v2, weight_uniform=_uniform_weight(rows)))
    stars.sort(key=lambda s: s.v1[0])
    return stars


def star_weight(g: Graph | GraphAnalysis, s: MkStar) -> float:
    """Common strength of the star's v1 vertices.

    Raises when the v1 weight vectors differ (structural-only star).
    """
    rows = _class_rows(g, s.v1, s.v2)
    w = _uniform_weight(rows)
    if w is None:
        raise UnequalWeightVectorsError(s.v1)
    return w


def group_by_weight(stars: Sequence[MkStar], tol_rel: float = WEIGHT_TOL) -> list[StarClass]:
    """Group weight-carrying stars into classes of equal weight.

    Weights within tol_rel * max(1, w) of each other fall in one class; the
    class degree is the sum of (m - 1) over its members.
    """
    for s in stars:
        if s.weight_uniform is None:
            raise UnequalWeightVectorsError(s.v1, detail="cannot group a structural-only star")
    ordered = sorted(stars, key=lambda s: (s.weight_uniform, s.v1))
    classes: list[StarClass] = []
    bucket: list[MkStar] = []
    for s in ordered:
        if bucket and s.weight_uniform - bucket[-1].weight_uniform > tol_rel * max(
            1.0, s.weight_uniform
        ):
            classes.append(_finish_class(bucket))
            bucket = []
        bucket.append(s)
    if bucket:
        classes.append(_finish_class(bucket))
    return classes


def _finish_class(bucket: list[MkStar]) -> StarClass:
    weight = float(np.mean([s.weight_uniform for s in bucket]))
    degree = sum(s.m - 1 for s in bucket)
    return StarClass(weight=weight, stars=tuple(bucket), degree=degree)


def predict_multiplicities(
    g: Graph | GraphAnalysis, tol_rel: float = WEIGHT_TOL
) -> PredictionReport:
    """Eigenvalue lower bounds from detected stars and proportional-row groups.

    Structural-only star classes contribute nothing; dependent-row entries
    come from the proportional-row detector.
    """
    ctx = analyze(g)
    weighted = [s for s in ctx.stars if s.weight_uniform is not None]
    classes = group_by_weight(weighted, tol_rel=tol_rel)
    lap_preds = tuple((c.weight, c.degree) for c in classes)
    total_degree = sum(c.degree for c in classes)
    ldep = tuple((p.wtilde, p.l) for p in ctx.proportional)
    return PredictionReport(
        laplacian_predictions=lap_preds,
        signless_predictions=lap_preds,
        normalized_prediction=(1.0, total_degree) if total_degree > 0 else None,
        ldependent_predictions=ldep,
    )


def verify_star_predictions(
    g: Graph | GraphAnalysis, tol_rel: float = eigen.DEFAULT_TOL
) -> StarVerification:
    """Check every star-based prediction against computed multiplicities.

    With no predictions the result is a vacuous pass; structural-only stars,
    and stars whose weight vectors are equal only within tolerance, are
    reported as warnings.  The normalized-Laplacian claim is skipped, with a
    warning, when the graph has an isolated vertex.
    """
    ctx = analyze(g)
    report = predict_multiplicities(ctx)
    warn = []
    for s in ctx.stars:
        rows = _class_rows(ctx, s.v1, s.v2)
        if s.weight_uniform is None:
            warn.append(
                f"star class v1={list(s.v1)} has unequal weight vectors; no prediction emitted"
            )
        elif (rows != rows[0]).any():
            warn.append(
                f"star class v1={list(s.v1)} has weight vectors that differ by less than "
                "the equality tolerance; treating them as equal"
            )
    checks = ctx.check_claims("laplacian", report.laplacian_predictions, tol_rel)
    checks += ctx.check_claims("signless", report.signless_predictions, tol_rel)
    if report.normalized_prediction is not None:
        if ctx.isolated:
            warn.append(
                f"normalized-Laplacian prediction skipped: isolated vertices {ctx.isolated} "
                "have no normalized row"
            )
        else:
            checks += ctx.check_claims("normalized", [report.normalized_prediction], tol_rel)
    return StarVerification(
        checks=tuple(checks),
        warnings=tuple(warn),
        passed=all(c.passed for c in checks),
    )


def verify_ldependent(
    g: Graph | GraphAnalysis,
    v1: Sequence[int],
    v2: Sequence[int],
    v3: Sequence[int],
    tol_rel: float = WEIGHT_TOL,
) -> LDependentPartition:
    """Certify a candidate (v1, v2, v3) partition and solve its coefficients.

    Checks, in order: v1/v2 mutual attachment, v1 and v3 attached only into
    v2, each v3 row reproducible as a least-squares combination of the v1
    rows (residual at most tol_rel * common strength), and finally that all
    of v1 and v3 share one strength.  Coefficient positivity is recorded,
    not enforced.  A vertex outside 0..n-1 raises IndexOutOfRangeError.
    """
    ctx = analyze(g)
    v1_t, v2_t, v3_t = tuple(sorted(v1)), tuple(sorted(v2)), tuple(sorted(v3))
    listed = v1_t + v2_t + v3_t
    for v in listed:
        if not 0 <= v < ctx.graph.n:
            raise IndexOutOfRangeError(v, ctx.graph.n)
    # a repeated v3 vertex would count twice in l
    if len(set(listed)) != len(listed):
        raise ConditionViolatedError(0, -1, "v1, v2, v3 must be disjoint, each vertex listed once")
    a, s = ctx.adjacency, ctx.strengths

    # condition 1: every v1 vertex attaches into v2 and vice versa
    for i in v1_t:
        if not any(a[i, j] > 0 for j in v2_t):
            raise ConditionViolatedError(1, i, "v1 vertex has no neighbor in v2")
    for j in v2_t:
        if not any(a[i, j] > 0 for i in v1_t):
            raise ConditionViolatedError(1, j, "v2 vertex has no neighbor in v1")

    # condition 2: v1 and v3 have neighbors only inside v2
    v2_set = set(v2_t)
    outside = [x for x in range(ctx.graph.n) if x not in v2_set]
    for i in list(v1_t) + list(v3_t):
        for x in outside:
            if a[i, x] > 0:
                raise ConditionViolatedError(2, i, f"edge to {x} leaves v2")

    wtilde = float(s[v1_t[0]]) if v1_t else 0.0

    # condition 3: each v3 row is a combination of the v1 rows on v2
    cols = list(v2_t)
    basis = a[np.ix_(list(v1_t), cols)]
    coefficients: dict[int, dict[int, float]] = {}
    nonnegative = True
    for i in v3_t:
        target = a[i, cols]
        coeffs, *_ = np.linalg.lstsq(basis.T, target, rcond=None)
        residual = float(np.abs(basis.T @ coeffs - target).max())
        if residual > tol_rel * max(1.0, wtilde):
            raise ConditionViolatedError(
                3, i, f"row is not a combination of v1 rows (residual {residual:.3g})"
            )
        coefficients[i] = {j: float(c) for j, c in zip(v1_t, coeffs)}
        if any(c < -COEFF_EPS for c in coeffs):
            nonnegative = False

    # common strength over v1 and v3
    bad = {
        int(i): float(s[i])
        for i in list(v1_t) + list(v3_t)
        if abs(s[i] - wtilde) > tol_rel * max(1.0, wtilde)
    }
    if bad:
        bad[int(v1_t[0])] = wtilde
        raise NoCommonStrengthError(bad)

    return LDependentPartition(
        v1=v1_t,
        v2=v2_t,
        v3=v3_t,
        coefficients=coefficients,
        wtilde=wtilde,
        coefficients_nonnegative=nonnegative,
    )


def detect_proportional_ldependent(
    g: Graph | GraphAnalysis, tol: float = WEIGHT_TOL
) -> list[LDependentPartition]:
    """Dependent-row partitions found by grouping identical adjacency rows.

    Heuristic: vertices are grouped by row direction (row / strength) and
    then by strength; a group of size >= 2 yields a partition whose v1 is the
    smallest member, v3 the rest, and v2 the neighbors of v3.  Rows that are
    proportional but carry different strengths are not a common-strength
    structure and produce nothing.  Multi-row combinations are out of scope
    for this detector; they can still be certified via verify_ldependent.

    Two vertices with identical rows are not adjacent (each row is zero on
    its own diagonal), so they share an open neighborhood: only members of
    one detect_stars class are compared, and rows with different supports
    never group, even when the entries that differ are below the tolerance.
    Within a class a vertex joins the first group, in vertex order, whose
    representative's direction is within `tol` entrywise and whose strength
    is within tol * max(1, strength); groups come out ordered by
    representative.
    """
    ctx = analyze(g)
    a, s = ctx.adjacency, ctx.strengths
    out = []
    for star in ctx.stars:
        members = list(star.v1)
        strength = s[members]
        direction = a[np.ix_(members, list(star.v2))] / strength[:, None]
        groups: list[list[int]] = []
        for i in range(len(members)):
            if groups:
                reps = [grp[0] for grp in groups]
                fits = (np.abs(direction[reps] - direction[i]).max(axis=1) <= tol) & (
                    np.abs(strength[i] - strength[reps]) <= tol * np.maximum(1.0, strength[reps])
                )
                if fits.any():
                    groups[int(np.argmax(fits))].append(i)
                    continue
            groups.append([i])
        for grp in groups:
            if len(grp) < 2:
                continue
            rep = members[grp[0]]
            v3 = tuple(members[i] for i in grp[1:])
            out.append(
                LDependentPartition(
                    v1=(rep,),
                    v2=star.v2,
                    v3=v3,
                    coefficients={i: {rep: 1.0} for i in v3},
                    wtilde=float(s[rep]),
                    coefficients_nonnegative=True,
                )
            )
    out.sort(key=lambda p: p.v1)
    return out


def dependence_split(
    g: Graph | GraphAnalysis, vertices: Sequence[int], tol_rel: float = WEIGHT_TOL
) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """Split equal-neighborhood vertices into independent rows and dependent rest.

    Greedy by index: a vertex joins v1 while its row increases the rank of the
    rows collected so far, otherwise it goes to v3.  Useful for turning a
    structural star class with a common strength into a candidate partition
    for verify_ldependent.
    """
    verts = sorted(vertices)
    a = analyze(g).adjacency
    cols = sorted(set().union(*(set(np.nonzero(a[v])[0].tolist()) for v in verts)))
    v1: list[int] = []
    v3: list[int] = []
    stacked: list[np.ndarray] = []
    rank = 0
    for v in verts:
        candidate = stacked + [a[v, cols]]
        new_rank = np.linalg.matrix_rank(np.array(candidate), tol=tol_rel)
        if new_rank > rank:
            v1.append(v)
            stacked = candidate
            rank = new_rank
        else:
            v3.append(v)
    return tuple(v1), tuple(v3)


def certify_structural_stars(
    g: Graph | GraphAnalysis,
) -> tuple[list[LDependentPartition], list[str]]:
    """Dependent-row partitions certified on the structural-only star classes.

    Each detected class whose weight vectors differ is split with
    dependence_split and certified with verify_ldependent.  Returns the
    certified partitions, and for every other such class a warning saying
    why it carries no dependent-row structure.
    """
    ctx = analyze(g)
    certified: list[LDependentPartition] = []
    rejected: list[str] = []
    for s in ctx.stars:
        if s.weight_uniform is not None:
            continue
        try:
            v1, v3 = dependence_split(ctx, s.v1)
            if not v3:
                raise ConditionViolatedError(3, s.v1[0], "rows are linearly independent")
            certified.append(verify_ldependent(ctx, v1, s.v2, v3))
        except (ConditionViolatedError, NoCommonStrengthError) as exc:
            rejected.append(
                f"class v1={list(s.v1)} has unequal weight vectors and no "
                f"dependent-row structure ({exc})"
            )
    return certified, rejected


def verify_dependent_rows(
    g: Graph | GraphAnalysis, tol_rel: float = eigen.DEFAULT_TOL
) -> DependentRowsVerification:
    """Laplacian and normalized multiplicities implied by disjoint dependent rows.

    The certified structural classes, then the proportional groups, are kept
    while their v3 sets stay disjoint (only then do the l add up).  Their l
    are summed per common strength (equal within WEIGHT_TOL) for L, and in
    total at 1 for the normalized Laplacian unless a vertex is isolated.
    """
    ctx = analyze(g)
    partitions: list[LDependentPartition] = []
    used: set[int] = set()
    for p in ctx.structural[0] + list(ctx.proportional):
        if not (set(p.v3) & used):
            partitions.append(p)
            used.update(p.v3)
    by_w: dict[float, int] = {}
    for p in partitions:
        key = next((w for w in by_w if abs(w - p.wtilde) <= WEIGHT_TOL * max(1.0, w)), p.wtilde)
        by_w[key] = by_w.get(key, 0) + p.l
    checks = ctx.check_claims("laplacian", sorted(by_w.items()), tol_rel)
    if partitions and not ctx.isolated:
        checks += ctx.check_claims(
            "normalized", [(1.0, sum(p.l for p in partitions))], tol_rel
        )
    return DependentRowsVerification(partitions=tuple(partitions), checks=tuple(checks))


def plant_star_graph(
    seed: int,
    n: int,
    star_specs: Sequence[tuple[int, int, float]],
    background_p: float = 0.3,
) -> Graph:
    """Random graph containing the requested uniform-weight stars.

    Each spec (m, k, w) claims a disjoint block of m + k vertices: m star
    vertices attached to all k hub vertices with a shared weight vector
    summing to w.  Remaining vertices and hubs are wired with a spanning path
    plus random extra edges, never touching star vertices, so every planted
    class keeps its identical-neighborhood property.
    """
    rng = np.random.default_rng(seed)
    total = sum(m + k for m, k, _ in star_specs)
    if total > n:
        raise InfeasibleSpecError(f"star blocks need {total} vertices, only {n} available")
    for m, k, w in star_specs:
        if m < 2 or k < 1 or w <= 0:
            raise InfeasibleSpecError(f"invalid star spec (m={m}, k={k}, w={w})")

    edges: list[tuple[int, int, float]] = []
    cursor = 0
    v1_all: set[int] = set()
    v2_sets: list[set[int]] = []
    for m, k, w in star_specs:
        v1 = list(range(cursor, cursor + m))
        v2 = list(range(cursor + m, cursor + m + k))
        cursor += m + k
        v1_all.update(v1)
        v2_sets.append(set(v2))
        if k == 1:
            weights = [w]
        else:
            raw = rng.uniform(0.5, 1.5, size=k)
            weights = (raw * (w / raw.sum())).tolist()
        for i in v1:
            for j, wj in zip(v2, weights):
                edges.append((i, j, wj))

    background = [v for v in range(n) if v not in v1_all]
    existing = {(min(u, v), max(u, v)) for u, v, _ in edges}
    for a, b in zip(background, background[1:]):
        edges.append((a, b, float(rng.uniform(0.5, 1.5))))
        existing.add((min(a, b), max(a, b)))
    for i in range(len(background)):
        for j in range(i + 2, len(background)):
            u, v = background[i], background[j]
            if rng.random() < background_p and (u, v) not in existing:
                edges.append((u, v, float(rng.uniform(0.5, 1.5))))
                existing.add((u, v))

    # keep planted classes exact: no outside vertex may replicate a hub set
    neighborhoods: dict[int, set[int]] = {v: set() for v in range(n)}
    for u, v, _ in edges:
        neighborhoods[u].add(v)
        neighborhoods[v].add(u)
    for u in background:
        for v2 in v2_sets:
            if neighborhoods[u] == v2:
                targets = [x for x in background if x != u and x not in v2 and x not in neighborhoods[u]]
                if targets:
                    edges.append((u, targets[0], float(rng.uniform(0.5, 1.5))))
                    neighborhoods[u].add(targets[0])
                    neighborhoods[targets[0]].add(u)
    return build_graph(n, edges)


def plant_ldependent_graph(
    seed: int, sizes: tuple[int, int, int], wtilde: float
) -> Graph:
    """Random graph with a planted dependent-row partition of common strength.

    sizes = (|v1|, |v2|, l); vertices are laid out as v1, then v2, then v3.
    v1 rows are random positive weights over all of v2 rescaled to the common
    strength; each v3 row is a random convex combination of the v1 rows, so
    its strength matches by construction.
    """
    m1, k, l = sizes
    if m1 < 1 or k < 1 or l < 0 or wtilde <= 0:
        raise InfeasibleSpecError(f"invalid dependent-row spec (sizes={sizes}, w={wtilde})")
    rng = np.random.default_rng(seed)
    n = m1 + k + l
    v1 = list(range(m1))
    v2 = list(range(m1, m1 + k))
    v3 = list(range(m1 + k, n))
    rows = rng.uniform(0.5, 1.5, size=(m1, k))
    rows *= wtilde / rows.sum(axis=1, keepdims=True)
    edges = [(i, j, float(rows[a, b])) for a, i in enumerate(v1) for b, j in enumerate(v2)]
    for i in v3:
        coeffs = rng.uniform(0.2, 1.0, size=m1)
        coeffs /= coeffs.sum()
        combo = coeffs @ rows
        edges.extend((i, j, float(combo[b])) for b, j in enumerate(v2))
    return build_graph(n, edges)
