"""Detection and certification of spectra-shaping substructures.

Both structures of the paper come down to one fact: when x is supported on
vertices of one common strength w and A x = 0, then L x = Q x = w x and the
normalized Laplacian fixes D^(1/2) x (Merris, "Laplacian graph eigenvectors",
1998).

* dependent-row partitions (v1, v2, v3): vertices in v3 whose adjacency rows
  are linear combinations of the v1 rows, everything attached only into v2,
  all of v1 and v3 sharing a common strength w.  Each v3 row gives one such
  x, so w is an eigenvalue of L and Q, and 1 one of the normalized
  Laplacian, each with multiplicity at least |v3|.
  `GraphAnalysis.dependent_rows` finds them in every class of equal
  strength; every multiplicity prediction is read off them.

* star classes: maximal sets of at least two vertices sharing an identical
  open neighborhood (an independent set by construction).  When the members
  also carry identical weight vectors toward the shared neighborhood, the
  star can be reduced; its rows are then equal, a dependent-row partition
  with |v3| = m - 1.
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
    IsolatedVertexError,
    NoCommonStrengthError,
    UnequalWeightVectorsError,
)
from .graphs import (
    Graph,
    adjacency,
    build_graph,
    component_roots,
    connected_components,
    neighbor_lists,
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


class GraphAnalysis:
    """Lazily filled, per-graph record of the work that several checks share.

    The adjacency matrix and the strengths (both read-only), the isolated
    vertices, the connected components, the detected stars and the
    dependent-row partitions are computed once, on first use.  A family is
    solved through ``eigen.sym_eigen`` for its eigenvalues only, unless its
    second eigenvector is asked for first (the sign comparison reads that of the
    Laplacian and the mass Laplacian); then values and vectors come from one
    solve and only that vector is kept.

    Families: "adjacency" (A), "laplacian" (L), "signless" (Q), "normalized"
    (the normalized Laplacian), and with the vertex masses M,
    "mass-adjacency" (M^(1/2) A M^(1/2)) and "mass-laplacian"
    (diag(mass_strengths) - M^(1/2) A M^(1/2)), the reduced graph's
    operators when the graph came out of a reduction.  When every mass is 1
    the mass families are the plain ones, A and L, bit for bit, and are
    built and solved as those.
    """

    def __init__(self, graph: Graph):
        self.graph = graph
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
    def unit_mass(self) -> bool:
        """Whether every mass is 1, which makes each mass family its plain one."""
        return all(m == 1.0 for m in self.graph.mass)

    @cached_property
    def mass_strengths(self) -> np.ndarray:
        """The column sums of M A, the diagonal of the mass Laplacian (read-only).

        Column sums conserve each vertex's mass-weighted strength, which is
        what makes the lifted eigen-identities of a reduction hold; row sums
        do not.  With unit masses they are the strengths: np.add.at adds each
        vertex's weights in ascending neighbour order, and so does the sum
        down a column of A.
        """
        if self.unit_mass:
            return self.strengths
        with np.errstate(over="ignore", invalid="ignore"):
            d = (np.asarray(self.graph.mass)[:, None] * self.adjacency).sum(axis=0)
        d.setflags(write=False)
        return d

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
    def dependent_rows(self) -> tuple[LDependentPartition, ...]:
        """Certified dependent-row partitions, ordered by v1.

        The vertices of finite positive strength fall into classes of equal
        strength (see _strength_classes), and each class into pieces G: the
        components of its members joined by shared neighbours.  A piece with
        an edge inside has no v2 disjoint from it and is split by star class
        (star classes are independent sets); a piece whose strengths drift
        further than WEIGHT_TOL * w from its first member's w is split
        there.  In each piece of two or more members, v1 is the greedy basis
        of the columns of A[N(G), G] (see _independent_columns), v3 the rest
        of G and v2 = N(G), and verify_ldependent certifies the partition.  A
        piece it rejects, whose rows are dependent only within tolerance, is
        left out.
        """
        g, a, s = self.graph, self.adjacency, self.strengths
        cls = _strength_classes(s)
        member = (cls >= 0) & (np.bincount(cls + 1)[cls + 1] >= 2)
        # members joined through their (class, neighbour) pairs, numbered past n
        src, dst = np.concatenate((g.u, g.v)), np.concatenate((g.v, g.u))
        src, dst = src[member[src]], dst[member[src]]
        _, pair = np.unique(cls[src] * g.n + dst, return_inverse=True)
        root = component_roots(g.n + pair.size, src, g.n + pair)[: g.n]
        twin = np.full(g.n, -1)
        inner = member[g.u] & member[g.v] & (root[g.u] == root[g.v])
        if inner.any():
            for i, star in enumerate(self.stars):
                twin[list(star.v1)] = i
            split = np.isin(root, root[g.u[inner]])
            twin[~split] = -1
        verts = np.flatnonzero(member)
        key = root[verts] * (g.n + 1) + twin[verts] + 1
        order = np.argsort(key, kind="stable")
        pieces = np.split(verts[order], np.flatnonzero(np.diff(key[order])) + 1)
        found = []
        while pieces:
            piece = pieces.pop()
            if piece.size < 2:
                continue
            w = float(s[piece[0]])
            tol = WEIGHT_TOL * w
            near = np.abs(s[piece] - w) <= tol
            if not near.all():
                pieces += [piece[near], piece[~near]]
                continue
            nbrs = np.flatnonzero(a[piece].any(axis=0))
            basis = _independent_columns(a[np.ix_(nbrs, piece)], tol)
            if basis.all():
                continue
            v1, v3 = piece[basis].tolist(), piece[~basis].tolist()
            try:
                found.append(verify_ldependent(self, v1, nbrs.tolist(), v3))
            except (ConditionViolatedError, NoCommonStrengthError):
                continue
        return tuple(sorted(found, key=lambda p: p.v1))

    def matrix(self, family: str) -> np.ndarray:
        """One family's matrix, built from the cached A, strengths and masses.

        This is the one place a family is assembled.  Every family but
        "adjacency", which is the cached A itself, is built anew on each call.
        """
        family = self._family(family)
        a, s = self.adjacency, self.strengths
        if family == "adjacency":
            return a
        if family == "laplacian":
            return np.diag(s) - a
        if family == "signless":
            return np.diag(s) + a
        if family == "normalized":
            if self.isolated:
                raise IsolatedVertexError(self.isolated[0])
            inv_sqrt = 1.0 / np.sqrt(s)
            lhat = -a * np.outer(inv_sqrt, inv_sqrt)
            np.fill_diagonal(lhat, 1.0)
            return lhat
        if family not in ("mass-adjacency", "mass-laplacian"):
            raise ValueError(f"unknown matrix family {family!r}")
        root = np.sqrt(np.asarray(self.graph.mass))
        with np.errstate(over="ignore", invalid="ignore"):   # an overflow is inf, and fails checks
            sym = a * np.outer(root, root)
            if family == "mass-adjacency":
                return sym
            return np.diag(self.mass_strengths) - sym

    def _family(self, family: str) -> str:
        """The family built and solved for `family`: with unit masses, a mass family's plain one."""
        if self.unit_mass and family in ("mass-adjacency", "mass-laplacian"):
            return family.removeprefix("mass-")
        return family

    def values(self, family: str, matrix: np.ndarray | None = None) -> np.ndarray:
        """Ascending eigenvalues of one family, solved values-only on first use.

        `matrix` is the family's matrix when the caller has already built it.
        """
        family = self._family(family)
        if family not in self._values:
            self._solve(family, matrix, vectors=False)
        return self._values[family]

    def second_vector(self, family: str) -> np.ndarray:
        """Sign-normalized eigenvector of the second-smallest eigenvalue.

        Solved together with the values on first use.  A caller that needs
        both asks for the vector first; after values() it costs a second
        solve, and the values read first are kept.
        """
        family = self._family(family)
        if family not in self._second:
            self._solve(family, None, vectors=True)
        return self._second[family]

    def _solve(self, family: str, matrix: np.ndarray | None, vectors: bool) -> None:
        spec = eigen.sym_eigen(self.matrix(family) if matrix is None else matrix, vectors=vectors)
        self._values.setdefault(family, spec.values)
        if vectors:
            self._second[family] = spec.vectors[:, 1].copy()

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
            computed = eigen.multiplicity_at(table, value)
            checks.append(PredictionCheck(family, value, bound, computed, computed >= bound))
        return checks

    def reduced(self, r: Reduction) -> GraphAnalysis:
        """Analysis of a reduction's reduced graph, kept for the latest reduction.

        A reduction that removed nothing has this graph as its reduced
        graph, and this analysis as that graph's.
        """
        if r.reduced is self.graph:
            return self
        if self._reduced is None or self._reduced.graph is not r.reduced:
            self._reduced = GraphAnalysis(r.reduced)
        return self._reduced


def analyze(g: Graph | GraphAnalysis) -> GraphAnalysis:
    """The analysis of a graph: `g` itself when it already is one."""
    return g if isinstance(g, GraphAnalysis) else GraphAnalysis(g)


def _uniform_weight(rows: np.ndarray) -> float | None:
    """Common strength if all rows agree entrywise within tolerance, else None.

    Entries within WEIGHT_TOL times the largest entry count as equal;
    verify_star_predictions reports stars whose rows are equal only so.  A
    strength that overflows is inf.
    """
    if rows.size and np.abs(rows - rows[0]).max() > WEIGHT_TOL * rows.max():
        return None
    with np.errstate(over="ignore"):
        return float(rows[0].sum())


def _strength_classes(s: np.ndarray) -> np.ndarray:
    """Each vertex's class of equal strength, numbered in ascending order.

    Sorted strengths more than WEIGHT_TOL * s apart, s the larger, start a
    new class; a vertex of zero or non-finite strength is in none (-1).
    """
    order = np.argsort(s, kind="stable")
    ordered = s[order]
    starts = np.ones(s.size, dtype=bool)
    with np.errstate(invalid="ignore"):   # inf - inf is NaN; an inf strength gets -1 below
        starts[1:] = np.diff(ordered) > WEIGHT_TOL * ordered[1:]
    cls = np.empty(s.size, dtype=np.intp)
    cls[order] = np.cumsum(starts) - 1
    cls[~((s > 0.0) & np.isfinite(s))] = -1
    return cls


def _independent_columns(m: np.ndarray, tol: float) -> np.ndarray:
    """Greedy by index: which columns of m are not combinations of earlier ones.

    A column within tol entrywise of the span of the earlier ones is within
    tol * sqrt(rows) in norm, the size of its diagonal entry in one QR
    factorization.  A dependent column before an independent one can leave
    the latter a small diagonal too, so while a column left out is not, to
    within tol entrywise, a least-squares combination of those picked, the
    first such column is picked as well.
    """
    picked = np.zeros(m.shape[1], dtype=bool)
    r = np.linalg.qr(m, mode="r")
    picked[: min(r.shape)] = np.abs(np.diagonal(r)) > tol * np.sqrt(m.shape[0])
    while not picked.all():
        rest = m[:, ~picked]
        coeffs = np.linalg.lstsq(m[:, picked], rest, rcond=None)[0]
        off = np.abs(m[:, picked] @ coeffs - rest).max(axis=0) > tol
        if not off.any():
            break
        picked[np.flatnonzero(~picked)[np.argmax(off)]] = True
    return picked


def detect_stars(g: Graph | GraphAnalysis) -> list[MkStar]:
    """All maximal classes of >= 2 vertices with identical open neighborhoods.

    Classes with an empty neighborhood (isolated twins) are skipped.  Output
    is ordered by the smallest vertex index in v1.
    """
    ctx = analyze(g)
    bounds, neighbors = neighbor_lists(ctx.graph)
    by_neighborhood: dict[bytes, list[int]] = {}
    for v, (start, stop) in enumerate(zip(bounds[:-1].tolist(), bounds[1:].tolist())):
        if stop > start:
            by_neighborhood.setdefault(neighbors[start:stop].tobytes(), []).append(v)
    a = ctx.adjacency
    stars = []
    for members in by_neighborhood.values():
        if len(members) < 2:
            continue
        v1 = tuple(members)
        v2 = tuple(neighbors[bounds[v1[0]] : bounds[v1[0] + 1]].tolist())
        rows = a[np.ix_(list(v1), list(v2))]
        stars.append(MkStar(v1=v1, v2=v2, weight_uniform=_uniform_weight(rows)))
    stars.sort(key=lambda s: s.v1[0])
    return stars


def group_by_weight(stars: Sequence[MkStar]) -> list[StarClass]:
    """Group weight-carrying stars into classes of equal weight.

    The weights fall into classes as strengths do (see _strength_classes);
    the non-finite weights form a class of their own.  The class degree is
    the sum of (m - 1) over its members.
    """
    for s in stars:
        if s.weight_uniform is None:
            raise UnequalWeightVectorsError(s.v1, detail="cannot group a structural-only star")
    ordered = sorted(stars, key=lambda s: (s.weight_uniform, s.v1))
    cls = _strength_classes(np.array([s.weight_uniform for s in ordered], dtype=float)).tolist()
    classes = []
    for c in dict.fromkeys(cls):
        members = tuple(s for s, k in zip(ordered, cls) if k == c)
        weight = float(np.mean([s.weight_uniform for s in members]))
        degree = sum(s.m - 1 for s in members)
        classes.append(StarClass(weight=weight, stars=members, degree=degree))
    return classes


def predict_multiplicities(g: Graph | GraphAnalysis) -> PredictionReport:
    """Eigenvalue lower bounds read off the dependent-row partitions.

    The l of the partitions of one strength class add up, at the mean of
    their common strengths, for L and for Q; their total is the bound at 1
    for the normalized Laplacian.
    """
    ctx = analyze(g)
    cls = _strength_classes(ctx.strengths)
    by_class: dict[int, list[LDependentPartition]] = {}
    for p in ctx.dependent_rows:
        by_class.setdefault(int(cls[p.v1[0]]), []).append(p)
    claims = tuple(
        (float(np.mean([p.wtilde for p in parts])), sum(p.l for p in parts))
        for _, parts in sorted(by_class.items())
    )
    total = sum(bound for _, bound in claims)
    return PredictionReport(
        laplacian_predictions=claims,
        signless_predictions=claims,
        normalized_prediction=(1.0, total) if total > 0 else None,
    )


def verify_star_predictions(
    g: Graph | GraphAnalysis, tol_rel: float = eigen.DEFAULT_TOL
) -> StarVerification:
    """Check every dependent-row prediction against computed multiplicities.

    With no predictions the result is a vacuous pass.  Structural-only stars,
    which cannot be reduced, and stars whose weight vectors are equal only
    within tolerance are reported as warnings.  The normalized-Laplacian
    claim is skipped, with a warning, when the graph has an isolated vertex.
    """
    ctx = analyze(g)
    report = predict_multiplicities(ctx)
    warn = []
    for s in ctx.stars:
        rows = ctx.adjacency[np.ix_(list(s.v1), list(s.v2))]
        if s.weight_uniform is None:
            warn.append(
                f"star class v1={list(s.v1)} has unequal weight vectors and cannot be reduced"
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
    g: Graph | GraphAnalysis, v1: Sequence[int], v2: Sequence[int], v3: Sequence[int]
) -> LDependentPartition:
    """Certify a candidate (v1, v2, v3) partition and solve its coefficients.

    Checks, in order: v1/v2 mutual attachment, v1 and v3 attached only into
    v2, each v3 row reproducible as a least-squares combination of the v1
    rows (residual at most WEIGHT_TOL * w, w the first v1 vertex's
    strength), and finally that all of v1 and v3 share that strength, to
    within the same tolerance.  Coefficient positivity is recorded,
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
    v1_i, v2_i = np.array(v1_t, dtype=np.intp), np.array(v2_t, dtype=np.intp)
    attached = a[np.ix_(v1_i, v2_i)] > 0
    reaches = attached.any(axis=1)
    if not reaches.all():
        i = v1_t[int(np.argmin(reaches))]
        raise ConditionViolatedError(1, i, "v1 vertex has no neighbor in v2")
    reached = attached.any(axis=0)
    if not reached.all():
        j = v2_t[int(np.argmin(reached))]
        raise ConditionViolatedError(1, j, "v2 vertex has no neighbor in v1")

    # condition 2: v1 and v3 have neighbors only inside v2
    outside = np.ones(ctx.graph.n, dtype=bool)
    outside[v2_i] = False
    outside = np.flatnonzero(outside)
    rows = v1_t + v3_t
    leaving = a[np.ix_(np.array(rows, dtype=np.intp), outside)] > 0
    if leaving.any():
        r = int(np.argmax(leaving.any(axis=1)))
        x = int(outside[np.argmax(leaving[r])])
        raise ConditionViolatedError(2, rows[r], f"edge to {x} leaves v2")

    wtilde = float(s[v1_t[0]]) if v1_t else 0.0

    # condition 3: each v3 row is a combination of the v1 rows on v2
    basis = a[np.ix_(v1_i, v2_i)].T
    targets = a[np.ix_(np.array(v3_t, dtype=np.intp), v2_i)].T
    coeffs = np.linalg.lstsq(basis, targets, rcond=None)[0]
    residual = np.abs(basis @ coeffs - targets).max(axis=0, initial=0.0)
    tol = WEIGHT_TOL * wtilde
    over = np.flatnonzero(~(residual <= tol))   # a NaN residual fails too
    if over.size:
        raise ConditionViolatedError(
            3,
            v3_t[over[0]],
            f"row is not a combination of v1 rows (residual {residual[over[0]]:.3g})",
        )
    coefficients = {i: dict(zip(v1_t, c)) for i, c in zip(v3_t, coeffs.T.tolist())}
    nonnegative = not (coeffs < -COEFF_EPS).any()

    # common strength over v1 and v3; an overflowed (inf) one compares as NaN and fails
    with np.errstate(invalid="ignore"):
        bad = {int(i): float(s[i]) for i in rows if not abs(s[i] - wtilde) <= tol}
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
