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

import math
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
)
from .graphs import (
    Graph,
    build_graph_from_columns,
    component_roots,
    connected_components,
    neighbor_lists,
    strengths,
)

if TYPE_CHECKING:
    from .reduction import Reduction

WEIGHT_TOL = 1e-9
COEFF_EPS = 1e-12
FAMILIES = ("adjacency", "laplacian", "signless", "normalized", "mass-adjacency", "mass-laplacian")


@dataclass(frozen=True)
class MkStar:
    """A class of vertices (v1) with identical neighborhoods (v2).

    `weight_uniform` holds the common strength when all v1 vertices also share
    identical weight vectors toward v2 and one mass, and None otherwise.
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


class GraphAnalysis:
    """Lazily filled, per-graph record of the work that several checks share.

    The neighbour lists and the strengths (both read-only), the isolated
    vertices, the connected components, the detected stars and the
    dependent-row partitions are computed once, on first use.  No dense
    matrix is kept: a family's matrix is written from the edge columns when
    it is solved and dropped after the solve, and a check that reads some
    of a family's columns, or a block of A, builds only those from the
    neighbour lists.  A family is solved through ``eigen.sym_eigen`` for
    its eigenvalues only.  The second
    eigenvector, which every Fiedler pair reads off the mass Laplacian, comes
    from inverse iteration at the second eigenvalue
    (``eigen.eigenvector_at``), and no other eigenvector is computed.

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
    def neighbors(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """The read-only (bounds, neighbors, weights) of graphs.neighbor_lists."""
        lists = neighbor_lists(self.graph)
        for column in lists:
            column.setflags(write=False)
        return lists

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
        do not.  Each vertex adds m_i * w_ij over its neighbours i in
        ascending order, from 0.0, as the sum down a column of M A does:
        np.add.at over the edges' interleaved ends, as for the strengths,
        which they are with unit masses.
        """
        if self.unit_mass:
            return self.strengths
        g, mass = self.graph, np.asarray(self.graph.mass)
        d = np.zeros(g.n)
        with np.errstate(over="ignore", invalid="ignore"):
            terms = np.column_stack((mass[g.v] * g.w, mass[g.u] * g.w))
            np.add.at(d, np.column_stack((g.u, g.v)).ravel(), terms.ravel())
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
        (star classes are independent sets).  In each piece of two or more
        members, v1 is the greedy basis of the columns of A[N(G), G] (see
        _independent_columns), at the tolerance of the piece's smallest
        strength, v3 the rest of G and v2 = N(G), and verify_ldependent
        certifies the partition.  A piece it rejects, whose rows are
        dependent only within tolerance, is left out.
        """
        g, s = self.graph, self.strengths
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
        for piece in pieces:
            if piece.size < 2:
                continue
            tol = WEIGHT_TOL * float(s[piece].min())
            touched = np.zeros(g.n, dtype=bool)
            touched[self.column_entries(piece)[0]] = True
            nbrs = np.flatnonzero(touched)
            basis = _independent_columns(self.adjacency_block(nbrs, piece), tol)
            if basis.all():
                continue
            v1, v3 = piece[basis].tolist(), piece[~basis].tolist()
            try:
                found.append(verify_ldependent(self, v1, nbrs.tolist(), v3))
            except (ConditionViolatedError, NoCommonStrengthError):
                continue
        return tuple(sorted(found, key=lambda p: p.v1))

    def matrix(self, family: str) -> np.ndarray:
        """One family's matrix, built anew on each call: all its columns."""
        return self.columns(family)

    def columns(self, family: str, idx: np.ndarray | None = None) -> np.ndarray:
        """The columns idx of one family's matrix (all of them by default), written from the edges.

        This is the one place a family is assembled.  Each entry is the one
        its plain expression over a dense A gives, bit for bit: diag(s) - A
        ("laplacian"), diag(s) + A ("signless"), -A * outer(s^-1/2, s^-1/2)
        with 1 on the diagonal ("normalized"), A * outer(root, root)
        ("mass-adjacency") and diag(d) - A * outer(root, root)
        ("mass-laplacian"), root the square roots of the masses and d the
        mass strengths.  One zeroed n x len(idx) array (-0.0 for the
        normalized Laplacian, whose expression negates A's zeros) takes the
        edges' entries and the diagonal's; an entry off both is the
        expression at A's 0.0, which is that zero unless the outer product
        overflows there (0.0 times inf), and is written too.  The whole
        matrix takes each edge's entry, the same at (u, v) and (v, u), from
        the edge columns; a block of columns reads the neighbour lists.
        """
        family = self._family(family)
        if family not in FAMILIES:
            raise ValueError(f"unknown matrix family {family!r}")
        g = self.graph
        whole = idx is None
        idx = np.arange(g.n) if whole else np.asarray(idx, dtype=np.intp)
        scale = self._scale(family)
        out = np.zeros((g.n, idx.size))
        if family == "normalized":
            out.fill(-0.0)
        with np.errstate(over="ignore", invalid="ignore"):   # an overflow is inf or NaN, and fails checks
            if scale is not None:   # off the edges, 0.0 times an overflowed scale
                rows, at = overflow_pairs(scale, scale[idx])
                out[rows, at] = self._entries(family, scale, 0.0, rows, idx[at])
            if whole:
                out[g.u, g.v] = out[g.v, g.u] = self._entries(family, scale, g.w, g.u, g.v)
            else:
                rows, at, weights = self.column_entries(idx)
                out[rows, at] = self._entries(family, scale, weights, rows, idx[at])
            out[idx, np.arange(idx.size)] = self._entries(family, scale, 0.0, idx, idx, diagonal=True)
        return out

    def _scale(self, family: str) -> np.ndarray | None:
        """The vector whose outer product scales A in a family, None for a family with none."""
        if family == "normalized":
            if self.isolated:
                raise IsolatedVertexError(self.isolated[0])
            return 1.0 / np.sqrt(self.strengths)
        if family in ("mass-adjacency", "mass-laplacian"):
            return np.sqrt(np.asarray(self.graph.mass))
        return None

    def _entries(
        self,
        family: str,
        x: np.ndarray | None,
        a: np.ndarray | float,
        i: np.ndarray,
        j: np.ndarray,
        diagonal: bool = False,
    ) -> np.ndarray | float:
        """A family's entries at (i[t], j[t]), where A holds a[t] (or a), by its expression.

        x is the family's scale (see _scale).  The entries are off the
        diagonal, or with `diagonal` on it (i == j, where A holds 0.0).
        """
        if family == "adjacency":
            return a
        if family == "normalized":
            return 1.0 if diagonal else np.negative(a) * (x[i] * x[j])
        if family in ("laplacian", "signless"):
            base = self.strengths[i] if diagonal else 0.0
            return base - a if family == "laplacian" else base + a
        scaled = a * (x[i] * x[j])
        if family == "mass-adjacency":
            return scaled
        return (self.mass_strengths[i] if diagonal else 0.0) - scaled

    def column_entries(self, idx: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """The nonzeros of A[:, idx] as (rows, positions in idx, weights).

        Column by column in idx's order, each column's rows ascending.
        """
        bounds, nbrs, weights = self.neighbors
        idx = np.asarray(idx, dtype=np.intp)
        starts = bounds[idx]
        counts = bounds[idx + 1] - starts
        at = np.repeat(np.arange(idx.size), counts)
        if idx.size and idx[-1] - idx[0] == idx.size - 1 and (np.diff(idx) == 1).all():
            # a run of consecutive vertices: their lists lie side by side
            run = slice(starts[0], starts[0] + at.size)
            return nbrs[run], at, weights[run]
        pos = np.arange(at.size) + np.repeat(starts - (np.cumsum(counts) - counts), counts)
        return nbrs[pos], at, weights[pos]

    def adjacency_block(self, rows: Sequence[int], cols: Sequence[int]) -> np.ndarray:
        """A[np.ix_(rows, cols)] for distinct rows, written from the neighbour lists."""
        rows, cols = np.asarray(rows, dtype=np.intp), np.asarray(cols, dtype=np.intp)
        at_row = np.full(self.graph.n, -1)
        at_row[rows] = np.arange(rows.size)
        r, c, w = self.column_entries(cols)
        kept = at_row[r] >= 0
        out = np.zeros((rows.size, cols.size))
        out[at_row[r[kept]], c[kept]] = w[kept]
        return out

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
            if matrix is None:
                matrix = self.matrix(family)
            self._values[family] = eigen.sym_eigen(matrix, vectors=False).values
        return self._values[family]

    def second_vector(self, family: str) -> np.ndarray:
        """Unit, sign-normalized eigenvector at the second-smallest eigenvalue.

        Inverse iteration (eigen.eigenvector_at) at the cached values-only
        eigenvalue, on first use.  values() and second_vector() may be
        called in either order; each family's values are solved once.
        """
        family = self._family(family)
        if family not in self._second:
            matrix = self.matrix(family)
            self._second[family] = eigen.eigenvector_at(matrix, self.values(family, matrix)[1])
        return self._second[family]

    def check_claims(
        self, family: str, claims: Sequence[tuple[float, int]], tol_rel: float
    ) -> list[eigen.Check]:
        """Each (value, bound) claim as a check of one family's computed spectrum.

        The residual is the distance from value to its bound-th nearest
        eigenvalue (eigen.kth_nearest_distance), and the tol is tol_rel
        times the family's spectral radius, the gap at which
        eigen.group_multiplicities groups: the check passes when bound
        eigenvalues lie within tol of value.  With no claims nothing is
        solved.
        """
        if not claims:
            return []
        values = self.values(family)
        tol = tol_rel * eigen.spectral_radius(values)
        return [
            eigen.Check(
                f"{family}-multiplicity(w={value:.12g})",
                eigen.kth_nearest_distance(values, value, bound),
                tol,
                note=f"l={bound}",
            )
            for value, bound in claims
        ]

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


def overflow_pairs(x: np.ndarray, y: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The entries (i, j) of outer(x, y), x and y nonnegative, that overflow to inf.

    There are none unless the largest product does, so on almost every
    graph the answer costs two maxima.
    """
    with np.errstate(over="ignore"):
        top = y.max(initial=0.0)
        if math.isfinite(x.max(initial=0.0) * top):
            return np.zeros(0, dtype=np.intp), np.zeros(0, dtype=np.intp)
        rows = np.flatnonzero(np.isinf(x * top)).tolist()
        cols = [np.flatnonzero(np.isinf(x[i] * y)) for i in rows]
    return np.repeat(rows, [c.size for c in cols]).astype(np.intp), np.concatenate(cols)


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

    From the smallest strength up, a class takes every strength within
    WEIGHT_TOL times its smallest, and the next strength starts a new
    class, so no label and no chain of near ties decides a class.  A vertex
    of zero or non-finite strength is in none (-1).
    """
    order = np.argsort(s, kind="stable")
    ordered = s[order]
    with np.errstate(over="ignore"):   # a class reaching past the largest double takes the infs
        ends = np.searchsorted(ordered, ordered + WEIGHT_TOL * ordered, side="right")
    first = np.zeros(s.size, dtype=bool)
    start, ends = 0, ends.tolist()
    while start < s.size:   # each class ends past its first strength, which it takes
        first[start] = True
        start = ends[start]
    cls = np.empty(s.size, dtype=np.intp)
    cls[order] = np.cumsum(first) - 1
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

    Classes with an empty neighborhood (isolated twins) are skipped.  A
    class whose members differ in mass gets no weight, as one with unequal
    weight vectors does: neither can be reduced.  Output is ordered by the
    smallest vertex index in v1.
    """
    ctx = analyze(g)
    bounds, neighbors, _ = ctx.neighbors
    by_neighborhood: dict[bytes, list[int]] = {}
    for v, (start, stop) in enumerate(zip(bounds[:-1].tolist(), bounds[1:].tolist())):
        if stop > start:
            by_neighborhood.setdefault(neighbors[start:stop].tobytes(), []).append(v)
    stars = []
    for members in by_neighborhood.values():
        if len(members) < 2:
            continue
        v1 = tuple(members)
        v2 = tuple(neighbors[bounds[v1[0]] : bounds[v1[0] + 1]].tolist())
        equal_masses = len({ctx.graph.mass[v] for v in v1}) == 1
        weight = _uniform_weight(_star_rows(ctx, v1, len(v2))) if equal_masses else None
        stars.append(MkStar(v1=v1, v2=v2, weight_uniform=weight))
    stars.sort(key=lambda s: s.v1[0])
    return stars


def _star_rows(ctx: GraphAnalysis, v1: Sequence[int], k: int) -> np.ndarray:
    """A[np.ix_(v1, v2)] of a star of k neighbours v2: row i is v1[i]'s weights, v2 ascending."""
    bounds, _, weights = ctx.neighbors
    return weights[bounds[list(v1)][:, None] + np.arange(k)]


def unreducible_reason(g: Graph | GraphAnalysis, s: MkStar) -> str | None:
    """Why a detected star has no weight and cannot be reduced; None when it can."""
    if len({analyze(g).graph.mass[v] for v in s.v1}) > 1:
        return "unequal masses"
    return "unequal weight vectors" if s.weight_uniform is None else None


def group_by_weight(stars: Sequence[MkStar]) -> list[StarClass]:
    """Group the stars that carry a weight into classes of equal weight.

    A star without a weight (unequal weight vectors or masses) is left out.
    The weights fall into classes as strengths do (see _strength_classes);
    the non-finite weights form a class of their own.  The class degree is
    the sum of (m - 1) over its members.
    """
    ordered = sorted(
        (s for s in stars if s.weight_uniform is not None), key=lambda s: (s.weight_uniform, s.v1)
    )
    cls = _strength_classes(np.array([s.weight_uniform for s in ordered], dtype=float)).tolist()
    classes = []
    for c in dict.fromkeys(cls):
        members = tuple(s for s, k in zip(ordered, cls) if k == c)
        weight = float(np.mean([s.weight_uniform for s in members]))
        degree = sum(s.m - 1 for s in members)
        classes.append(StarClass(weight=weight, stars=members, degree=degree))
    return classes


def predict_multiplicities(g: Graph | GraphAnalysis) -> tuple[tuple[float, int], ...]:
    """Eigenvalue lower bounds (w, l) read off the dependent-row partitions.

    The l of the partitions of one strength class add up, at the mean of
    their common strengths; each claim bounds the multiplicity of w in L and
    in Q alike.  Their total is the bound at 1 for the normalized Laplacian.
    """
    ctx = analyze(g)
    cls = _strength_classes(ctx.strengths)
    by_class: dict[int, list[LDependentPartition]] = {}
    for p in ctx.dependent_rows:
        by_class.setdefault(int(cls[p.v1[0]]), []).append(p)
    return tuple(
        (float(np.mean([p.wtilde for p in parts])), sum(p.l for p in parts))
        for _, parts in sorted(by_class.items())
    )


def strength_warnings(g: Graph | GraphAnalysis) -> list[str]:
    """A warning naming the vertices whose strength is not finite, when there are any.

    An overflowed strength belongs to no strength class, so no claim is
    made on those vertices.
    """
    bad = np.flatnonzero(~np.isfinite(analyze(g).strengths)).tolist()
    if not bad:
        return []
    return [f"vertices {bad} have a strength that is not finite; no claim is made on them"]


def verify_star_predictions(
    g: Graph | GraphAnalysis, tol_rel: float = eigen.DEFAULT_TOL
) -> tuple[list[eigen.Check], list[str]]:
    """Check every dependent-row prediction against computed spectra: (checks, warnings).

    Each claim (w, l) is checked in L and in Q, and their total l at 1 in
    the normalized Laplacian (see GraphAnalysis.check_claims).  With no
    claims there is no check.  Vertices whose strength is not finite, stars
    that cannot be reduced, with their reason, and stars whose weight
    vectors are equal only within tolerance are reported as warnings.  The
    normalized-Laplacian claim is skipped, with a warning, when the graph
    has an isolated vertex.
    """
    ctx = analyze(g)
    claims = predict_multiplicities(ctx)
    warn = strength_warnings(ctx)
    for s in ctx.stars:
        rows = _star_rows(ctx, s.v1, s.k)
        reason = unreducible_reason(ctx, s)
        if reason:
            warn.append(f"star class v1={list(s.v1)} has {reason} and cannot be reduced")
        elif (rows != rows[0]).any():
            warn.append(
                f"star class v1={list(s.v1)} has weight vectors that differ by less than "
                "the equality tolerance; treating them as equal"
            )
    checks = ctx.check_claims("laplacian", claims, tol_rel)
    checks += ctx.check_claims("signless", claims, tol_rel)
    if claims:
        if ctx.isolated:
            warn.append(
                f"normalized-Laplacian prediction skipped: isolated vertices {ctx.isolated} "
                "have no normalized row"
            )
        else:
            checks += ctx.check_claims("normalized", [(1.0, sum(l for _, l in claims))], tol_rel)
    return checks, warn


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
    s = ctx.strengths

    # condition 1: every v1 vertex attaches into v2 and vice versa
    v1_rows = ctx.adjacency_block(v1_t, v2_t)
    attached = v1_rows > 0
    reaches = attached.any(axis=1)
    if not reaches.all():
        i = v1_t[int(np.argmin(reaches))]
        raise ConditionViolatedError(1, i, "v1 vertex has no neighbor in v2")
    reached = attached.any(axis=0)
    if not reached.all():
        j = v2_t[int(np.argmin(reached))]
        raise ConditionViolatedError(1, j, "v2 vertex has no neighbor in v1")

    # condition 2: v1 and v3 have neighbors only inside v2; the first row
    # in this order with an edge leaving v2 is reported, with its smallest
    # neighbour outside
    inside = np.zeros(ctx.graph.n, dtype=bool)
    inside[list(v2_t)] = True
    rows = v1_t + v3_t
    nbrs, at, _ = ctx.column_entries(rows)
    leaving = np.flatnonzero(~inside[nbrs])
    if leaving.size:
        k = leaving[0]
        raise ConditionViolatedError(2, rows[at[k]], f"edge to {nbrs[k]} leaves v2")

    wtilde = float(s[v1_t[0]]) if v1_t else 0.0

    # condition 3: each v3 row is a combination of the v1 rows on v2
    basis = v1_rows.T
    targets = ctx.adjacency_block(v3_t, v2_t).T
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
    plus random extra edges, never touching star vertices.  A background
    vertex whose neighbours are exactly some star's hubs would join that
    star's class, so it gets one more edge, to the first background vertex
    that is neither itself nor one of those hubs.

    Limit: such a vertex can be rewired only when the background holds at
    least two vertices besides that star's hubs (n - sum(m) - k >= 2).
    Otherwise it keeps its edges and joins the star's class, which is then
    one vertex larger than planted (seed 441332, n = 4, [(2, 1, 1.0)],
    background_p = 0.1 gives the class (0, 1, 3)).

    The same seed and arguments give the same graph, bit for bit.  The
    draws of np.random.default_rng(seed) come in this order: each star's k
    hub weights (none when k = 1); one weight per path edge; for each
    candidate background pair (i, j >= i + 2), in row-major order, one draw
    d, and when d < background_p one more for the pair's weight; then one
    weight per fix-up edge.  Every weight draw is uniform(0.5, 1.5).
    """
    rng = np.random.default_rng(seed)
    total = sum(m + k for m, k, _ in star_specs)
    if total > n:
        raise InfeasibleSpecError(f"star blocks need {total} vertices, only {n} available")
    for m, k, w in star_specs:
        if m < 2 or k < 1 or w <= 0:
            raise InfeasibleSpecError(f"invalid star spec (m={m}, k={k}, w={w})")

    us: list[np.ndarray] = []
    vs: list[np.ndarray] = []
    ws: list[np.ndarray] = []
    in_star = np.zeros(n, dtype=bool)
    hub_sets: list[set[int]] = []
    cursor = 0
    for m, k, w in star_specs:
        in_star[cursor : cursor + m] = True
        hubs = np.arange(cursor + m, cursor + m + k)
        hub_sets.append(set(hubs.tolist()))
        if k == 1:
            weights = np.array([w], dtype=float)
        else:
            raw = rng.uniform(0.5, 1.5, size=k)
            weights = raw * (w / raw.sum())
        us.append(np.repeat(np.arange(cursor, cursor + m), k))
        vs.append(np.tile(hubs, m))
        ws.append(np.tile(weights, m))
        cursor += m + k

    background = np.flatnonzero(~in_star)
    b = background.size
    us.append(background[:-1])
    vs.append(background[1:])
    ws.append(rng.uniform(0.5, 1.5, size=max(b - 1, 0)))
    picked, picked_w = _background_pairs(rng, (b - 1) * (b - 2) // 2 if b > 2 else 0, background_p)
    # row i holds the pairs (i, i + 2), ..., (i, b - 1), the first of them at index first[i]
    first = np.concatenate(([0], np.cumsum(np.arange(b - 2, 1, -1))))
    rows = np.searchsorted(first, picked, side="right") - 1
    us.append(background[rows])
    vs.append(background[picked - first[rows] + rows + 2])
    ws.append(picked_w)
    u, v = np.concatenate(us), np.concatenate(vs)

    # keep planted classes exact: no background vertex may replicate a hub set.
    # Neighbourhoods only grow here, so only a vertex of degree at most the
    # largest k can ever equal a hub set, and only those are kept.
    degree = np.bincount(np.concatenate((u, v)), minlength=n)
    small = degree <= max((len(h) for h in hub_sets), default=0)
    hoods: dict[int, set[int]] = {x: set() for x in np.flatnonzero(small).tolist()}
    touching = small[u] | small[v]
    for x, y in zip(u[touching].tolist(), v[touching].tolist()):
        for a, c in ((x, y), (y, x)):
            if a in hoods:
                hoods[a].add(c)
    extra: list[tuple[int, int, float]] = []
    order = background.tolist()
    for x in order:
        hood = hoods.get(x)
        if hood is None:
            continue
        for hubs in hub_sets:
            if hood == hubs:
                target = next((y for y in order if y != x and y not in hubs), None)
                if target is not None:
                    extra.append((x, target, float(rng.uniform(0.5, 1.5))))
                    hood.add(target)
                    if target in hoods:
                        hoods[target].add(x)
    if extra:
        eu, ev, ew = zip(*extra)
        us.append(np.array(eu))
        vs.append(np.array(ev))
        ws.append(np.array(ew))
    return build_graph_from_columns(n, np.concatenate(us), np.concatenate(vs), np.concatenate(ws))


# draws read per round by _background_pairs, which bounds its temporaries
_PAIR_BLOCK = 1 << 16


def _background_pairs(rng: np.random.Generator, count: int, p: float) -> tuple[np.ndarray, np.ndarray]:
    """The candidate pairs that draw d < p, among `count`, and their uniform(0.5, 1.5) weights.

    Replays the per-pair stream: pair t draws d, and an accepted pair one
    more double d' for its weight 0.5 + 1.0 * d'.  Each round reads only
    draws the stream is sure to make (one per pair left, and the weight of
    an accepted pair that ended the last round), so exactly as many are
    consumed as the per-pair loop makes.  A draw after one of at least p is
    a pair's; inside a run of draws below p, pair and weight draws alternate
    from the run's first.
    """
    picked = [np.zeros(0, dtype=np.intp)]
    draws = [np.zeros(0)]
    done = 0            # pairs whose draw has been read
    pending = False     # the last pair read was accepted; its weight draw comes next
    while done < count or pending:
        x = rng.random(min(count - done, _PAIR_BLOCK) + pending)
        if pending:
            draws.append(x[:1])
            x = x[1:]
        below = x < p
        start = below.copy()
        start[1:] &= ~below[:-1]
        at = np.arange(x.size)
        run_start = np.maximum.accumulate(np.where(start, at, 0))
        accepted = below & ((at - run_start) % 2 == 0)
        is_pair = np.ones(x.size, dtype=bool)
        is_pair[1:] = ~accepted[:-1]
        hits = np.flatnonzero(accepted)
        pending = bool(hits.size and hits[-1] == x.size - 1)
        picked.append(done + np.cumsum(is_pair)[hits] - 1)
        draws.append(x[hits[: hits.size - pending] + 1])
        done += int(is_pair.sum())
    return np.concatenate(picked), 0.5 + 1.0 * np.concatenate(draws)


def plant_ldependent_graph(
    seed: int, sizes: tuple[int, int, int], wtilde: float
) -> Graph:
    """Random graph with a planted dependent-row partition of common strength.

    sizes = (|v1|, |v2|, l); vertices are laid out as v1, then v2, then v3.
    v1 rows are random positive weights over all of v2 rescaled to the common
    strength; each v3 row is a random convex combination of the v1 rows, so
    its strength matches by construction.  The same seed and arguments give
    the same graph, bit for bit: np.random.default_rng(seed) draws the v1
    rows, then each v3 row's coefficients in turn.
    """
    m1, k, l = sizes
    if m1 < 1 or k < 1 or l < 0 or wtilde <= 0:
        raise InfeasibleSpecError(f"invalid dependent-row spec (sizes={sizes}, w={wtilde})")
    rng = np.random.default_rng(seed)
    n = m1 + k + l
    rows = rng.uniform(0.5, 1.5, size=(m1, k))
    rows *= wtilde / rows.sum(axis=1, keepdims=True)
    combos = np.empty((l, k))
    for a in range(l):
        coeffs = rng.uniform(0.2, 1.0, size=m1)
        coeffs /= coeffs.sum()
        combos[a] = coeffs @ rows
    hubs = np.arange(m1, m1 + k)
    u = np.concatenate((np.repeat(np.arange(m1), k), np.repeat(np.arange(m1 + k, n), k)))
    v = np.tile(hubs, m1 + l)
    return build_graph_from_columns(n, u, v, np.concatenate((rows.ravel(), combos.ravel())))
