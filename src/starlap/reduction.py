"""Spectrum-preserving star reduction with vertex masses.

Removing q of a star's m interchangeable vertices and placing mass
m / (m - q) on the survivors keeps the adjacency spectrum (up to q zeros)
and the Laplacian spectrum (up to q copies of the star weight).  The bridge
between original and reduced operators is an n x (n - q) matrix K with
orthonormal columns satisfying K^T A K = M^(1/2) B M^(1/2) and A K =
K M^(1/2) B M^(1/2): identity rows on untouched vertices and, on each star
block, an orthonormal frame whose columns all sum to sqrt(m / (m - q)).
The q columns that complete a star's frame to an orthogonal matrix
(`star_complement`) are the star's local eigenvectors, of A at 0 and of L
at the star weight, so the reduced graph's eigenvectors lifted through K
and these make a complete eigenbasis of the original.

K is held implicitly, as the vertex map and one m x p frame per reduced
star (O(n + sum m p) numbers), and every check and lift works through the
star blocks in O(n^2) time; `Reduction.k_matrix` builds the dense matrix
only for a caller that asks for it.

The reduced degree matrix is fixed as the column sums of M B, which makes the
mass-weighted Laplacian identities hold exactly and conserves total weighted
strength; `GraphAnalysis.mass_strengths` computes them.  The symmetric
operators M^(1/2) B M^(1/2) and L~ come from `GraphAnalysis.matrix`, and
`mass_laplacian` builds the nonsymmetric L(MB).  The original graph's
operators are its own mass families, A and L when every mass is 1, so a
graph read back from a reduction is reduced and checked the same way.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property
from typing import Callable, Iterator, Sequence

import numpy as np

from . import eigen
from .errors import (
    DimensionMismatchError,
    InvalidQError,
    StructuralStarOnlyError,
)
from .graphs import Graph, build_graph_from_columns
from .stars import WEIGHT_TOL, GraphAnalysis, MkStar, analyze


@dataclass(frozen=True)
class ReducedStarInfo:
    """One reduced star and its block of K.

    `frame` is the m x p block of K on this star: row a belongs to the a-th
    vertex of sorted(star.v1), column b to the reduced vertex of kept_v1[b].
    """

    star: MkStar
    q: int
    kept_v1: tuple[int, ...]     # original indices of surviving star vertices
    frame: np.ndarray = field(compare=False, repr=False)


@dataclass(frozen=True)
class Reduction:
    """A reduced graph together with the map back to the original.

    K is the identity from each untouched vertex to its reduced index plus
    one frame per entry of `star_info`; `k_matrix` builds it densely on
    each access.
    """

    original: Graph
    reduced: Graph
    vertex_map: tuple[int | None, ...]   # original index -> reduced index or None
    star_info: tuple[ReducedStarInfo, ...]

    @property
    def q_total(self) -> int:
        return self.original.n - self.reduced.n

    @cached_property
    def _blocks(self) -> tuple[tuple[np.ndarray, np.ndarray, np.ndarray | None], ...]:
        """(original rows, reduced columns, frame) of each block of K.

        The first block, with frame None, is the identity on the untouched
        vertices; every other block is one reduced star's frame.
        """
        in_star = {v for info in self.star_info for v in info.star.v1}
        untouched = [
            v for v, new in enumerate(self.vertex_map) if new is not None and v not in in_star
        ]
        blocks = [
            (
                np.array(untouched, dtype=np.intp),
                np.array([self.vertex_map[v] for v in untouched], dtype=np.intp),
                None,
            )
        ]
        for info in self.star_info:
            blocks.append(
                (
                    np.array(sorted(info.star.v1), dtype=np.intp),
                    np.array([self.vertex_map[v] for v in info.kept_v1], dtype=np.intp),
                    info.frame,
                )
            )
        return tuple(blocks)

    @property
    def k_matrix(self) -> np.ndarray:
        """The dense, read-only n x (n - q) K, built anew on each access."""
        k = np.zeros((self.original.n, self.reduced.n))
        for rows, cols, frame in self._blocks:
            if frame is None:
                k[rows, cols] = 1.0
            else:
                k[np.ix_(rows, cols)] = frame
        k.setflags(write=False)
        return k


@dataclass(frozen=True)
class Check:
    """A named identity check: it passes when its residual is finite and at most tol."""

    name: str
    residual: float
    tol: float
    note: str = ""

    @property
    def passed(self) -> bool:
        return math.isfinite(self.residual) and self.residual <= self.tol


@dataclass(frozen=True)
class VerificationRecord:
    checks: tuple[Check, ...]

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)


def _swap_columns(k: int, p: int) -> np.ndarray:
    """The first p columns of the reflection H_k swapping e_1 and the normalized all-ones vector."""
    w = np.full(k, -1.0 / np.sqrt(k))
    w[0] += 1.0
    return np.eye(k, p) - (2.0 / (w @ w)) * np.outer(w, w[:p])


def star_frame(m: int, p: int) -> np.ndarray:
    """m x p orthonormal frame whose columns each sum to sqrt(m / p).

    For p = 1 the single column is the normalized all-ones vector u.  For
    p >= 2 the frame is H_m[:, :p] H_p: the columns of H_m[:, :p] are
    orthonormal, the first is u and the others sum to 0, so each column sums
    to sqrt(m) times the first row of H_p, which is 1 / sqrt(p) throughout.
    """
    if p == 1:
        return np.full((m, 1), 1.0 / np.sqrt(m))
    return _swap_columns(m, p) @ _swap_columns(p, p)


def star_complement(m: int, p: int) -> np.ndarray:
    """The m x (m - p) columns p..m-1 of H_m, orthonormal and orthogonal to star_frame(m, p).

    star_frame(m, p) spans the first p columns of the orthogonal H_m, so
    [star_frame(m, p) | star_complement(m, p)] is orthogonal.  Placed on the
    sorted members of a star with a weight, each column is one of the
    paper's star-local eigenvectors: it sums to 0 over twins of one mass, so
    the mass Laplacian maps it to the star's mass strength times itself.
    """
    return _swap_columns(m, m)[:, p:]


def removed_values(g: Graph | GraphAnalysis, r: Reduction) -> tuple[tuple[float, int], ...]:
    """Each reduced star's (mass strength, q): q copies of that eigenvalue leave L's spectrum.

    The mass strength is the original graph's, at the star's first kept vertex.
    """
    ctx = analyze(g)
    return tuple((float(ctx.mass_strengths[info.kept_v1[0]]), info.q) for info in r.star_info)


def _reduce(g: Graph, assignments: Sequence[tuple[MkStar, int]]) -> Reduction:
    for star, q in assignments:
        if star.weight_uniform is None:
            raise StructuralStarOnlyError(star.v1)
        if not (1 <= q <= star.m - 1):
            raise InvalidQError(q, star.m)

    removed: set[int] = set()
    for star, q in assignments:
        removed.update(sorted(star.v1)[star.m - q:])

    keep = np.ones(g.n, dtype=bool)
    keep[list(removed)] = False
    renumber = np.cumsum(keep) - 1   # each kept vertex's reduced index
    vertex_map = tuple(new if k else None for new, k in zip(renumber.tolist(), keep.tolist()))

    mass = [g.mass[v] for v in np.flatnonzero(keep).tolist()]
    infos = []
    for star, q in assignments:
        kept_v1 = tuple(sorted(star.v1)[: star.m - q])
        factor = star.m / (star.m - q)
        for v in kept_v1:
            mass[renumber[v]] *= factor
        frame = star_frame(star.m, len(kept_v1))
        frame.setflags(write=False)
        infos.append(ReducedStarInfo(star=star, q=q, kept_v1=kept_v1, frame=frame))
    if removed:
        both_kept = keep[g.u] & keep[g.v]
        reduced = build_graph_from_columns(
            len(mass), renumber[g.u[both_kept]], renumber[g.v[both_kept]], g.w[both_kept], mass
        )
    else:   # the identity: the original graph, edges and masses as they are
        reduced = g
    return Reduction(
        original=g,
        reduced=reduced,
        vertex_map=vertex_map,
        star_info=tuple(infos),
    )


def reduce_star(g: Graph, s: MkStar, q: int) -> Reduction:
    """Remove the q largest-index vertices of one star, reweighting the rest."""
    return _reduce(g, [(s, q)])


def reduce_all(
    g: Graph | GraphAnalysis, policy: str | Sequence[int] = "collapse"
) -> Reduction:
    """Reduce every reducible star under a policy.

    "collapse" removes all but one vertex per star (q = m - 1); "keep-pair"
    removes all but two (q = m - 2, skipping 2-vertex stars).  A sequence of
    per-star q values, aligned with detect_stars order, gives explicit control
    (q = 0 skips a star).  A star without a weight (unequal weight vectors
    or masses) is skipped by the named policies and rejected when an
    explicit positive q targets it.
    """
    ctx = analyze(g)
    stars = ctx.stars
    assignments: list[tuple[MkStar, int]] = []
    if isinstance(policy, str):
        if policy not in ("collapse", "keep-pair"):
            raise ValueError(f"unknown policy {policy!r}")
        for s in stars:
            if s.weight_uniform is None:
                continue
            q = s.m - 1 if policy == "collapse" else max(0, s.m - 2)
            if q > 0:
                assignments.append((s, q))
    else:
        if len(policy) != len(stars):
            raise DimensionMismatchError(
                f"got {len(policy)} q values for {len(stars)} detected stars"
            )
        for s, q in zip(stars, policy):
            if q == 0:
                continue
            assignments.append((s, int(q)))
    return _reduce(ctx.graph, assignments)


def mass_laplacian(r: Reduction) -> np.ndarray:
    """Nonsymmetric mass-weighted Laplacian L(MB) = diag(column sums of M B) - M B."""
    return _mass_laplacian(GraphAnalysis(r.reduced))


def _mass_laplacian(red: GraphAnalysis) -> np.ndarray:
    """L(MB) of a reduced graph, from its analysis's cached B and mass strengths."""
    with np.errstate(over="ignore", invalid="ignore"):
        mb = np.asarray(red.graph.mass)[:, None] * red.adjacency
        lmb = np.diag(red.mass_strengths)
        lmb -= mb
    return lmb


def _k_times(r: Reduction, m: np.ndarray) -> np.ndarray:
    """K m for an array m of n - q rows, one block of K at a time."""
    out = np.zeros((r.original.n,) + m.shape[1:])
    for rows, cols, frame in r._blocks:
        out[rows] = m[cols] if frame is None else frame @ m[cols]
    return out


def _kt_times(r: Reduction, y: np.ndarray) -> np.ndarray:
    """K^T y for an array y of n rows, one block of K at a time."""
    out = np.zeros((r.reduced.n,) + y.shape[1:])
    for rows, cols, frame in r._blocks:
        out[cols] = y[rows] if frame is None else frame.T @ y[rows]
    return out


Columns = Callable[[np.ndarray], np.ndarray]


def _column_blocks(r: Reduction, x: Columns) -> Iterator[tuple[np.ndarray, np.ndarray]]:
    """(c, X K[:, c]) for each block c of K's columns, read off X's columns in one pass.

    `x(idx)` returns X[:, idx], and each column of X is read once.  No block
    reads more than an eighth of K's width of X's columns at once, so the
    blocks and their products stay below the size of a dense K.  Each
    yielded block is the caller's to overwrite.
    """
    step = max(1, r.reduced.n // 8)
    for rows, cols, frame in r._blocks:
        if frame is None:
            for start in range(0, rows.size, step):
                yield cols[start:start + step], x(rows[start:start + step])
            continue
        xk = x(rows[:step]) @ frame[:step]
        for start in range(step, rows.size, step):
            xk += x(rows[start:start + step]) @ frame[start:start + step]
        yield cols, xk


def _columns(x: np.ndarray) -> Columns:
    """Columns of a dense X, gathered C-ordered so that block arithmetic needs no buffer."""
    return lambda idx: np.take(x, idx, axis=1)


def _laplacian_columns(ctx: GraphAnalysis) -> Columns:
    """Columns of the mass Laplacian diag(d) - M^(1/2) A M^(1/2), d the mass strengths.

    With unit masses that is L, read off the cached A and strengths.
    """
    a, s = ctx.matrix("mass-adjacency"), ctx.mass_strengths

    def columns(idx: np.ndarray) -> np.ndarray:
        out = np.take(a, idx, axis=1)
        np.negative(out, out=out)
        out[idx, np.arange(idx.size)] += s[idx]
        return out

    return columns


def _lift_squares(r: Reduction, cols: np.ndarray, xk: np.ndarray, reduced: np.ndarray) -> float:
    """The squared Frobenius norm of (X K - K R)[:, cols], made in place from X K[:, cols].

    X K - K R is the intertwining defect of K.  For every unit eigenvector v
    of R with eigenvalue t, the lifted pair (t, K v) has X K v - t K v =
    (X K - K R) v, so the defect's norm, the square root of these block sums
    added in block order, bounds the eigen-equation residual of every
    lifted eigenvector at once.  NaN and inf propagate.
    """
    xk -= _k_times(r, reduced[:, cols])
    return float(np.vdot(xk, xk))


def lift_vector(r: Reduction, v: np.ndarray) -> np.ndarray:
    """Map a reduced-graph eigenvector, or an (n - q) x k array of them, through K.

    An eigenvector of the reduced graph's symmetric mass Laplacian L~ (or of
    M^(1/2) B M^(1/2)) lifts to one of the original graph's at the same
    eigenvalue, by the intertwining L K = K L~ (A K = K M^(1/2) B M^(1/2)).
    K has orthonormal columns, so K v keeps v's norm.  A right eigenvector
    of the nonsymmetric L(MB) is M^(1/2) times one of L~; M^(1/2) is a
    positive diagonal, so the two have the same signs.  Columns are lifted
    together; where every frame has one column, as after a collapse, each
    is its lift alone bit for bit, and wider frames may round differently.
    """
    v = np.asarray(v, dtype=float)
    if v.ndim not in (1, 2) or v.shape[0] != r.reduced.n:
        raise DimensionMismatchError(
            f"array has shape {v.shape}, reduced graph has {r.reduced.n} vertices"
        )
    return _k_times(r, v)


def _maxabs(a: np.ndarray) -> float:
    return float(np.abs(a).max()) if a.size else 0.0


def _match_after_removal(
    original_vals: np.ndarray,
    reduced_vals: np.ndarray,
    removals: list[float],
    tol: float,
) -> tuple[float, str]:
    """Match spectra as multisets after deleting one original value per removal.

    Each removal deletes the remaining original value nearest the requested
    one; a removal farther than tol from its request is a failure.  Returns
    the deviation, which is above tol on failure, and a note.
    """
    vals = np.asarray(original_vals, dtype=float)
    live = np.ones(vals.size, dtype=bool)
    for target in removals:
        remaining = np.flatnonzero(live)
        distance = np.abs(vals[remaining] - target)
        nearest = int(np.argmin(distance))
        if distance[nearest] > tol:
            return float(distance[nearest]), f"no eigenvalue near {target:.6g} to remove"
        live[remaining[nearest]] = False
    rest = vals[live]
    if rest.size != len(reduced_vals):
        return float("inf"), "size mismatch after removal"
    deviation = float(np.abs(np.sort(rest) - np.sort(reduced_vals)).max()) if rest.size else 0.0
    return deviation, ""


@np.errstate(over="ignore", invalid="ignore")   # an overflow is inf or NaN, and fails its check
def verify_adjacency_reduction(
    g: Graph | GraphAnalysis, r: Reduction, tol_rel: float = eigen.DEFAULT_TOL
) -> VerificationRecord:
    """Check the adjacency-side reduction identities; failures are recorded.

    Checks: K orthonormality, the congruence K^T A K = M^(1/2) B M^(1/2),
    spectrum preservation up to q zeros, and the intertwining A K = K S with
    S = M^(1/2) B M^(1/2), relative to the spectral radius of A.  A stands
    for the original graph's mass adjacency, A itself when every mass is 1.
    """
    ctx = analyze(g)
    red = ctx.reduced(r)
    a = ctx.matrix("mass-adjacency")
    s = red.matrix("mass-adjacency")
    # K^T K - I is zero outside the frames' F^T F - I: the identity block
    # and the blocks' disjoint row supports hold by construction
    ortho = [_maxabs(frame.T @ frame - np.eye(frame.shape[1])) for _, _, frame in r._blocks[1:]]
    congruence, squares = [], 0.0
    for cols, ak in _column_blocks(r, _columns(a)):
        congruence.append(_maxabs(_kt_times(r, ak) - s[:, cols]))   # before the lift overwrites ak
        squares += _lift_squares(r, cols, ak, s)
    values_s = red.values("mass-adjacency", s)
    del s  # lowers peak memory: only the eigenvalues are used below
    values_a = ctx.values("mass-adjacency", a)
    radius = eigen.spectral_radius(values_a)
    tol = tol_rel * radius
    # the largest |entry| of A, without an n x n |A|
    scale = float(max(a.max(), -a.min())) if a.size else 0.0
    lift = math.sqrt(squares)

    dev, note = _match_after_removal(values_a, values_s, [0.0] * r.q_total, tol)
    checks = (
        # np.max, unlike max, keeps a NaN wherever it stands
        Check("k-orthonormality", float(np.max(ortho, initial=0.0)), 1e-10),
        Check("adjacency-congruence", float(np.max(congruence, initial=0.0)), WEIGHT_TOL * scale),
        Check("adjacency-spectrum", dev, tol, note),
        Check("adjacency-lift-residual", lift / radius if radius else lift, tol_rel),
    )
    return VerificationRecord(checks=checks)


def _similarity_deviation(red: GraphAnalysis, tilde: np.ndarray) -> float:
    """Largest entry of M^(-1/2) L(MB) M^(1/2) - tilde, from the reduced graph's cached B."""
    if not red.graph.n:
        return 0.0
    root = np.sqrt(np.asarray(red.graph.mass))
    similar = _mass_laplacian(red)
    similar *= np.outer(1.0 / root, root)
    similar -= tilde
    return _maxabs(similar)


@np.errstate(over="ignore", invalid="ignore")   # an overflow is inf or NaN, and fails its check
def verify_laplacian_reduction(
    g: Graph | GraphAnalysis, r: Reduction, tol_rel: float = eigen.DEFAULT_TOL
) -> VerificationRecord:
    """Check the Laplacian-side reduction identities; failures are recorded.

    Checks: spectrum preservation after removing q copies of each reduced
    star's weight, the similarity between the nonsymmetric and symmetric
    mass Laplacians, and the intertwining L K = K L~ with the symmetric mass
    Laplacian L~, relative to the spectral radius of L.  L stands for the
    original graph's mass Laplacian, L itself when every mass is 1, and a
    star's weight for its members' mass strength there.
    """
    ctx = analyze(g)
    red = ctx.reduced(r)
    tilde = red.matrix("mass-laplacian")
    sim = _similarity_deviation(red, tilde)
    squares = 0.0
    for cols, lk in _column_blocks(r, _laplacian_columns(ctx)):
        squares += _lift_squares(r, cols, lk, tilde)
    lift = math.sqrt(squares)
    values_t = red.values("mass-laplacian", tilde)
    del tilde  # lowers peak memory: only the eigenvalues are used below
    values_l = ctx.values("mass-laplacian")
    radius = eigen.spectral_radius(values_l)
    tol = tol_rel * radius

    removals = [value for value, q in removed_values(ctx, r) for _ in range(q)]
    dev, note = _match_after_removal(values_l, values_t, removals, tol)
    checks = (
        Check("laplacian-spectrum", dev, tol, note),
        Check("mass-laplacian-similarity", sim, tol),
        Check("laplacian-lift-residual", lift / radius if radius else lift, tol_rel),
    )
    return VerificationRecord(checks=checks)


def interlacing_check(
    g: Graph | GraphAnalysis, r: Reduction, tol: float = eigen.DEFAULT_TOL
) -> bool:
    """Eigenvalues of K^T A K interlace those of A (descending convention).

    A is the original graph's mass adjacency, as in verify_adjacency_reduction.
    The K^T A K spectrum is read off M^(1/2) B M^(1/2), its value once the
    adjacency-congruence check of verify_adjacency_reduction passes.  The
    tolerance is tol times the spectral radius of A, and a non-finite
    eigenvalue fails.
    """
    ctx = analyze(g)
    alpha = np.sort(ctx.values("mass-adjacency"))[::-1]
    beta = np.sort(ctx.reduced(r).values("mass-adjacency"))[::-1]
    if not (np.isfinite(alpha).all() and np.isfinite(beta).all()):
        return False
    tol = tol * eigen.spectral_radius(alpha)
    n_a, n_b = alpha.size, beta.size
    for i in range(n_b):
        if alpha[i] < beta[i] - tol:
            return False
        if beta[i] < alpha[n_a - n_b + i] - tol:
            return False
    return True
