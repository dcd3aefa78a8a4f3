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
star (O(n + sum m p) numbers), the frames of one shape stacked, and every
check and lift works through the star blocks in O(n^2) time, one stacked
np.matmul per shape; `Reduction.k_matrix` builds the dense matrix only for
a caller that asks for it.

The reduced degree matrix is fixed as the column sums of M B, which makes the
mass-weighted Laplacian identities hold exactly and conserves total weighted
strength; `GraphAnalysis.mass_strengths` computes them.  The symmetric
operators M^(1/2) B M^(1/2) and L~ come from `GraphAnalysis.matrix`, dense
only while their values are solved, and the checks read the blocks of
their columns, and of the original graph's, that they need from
`GraphAnalysis.columns`, which writes them from the edges; no check holds
a dense A or B.  `mass_laplacian` builds the nonsymmetric L(MB).  The
original graph's operators are its own mass families, A and L when every
mass is 1, so a graph read back from a reduction is reduced and checked the
same way.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property
from typing import Callable, Iterator, Sequence

import numpy as np

from . import eigen
from .eigen import Check
from .errors import (
    DimensionMismatchError,
    InvalidQError,
    StructuralStarOnlyError,
)
from .graphs import Graph, build_graph_from_columns
from .stars import WEIGHT_TOL, GraphAnalysis, MkStar, analyze, overflow_pairs


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
    one frame per entry of `star_info`, stacked by shape (`_stacks`);
    `k_matrix` builds it densely on each access.
    """

    original: Graph
    reduced: Graph
    vertex_map: tuple[int | None, ...]   # original index -> reduced index or None
    star_info: tuple[ReducedStarInfo, ...]

    @property
    def q_total(self) -> int:
        return self.original.n - self.reduced.n

    @cached_property
    def _identity(self) -> tuple[np.ndarray, np.ndarray]:
        """(original rows, reduced columns) of K's identity block, the untouched vertices."""
        in_star = {v for info in self.star_info for v in info.star.v1}
        untouched = [
            v for v, new in enumerate(self.vertex_map) if new is not None and v not in in_star
        ]
        return (
            np.array(untouched, dtype=np.intp),
            np.array([self.vertex_map[v] for v in untouched], dtype=np.intp),
        )

    @cached_property
    def _stacks(self) -> tuple[_Stack, ...]:
        """K's star blocks, those of one (m, p) shape stacked, shapes in order of first use."""
        by_shape: dict[tuple[int, int], list[int]] = {}
        for i, info in enumerate(self.star_info):
            by_shape.setdefault(info.frame.shape, []).append(i)
        stacks = []
        for members in by_shape.values():
            infos = [self.star_info[i] for i in members]
            stacks.append(
                _Stack(
                    stars=np.array(members, dtype=np.intp),
                    rows=np.array([sorted(info.star.v1) for info in infos], dtype=np.intp),
                    cols=np.array(
                        [[self.vertex_map[v] for v in info.kept_v1] for info in infos],
                        dtype=np.intp,
                    ),
                    frames=np.stack([info.frame for info in infos]),
                )
            )
        return tuple(stacks)

    @property
    def k_matrix(self) -> np.ndarray:
        """The dense, read-only n x (n - q) K, built anew on each access."""
        k = np.zeros((self.original.n, self.reduced.n))
        rows, cols = self._identity
        k[rows, cols] = 1.0
        for stack in self._stacks:
            k[stack.rows[:, :, None], stack.cols[:, None, :]] = stack.frames
        k.setflags(write=False)
        return k


@dataclass(frozen=True)
class _Stack:
    """The blocks of K on the reduced stars of one shape.

    The i-th is star_info[stars[i]]'s: rows[i] are its m original rows in
    ascending order, cols[i] its p reduced columns and frames[i] its m x p
    frame.
    """

    stars: np.ndarray
    rows: np.ndarray
    cols: np.ndarray
    frames: np.ndarray


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


def _frames_times(frames: np.ndarray, x: np.ndarray) -> np.ndarray:
    """frames[i] @ x[i] for each i, x of shape (c, p, *rest): the c x m x *rest product.

    One stacked np.matmul: each product is the m x p frame times a p-row
    slice of x[i], one per index of the axes between p and the last, so
    every entry is the one the frame's own product gives, bit for bit.
    """
    if x.ndim == 2:
        return np.matmul(frames, x[:, :, None])[:, :, 0]
    stacked = np.expand_dims(frames, tuple(range(1, x.ndim - 2)))
    return np.moveaxis(np.matmul(stacked, np.moveaxis(x, 1, -2)), -2, 1)


def _k_times(r: Reduction, m: np.ndarray) -> np.ndarray:
    """K m for an array m of n - q rows, one stacked product per shape of K's star blocks."""
    out = np.zeros((r.original.n,) + m.shape[1:])
    rows, cols = r._identity
    out[rows] = m[cols]
    for stack in r._stacks:
        out[stack.rows] = _frames_times(stack.frames, m[stack.cols])
    return out


def _kt_times(r: Reduction, y: np.ndarray) -> np.ndarray:
    """K^T y for an array y of n rows, one stacked product per shape of K's star blocks."""
    out = np.zeros((r.reduced.n,) + y.shape[1:])
    rows, cols = r._identity
    out[cols] = y[rows]
    for stack in r._stacks:
        out[stack.cols] = _frames_times(stack.frames.transpose(0, 2, 1), y[stack.rows])
    return out


Columns = Callable[[np.ndarray], np.ndarray]


def _column_blocks(
    r: Reduction, x: Columns
) -> Iterator[tuple[np.ndarray, np.ndarray, np.ndarray]]:
    """(slots, cols, X K[:, cols]) for blocks of K's columns, read off X's columns in one pass.

    `x(idx)` returns X[:, idx], and each column of X is read once.  cols is
    c x w and X K[:, cols] n x c x w: c of K's blocks side by side, slots
    their places in K's order (the identity block's chunks first, then the
    stars in star_info order).  The identity block comes a chunk at a time,
    and the stars of one shape c at a time, their products taken in one
    stacked np.matmul, each bit for bit the product of its star alone.  A
    star wider than a chunk reads its rows a chunk at a time.  No block
    reads more than an eighth of K's width of X's columns at once, so the
    blocks and their products stay below the size of a dense K.  Each
    yielded block is the caller's to overwrite.
    """
    step = max(1, r.reduced.n // 8)
    rows, cols = r._identity
    starts = range(0, rows.size, step)
    for slot, start in enumerate(starts):
        part = slice(start, start + step)
        yield np.array([slot]), cols[None, part], x(rows[part])[:, None, :]
    for stack in r._stacks:
        count, m, p = stack.frames.shape
        slots = len(starts) + stack.stars
        if m > step:
            for i, (star_rows, frame) in enumerate(zip(stack.rows, stack.frames)):
                xk = x(star_rows[:step]) @ frame[:step]
                for start in range(step, m, step):
                    xk += x(star_rows[start:start + step]) @ frame[start:start + step]
                yield slots[i:i + 1], stack.cols[i:i + 1], xk[:, None, :]
            continue
        per = step // m
        for start in range(0, count, per):
            part = slice(start, start + per)
            xs = x(stack.rows[part].ravel())
            c = xs.shape[1] // m
            xk = np.empty((xs.shape[0], c, p))
            np.matmul(
                xs.reshape(-1, c, m).transpose(1, 0, 2),
                stack.frames[part],
                out=xk.transpose(1, 0, 2),
            )
            yield slots[part], stack.cols[part], xk


def _lift_squares(
    r: Reduction, slots: np.ndarray, xk: np.ndarray, reduced: np.ndarray
) -> dict[int, float]:
    """Each slot's squared Frobenius norm of (X K - K R)[:, cols], made in place from X K[:, cols].

    `reduced` is R[:, cols], and xk and it hold one slot's columns per
    index of their middle axis.  X K - K R is the intertwining defect of
    K.  For every unit eigenvector v of R with eigenvalue t, the lifted
    pair (t, K v) has X K v - t K v = (X K - K R) v, so the defect's norm,
    the square root of these sums added in slot order, bounds the
    eigen-equation residual of every lifted eigenvector at once.  NaN and
    inf propagate.
    """
    xk -= _k_times(r, reduced)
    return {slot: float(np.vdot(xk[:, i], xk[:, i])) for i, slot in enumerate(slots.tolist())}


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
) -> tuple[Check, ...]:
    """Check the adjacency-side reduction identities; failures are recorded.

    Checks: K orthonormality, the congruence K^T A K = M^(1/2) B M^(1/2),
    spectrum preservation up to q zeros, and the intertwining A K = K S with
    S = M^(1/2) B M^(1/2), relative to the spectral radius of A.  A stands
    for the original graph's mass adjacency, A itself when every mass is 1.
    A and S are dense only while their values are solved, one after the
    other; the congruence and the lift read the columns of A and S that
    each block of K needs off the edges.
    """
    ctx = analyze(g)
    red = ctx.reduced(r)
    values_a = ctx.values("mass-adjacency")
    values_s = red.values("mass-adjacency")
    radius = eigen.spectral_radius(values_a)
    tol = tol_rel * radius
    # K^T K - I is zero outside the frames' F^T F - I: the identity block
    # and the blocks' disjoint row supports hold by construction
    ortho = [
        _maxabs(stack.frames.transpose(0, 2, 1) @ stack.frames - np.eye(stack.frames.shape[2]))
        for stack in r._stacks
    ]
    peaks = []

    def columns_of_a(idx: np.ndarray) -> np.ndarray:
        block = ctx.columns("mass-adjacency", idx)
        peaks.append(max(block.max(), -block.min()))   # the largest |entry|, without a |block|
        return block

    congruence, squares = [], {}
    for slots, cols, ak in _column_blocks(r, columns_of_a):
        s_cols = red.columns("mass-adjacency", cols.ravel()).reshape((-1,) + cols.shape)
        congruence.append(_maxabs(_kt_times(r, ak) - s_cols))   # before the lift overwrites ak
        squares.update(_lift_squares(r, slots, ak, s_cols))
    # np.max, unlike max, keeps a NaN wherever it stands
    scale = float(np.max(peaks, initial=0.0))
    lift = math.sqrt(sum(squares[slot] for slot in sorted(squares)))

    dev, note = _match_after_removal(values_a, values_s, [0.0] * r.q_total, tol)
    return (
        Check("k-orthonormality", float(np.max(ortho, initial=0.0)), 1e-10),
        Check("adjacency-congruence", float(np.max(congruence, initial=0.0)), WEIGHT_TOL * scale),
        Check("adjacency-spectrum", dev, tol, note),
        Check("adjacency-lift-residual", lift / radius if radius else lift, tol_rel),
    )


def _similarity_deviation(red: GraphAnalysis) -> float:
    """Largest entry of M^(-1/2) L(MB) M^(1/2) - L~, from the reduced graph's edges.

    Made a block of L(MB)'s rows at a time, each row held as a column next
    to the same column of L~, which is symmetric bit for bit; the blocks'
    maxima are those of the whole difference.  Every entry is the one the
    dense expression gives: off the edges and the diagonal that is 0.0, or
    NaN where the scale overflows.
    """
    n = red.graph.n
    if not n:
        return 0.0
    mass = np.asarray(red.graph.mass)
    root = np.sqrt(mass)
    inv_root = 1.0 / root
    peaks = []
    for block in eigen.row_blocks(n):
        idx = np.arange(block.start, block.stop)
        similar = np.zeros((n, idx.size))   # column c is row idx[c] of L(MB) = diag(d) - M B, scaled
        for rows, at, weights in (
            (*overflow_pairs(root, inv_root[idx]), 0.0),   # 0.0 times an overflowed scale
            red.column_entries(idx),
        ):
            i = idx[at]
            similar[rows, at] = (0.0 - mass[i] * weights) * (inv_root[i] * root[rows])
        similar[idx, np.arange(idx.size)] = (
            (red.mass_strengths[idx] - mass[idx] * 0.0) * (inv_root[idx] * root[idx])
        )
        similar -= red.columns("mass-laplacian", idx)
        peaks.append(_maxabs(similar))
    return float(np.max(peaks))   # np.max, unlike max, keeps a NaN wherever it stands


@np.errstate(over="ignore", invalid="ignore")   # an overflow is inf or NaN, and fails its check
def verify_laplacian_reduction(
    g: Graph | GraphAnalysis, r: Reduction, tol_rel: float = eigen.DEFAULT_TOL
) -> tuple[Check, ...]:
    """Check the Laplacian-side reduction identities; failures are recorded.

    Checks: spectrum preservation after removing q copies of each reduced
    star's weight, the similarity between the nonsymmetric and symmetric
    mass Laplacians, and the intertwining L K = K L~ with the symmetric mass
    Laplacian L~, relative to the spectral radius of L.  L stands for the
    original graph's mass Laplacian, L itself when every mass is 1, and a
    star's weight for its members' mass strength there.  L and L~ are dense
    only while their values are solved; the similarity and the lift read
    the rows and columns they need off the edges.
    """
    ctx = analyze(g)
    red = ctx.reduced(r)
    values_l = ctx.values("mass-laplacian")
    values_t = red.values("mass-laplacian")
    radius = eigen.spectral_radius(values_l)
    tol = tol_rel * radius
    sim = _similarity_deviation(red)
    squares = {}
    for slots, cols, lk in _column_blocks(r, lambda idx: ctx.columns("mass-laplacian", idx)):
        t_cols = red.columns("mass-laplacian", cols.ravel()).reshape((-1,) + cols.shape)
        squares.update(_lift_squares(r, slots, lk, t_cols))
    lift = math.sqrt(sum(squares[slot] for slot in sorted(squares)))

    removals = [value for value, q in removed_values(ctx, r) for _ in range(q)]
    dev, note = _match_after_removal(values_l, values_t, removals, tol)
    return (
        Check("laplacian-spectrum", dev, tol, note),
        Check("mass-laplacian-similarity", sim, tol),
        Check("laplacian-lift-residual", lift / radius if radius else lift, tol_rel),
    )


@np.errstate(over="ignore")   # an overflowed violation is inf, and fails
def interlacing_check(
    g: Graph | GraphAnalysis, r: Reduction, tol: float = eigen.DEFAULT_TOL
) -> Check:
    """Eigenvalues of K^T A K interlace those of A (descending convention).

    A is the original graph's mass adjacency, as in verify_adjacency_reduction.
    The K^T A K spectrum beta is read off M^(1/2) B M^(1/2), its value once
    the adjacency-congruence check of verify_adjacency_reduction passes.
    With alpha A's n values and beta's n - q, both descending, interlacing
    asks alpha_i >= beta_i >= alpha_(q+i); the residual is the largest
    violation of either inequality (0 when there is none), NaN when a value
    is not finite, and the tolerance is tol times the spectral radius of A.
    """
    ctx = analyze(g)
    alpha = np.sort(ctx.values("mass-adjacency"))[::-1]
    beta = np.sort(ctx.reduced(r).values("mass-adjacency"))[::-1]
    residual = math.nan
    if np.isfinite(alpha).all() and np.isfinite(beta).all():
        q = alpha.size - beta.size
        violations = np.concatenate((beta - alpha[: beta.size], alpha[q:] - beta))
        residual = float(violations.max(initial=0.0))
    return Check("interlacing", residual, tol * eigen.spectral_radius(alpha))
