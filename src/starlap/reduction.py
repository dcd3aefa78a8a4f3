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

A reduction is a list of blocks (`Reduction.blocks`), one per reduced
star.  Each holds the star's rows, the rows it keeps, its m x p frame of
K, and the eigenvalue it removes q times from the mass Laplacian's
spectrum, with the q local eigenvectors on its rows (`Block.complement`);
no other module works these out.  K is held implicitly, as the vertex map
and the frames (O(n + sum m p) numbers), the frames of one shape stacked,
and every check and lift works through the blocks in O(n^2) time, one
stacked np.matmul per shape; `Reduction.k_matrix` builds the dense matrix
only for a caller that asks for it.

The reduced degree matrix is fixed as the column sums of M B, which makes the
mass-weighted Laplacian identities hold exactly and conserves total weighted
strength; `GraphAnalysis.mass_strengths` computes them.  The symmetric
operators M^(1/2) B M^(1/2) and L~ come from `GraphAnalysis.matrix`, dense
only while their values are solved, and the checks read the blocks of
their columns, and of the original graph's, that they need from
`GraphAnalysis.columns`, which writes them from the edges; no check holds
a dense A or B.  The original graph's operators are its own mass families,
A and L when every mass is 1, so a graph read back from a reduction is
reduced and checked the same way.
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
class Block:
    """One reduced star: its block of K and the eigenvalue its collapse removes.

    `frame` is K on this block: row a belongs to rows[a], column b to the
    reduced vertex of kept[b].  The collapse removes `value`, the star's
    mass strength in the original graph, q times from the mass Laplacian's
    spectrum, and `complement` holds the q local eigenvectors on `rows`.
    """

    rows: tuple[int, ...]   # the star's original vertices, ascending
    kept: tuple[int, ...]   # the first len(rows) - q of them, which survive
    frame: np.ndarray = field(compare=False, repr=False)
    value: float
    star: MkStar

    @property
    def q(self) -> int:
        return len(self.rows) - len(self.kept)

    @property
    def complement(self) -> np.ndarray:
        """The len(rows) x q eigenvectors at `value`, orthonormal and orthogonal to `frame`."""
        return star_complement(len(self.rows), len(self.kept))


@dataclass(frozen=True)
class Reduction:
    """A reduced graph together with the map back to the original.

    K is the identity from each untouched vertex to its reduced index plus
    the frame of each of `blocks`, stacked by shape (`_stacks`);
    `k_matrix` builds it densely on each access.
    """

    original: Graph
    reduced: Graph
    vertex_map: tuple[int | None, ...]   # original index -> reduced index or None
    blocks: tuple[Block, ...]

    @property
    def q_total(self) -> int:
        return self.original.n - self.reduced.n

    @cached_property
    def _identity(self) -> tuple[np.ndarray, np.ndarray]:
        """(original rows, reduced columns) of K's identity block, the untouched vertices."""
        in_block = {v for block in self.blocks for v in block.rows}
        untouched = [
            v for v, new in enumerate(self.vertex_map) if new is not None and v not in in_block
        ]
        return (
            np.array(untouched, dtype=np.intp),
            np.array([self.vertex_map[v] for v in untouched], dtype=np.intp),
        )

    @cached_property
    def _stacks(self) -> tuple[_Stack, ...]:
        """K's blocks, those of one (m, p) shape stacked, shapes in order of first use."""
        by_shape: dict[tuple[int, int], list[int]] = {}
        for i, block in enumerate(self.blocks):
            by_shape.setdefault(block.frame.shape, []).append(i)
        stacks = []
        for members in by_shape.values():
            blocks = [self.blocks[i] for i in members]
            stacks.append(
                _Stack(
                    members=np.array(members, dtype=np.intp),
                    rows=np.array([b.rows for b in blocks], dtype=np.intp),
                    cols=np.array(
                        [[self.vertex_map[v] for v in b.kept] for b in blocks], dtype=np.intp
                    ),
                    frames=np.stack([b.frame for b in blocks]),
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
    """The blocks of K of one shape.

    The i-th is blocks[members[i]]: rows[i] are its m original rows in
    ascending order, cols[i] its p reduced columns and frames[i] its m x p
    frame.
    """

    members: np.ndarray
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


def _reduce(ctx: GraphAnalysis, assignments: Sequence[tuple[MkStar, int]]) -> Reduction:
    g = ctx.graph
    for star, q in assignments:
        if star.weight_uniform is None:
            raise StructuralStarOnlyError(star.v1)
        if not (1 <= q <= star.m - 1):
            raise InvalidQError(q, star.m)

    removed = {v for star, q in assignments for v in sorted(star.v1)[star.m - q:]}
    keep = np.ones(g.n, dtype=bool)
    keep[list(removed)] = False
    renumber = np.cumsum(keep) - 1   # each kept vertex's reduced index
    vertex_map = tuple(new if k else None for new, k in zip(renumber.tolist(), keep.tolist()))

    mass = [g.mass[v] for v in np.flatnonzero(keep).tolist()]
    blocks = []
    for star, q in assignments:
        rows = tuple(sorted(star.v1))
        kept = rows[: star.m - q]
        factor = star.m / (star.m - q)
        for v in kept:
            mass[renumber[v]] *= factor
        frame = star_frame(star.m, len(kept))
        frame.setflags(write=False)
        value = float(ctx.mass_strengths[kept[0]])
        blocks.append(Block(rows=rows, kept=kept, frame=frame, value=value, star=star))
    if removed:
        both_kept = keep[g.u] & keep[g.v]
        reduced = build_graph_from_columns(
            len(mass), renumber[g.u[both_kept]], renumber[g.v[both_kept]], g.w[both_kept], mass
        )
    else:   # the identity: the original graph, edges and masses as they are
        reduced = g
    return Reduction(original=g, reduced=reduced, vertex_map=vertex_map, blocks=tuple(blocks))


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
    if isinstance(policy, str):
        if policy not in ("collapse", "keep-pair"):
            raise ValueError(f"unknown policy {policy!r}")
        keep = 1 if policy == "collapse" else 2
        policy = [max(0, s.m - keep) if s.weight_uniform is not None else 0 for s in stars]
    elif len(policy) != len(stars):
        raise DimensionMismatchError(f"got {len(policy)} q values for {len(stars)} detected stars")
    return _reduce(ctx, [(s, int(q)) for s, q in zip(stars, policy) if q != 0])


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
    their places in K's order (the identity block's chunks first, then
    `blocks` in order).  The identity block comes a chunk at a time,
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
        slots = len(starts) + stack.members
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


def _similarity_deviation(red: GraphAnalysis, idx: np.ndarray, tilde: np.ndarray) -> float:
    """Largest entry of the columns idx of M^(-1/2) L(MB) M^(1/2) - L~, tilde being L~[:, idx].

    Each row idx[c] of L(MB) is held as column c, next to the same column of
    L~, which is symmetric bit for bit, so the columns of every block, taken
    together, give the maximum of the whole difference.  Every entry is the
    one the dense expression gives, from the reduced graph's edges: off the
    edges and the diagonal that is 0.0, or NaN where the scale overflows.
    """
    mass = np.asarray(red.graph.mass)
    root = np.sqrt(mass)
    inv_root = 1.0 / root
    similar = np.zeros(tilde.shape)   # column c is row idx[c] of L(MB) = diag(d) - M B, scaled
    for rows, at, weights in (
        (*overflow_pairs(root, inv_root[idx]), 0.0),   # 0.0 times an overflowed scale
        red.column_entries(idx),
    ):
        i = idx[at]
        scale = inv_root[i]
        scale *= root[rows]   # inv_root[i] * root[rows], one temporary the fewer
        similar[rows, at] = (0.0 - mass[i] * weights) * scale
    similar[idx, np.arange(idx.size)] = (
        (red.mass_strengths[idx] - mass[idx] * 0.0) * (inv_root[idx] * root[idx])
    )
    similar -= tilde
    return float(np.abs(similar, out=similar).max())   # idx is never empty


def _lift_residual(squares: dict[int, float], radius: float) -> float:
    """The intertwining defect's norm, its slots' squares added in slot order, over the radius."""
    lift = math.sqrt(sum(squares[slot] for slot in sorted(squares)))
    return lift / radius if radius else lift


@np.errstate(over="ignore", invalid="ignore")   # an overflow is inf or NaN, and fails its check
def verify_reduction(
    g: Graph | GraphAnalysis, r: Reduction, tol_rel: float = eigen.DEFAULT_TOL
) -> tuple[Check, ...]:
    """Check the eight reduction identities; failures are recorded.

    The adjacency side, with S = M^(1/2) B M^(1/2): K orthonormality, the
    congruence K^T A K = S, spectrum preservation up to q zeros, the
    intertwining A K = K S, relative to the spectral radius of A, and the
    interlacing of K^T A K's eigenvalues, read off S, with A's.  Then the
    Laplacian side: spectrum preservation after removing each block's
    value q times, the similarity between the nonsymmetric mass Laplacian
    L(MB) and the symmetric L~, and the intertwining L K = K L~, relative
    to the spectral radius of L.  A and L stand for the original graph's
    mass families, A and L themselves when every mass is 1, and a block's
    value is its star's mass strength there.  Each family is dense only
    while its values are solved, one after the other.  The other checks
    read the columns each block of K needs off the edges, in one pass over
    A's columns and one over L's, and the similarity compares L(MB) with
    the columns of L~ that the second pass has written.
    """
    ctx = analyze(g)
    red = ctx.reduced(r)
    values_a = ctx.values("mass-adjacency")
    values_s = red.values("mass-adjacency")
    radius_a = eigen.spectral_radius(values_a)
    tol_a = tol_rel * radius_a
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

    # both passes bind their blocks to xk and r_cols, so that the Laplacian
    # pass does not start with the adjacency pass's last blocks still held
    congruence, squares = [], {}
    for slots, cols, xk in _column_blocks(r, columns_of_a):
        r_cols = red.columns("mass-adjacency", cols.ravel()).reshape((-1,) + cols.shape)
        congruence.append(_maxabs(_kt_times(r, xk) - r_cols))   # before the lift overwrites xk
        squares.update(_lift_squares(r, slots, xk, r_cols))
    # np.max, unlike max, keeps a NaN wherever it stands
    scale = float(np.max(peaks, initial=0.0))
    lift_a = _lift_residual(squares, radius_a)
    dev_a, note_a = _match_after_removal(values_a, values_s, [0.0] * r.q_total, tol_a)
    # with alpha A's n values and beta S's n - q, both descending, interlacing
    # asks alpha_i >= beta_i >= alpha_(q+i); the residual is the largest
    # violation of either (0 when there is none), NaN when a value is not finite
    alpha, beta = values_a[::-1], values_s[::-1]
    interlacing = math.nan
    if np.isfinite(alpha).all() and np.isfinite(beta).all():
        violations = np.concatenate((beta - alpha[: beta.size], alpha[r.q_total:] - beta))
        interlacing = float(violations.max(initial=0.0))

    values_l = ctx.values("mass-laplacian")
    values_t = red.values("mass-laplacian")
    radius_l = eigen.spectral_radius(values_l)
    tol_l = tol_rel * radius_l
    similarity, squares = [], {}
    for slots, cols, xk in _column_blocks(r, lambda idx: ctx.columns("mass-laplacian", idx)):
        r_cols = red.columns("mass-laplacian", cols.ravel())
        similarity.append(_similarity_deviation(red, cols.ravel(), r_cols))
        squares.update(_lift_squares(r, slots, xk, r_cols.reshape((-1,) + cols.shape)))
    removals = [block.value for block in r.blocks for _ in range(block.q)]
    dev_l, note_l = _match_after_removal(values_l, values_t, removals, tol_l)
    return (
        Check("k-orthonormality", float(np.max(ortho, initial=0.0)), 1e-10),
        Check("adjacency-congruence", float(np.max(congruence, initial=0.0)), WEIGHT_TOL * scale),
        Check("adjacency-spectrum", dev_a, tol_a, note_a),
        Check("adjacency-lift-residual", lift_a, tol_rel),
        Check("interlacing", interlacing, tol_a),
        Check("laplacian-spectrum", dev_l, tol_l, note_l),
        Check("mass-laplacian-similarity", float(np.max(similarity, initial=0.0)), tol_l),
        Check("laplacian-lift-residual", _lift_residual(squares, radius_l), tol_rel),
    )
