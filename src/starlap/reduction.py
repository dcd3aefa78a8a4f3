"""Spectrum-preserving star reduction with vertex masses.

Removing q of a star's m interchangeable vertices and placing mass
m / (m - q) on the survivors keeps the adjacency spectrum (up to q zeros)
and the Laplacian spectrum (up to q copies of the star weight).  The bridge
between original and reduced operators is an n x (n - q) matrix K with
orthonormal columns satisfying K^T A K = M^(1/2) B M^(1/2) and A K =
K M^(1/2) B M^(1/2): identity rows on untouched vertices and, on each star
block, an orthonormal frame whose columns all sum to sqrt(m / (m - q)).

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
from typing import Callable, Literal, Sequence

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


def _ones_first_basis(dim: int, p: int) -> np.ndarray:
    """dim x p orthonormal columns, the first being the normalized all-ones."""
    cols = [np.ones(dim) / np.sqrt(dim)]
    i = 0
    while len(cols) < p:
        v = np.zeros(dim)
        v[i] = 1.0
        for c in cols:
            v -= (c @ v) * c
        norm = np.linalg.norm(v)
        if norm > 1e-12:
            cols.append(v / norm)
        i += 1
    return np.column_stack(cols)


def star_frame(m: int, p: int) -> np.ndarray:
    """m x p orthonormal frame whose columns each sum to sqrt(m / p).

    Columns are u / sqrt(p) + sqrt(1 - 1/p) * f_c with u the normalized
    all-ones vector and {f_c} regular-simplex unit vectors orthogonal to u
    (pairwise inner product -1 / (p - 1)); for p = 1 the single column is u.
    """
    u_basis = _ones_first_basis(m, p)
    q_basis = _ones_first_basis(p, p)
    return u_basis @ q_basis.T


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
    kept = np.flatnonzero(keep).tolist()
    new_of_old: dict[int, int] = {old: new for new, old in enumerate(kept)}
    vertex_map = tuple(new_of_old.get(v) for v in range(g.n))

    mass = [g.mass[v] for v in kept]
    infos = []
    for star, q in assignments:
        kept_v1 = tuple(sorted(star.v1)[: star.m - q])
        factor = star.m / (star.m - q)
        for v in kept_v1:
            mass[new_of_old[v]] *= factor
        frame = star_frame(star.m, len(kept_v1))
        frame.setflags(write=False)
        infos.append(ReducedStarInfo(star=star, q=q, kept_v1=kept_v1, frame=frame))
    if removed:
        renumber = np.cumsum(keep) - 1
        both_kept = keep[g.u] & keep[g.v]
        reduced = build_graph_from_columns(
            len(kept), renumber[g.u[both_kept]], renumber[g.v[both_kept]], g.w[both_kept], mass
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
    (q = 0 skips a star).  Structural-only stars are skipped by the named
    policies and rejected when an explicit positive q targets them.
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


def _over_column_blocks(
    r: Reduction, x: Columns, f: Callable[[np.ndarray, np.ndarray], float]
) -> list[float]:
    """f(c, X K[:, c]) for each block c of K's columns, read off X's columns.

    `x(idx)` returns X[:, idx].  No block reads more than an eighth of K's
    width of X's columns at once, and each block is freed before the next is
    read, so the blocks and their products stay below the size of a dense K.
    """
    step = max(1, r.reduced.n // 8)
    results = []
    for rows, cols, frame in r._blocks:
        if frame is None:
            for start in range(0, rows.size, step):
                results.append(f(cols[start:start + step], x(rows[start:start + step])))
            continue
        xk = x(rows[:step]) @ frame[:step]
        for start in range(step, rows.size, step):
            xk += x(rows[start:start + step]) @ frame[start:start + step]
        results.append(f(cols, xk))
    return results


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


LiftSource = Literal["tilde_l", "lmb_right"]


def lift_vector(r: Reduction, v: np.ndarray, source: LiftSource = "tilde_l") -> np.ndarray:
    """Map a reduced-graph eigenvector to an original-graph eigenvector.

    Eigenvectors of the symmetric mass-weighted Laplacian (or of
    M^(1/2) B M^(1/2)) lift as K v.  Right eigenvectors of the nonsymmetric
    mass Laplacian carry an extra M^(1/2) factor, so they lift as
    K M^(-1/2) v.
    """
    v = np.asarray(v, dtype=float)
    if v.shape != (r.reduced.n,):
        raise DimensionMismatchError(
            f"vector has shape {v.shape}, reduced graph has {r.reduced.n} vertices"
        )
    if source == "lmb_right":
        v = v / np.sqrt(np.asarray(r.reduced.mass))
    elif source != "tilde_l":
        raise ValueError(f"unknown lift source {source!r}")
    return _k_times(r, v)


def _maxabs(a: np.ndarray) -> float:
    return float(np.abs(a).max()) if a.size else 0.0


def _largest(values: list[float]) -> float:
    """The largest value, NaN if any is NaN, 0 for none."""
    return float(np.max(values)) if values else 0.0


def _structural_checks(r: Reduction, a: np.ndarray, s: np.ndarray) -> list[Check]:
    """K^T K = I from the frames, and K^T A K = S one block of K's columns at a time.

    The identity block and the disjoint row supports of the blocks make
    K^T K - I zero outside the frames' F^T F - I.
    """
    # the largest |entry| of A, without an n x n |A|
    scale = float(max(a.max(), -a.min())) if a.size else 0.0
    ortho = _largest(
        [_maxabs(frame.T @ frame - np.eye(frame.shape[1])) for _, _, frame in r._blocks[1:]]
    )

    def congruence(cols: np.ndarray, ak: np.ndarray) -> float:
        return _maxabs(_kt_times(r, ak) - s[:, cols])

    congr = _largest(_over_column_blocks(r, _columns(a), congruence))
    return [
        Check("k-orthonormality", ortho, 1e-10),
        Check("adjacency-congruence", congr, WEIGHT_TOL * scale),
    ]


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


def _lift_residual(r: Reduction, x: Columns, reduced: np.ndarray) -> float:
    """Frobenius norm of X K - K R, the intertwining defect of K.

    For every unit eigenvector v of R with eigenvalue t, the lifted pair
    (t, K v) has X K v - t K v = (X K - K R) v, so this norm bounds the
    eigen-equation residual of every lifted eigenvector at once.  `x(idx)`
    returns X[:, idx]; the squared norm is summed one block of K's columns
    at a time.  NaN and inf propagate.
    """

    def squares(cols: np.ndarray, defect: np.ndarray) -> float:
        defect -= _k_times(r, reduced[:, cols])
        return float(np.vdot(defect, defect))

    return math.sqrt(sum(_over_column_blocks(r, x, squares)))


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
    checks = _structural_checks(r, a, s)
    lift = _lift_residual(r, _columns(a), s)
    values_s = red.values("mass-adjacency", s)
    del s  # lowers peak memory: only the eigenvalues are used below
    values_a = ctx.values("mass-adjacency", a)
    radius = eigen.spectral_radius(values_a)
    tol = tol_rel * radius

    dev, note = _match_after_removal(values_a, values_s, [0.0] * r.q_total, tol)
    checks.append(Check("adjacency-spectrum", dev, tol, note))
    checks.append(Check("adjacency-lift-residual", lift / radius if radius else lift, tol_rel))
    return VerificationRecord(checks=tuple(checks))


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
    lift = _lift_residual(r, _laplacian_columns(ctx), tilde)
    values_t = red.values("mass-laplacian", tilde)
    del tilde  # lowers peak memory: only the eigenvalues are used below
    values_l = ctx.values("mass-laplacian")
    radius = eigen.spectral_radius(values_l)
    tol = tol_rel * radius

    removals: list[float] = []
    for info in r.star_info:
        removals.extend([float(ctx.mass_strengths[info.kept_v1[0]])] * info.q)
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
