"""Spectrum-preserving star reduction with vertex masses.

Removing q of a star's m interchangeable vertices and placing mass
m / (m - q) on the survivors keeps the adjacency spectrum (up to q zeros)
and the Laplacian spectrum (up to q copies of the star weight).  The bridge
between original and reduced operators is an n x (n - q) matrix K with
orthonormal columns satisfying K^T A K = M^(1/2) B M^(1/2): identity rows on
untouched vertices and, on each star block, an orthonormal frame whose
columns all sum to sqrt(m / (m - q)).

The reduced degree matrix is fixed as the column sums of M B, which makes the
mass-weighted Laplacian identities hold exactly and conserves total weighted
strength.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Literal, Sequence

import numpy as np

from . import eigen
from .errors import (
    DimensionMismatchError,
    InvalidQError,
    StructuralStarOnlyError,
)
from .graphs import Graph, adjacency, build_graph
from .stars import GraphAnalysis, MkStar, analyze


@dataclass(frozen=True)
class ReducedStarInfo:
    star: MkStar
    q: int
    kept_v1: tuple[int, ...]     # original indices of surviving star vertices


@dataclass(frozen=True)
class Reduction:
    """A reduced graph together with the map back to the original."""

    original: Graph
    reduced: Graph
    vertex_map: tuple[int | None, ...]   # original index -> reduced index or None
    star_info: tuple[ReducedStarInfo, ...]
    k_matrix: np.ndarray

    @property
    def q_total(self) -> int:
        return self.original.n - self.reduced.n


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

    kept = [v for v in range(g.n) if v not in removed]
    new_of_old: dict[int, int] = {old: new for new, old in enumerate(kept)}
    vertex_map = tuple(new_of_old.get(v) for v in range(g.n))

    edges = [
        (new_of_old[u], new_of_old[v], w)
        for u, v, w in g.edges
        if u not in removed and v not in removed
    ]
    mass = [g.mass[v] for v in kept]
    infos = []
    for star, q in assignments:
        kept_v1 = tuple(sorted(star.v1)[: star.m - q])
        factor = star.m / (star.m - q)
        for v in kept_v1:
            mass[new_of_old[v]] *= factor
        infos.append(ReducedStarInfo(star=star, q=q, kept_v1=kept_v1))
    reduced = build_graph(len(kept), edges, mass=mass)

    k = np.zeros((g.n, len(kept)))
    in_star_v1 = {v for star, _ in assignments for v in star.v1}
    for v in kept:
        if v not in in_star_v1:
            k[v, new_of_old[v]] = 1.0
    for info in infos:
        v1_sorted = sorted(info.star.v1)
        frame = star_frame(info.star.m, len(info.kept_v1))
        for a, orig in enumerate(v1_sorted):
            for b, kept_orig in enumerate(info.kept_v1):
                k[orig, new_of_old[kept_orig]] = frame[a, b]
    k.setflags(write=False)
    return Reduction(
        original=g,
        reduced=reduced,
        vertex_map=vertex_map,
        star_info=tuple(infos),
        k_matrix=k,
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


def build_k_matrix(r: Reduction) -> np.ndarray:
    """The orthonormal lifting matrix of a reduction (also stored on it)."""
    return r.k_matrix


def mass_matrix(r: Reduction) -> np.ndarray:
    return np.diag(r.reduced.mass)


def mass_adjacency(r: Reduction) -> np.ndarray:
    """M B: mass-scaled reduced adjacency (nonsymmetric in general)."""
    return np.diag(r.reduced.mass) @ adjacency(r.reduced)


def mass_degree(r: Reduction) -> np.ndarray:
    """Diagonal matrix of the column sums of M B.

    Column sums conserve each kept vertex's mass-weighted strength, which is
    what makes the lifted eigen-identities hold; row sums do not.
    """
    return np.diag(mass_adjacency(r).sum(axis=0))


def sym_mass_laplacian(r: Reduction) -> np.ndarray:
    """Symmetric mass-weighted Laplacian: mass_degree - M^(1/2) B M^(1/2)."""
    return GraphAnalysis(r.reduced).matrix("mass-laplacian")


def mass_laplacian(r: Reduction) -> np.ndarray:
    """Nonsymmetric mass-weighted Laplacian: mass_degree - M B."""
    return mass_degree(r) - mass_adjacency(r)


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
    return r.k_matrix @ v


def _maxabs(a: np.ndarray) -> float:
    return float(np.abs(a).max()) if a.size else 0.0


def _structural_checks(r: Reduction, a: np.ndarray, s: np.ndarray) -> list[Check]:
    k = r.k_matrix
    scale = max(1.0, _maxabs(a))
    ortho = _maxabs(k.T @ k - np.eye(r.reduced.n))
    congr = _maxabs(k.T @ a @ k - s)
    return [
        Check("k-orthonormality", ortho, 1e-10),
        Check("adjacency-congruence", congr, 1e-9 * scale),
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
    vals = list(original_vals)
    for target in removals:
        idx = int(np.argmin([abs(v - target) for v in vals]))
        if abs(vals[idx] - target) > tol:
            return abs(vals[idx] - target), f"no eigenvalue near {target:.6g} to remove"
        vals.pop(idx)
    if len(vals) != len(reduced_vals):
        return float("inf"), "size mismatch after removal"
    deviation = float(np.abs(np.sort(vals) - np.sort(reduced_vals)).max()) if vals else 0.0
    return deviation, ""


def _worst_lift_residual(
    r: Reduction, matrix: np.ndarray, spec: eigen.Spectrum, radius: float
) -> float:
    """Largest eigen-equation residual of the lifted reduced eigenvectors.

    A NaN residual propagates, so it cannot hide behind a finite one.
    """
    residuals = np.empty(r.reduced.n)
    for i in range(r.reduced.n):
        lifted = r.k_matrix @ spec.vectors[:, i]
        residuals[i] = np.linalg.norm(matrix @ lifted - spec.values[i] * lifted) / radius
    return float(residuals.max()) if residuals.size else 0.0


def verify_adjacency_reduction(
    g: Graph | GraphAnalysis, r: Reduction, tol_rel: float = eigen.DEFAULT_TOL
) -> VerificationRecord:
    """Check the adjacency-side reduction identities; failures are recorded.

    Checks: K orthonormality, the congruence K^T A K = M^(1/2) B M^(1/2),
    spectrum preservation up to q zeros, and the eigen-equation residual of
    every lifted eigenvector.
    """
    ctx = analyze(g)
    red = ctx.reduced(r)
    a = ctx.adjacency
    s = red.matrix("mass-adjacency")
    checks = _structural_checks(r, a, s)
    spec_s = red.spectrum("mass-adjacency", s)
    del s  # lowers peak memory: only the spectrum is used below
    values_a = ctx.values("adjacency")
    radius = max(1.0, float(np.abs(values_a).max()) if ctx.graph.n else 0.0)
    tol = tol_rel * radius

    dev, note = _match_after_removal(values_a, spec_s.values, [0.0] * r.q_total, tol)
    checks.append(Check("adjacency-spectrum", dev, tol, note))
    worst = _worst_lift_residual(r, a, spec_s, radius)
    checks.append(Check("adjacency-lift-residual", worst, tol_rel))
    return VerificationRecord(checks=tuple(checks))


def _similarity_deviation(r: Reduction, tilde: np.ndarray) -> float:
    """Largest entry of M^(-1/2) L(MB) M^(1/2) - tilde."""
    if not r.reduced.n:
        return 0.0
    root = np.sqrt(np.asarray(r.reduced.mass))
    similar = mass_laplacian(r) * np.outer(1.0 / root, root)
    return float(np.abs(similar - tilde).max())


def verify_laplacian_reduction(
    g: Graph | GraphAnalysis, r: Reduction, tol_rel: float = eigen.DEFAULT_TOL
) -> VerificationRecord:
    """Check the Laplacian-side reduction identities; failures are recorded.

    Checks: spectrum preservation after removing q copies of each reduced
    star's weight, the similarity between the nonsymmetric and symmetric
    mass Laplacians, and the lifted eigen-equation residuals.
    """
    ctx = analyze(g)
    red = ctx.reduced(r)
    tilde = red.matrix("mass-laplacian")
    sim = _similarity_deviation(r, tilde)
    spec_t = red.spectrum("mass-laplacian", tilde)
    del tilde  # lowers peak memory: only the spectrum is used below
    values_l = ctx.values("laplacian")
    radius = max(1.0, float(np.abs(values_l).max()) if ctx.graph.n else 0.0)
    tol = tol_rel * radius

    removals: list[float] = []
    for info in r.star_info:
        removals.extend([info.star.weight_uniform] * info.q)
    dev, note = _match_after_removal(values_l, spec_t.values, removals, tol)
    checks = [
        Check("laplacian-spectrum", dev, tol, note),
        Check("mass-laplacian-similarity", sim, tol),
    ]

    worst = _worst_lift_residual(r, ctx.matrix("laplacian"), spec_t, radius)
    checks.append(Check("laplacian-lift-residual", worst, tol_rel))
    return VerificationRecord(checks=tuple(checks))


def interlacing_check(
    g: Graph | GraphAnalysis, r: Reduction, tol: float = eigen.DEFAULT_TOL
) -> bool:
    """Eigenvalues of K^T A K interlace those of A (descending convention).

    The K^T A K spectrum is read off M^(1/2) B M^(1/2), its value once the
    adjacency-congruence check of verify_adjacency_reduction passes.  The
    tolerance is tol times the spectral radius of A, and a non-finite
    eigenvalue fails.
    """
    ctx = analyze(g)
    alpha = np.sort(ctx.values("adjacency"))[::-1]
    beta = np.sort(ctx.reduced(r).values("mass-adjacency"))[::-1]
    if not (np.isfinite(alpha).all() and np.isfinite(beta).all()):
        return False
    tol = tol * float(np.abs(alpha).max()) if alpha.size else 0.0
    n_a, n_b = alpha.size, beta.size
    for i in range(n_b):
        if alpha[i] < beta[i] - tol:
            return False
        if beta[i] < alpha[n_a - n_b + i] - tol:
            return False
    return True
