"""Spectral partitioning on original and reduced graphs.

Bipartition by the sign pattern of the second Laplacian eigenvector,
recursive bisection, and k-way clustering on the smallest-eigenvector
embedding.  A reduced graph is partitioned through its mass-weighted
Laplacian, and the lifted eigenvector's signs are compared against the
original graph's, which is the point of reducing before partitioning.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import eigen
from .errors import BadKError, DisconnectedError, NonFiniteSpectrumError, TooFewValuesError
from .graphs import Graph, induced_subgraph
from .reduction import Reduction, lift_vector
from .stars import GraphAnalysis, analyze

ZERO_ENTRY_EPS = 1e-12
SIGN_COMPARE_EPS = 1e-9


@dataclass(frozen=True)
class FiedlerResult:
    lambda2: float
    vector: np.ndarray       # unit norm, first significant entry positive
    degenerate: bool         # second eigenvalue not simple at tolerance


@dataclass(frozen=True)
class Partition:
    labels: tuple[int, ...]
    provenance: str

    @property
    def n_clusters(self) -> int:
        return max(self.labels) + 1 if self.labels else 0


@dataclass(frozen=True)
class SignAgreementReport:
    """Per-vertex sign comparison between original and lifted Fiedler vectors."""

    pairs: tuple[tuple[int, int, int], ...]   # (vertex, original sign, lifted sign)
    global_flip: bool
    agreement_fraction: float | None
    degenerate: bool
    reason: str = ""
    extended_labels: tuple[int, ...] | None = None

    @property
    def passed(self) -> bool:
        return not self.degenerate and self.agreement_fraction == 1.0


def _require_connected(g: Graph | GraphAnalysis) -> None:
    comps = analyze(g).components
    if len(comps) != 1:
        raise DisconnectedError(len(comps))


def _second_eigenpair(ctx: GraphAnalysis, family: str, tol_rel: float) -> FiedlerResult:
    _require_connected(ctx)
    if ctx.graph.n < 2:
        raise TooFewValuesError("second eigenpair needs at least 2 vertices")
    vector = ctx.second_vector(family)   # first, so one solve gives both
    values = ctx.values(family)
    _require_finite(values[1], vector, family)
    table = eigen.group_multiplicities(values, tol_rel)
    group = next(grp for grp in table.groups if grp.start <= 1 < grp.stop)
    return FiedlerResult(
        lambda2=float(values[1]),
        vector=vector,
        degenerate=group.multiplicity > 1,
    )


def _require_finite(lambda2: float, vector: np.ndarray, family: str) -> None:
    if not (np.isfinite(lambda2) and np.isfinite(vector).all()):
        raise NonFiniteSpectrumError(
            f"the second {family} eigenpair is not finite (lambda2={lambda2:.6g})"
        )


def fiedler(g: Graph | GraphAnalysis, tol_rel: float = eigen.DEFAULT_TOL) -> FiedlerResult:
    """Second-smallest Laplacian eigenpair of a connected graph.

    Raises NonFiniteSpectrumError when the pair is NaN or infinite.
    """
    return _second_eigenpair(analyze(g), "laplacian", tol_rel)


def _labels_from_signs(vector: np.ndarray) -> tuple[tuple[int, ...], list[int]]:
    """Cluster 0 for nonnegative entries; near-zero entries go to 0 and are listed."""
    labels = tuple(0 if x >= -ZERO_ENTRY_EPS else 1 for x in vector)
    near_zero = [i for i, x in enumerate(vector) if abs(x) <= ZERO_ENTRY_EPS]
    return labels, near_zero


def sign_bipartition(g: Graph) -> Partition:
    """Two clusters from the Fiedler vector's sign pattern."""
    result = fiedler(g)
    labels, near_zero = _labels_from_signs(result.vector)
    if 1 not in labels:
        labels = tuple(0 for _ in labels)
    note = f"; zero entries at {near_zero}" if near_zero else ""
    return Partition(
        labels=labels,
        provenance=f"fiedler-sign(lambda2={result.lambda2:.6g}{note})",
    )


def _relabel_by_smallest_member(blocks: list[list[int]], n: int, provenance: str) -> Partition:
    ordered = sorted(blocks, key=min)
    labels = [0] * n
    for cid, block in enumerate(ordered):
        for v in block:
            labels[v] = cid
    return Partition(labels=tuple(labels), provenance=provenance)


def recursive_bisection(
    g: Graph,
    max_clusters: int | None = None,
    lambda2_threshold: float | None = None,
) -> Partition:
    """Repeatedly bisect the loosest block until the stop criterion holds.

    The block with the smallest second eigenvalue splits next (ties to the
    block containing the smallest vertex); induced subgraphs keep original
    weights.  A block that falls apart into components splits along its first
    component.  Stops at max_clusters blocks, or when every block's second
    eigenvalue exceeds lambda2_threshold, or when only singletons remain.
    Each block's split is computed once.
    """
    if (max_clusters is None) == (lambda2_threshold is None):
        raise ValueError("give exactly one of max_clusters, lambda2_threshold")
    if max_clusters is not None and max_clusters < 1:
        raise BadKError(max_clusters, g.n)
    _require_connected(g)

    splits: dict[tuple[int, ...], tuple[float, tuple[int, ...], tuple[int, ...]]] = {}

    def split(block: tuple[int, ...]) -> tuple[float, tuple[int, ...], tuple[int, ...]]:
        """A block's second eigenvalue (0 when disconnected) and its two sides."""
        if len(block) <= 1:
            return float("inf"), block, ()
        if block not in splits:
            sub, old = induced_subgraph(g, block)
            ctx = analyze(sub)
            if len(ctx.components) > 1:
                lam, first = 0.0, min(ctx.components, key=min)
            else:
                result = fiedler(ctx)
                labels = _labels_from_signs(result.vector)[0]
                lam, first = result.lambda2, {i for i, lbl in enumerate(labels) if lbl == 0}
            splits[block] = (
                lam,
                tuple(old[i] for i in range(sub.n) if i in first),
                tuple(old[i] for i in range(sub.n) if i not in first),
            )
        return splits[block]

    blocks = [tuple(range(g.n))]
    while max_clusters is None or len(blocks) < max_clusters:
        keys = [(split(b)[0], b[0]) for b in blocks]
        order = keys.index(min(keys))
        lam = keys[order][0]
        if lam == float("inf"):
            break
        if lambda2_threshold is not None and lam > lambda2_threshold:
            break
        block = blocks.pop(order)
        _, side0, side1 = split(block)
        if not side0 or not side1:
            # sign vector failed to split; cannot refine this block further
            blocks.append(block)
            break
        blocks.extend([side0, side1])

    stop = (
        f"max_clusters={max_clusters}"
        if max_clusters is not None
        else f"lambda2_threshold={lambda2_threshold}"
    )
    return _relabel_by_smallest_member(blocks, g.n, f"recursive-bisection({stop})")


def _farthest_first_seeds(rows: np.ndarray, k: int) -> list[int]:
    # one buffer for rows - rows[i] and its square; sqrt(sum(x*x)) is what
    # np.linalg.norm(x, axis=1) computes for real x, so the seeds match it
    diff = np.empty_like(rows)
    step = np.empty(rows.shape[0])

    def distances_to(i: int) -> np.ndarray:
        np.subtract(rows, rows[i], out=diff)
        np.multiply(diff, diff, out=diff)
        np.add.reduce(diff, axis=1, out=step)
        return np.sqrt(step, out=step)

    seeds = [0]
    dist = distances_to(0).copy()
    while len(seeds) < k:
        nxt = int(np.argmax(dist))
        seeds.append(nxt)
        np.minimum(dist, distances_to(nxt), out=dist)
    return seeds


def kway(g: Graph, k: int | str = "auto", max_iter: int = 100) -> Partition:
    """Cluster the rows of the k smallest-eigenvector embedding.

    Lloyd iterations with farthest-first seeding from vertex 0's row; squared
    Euclidean distances on unnormalized embedding rows.  k="auto" places the
    cluster count at the largest gap anywhere in the Laplacian spectrum, so it
    can choose k close to n (k=n-1 when the gap below the largest eigenvalue
    is the widest).

    A NaN or infinite second eigenpair raises NonFiniteSpectrumError.

    Memory is O(n*k) beyond the n*n eigensolve: the n*k distance matrix is
    filled one centroid column at a time.  Time is O(n*k^2) per Lloyd
    iteration.
    """
    _require_connected(g)
    # the analysis is dropped once L is built, so that its A is freed before the solve
    spectrum = eigen.sym_eigen(analyze(g).matrix("laplacian"))
    if g.n >= 2:
        _require_finite(spectrum.values[1], spectrum.vectors[:, 1], "laplacian")
    if k == "auto":
        k_val = eigen.spectral_gap_index(spectrum.values)
        if k_val < 2:
            return Partition(labels=(0,) * g.n, provenance="kway(auto->1)")
    else:
        k_val = int(k)
        if not (2 <= k_val <= g.n):
            raise BadKError(k_val, g.n)
    rows = np.ascontiguousarray(spectrum.vectors[:, :k_val])
    centroids = rows[_farthest_first_seeds(rows, k_val)]
    labels = np.full(g.n, -1)
    dists = np.empty((g.n, k_val))
    for _ in range(max_iter):
        for c in range(k_val):
            dists[:, c] = ((rows - centroids[c]) ** 2).sum(axis=1)
        new_labels = dists.argmin(axis=1)
        if np.array_equal(new_labels, labels):
            break
        labels = new_labels
        for c in range(k_val):
            members = rows[labels == c]
            if members.size:
                centroids[c] = members.mean(axis=0)
    blocks: dict[int, list[int]] = {}
    for v, lbl in enumerate(labels):
        blocks.setdefault(int(lbl), []).append(v)
    return _relabel_by_smallest_member(
        list(blocks.values()), g.n, f"kway(k={k_val}, requested={k})"
    )


def reduced_fiedler(
    r: Reduction, tol_rel: float = eigen.DEFAULT_TOL, reduced: GraphAnalysis | None = None
) -> FiedlerResult:
    """Second eigenpair of the reduced graph's mass-weighted Laplacian.

    The returned vector is the right eigenvector of the nonsymmetric mass
    Laplacian (the symmetric solve's eigenvector scaled by sqrt(mass)),
    renormalized and sign-normalized, so its sign pattern is the one the
    lifted comparison uses.  `reduced`, the analysis of r.reduced, lets a
    caller share its spectra.
    """
    sym = _second_eigenpair(reduced or GraphAnalysis(r.reduced), "mass-laplacian", tol_rel)
    vec = sym.vector * np.sqrt(np.asarray(r.reduced.mass))
    vec = vec / np.linalg.norm(vec)
    significant = np.nonzero(np.abs(vec) > ZERO_ENTRY_EPS)[0]
    if significant.size and vec[significant[0]] < 0:
        vec = -vec
    return FiedlerResult(lambda2=sym.lambda2, vector=vec, degenerate=sym.degenerate)


def compare_signs(
    g: Graph | GraphAnalysis, r: Reduction, tol_rel: float = eigen.DEFAULT_TOL
) -> SignAgreementReport:
    """Compare Fiedler sign patterns of a graph and its reduction.

    The reduced second eigenvector is lifted back to the original vertex set;
    after an optional global flip, signs should agree on every kept vertex
    with a significant entry.  Degenerate second eigenvalues (either side) or
    a second eigenvalue removed by the reduction make the comparison
    inconclusive rather than failed.  Removed vertices inherit the cluster of
    their kept twin in `extended_labels` (a convention, not a theorem).
    """
    ctx = analyze(g)
    orig = fiedler(ctx, tol_rel)
    red = reduced_fiedler(r, tol_rel, ctx.reduced(r))
    if orig.degenerate or red.degenerate:
        which = "original" if orig.degenerate else "reduced"
        return SignAgreementReport(
            pairs=(),
            global_flip=False,
            agreement_fraction=None,
            degenerate=True,
            reason=f"second eigenvalue of the {which} graph is not simple",
        )
    radius = eigen.spectral_radius(ctx.values("laplacian"))
    if abs(orig.lambda2 - red.lambda2) > tol_rel * radius:
        return SignAgreementReport(
            pairs=(),
            global_flip=False,
            agreement_fraction=None,
            degenerate=True,
            reason=(
                f"second eigenvalues differ ({orig.lambda2:.6g} vs {red.lambda2:.6g}); "
                "the reduction removed the original second eigenvalue"
            ),
        )

    lifted = lift_vector(r, red.vector, source="lmb_right")
    lifted = lifted / np.linalg.norm(lifted)
    kept = [v for v in range(ctx.graph.n) if r.vertex_map[v] is not None]
    significant = [
        v
        for v in kept
        if abs(orig.vector[v]) > SIGN_COMPARE_EPS and abs(lifted[v]) > SIGN_COMPARE_EPS
    ]
    agree_plus = sum(1 for v in significant if orig.vector[v] * lifted[v] > 0)
    flip = agree_plus < len(significant) - agree_plus
    signed = -lifted if flip else lifted
    pairs = tuple(
        (v, int(np.sign(orig.vector[v])), int(np.sign(signed[v]))) for v in kept
    )
    agreements = sum(1 for v in significant if orig.vector[v] * signed[v] > 0)
    fraction = agreements / len(significant) if significant else 1.0

    labels = list(_labels_from_signs(signed)[0])
    for info in r.star_info:
        twin_label = labels[info.kept_v1[0]]
        for v in sorted(info.star.v1)[info.star.m - info.q:]:
            labels[v] = twin_label
    return SignAgreementReport(
        pairs=pairs,
        global_flip=flip,
        agreement_fraction=fraction,
        degenerate=False,
        extended_labels=tuple(labels),
    )
