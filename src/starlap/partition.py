"""Spectral partitioning on original and reduced graphs.

Every graph has one Fiedler pair: the second eigenpair of its own mass
Laplacian L~ = diag(mass strengths) - M^(1/2) A M^(1/2), which is L bit for
bit when every mass is 1.  L~ is similar to the nonsymmetric L(MB) through
the positive diagonal M^(1/2), so its eigenvectors have the signs of L(MB)'s
right eigenvectors, and a graph that a reduction wrote is bisected as its
original.  Bipartition by the sign pattern of that vector and recursive
bisection read it; the reduced graph's vector, lifted through K, is
compared sign by sign with the original graph's, which is the point of
reducing before partitioning.  k-way clustering on the smallest-eigenvector
embedding reduces first too: by the paper's eigenvector result, the
eigenpairs of the graph with every reducible star collapsed, lifted through
K, and the local pairs of each of the collapse's blocks (`Block.value` and
`Block.complement` on `Block.rows`) are together the original's, so its one
full eigensolve is of order n - q.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import eigen
from .errors import BadKError, DisconnectedError, NonFiniteSpectrumError, TooFewValuesError
from .graphs import Graph, induced_subgraph
from .reduction import Reduction, lift_vector, reduce_all
from .stars import GraphAnalysis, analyze

LLOYD_MAX_ITER = 100     # Lloyd iterations before k-means stops unconverged


@dataclass(frozen=True)
class FiedlerResult:
    lambda2: float
    vector: np.ndarray       # unit norm, first entry above eigen.SIGN_EPS positive
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

    pairs: tuple[tuple[int, int, int], ...]   # (kept vertex, eigen.signs of each, after the flip)
    global_flip: bool
    agreement_fraction: float | None
    degenerate: bool
    reason: str = ""
    extended_labels: tuple[int, ...] | None = None

    @property
    def passed(self) -> bool:
        return not self.degenerate and self.agreement_fraction == 1.0


def _require_connected(g: Graph | GraphAnalysis) -> None:
    """Raise DisconnectedError on two or more components; an empty graph has none."""
    comps = analyze(g).components
    if len(comps) > 1:
        raise DisconnectedError(len(comps))


def _require_finite(g: Graph | GraphAnalysis, lambda2: float, vector: np.ndarray) -> None:
    if not (np.isfinite(lambda2) and np.isfinite(vector).all()):
        family = "laplacian" if analyze(g).unit_mass else "mass-laplacian"
        raise NonFiniteSpectrumError(
            f"the second {family} eigenpair is not finite (lambda2={lambda2:.6g})"
        )


def fiedler(g: Graph | GraphAnalysis, tol_rel: float = eigen.DEFAULT_TOL) -> FiedlerResult:
    """Second-smallest eigenpair of a connected graph's mass Laplacian.

    That is L's pair when every mass is 1.  The pair is degenerate when
    lambda2 lies within tol_rel times the spectral radius of lambda1 or
    lambda3, where single-linkage grouping (eigen.group_multiplicities)
    would join it to a neighbour.  Raises DisconnectedError,
    TooFewValuesError below 2 vertices, and NonFiniteSpectrumError when the
    pair is NaN or infinite.
    """
    ctx = analyze(g)
    _require_connected(ctx)
    if ctx.graph.n < 2:
        raise TooFewValuesError("second eigenpair needs at least 2 vertices")
    vector = ctx.second_vector("mass-laplacian")
    values = ctx.values("mass-laplacian")
    _require_finite(ctx, values[1], vector)
    separated = np.diff(values[:3]) > tol_rel * eigen.spectral_radius(values)
    return FiedlerResult(
        lambda2=float(values[1]),
        vector=vector,
        degenerate=not separated.all(),
    )


def _labels_from_signs(vector: np.ndarray) -> tuple[tuple[int, ...], list[int]]:
    """Cluster 1 for negative entries, 0 for the rest; the unsigned entries are listed."""
    signs = eigen.signs(vector)
    return tuple((signs < 0).astype(int).tolist()), np.flatnonzero(signs == 0).tolist()


def sign_bipartition(g: Graph) -> Partition:
    """Two clusters from the Fiedler vector's sign pattern.

    A graph with fewer than two vertices is one cluster (none when empty).
    """
    if g.n < 2:
        return Partition(labels=(0,) * g.n, provenance="fiedler-sign(fewer than 2 vertices)")
    result = fiedler(g)
    labels, near_zero = _labels_from_signs(result.vector)
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


def recursive_bisection(g: Graph, max_clusters: int) -> Partition:
    """Repeatedly bisect the loosest block until there are max_clusters blocks.

    The block with the smallest second eigenvalue splits next.  Two such
    values within eigen.DEFAULT_TOL times the larger of their blocks'
    spectral radii are equal, the rule `fiedler` uses, and the block
    containing the smallest vertex wins a tie.  Induced subgraphs keep
    original weights.  A block that falls apart into components splits
    along its first component.  Stops early when only singletons remain.
    Each block's split is computed once; an empty graph has no blocks.
    """
    if max_clusters < 1:
        raise BadKError(
            max_clusters, g.n, f"max_clusters must be at least 1, got {max_clusters}"
        )
    _require_connected(g)

    Split = tuple[float, float, tuple[int, ...], tuple[int, ...]]
    splits: dict[tuple[int, ...], Split] = {}

    def split(block: tuple[int, ...]) -> Split:
        """A block's second eigenvalue, its spectral radius and its two sides.

        A disconnected block has second eigenvalue 0 and radius 0 here.
        """
        if len(block) <= 1:
            return float("inf"), 0.0, block, ()
        if block not in splits:
            sub, old = induced_subgraph(g, block)
            ctx = analyze(sub)
            if len(ctx.components) > 1:
                lam, radius, first = 0.0, 0.0, min(ctx.components, key=min)
            else:
                result = fiedler(ctx)
                labels = _labels_from_signs(result.vector)[0]
                lam, first = result.lambda2, {i for i, lbl in enumerate(labels) if lbl == 0}
                radius = eigen.spectral_radius(ctx.values("mass-laplacian"))
            splits[block] = (
                lam,
                radius,
                tuple(old[i] for i in range(sub.n) if i in first),
                tuple(old[i] for i in range(sub.n) if i not in first),
            )
        return splits[block]

    blocks = [tuple(range(g.n))] if g.n else []
    while blocks and len(blocks) < max_clusters:
        low, low_radius = min((split(b)[:2] for b in blocks), key=lambda pair: pair[0])
        if low == float("inf"):
            break
        # blocks are disjoint and ascending, so the least tuple holds the smallest vertex
        block = min(
            b for b in blocks
            if split(b)[0] - low <= eigen.DEFAULT_TOL * max(split(b)[1], low_radius)
        )
        blocks.remove(block)
        _, _, side0, side1 = split(block)
        if not side0 or not side1:
            # sign vector failed to split; cannot refine this block further
            blocks.append(block)
            break
        blocks.extend([side0, side1])

    return _relabel_by_smallest_member(
        blocks, g.n, f"recursive-bisection(max_clusters={max_clusters})"
    )


def _nearest(points: np.ndarray, centres: np.ndarray) -> np.ndarray:
    """Each point's nearest centre by squared distance, the first of equals.

    One matrix product gives every distance in expanded form,
    |r|^2 - 2 r.c + |c|^2.  Distances within eigen.DEFAULT_TOL * reach^2
    of a point's nearest count as equal, reach being |r| + max |c|, so the
    choice does not depend on the order the terms are summed in.
    """
    squares = np.einsum("ij,ij->i", points, points)
    centre_squares = np.einsum("ij,ij->i", centres, centres)
    expanded = points @ centres.T
    expanded *= -2
    expanded += squares[:, None]
    expanded += centre_squares
    reach = np.sqrt(squares) + np.sqrt(centre_squares.max())
    tie = eigen.DEFAULT_TOL * reach * reach
    return (expanded <= (expanded.min(axis=1) + tie)[:, None]).argmax(axis=1)


def _farthest_first_seeds(rows: np.ndarray, k: int) -> list[int]:
    """Seeds from row 0, each next one the row farthest from the seeds so far.

    The squared distance to the nearest seed is kept in expanded form, with
    one matrix-vector product per seed.  Distances within
    eigen.DEFAULT_TOL * reach^2 of the farthest count as equal, reach being
    twice the largest row norm, and the first of equals wins.
    """
    squares = np.einsum("ij,ij->i", rows, rows)
    tie = eigen.DEFAULT_TOL * 4 * squares.max()
    seeds = [0]
    nearest = squares - 2 * (rows @ rows[0]) + squares[0]
    while len(seeds) < k:
        best = int(np.argmax(nearest >= nearest.max() - tie))
        seeds.append(best)
        np.minimum(nearest, squares - 2 * (rows @ rows[best]) + squares[best], out=nearest)
    return seeds


def _cluster_means(rows: np.ndarray, labels: np.ndarray, centroids: np.ndarray) -> np.ndarray:
    """Each nonempty cluster's mean; an empty cluster keeps its centroid.

    np.bincount adds each cluster's rows from 0.0 in vertex order, as
    members.mean(axis=0) does for two or more columns, so the means are
    the ones it gives bit for bit.
    """
    k, d = centroids.shape
    cells = (labels[:, None] * d + np.arange(d)).reshape(-1)
    sums = np.bincount(cells, weights=rows.reshape(-1), minlength=k * d).reshape(k, d)
    counts = np.bincount(labels, minlength=k)
    means = centroids.copy()
    present = counts > 0
    means[present] = sums[present] / counts[present, None]
    return means


def _lloyd(rows: np.ndarray) -> list[list[int]]:
    """The clusters of Lloyd's k-means on the rows, k their width, seeded farthest-first."""
    centroids = rows[_farthest_first_seeds(rows, rows.shape[1])]
    labels = np.full(rows.shape[0], -1)
    for _ in range(LLOYD_MAX_ITER):
        new_labels = _nearest(rows, centroids)
        if np.array_equal(new_labels, labels):
            break
        labels = new_labels
        centroids = _cluster_means(rows, labels, centroids)
    blocks: dict[int, list[int]] = {}
    for v, lbl in enumerate(labels):
        blocks.setdefault(int(lbl), []).append(v)
    return list(blocks.values())


def _embedding(g: Graph, k: int | str) -> tuple[int, np.ndarray | None]:
    """k and the n x k embedding of the mass Laplacian's k smallest eigenvectors.

    The eigenpairs come from the collapsed graph (the paper's reduction):
    the eigenpairs of its L~, with each vector lifted through K, and each
    block's q local pairs, at its value with its complement on its rows.
    Both sets, merged in ascending order of value (the collapsed graph's
    first among equals), are the original mass Laplacian's eigenpairs.
    k="auto" places k at the largest gap of
    the merged values; the embedding is None when that gives one cluster.
    A graph with no reducible star is its own collapse, and its embedding is
    the columns of its own L~'s eigh.
    """
    ctx = analyze(g)
    r = reduce_all(ctx, "collapse")
    tilde = ctx.reduced(r).matrix("mass-laplacian")
    del ctx   # frees the graph's and the collapse's analyses, with their neighbour lists
    spectrum = eigen.sym_eigen(tilde)
    del tilde   # lowers peak memory: only the solve's columns are read from here on
    if spectrum.n >= 2:
        _require_finite(g, spectrum.values[1], spectrum.vectors[:, 1])
    values = np.concatenate((spectrum.values, [b.value for b in r.blocks for _ in range(b.q)]))
    order = np.argsort(values, kind="stable")
    if k != "auto":
        k_val = int(k)
    elif g.n >= 2:
        k_val = eigen.spectral_gap_index(values[order])
    else:
        k_val = 1
    if k_val < 2:
        return 1, None
    picked = order[:k_val]
    lifted = picked < spectrum.n
    rows = np.zeros((g.n, k_val))
    rows[:, lifted] = lift_vector(r, spectrum.vectors[:, picked[lifted]])
    first = spectrum.n   # each block's local columns follow the collapsed graph's in `values`
    for block in r.blocks:
        hit = (picked >= first) & (picked < first + block.q)
        if hit.any():
            rows[np.ix_(block.rows, np.flatnonzero(hit))] = block.complement[:, picked[hit] - first]
        first += block.q
    return k_val, rows


def kway(g: Graph, k: int | str = "auto") -> Partition:
    """Cluster the rows of the k smallest-eigenvector embedding.

    The eigenvectors are those of the graph's mass Laplacian, whose second
    one `fiedler` reads (L's when every mass is 1), read off the graph with
    every reducible star collapsed (see _embedding): one eigh of an
    (n - q) x (n - q) matrix, q the vertices the collapse removes, and each
    star's local eigenvectors in closed form.  At most LLOYD_MAX_ITER Lloyd
    iterations with farthest-first seeding from vertex 0's row; squared
    Euclidean distances on unnormalized embedding rows.  k="auto" places the
    cluster count at the largest gap anywhere in that spectrum, so it can
    choose k close to n (k=n-1 when the gap below the largest eigenvalue is
    the widest), and chooses one cluster on a graph with fewer than two
    vertices.

    An integer k below 2 or above n raises BadKError before the eigensolve;
    a NaN or infinite second eigenpair of the collapsed graph raises
    NonFiniteSpectrumError.

    Distances are computed in expanded form, |r|^2 - 2 r.c + |c|^2, with
    one BLAS product per Lloyd iteration (rows times centroids) and one
    matrix-vector product per seed.  Two squared distances within
    eigen.DEFAULT_TOL * reach^2 of each other are equal and the first
    index wins (see _nearest and _farthest_first_seeds); the form's
    rounding, at most 4*(k+2)*eps*reach^2, lies far below that, so the
    labels do not depend on summation order.  Memory is O(n*k) beyond
    the collapsed graph's eigensolve: no Gram matrix and no n*k*k tensor.
    """
    _require_connected(g)
    if k != "auto":
        k_val = int(k)
        if k_val < 2:
            raise BadKError(k_val, g.n, f"k-way clustering needs k >= 2 clusters, got k={k_val}")
        if k_val > g.n:
            raise BadKError(
                k_val, g.n, f"the graph has fewer vertices ({g.n}) than the k={k_val} clusters"
            )
    k_val, rows = _embedding(g, k)
    if rows is None:
        return Partition(labels=(0,) * g.n, provenance="kway(auto->1)")
    return _relabel_by_smallest_member(_lloyd(rows), g.n, f"kway(k={k_val}, requested={k})")


def _inconclusive(reason: str) -> SignAgreementReport:
    return SignAgreementReport(
        pairs=(), global_flip=False, agreement_fraction=None, degenerate=True, reason=reason
    )


def compare_signs(
    g: Graph | GraphAnalysis, r: Reduction, tol_rel: float = eigen.DEFAULT_TOL
) -> SignAgreementReport:
    """Compare the Fiedler sign patterns of a graph and its reduction.

    The reduced graph's Fiedler vector v lifts to K v on the original vertex
    set; after an optional global flip, signs (eigen.signs) should agree on
    every kept vertex where both entries have one.  A graph with fewer than
    two vertices or more than one component, a degenerate second eigenvalue
    (either side) or a second eigenvalue removed by the reduction make the
    comparison inconclusive rather than failed.  A kept twin keeps every
    neighbour, so the reduction of a connected graph is connected.  Removed
    vertices inherit the cluster of their kept twin in `extended_labels` (a
    convention, not a theorem).
    """
    ctx = analyze(g)
    if ctx.graph.n < 2 or len(ctx.components) != 1:
        return _inconclusive("graph too small or disconnected")
    orig = fiedler(ctx, tol_rel)
    red = fiedler(ctx.reduced(r), tol_rel)
    if orig.degenerate or red.degenerate:
        which = "original" if orig.degenerate else "reduced"
        return _inconclusive(f"second eigenvalue of the {which} graph is not simple")
    radius = eigen.spectral_radius(ctx.values("mass-laplacian"))
    if abs(orig.lambda2 - red.lambda2) > tol_rel * radius:
        return _inconclusive(
            f"second eigenvalues differ ({orig.lambda2:.6g} vs {red.lambda2:.6g}); "
            "the reduction removed the original second eigenvalue"
        )

    lifted = lift_vector(r, red.vector)
    kept = np.flatnonzero([v is not None for v in r.vertex_map])
    orig_signs, lifted_signs = eigen.signs(orig.vector)[kept], eigen.signs(lifted)[kept]
    product = orig_signs * lifted_signs   # 1 agrees, -1 disagrees, 0 is not compared
    count, agree = int(np.count_nonzero(product)), int((product > 0).sum())
    flip = agree < count - agree
    if flip:
        lifted, lifted_signs = -lifted, -lifted_signs
    pairs = tuple(zip(kept.tolist(), orig_signs.tolist(), lifted_signs.tolist()))
    fraction = max(agree, count - agree) / count if count else 1.0

    labels = list(_labels_from_signs(lifted)[0])
    for block in r.blocks:
        for v in block.rows[len(block.kept):]:
            labels[v] = labels[block.kept[0]]
    return SignAgreementReport(
        pairs=pairs,
        global_flip=flip,
        agreement_fraction=fraction,
        degenerate=False,
        extended_labels=tuple(labels),
    )
