import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from starlap import (
    analyze,
    build_graph,
    compare_signs,
    detect_stars,
    eigen,
    fiedler,
    kway,
    load_graph,
    plant_star_graph,
    recursive_bisection,
    reduce_all,
    reduce_star,
    reduced_fiedler,
    sign_bipartition,
)
from starlap.errors import BadKError, DisconnectedError
from starlap.partition import Partition, _relabel_by_smallest_member

STARS120 = Path(__file__).resolve().parent / "golden" / "stars120.graph"


def labels_as_sets(partition):
    clusters = {}
    for v, lbl in enumerate(partition.labels):
        clusters.setdefault(lbl, set()).add(v)
    return sorted(clusters.values(), key=min)


class TestFiedler:
    def test_path(self, f4):
        result = fiedler(f4)
        assert result.lambda2 == pytest.approx(2.0 - np.sqrt(2.0), abs=1e-10)
        assert not result.degenerate
        signs = np.sign(result.vector)
        assert signs.tolist() == [1.0, 1.0, -1.0, -1.0]

    def test_degenerate_bipartite(self, f1):
        result = fiedler(f1)
        assert result.lambda2 == pytest.approx(2.0)
        assert result.degenerate

    def test_single_edge(self):
        g = build_graph(2, [(0, 1, 0.75)])
        result = fiedler(g)
        assert result.lambda2 == pytest.approx(1.5)
        assert np.allclose(result.vector, [1 / np.sqrt(2), -1 / np.sqrt(2)])

    def test_invariants(self, f2):
        result = fiedler(f2)
        assert abs(result.vector.sum()) <= 1e-9
        lap = analyze(f2).matrix("laplacian")
        assert np.linalg.norm(lap @ result.vector - result.lambda2 * result.vector) <= 1e-9

    def test_disconnected_rejected(self):
        g = build_graph(4, [(0, 1, 1.0), (2, 3, 1.0)])
        with pytest.raises(DisconnectedError):
            fiedler(g)


class TestBipartition:
    def test_path(self, f4):
        assert labels_as_sets(sign_bipartition(f4)) == [{0, 1}, {2, 3}]

    def test_single_edge(self):
        g = build_graph(2, [(0, 1, 1.0)])
        assert labels_as_sets(sign_bipartition(g)) == [{0}, {1}]

    def test_double_star_center_cut(self, f2):
        assert labels_as_sets(sign_bipartition(f2)) == [{0, 2, 3}, {1, 4, 5}]

    def test_triangles(self, two_triangles):
        assert labels_as_sets(sign_bipartition(two_triangles)) == [{0, 1, 2}, {3, 4, 5}]


class TestRecursiveBisection:
    def test_one_step_matches_bipartition(self, f4):
        rsb = recursive_bisection(f4, max_clusters=2)
        assert rsb.labels == sign_bipartition(f4).labels

    def test_triangles(self, two_triangles):
        part = recursive_bisection(two_triangles, max_clusters=2)
        assert labels_as_sets(part) == [{0, 1, 2}, {3, 4, 5}]

    def test_exhaustive_split(self, f4):
        part = recursive_bisection(f4, max_clusters=4)
        assert sorted(part.labels) == [0, 1, 2, 3]

    def test_threshold_stop(self, two_triangles):
        # triangles are tight (second eigenvalue 3); the bridge is loose
        part = recursive_bisection(two_triangles, lambda2_threshold=1.0)
        assert labels_as_sets(part) == [{0, 1, 2}, {3, 4, 5}]

    def test_requires_exactly_one_stop(self, f4):
        with pytest.raises(ValueError):
            recursive_bisection(f4)
        with pytest.raises(ValueError):
            recursive_bisection(f4, max_clusters=2, lambda2_threshold=0.5)

    def test_deterministic(self, two_triangles):
        a = recursive_bisection(two_triangles, max_clusters=3)
        b = recursive_bisection(two_triangles, max_clusters=3)
        assert a.labels == b.labels


class TestKway:
    def test_triangles(self, two_triangles):
        part = kway(two_triangles, 2)
        assert labels_as_sets(part) == [{0, 1, 2}, {3, 4, 5}]

    def test_path(self, f4):
        part = kway(f4, 2)
        assert labels_as_sets(part) == [{0, 1}, {2, 3}]

    def test_k_equals_n(self, f4):
        part = kway(f4, 4)
        assert sorted(part.labels) == [0, 1, 2, 3]

    def test_auto_picks_two_for_triangles(self, two_triangles):
        part = kway(two_triangles, "auto")
        assert part.n_clusters == 2
        assert labels_as_sets(part) == [{0, 1, 2}, {3, 4, 5}]

    def test_bad_k(self, f4):
        for k in (1, 5):
            with pytest.raises(BadKError):
                kway(f4, k)

    def test_deterministic(self, two_triangles):
        assert kway(two_triangles, 2).labels == kway(two_triangles, 2).labels


class TestReducedFiedler:
    def test_degeneracy_drops_after_reduction(self, f1):
        r = reduce_star(f1, detect_stars(f1)[0], 1)
        result = reduced_fiedler(r)
        assert result.lambda2 == pytest.approx(2.0, abs=1e-10)
        assert not result.degenerate

    def test_collapse_double_star(self, f2):
        r = reduce_all(f2, "collapse")
        result = reduced_fiedler(r)
        assert result.lambda2 == pytest.approx((5.0 - np.sqrt(17.0)) / 2.0, abs=1e-10)
        # former centers 0 and 1 land on opposite sides
        i0, i1 = r.vertex_map[0], r.vertex_map[1]
        assert result.vector[i0] * result.vector[i1] < 0

    def test_identity_matches_original(self, f4):
        r = reduce_all(f4, "collapse")
        plain, red = fiedler(f4), reduced_fiedler(r)
        assert red.lambda2 == pytest.approx(plain.lambda2)
        assert np.allclose(red.vector, plain.vector)


class TestCompareSigns:
    def test_double_star_agrees(self, f2):
        report = compare_signs(f2, reduce_all(f2, "collapse"))
        assert not report.degenerate
        assert report.agreement_fraction == 1.0
        assert report.passed
        # removed pendants inherit their twin's side
        labels = report.extended_labels
        assert labels[3] == labels[2] and labels[5] == labels[4]
        assert labels[2] == labels[0] and labels[4] == labels[1]
        assert labels[0] != labels[1]

    @pytest.mark.parametrize("scale", [1.0, 1e-9])
    def test_removed_second_eigenvalue_inconclusive(self, scale):
        # the twins 0 and 1 on hub 2 carry the simple lambda2 = scale (next:
        # 1.6 scale), and the collapse removes it
        edges = [(0, 2, 1.0), (1, 2, 1.0), (2, 3, 10.0), (2, 4, 10.0), (3, 4, 10.0)]
        g = build_graph(5, [(u, v, w * scale) for u, v, w in edges])
        report = compare_signs(g, reduce_all(g, "collapse"))
        assert report.degenerate
        assert "removed the original second eigenvalue" in report.reason

    def test_degenerate_original_inconclusive(self, f1):
        report = compare_signs(f1, reduce_star(f1, detect_stars(f1)[0], 1))
        assert report.degenerate
        assert report.agreement_fraction is None
        assert not report.passed

    def test_planted_agreement(self):
        agreements = 0
        for seed in range(20):
            g = plant_star_graph(seed=seed, n=14, star_specs=[(3, 2, 2.0)])
            stars = [s.m - 1 if s.weight_uniform is not None else 0 for s in detect_stars(g)]
            r = reduce_all(g, [min(1, q) for q in stars])
            report = compare_signs(g, r)
            if not report.degenerate:
                assert report.agreement_fraction == 1.0
                agreements += 1
        assert agreements >= 10


def planted_blocks(seed, n_blocks, bridge_weight=1e-3):
    """Connected blocks joined by light bridges; returns (graph, block labels)."""
    rng = np.random.default_rng(seed)
    edges, labels, offset = [], [], 0
    anchors = []
    for b in range(n_blocks):
        size = int(rng.integers(3, 7))
        verts = list(range(offset, offset + size))
        labels.extend([b] * size)
        for u, v in zip(verts, verts[1:]):
            edges.append((u, v, float(rng.uniform(0.8, 1.2))))
        for i in range(len(verts)):
            for j in range(i + 2, len(verts)):
                if rng.random() < 0.4:
                    edges.append((verts[i], verts[j], float(rng.uniform(0.8, 1.2))))
        anchors.append(verts[0])
        offset += size
    for a, b in zip(anchors, anchors[1:]):
        edges.append((a, b, bridge_weight))
    return build_graph(offset, edges), labels


def test_kway_recovers_planted_blocks():
    # weight ratio 1e-3 between blocks; exact recovery up to permutation
    for seed in range(50):
        n_blocks = 2 + seed % 2
        g, truth = planted_blocks(seed, n_blocks)
        part = kway(g, n_blocks)
        mapping = {}
        for lbl, t in zip(part.labels, truth):
            assert mapping.setdefault(lbl, t) == t, f"seed {seed}: split block"
        assert len(mapping) == n_blocks


def _kway_reference(g, k, max_iter=100):
    """kway as first written: the whole n*k*k difference tensor per Lloyd step."""
    spectrum = eigen.sym_eigen(analyze(g).matrix("laplacian"))
    if k == "auto":
        k_val = eigen.spectral_gap_index(spectrum.values)
        if k_val < 2:
            return Partition(labels=(0,) * g.n, provenance="kway(auto->1)")
    else:
        k_val = k
    rows = spectrum.vectors[:, :k_val]
    seeds = [0]
    dist = np.linalg.norm(rows - rows[0], axis=1)
    while len(seeds) < k_val:
        nxt = int(np.argmax(dist))
        seeds.append(nxt)
        dist = np.minimum(dist, np.linalg.norm(rows - rows[nxt], axis=1))
    centroids = rows[seeds].copy()
    labels = np.full(g.n, -1)
    for _ in range(max_iter):
        dists = ((rows[:, None, :] - centroids[None, :, :]) ** 2).sum(axis=2)
        new_labels = dists.argmin(axis=1)
        if np.array_equal(new_labels, labels):
            break
        labels = new_labels
        for c in range(k_val):
            members = rows[labels == c]
            if members.size:
                centroids[c] = members.mean(axis=0)
    blocks = {}
    for v, lbl in enumerate(labels):
        blocks.setdefault(int(lbl), []).append(v)
    return _relabel_by_smallest_member(
        list(blocks.values()), g.n, f"kway(k={k_val}, requested={k})"
    )


def _reference_cases():
    for seed in range(50):
        n_blocks = 2 + seed % 2
        yield pytest.param(planted_blocks(seed, n_blocks)[0], n_blocks, id=f"blocks{seed}")
    yield pytest.param(load_graph(str(STARS120)), "auto", id="stars120")
    stars = plant_star_graph(5, 60, [(4, 3, 2.0), (3, 2, 1.0), (5, 2, 1.5)], background_p=0.1)
    for k in (2, 5, "auto"):
        yield pytest.param(stars, k, id=f"stars60-k{k}")


@pytest.mark.parametrize("g, k", list(_reference_cases()))
def test_kway_matches_the_full_tensor_reference(g, k):
    assert kway(g, k) == _kway_reference(g, k)


def test_kway_memory_is_order_n_k():
    # stars120 has its largest Laplacian gap at the top, so "auto" takes
    # k=119; the n*k*k tensor alone would be 13.6 MB there
    g = load_graph(str(STARS120))
    tracemalloc.start()
    try:
        part = kway(g, "auto")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert part.provenance == "kway(k=119, requested=auto)"
    assert peak < 2 * 2**20
