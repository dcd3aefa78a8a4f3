import json
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
    plant_ldependent_graph,
    plant_star_graph,
    recursive_bisection,
    reduce_all,
    save_graph,
    sign_bipartition,
)
from starlap.cli import run_cli
from starlap.errors import BadKError, DisconnectedError, TooFewValuesError
from starlap import partition as partition_module
from starlap.partition import (
    Partition,
    _cluster_means,
    _farthest_first_seeds,
    _nearest,
    _relabel_by_smallest_member,
)

from conftest import reduce_one

GOLDEN = Path(__file__).resolve().parent / "golden"
STARS120 = GOLDEN / "stars120.graph"


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

    @pytest.mark.parametrize("n", [0, 1])
    def test_fewer_than_two_vertices_rejected(self, n):
        with pytest.raises(TooFewValuesError):
            fiedler(build_graph(n, []))

    def test_degenerate_when_the_spectrum_groups_lambda2_with_a_neighbour(self):
        # fiedler tests only the gaps next to lambda2; the grouping of the
        # whole spectrum must give the same verdict
        graphs = {p.stem: load_graph(str(p)) for p in sorted(GOLDEN.glob("*.graph"))}
        for seed in range(8):
            graphs[f"stars{seed}"] = plant_star_graph(seed, 16, [(3, 2, 2.0), (2, 1, 0.5)])
            # a single hub makes a weighted star, whose lambda2 is repeated
            graphs[f"ldep{seed}"] = plant_ldependent_graph(seed, (2, 1 + seed % 3, 2), 4.0)
        verdicts = {}
        for name, g in graphs.items():
            ctx = analyze(g)
            if g.n < 2 or len(ctx.components) > 1:
                continue
            table = eigen.group_multiplicities(ctx.values("mass-laplacian"), eigen.DEFAULT_TOL)
            group = next(grp for grp in table.groups if grp.start <= 1 < grp.stop)
            verdicts[name] = fiedler(ctx).degenerate
            assert verdicts[name] == (group.multiplicity > 1), name
        assert verdicts["f1"]   # lambda2 = 2 has multiplicity 2
        assert set(verdicts.values()) == {True, False}


def complete_bipartite(p, q):
    return build_graph(p + q, [(i, p + j, 1.0) for i in range(p) for j in range(q)])


# each has lambda2 where L - lambda2*I is exactly singular for LAPACK's LU
SINGULAR_SHIFT_GRAPHS = {
    "P2": build_graph(2, [(0, 1, 1.0)]),
    "K3": build_graph(3, [(0, 1, 1.0), (1, 2, 1.0), (0, 2, 1.0)]),
    "C4": build_graph(4, [(0, 1, 1.0), (1, 2, 1.0), (2, 3, 1.0), (0, 3, 1.0)]),
    "K_{1,4}": complete_bipartite(1, 4),
    "K_{3,3}": complete_bipartite(3, 3),
}


def relative_residual(ctx, vector):
    """||L~ v - lambda2 v|| / spectral radius, for the mass Laplacian L~."""
    values = ctx.values("mass-laplacian")
    radius = eigen.spectral_radius(values)
    return np.linalg.norm(ctx.matrix("mass-laplacian") / radius @ vector - values[1] / radius * vector)


def reference_labels(ctx):
    """Sign labels of the second column of a full eigh."""
    column = eigen.sym_eigen(ctx.matrix("mass-laplacian")).vectors[:, 1]
    return partition_module._labels_from_signs(column)[0]


def connected_graphs():
    graphs = {p.stem: load_graph(str(p)) for p in sorted(GOLDEN.glob("*.graph"))}
    for seed in range(20):
        graphs[f"stars{seed}"] = plant_star_graph(seed, 40, [(3, 2, 2.0), (2, 3, 0.5)], 0.2)
    graphs["stars1000"] = plant_star_graph(1, 1000, [(4, 3, 2.0)] * 25, background_p=0.05)
    return {
        name: g for name, g in graphs.items() if g.n >= 2 and len(analyze(g).components) == 1
    }


class TestFiedlerPairFromItsValues:
    """The pair is the values-only spectrum plus one inverse-iteration step."""

    @pytest.fixture
    def solves(self, monkeypatch):
        calls = []
        real = np.linalg.solve

        def solve(a, b):
            calls.append(a.shape)
            return real(a, b)

        monkeypatch.setattr(np.linalg, "solve", solve)
        return calls

    @pytest.mark.parametrize("name", SINGULAR_SHIFT_GRAPHS)
    @pytest.mark.parametrize("scale", [1.0, 1e-300, 1e300])
    def test_exactly_singular_shift_gives_an_eigenvector(self, solves, name, scale):
        g = SINGULAR_SHIFT_GRAPHS[name]
        ctx = analyze(build_graph(g.n, [(u, v, w * scale) for u, v, w in g.edges]))
        vector = ctx.second_vector("laplacian")
        assert np.linalg.norm(vector) == pytest.approx(1.0, abs=1e-15)
        assert relative_residual(ctx, vector) <= 1e-12
        if scale == 1.0:
            assert len(solves) >= 2   # the first shift was singular and moved

    def test_lambda2_is_the_values_only_solve_bit_for_bit(self):
        for name, g in connected_graphs().items():
            matrix = analyze(g).matrix("mass-laplacian")
            expected = eigen.sym_eigen(matrix, vectors=False).values[1]
            assert fiedler(g).lambda2 == expected, name

    def test_residual_on_golden_and_planted_graphs(self):
        for name, g in connected_graphs().items():
            ctx = analyze(g)
            assert relative_residual(ctx, fiedler(ctx).vector) <= 1e-12, name

    def test_bisection_matches_eigh_where_lambda2_is_simple(self):
        simple = 0
        for name, g in connected_graphs().items():
            ctx = analyze(g)
            if fiedler(ctx).degenerate:
                continue
            simple += 1
            assert sign_bipartition(g).labels == reference_labels(ctx), name
        assert simple >= 20

    def test_a_twin_pair_the_start_barely_sees_takes_a_second_step(self, solves):
        # twins 0 and 710 on hub 1 carry the simple lambda2 = 0.01 with the
        # eigenvector e_0 - e_710, and sin(1) - sin(711) is about 2e-6, so one
        # step would leave a residual near 1e-11 of the radius
        n = 712
        rng = np.random.default_rng(0)
        u, v = np.triu_indices(n, 1)
        keep = (rng.random(u.size) < 0.05) | (v == u + 1)
        keep &= (u != 0) & (u != 710) & (v != 0) & (v != 710)
        edges = [(a, b, 1.0) for a, b in zip(u[keep].tolist(), v[keep].tolist())]
        g = build_graph(n, edges + [(709, 711, 1.0), (0, 1, 0.01), (1, 710, 0.01)])
        ctx = analyze(g)
        result = fiedler(ctx)
        assert not result.degenerate and result.lambda2 == pytest.approx(0.01)
        assert len(solves) == 2
        assert relative_residual(ctx, result.vector) <= 1e-15
        assert sign_bipartition(g).labels == reference_labels(ctx)
        assert [v for v, label in enumerate(sign_bipartition(g).labels) if label] == [710]


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

    def test_deterministic(self, two_triangles):
        a = recursive_bisection(two_triangles, max_clusters=3)
        b = recursive_bisection(two_triangles, max_clusters=3)
        assert a.labels == b.labels

    def test_isomorphic_blocks_tie_to_the_one_with_the_smallest_vertex(self):
        # the copies' second eigenvalues differ only by rounding, so the
        # first copy, which holds vertex 0, splits next
        split_the_other = []
        for seed in range(200):
            labels = recursive_bisection(isomorphic_pair(seed), max_clusters=3).labels
            if len(set(labels[:7])) != 2 or len(set(labels[7:])) != 1:
                split_the_other.append(seed)
        assert split_the_other == []


def isomorphic_pair(seed, size=7):
    """Two copies of a random connected graph with integer weights, joined by a light bridge.

    The second copy is relabelled by a random permutation; the bridge, of
    weight 1e-3, joins vertex 0 to its copy.
    """
    rng = np.random.default_rng(seed)
    path = rng.permutation(size)
    edges = {(min(u, v), max(u, v)): int(rng.integers(1, 6)) for u, v in zip(path, path[1:])}
    for u in range(size):
        for v in range(u + 1, size):
            if rng.random() < 0.4:
                edges.setdefault((u, v), int(rng.integers(1, 6)))
    copy = [int(x) for x in size + rng.permutation(size)]
    first = [(int(u), int(v), float(w)) for (u, v), w in edges.items()]
    second = [(copy[u], copy[v], w) for u, v, w in first]
    return build_graph(2 * size, first + second + [(0, copy[0], 1e-3)])


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
        r = reduce_one(f1, detect_stars(f1)[0], 1)
        result = fiedler(r.reduced)
        assert result.lambda2 == pytest.approx(2.0, abs=1e-10)
        assert not result.degenerate

    def test_collapse_double_star(self, f2):
        r = reduce_all(f2, "collapse")
        result = fiedler(r.reduced)
        assert result.lambda2 == pytest.approx((5.0 - np.sqrt(17.0)) / 2.0, abs=1e-10)
        # former centers 0 and 1 land on opposite sides
        i0, i1 = r.vertex_map[0], r.vertex_map[1]
        assert result.vector[i0] * result.vector[i1] < 0

    def test_identity_matches_original(self, f4):
        r = reduce_all(f4, "collapse")
        plain, red = fiedler(f4), fiedler(r.reduced)
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
        report = compare_signs(f1, reduce_one(f1, detect_stars(f1)[0], 1))
        assert report.degenerate
        assert report.agreement_fraction is None
        assert not report.passed

    def test_an_unsigned_entry_is_reported_as_0_and_not_compared(self):
        # swapping 0 <-> 2 and their pendants mirrors the graph, so the
        # Fiedler vector is odd under it and its centre entry, 1.9e-16, is 0
        g = build_graph(7, [(0, 1, 1), (1, 2, 1), (0, 3, 2), (0, 4, 2), (2, 5, 2), (2, 6, 2)])
        assert abs(fiedler(g).vector[1]) <= eigen.SIGN_EPS
        report = compare_signs(g, reduce_all(g, "collapse"))
        assert not report.degenerate and report.agreement_fraction == 1.0
        assert (1, 0, 0) in report.pairs
        assert all(o and o == lifted for v, o, lifted in report.pairs if v != 1)
        assert sign_bipartition(g).provenance.endswith("; zero entries at [1])")

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


def lifted_labels(r, labels):
    """Reduced-graph labels on the original vertices; a removed vertex takes its kept twin's."""
    twin = {v: b.kept[0] for b in r.blocks for v in b.rows}
    return [labels[r.vertex_map[v if r.vertex_map[v] is not None else twin[v]]]
            for v in range(r.original.n)]


def same_up_to_swap(a, b):
    return list(a) == list(b) or list(a) == [1 - x for x in b]


class TestReducedGraphBisectsLikeItsOriginal:
    """The reduced graph's Fiedler vector is the original's restricted to range(K)."""

    @pytest.fixture
    def g(self):
        return plant_star_graph(2, 35, [(2, 1, 1.0)], background_p=0.1)

    def test_sign_bipartition(self, g):
        r = reduce_all(g)
        assert r.q_total == 1 and set(r.reduced.mass) == {1.0, 2.0}
        reduced = sign_bipartition(r.reduced).labels
        assert same_up_to_swap(lifted_labels(r, reduced), sign_bipartition(g).labels)

    def test_partition_of_the_written_file(self, g, tmp_path, capsys):
        original, written = str(tmp_path / "g.graph"), str(tmp_path / "reduced.graph")
        save_graph(g, original)
        assert run_cli(["reduce", original, "-o", written]) == 0
        capsys.readouterr()
        labels = {}
        for path in (original, written):
            assert run_cli(["partition", path, "--bisect", "--json"]) == 0
            labels[path] = json.loads(capsys.readouterr().out)["labels"]
        r = reduce_all(g)
        assert same_up_to_swap(lifted_labels(r, labels[written]), labels[original])


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


def _full_eigh_embedding(g, k):
    """k and the k smallest eigenvectors of one full eigh of L, as kway first read them."""
    spectrum = eigen.sym_eigen(analyze(g).matrix("laplacian"))
    k_val = eigen.spectral_gap_index(spectrum.values) if k == "auto" else k
    return k_val, spectrum.vectors[:, :k_val] if k_val >= 2 else None


def _kway_reference(g, k, embedding=_full_eigh_embedding, max_iter=100):
    """kway as first written, on the embedding(g, k) it is given, with kway's tie rule.

    The whole n*k*k difference tensor per Lloyd step and direct squared
    distances throughout; two distances within eigen.DEFAULT_TOL * reach^2
    of the best are equal and the first index wins, reach being twice the
    largest row norm for a seed and |r| + max |c| for an assignment.  The
    embedding is one full eigh of L by default, kway's own
    (partition._embedding) where the rows must be the ones kway clusters.
    """
    k_val, rows = embedding(g, k)
    if rows is None:
        return Partition(labels=(0,) * g.n, provenance="kway(auto->1)")
    norms = np.sqrt((rows**2).sum(axis=1))
    seed_tie = eigen.DEFAULT_TOL * (2 * norms.max()) ** 2
    seeds = [0]
    dist = ((rows - rows[0]) ** 2).sum(axis=1)
    while len(seeds) < k_val:
        nxt = int(np.flatnonzero(dist >= dist.max() - seed_tie)[0])
        seeds.append(nxt)
        dist = np.minimum(dist, ((rows - rows[nxt]) ** 2).sum(axis=1))
    centroids = rows[seeds].copy()
    labels = np.full(g.n, -1)
    for _ in range(max_iter):
        dists = ((rows[:, None, :] - centroids[None, :, :]) ** 2).sum(axis=2)
        reach = norms + np.sqrt((centroids**2).sum(axis=1)).max()
        tie = eigen.DEFAULT_TOL * reach**2
        new_labels = (dists <= (dists.min(axis=1) + tie)[:, None]).argmax(axis=1)
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


# --- the k-means kernel against the direct loops it replaced ----------------


def farthest_first_reference(rows, k):
    """Farthest-first seeds from direct distances, first of equals."""
    seeds = [0]
    dist = np.sqrt(((rows - rows[0]) ** 2).sum(axis=1))
    while len(seeds) < k:
        nxt = int(np.argmax(dist))
        seeds.append(nxt)
        dist = np.minimum(dist, np.sqrt(((rows - rows[nxt]) ** 2).sum(axis=1)))
    return seeds


def nearest_reference(rows, centroids):
    """Nearest centroid by direct squared distance, one centroid column at a time."""
    dists = np.empty((rows.shape[0], centroids.shape[0]))
    for c in range(centroids.shape[0]):
        dists[:, c] = ((rows - centroids[c]) ** 2).sum(axis=1)
    return dists.argmin(axis=1)


def means_reference(rows, labels, centroids):
    """Each nonempty cluster's members.mean(axis=0); an empty one keeps its centroid."""
    means = centroids.copy()
    for c in range(centroids.shape[0]):
        members = rows[labels == c]
        if members.size:
            means[c] = members.mean(axis=0)
    return means


def equidistant_points(seed, count=40, dim=3):
    """Two centres and points on their bisector, so equidistant up to rounding."""
    rng = np.random.default_rng(seed)
    centres = rng.standard_normal((2, dim))
    middle = centres.mean(axis=0)
    normal = (centres[1] - centres[0]) / np.linalg.norm(centres[1] - centres[0])
    points = middle + rng.standard_normal((count, dim))
    points -= np.outer((points - middle) @ normal, normal)
    return points, centres


GRID = np.array(
    [[0.0, 0.0], [1.0, 0.0], [1.0, 0.0], [0.0, 1.0], [0.0, 1.0], [1.0, 1.0], [0.5, 0.5]]
)
EQUIDISTANT, PAIR = equidistant_points(0)
# rows and centroids
TIE_CASES = {
    "duplicate rows": (GRID, GRID[[0, 1, 5]]),
    "duplicate centroids": (GRID, GRID[[1, 6, 1, 6]]),
    "row equal to a centroid": (GRID, GRID[[6, 3]]),
    "all rows equal": (np.full((5, 3), 0.25), np.full((2, 3), 0.25)),
    "k equals n": (GRID, GRID.copy()),
    "equidistant rows": (np.vstack([PAIR, EQUIDISTANT]), PAIR),
}


@pytest.mark.parametrize("scale", [1.0, 1e150, 1e-150])
@pytest.mark.parametrize("case", list(TIE_CASES))
def test_seeds_match_the_direct_loop(case, scale):
    rows = TIE_CASES[case][0] * scale
    for k in range(1, rows.shape[0] + 1):
        assert _farthest_first_seeds(rows, k) == farthest_first_reference(rows, k)


@pytest.mark.parametrize("scale", [1.0, 1e150, 1e-150])
@pytest.mark.parametrize("case", list(TIE_CASES))
def test_nearest_centroids_and_means_match_the_direct_loops(case, scale):
    rows, centroids = (a * scale for a in TIE_CASES[case])
    labels = _nearest(rows, centroids)
    if case == "equidistant rows":
        # the bisector points tie up to rounding, so the first centre takes each
        expected = [0, 1] + [0] * EQUIDISTANT.shape[0]
    else:
        expected = nearest_reference(rows, centroids).tolist()
    assert labels.tolist() == expected
    means = _cluster_means(rows, labels, centroids)
    assert means.tobytes() == means_reference(rows, labels, centroids).tobytes()


def test_an_empty_cluster_keeps_its_centroid():
    rows, centroids = TIE_CASES["duplicate centroids"]
    labels = _nearest(rows, centroids)
    # the first of two equal centroids takes every row they are nearest to
    assert set(labels.tolist()) == {0, 1}
    means = _cluster_means(rows, labels, centroids)
    assert means[2:].tobytes() == centroids[2:].tobytes()


@pytest.mark.parametrize("seed", range(20))
def test_means_are_members_mean_bit_for_bit(seed):
    rng = np.random.default_rng(seed)
    n, k = int(rng.integers(2, 300)), int(rng.integers(2, 40))
    rows = rng.standard_normal((n, k)) * 10.0 ** rng.integers(-5, 5, size=(n, 1))
    labels = rng.integers(0, k, size=n)
    centroids = rng.standard_normal((k, k))
    assert _cluster_means(rows, labels, centroids).tobytes() == (
        means_reference(rows, labels, centroids).tobytes()
    )


def _column_permutation_cases():
    for seed in range(50):
        rows, centres = equidistant_points(seed, dim=6)
        yield pytest.param(np.vstack([centres, rows]), centres, id=f"equidistant{seed}")
    # kway's embedding of stars of three shapes: twin rows tie with each other
    specs = [(3, 2, 1.0), (4, 3, 2.0), (6, 5, 3.5)] * 2
    for seed in range(1, 6):
        g = plant_star_graph(seed, 100, specs, background_p=0.05)
        rows = partition_module._embedding(g, "auto")[1]
        centres = rows[_farthest_first_seeds(rows, rows.shape[1])]
        yield pytest.param(rows, centres, id=f"stars{seed}")


@pytest.mark.parametrize("rows, centres", list(_column_permutation_cases()))
def test_picks_do_not_change_when_the_columns_are_permuted(rows, centres):
    # permuting the columns changes only the order in which distances are summed
    perm = np.random.default_rng(0).permutation(rows.shape[1])
    moved_rows, moved_centres = rows[:, perm], centres[:, perm]
    assert _nearest(moved_rows, moved_centres).tolist() == _nearest(rows, centres).tolist()
    k = rows.shape[1]
    assert _farthest_first_seeds(moved_rows, k) == _farthest_first_seeds(rows, k)


def _reference_cases():
    # the planted blocks have no star, so kway reads the full eigh there;
    # the star graphs are clustered on kway's own embedding
    for seed in range(50):
        n_blocks = 2 + seed % 2
        yield pytest.param(
            planted_blocks(seed, n_blocks)[0], n_blocks, _full_eigh_embedding, id=f"blocks{seed}"
        )
    embedding = partition_module._embedding
    yield pytest.param(load_graph(str(STARS120)), "auto", embedding, id="stars120")
    stars = plant_star_graph(5, 60, [(4, 3, 2.0), (3, 2, 1.0), (5, 2, 1.5)], background_p=0.1)
    for k in (2, 5, "auto"):
        yield pytest.param(stars, k, embedding, id=f"stars60-k{k}")


@pytest.mark.parametrize("g, k, embedding", list(_reference_cases()))
def test_kway_matches_the_full_tensor_reference(g, k, embedding):
    assert kway(g, k) == _kway_reference(g, k, embedding)


def assert_embedding_matches_a_full_eigh(g, k):
    """kway's embedding against the k smallest eigenpairs of one eigh of the mass Laplacian.

    The same k; Rayleigh quotients within 1e-12 R of the eigenvalues, R the
    row-sum bound; and, where the k-th and (k+1)-th eigenvalues lie more
    than tol R apart, the same span: projectors within 1e-8.  Inside a
    repeated eigenvalue the basis is free, so labels may differ there.
    """
    tilde = analyze(g).matrix("mass-laplacian")
    bound = float(np.abs(tilde).sum(axis=1).max())
    full = eigen.sym_eigen(tilde)
    k_full = eigen.spectral_gap_index(full.values) if k == "auto" else k
    k_val, rows = partition_module._embedding(g, k)
    assert k_val == k_full
    if rows is None:
        return
    assert rows.shape == (g.n, k_val)
    assert np.abs(rows.T @ rows - np.eye(k_val)).max() <= 1e-12
    quotients = np.einsum("ij,ij->j", rows, tilde @ rows)
    assert np.abs(quotients - full.values[:k_val]).max() <= 1e-12 * bound
    if k_val == g.n or full.values[k_val] - full.values[k_val - 1] > eigen.DEFAULT_TOL * bound:
        exact = full.vectors[:, :k_val]
        assert np.abs(rows @ rows.T - exact @ exact.T).max() <= 1e-8


@pytest.mark.parametrize("name", ["f4", "two_triangles", "ldep44", "written_reduction"])
def test_without_a_reducible_star_the_embedding_is_the_full_eigh_bit_for_bit(name):
    g = load_graph(str(GOLDEN / f"{name}.graph"))
    assert reduce_all(g, "collapse").q_total == 0
    full = eigen.sym_eigen(analyze(g).matrix("mass-laplacian"))
    for k in (2, g.n):
        assert partition_module._embedding(g, k)[1].tobytes() == full.vectors[:, :k].tobytes()


@pytest.mark.parametrize("k", [2, 3, "auto"])
@pytest.mark.parametrize("path", sorted(GOLDEN.glob("*.graph")), ids=lambda p: p.stem)
def test_the_embedding_matches_a_full_eigh_on_the_goldens(path, k):
    assert_embedding_matches_a_full_eigh(load_graph(str(path)), k)


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
