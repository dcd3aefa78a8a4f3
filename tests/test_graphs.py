import numpy as np
import pytest

from starlap import (
    adjacency,
    analyze,
    build_graph,
    connected_components,
    induced_subgraph,
    strengths,
)
from starlap.graphs import neighbor_lists
from starlap.errors import (
    DuplicateEdgeError,
    IndexOutOfRangeError,
    IsolatedVertexError,
    NonPositiveWeightError,
    SelfLoopError,
)


def test_build_single_edge():
    g = build_graph(2, [(0, 1, 1.0)])
    assert g.edges == ((0, 1, 1.0),)
    assert g.mass == (1.0, 1.0)
    assert strengths(g).tolist() == [1.0, 1.0]


def test_build_bipartite(f1):
    assert f1.n == 5
    assert len(f1.edges) == 6


def test_build_normalizes_endpoint_order():
    g = build_graph(3, [(2, 0, 1.5), (1, 0, 0.5)])
    assert g.edges == ((0, 1, 0.5), (0, 2, 1.5))


def test_build_rejects_self_loop():
    with pytest.raises(SelfLoopError):
        build_graph(3, [(0, 0, 1.0)])


def test_build_rejects_duplicates_in_either_order():
    with pytest.raises(DuplicateEdgeError):
        build_graph(3, [(0, 1, 1.0), (1, 0, 2.0)])


@pytest.mark.parametrize("w", [0.0, -1.0, float("nan"), float("inf")])
def test_build_rejects_bad_weights(w):
    with pytest.raises(NonPositiveWeightError):
        build_graph(2, [(0, 1, w)])


def test_build_rejects_out_of_range():
    with pytest.raises(IndexOutOfRangeError):
        build_graph(2, [(0, 5, 1.0)])


def test_adjacency_single_edge():
    g = build_graph(2, [(0, 1, 2.5)])
    assert adjacency(g).tolist() == [[0.0, 2.5], [2.5, 0.0]]


def test_adjacency_empty():
    g = build_graph(3, [])
    assert np.all(adjacency(g) == 0)


def test_strength_values(f1):
    assert analyze(f1).strengths[0] == 2.0
    assert analyze(f1).strengths[3] == 3.0
    assert analyze(build_graph(2, [])).strengths[0] == 0.0


def test_laplacian_single_edge():
    g = build_graph(2, [(0, 1, 1.0)])
    assert analyze(g).matrix("laplacian").tolist() == [[1.0, -1.0], [-1.0, 1.0]]


def test_laplacian_path_tridiagonal(f4):
    lap = analyze(f4).matrix("laplacian")
    assert np.diag(lap).tolist() == [1.0, 2.0, 2.0, 1.0]
    assert lap[0, 2] == 0.0 and lap[0, 3] == 0.0


def test_laplacian_equals_degree_minus_adjacency(f1):
    lap = analyze(f1).matrix("laplacian")
    expected = np.diag(strengths(f1)) - adjacency(f1)
    assert np.array_equal(lap, expected)
    assert np.abs(lap.sum(axis=1)).max() <= 1e-12 * max(1.0, strengths(f1).max())


def test_signless_relation(f1):
    ctx = analyze(f1)
    assert np.array_equal(ctx.matrix("signless") - ctx.matrix("laplacian"), 2 * adjacency(f1))


def test_signless_single_edge():
    g = build_graph(2, [(0, 1, 1.0)])
    assert analyze(g).matrix("signless").tolist() == [[1.0, 1.0], [1.0, 1.0]]


def test_normalized_single_edge_any_weight():
    g = build_graph(2, [(0, 1, 3.7)])
    assert np.allclose(analyze(g).matrix("normalized"), [[1.0, -1.0], [-1.0, 1.0]])


def test_normalized_bipartite_offdiagonal(f1):
    lhat = analyze(f1).matrix("normalized")
    assert lhat[0, 3] == pytest.approx(-1.0 / np.sqrt(6.0))
    assert np.allclose(np.diag(lhat), 1.0)


def test_normalized_rejects_isolated():
    g = build_graph(3, [(0, 1, 1.0)])
    with pytest.raises(IsolatedVertexError):
        analyze(g).matrix("normalized")


def test_normalized_is_similarity_transform(f3):
    d = strengths(f3)
    scaled = analyze(f3).matrix("laplacian") / np.sqrt(np.outer(d, d))
    assert np.abs(analyze(f3).matrix("normalized") - scaled).max() <= 1e-12


def test_components_connected(f1):
    assert connected_components(f1) == [frozenset(range(5))]


def test_components_two_edges():
    g = build_graph(4, [(0, 1, 1.0), (2, 3, 1.0)])
    assert connected_components(g) == [frozenset({0, 1}), frozenset({2, 3})]


def test_components_singleton():
    assert connected_components(build_graph(1, [])) == [frozenset({0})]


def test_induced_subgraph_keeps_weights(two_triangles):
    sub, old = induced_subgraph(two_triangles, [3, 4, 5])
    assert old == [3, 4, 5]
    assert sub.edges == ((0, 1, 1.0), (0, 2, 1.0), (1, 2, 1.0))


@pytest.mark.parametrize("vertices, bad", [([-1, 0, 1], -1), ([0, 3, 1], 3), ([5, 2, -2], -2)])
def test_induced_subgraph_rejects_out_of_range_vertices(vertices, bad):
    g = build_graph(3, [(0, 1, 1.0), (1, 2, 2.0)], mass=[1, 1, 5])
    with pytest.raises(IndexOutOfRangeError, match=f"vertex index {bad} out of range for 3 vertices"):
        induced_subgraph(g, vertices)


def _neighbor_lists_reference(g):
    """Every vertex's neighbors by a two-key sort on (vertex, neighbor)."""
    src, dst = np.concatenate((g.u, g.v)), np.concatenate((g.v, g.u))
    bounds = np.zeros(g.n + 1, dtype=np.intp)
    np.cumsum(np.bincount(src, minlength=g.n), out=bounds[1:])
    order = np.lexsort((dst, src))
    return bounds, dst[order], np.concatenate((g.w, g.w))[order]


@pytest.mark.parametrize("seed", range(6))
def test_neighbor_lists_are_sorted_by_vertex_then_neighbor(seed):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(1, 40))
    draws = 3 * n if n > 1 else 0
    pairs = {tuple(sorted(map(int, rng.choice(n, 2, replace=False)))) for _ in range(draws)}
    # each edge given as (larger, smaller), in no order
    g = build_graph(n, [(v, u, float(rng.uniform(0.5, 1.5))) for u, v in pairs])
    for got, expected in zip(neighbor_lists(g), _neighbor_lists_reference(g)):
        assert got.dtype == expected.dtype and np.array_equal(got, expected)
