"""Planted graphs against the per-pair loop they were first built with.

The two reference functions below are verbatim copies of the planting code
as it was before the background draws were read in blocks, renamed.  The
block code must draw the same stream and so plant the same graph, bit for
bit, and write the same file bytes.
"""

from typing import Sequence

import numpy as np
import pytest

from starlap import detect_stars, plant_ldependent_graph, plant_star_graph, stars
from starlap.errors import InfeasibleSpecError
from starlap.fileio import write_graph_file
from starlap.graphs import Graph, build_graph


def reference_plant_star_graph(
    seed: int,
    n: int,
    star_specs: Sequence[tuple[int, int, float]],
    background_p: float = 0.3,
) -> Graph:
    """Random graph containing the requested uniform-weight stars.

    Each spec (m, k, w) claims a disjoint block of m + k vertices: m star
    vertices attached to all k hub vertices with a shared weight vector
    summing to w.  Remaining vertices and hubs are wired with a spanning path
    plus random extra edges, never touching star vertices, so every planted
    class keeps its identical-neighborhood property.
    """
    rng = np.random.default_rng(seed)
    total = sum(m + k for m, k, _ in star_specs)
    if total > n:
        raise InfeasibleSpecError(f"star blocks need {total} vertices, only {n} available")
    for m, k, w in star_specs:
        if m < 2 or k < 1 or w <= 0:
            raise InfeasibleSpecError(f"invalid star spec (m={m}, k={k}, w={w})")

    edges: list[tuple[int, int, float]] = []
    cursor = 0
    v1_all: set[int] = set()
    v2_sets: list[set[int]] = []
    for m, k, w in star_specs:
        v1 = list(range(cursor, cursor + m))
        v2 = list(range(cursor + m, cursor + m + k))
        cursor += m + k
        v1_all.update(v1)
        v2_sets.append(set(v2))
        if k == 1:
            weights = [w]
        else:
            raw = rng.uniform(0.5, 1.5, size=k)
            weights = (raw * (w / raw.sum())).tolist()
        for i in v1:
            for j, wj in zip(v2, weights):
                edges.append((i, j, wj))

    background = [v for v in range(n) if v not in v1_all]
    existing = {(min(u, v), max(u, v)) for u, v, _ in edges}
    for a, b in zip(background, background[1:]):
        edges.append((a, b, float(rng.uniform(0.5, 1.5))))
        existing.add((min(a, b), max(a, b)))
    for i in range(len(background)):
        for j in range(i + 2, len(background)):
            u, v = background[i], background[j]
            if rng.random() < background_p and (u, v) not in existing:
                edges.append((u, v, float(rng.uniform(0.5, 1.5))))
                existing.add((u, v))

    # keep planted classes exact: no outside vertex may replicate a hub set
    neighborhoods: dict[int, set[int]] = {v: set() for v in range(n)}
    for u, v, _ in edges:
        neighborhoods[u].add(v)
        neighborhoods[v].add(u)
    for u in background:
        for v2 in v2_sets:
            if neighborhoods[u] == v2:
                targets = [x for x in background if x != u and x not in v2 and x not in neighborhoods[u]]
                if targets:
                    edges.append((u, targets[0], float(rng.uniform(0.5, 1.5))))
                    neighborhoods[u].add(targets[0])
                    neighborhoods[targets[0]].add(u)
    return build_graph(n, edges)


def reference_plant_ldependent_graph(
    seed: int, sizes: tuple[int, int, int], wtilde: float
) -> Graph:
    """Random graph with a planted dependent-row partition of common strength.

    sizes = (|v1|, |v2|, l); vertices are laid out as v1, then v2, then v3.
    v1 rows are random positive weights over all of v2 rescaled to the common
    strength; each v3 row is a random convex combination of the v1 rows, so
    its strength matches by construction.
    """
    m1, k, l = sizes
    if m1 < 1 or k < 1 or l < 0 or wtilde <= 0:
        raise InfeasibleSpecError(f"invalid dependent-row spec (sizes={sizes}, w={wtilde})")
    rng = np.random.default_rng(seed)
    n = m1 + k + l
    v1 = list(range(m1))
    v2 = list(range(m1, m1 + k))
    v3 = list(range(m1 + k, n))
    rows = rng.uniform(0.5, 1.5, size=(m1, k))
    rows *= wtilde / rows.sum(axis=1, keepdims=True)
    edges = [(i, j, float(rows[a, b])) for a, i in enumerate(v1) for b, j in enumerate(v2)]
    for i in v3:
        coeffs = rng.uniform(0.2, 1.0, size=m1)
        coeffs /= coeffs.sum()
        combo = coeffs @ rows
        edges.extend((i, j, float(combo[b])) for b, j in enumerate(v2))
    return build_graph(n, edges)


def _star_specs():
    """(seed, n, star_specs, background_p): the edge cases, then seeded random specs.

    The background is every vertex outside the stars' v1 sets: the hubs and
    the free vertices.
    """
    specs = [
        (1, 0, [], 0.3),                          # no background vertex
        (2, 1, [], 1.0),                          # one
        (3, 3, [(2, 1, 1.0)], 1.0),               # one: the hub
        (4, 2, [], 1.0),                          # two
        (5, 4, [(2, 1, 1.0)], 0.05),              # two: the hub and a free vertex
        (6, 4, [(2, 2, 1.0)], 0.0),               # two hubs
        (7, 5, [(3, 2, 2.0)], 1.0),
        (8, 7, [(2, 1, 1.0), (2, 1, 2.0)], 0.0),  # the fix-up rewires vertex 6
    ]
    rng = np.random.default_rng(20261019)
    for i in range(232):
        stars_ = [
            (int(rng.integers(2, 6)), int(rng.integers(1, 4)), float(rng.choice([0.5, 1.0, 2.0, 3.0])))
            for _ in range(int(rng.integers(0, 4)))
        ]
        n = sum(m + k for m, k, _ in stars_) + int(rng.integers(0, 25))
        specs.append((1000 + i, n, stars_, (0.0, 0.05, 0.3, 1.0)[i % 4]))
    return specs


SPECS = _star_specs()


def _assert_replayed(seed, n, star_specs, p):
    """The block code plants the per-pair loop's graph: the same columns, bit for bit, and file bytes."""
    new = plant_star_graph(seed, n, star_specs, background_p=p)
    old = reference_plant_star_graph(seed, n, star_specs, background_p=p)
    assert new == old, (seed, n, star_specs, p)
    assert write_graph_file(new) == write_graph_file(old)


@pytest.mark.parametrize("block", [None, 1, 3, 8])
def test_star_graphs_replay_the_per_pair_loop(monkeypatch, block):
    # a small block puts many round boundaries inside one small background
    if block is not None:
        monkeypatch.setattr(stars, "_PAIR_BLOCK", block)
    assert len(SPECS) >= 200
    for spec in SPECS:
        _assert_replayed(*spec)


def test_infeasible_star_specs_raise_as_before():
    for spec in [(1, 4, [(3, 3, 1.0)]), (1, 9, [(1, 2, 1.0)]), (1, 9, [(2, 0, 1.0)]), (1, 9, [(2, 1, 0.0)])]:
        for plant in (plant_star_graph, reference_plant_star_graph):
            with pytest.raises(InfeasibleSpecError):
                plant(*spec)


class _Recorder:
    """A generator that remembers how many doubles each read took."""

    def __init__(self, rng):
        self.rng = rng
        self.sizes = []

    def random(self, size):
        self.sizes.append(size)
        return self.rng.random(size)


def _accepted_draws(state, count, p):
    """Where, in the background pairs' stream, the per-pair loop reads an accepted pair's draw."""
    rng = np.random.Generator(np.random.PCG64())
    rng.bit_generator.state = state
    at, hits = 0, []
    for _ in range(count):
        if rng.random() < p:
            hits.append(at)
            rng.random()
            at += 1
        at += 1
    return hits


def test_a_large_background_crosses_block_boundaries(monkeypatch):
    # 726 background vertices have 262,450 candidate pairs, four full blocks
    # and more; at this seed the first block ends right after an accepted
    # pair's draw, so its weight is the next round's first draw
    real = stars._background_pairs
    rounds = []

    def recording(rng, count, p):
        state = rng.bit_generator.state
        recorder = _Recorder(rng)
        out = real(recorder, count, p)
        rounds.append((count, recorder.sizes, _accepted_draws(state, count, p)))
        return out

    monkeypatch.setattr(stars, "_background_pairs", recording)
    _assert_replayed(16, 735, [(4, 3, 2.0), (3, 2, 1.0), (2, 1, 0.5)], 0.05)
    [(count, sizes, hits)] = rounds
    assert count > 3 * stars._PAIR_BLOCK
    ends = np.cumsum(sizes)[:-1]
    assert np.isin(ends - 1, hits).any()


def test_background_pairs_read_exactly_the_loops_draws(monkeypatch):
    monkeypatch.setattr(stars, "_PAIR_BLOCK", 5)
    for seed, count, p in [(1, 0, 0.5), (2, 1, 1.0), (3, 40, 1.0), (4, 40, 0.0), (5, 300, 0.3), (6, 301, 0.9)]:
        rng = np.random.default_rng(seed)
        picked, weights = stars._background_pairs(rng, count, p)
        ref = np.random.default_rng(seed)
        ref_picked, ref_weights = [], []
        for t in range(count):
            if ref.random() < p:
                ref_picked.append(t)
                ref_weights.append(float(ref.uniform(0.5, 1.5)))
        assert picked.tolist() == ref_picked
        assert weights.tolist() == ref_weights
        assert rng.random() == ref.random()   # the next draw is the same one


@pytest.mark.parametrize("sizes", [(1, 1, 0), (3, 4, 0), (1, 5, 3), (4, 30, 10), (6, 2, 7), (25, 40, 20)])
def test_ldependent_graphs_replay_the_reference(sizes):
    for seed in range(8):
        new = plant_ldependent_graph(seed, sizes, 6.0)
        old = reference_plant_ldependent_graph(seed, sizes, 6.0)
        assert new == old
        assert write_graph_file(new) == write_graph_file(old)


@pytest.mark.xfail(
    strict=True,
    reason="background vertex 3 has only the hub 2 as neighbour and no vertex to be rewired to",
)
def test_a_lone_background_vertex_can_join_a_planted_class():
    g = plant_star_graph(441332, 4, [(2, 1, 1.0)], background_p=0.1)
    assert [s.v1 for s in detect_stars(g)] == [(0, 1)]


def test_planted_classes_are_exact_when_the_fix_up_has_a_target():
    # every star leaves at least two background vertices besides its hubs
    rng = np.random.default_rng(441)
    specs = [(8, 7, [(2, 1, 1.0), (2, 1, 2.0)], 0.0)]   # vertex 6 copies hub set {5}
    while len(specs) < 300:
        stars_ = [(int(rng.integers(2, 4)), int(rng.integers(1, 4)), 1.0 + j) for j in range(int(rng.integers(1, 4)))]
        n = sum(m + k for m, k, _ in stars_) + int(rng.integers(0, 8))
        if min(n - sum(m for m, _, _ in stars_) - k for _, k, _ in stars_) >= 2:
            specs.append((len(specs), n, stars_, (0.0, 0.1, 0.3, 0.6)[len(specs) % 4]))
    for seed, n, star_specs, p in specs:
        g = plant_star_graph(seed, n, star_specs, background_p=p)
        found = {s.v1[0]: (s.v1, s.v2) for s in detect_stars(g)}
        cursor = 0
        for m, k, _ in star_specs:
            planted = (tuple(range(cursor, cursor + m)), tuple(range(cursor + m, cursor + m + k)))
            assert found.get(cursor) == planted, (seed, n, star_specs, p)
            cursor += m + k
    fixed = plant_star_graph(8, 7, [(2, 1, 1.0), (2, 1, 2.0)], background_p=0.0)
    assert [(u, v) for u, v, _ in fixed.edges if 6 in (u, v)] == [(2, 6), (5, 6)]
