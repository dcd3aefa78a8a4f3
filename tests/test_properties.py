"""Property-based invariants over random graphs and matrices."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from starlap import (
    adjacency,
    build_graph,
    connected_components,
    detect_proportional_ldependent,
    detect_stars,
    group_multiplicities,
    interlacing_check,
    laplacian,
    multiplicity_at,
    normalized_laplacian,
    parse_graph_file,
    plant_star_graph,
    reduce_all,
    signless_laplacian,
    strengths,
    sym_eigen,
    verify_adjacency_reduction,
    verify_laplacian_reduction,
    write_graph_file,
)
from starlap.stars import WEIGHT_TOL, LDependentPartition


@st.composite
def graphs(draw, max_n=10, connected=False):
    n = draw(st.integers(min_value=1, max_value=max_n))
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    chosen = draw(st.lists(st.sampled_from(pairs), unique=True, max_size=len(pairs))) if pairs else []
    # round keeps weights within the file format's 12-significant-digit contract
    weights = draw(
        st.lists(
            st.floats(min_value=0.1, max_value=10.0, allow_nan=False).map(
                lambda x: round(x, 6)
            ),
            min_size=len(chosen),
            max_size=len(chosen),
        )
    )
    edges = [(u, v, w) for (u, v), w in zip(chosen, weights)]
    if connected:
        present = {frozenset(p) for p in chosen}
        for u in range(1, n):
            if frozenset((u - 1, u)) not in present:
                edges.append((u - 1, u, 1.0))
    return build_graph(n, edges)


@given(graphs())
@settings(max_examples=60, deadline=None)
def test_matrix_identities(g):
    a, lap, q = adjacency(g), laplacian(g), signless_laplacian(g)
    assert np.array_equal(lap, np.diag(strengths(g)) - a)
    assert np.array_equal(q - lap, 2 * a)
    assert np.abs(lap.sum(axis=1)).max() <= 1e-12 * max(1.0, strengths(g).max())


@given(graphs())
@settings(max_examples=40, deadline=None)
def test_normalized_is_similarity(g):
    s = strengths(g)
    if np.any(s <= 0):
        return
    scaled = laplacian(g) / np.sqrt(np.outer(s, s))
    assert np.abs(normalized_laplacian(g) - scaled).max() <= 1e-12


@given(graphs())
@settings(max_examples=40, deadline=None)
def test_zero_multiplicity_counts_components(g):
    spec = sym_eigen(laplacian(g))
    table = group_multiplicities(spec.values, 1e-8)
    assert multiplicity_at(table, 0.0, 1e-8) == len(connected_components(g))


@given(graphs())
@settings(max_examples=40, deadline=None)
def test_components_partition_vertices(g):
    comps = connected_components(g)
    union = set()
    for c in comps:
        assert not (c & union)
        union |= c
    assert union == set(range(g.n))


@given(graphs(max_n=8))
@settings(max_examples=40, deadline=None)
def test_round_trip(g):
    assert parse_graph_file(write_graph_file(g)) == g


@given(graphs(max_n=8), st.randoms(use_true_random=False))
@settings(max_examples=30, deadline=None)
def test_detection_relabeling_invariance(g, rnd):
    perm = list(range(g.n))
    rnd.shuffle(perm)
    relabeled = build_graph(g.n, [(perm[u], perm[v], w) for u, v, w in g.edges])
    expected = {tuple(sorted(perm[v] for v in s.v1)) for s in detect_stars(g)}
    assert {s.v1 for s in detect_stars(relabeled)} == expected


@given(graphs(max_n=8))
@settings(max_examples=30, deadline=None)
def test_detected_v1_maximal_and_disjoint(g):
    found = detect_stars(g)
    adj = [g.neighbors(v) for v in range(g.n)]
    seen = set()
    for s in found:
        assert not (set(s.v1) & seen)
        seen.update(s.v1)
        nbhd = set(s.v2)
        for v in range(g.n):
            assert (set(adj[v]) == nbhd) == (v in s.v1) or not adj[v]


@given(graphs(max_n=9, connected=True))
@settings(max_examples=40, deadline=None)
def test_bipartition_clusters_nonempty(g):
    from starlap import sign_bipartition

    if g.n < 2:
        return
    part = sign_bipartition(g)
    counts = {lbl: part.labels.count(lbl) for lbl in set(part.labels)}
    assert sorted(counts) == list(range(len(counts)))
    assert all(c > 0 for c in counts.values())
    assert len(counts) == 2


@given(st.integers(min_value=0, max_value=10_000))
@settings(max_examples=25, deadline=None)
def test_planted_star_invariants(seed):
    rng = np.random.default_rng(seed)
    specs = [
        (int(rng.integers(2, 4)), int(rng.integers(1, 3)), float(rng.choice([0.5, 1.0, 2.0])))
        for _ in range(int(rng.integers(1, 3)))
    ]
    n = sum(m + k for m, k, _ in specs) + int(rng.integers(0, 5))
    g = plant_star_graph(seed=seed, n=n, star_specs=specs)
    lap_table = group_multiplicities(sym_eigen(laplacian(g)).values, 1e-8)
    for m, k, w in specs:
        assert multiplicity_at(lap_table, w, 1e-8) >= m - 1


@given(st.integers(min_value=0, max_value=10_000))
@settings(max_examples=20, deadline=None)
def test_planted_reduction_invariants(seed):
    rng = np.random.default_rng(seed)
    m, k = int(rng.integers(2, 5)), int(rng.integers(1, 3))
    g = plant_star_graph(seed=seed, n=m + k + int(rng.integers(0, 6)), star_specs=[(m, k, 2.0)])
    r = reduce_all(g, "collapse")
    assert verify_adjacency_reduction(g, r).passed
    assert verify_laplacian_reduction(g, r).passed
    assert interlacing_check(g, r)


def quadratic_proportional_ldependent(g, tol=WEIGHT_TOL):
    """The proportional-row detector as first written: every row against every group.

    Kept as the reference the neighborhood-bucketed detector must reproduce.
    """
    a = adjacency(g)
    s = strengths(g)
    groups, reps = [], []
    for v in range(g.n):
        if s[v] <= 0:
            continue
        direction = a[v] / s[v]
        for gi, r in enumerate(reps):
            if np.abs(direction - a[r] / s[r]).max() <= tol and abs(s[v] - s[r]) <= tol * max(
                1.0, s[r]
            ):
                groups[gi].append(v)
                break
        else:
            groups.append([v])
            reps.append(v)
    out = []
    for members in groups:
        if len(members) < 2:
            continue
        rep, v3 = members[0], tuple(members[1:])
        out.append(
            LDependentPartition(
                v1=(rep,),
                v2=tuple(sorted(np.nonzero(a[rep])[0].tolist())),
                v3=v3,
                coefficients={i: {rep: 1.0} for i in v3},
                wtilde=float(s[rep]),
                coefficients_nonnegative=True,
            )
        )
    return out


_weights = st.floats(min_value=0.5, max_value=1.5)
# relative entry perturbations: inside the equality tolerance, straddling it,
# and clearly past it
_JITTER = {"within": 4e-10, "boundary": 3e-9, "beyond": 1e-6}


@st.composite
def twin_row(draw, base):
    kind = draw(st.sampled_from(["exact", "scaled", *_JITTER]))
    if kind == "exact":
        return list(base)
    if kind == "scaled":
        # same direction, strength equal within tolerance or not
        factor = draw(st.sampled_from([1 + 5e-10, 1 + 5e-9, 2.0]))
        return [w * factor for w in base]
    size = _JITTER[kind]
    return [w * (1 + draw(st.floats(min_value=-size, max_value=size))) for w in base]


@st.composite
def twin_graphs(draw):
    """Planted twin classes with exact, near-equal and scaled rows, plus a background."""
    edges, hubs, cursor = [], [], 0
    for _ in range(draw(st.integers(min_value=1, max_value=3))):
        m, k = draw(st.integers(min_value=2, max_value=5)), draw(st.integers(min_value=1, max_value=4))
        base = draw(st.lists(_weights, min_size=k, max_size=k))
        group_hubs = list(range(cursor + m, cursor + m + k))
        for t in range(cursor, cursor + m):
            edges.extend((t, h, w) for h, w in zip(group_hubs, draw(twin_row(base))))
        hubs.extend(group_hubs)
        cursor += m + k
    n = cursor + draw(st.integers(min_value=0, max_value=4))
    others = hubs + list(range(cursor, n))
    pairs = [(u, v) for i, u in enumerate(others) for v in others[i + 1 :]]
    chosen = draw(st.lists(st.sampled_from(pairs), unique=True, max_size=8)) if pairs else []
    edges.extend((u, v, draw(_weights)) for u, v in chosen)
    return build_graph(n, edges)


@pytest.mark.filterwarnings("ignore:star weight vectors differ")
@given(twin_graphs())
@settings(max_examples=150, deadline=None)
def test_bucketed_proportional_detector_matches_quadratic_scan(g):
    assert detect_proportional_ldependent(g) == quadratic_proportional_ldependent(g)


@given(graphs(max_n=9))
@settings(max_examples=60, deadline=None)
def test_bucketed_proportional_detector_matches_on_random_graphs(g):
    assert detect_proportional_ldependent(g) == quadratic_proportional_ldependent(g)
