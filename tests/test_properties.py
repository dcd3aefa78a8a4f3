"""Property-based invariants over random graphs and matrices."""

import importlib.util
import re
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from starlap import (
    build_graph,
    compare_signs,
    load_graph,
    connected_components,
    detect_stars,
    group_by_weight,
    group_multiplicities,
    kway,
    parse_graph_file,
    plant_ldependent_graph,
    plant_star_graph,
    reduce_all,
    strengths,
    sym_eigen,
    verify_graph,
    verify_ldependent,
    verify_reduction,
    write_graph_file,
)
from starlap.eigen import DEFAULT_TOL
from starlap import partition
from starlap.eigen import Check
from starlap.errors import ConditionViolatedError, NoCommonStrengthError, NonFiniteSpectrumError
from starlap.stars import (
    WEIGHT_TOL,
    LDependentPartition,
    analyze,
    predict_multiplicities,
    unreducible_reason,
    verify_star_predictions,
)

from conftest import interlacing
from reference import adjacency, multiplicity_at
from test_partition import _kway_reference, assert_embedding_matches_a_full_eigh


def _load_sweep():
    spec = importlib.util.spec_from_file_location(
        "random_sweep", Path(__file__).resolve().parents[1] / "scripts" / "random_sweep.py"
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


# the near-tie rule and the claims key are kept once, in the sweep script
_SWEEP = _load_sweep()
has_near_ties, dependent_row_claims = _SWEEP.has_near_ties, _SWEEP.dependent_row_claims


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
    a, lap, q = adjacency(g), analyze(g).matrix("laplacian"), analyze(g).matrix("signless")
    assert np.array_equal(lap, np.diag(strengths(g)) - a)
    assert np.array_equal(q - lap, 2 * a)
    assert np.abs(lap.sum(axis=1)).max() <= 1e-12 * max(1.0, strengths(g).max())


@given(graphs())
@settings(max_examples=40, deadline=None)
def test_normalized_is_similarity(g):
    s = strengths(g)
    if np.any(s <= 0):
        return
    scaled = analyze(g).matrix("laplacian") / np.sqrt(np.outer(s, s))
    assert np.abs(analyze(g).matrix("normalized") - scaled).max() <= 1e-12


@given(graphs())
@settings(max_examples=40, deadline=None)
def test_zero_multiplicity_counts_components(g):
    spec = sym_eigen(analyze(g).matrix("laplacian"))
    table = group_multiplicities(spec.values, 1e-8)
    assert multiplicity_at(table, 0.0) == len(connected_components(g))


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
    adj = [set() for _ in range(g.n)]
    for u, v, _ in g.edges:
        adj[u].add(v)
        adj[v].add(u)
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
    lap_table = group_multiplicities(sym_eigen(analyze(g).matrix("laplacian")).values, 1e-8)
    for m, k, w in specs:
        assert multiplicity_at(lap_table, w) >= m - 1


def _planted_stars(seed):
    rng = np.random.default_rng(seed)
    specs = [
        (int(rng.integers(2, 5)), int(rng.integers(1, 4)), float(rng.choice([0.5, 1.0, 2.0])))
        for _ in range(int(rng.integers(1, 4)))
    ]
    return plant_star_graph(seed, sum(m + k for m, k, _ in specs) + int(rng.integers(0, 8)), specs)


@given(
    st.one_of(graphs(), st.integers(min_value=0, max_value=10_000).map(_planted_stars)),
    st.data(),
)
@settings(max_examples=80, deadline=None)
def test_a_multiplicity_checks_verdict_is_the_grouped_count(g, data):
    # the residual rule (the l-th nearest eigenvalue within tol of w) gives
    # the verdict of the count of the group nearest w, grouped at tol; the
    # claims are the graph's own and some at, or next to, a computed value
    ctx = analyze(g)
    claims = list(predict_multiplicities(ctx))
    values = ctx.values("laplacian")
    for _ in range(data.draw(st.integers(min_value=0, max_value=4))):
        at = values[data.draw(st.integers(min_value=0, max_value=g.n - 1))]
        shift = data.draw(st.sampled_from([0.0, 1e-12, 1e-3]))
        claims.append((float(at + shift), data.draw(st.integers(min_value=1, max_value=g.n + 1))))
    families = ["laplacian", "signless"] + ([] if ctx.isolated else ["normalized"])
    for family in families:
        table = group_multiplicities(ctx.values(family), DEFAULT_TOL)
        checks = ctx.check_claims(family, claims, DEFAULT_TOL)
        assert len(checks) == len(claims)
        for (w, l), check in zip(claims, checks):
            assert check.passed == (multiplicity_at(table, w) >= l), (family, w, l, check)


@given(st.integers(min_value=0, max_value=10_000))
@settings(max_examples=20, deadline=None)
def test_planted_reduction_invariants(seed):
    rng = np.random.default_rng(seed)
    m, k = int(rng.integers(2, 5)), int(rng.integers(1, 3))
    g = plant_star_graph(seed=seed, n=m + k + int(rng.integers(0, 6)), star_specs=[(m, k, 2.0)])
    r = reduce_all(g, "collapse")
    assert all(c.passed for c in verify_reduction(g, r))
    assert interlacing(g, r).passed


# --- the detectors the dependent-row partitions replaced ---------------------


def quadratic_proportional_ldependent(g, tol=WEIGHT_TOL):
    """The proportional-row detector as first written: every row against every group."""
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


def dependence_split(g, vertices, tol_rel=WEIGHT_TOL):
    """Greedy by index: a vertex joins v1 while its row raises the rank, else v3."""
    verts = sorted(vertices)
    a = adjacency(g)
    cols = sorted(set().union(*(set(np.nonzero(a[v])[0].tolist()) for v in verts)))
    v1, v3, stacked, rank = [], [], [], 0
    for v in verts:
        candidate = stacked + [a[v, cols]]
        new_rank = np.linalg.matrix_rank(np.array(candidate), tol=tol_rel)
        if new_rank > rank:
            v1.append(v)
            stacked, rank = candidate, new_rank
        else:
            v3.append(v)
    return tuple(v1), tuple(v3)


def certify_structural_stars(g):
    """The star classes of unequal weight vectors, split and certified."""
    certified = []
    for s in detect_stars(g):
        if s.weight_uniform is not None:
            continue
        v1, v3 = dependence_split(g, s.v1)
        if v3:
            try:
                certified.append(verify_ldependent(g, v1, s.v2, v3))
            except (ConditionViolatedError, NoCommonStrengthError):
                pass
    return certified


def star_bounds(g):
    """The Laplacian bound at each weight from the weight-uniform stars."""
    return {c.weight: c.degree for c in group_by_weight(detect_stars(g))}


def dependent_row_bounds(g):
    """The Laplacian bound at each strength from disjoint certified and proportional rows."""
    partitions, used = [], set()
    for p in certify_structural_stars(g) + quadratic_proportional_ldependent(g):
        if not set(p.v3) & used:
            partitions.append(p)
            used.update(p.v3)
    by_w = {}
    for p in partitions:
        key = next((w for w in by_w if abs(w - p.wtilde) <= WEIGHT_TOL * max(1.0, w)), p.wtilde)
        by_w[key] = by_w.get(key, 0) + p.l
    return by_w


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


def assert_dependent_rows_cover_the_replaced_detectors(g):
    """Each claim rests on certificates, and covers the replaced detectors' claims.

    The bounds are compared on graphs without near ties of strength.
    """
    if not has_near_ties(g):
        claims = predict_multiplicities(g)
        for bounds in (star_bounds(g), dependent_row_bounds(g)):
            for w, bound in bounds.items():
                near = [b for v, b in claims if abs(v - w) <= DEFAULT_TOL * max(1.0, w)]
                assert near and max(near) >= bound, (w, bound, claims)
    lap = analyze(g).matrix("laplacian")
    for p in analyze(g).dependent_rows:
        for i, coeffs in p.coefficients.items():
            x = np.zeros(g.n)
            x[i] = 1.0
            x[list(coeffs)] -= list(coeffs.values())
            assert np.abs(lap @ x - p.wtilde * x).max() <= DEFAULT_TOL * max(1.0, p.wtilde)


@given(twin_graphs())
@settings(max_examples=150, deadline=None)
def test_dependent_rows_cover_the_replaced_detectors_on_twin_graphs(g):
    assert_dependent_rows_cover_the_replaced_detectors(g)


@given(graphs(max_n=9))
@settings(max_examples=100, deadline=None)
def test_dependent_rows_cover_the_replaced_detectors_on_random_graphs(g):
    assert_dependent_rows_cover_the_replaced_detectors(g)


@st.composite
def planted_graphs(draw):
    """A planted star graph or a planted dependent-row graph, drawn by seed."""
    seed = draw(st.integers(min_value=0, max_value=10_000))
    rng = np.random.default_rng(seed)
    if draw(st.booleans()):
        specs = [
            (int(rng.integers(2, 5)), int(rng.integers(1, 4)), float(rng.choice([0.5, 1.0, 2.0])))
            for _ in range(int(rng.integers(1, 4)))
        ]
        n = sum(m + k for m, k, _ in specs) + int(rng.integers(0, 8))
        return plant_star_graph(seed=seed, n=n, star_specs=specs)
    sizes = (int(rng.integers(1, 4)), int(rng.integers(1, 5)), int(rng.integers(0, 5)))
    return plant_ldependent_graph(seed, sizes, float(rng.choice([4.0, 6.0])))


@given(st.one_of(planted_graphs(), twin_graphs()), st.randoms(use_true_random=False))
@settings(max_examples=150, deadline=None)
def test_dependent_rows_do_not_change_under_relabelling(g, rnd):
    # near ties are the documented limit: rows there can be dependent only
    # within tolerance, and the greedy basis reads the vertex order
    if has_near_ties(g):
        return
    perm = list(range(g.n))
    rnd.shuffle(perm)
    relabelled = build_graph(g.n, [(perm[u], perm[v], w) for u, v, w in g.edges])
    assert dependent_row_claims(relabelled) == dependent_row_claims(g)


@st.composite
def star_graphs_and_cluster_counts(draw):
    """A planted star graph, whose twin rows tie in the embedding, and a k for kway."""
    seed = draw(st.integers(min_value=0, max_value=10_000))
    rng = np.random.default_rng(seed)
    specs = [
        (int(rng.integers(2, 6)), int(rng.integers(1, 4)), float(rng.choice([0.5, 1.0, 2.0])))
        for _ in range(int(rng.integers(1, 5)))
    ]
    n = sum(m + k for m, k, _ in specs) + int(rng.integers(0, 12))
    g = plant_star_graph(seed, n, specs, draw(st.sampled_from([0.05, 0.3])))
    return g, draw(st.one_of(st.just("auto"), st.integers(min_value=2, max_value=g.n)))


@given(star_graphs_and_cluster_counts())
@settings(max_examples=100, deadline=None)
def test_kway_matches_the_direct_reference_on_planted_stars(case):
    g, k = case
    assert kway(g, k) == _kway_reference(g, k, partition._embedding)


@given(star_graphs_and_cluster_counts())
@settings(max_examples=100, deadline=None)
def test_the_embedding_matches_a_full_eigh_on_planted_stars(case):
    assert_embedding_matches_a_full_eigh(*case)


def _scaled(g, factor):
    return build_graph(g.n, [(u, v, w * factor) for u, v, w in g.edges])


def _verdicts(g):
    """The verify check names, without their (w=...) values, with their verdicts."""
    result = verify_graph(g, 1e-8)
    checks = [(re.sub(r"\(w=[^)]*\)", "", c.name), c.passed) for c in result.checks]
    return checks, [(p.v1, p.v2, p.v3) for p in result.dependent_rows]


@pytest.mark.parametrize(
    "kind, seed", [("stars", s) for s in range(10)] + [("ldep", s) for s in range(5)]
)
def test_verdicts_do_not_change_when_every_weight_is_scaled(kind, seed):
    if kind == "stars":
        g = plant_star_graph(seed, 40, [(3, 2, 2.0), (4, 3, 1.5)], 0.3)
    else:
        g = plant_ldependent_graph(seed, (4, 12, 5), 6.0)
    expected = _verdicts(g)
    assert any(name.startswith("laplacian-multiplicity") for name, _ in expected[0])
    for k in range(-9, 10):
        assert _verdicts(_scaled(g, 10.0**k)) == expected, f"weights x 1e{k}"


def test_overflowing_triangle_has_no_partition_and_fails_verify():
    # every strength is 2e308, which overflows to inf
    g = build_graph(3, [(0, 1, 1e308), (1, 2, 1e308), (0, 2, 1e308)])
    with np.errstate(over="ignore", invalid="ignore"):
        assert analyze(g).dependent_rows == ()
        assert not verify_graph(g).passed


def test_edgeless_graph_passes_verify_with_zero_lift_residuals():
    result = verify_graph(build_graph(3, []))
    assert result.passed
    lifts = [c.residual for c in result.checks if "lift" in c.name]
    assert lifts == [0.0, 0.0]


# --- verify is the sum of its parts ------------------------------------------


def _request(g, q):
    """The reduction plan and request check verify_graph makes for q, on a fresh analysis."""
    if q is None:
        return "collapse", []
    detected = analyze(g).stars
    qs = [0] * len(detected)
    name = f"reduction-requested(q={q})"
    if not detected:
        return qs, [Check(name, 0.0, 0.0, "no stars to reduce; identity reduction")]
    v1 = list(detected[0].v1)
    if reason := unreducible_reason(g, detected[0]):
        return qs, [Check(name, 1.0, 0.0, f"first star v1={v1} has {reason} and cannot be reduced")]
    qs[0] = min(q, detected[0].m - 1)
    return qs, [Check(name, 0.0, 0.0, f"reducing star v1={v1} by q={qs[0]}")]


def _sign_check(g, qs, tol):
    ctx = analyze(g)
    try:
        signs = compare_signs(ctx, reduce_all(ctx, qs), tol)
    except NonFiniteSpectrumError as exc:
        return Check("sign-agreement", float("nan"), 0.0, str(exc))
    if signs.degenerate:
        return Check("sign-agreement", 0.0, 0.0, f"inconclusive: {signs.reason}")
    return Check("sign-agreement", 1.0 - signs.agreement_fraction, 0.0, "")


def _reduction_checks(g, qs, tol):
    ctx = analyze(g)
    checks = verify_reduction(ctx, reduce_all(ctx, qs), tol)
    return [Check(f"reduction-{c.name}", c.residual, c.tol, c.note) for c in checks]


def _bits(checks):
    return [
        (c.name, np.float64(c.residual).tobytes(), np.float64(c.tol).tobytes(), c.note)
        for c in checks
    ]


def assert_verify_is_the_sum_of_its_parts(g, q, tol=DEFAULT_TOL):
    # each part on its own fresh analysis, so no part reads what another cached
    qs, request = _request(g, q)
    parts = [
        *verify_star_predictions(analyze(g), tol)[0],
        *request,
        *_reduction_checks(g, qs, tol),
        _sign_check(g, qs, tol),
    ]
    assert _bits(verify_graph(g, tol, q).checks) == _bits(parts)


@given(st.integers(min_value=0, max_value=10_000), st.sampled_from([None, 1]))
@settings(max_examples=40, deadline=None)
def test_verify_is_the_sum_of_its_parts_on_planted_stars(seed, q):
    assert_verify_is_the_sum_of_its_parts(_planted_stars(seed), q)


_GOLDEN = Path(__file__).resolve().parent / "golden"


@pytest.mark.parametrize(
    "name, g",
    [(f"ldep-{seed}", plant_ldependent_graph(seed, (3, 8, 4), 6.0)) for seed in range(4)]
    + [
        ("written_reduction", load_graph(str(_GOLDEN / "written_reduction.graph"))),
        ("two-components", build_graph(6, [(0, 1, 1.0), (1, 2, 2.0), (3, 4, 1.0), (4, 5, 1.0)])),
        ("n1", build_graph(1, [])),
        ("overflow", build_graph(3, [(0, 1, 1e308), (1, 2, 1e308), (0, 2, 1e308)])),
    ],
    ids=lambda x: x if isinstance(x, str) else "",
)
@pytest.mark.parametrize("q", [None, 1])
def test_verify_is_the_sum_of_its_parts(name, g, q):
    if name.startswith("ldep"):
        assert reduce_all(g, "collapse").reduced is g   # an identity reduction
    with np.errstate(over="ignore", invalid="ignore"):
        assert_verify_is_the_sum_of_its_parts(g, q)
