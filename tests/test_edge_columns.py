"""The array-backed graph layer against the per-edge loops it replaced.

Each reference below is the loop as it was before the graph kept its edges
as numpy columns.  The array code must give equal graphs and bit-identical
vectors, or raise the same exception type with the same message.
"""

import dataclasses
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from starlap import (
    adjacency,
    build_graph,
    connected_components,
    detect_proportional_ldependent,
    detect_stars,
    graph_summary,
    induced_subgraph,
    parse_graph_file,
    plant_ldependent_graph,
    reduce_all,
    strengths,
    verify_ldependent,
    write_graph_file,
)
from starlap.errors import (
    ConditionViolatedError,
    DuplicateEdgeError,
    IndexOutOfRangeError,
    NonPositiveWeightError,
    ParseError,
    SelfLoopError,
)
from starlap.graphs import Graph
from starlap.stars import WEIGHT_TOL, LDependentPartition, MkStar, _uniform_weight, analyze

from test_properties import graphs, twin_graphs


# --- the references -------------------------------------------------------


def build_graph_reference(n, edges, mass=None):
    if n < 0:
        raise IndexOutOfRangeError(n, 0, context="vertex count")
    normalized = []
    seen = set()
    for e in edges:
        u, v, w = int(e[0]), int(e[1]), float(e[2])
        if u == v:
            raise SelfLoopError(u, w)
        if not (0 <= u < n):
            raise IndexOutOfRangeError(u, n)
        if not (0 <= v < n):
            raise IndexOutOfRangeError(v, n)
        if not (math.isfinite(w) and w > 0.0):
            raise NonPositiveWeightError(u, v, w)
        if u > v:
            u, v = v, u
        if (u, v) in seen:
            raise DuplicateEdgeError(u, v, w)
        seen.add((u, v))
        normalized.append((u, v, w))
    normalized.sort()
    if mass is None:
        mass_t = (1.0,) * n
    else:
        if len(mass) != n:
            raise IndexOutOfRangeError(len(mass), n, context="mass length")
        mass_t = tuple(float(m) for m in mass)
        for v, m in enumerate(mass_t):
            if not (math.isfinite(m) and m > 0.0):
                raise NonPositiveWeightError(v, v, m)
    return Graph(n=n, edges=tuple(normalized), mass=mass_t)


def parse_reference(text):
    n = None
    edges = []
    masses = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        fields = line.split()
        if n is None:
            if fields[0] != "n" or len(fields) != 2:
                raise ParseError(lineno, f"expected header 'n <count>', got {line!r}")
            try:
                n = int(fields[1])
            except ValueError:
                raise ParseError(lineno, f"vertex count is not an integer: {fields[1]!r}")
            if n < 0:
                raise ParseError(lineno, f"vertex count must be nonnegative, got {n}")
            continue
        if fields[0] == "m":
            if len(fields) != 3:
                raise ParseError(lineno, f"expected 'm <vertex> <mass>', got {line!r}")
            try:
                v, mass = int(fields[1]), float(fields[2])
            except ValueError:
                raise ParseError(lineno, f"bad mass line: {line!r}")
            if not (0 <= v < n):
                raise ParseError(lineno, f"mass vertex {v} out of range for n={n}")
            masses[v] = mass
            continue
        if len(fields) != 3:
            raise ParseError(lineno, f"expected 'u v w' edge line, got {line!r}")
        try:
            u, v, w = int(fields[0]), int(fields[1]), float(fields[2])
        except ValueError:
            raise ParseError(lineno, f"bad edge line: {line!r}")
        edges.append((u, v, w))
    if n is None:
        raise ParseError(1, "missing header line 'n <count>'")
    return build_graph_reference(n, edges, mass=[masses.get(v, 1.0) for v in range(n)])


def adjacency_reference(g):
    a = np.zeros((g.n, g.n))
    for u, v, w in g.edges:
        a[u, v] = w
        a[v, u] = w
    return a


def strengths_reference(g):
    s = np.zeros(g.n)
    for u, v, w in g.edges:
        s[u] += w
        s[v] += w
    return s


def components_reference(g):
    adj = [[] for _ in range(g.n)]
    for u, v, _ in g.edges:
        adj[u].append(v)
        adj[v].append(u)
    seen = [False] * g.n
    components = []
    for start in range(g.n):
        if seen[start]:
            continue
        stack = [start]
        seen[start] = True
        comp = []
        while stack:
            x = stack.pop()
            comp.append(x)
            for y in adj[x]:
                if not seen[y]:
                    seen[y] = True
                    stack.append(y)
        components.append(frozenset(comp))
    return components


def induced_subgraph_reference(g, vertices):
    old_of_new = sorted(set(vertices))
    new_of_old = {old: new for new, old in enumerate(old_of_new)}
    edges = [
        (new_of_old[u], new_of_old[v], w)
        for u, v, w in g.edges
        if u in new_of_old and v in new_of_old
    ]
    sub = build_graph_reference(len(old_of_new), edges, mass=[g.mass[o] for o in old_of_new])
    return sub, old_of_new


def detect_stars_reference(g):
    a = adjacency(g)
    by_neighborhood = {}
    adj = [set() for _ in range(g.n)]
    for u, v, _ in g.edges:
        adj[u].add(v)
        adj[v].add(u)
    for v in range(g.n):
        by_neighborhood.setdefault(frozenset(adj[v]), []).append(v)
    stars = []
    for nbhd, members in by_neighborhood.items():
        if len(members) < 2 or not nbhd:
            continue
        v1 = tuple(sorted(members))
        v2 = tuple(sorted(nbhd))
        rows = a[np.ix_(list(v1), list(v2))]
        stars.append(MkStar(v1=v1, v2=v2, weight_uniform=_uniform_weight(rows)))
    stars.sort(key=lambda s: s.v1[0])
    return stars


def proportional_reference(g, tol=WEIGHT_TOL):
    """The bucketed detector gathering direction[reps] at every step."""
    a, s = adjacency(g), strengths(g)
    out = []
    for star in detect_stars(g):
        members = list(star.v1)
        strength = s[members]
        direction = a[np.ix_(members, list(star.v2))] / strength[:, None]
        groups = []
        for i in range(len(members)):
            if groups:
                reps = [grp[0] for grp in groups]
                fits = (np.abs(direction[reps] - direction[i]).max(axis=1) <= tol) & (
                    np.abs(strength[i] - strength[reps]) <= tol * np.maximum(1.0, strength[reps])
                )
                if fits.any():
                    groups[int(np.argmax(fits))].append(i)
                    continue
            groups.append([i])
        for grp in groups:
            if len(grp) < 2:
                continue
            rep = members[grp[0]]
            v3 = tuple(members[i] for i in grp[1:])
            out.append(
                LDependentPartition(
                    v1=(rep,),
                    v2=star.v2,
                    v3=v3,
                    coefficients={i: {rep: 1.0} for i in v3},
                    wtilde=float(s[rep]),
                    coefficients_nonnegative=True,
                )
            )
    out.sort(key=lambda p: p.v1)
    return out


def conditions_reference(g, v1, v2, v3):
    """verify_ldependent's condition 1 and 2 scans, one entry at a time."""
    a = adjacency(g)
    v1_t, v2_t, v3_t = tuple(sorted(v1)), tuple(sorted(v2)), tuple(sorted(v3))
    for i in v1_t:
        if not any(a[i, j] > 0 for j in v2_t):
            raise ConditionViolatedError(1, i, "v1 vertex has no neighbor in v2")
    for j in v2_t:
        if not any(a[i, j] > 0 for i in v1_t):
            raise ConditionViolatedError(1, j, "v2 vertex has no neighbor in v1")
    v2_set = set(v2_t)
    outside = [x for x in range(g.n) if x not in v2_set]
    for i in list(v1_t) + list(v3_t):
        for x in outside:
            if a[i, x] > 0:
                raise ConditionViolatedError(2, i, f"edge to {x} leaves v2")


# --- comparison helpers ---------------------------------------------------


def outcome(f, *args, **kwargs):
    """("ok", result) or (exception type, message, and line number for a ParseError)."""
    try:
        return "ok", f(*args, **kwargs)
    except Exception as exc:   # the references raise whatever the loops raised
        return type(exc), str(exc), getattr(exc, "line_number", None)


def assert_same_graph_or_error(new, old):
    assert new[0] == old[0], (new, old)
    if new[0] != "ok":
        assert new == old
        return
    g, ref = new[1], old[1]
    assert g == ref and hash(g) == hash(ref)
    assert g.edges == ref.edges and g.mass == ref.mass
    # the tuples hold (int, int, float), as the loop made them
    assert [tuple(map(type, e)) for e in g.edges] == [tuple(map(type, e)) for e in ref.edges]
    assert [type(m) for m in g.mass] == [type(m) for m in ref.mass]
    # the columns are the edges, read-only
    assert g.u.tolist() == [e[0] for e in g.edges]
    assert g.v.tolist() == [e[1] for e in g.edges]
    assert g.w.tobytes() == np.array([e[2] for e in g.edges], dtype=float).tobytes()
    assert g.u.dtype == g.v.dtype == np.intp and g.w.dtype == np.float64
    assert not (g.u.flags.writeable or g.v.flags.writeable or g.w.flags.writeable)


# --- build_graph ----------------------------------------------------------

_ids = st.one_of(
    st.integers(-2, 7),
    st.floats(-2.0, 8.0),
    st.sampled_from(
        [math.nan, math.inf, -math.inf, True, 2**53 + 1, -(2**53) - 3, 10**20, 1e300, np.int64(3),
         np.float32(2.5), "1", "x", None]
    ),
)
_weights = st.one_of(
    st.floats(allow_nan=True, allow_infinity=True),
    st.integers(-2, 5),
    st.sampled_from([0.0, -0.0, 1e-320, 10**20, 10**400, np.float32(0.1), "2.5", "w", None]),
)
# mostly numeric edges from a small id range, so duplicates in either order
# and bad edges both come up often
_plain_edge = st.tuples(st.integers(0, 5), st.integers(0, 5), st.floats(0.1, 5.0))
_edge = st.one_of(
    *[_plain_edge] * 6,
    st.tuples(_ids, _ids, _weights),
    st.tuples(st.integers(0, 5), st.integers(0, 5)),
    st.tuples(st.integers(0, 5), st.integers(0, 5), st.floats(0.1, 5.0), st.integers()),
)


@st.composite
def edge_lists(draw):
    n = draw(st.one_of(st.integers(6, 8), st.integers(-1, 5)))
    edges = draw(st.lists(_edge, max_size=12))
    size = max(n, 0)
    mass = draw(
        st.one_of(
            st.none(),
            st.none(),
            st.lists(st.floats(0.5, 2.0), min_size=size, max_size=size),
            st.lists(st.sampled_from([1.0, 2.5, 0.0, -1.0, math.nan, math.inf, 3, "2"]),
                     min_size=size, max_size=size),
            st.lists(st.floats(0.5, 2.0), max_size=9),
        )
    )
    return n, edges, mass


@given(edge_lists())
@settings(max_examples=800, deadline=None)
def test_build_graph_matches_the_loop(case):
    n, edges, mass = case
    with np.errstate(all="ignore"):
        assert_same_graph_or_error(
            outcome(build_graph, n, edges, mass), outcome(build_graph_reference, n, edges, mass)
        )


@given(st.integers(0, 6), st.lists(_plain_edge, max_size=12))
@settings(max_examples=200, deadline=None)
def test_build_graph_reads_any_iterable_and_arrays(n, edges):
    expected = outcome(build_graph_reference, n, edges)
    assert_same_graph_or_error(outcome(build_graph, n, iter(edges)), expected)
    assert_same_graph_or_error(outcome(build_graph, n, tuple(edges)), expected)
    table = np.array(edges, dtype=float).reshape(len(edges), 3)
    assert_same_graph_or_error(outcome(build_graph, n, table), expected)


@pytest.mark.parametrize(
    "edges, error",
    [
        ([(0, 1, 1.0), (1, 0, 2.0), (2, 2, 1.0)], DuplicateEdgeError),   # repeat before a loop
        ([(0, 1, 1.0), (2, 2, 1.0), (1, 0, 2.0)], SelfLoopError),
        ([(0, 1, 1.0), (1, 0, 2.0), (0, 1, 3.0)], DuplicateEdgeError),
        ([(0, 1, 1.0), (1, 2, 1.0), (2, 1, -1.0)], NonPositiveWeightError),
        ([(0.9, 1, 1.0), (0, 1.5, 2.0)], DuplicateEdgeError),              # int() truncates
        ([(0, 1, 1.0), (1, 0, 2.0), ("a", 1, 1.0)], DuplicateEdgeError),   # before int("a")
        ([(0, 1, 1.0), (5, 5, 1.0), ("a", 1, 1.0)], SelfLoopError),
        ([(0, 1, 1.0), ("a", 1, 1.0), (1, 0, 2.0)], ValueError),
        ([(0, 1, 1.0), (math.nan, 1, 1.0)], ValueError),
        ([(0, 1, 1.0), (math.inf, 1, 1.0)], OverflowError),
        ([(0, 2**53 + 1, 1.0)], IndexOutOfRangeError),
        ([(0, 1, 1.0), (0, 10**20, 1.0)], IndexOutOfRangeError),          # beyond int64
        ([(0, 1, 1.0), (10**20, 10**20, 1.0)], SelfLoopError),
    ],
)
def test_first_bad_edge_in_input_order(edges, error):
    new, old = outcome(build_graph, 3, edges), outcome(build_graph_reference, 3, edges)
    assert new == old and new[0] is error


def test_big_id_message_is_exact():
    with pytest.raises(IndexOutOfRangeError, match="9007199254740993"):
        build_graph(3, [(0, 2**53 + 1, 1.0)])


def test_columns_stay_out_of_equality_and_hash(f1):
    again = Graph(n=f1.n, edges=f1.edges, mass=f1.mass)
    assert again == f1 and hash(again) == hash(f1)
    assert again.u.tolist() == f1.u.tolist() and again.w.tobytes() == f1.w.tobytes()
    assert "u=" not in repr(f1)
    empty = Graph(n=2, edges=())
    assert empty.u.shape == empty.v.shape == empty.w.shape == (0,)


def test_columns_are_derived_never_passed_in(f1):
    with pytest.raises(TypeError):
        Graph(n=f1.n, edges=f1.edges, mass=f1.mass, u=f1.u, v=f1.v, w=f1.w)
    moved = dataclasses.replace(f1, edges=((0, 2, 1.5),))
    assert moved.u.tolist() == [0] and moved.v.tolist() == [2] and moved.w.tolist() == [1.5]
    assert np.flatnonzero(adjacency(moved)).tolist() == [2, 2 * f1.n]


def test_an_iteration_error_waits_for_the_edges_before_it():
    def edges(first_bad):
        yield (0, 1, 1.0)
        yield first_bad
        raise KeyError("edge source")

    for first_bad, error in [((1, 0, 2.0), DuplicateEdgeError), ((1, 2, 1.0), KeyError)]:
        new = outcome(build_graph, 3, edges(first_bad))
        assert new == outcome(build_graph_reference, 3, edges(first_bad)) and new[0] is error


# --- parse_graph_file -----------------------------------------------------

_token = st.one_of(
    st.integers(-2, 6).map(str),
    st.floats(0.1, 9.0).map(lambda x: f"{x:.6g}"),
    st.sampled_from(["0", "1", "2", "1.5", "-1", "0.0", "nan", "inf", "1e999", "1_0", "x", "m",
                     "n", "#c", "99999999999999999999", "٣", "+2"]),
)
_separator = st.sampled_from([" ", "  ", "\t", " \t ", "\xa0"])
_line_break = st.sampled_from(["\n", "\n", "\n", "\r\n", "\r", "\x0c", "\x1c", " "])


@st.composite
def _lines(draw):
    kind = draw(st.sampled_from(["edge"] * 12 + ["mass", "mass", "comment", "blank", "fields"]))
    sep = draw(_separator)
    if kind == "edge":
        fields = [str(draw(st.integers(0, 5))), str(draw(st.integers(0, 5))),
                  f"{draw(st.floats(0.1, 5.0)):.6g}"]
    elif kind == "mass":
        fields = ["m", str(draw(st.integers(-1, 6))), f"{draw(st.floats(0.1, 3.0)):.4g}"]
    elif kind == "comment":
        return draw(st.sampled_from(["# a comment", "  #x 1 2", "#"]))
    elif kind == "blank":
        return draw(st.sampled_from(["", "   ", "\t"]))
    else:
        fields = draw(st.lists(_token, min_size=1, max_size=4))
    pad = draw(st.sampled_from(["", " ", "\t"]))
    return pad + sep.join(fields) + draw(st.sampled_from(["", " ", "\t"]))


@st.composite
def graph_texts(draw):
    head = draw(st.sampled_from(["n 6"] * 6 + ["  n\t6 ", "n 0", "n -1", "n x", "n", "n 6 7"]))
    before = draw(st.lists(st.sampled_from(["# top", "", "  "]), max_size=2))
    body = draw(st.lists(_lines(), max_size=14))
    if draw(st.integers(0, 9)):
        head_lines = before + [head]
    else:
        head_lines = before   # the first body line has to serve as the header
    lines = head_lines + body
    breaks = [draw(_line_break) for _ in lines]
    return "".join(line + brk for line, brk in zip(lines, breaks)) + draw(
        st.sampled_from(["", "\n", "  "])
    )


@given(graph_texts())
@settings(max_examples=800, deadline=None)
def test_parse_matches_the_loop(text):
    assert_same_graph_or_error(outcome(parse_graph_file, text), outcome(parse_reference, text))


@pytest.mark.parametrize(
    "text",
    [
        "n 3\n0 1 1\n0 1\n",                 # too few fields
        "n 3\n0 1 x\n1 2\n",                 # the first bad line wins
        "n 3\nm 7 1\n0 1 x\n",
        "n 3\n0 1 1\nm 1\n",
        "n 3\n0 1 1\nm a 1\n",
        "# c\n\nn 3\n0\t1  2.5\n  1 2 x \n",
        "n 3\n0 99999999999999999999 1\n",    # parses; build_graph rejects the id
        "n 3\n0 1 1\n1 0 2\n",
        "n 3\n0 1 -1\n",
        "n 3\n0 1 1\nm 2 0\n",
        "n 3\n0 1 1\nm 2 2\nm 2 3\n",       # the last mass line wins
        "\n\n",
        "0 1 1\n",
        "n 2 2\n",
        "n two\n",
    ],
)
def test_parse_errors_match_the_loop(text):
    assert_same_graph_or_error(outcome(parse_graph_file, text), outcome(parse_reference, text))


# --- matrices, strengths, components, subgraphs ---------------------------


@st.composite
def wide_weight_graphs(draw):
    """Graphs whose weights span many magnitudes, so summation order shows."""
    g = draw(graphs(max_n=12))
    scales = draw(st.lists(st.sampled_from([1e-9, 1e-3, 1.0, 1e3, 1e9]), min_size=len(g.edges),
                           max_size=len(g.edges)))
    return build_graph(g.n, [(u, v, w * s) for (u, v, w), s in zip(g.edges, scales)])


@given(wide_weight_graphs())
@settings(max_examples=300, deadline=None)
def test_matrices_and_sums_are_bit_identical(g):
    assert adjacency(g).tobytes() == adjacency_reference(g).tobytes()
    assert strengths(g).tobytes() == strengths_reference(g).tobytes()
    total = graph_summary(g)["total_weight"]
    assert total.hex() == float(sum(w for _, _, w in g.edges)).hex()


@given(graphs(max_n=14))
@settings(max_examples=300, deadline=None)
def test_components_match_the_loop(g):
    assert connected_components(g) == components_reference(g)


@given(graphs(max_n=12), st.lists(st.integers(0, 11), max_size=12))
@settings(max_examples=300, deadline=None)
def test_induced_subgraph_matches_the_loop(g, picked):
    vertices = [v for v in picked if v < g.n]
    new, old = induced_subgraph(g, vertices), induced_subgraph_reference(g, vertices)
    assert new[1] == old[1]
    assert_same_graph_or_error(("ok", new[0]), ("ok", old[0]))


@given(twin_graphs())
@settings(max_examples=150, deadline=None)
def test_reduced_graph_matches_the_loop(g):
    r = reduce_all(g, "collapse")
    kept = [v for v in range(g.n) if r.vertex_map[v] is not None]
    sub, _ = induced_subgraph_reference(g, kept)
    # the reference's reduced graph: the kept induced subgraph with the star masses
    expected = build_graph_reference(sub.n, sub.edges, mass=r.reduced.mass)
    assert_same_graph_or_error(("ok", r.reduced), ("ok", expected))


# --- detectors and verify_ldependent --------------------------------------


@given(st.one_of(graphs(max_n=10), twin_graphs()))
@settings(max_examples=300, deadline=None)
def test_detectors_match_the_loops(g):
    assert detect_stars(g) == detect_stars_reference(g)
    assert detect_proportional_ldependent(g) == proportional_reference(g)


@st.composite
def candidate_partitions(draw):
    g = draw(st.one_of(graphs(max_n=10), twin_graphs()))
    roles = draw(st.lists(st.sampled_from([0, 1, 2, 3, 3]), min_size=g.n, max_size=g.n))
    v1, v2, v3 = ([v for v, r in enumerate(roles) if r == k] for k in range(3))
    return g, v1, v2, v3


@given(candidate_partitions())
@settings(max_examples=400, deadline=None)
def test_first_condition_violation_matches_the_loop(case):
    g, v1, v2, v3 = case
    expected = outcome(conditions_reference, g, v1, v2, v3)
    found = outcome(verify_ldependent, analyze(g), v1, v2, v3)
    if expected[0] == "ok":
        # past conditions 1 and 2: certified, or stopped at condition 3 or the strengths
        assert found[0] == "ok" or "condition 1" not in found[1] and "condition 2" not in found[1]
    else:
        assert found == expected


# --- parse memory ---------------------------------------------------------


def test_parse_peak_memory_on_a_dense_graph():
    """A 40 000-edge file, as the benchmark's ldep-dense graph, parses within 12.3 MB traced."""
    text = write_graph_file(plant_ldependent_graph(1, (10, 400, 90), 6.0))
    tracemalloc.start()
    try:
        g = parse_graph_file(text)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(g.edges) == 40_000
    assert peak <= 12.3e6
