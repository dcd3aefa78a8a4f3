"""The array-backed graph layer against the per-edge loops it replaced.

Each reference below is the loop as it was before the graph kept its edges
as numpy columns.  The array code must give equal graphs and bit-identical
vectors, or raise the same exception type with the same message.
"""

import dataclasses
import math
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from starlap import (
    adjacency,
    build_graph,
    cli,
    connected_components,
    detect_stars,
    graph_summary,
    induced_subgraph,
    parse_graph_file,
    plant_ldependent_graph,
    plant_star_graph,
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
from starlap import fileio
from starlap.graphs import Graph, build_graph_from_columns
from starlap.stars import MkStar, _uniform_weight, analyze

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
    u = np.array([e[0] for e in normalized], dtype=np.intp)
    v = np.array([e[1] for e in normalized], dtype=np.intp)
    w = np.array([e[2] for e in normalized], dtype=np.float64)
    return Graph(n, u, v, w, mass_t)


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


def bulk_parse_reference(text):
    """The object-array bulk pass that np.loadtxt replaced; a line it cannot take goes to the loop.

    All fields are split at once and converted by Python's own int() and
    float(); the loop reference reads any text the bulk pass gives up on,
    and raises every error.
    """
    lines = text.splitlines()
    counts = np.fromiter(map(len, map(str.split, lines)), np.intp, len(lines))
    fields = np.array(text.split(), dtype=object)
    starts = np.cumsum(counts) - counts
    content = np.flatnonzero(counts)
    if "#" in text:
        content = content[np.array([not f.startswith("#") for f in fields[starts[content]]], bool)]
    if not content.size:
        return parse_reference(text)
    head = fields[starts[content[0]] : starts[content[0]] + counts[content[0]]]
    try:
        n = int(head[1]) if head[0] == "n" and len(head) == 2 else -1
    except ValueError:
        n = -1
    if n < 0:
        return parse_reference(text)
    body_counts, heads = counts[content[1:]], starts[content[1:]]
    if (body_counts != 3).any():
        return parse_reference(text)
    is_mass = fields[heads] == "m"
    edge_heads, mass_heads = heads[~is_mass], heads[is_mass]
    try:
        u = np.fromiter(map(int, fields[edge_heads]), np.int64, edge_heads.size)
        v = np.fromiter(map(int, fields[edge_heads + 1]), np.int64, edge_heads.size)
        w = np.fromiter(map(float, fields[edge_heads + 2]), float, edge_heads.size)
        masses = dict(zip(map(int, fields[mass_heads + 1]), map(float, fields[mass_heads + 2])))
    except (ValueError, OverflowError):
        return parse_reference(text)
    if not all(0 <= x < n for x in masses):
        return parse_reference(text)
    return build_graph_from_columns(n, u, v, w, mass=[masses.get(x, 1.0) for x in range(n)])


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
    """Equality and hash read n, the columns' bytes and the mass, never the arrays themselves."""
    again = Graph(f1.n, f1.u.copy(), f1.v.copy(), f1.w.copy(), f1.mass)
    assert again == f1 and hash(again) == hash(f1)
    assert again.u.tolist() == f1.u.tolist() and again.w.tobytes() == f1.w.tobytes()
    heavier = f1.w.copy()
    heavier[2] += 0.5
    assert Graph(f1.n, f1.u, f1.v, heavier, f1.mass) != f1
    assert Graph(f1.n, f1.u, f1.v, f1.w, (2.0,) + f1.mass[1:]) != f1
    empty = build_graph(2, ())
    assert empty.u.shape == empty.v.shape == empty.w.shape == (0,)


def test_columns_are_derived_never_passed_in(f1):
    """The columns are the store; `edges` is a view built once from them and never passed in."""
    with pytest.raises(TypeError):
        Graph(n=f1.n, edges=f1.edges, mass=f1.mass)
    with pytest.raises(TypeError):
        dataclasses.replace(f1, edges=((0, 2, 1.5),))
    assert f1.edges is f1.edges
    assert f1.edges == tuple(zip(f1.u.tolist(), f1.v.tolist(), f1.w.tolist()))
    assert all(tuple(map(type, e)) == (int, int, float) for e in f1.edges)
    moved = dataclasses.replace(f1, u=np.array([0]), v=np.array([2]), w=np.array([1.5]))
    assert moved.edges == ((0, 2, 1.5),)
    assert np.flatnonzero(adjacency(moved)).tolist() == [2, 2 * f1.n]
    for column in (f1.u, f1.v, f1.w):
        assert not column.flags.writeable
        with pytest.raises(ValueError):
            column[0] = 1


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


@given(graph_texts())
@settings(max_examples=300, deadline=None)
def test_parse_matches_the_bulk_pass(text):
    assert_same_graph_or_error(outcome(parse_graph_file, text), outcome(bulk_parse_reference, text))


@pytest.mark.parametrize(
    "text",
    [
        "n 12\n1_0 2 3\n",                     # int() reads 1_0, the C reader does not
        "n 3\n0 1 1_0\n",
        "n 3\n+1 2 3\n",
        "n 3\n1.0 2 3\n",                      # a float as an id
        "n 3\n0 1 1\n99999999999999999999 2 3\n",
        "n 3\n0 1 1\n-9223372036854775809 2 3\n",
        "n 3\n\u0661 2 3\n",                    # an Arabic-Indic digit
        "n 3\n0 1 \u0663\n",
        "n 3\n0 1 1\u00a0\u2003\n1\x1f2 1\n",   # whitespace that is no line break
        "n 3\n1 2 3 # c\n",
        "n 3\n0 1 1\n1 2 3 #\n",
        "n 3\n0\t1\t2.5\n\t1\t2\t3\t\n",
        "n 3\r\n0 1 2\r\n\r\n1 2 3\r\n",
        "n 3\r0 1 2\r1 2 3",
        "n 3\n0 1 2\x0c1 2 3\n",
        "n 3\n0 1 2\n\x1c1 2 3\x85\u2028m 1 2\u2029",
        "\n\n  \nn 3\n\n0 1 2\n\n\n1 2 3\n\n",
        "# top\nn 3\n# c\nm 1 2.5\n0 1 2\n  # indented\nm 0 0.5\n1 2 3\n#end\nm 2 4",
        "n 3\nm 1 2\nm 1 3\n0 1 1\n",
        "n 3\n  m 1 2\n0 1 1\n",
        "n 3\n0 1 1\nmm 1 2\n",
        "n 3\n0 1 1\nm1 2 3\n",
        "n 3\nm 1 2 # c\n0 1 1\n",
        "n 3\n0 1 1\nm 5 2\n",
        "n 3\n0 1 1\nm 1_0 2\n",
        "n 3\n0 1 1\nm 1 x\n",
        "n 3\n0 1 nan\n",
        "n 3\n0 1 -inf\n",
        "n 3\n0 1 1e999\n",
        "n 3\n0 1 1e-320\n1 2 -0.0\n",
        "n 3\n0 1 1\n1 0 2\n",
        "n 3\n0 1 1\n0 5 2\n",
        "n 3\n0 1\n",
        "n 3\n0 1 2 3\n",
        "n 3\n0 1 \"2\"\n",
        "n 3",
        "n 3\n",
        "n 0\n",
        "n 2\n0 1 1\x00\n",
        "",
    ],
)
def test_parse_cases_match_the_bulk_pass(text):
    found = outcome(parse_graph_file, text)
    assert_same_graph_or_error(found, outcome(bulk_parse_reference, text))
    assert_same_graph_or_error(found, outcome(parse_reference, text))


def _annotated(text):
    """`text` with comment lines before its header, between its lines and at its end."""
    lines = text.splitlines()
    return "# written by hand\n" + "\n# between\n".join(lines[:3]) + "\n" + "\n".join(lines[3:]) + "\n# end\n"


@pytest.mark.parametrize("crlf", [False, True])
def test_canonical_files_with_masses_and_comments_skip_the_line_by_line_pass(monkeypatch, crlf):
    def refuse(*args, **kwargs):
        raise AssertionError("read line by line")

    monkeypatch.setattr(fileio, "_parse_body_by_line", refuse)
    g = plant_star_graph(2, 60, [(4, 3, 2.0), (3, 2, 1.5)], background_p=0.2)
    reduced = reduce_all(g).reduced
    for graph in (g, reduced):
        for text in (write_graph_file(graph), _annotated(write_graph_file(graph))):
            if crlf:
                text = text.replace("\n", "\r\n")
            assert_same_graph_or_error(outcome(parse_graph_file, text), ("ok", bulk_parse_reference(text)))
    assert any(m != 1.0 for m in reduced.mass)


@pytest.mark.parametrize("text", ["n 3", "n 3\n", "n 3\n\n  \n", "# c\nn 3\n# d\n", "n 3\nm 1 2\n"])
def test_a_file_with_no_edges_parses_without_a_warning(tmp_path, capsys, text):
    with warnings.catch_warnings():
        warnings.simplefilter("error")   # np.loadtxt warns on input with no data
        assert parse_graph_file(text).w.size == 0
    path = tmp_path / "g.graph"
    path.write_text(text, encoding="utf-8")
    assert cli.run_cli(["info", str(path), "--json"]) == 0
    assert capsys.readouterr().err == ""


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


def test_parsed_graph_holds_its_columns_only():
    """Once parsed, a 40 000-edge graph holds about 1 MB of columns, and no edge tuples."""
    text = write_graph_file(plant_ldependent_graph(1, (10, 400, 90), 6.0))
    tracemalloc.start()
    try:
        g = parse_graph_file(text)
        held, _ = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert g.w.size == 40_000
    assert held <= 1.5e6


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
