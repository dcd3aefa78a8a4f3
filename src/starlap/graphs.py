"""Weighted undirected graphs, their adjacency matrix and their strengths.

A :class:`Graph` is an immutable edge list over 0-based contiguous vertex
indices, with a strictly positive per-vertex mass vector (all ones unless the
graph came out of a reduction).  This module builds the strengths, the
neighbour lists and, for a caller that wants it, the dense adjacency matrix;
every operator (A, L, Q, the normalized Laplacian and the mass families) is
written from the neighbour lists by ``stars.GraphAnalysis.columns``, all its
columns or only the ones a check reads.  The intended scale is n up to a
couple of thousand vertices, where exact dense eigensolves are cheap.

A graph keeps its edges once, as three read-only numpy columns: ``u`` and
``v`` (intp, u < v) and ``w`` (float64), sorted by (u, v).  Equality and
hashing read n, the columns' bytes and the mass.  The ``edges`` tuple of
(int, int, float) triples is a view derived from the columns, built at most
once per graph, for callers that want Python tuples.  Parsing, validation,
the adjacency build, strengths, components and subgraphs read and write the
columns with array code, and each gives the result, or raises the error,
that the per-edge loop it replaced gave, bit for bit.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Sequence

import numpy as np

from .errors import (
    DuplicateEdgeError,
    IndexOutOfRangeError,
    NonPositiveWeightError,
    SelfLoopError,
)

Edge = tuple[int, int, float]


@dataclass(frozen=True, eq=False)
class Graph:
    """Simple weighted undirected graph with vertex masses.

    Invariants (enforced by :func:`build_graph`): no self-loops, no duplicate
    pairs, strictly positive finite weights, edges stored with u < v and
    sorted, mass vector of length n with strictly positive entries.  The
    edge (u[i], v[i], w[i]) is the i-th; the columns are read-only.
    """

    n: int
    u: np.ndarray
    v: np.ndarray
    w: np.ndarray
    mass: tuple[float, ...]

    def _key(self) -> tuple:
        return (self.n, self.u.tobytes(), self.v.tobytes(), self.w.tobytes(), self.mass)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._key() == other._key()

    def __hash__(self):
        return hash(self._key())

    @cached_property
    def edges(self) -> tuple[Edge, ...]:
        """The edges as (u, v, w) tuples of Python int, int and float, in column order."""
        return tuple(zip(self.u.tolist(), self.v.tolist(), self.w.tolist()))


def build_graph(
    n: int,
    edges: Iterable[Sequence[float]],
    mass: Sequence[float] | None = None,
) -> Graph:
    """Validate and normalize an edge list into a :class:`Graph`.

    Edges may be given in either endpoint order; they are stored as (u, v, w)
    with u < v, sorted lexicographically.  Each edge e is read as
    (int(e[0]), int(e[1]), float(e[2])).  Raises a specific error naming the
    first offending edge in input order on self-loops, duplicates,
    non-positive weights, or out-of-range indices.
    """
    if n < 0:
        raise IndexOutOfRangeError(n, 0, context="vertex count")
    return _validated_graph(n, *_edge_columns(edges), mass)


def build_graph_from_columns(
    n: int,
    u: np.ndarray,
    v: np.ndarray,
    w: np.ndarray,
    mass: Sequence[float] | None = None,
) -> Graph:
    """:func:`build_graph` of the edges (u[i], v[i], w[i]) of integer columns u, v."""
    if n < 0:
        raise IndexOutOfRangeError(n, 0, context="vertex count")
    return _validated_graph(n, np.asarray(u), np.asarray(v), np.asarray(w, dtype=float), None, mass)


def _edge_columns(edges) -> tuple[np.ndarray, np.ndarray, np.ndarray, Exception | None]:
    """The columns int(e[0]), int(e[1]), float(e[2]) of an edge list, and a pending error.

    Edges convert one by one up to the first that fails to convert (or the
    iteration itself fails); the columns then hold the edges before it, and
    its exception is returned, to be raised once those edges pass.  No id is
    rounded or wrapped: ids beyond int64 make the id columns Python ints.
    """
    us: list[int] = []
    vs: list[int] = []
    ws: list[float] = []
    error = None
    try:
        for e in edges:
            x, y, z = int(e[0]), int(e[1]), float(e[2])
            us.append(x)
            vs.append(y)
            ws.append(z)
    except Exception as exc:   # re-raised as it is, once the edges before it pass
        error = exc
    try:
        u, v = np.array(us, dtype=np.int64), np.array(vs, dtype=np.int64)
    except OverflowError:   # an id beyond int64 stays an exact int for its error message
        u, v = np.array(us, dtype=object), np.array(vs, dtype=object)
    return u, v, np.array(ws, dtype=float), error


def _raise_edge_error(n: int, u, v, w) -> None:
    """Raise the error of one edge that fails validation, as the per-edge check did."""
    u, v, w = int(u), int(v), float(w)
    if u == v:
        raise SelfLoopError(u, w)
    if not (0 <= u < n):
        raise IndexOutOfRangeError(u, n)
    if not (0 <= v < n):
        raise IndexOutOfRangeError(v, n)
    raise NonPositiveWeightError(u, v, w)


def _validated_graph(
    n: int,
    u: np.ndarray,
    v: np.ndarray,
    w: np.ndarray,
    error: Exception | None,
    mass: Sequence[float] | None,
) -> Graph:
    """The graph of converted edge columns, or the first edge's error in input order.

    Edges are checked in input order: the first that is a self-loop, out of
    range or badly weighted, or repeats an earlier pair, raises; then
    `error`, the conversion failure of the edge after the columns, if any.
    """
    with np.errstate(invalid="ignore"):
        valid = (u != v) & (u >= 0) & (u < n) & (v >= 0) & (v < n) & np.isfinite(w) & (w > 0.0)
    stop = valid.size if valid.all() else int(np.argmin(valid))
    lo = np.minimum(u[:stop], v[:stop]).astype(np.intp)
    hi = np.maximum(u[:stop], v[:stop]).astype(np.intp)
    # lo * n + hi orders the pairs as (lo, hi) does (n * n fits int64 for
    # any n whose mass tuple fits in memory); the sort is stable, so a
    # repeated pair's first occurrence leads its run
    order = np.argsort(lo * n + hi, kind="stable")
    lo, hi, weights = lo[order], hi[order], w[:stop][order]
    repeat = (lo[1:] == lo[:-1]) & (hi[1:] == hi[:-1])
    if repeat.any():
        # the repeat that comes first in input order, at sorted position k + 1
        k = int(np.argmin(np.where(repeat, order[1:], stop)))
        raise DuplicateEdgeError(int(lo[k + 1]), int(hi[k + 1]), float(weights[k + 1]))
    if stop < valid.size:
        _raise_edge_error(n, u[stop], v[stop], w[stop])
    if error is not None:
        raise error
    if mass is None:
        mass_t = (1.0,) * n
    else:
        if len(mass) != n:
            raise IndexOutOfRangeError(len(mass), n, context="mass length")
        mass_t = tuple(map(float, mass))
        values = np.array(mass_t, dtype=float)
        bad = ~(np.isfinite(values) & (values > 0.0))
        if bad.any():
            first = int(np.argmax(bad))
            raise NonPositiveWeightError(first, first, mass_t[first])
    for column in (lo, hi, weights):
        column.setflags(write=False)
    return Graph(n, lo, hi, weights, mass_t)


def adjacency(g: Graph) -> np.ndarray:
    """Symmetric weighted adjacency matrix with zero diagonal."""
    a = np.zeros((g.n, g.n))
    a[g.u, g.v] = g.w
    a[g.v, g.u] = g.w
    return a


def strengths(g: Graph) -> np.ndarray:
    """Vector of weighted degrees (adjacency row sums).

    Each vertex sums its edges' weights in edge order, u's end before v's,
    as np.add.at does over the interleaved endpoints.
    """
    s = np.zeros(g.n)
    with np.errstate(over="ignore"):   # an overflowed strength is inf, and reported as such
        np.add.at(s, np.column_stack((g.u, g.v)).ravel(), np.repeat(g.w, 2))
    return s


def connected_components(g: Graph) -> list[frozenset[int]]:
    """Connected components as vertex sets, ordered by smallest member."""
    root = component_roots(g.n, g.u, g.v)
    order = np.argsort(root, kind="stable")
    cuts = (np.flatnonzero(np.diff(root[order])) + 1).tolist()
    members = order.tolist()
    return [frozenset(members[a:b]) for a, b in zip([0, *cuts], [*cuts, g.n])] if g.n else []


def component_roots(n: int, u: np.ndarray, v: np.ndarray) -> np.ndarray:
    """The smallest member of each vertex's component, over n vertices and edges (u[i], v[i]).

    Each vertex points at a smaller vertex of its component; every round
    hooks, across each edge whose ends still point at different roots, the
    larger root under the smaller, then points every vertex at its root.  At
    the fixed point each component's root is its smallest member.
    """
    root = np.arange(n)
    while True:
        ru, rv = root[u], root[v]
        apart = ru != rv
        if not apart.any():
            break
        np.minimum.at(root, np.maximum(ru, rv)[apart], np.minimum(ru, rv)[apart])
        while True:
            up = root[root]
            if np.array_equal(up, root):
                break
            root = up
    return root


def neighbor_lists(g: Graph) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Every vertex's neighbors in ascending order, as (bounds, neighbors, weights).

    The neighbors of x are neighbors[bounds[x]:bounds[x + 1]], and the
    weights of those edges are weights[bounds[x]:bounds[x + 1]].
    """
    # the edges are sorted by (u, v): a vertex's neighbours below it are
    # the u of the edges ending at it, in ascending order, and those above
    # it the v of the edges starting at it, so a stable sort by vertex of
    # the first run followed by the second keeps every list ascending
    bounds = np.zeros(g.n + 1, dtype=np.intp)
    np.cumsum(np.bincount(g.u, minlength=g.n) + np.bincount(g.v, minlength=g.n), out=bounds[1:])
    order = np.argsort(np.concatenate((g.v, g.u)), kind="stable")
    return bounds, np.concatenate((g.u, g.v))[order], np.concatenate((g.w, g.w))[order]


def induced_subgraph(g: Graph, vertices: Sequence[int]) -> tuple[Graph, list[int]]:
    """Subgraph induced by `vertices` (original weights), plus the old-index map.

    Returns (subgraph, old_of_new) where old_of_new[i] is the original index of
    subgraph vertex i.  Masses are inherited.  The smallest vertex outside
    [0, n) raises IndexOutOfRangeError.
    """
    old_of_new = sorted(set(vertices))
    outside = next((x for x in old_of_new if not 0 <= x < g.n), None)
    if outside is not None:
        raise IndexOutOfRangeError(outside, g.n)
    mass = [g.mass[o] for o in old_of_new]
    new_of_old = np.full(g.n, -1, dtype=np.intp)
    new_of_old[old_of_new] = np.arange(len(old_of_new))
    nu, nv = new_of_old[g.u], new_of_old[g.v]
    kept = (nu >= 0) & (nv >= 0)
    sub = build_graph_from_columns(len(old_of_new), nu[kept], nv[kept], g.w[kept], mass=mass)
    return sub, old_of_new
