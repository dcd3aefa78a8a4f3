"""Weighted undirected graphs and their matrix representations.

A :class:`Graph` is an immutable edge list over 0-based contiguous vertex
indices, with a strictly positive per-vertex mass vector (all ones unless the
graph came out of a reduction).  All matrix constructions are dense numpy
arrays; the intended scale is n up to a couple of thousand vertices, where
exact dense eigensolves are cheap.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Iterable, Sequence

import numpy as np

from .errors import (
    DuplicateEdgeError,
    IndexOutOfRangeError,
    IsolatedVertexError,
    NonPositiveWeightError,
    SelfLoopError,
)

Edge = tuple[int, int, float]


@dataclass(frozen=True)
class Graph:
    """Simple weighted undirected graph with vertex masses.

    Invariants (enforced by :func:`build_graph`): no self-loops, no duplicate
    pairs, strictly positive finite weights, edges stored with u < v and
    sorted, mass vector of length n with strictly positive entries.
    """

    n: int
    edges: tuple[Edge, ...]
    mass: tuple[float, ...] = field(default=())

    def __post_init__(self):
        if not self.mass:
            object.__setattr__(self, "mass", (1.0,) * self.n)

    @property
    def has_unit_mass(self) -> bool:
        return all(m == 1.0 for m in self.mass)

    def neighbors(self, v: int) -> frozenset[int]:
        """Open neighborhood of v."""
        out = set()
        for u, w, _ in self.edges:
            if u == v:
                out.add(w)
            elif w == v:
                out.add(u)
        return frozenset(out)


def build_graph(
    n: int,
    edges: Iterable[Sequence[float]],
    mass: Sequence[float] | None = None,
) -> Graph:
    """Validate and normalize an edge list into a :class:`Graph`.

    Edges may be given in either endpoint order; they are stored as (u, v, w)
    with u < v, sorted lexicographically.  Raises a specific error naming the
    offending edge on self-loops, duplicates, non-positive weights, or
    out-of-range indices.
    """
    if n < 0:
        raise IndexOutOfRangeError(n, 0, context="vertex count")
    normalized: list[Edge] = []
    seen: set[tuple[int, int]] = set()
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


def adjacency(g: Graph) -> np.ndarray:
    """Symmetric weighted adjacency matrix with zero diagonal."""
    a = np.zeros((g.n, g.n))
    for u, v, w in g.edges:
        a[u, v] = w
        a[v, u] = w
    return a


def strengths(g: Graph) -> np.ndarray:
    """Vector of weighted degrees (adjacency row sums)."""
    s = np.zeros(g.n)
    for u, v, w in g.edges:
        s[u] += w
        s[v] += w
    return s


def strength(g: Graph, v: int) -> float:
    """Weighted degree of a single vertex."""
    if not (0 <= v < g.n):
        raise IndexOutOfRangeError(v, g.n)
    return float(strengths(g)[v])


def laplacian(g: Graph) -> np.ndarray:
    """Laplacian L = diag(strengths) - adjacency."""
    return np.diag(strengths(g)) - adjacency(g)


def signless_laplacian(g: Graph) -> np.ndarray:
    """Signless Laplacian diag(strengths) + adjacency."""
    return np.diag(strengths(g)) + adjacency(g)


def normalized_laplacian(g: Graph) -> np.ndarray:
    """Normalized Laplacian: unit diagonal, off-diagonal -w(i,j)/sqrt(d_i d_j).

    Every vertex must have positive strength.
    """
    return normalized_laplacian_from(adjacency(g), strengths(g))


def normalized_laplacian_from(a: np.ndarray, d: np.ndarray) -> np.ndarray:
    """Normalized Laplacian of adjacency matrix `a` with strengths `d`."""
    for v in range(d.size):
        if d[v] <= 0.0:
            raise IsolatedVertexError(v)
    inv_sqrt = 1.0 / np.sqrt(d)
    lhat = -a * np.outer(inv_sqrt, inv_sqrt)
    np.fill_diagonal(lhat, 1.0)
    return lhat


def connected_components(g: Graph) -> list[frozenset[int]]:
    """Connected components as vertex sets, ordered by smallest member."""
    adj: list[list[int]] = [[] for _ in range(g.n)]
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


def induced_subgraph(g: Graph, vertices: Sequence[int]) -> tuple[Graph, list[int]]:
    """Subgraph induced by `vertices` (original weights), plus the old-index map.

    Returns (subgraph, old_of_new) where old_of_new[i] is the original index of
    subgraph vertex i.  Masses are inherited.
    """
    old_of_new = sorted(set(vertices))
    new_of_old = {old: new for new, old in enumerate(old_of_new)}
    edges = [
        (new_of_old[u], new_of_old[v], w)
        for u, v, w in g.edges
        if u in new_of_old and v in new_of_old
    ]
    sub = build_graph(len(old_of_new), edges, mass=[g.mass[o] for o in old_of_new])
    return sub, old_of_new
