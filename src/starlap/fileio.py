"""Graph file format, DOT export, and stable JSON reports.

Graph files are plain text: a header line ``n <count>``, one ``u v w`` line
per edge, optional ``m v value`` lines for non-unit vertex masses, and
``#`` comment lines.  Writing is canonical (header, sorted edges, sorted
mass lines) and round-trips exactly for weights with at most 12 significant
decimal digits.
"""

from __future__ import annotations

import json
from typing import Any

from .errors import ParseError, StarlapError
from .graphs import Graph, build_graph
from .partition import Partition
from .stars import GraphAnalysis, analyze


def _fmt(x: float) -> str:
    return f"{x:.12g}"


def parse_graph_file(text: str) -> Graph:
    """Parse the text graph format; masses default to 1."""
    n: int | None = None
    edges: list[tuple[int, int, float]] = []
    masses: dict[int, float] = {}
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
    mass_vec = [masses.get(v, 1.0) for v in range(n)]
    return build_graph(n, edges, mass=mass_vec)


def write_graph_file(g: Graph) -> str:
    """Canonical text form: header, edges sorted by (u, v), non-unit masses."""
    lines = [f"n {g.n}"]
    lines.extend(f"{u} {v} {_fmt(w)}" for u, v, w in g.edges)
    lines.extend(f"m {v} {_fmt(m)}" for v, m in enumerate(g.mass) if m != 1.0)
    return "\n".join(lines) + "\n"


def load_graph(path: str) -> Graph:
    with open(path, encoding="utf-8") as fh:
        return parse_graph_file(fh.read())


def save_graph(g: Graph, path: str) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(write_graph_file(g))


def load_partition(path: str) -> tuple[list[int], list[int], list[int]]:
    """The v1, v2 and v3 vertex lists of a JSON partition file.

    The file must hold an object whose "v1", "v2" and "v3" are lists of
    integers; anything else raises ParseError.
    """
    with open(path, encoding="utf-8") as fh:
        spec = json.load(fh)
    lists = [spec.get(key) if isinstance(spec, dict) else None for key in ("v1", "v2", "v3")]
    if not all(isinstance(xs, list) and all(type(x) is int for x in xs) for xs in lists):
        raise ParseError(None, f"{path}: expected an object with integer lists v1, v2, v3")
    return lists[0], lists[1], lists[2]


_DOT_COLORS = 12  # size of the colorscheme cycle


def emit_dot(g: Graph, p: Partition | None = None) -> str:
    """DOT source with weight labels; clusters color the nodes when given."""
    lines = ["graph G {"]
    if p is not None:
        lines.append('  node [style=filled, colorscheme=set312];')
        for v in range(g.n):
            lines.append(f"  {v} [fillcolor={p.labels[v] % _DOT_COLORS + 1}];")
    else:
        for v in range(g.n):
            lines.append(f"  {v};")
    for u, v, w in g.edges:
        lines.append(f'  {u} -- {v} [label="{_fmt(w)}"];')
    lines.append("}")
    return "\n".join(lines) + "\n"


def to_json(payload: Any) -> str:
    """Stable key-sorted JSON with a trailing newline (byte-identical re-runs)."""
    return json.dumps(payload, sort_keys=True, indent=2) + "\n"


def graph_summary(g: Graph | GraphAnalysis) -> dict[str, Any]:
    """Sizes, weight, components, strength range and masses; an analysis's caches are read."""
    ctx = analyze(g)
    g, s = ctx.graph, ctx.strengths
    return {
        "vertices": g.n,
        "edges": len(g.edges),
        "total_weight": float(sum(w for _, _, w in g.edges)),
        "components": len(ctx.components),
        "min_strength": float(s.min()) if g.n else 0.0,
        "max_strength": float(s.max()) if g.n else 0.0,
        "non_unit_masses": {str(v): m for v, m in enumerate(g.mass) if m != 1.0},
    }


def wrap_error(exc: Exception) -> str:
    kind = type(exc).__name__ if isinstance(exc, StarlapError) else "error"
    return f"{kind}: {exc}"
