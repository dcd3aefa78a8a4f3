"""Graph file format, DOT export, and stable JSON reports.

Graph files are plain text: a header line ``n <count>``, one ``u v w`` line
per edge, optional ``m v value`` lines for non-unit vertex masses, and
``#`` comment lines.  Writing is canonical (header, sorted edges, sorted
mass lines) and round-trips exactly for weights with at most 12 significant
decimal digits.
"""

from __future__ import annotations

import json
from typing import Any, Sequence

import numpy as np

from .errors import ParseError, StarlapError
from .graphs import Graph, build_graph, build_graph_from_columns
from .partition import Partition
from .stars import GraphAnalysis, analyze


def _fmt(x: float) -> str:
    return f"{x:.12g}"


def parse_graph_file(text: str) -> Graph:
    """Parse the text graph format; masses default to 1.

    The fields of all lines are converted in bulk, by Python's own int() and
    float().  When the bulk pass meets a line it cannot take, the lines are
    checked one by one and the first bad line's ParseError is raised.
    """
    lines = text.splitlines()
    counts = np.fromiter(map(len, map(str.split, lines)), np.intp, len(lines))
    del lines
    # every line break is whitespace, so each line's fields are a run of these
    fields = np.array(text.split(), dtype=object)
    starts = np.cumsum(counts) - counts
    content = np.flatnonzero(counts)   # 0-based indices of lines with fields
    if "#" in text:
        content = content[np.array([not f.startswith("#") for f in fields[starts[content]]], bool)]
    if not content.size:
        raise ParseError(1, "missing header line 'n <count>'")
    header = int(content[0])
    n = _parse_header(text, header + 1, fields[starts[header] : starts[header] + counts[header]])
    body = content[1:]
    bulk = _bulk_body(fields, counts[body], starts[body], n)
    del fields   # the graph's edge tuples take its place
    if bulk is None:
        return _parse_body_by_line(text, (body + 1).tolist(), n)
    u, v, w, masses = bulk
    return build_graph_from_columns(n, u, v, w, mass=[masses.get(x, 1.0) for x in range(n)])


def _bulk_body(
    fields: np.ndarray, counts: np.ndarray, heads: np.ndarray, n: int
) -> tuple[np.ndarray, np.ndarray, np.ndarray, dict[int, float]] | None:
    """Edge columns and masses of the body lines, or None when a line is bad.

    `counts` and `heads` give each body line's number of fields and the
    index of its first field in `fields`.
    """
    if (counts != 3).any():
        return None
    is_mass = fields[heads] == "m"
    edge_heads, mass_heads = heads[~is_mass], heads[is_mass]
    try:
        u = np.fromiter(map(int, fields[edge_heads]), np.int64, edge_heads.size)
        v = np.fromiter(map(int, fields[edge_heads + 1]), np.int64, edge_heads.size)
        w = np.fromiter(map(float, fields[edge_heads + 2]), float, edge_heads.size)
        masses = dict(zip(map(int, fields[mass_heads + 1]), map(float, fields[mass_heads + 2])))
    except (ValueError, OverflowError):   # a field int() or float() rejects, or an id beyond int64
        return None
    if not all(0 <= x < n for x in masses):
        return None
    return u, v, w, masses


def _parse_header(text: str, lineno: int, fields: Sequence[str]) -> int:
    if fields[0] != "n" or len(fields) != 2:
        line = text.splitlines()[lineno - 1].strip()
        raise ParseError(lineno, f"expected header 'n <count>', got {line!r}")
    try:
        n = int(fields[1])
    except ValueError:
        raise ParseError(lineno, f"vertex count is not an integer: {fields[1]!r}")
    if n < 0:
        raise ParseError(lineno, f"vertex count must be nonnegative, got {n}")
    return n


def _parse_body_by_line(text: str, linenos: list[int], n: int) -> Graph:
    """The graph of the body lines at `linenos`, read one line at a time.

    Raises the ParseError of the first bad line.  When no line is bad, the
    bulk pass stopped at an id beyond int64, which build_graph rejects.
    """
    lines = text.splitlines()
    edges: list[tuple[int, int, float]] = []
    masses: dict[int, float] = {}
    for lineno in linenos:
        line = lines[lineno - 1].strip()
        fields = line.split()
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
            edges.append((int(fields[0]), int(fields[1]), float(fields[2])))
        except ValueError:
            raise ParseError(lineno, f"bad edge line: {line!r}")
    return build_graph(n, edges, mass=[masses.get(v, 1.0) for v in range(n)])


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
        "total_weight": float(sum(g.w.tolist())),
        "components": len(ctx.components),
        "min_strength": float(s.min()) if g.n else 0.0,
        "max_strength": float(s.max()) if g.n else 0.0,
        "non_unit_masses": {str(v): m for v, m in enumerate(g.mass) if m != 1.0},
    }


def wrap_error(exc: Exception) -> str:
    kind = type(exc).__name__ if isinstance(exc, StarlapError) else "error"
    return f"{kind}: {exc}"
