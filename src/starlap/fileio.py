"""Graph file format, DOT export, and stable JSON reports.

Graph files are plain text: a header line ``n <count>``, one ``u v w`` line
per edge, optional ``m v value`` lines for non-unit vertex masses, and
``#`` comment lines.  Writing is canonical (header, sorted edges, sorted
mass lines) and round-trips exactly for weights with at most 12 significant
decimal digits.
"""

from __future__ import annotations

import io
import json
import re
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

    Comment and mass lines are set aside first, mass lines read with
    Python's int() and float().  The edge lines go to numpy's C text reader
    (np.loadtxt into int64, int64 and float64 columns), which makes no
    Python object per field.  It takes exactly the fields int() and float()
    take, to the same values, but for a few it rejects: `1_0`, non-ASCII
    digits and ids beyond int64.  When anything is rejected, the lines are
    read one by one and the first bad line's ParseError is raised.
    """
    text = _newline_breaks(text)
    header = _CONTENT_LINE.search(text)
    if header is None:
        raise ParseError(1, "missing header line 'n <count>'")
    lineno = text.count("\n", 0, header.start()) + 1
    n = _parse_header(text, lineno, header[0].split())
    bulk = _bulk_body(text[header.end() :], n)
    if bulk is None:
        return _parse_body_by_line(text, lineno, n)
    u, v, w, masses = bulk
    return build_graph_from_columns(n, u, v, w, mass=[masses.get(x, 1.0) for x in range(n)])


# str.splitlines breaks lines at these besides \n and \r; each is whitespace to str.split
_ODD_BREAKS = "\x0b\x0c\x1c\x1d\x1e\x85\u2028\u2029"
_TO_NEWLINE = str.maketrans(dict.fromkeys(_ODD_BREAKS, "\n"))


def _newline_breaks(text: str) -> str:
    """`text` with every line break of str.splitlines made one \\n.

    Each line keeps its fields, so line numbers and fields are unchanged.
    """
    if "\r" in text:
        text = text.replace("\r\n", "\n").replace("\r", "\n")
    if any(c in text for c in _ODD_BREAKS):
        text = text.translate(_TO_NEWLINE)
    return text


# a line with a field, the first not a comment
_CONTENT_LINE = re.compile(r"^[^\S\n]*[^#\s].*", re.M)
# a line whose first field starts with '#' (a comment) or 'm' (a mass line),
# from the line break before it
_SET_ASIDE = re.compile(r"\n[^\S\n]*[#m].*")
_EDGE_LINE = np.dtype([("u", np.int64), ("v", np.int64), ("w", np.float64)])


def _bulk_body(
    body: str, n: int
) -> tuple[np.ndarray, np.ndarray, np.ndarray, dict[int, float]] | None:
    """Edge columns and masses of the body lines, or None when a line is bad.

    `body` is the text after the header line, from the line break that
    ends it, with \\n as its only line break.
    """
    edges, masses, at = [], {}, 0
    for line in _SET_ASIDE.finditer(body):
        edges.append(body[at : line.start()])
        at = line.end()
        fields = line[0].split()
        if fields[0].startswith("#"):
            continue
        if fields[0] != "m" or len(fields) != 3:
            return None
        try:
            x, mass = int(fields[1]), float(fields[2])
        except ValueError:
            return None
        if not 0 <= x < n:
            return None
        masses[x] = mass
    edges.append(body[at:])
    text = "".join(edges)
    if not text.strip():   # loadtxt warns on input with no data
        return np.empty(0, np.int64), np.empty(0, np.int64), np.empty(0), masses
    try:
        # one string, not a list of line strings that outlive the parse
        columns = np.loadtxt(io.StringIO(text), dtype=_EDGE_LINE, comments=None, ndmin=1)
    except ValueError:   # a field int() or float() rejects, `1_0`, a non-ASCII digit or an id beyond int64
        return None
    return columns["u"], columns["v"], columns["w"], masses


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


def _parse_body_by_line(text: str, header: int, n: int) -> Graph:
    """The graph of the lines after line `header`, read one line at a time.

    Raises the ParseError of the first bad line.  When no line is bad, the
    bulk pass stopped at a field only Python reads (such as `1_0`) or at an
    id beyond int64, which build_graph rejects.
    """
    edges: list[tuple[int, int, float]] = []
    masses: dict[int, float] = {}
    for lineno, raw in enumerate(text.splitlines()[header:], start=header + 1):
        line = raw.strip()
        fields = line.split()
        if not fields or fields[0].startswith("#"):
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
            edges.append((int(fields[0]), int(fields[1]), float(fields[2])))
        except ValueError:
            raise ParseError(lineno, f"bad edge line: {line!r}")
    return build_graph(n, edges, mass=[masses.get(v, 1.0) for v in range(n)])


# edges formatted per % operation: the chunk's fields as Python objects
# stay a small part of the text
_WRITE_CHUNK = 4096


def write_graph_file(g: Graph) -> str:
    """Canonical text form: header, edges sorted by (u, v), non-unit masses.

    Edges are formatted a chunk at a time, by one '%d %d %.12g' % operation
    per chunk ('%.12g' % x is f'{x:.12g}' for every float).
    """
    parts = [f"n {g.n}\n"]
    for start in range(0, g.w.size, _WRITE_CHUNK):
        stop = min(start + _WRITE_CHUNK, g.w.size)
        fields: list = [None] * (3 * (stop - start))
        fields[0::3] = g.u[start:stop].tolist()
        fields[1::3] = g.v[start:stop].tolist()
        fields[2::3] = g.w[start:stop].tolist()
        parts.append("%d %d %.12g\n" * (stop - start) % tuple(fields))
    parts.extend(f"m {v} {_fmt(m)}\n" for v, m in enumerate(g.mass) if m != 1.0)
    return "".join(parts)


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
        lines.extend(f"  {v} [fillcolor={p.labels[v] % _DOT_COLORS + 1}];" for v in range(g.n))
    else:
        lines.extend(f"  {v};" for v in range(g.n))
    edges = zip(g.u.tolist(), g.v.tolist(), g.w.tolist())
    lines.extend(f'  {u} -- {v} [label="{_fmt(w)}"];' for u, v, w in edges)
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
        "edges": len(g.w),
        "total_weight": float(sum(g.w.tolist())),
        "components": len(ctx.components),
        "min_strength": float(s.min()) if g.n else 0.0,
        "max_strength": float(s.max()) if g.n else 0.0,
        "non_unit_masses": {str(v): m for v, m in enumerate(g.mass) if m != 1.0},
    }


def wrap_error(exc: Exception) -> str:
    kind = type(exc).__name__ if isinstance(exc, StarlapError) else "error"
    return f"{kind}: {exc}"
