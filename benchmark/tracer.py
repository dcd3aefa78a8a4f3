"""Spans around every public function of the starlap package, from outside it.

:meth:`Tracer.install` wraps each public function of the layer modules and
rebinds the wrapper in every namespace that holds the original, so calls made
through a module attribute (``eigen.sym_eigen``) and through a name imported
with ``from .graphs import laplacian`` are both recorded.  Nothing under the
package's source changes.

A span records its name, layer, start and end (``perf_counter_ns``), the span
that caused it and the CLI call it belongs to.  Spans stay in memory until
:meth:`Tracer.write`.  Some functions carry attributes read off their input
or result (the content hash and size of each eigensolve input, the edges a
parse produced); those are computed after the function's span closes, inside
a span of layer ``trace`` so that no layer is charged for them.
"""

from __future__ import annotations

import functools
import hashlib
import importlib
import inspect
import json
import re
import time
from typing import Any, Callable

import numpy as np

LAYERS = ("cli", "fileio", "graphs", "stars", "eigen", "reduction", "partition")


def _matrix_digest(args, result) -> dict[str, Any]:
    a = np.ascontiguousarray(args[0], dtype=float)
    h = hashlib.blake2b(repr(a.shape).encode(), digest_size=16)
    h.update(a.tobytes())
    return {"n": a.shape[0], "hash": h.hexdigest()}


def _kway_k(args, result) -> dict[str, Any]:
    found = re.search(r"k=(\d+)", result.provenance)
    return {"k": int(found.group(1)) if found else 1}


# function name -> attributes derived from (positional args, result)
OBSERVERS: dict[str, Callable[[tuple, Any], dict[str, Any]]] = {
    "sym_eigen": _matrix_digest,
    "parse_graph_file": lambda args, g: {"edges": len(g.edges)},
    "reduce_all": lambda args, r: {"k_bytes": r.k_matrix.nbytes},
    "reduce_star": lambda args, r: {"k_bytes": r.k_matrix.nbytes},
    "kway": _kway_k,
    "recursive_bisection": lambda args, p: {"clusters": p.n_clusters},
}


class Tracer:
    """Records the spans of one CLI call."""

    def __init__(self, call_id: int):
        self.call_id = call_id
        self.spans: list[dict[str, Any]] = []
        self._stack: list[int] = []

    def _open(self, layer: str, name: str) -> dict[str, Any]:
        span = {
            "id": len(self.spans),
            "parent": self._stack[-1] if self._stack else None,
            "call": self.call_id,
            "layer": layer,
            "name": name,
            "start": time.perf_counter_ns(),
            "end": None,
        }
        self.spans.append(span)
        self._stack.append(span["id"])
        return span

    def _close(self, span: dict[str, Any]) -> None:
        span["end"] = time.perf_counter_ns()
        self._stack.pop()

    def wrap(self, fn: Callable, layer: str) -> Callable:
        observe = OBSERVERS.get(fn.__name__)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = self._open(layer, fn.__name__)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(span)
            if observe is not None:
                inner = self._open("trace", "observe")
                span.update(observe(args, result))
                self._close(inner)
            return result

        return traced

    def install(self) -> None:
        """Wrap the public functions of each layer module of starlap."""
        modules = [importlib.import_module(f"starlap.{layer}") for layer in LAYERS]
        wrapped: dict[Callable, Callable] = {}
        for layer, module in zip(LAYERS, modules):
            for name, obj in vars(module).items():
                if (
                    inspect.isfunction(obj)
                    and obj.__module__ == module.__name__
                    and not name.startswith("_")
                ):
                    wrapped[obj] = self.wrap(obj, layer)
        for namespace in [importlib.import_module("starlap"), *modules]:
            for name, obj in list(vars(namespace).items()):
                if inspect.isfunction(obj) and obj in wrapped:
                    setattr(namespace, name, wrapped[obj])

    def write(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(self.spans, fh)
