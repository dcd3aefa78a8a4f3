"""Per-layer metrics of one traced pass, derived from the spans of its calls.

Times are in seconds.  An "inclusive" time sums the spans of a set of
functions, counting a span only when none of its ancestors is in the same
set, so nested calls are not counted twice, and takes from each span the
spans of layer ``trace`` (the tracer's own bookkeeping) below it.  A layer's
self time is the sum, over its spans, of each span's duration minus the
durations of its direct children; ``trace`` spans are children like any
other.  So no layer is charged for the tracer's work.
"""

from __future__ import annotations

from collections import Counter
from typing import Any, Iterable, Iterator

from tracer import LAYERS

MATRIX_BUILDERS = {"adjacency", "laplacian", "signless_laplacian", "normalized_laplacian"}
REDUCTION_VERIFIERS = {"verify_adjacency_reduction", "verify_laplacian_reduction"}

# metric -> unit; the order is the order of the report
UNITS: dict[str, str] = {
    **{f"{layer}.self_s": "s" for layer in LAYERS},
    "cli.output_bytes": "bytes",
    "fileio.load_s": "s",
    "fileio.edges_parsed": "count",
    "fileio.write_s": "s",
    "graphs.matrix_builds": "count",
    "graphs.adjacency_calls": "count",
    "graphs.components_calls": "count",
    "stars.proportional_s": "s",
    "stars.proportional_calls": "count",
    "stars.dependent_rows_s": "s",
    "stars.detect_stars_calls": "count",
    "stars.predict_s": "s",
    "eigen.solves": "count",
    "eigen.distinct_matrices": "count",
    "eigen.repeat_frac": "ratio",
    "eigen.solve_s": "s",
    "eigen.work_n3": "count",
    "reduction.reduce_s": "s",
    "reduction.check_calls": "count",
    "reduction.check_s": "s",
    "reduction.k_bytes": "bytes",
    "partition.fiedler_calls": "count",
    "partition.fiedler_per_split": "ratio",
    "partition.rsb_s": "s",
    "partition.kway_s": "s",
    "partition.kway_k": "count",
    "partition.compare_s": "s",
    "trace.overhead_frac": "ratio",
}


class CallSpans:
    """The spans of one CLI call, indexed for the queries below."""

    def __init__(self, spans: list[dict[str, Any]]):
        self.spans = spans
        self.by_id = {s["id"]: s for s in spans}
        self.child_ns: Counter[int] = Counter()
        self.trace_ns: Counter[int] = Counter()
        for s in spans:
            if s["parent"] is not None:
                self.child_ns[s["parent"]] += s["end"] - s["start"]
            if s["layer"] == "trace":
                for ancestor in self.ancestors(s):
                    self.trace_ns[ancestor["id"]] += s["end"] - s["start"]

    def named(self, names: Iterable[str]) -> list[dict[str, Any]]:
        names = set(names)
        return [s for s in self.spans if s["name"] in names and s["layer"] != "trace"]

    def ancestors(self, span: dict[str, Any]) -> Iterator[dict[str, Any]]:
        parent = span["parent"]
        while parent is not None:
            yield self.by_id[parent]
            parent = self.by_id[parent]["parent"]

    def has_ancestor(self, span: dict[str, Any], names: set[str]) -> bool:
        return any(a["name"] in names for a in self.ancestors(span))

    def inclusive_s(self, *names: str) -> float:
        wanted = set(names)
        return sum(
            s["end"] - s["start"] - self.trace_ns[s["id"]]
            for s in self.named(wanted)
            if not self.has_ancestor(s, wanted)
        ) / 1e9

    def count(self, *names: str) -> int:
        return len(self.named(names))

    def self_s(self, layer: str) -> float:
        return sum(
            s["end"] - s["start"] - self.child_ns[s["id"]]
            for s in self.spans
            if s["layer"] == layer
        ) / 1e9


def pass_metrics(calls: list[tuple[list[dict[str, Any]], int]]) -> dict[str, float]:
    """Per-layer metrics of a pass from (spans, stdout bytes) of each call.

    eigen.distinct_matrices counts distinct eigensolve inputs within each
    call and sums over calls; reduction.k_bytes and partition.kway_k are
    the largest of any call.  A function that raised has no attributes and
    adds nothing to them.  trace.overhead_frac needs the untraced pass and
    is left to the caller.
    """
    total: Counter[str] = Counter()
    k_bytes = kway_k = rsb_fiedler = rsb_splits = 0
    for spans, output_bytes in calls:
        c = CallSpans(spans)
        for layer in LAYERS:
            total[f"{layer}.self_s"] += c.self_s(layer)
        solves = c.named({"sym_eigen"})
        total.update(
            {
                "cli.output_bytes": output_bytes,
                "fileio.load_s": c.inclusive_s("load_graph"),
                "fileio.edges_parsed": sum(s.get("edges", 0) for s in c.named({"parse_graph_file"})),
                "fileio.write_s": c.inclusive_s("save_graph"),
                "graphs.matrix_builds": sum(
                    not c.has_ancestor(s, MATRIX_BUILDERS) for s in c.named(MATRIX_BUILDERS)
                ),
                "graphs.adjacency_calls": c.count("adjacency"),
                "graphs.components_calls": c.count("connected_components"),
                "stars.proportional_s": c.inclusive_s("detect_proportional_ldependent"),
                "stars.proportional_calls": c.count("detect_proportional_ldependent"),
                "stars.dependent_rows_s": c.inclusive_s("dependence_split", "verify_ldependent"),
                "stars.detect_stars_calls": c.count("detect_stars"),
                "stars.predict_s": c.inclusive_s("predict_multiplicities", "verify_star_predictions"),
                "eigen.solves": len(solves),
                "eigen.distinct_matrices": len({s["hash"] for s in solves if "hash" in s}),
                "eigen.solve_s": c.inclusive_s("sym_eigen"),
                "eigen.work_n3": sum(s.get("n", 0) ** 3 for s in solves),
                "reduction.reduce_s": c.inclusive_s("reduce_all", "reduce_star"),
                "reduction.check_calls": c.count(*REDUCTION_VERIFIERS),
                "reduction.check_s": c.inclusive_s(*REDUCTION_VERIFIERS),
                "partition.fiedler_calls": c.count("fiedler", "reduced_fiedler"),
                "partition.rsb_s": c.inclusive_s("recursive_bisection"),
                "partition.kway_s": c.inclusive_s("kway"),
                "partition.compare_s": c.inclusive_s("compare_signs"),
            }
        )
        k_bytes = max([k_bytes] + [s.get("k_bytes", 0) for s in c.named({"reduce_all", "reduce_star"})])
        kway_k = max([kway_k] + [s.get("k", 0) for s in c.named({"kway"})])
        rsb = {"recursive_bisection"}
        rsb_fiedler += sum(c.has_ancestor(s, rsb) for s in c.named({"fiedler"}))
        rsb_splits += sum(s.get("clusters", 1) - 1 for s in c.named(rsb))
    metrics = {name: float(total[name]) for name in UNITS if name != "trace.overhead_frac"}
    solves = total["eigen.solves"]
    metrics["eigen.repeat_frac"] = 1.0 - total["eigen.distinct_matrices"] / solves if solves else 0.0
    metrics["reduction.k_bytes"] = float(k_bytes)
    metrics["partition.kway_k"] = float(kway_k)
    metrics["partition.fiedler_per_split"] = rsb_fiedler / rsb_splits if rsb_splits else 0.0
    return metrics
