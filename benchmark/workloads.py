"""The benchmark's workloads: graphs planted from a seed, the CLI calls that
make up one pass, and the checks every call's JSON output must satisfy.

A workload function writes its graphs into a work directory and returns a
:class:`Plan`.  Its size parameters default to the benchmark's sizes; the
tests pass smaller ones so the same code and checks run in seconds.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable

import numpy as np

from starlap import plant_ldependent_graph, plant_star_graph, save_graph

# relative tolerance for planted weights, the detectors' own equality tolerance
WEIGHT_REL = 1e-9

# verify-stars, the ROADMAP's anchor graph: every star is (m, k, w) = STAR,
# in a background of edge probability BACKGROUND_P (about 21k edges in all
# at n=1000)
STAR = (4, 3, 2.0)
BACKGROUND_P = 0.05
# ldep-dense: the common strength of the planted rows, a weight in the
# planting functions' natural range (extreme scales are out of scope)
WTILDE = 6.0
# partition-reduce: the star shapes and weights, a third of the stars each.
# `kway auto` takes k at the largest gap of the Laplacian spectrum and builds
# an n x k x k float64 tensor.  With m, k and w drawn independently per star
# and a background of 0.03, seeds 6, 27 and 35 of 1-40 have one outlying top
# eigenvalue whose gap is the largest, so k is about n and the tensor needs
# about 8 GB (test_benchmark.py keeps that case as an expected failure).
# With the counts fixed and a background of 0.05, the gap above the star
# eigenvalues was the largest by a factor of at least 1.5 on all 170 seeds
# tried (1-120, and 50 large ones), and k was 1 + sum(m - 1) + stars = 261
# on every one, so the memory peak does not depend on the seed.
MIXED_M = (3, 4, 6)
MIXED_K = (2, 3, 5)
MIXED_W = (1.0, 2.0, 3.5)
MIXED_BACKGROUND_P = 0.05

Check = Callable[[Any], list[str]]


@dataclass(frozen=True)
class Call:
    """One CLI invocation (arguments after the program) and its output check.

    The check gets the parsed JSON stdout and returns the problems it found;
    an empty list means the output agrees with the planted structure.
    """

    args: tuple[str, ...]
    check: Check


@dataclass(frozen=True)
class GraphInput:
    path: Path
    n: int
    edges: int


@dataclass(frozen=True)
class Plan:
    """A workload instance: its graph files, its `info` call and one pass."""

    graphs: tuple[GraphInput, ...]
    load: Call
    calls: tuple[Call, ...]


def _close(value: float, target: float) -> bool:
    return abs(value - target) <= WEIGHT_REL * max(1.0, abs(target))


def _write(g, path: Path) -> GraphInput:
    save_graph(g, str(path))
    return GraphInput(path=path, n=g.n, edges=len(g.edges))


def _info_call(graph: GraphInput) -> Call:
    def check(out) -> list[str]:
        summary = out["summary"]
        if (summary["vertices"], summary["edges"]) != (graph.n, graph.edges):
            return [
                f"info reports {summary['vertices']} vertices and {summary['edges']} "
                f"edges, planted {graph.n} and {graph.edges}"
            ]
        return []

    return Call(("info", str(graph.path), "--json"), check)


def _passed(out, what: str) -> list[str]:
    return [] if out["passed"] is True else [f"{what} reports passed={out['passed']}"]


def verify_stars(seed: int, workdir: Path, n: int = 1000, stars: int = 25) -> Plan:
    """One `verify --json` on a graph with `stars` identical (m, k, w) stars.

    plant_star_graph lays star i out as v1 = [i(m+k), i(m+k) + m), so the
    planted v1 sets are known without reading the graph back.
    """
    m, k, w = STAR
    graph = _write(
        plant_star_graph(seed, n, [STAR] * stars, background_p=BACKGROUND_P),
        workdir / "stars.graph",
    )
    planted = [list(range(i * (m + k), i * (m + k) + m)) for i in range(stars)]
    reduced_n = n - stars * (m - 1)

    def check(out) -> list[str]:
        problems = _passed(out, "verify")
        reported = [
            v1 for c in out["star_classes"] if _close(c["weight"], w) for v1 in c["v1_sets"]
        ]
        missing = [v1 for v1 in planted if v1 not in reported]
        if missing:
            problems.append(
                f"{len(missing)} planted star(s) not reported at weight {w}, first {missing[0]}"
            )
        if out["reduction"]["reduced_vertices"] != reduced_n:
            problems.append(
                f"reduced to {out['reduction']['reduced_vertices']} vertices, expected {reduced_n}"
            )
        return problems

    return Plan(
        graphs=(graph,),
        load=_info_call(graph),
        calls=(Call(("verify", str(graph.path), "--json"), check),),
    )


def ldep_dense(seed: int, workdir: Path, sizes: tuple[int, int, int] = (10, 400, 90)) -> Plan:
    """`ldep --json` then `verify --json` on a dense planted dependent-row graph.

    No two rows are identical, so the dependent-row path and the worst case of
    the proportional-row scan do real work.
    """
    graph = _write(plant_ldependent_graph(seed, sizes, WTILDE), workdir / "ldep.graph")
    l = sizes[2]

    def planted_found(partitions, what: str) -> list[str]:
        if any(p["l"] == l and _close(p["wtilde"], WTILDE) for p in partitions):
            return []
        return [f"{what} reports no partition with l={l} at wtilde={WTILDE}"]

    def check_ldep(out) -> list[str]:
        return _passed(out, "ldep") + planted_found(out["partitions"], "ldep")

    def check_verify(out) -> list[str]:
        return _passed(out, "verify") + planted_found(out["dependent_rows"], "verify")

    path = str(graph.path)
    return Plan(
        graphs=(graph,),
        load=_info_call(graph),
        calls=(
            Call(("ldep", path, "--json"), check_ldep),
            Call(("verify", path, "--json"), check_verify),
        ),
    )


def partition_reduce(
    seed: int, workdir: Path, n: int = 1000, stars: int = 60, max_clusters: int = 8
) -> Plan:
    """Partition, reduce and compare on a graph rich in stars of mixed shape.

    Each value of MIXED_M, MIXED_K and MIXED_W goes to a third of the stars,
    and the seed decides which stars get which values (from a stream separate
    from the one plant_star_graph draws from).
    """
    rng = np.random.default_rng([seed, 1])
    columns = [
        rng.permutation(np.repeat(values, stars // 3)) for values in (MIXED_M, MIXED_K, MIXED_W)
    ]
    specs = [(int(m), int(k), float(w)) for m, k, w in zip(*columns)]
    graph = _write(
        plant_star_graph(seed, n, specs, background_p=MIXED_BACKGROUND_P),
        workdir / "mixed.graph",
    )
    reduced_n = n - sum(m - 1 for m, _, _ in specs)
    reduced_path = workdir / "reduced.graph"
    report_path = workdir / "report.json"

    def labels_check(mode: str, clusters: int | None) -> Check:
        def check(out) -> list[str]:
            labels = out["labels"]
            if len(labels) != n:
                return [f"{mode}: {len(labels)} labels for {n} vertices"]
            found = len(set(labels))
            if set(labels) != set(range(found)):
                return [f"{mode}: cluster ids are not 0..{found - 1}"]
            if clusters is not None and found != clusters:
                return [f"{mode}: {found} clusters, expected {clusters}"]
            return []

        return check

    def check_reduce(out) -> list[str]:
        problems = _passed(out["reduction"], "reduce")
        if out["reduction"]["reduced_vertices"] != reduced_n:
            problems.append(
                f"reduced to {out['reduction']['reduced_vertices']} vertices, expected {reduced_n}"
            )
        if json.loads(report_path.read_text(encoding="utf-8")) != out:
            problems.append("report file differs from the JSON output")
        header = reduced_path.read_text(encoding="utf-8").split("\n", 1)[0]
        if header != f"n {reduced_n}":
            problems.append(f"reduced graph file starts {header!r}, expected 'n {reduced_n}'")
        return problems

    def check_compare(out) -> list[str]:
        if out["degenerate"]:
            return [] if out["reason"] else ["inconclusive comparison gives no reason"]
        if out["agreement_fraction"] != 1.0:
            return [f"sign agreement fraction {out['agreement_fraction']}"]
        return []

    path = str(graph.path)
    return Plan(
        graphs=(graph,),
        load=_info_call(graph),
        calls=(
            Call(("partition", path, "--bisect", "--json"), labels_check("bisect", 2)),
            Call(("partition", path, "--kway", "auto", "--json"), labels_check("kway", None)),
            Call(
                ("partition", path, "--rsb", "--max-clusters", str(max_clusters), "--json"),
                labels_check("rsb", max_clusters),
            ),
            Call(
                ("reduce", path, "-o", str(reduced_path), "--report", str(report_path), "--json"),
                check_reduce,
            ),
            Call(("compare", path, "--json"), check_compare),
        ),
    )


WORKLOADS: dict[str, Callable[[int, Path], Plan]] = {
    "verify-stars": verify_stars,
    "ldep-dense": ldep_dense,
    "partition-reduce": partition_reduce,
}
