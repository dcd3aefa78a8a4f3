"""Tests of the benchmark itself: inputs that depend only on the seed, output
checks that catch wrong results, and a tracer that leaves the CLI's output
unchanged.

Run from the repository root:
    python3 -m pytest benchmark -q
"""

from __future__ import annotations

import json
import resource
import sys
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import run  # noqa: E402
import workloads  # noqa: E402
from layers import UNITS, pass_metrics  # noqa: E402
from starlap import plant_star_graph, save_graph  # noqa: E402

# the same workloads, small enough that every call takes well under a second
SMALL = {
    "verify-stars": dict(n=60, stars=3),
    "ldep-dense": dict(sizes=(3, 12, 5)),
    "partition-reduce": dict(n=80, stars=3, max_clusters=3),
}


def small_plan(name: str, seed: int, workdir: Path) -> workloads.Plan:
    return workloads.WORKLOADS[name](seed, workdir, **SMALL[name])


def plain_outputs(name: str, tmp_path: Path, seed: int = 5) -> list[tuple[workloads.Call, dict]]:
    plan = small_plan(name, seed, tmp_path)
    bench = run.Bench(None, seed, tmp_path)
    out = []
    for call in plan.calls:
        result = bench.call([*run.CLI, *call.args], call)
        assert result.problems == []
        out.append((call, json.loads(result.stdout)))
    return out


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_same_seed_writes_identical_graph_files(name, tmp_path):
    def files(seed: int, sub: str) -> list[bytes]:
        workdir = tmp_path / sub
        workdir.mkdir()
        plan = workloads.WORKLOADS[name](seed, workdir)
        return [g.path.read_bytes() for g in plan.graphs]

    assert files(3, "a") == files(3, "b")
    assert files(3, "a2") != files(4, "c")


def test_verify_stars_checker_flags_tampered_output(tmp_path):
    [(call, out)] = plain_outputs("verify-stars", tmp_path)
    assert call.check(out) == []

    assert call.check({**out, "passed": False})
    first_class = out["star_classes"][0]
    dropped = {**first_class, "v1_sets": first_class["v1_sets"][1:]}
    assert call.check({**out, "star_classes": [dropped] + out["star_classes"][1:]})
    moved = {**first_class, "weight": first_class["weight"] * 1.5}
    assert call.check({**out, "star_classes": [moved] + out["star_classes"][1:]})
    reduction = {**out["reduction"], "reduced_vertices": out["reduction"]["reduced_vertices"] + 1}
    assert call.check({**out, "reduction": reduction})


def test_ldep_dense_checker_flags_tampered_output(tmp_path):
    (ldep, ldep_out), (verify, verify_out) = plain_outputs("ldep-dense", tmp_path)
    assert ldep.check({**ldep_out, "passed": False})
    assert verify.check({**verify_out, "passed": False})
    wrong_l = [{**p, "l": p["l"] - 1} for p in ldep_out["partitions"]]
    assert ldep.check({**ldep_out, "partitions": wrong_l})
    wrong_w = [{**p, "wtilde": p["wtilde"] * (1 + 1e-6)} for p in verify_out["dependent_rows"]]
    assert verify.check({**verify_out, "dependent_rows": wrong_w})


def test_partition_reduce_checker_flags_tampered_output(tmp_path):
    (bisect, b), (kway, k), (rsb, r), (reduce, red), (compare, cmp) = plain_outputs(
        "partition-reduce", tmp_path
    )
    assert bisect.check({**b, "labels": b["labels"][:-1]})
    assert kway.check({**k, "labels": [x + 1 for x in k["labels"]]})
    assert rsb.check({**r, "labels": [min(x, 1) for x in r["labels"]]})
    reduction = {**red["reduction"], "reduced_vertices": red["reduction"]["reduced_vertices"] - 1}
    assert reduce.check({**red, "reduction": reduction})
    assert reduce.check({**red, "reduction": {**red["reduction"], "passed": False}})
    assert compare.check({**cmp, "degenerate": False, "agreement_fraction": 0.5})
    assert compare.check({**cmp, "degenerate": True, "reason": ""})


def test_unreadable_or_failing_call_is_a_problem(tmp_path):
    plan = small_plan("verify-stars", 5, tmp_path)
    call = plan.calls[0]
    missing = workloads.Call(("verify", str(tmp_path / "absent.graph"), "--json"), call.check)
    bench = run.Bench(None, 5, tmp_path)
    assert bench.call([*run.CLI, *missing.args], missing).problems
    assert bench.failed == 1 and bench.attempted == 1


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_traced_call_writes_the_same_stdout(name, tmp_path):
    plan = small_plan(name, 7, tmp_path)
    bench = run.Bench(None, 7, tmp_path)
    for call in plan.calls:
        plain = bench.call([*run.CLI, *call.args], call)
        traced, _ = bench.traced_pass(workloads.Plan(plan.graphs, plan.load, (call,)))
        assert traced.calls[0].stdout == plain.stdout
    assert bench.failed == 0


def test_traced_verify_counts(tmp_path):
    plan = small_plan("verify-stars", 5, tmp_path)
    bench = run.Bench(None, 5, tmp_path)
    _, metrics = bench.traced_pass(plan)
    assert set(metrics) | {"trace.overhead_frac"} == set(UNITS)
    assert metrics["eigen.solves"] == 17
    assert metrics["reduction.check_calls"] == 4
    assert metrics["stars.proportional_calls"] == 2
    assert metrics["fileio.edges_parsed"] > 0
    assert 0 < metrics["eigen.distinct_matrices"] < metrics["eigen.solves"]


def test_pass_metrics_self_time_excludes_children():
    spans = [
        {"id": 0, "parent": None, "layer": "cli", "name": "run_cli", "start": 0, "end": 10_000},
        {"id": 1, "parent": 0, "layer": "graphs", "name": "laplacian", "start": 1000, "end": 4000},
        {"id": 2, "parent": 1, "layer": "graphs", "name": "adjacency", "start": 1500, "end": 2500},
        {"id": 3, "parent": 0, "layer": "trace", "name": "observe", "start": 5000, "end": 6000},
    ]
    metrics = pass_metrics([(spans, 12)])
    assert metrics["cli.self_s"] == pytest.approx(6e-6)
    assert metrics["graphs.self_s"] == pytest.approx(3e-6)
    assert metrics["graphs.matrix_builds"] == 1
    assert metrics["graphs.adjacency_calls"] == 1
    assert metrics["cli.output_bytes"] == 12


def test_run_starts_no_step_that_would_end_past_the_deadline(monkeypatch):
    clock = [0.0]
    monkeypatch.setattr(run.time, "perf_counter", lambda: clock[0])
    starts: list[float] = []

    def step():
        starts.append(clock[0])
        clock[0] += 10.0

    run.repeat_until(35.0, step)
    assert starts == [0.0, 10.0, 20.0]
    starts.clear()
    run.repeat_until(clock[0] + 5.0, step)
    assert len(starts) == 1


def test_inclusive_time_excludes_the_tracers_work():
    spans = [
        {"id": 0, "parent": None, "layer": "cli", "name": "run_cli", "start": 0, "end": 10_000},
        {"id": 1, "parent": 0, "layer": "stars", "name": "predict_multiplicities", "start": 1000, "end": 6000},
        {"id": 2, "parent": 1, "layer": "eigen", "name": "sym_eigen", "start": 1500, "end": 3000},
        {"id": 3, "parent": 1, "layer": "trace", "name": "observe", "start": 3000, "end": 4000},
    ]
    metrics = pass_metrics([(spans, 0)])
    assert metrics["stars.predict_s"] == pytest.approx(4e-6)
    assert metrics["eigen.solve_s"] == pytest.approx(1.5e-6)
    assert metrics["stars.self_s"] == pytest.approx(2.5e-6)


@pytest.fixture
def address_space_limit():
    """The benchmark's memory cap on this process and the calls it starts."""
    old = resource.getrlimit(resource.RLIMIT_AS)
    run.limit_address_space()
    yield
    resource.setrlimit(resource.RLIMIT_AS, old)


@pytest.mark.xfail(
    strict=True, reason="kway auto picks k=999 and needs an 8 GB n*k*k distance tensor"
)
def test_kway_auto_on_stars_drawn_independently(tmp_path, address_space_limit):
    """partition-reduce's graph with m, k and w drawn per star at background 0.03.

    At seed 6 the largest gap of the Laplacian spectrum is the top one, so
    `kway auto` takes k=999 and fails under the memory cap.  partition-reduce
    fixes how many stars get each value (see workloads.py); this test keeps
    the defect in view and starts passing once `kway auto` is fixed.
    """
    seed, n = 6, 1000
    rng = np.random.default_rng([seed, 1])
    specs = [
        (int(rng.choice(workloads.MIXED_M)), int(rng.choice(workloads.MIXED_K)),
         float(rng.choice(workloads.MIXED_W)))
        for _ in range(60)
    ]
    path = tmp_path / "drawn.graph"
    save_graph(plant_star_graph(seed, n, specs, background_p=0.03), str(path))

    def check(out) -> list[str]:
        return [] if len(out["labels"]) == n else [f"{len(out['labels'])} labels for {n} vertices"]

    call = workloads.Call(("partition", str(path), "--kway", "auto", "--json"), check)
    result = run.Bench(None, seed, tmp_path).call([*run.CLI, *call.args], call)
    assert result.problems == []


def test_benchmark_json_matches_the_code():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END_UNITS
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == UNITS
    assert spec["paths"] == [BENCH.name]
