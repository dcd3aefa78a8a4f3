"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines as they complete.
"""

import importlib.util
import json
import os
import sys
import time
from pathlib import Path

import numpy as np
import pytest

from starlap import (
    analyze,
    build_graph,
    compare_signs,
    detect_stars,
    fiedler,
    group_by_weight,
    group_multiplicities,
    kway,
    lift_vector,
    plant_ldependent_graph,
    plant_star_graph,
    recursive_bisection,
    reduce_all,
    save_graph,
    sign_bipartition,
    strengths,
    sym_eigen,
    verify_ldependent,
)
from starlap.cli import run_cli

from conftest import adjacency_checks, interlacing, laplacian_checks, reduce_one
from reference import adjacency, multiplicity_at


def report(criterion: str, passed: bool, detail: str) -> None:
    print(f"[{criterion}] {'PASS' if passed else 'FAIL'} - {detail}")
    assert passed, f"{criterion}: {detail}"


def bipartite_closed_form(a: int, b: int) -> list[float]:
    """Independent oracle: Laplacian spectrum of the unit complete bipartite graph."""
    return sorted([0.0] + [float(b)] * (a - 1) + [float(a)] * (b - 1) + [float(a + b)])


def multiplicities(matrix: np.ndarray, tol: float = 1e-8):
    return group_multiplicities(sym_eigen(matrix).values, tol)


def test_criterion_1_star_multiplicity_fixture(f1):
    start = time.time()
    values = sym_eigen(analyze(f1).matrix("laplacian")).values
    oracle = bipartite_closed_form(3, 2)
    spectrum_ok = np.abs(values - np.array(oracle)).max() <= 1e-10
    assert oracle == [0.0, 2.0, 2.0, 3.0, 5.0]
    computed = multiplicity_at(multiplicities(analyze(f1).matrix("laplacian")), 2.0)
    elapsed = time.time() - start
    report(
        "A1",
        spectrum_ok and computed >= 2 and elapsed < 1.0,
        f"spectrum {np.round(values, 10).tolist()}, mult(2)={computed}>=2, {elapsed:.2f}s",
    )


def test_criterion_2_star_multiplicity_randomized():
    start = time.time()
    failures = []
    for seed in range(200):
        rng = np.random.default_rng(seed)
        specs = [
            (int(rng.integers(2, 5)), int(rng.integers(1, 4)), float(rng.choice([0.5, 1.0, 2.0])))
            for _ in range(int(rng.integers(1, 4)))
        ]
        total = sum(m + k for m, k, _ in specs)
        n = min(100, total + int(rng.integers(0, 15)))
        g = plant_star_graph(seed=seed, n=n, star_specs=specs)
        classes = group_by_weight(detect_stars(g))
        lap_table = multiplicities(analyze(g).matrix("laplacian"))
        signless_table = multiplicities(analyze(g).matrix("signless"))
        normalized_table = multiplicities(analyze(g).matrix("normalized"))
        for c in classes:
            if multiplicity_at(lap_table, c.weight) < c.degree:
                failures.append((seed, "laplacian", c.weight))
            if multiplicity_at(signless_table, c.weight) < c.degree:
                failures.append((seed, "signless", c.weight))
        total_degree = sum(c.degree for c in classes)
        if multiplicity_at(normalized_table, 1.0) < total_degree:
            failures.append((seed, "normalized", 1.0))
    elapsed = time.time() - start
    report(
        "A2",
        not failures and elapsed < 30.0,
        f"200 planted star graphs, failures={failures[:3]}, {elapsed:.1f}s",
    )


def test_criterion_3_dependent_rows_randomized():
    start = time.time()
    failures = []
    cases = [(2, 3, 1, 6.0), (3, 4, 3, 4.0)]   # the two documented cardinalities
    rng_master = np.random.default_rng(1234)
    while len(cases) < 200:
        cases.append(
            (
                int(rng_master.integers(1, 4)),
                int(rng_master.integers(1, 5)),
                int(rng_master.integers(0, 5)),
                float(rng_master.choice([4.0, 6.0])),
            )
        )
    for seed, (m1, k, l, wt) in enumerate(cases):
        g = plant_ldependent_graph(seed=seed, sizes=(m1, k, l), wtilde=wt)
        v1 = list(range(m1))
        v2 = list(range(m1, m1 + k))
        v3 = list(range(m1 + k, m1 + k + l))
        part = verify_ldependent(g, v1, v2, v3)
        if part.l != l:
            failures.append((seed, "partition"))
            continue
        if multiplicity_at(multiplicities(analyze(g).matrix("laplacian")), wt) < l:
            failures.append((seed, "laplacian", wt, l))
        if np.all(strengths(g) > 0) and multiplicity_at(
            multiplicities(analyze(g).matrix("normalized")), 1.0
        ) < l:
            failures.append((seed, "normalized", l))
    elapsed = time.time() - start
    report(
        "A3",
        not failures and elapsed < 30.0,
        f"200 planted dependent-row graphs (incl. l=1 w=6 and l=3 w=4), "
        f"failures={failures[:3]}, {elapsed:.1f}s",
    )


def _planted_reduction(seed: int):
    rng = np.random.default_rng(seed)
    m, k = int(rng.integers(2, 5)), int(rng.integers(1, 4))
    w = float(rng.choice([0.5, 1.0, 2.0]))
    n = m + k + int(rng.integers(0, 12))
    g = plant_star_graph(seed=seed, n=n, star_specs=[(m, k, w)])
    qs = [
        int(rng.integers(1, s.m)) if s.weight_uniform is not None else 0
        for s in detect_stars(g)
    ]
    return g, reduce_all(g, qs)


def test_criterion_4_adjacency_reduction(f1):
    start = time.time()
    failures = []
    for q in (1, 2):
        r = reduce_one(f1, detect_stars(f1)[0], q)
        k = r.k_matrix
        if np.abs(k.T @ k - np.eye(r.reduced.n)).max() > 1e-10:
            failures.append(("f1", q, "orthonormality"))
        root = np.sqrt(np.asarray(r.reduced.mass))
        target = adjacency(r.reduced) * np.outer(root, root)
        if np.abs(k.T @ adjacency(f1) @ k - target).max() > 1e-9:
            failures.append(("f1", q, "congruence"))
        if failed := [c.name for c in adjacency_checks(f1, r) if not c.passed]:
            failures.append(("f1", q, failed))
    for seed in range(200):
        g, r = _planted_reduction(seed)
        if failed := [c.name for c in adjacency_checks(g, r) if not c.passed]:
            failures.append((seed, failed))
    elapsed = time.time() - start
    report(
        "A4",
        not failures,
        f"f1 q in (1, 2) plus 200 planted reductions, failures={failures[:3]}, {elapsed:.1f}s",
    )


def test_criterion_5_laplacian_reduction(f1):
    start = time.time()
    failures = []
    r = reduce_one(f1, detect_stars(f1)[0], 1)
    tilde_values = sym_eigen(analyze(r.reduced).matrix("mass-laplacian")).values
    if np.abs(tilde_values - np.array([0.0, 2.0, 3.0, 5.0])).max() > 1e-10:
        failures.append(("f1 q=1 spectrum", tilde_values.tolist()))
    spec = sym_eigen(analyze(r.reduced).matrix("mass-laplacian"))
    lifted = lift_vector(r, spec.vectors[:, int(np.argmin(np.abs(spec.values - 5.0)))])
    lifted /= np.linalg.norm(lifted)
    target = np.array([1.0, 1.0, 1.0, -1.5, -1.5])
    target /= np.linalg.norm(target)
    if min(np.abs(lifted - target).max(), np.abs(lifted + target).max()) > 1e-8:
        failures.append(("f1 q=1 lift", lifted.tolist()))
    if not all(c.passed for c in laplacian_checks(f1, r)):
        failures.append(("f1 q=1 record",))
    for seed in range(200):
        g, r = _planted_reduction(seed)
        if failed := [c.name for c in laplacian_checks(g, r) if not c.passed]:
            failures.append((seed, failed))
    elapsed = time.time() - start
    report(
        "A5",
        not failures,
        f"fixture spectrum/lift plus 200 planted reductions, failures={failures[:3]}, {elapsed:.1f}s",
    )


def test_criterion_6_interlacing():
    start = time.time()
    failures = []
    for seed in range(500):
        rng = np.random.default_rng(seed + 50_000)
        m, k = int(rng.integers(2, 5)), int(rng.integers(1, 4))
        n_extra = int(rng.integers(0, 30)) if seed % 25 else int(rng.integers(120, 190))
        n = min(200, m + k + n_extra)
        g = plant_star_graph(seed=seed, n=n, star_specs=[(m, k, 2.0)])
        r = reduce_all(g, "collapse")
        if not interlacing(g, r).passed:
            failures.append(seed)
    elapsed = time.time() - start
    report(
        "A6",
        not failures and elapsed < 120.0,
        f"500 planted reductions up to n=200, failures={failures[:5]}, {elapsed:.1f}s",
    )


def test_criterion_7_sign_agreement():
    start = time.time()
    excluded, disagreements = 0, []
    total = 200
    for seed in range(total):
        rng = np.random.default_rng(seed + 10_000)
        m, k = int(rng.integers(2, 4)), int(rng.integers(1, 3))
        nb = int(rng.integers(8, 15))
        g = plant_star_graph(seed=seed, n=m + k + nb, star_specs=[(m, k, 2.0)], background_p=0.35)
        qs = [1 if s.weight_uniform is not None else 0 for s in detect_stars(g)]
        rep = compare_signs(g, reduce_all(g, qs))
        if rep.degenerate:
            excluded += 1
            continue
        if rep.agreement_fraction != 1.0:
            disagreements.append(seed)
    elapsed = time.time() - start
    clean = total - excluded
    report(
        "A7",
        not disagreements and clean >= total // 2,
        f"{clean}/{total} conclusive seeds, all agree after global flip "
        f"({excluded} inconclusive), {elapsed:.1f}s",
    )


def test_criterion_8_partition_sanity(f4, two_triangles):
    failures = []
    result = fiedler(f4)
    if np.sign(result.vector).tolist() != [1.0, 1.0, -1.0, -1.0]:
        failures.append("f4 signs")
    if abs(result.lambda2 - (2.0 - np.sqrt(2.0))) > 1e-10:
        failures.append("f4 lambda2")
    expected = (0, 0, 0, 1, 1, 1)
    if sign_bipartition(two_triangles).labels != expected:
        failures.append("bisect")
    if recursive_bisection(two_triangles, max_clusters=2).labels != expected:
        failures.append("rsb")
    if kway(two_triangles, 2).labels != expected:
        failures.append("kway")
    report("A8", not failures, f"path fixture and triangle pair, failures={failures}")


def test_criterion_9_cli_contract(tmp_path, capsys, f1, f2, f3, f4):
    failures = []
    paths = {}
    for name, g in (("f1", f1), ("f2", f2), ("f3", f3), ("f4", f4)):
        paths[name] = str(tmp_path / f"{name}.graph")
        save_graph(g, paths[name])

    if run_cli(["verify", paths["f1"], "--q", "1"]) != 0:
        failures.append("verify f1 --q 1")
    for name in ("f2", "f3", "f4"):
        if run_cli(["verify", paths[name]]) != 0:
            failures.append(f"verify {name}")

    mutated_edges = [(u, v, 1.1 if (u, v) == (0, 3) else w) for u, v, w in f1.edges]
    mutated_path = str(tmp_path / "mutated.graph")
    save_graph(build_graph(5, mutated_edges), mutated_path)
    capsys.readouterr()
    code = run_cli(["verify", mutated_path, "--q", "1"])
    captured = capsys.readouterr()
    if code != 2:
        failures.append(f"mutated exit {code}")
    if "FAIL reduction-requested(q=1)" not in captured.out:
        failures.append("mutated check not named")

    for argv in (["--json", "verify", paths["f2"]], ["--json", "stars", paths["f1"]]):
        run_cli(argv)
        first = capsys.readouterr().out
        run_cli(argv)
        second = capsys.readouterr().out
        if first != second or not first:
            failures.append(f"json instability {argv}")
        json.loads(first)   # must be valid JSON

    with capsys.disabled():
        report("A9", not failures, f"exit codes and byte-stable JSON, failures={failures}")


def test_random_sweep_script_runs(monkeypatch, capsys):
    spec = importlib.util.spec_from_file_location(
        "random_sweep", Path(__file__).resolve().parents[1] / "scripts" / "random_sweep.py"
    )
    sweep = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(sweep)
    monkeypatch.setattr(sys, "argv", ["random_sweep.py", "--graphs", "5"])
    sweep.main()   # raises SystemExit(2) when any claim fails
    out = capsys.readouterr().out
    assert out.startswith("5 graphs") and "FAIL" not in out
    assert " relabelled " in out and " near-ties " in out


def test_call_rss_script_runs(capsys, monkeypatch, tmp_path):
    root = Path(__file__).resolve().parents[1]
    spec = importlib.util.spec_from_file_location("call_rss", root / "scripts" / "call_rss.py")
    call_rss = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(call_rss)
    graph = str(root / "tests" / "golden" / "f1.graph")
    src = str(root / "src")
    # the same sources again, at a path of another length
    longer = tmp_path / "a-longer-directory-name" / "src"
    longer.parent.mkdir()
    longer.symlink_to(src)
    run_once, ran_from = call_rss.run_once, []

    def recorded(tree, call, out_path):
        ran_from.append((tree, os.path.realpath(tree)))
        return run_once(tree, call, out_path)

    monkeypatch.setattr(call_rss, "run_once", recorded)
    argv = ["--src", src, "--src", str(longer), "--runs", "1", "--", "verify", graph, "--json"]
    assert call_rss.main(argv) == 0
    # both run from links of one path length to the same sources
    assert len(src) != len(str(longer)) and len({len(tree) for tree, _ in ran_from}) == 1
    assert [real for _, real in ran_from] == [src, src]
    out = capsys.readouterr().out.splitlines()
    assert [line.split(":")[0] for line in out[1:]] == [
        f"tree 1 {src}", f"tree 2 {longer}", "stdout", "exit code"
    ]
    assert out[-2:] == ["stdout: same on every run", "exit code: 0"]
    for line in out[1:3]:
        # one run per tree: its median, minimum and maximum are that run's
        rss = line.split("peak_rss_mb ")[1].split(", wall_s")[0]
        peak = rss.split()[0]
        assert float(peak) > 0 and rss == f"{peak} [{peak}, {peak}]"
