#!/usr/bin/env python3
"""Benchmark of the starlap command-line tool on graphs planted from a seed.

Usage (from the repository root):
    python3 benchmark/run.py --workload verify-stars --seed 1 --seconds 40 --trace 0

Every CLI call is a fresh process, started only after the previous one has
ended: a closed loop with one client.  BLAS keeps its default thread count,
which the report records.  A pass is the workload's fixed list of calls (see
workloads.py).  The run repeats passes while the next one, taking as long as
the last, would end within --seconds of the start; so a run overruns
--seconds only when its first pass alone is longer, or by as much as its
last pass took longer than the one before.

--trace 0 reports the end-to-end metrics of untraced calls:
    pass_s       median wall time of one pass
    peak_rss_mb  median over passes of the largest peak RSS of any call
    setup_s      median time to plant and write the workload's graphs, over
                 SETUP_REPEATS back-to-back set-ups before every pass
and prints, without putting it in the result line,
    load_s       median wall time of a fresh `info --json` call on the graph
--trace 1 alternates untraced and traced passes and reports the per-layer
metrics of layers.py, with trace.overhead_frac = traced pass_s / untraced
pass_s - 1.

Each call's exit code and JSON output are checked against the planted
structure; a call that fails a check counts in "failed", and failed_frac is
printed with the metrics.  The last line of standard output is the result:
{"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}.
"""

from __future__ import annotations

import argparse
import contextlib
import ctypes
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from layers import UNITS as LAYER_UNITS, pass_metrics

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
TRACED_CLI = BENCH_DIR / "traced_cli.py"
# the entry point of the installed `starlap` script, run from the source tree
CLI = ("-c", "from starlap.cli import main; main()")

# the end-to-end metrics of BENCHMARK.json, each with a bound
END_TO_END_UNITS = {"pass_s": "s", "peak_rss_mb": "MB", "setup_s": "s"}
# printed by name but not bounded: load_s, a 0.2 s process, swings with the
# machine's speed state by more than the largest bound allowed (see README.md)
PRINTED_UNITS = {**END_TO_END_UNITS, "load_s": "s"}
CALL_TIMEOUT_S = 150
# set-ups timed before each pass: a set-up is short, and the machine's speed
# swings, so one run needs many set-up samples for a steady median
SETUP_REPEATS = 3
# address-space limit of the benchmark and every call it starts, so that a
# call whose memory explodes fails alone instead of exhausting the machine
MEMORY_LIMIT_BYTES = 3 << 30


@dataclass
class CallResult:
    seconds: float
    peak_rss_mb: float
    stdout: bytes
    problems: list[str]


@dataclass
class PassResult:
    calls: list[CallResult] = field(default_factory=list)

    @property
    def seconds(self) -> float:
        return sum(c.seconds for c in self.calls)

    @property
    def peak_rss_mb(self) -> float:
        return max(c.peak_rss_mb for c in self.calls)


def run_call(argv: list[str], check, env: dict[str, str], workdir: Path) -> CallResult:
    """Run one process to completion; time it, take its peak RSS, check it."""
    with tempfile.TemporaryFile(dir=workdir) as err:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, stdout=subprocess.PIPE, stderr=err, env=env, cwd=ROOT)
        killer = threading.Timer(CALL_TIMEOUT_S, proc.kill)
        killer.start()
        try:
            stdout = proc.stdout.read()
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            killer.cancel()
        seconds = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        proc.stdout.close()
        err.seek(0)
        stderr = err.read().decode(errors="replace").strip()
    if proc.returncode != 0:
        problems = [f"exit code {proc.returncode}: {stderr[-400:]}"]
    else:
        try:
            problems = check(json.loads(stdout))
        except (ValueError, KeyError, TypeError) as exc:
            problems = [f"unreadable output: {exc!r}"]
    # ru_maxrss is in kilobytes on Linux
    return CallResult(seconds, usage.ru_maxrss / 1024, stdout, problems)


def _blas_threads() -> int | None:
    """Threads OpenBLAS uses in this process, read from the library numpy loaded."""
    for lib_path in sorted((Path(np.__file__).parent.parent / "numpy.libs").glob("*openblas*")):
        lib = ctypes.CDLL(str(lib_path))
        for symbol in (
            "scipy_openblas_get_num_threads64_",
            "openblas_get_num_threads64_",
            "openblas_get_num_threads",
        ):
            getter = getattr(lib, symbol, None)
            if getter is not None:
                getter.restype = ctypes.c_int
                return getter()
    return None


def environment(args, graphs) -> dict:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):
        blas = {}
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "blas": blas.get("name"),
        "blas_version": blas.get("version"),
        "blas_threads": _blas_threads(),
        "thread_env": {
            k: os.environ[k] for k in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS") if k in os.environ
        },
        "numpy": np.__version__,
        "python": platform.python_version(),
        "inputs": [
            {
                "file": g.path.name,
                "n": g.n,
                "edges": g.edges,
                "sha256": hashlib.sha256(g.path.read_bytes()).hexdigest(),
            }
            for g in graphs
        ],
    }


class Bench:
    """The calls of one run, and the count of those attempted and failed."""

    def __init__(self, make_plan, seed: int, workdir: Path):
        self.make_plan = make_plan
        self.seed = seed
        self.workdir = workdir
        self.env = dict(os.environ)
        self.env["PYTHONPATH"] = os.pathsep.join(
            [str(SRC)] + ([os.environ["PYTHONPATH"]] if os.environ.get("PYTHONPATH") else [])
        )
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.digests: set[tuple[bytes, ...]] = set()

    def setup(self):
        """Plant and write the graphs; return the plan and the seconds it took.

        Every set-up of a run must write the same bytes.
        """
        start = time.perf_counter()
        plan = self.make_plan(self.seed, self.workdir)
        seconds = time.perf_counter() - start
        self.digests.add(tuple(hashlib.sha256(g.path.read_bytes()).digest() for g in plan.graphs))
        return plan, seconds

    def call(self, argv: list[str], call) -> CallResult:
        result = run_call([sys.executable, *argv], call.check, self.env, self.workdir)
        self.attempted += 1
        self.problems.extend(f"{call.args[0]}: {p}" for p in result.problems)
        self.failed += bool(result.problems)
        return result

    def plain_pass(self, plan) -> PassResult:
        result = PassResult()
        for c in plan.calls:
            result.calls.append(self.call([*CLI, *c.args], c))
        return result

    def traced_pass(self, plan) -> tuple[PassResult, dict[str, float]]:
        result = PassResult()
        calls = []
        for i, c in enumerate(plan.calls):
            spans_path = self.workdir / f"spans-{i}.json"
            spans_path.unlink(missing_ok=True)
            argv = [str(TRACED_CLI), "--spans", str(spans_path), "--call-id", str(i), "--", *c.args]
            r = self.call(argv, c)
            result.calls.append(r)
            # a call killed on timeout leaves no spans; it already counts as failed
            spans = json.loads(spans_path.read_text(encoding="utf-8")) if spans_path.exists() else []
            calls.append((spans, len(r.stdout)))
        return result, pass_metrics(calls)


def repeat_until(deadline: float, step) -> None:
    """Run `step` once, then again while one more, as long as the last, ends by `deadline`."""
    while True:
        begin = time.perf_counter()
        step()
        end = time.perf_counter()
        if end + (end - begin) > deadline:
            return


def measure_end_to_end(bench: Bench, deadline: float) -> tuple[dict[str, float], object]:
    """Passes until `deadline`, each after a window of set-ups and a load.

    The machine's speed drifts over seconds, so the short samples are taken in
    a window (SETUP_REPEATS set-ups, then one `info` call) before every pass:
    they then sample the same stretch of time as the passes.  Each set-up
    rewrites the same bytes.
    """
    plan, _ = bench.setup()
    bench.call([*CLI, *plan.load.args], plan.load)   # warm-up: byte-compiles the package
    setup_s: list[float] = []
    load_s: list[float] = []
    passes: list[PassResult] = []

    def step():
        setup_s.extend(bench.setup()[1] for _ in range(SETUP_REPEATS))
        load_s.append(bench.call([*CLI, *plan.load.args], plan.load).seconds)
        passes.append(bench.plain_pass(plan))

    repeat_until(deadline, step)
    print(
        f"samples: {len(passes)} passes, {len(load_s)} loads, {len(setup_s)} set-ups; "
        f"pass times (s): {[round(p.seconds, 4) for p in passes]}"
    )
    return {
        "pass_s": statistics.median(p.seconds for p in passes),
        "load_s": statistics.median(load_s),
        "peak_rss_mb": statistics.median(p.peak_rss_mb for p in passes),
        "setup_s": statistics.median(setup_s),
    }, plan


def measure_layers(bench: Bench, deadline: float) -> tuple[dict[str, float], object]:
    """Untraced and traced passes in turn until `deadline`.

    Times are medians over the traced passes; counts must repeat exactly.
    """
    plan, _ = bench.setup()
    bench.call([*CLI, *plan.load.args], plan.load)   # warm-up: byte-compiles the package
    plain: list[PassResult] = []
    traced: list[dict[str, float]] = []
    traced_s: list[float] = []

    def both():
        plain.append(bench.plain_pass(plan))
        result, metrics = bench.traced_pass(plan)
        traced.append(metrics)
        traced_s.append(result.seconds)

    repeat_until(deadline, both)
    print(f"samples: {len(traced)} untraced and {len(traced)} traced passes")
    counts = [name for name in traced[0] if LAYER_UNITS[name] != "s"]
    for name in counts:
        if len({m[name] for m in traced}) != 1:
            bench.problems.append(f"trace: {name} differs between passes: {[m[name] for m in traced]}")
    out = {name: statistics.median(m[name] for m in traced) for name in traced[0]}
    out["trace.overhead_frac"] = (
        statistics.median(traced_s) / statistics.median(p.seconds for p in plain) - 1.0
    )
    return {name: out[name] for name in LAYER_UNITS}, plan


def limit_address_space() -> None:
    """Cap this process's address space, and so that of every call it starts."""
    _, hard = resource.getrlimit(resource.RLIMIT_AS)
    soft = MEMORY_LIMIT_BYTES if hard == resource.RLIM_INFINITY else min(MEMORY_LIMIT_BYTES, hard)
    resource.setrlimit(resource.RLIMIT_AS, (soft, hard))


def main(argv: list[str]) -> int:
    start = time.perf_counter()
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "starlap" / "cli.py").is_file():
        print(f"error: no starlap sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}", file=sys.stderr)
        return 2
    limit_address_space()

    work_root = ROOT / ".bench_work"
    work_root.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-{args.seed}-", dir=work_root))
    try:
        bench = Bench(WORKLOADS[args.workload], args.seed, workdir)
        measure = measure_layers if args.trace else measure_end_to_end
        metrics, plan = measure(bench, start + args.seconds)
        if len(bench.digests) != 1:
            bench.problems.append("setup: the same seed wrote different graph files")
        print(json.dumps({"environment": environment(args, plan.graphs)}, sort_keys=True))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        with contextlib.suppress(OSError):
            work_root.rmdir()
    units = LAYER_UNITS if args.trace else END_TO_END_UNITS
    printed = LAYER_UNITS if args.trace else PRINTED_UNITS

    for problem in bench.problems:
        print(f"FAILED {problem}")
    for name, unit in printed.items():
        print(f"{name:28s} {metrics[name]:16.6f} {unit}")
    print(f"{'failed_frac':28s} {bench.failed / bench.attempted:16.6f} ratio")
    print(
        json.dumps(
            {
                "correct": not bench.problems,
                "attempted": bench.attempted,
                "failed": bench.failed,
                "metrics": {n: {"value": metrics[n], "unit": u} for n, u in units.items()},
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
