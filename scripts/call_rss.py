#!/usr/bin/env python3
"""Peak RSS and wall time of one CLI call, alternated across source trees.

Runs the same ``starlap`` call (the arguments after ``--``) --runs times on
each tree given by --src, in turn: tree 1, tree 2, ..., tree 1, tree 2, ...
Every run is a fresh process whose parent is a bare helper interpreter
(``python -S -E``, importing only ``os``, ``sys`` and ``time``), started
for that run alone.  Linux keeps a forked child's maximum RSS across
``exec``, so a call started by a large parent reads at least that parent's
RSS; started by the helper, it reads its own peak unless that is below the
helper's few MB.  The helper forks, execs the call with the tree's ``src``
as the only PYTHONPATH entry, and takes the child's ``ru_maxrss`` from
``os.wait4`` and the wall time from the fork to the wait.  Each tree's
``src`` is linked under one temporary directory by a name of the same
length as every other tree's, so the trees run from paths of one length:
the same sources at a shorter path moved one ``partition --kway auto``
call's median peak by 0.1 MB.

For each tree it prints the median, minimum and maximum peak RSS (MB) and
wall time (s), then whether the stdout bytes and the exit code were the
same on every run of every tree.  Relative paths in the call are read from
the current directory; a call that writes a file writes it once per run.

Usage:
    python scripts/call_rss.py --src OLD/src --src NEW/src [--runs 5] -- verify G.graph --json

Exits 1 when the stdout or the exit code differ between runs, else 0.
"""

import argparse
import hashlib
import os
import statistics
import subprocess
import sys
import tempfile

# the entry point of the installed `starlap` script, as benchmark/run.py runs it
CLI = ("-c", "from starlap.cli import main; main()")

# argv: stdout file, then the call's argv; prints "maxrss_kb seconds exit_code"
HELPER = """
import os, sys, time
out = os.open(sys.argv[1], os.O_WRONLY | os.O_CREAT | os.O_TRUNC, 0o600)
start = time.perf_counter()
pid = os.fork()
if pid == 0:
    try:
        os.dup2(out, 1)
        os.execv(sys.argv[2], sys.argv[2:])
    finally:
        os._exit(127)
_, status, usage = os.wait4(pid, 0)
print(usage.ru_maxrss, time.perf_counter() - start, os.waitstatus_to_exitcode(status))
"""


def run_once(src: str, call: list[str], out_path: str) -> tuple[float, float, int, str]:
    """(peak RSS in MB, wall seconds, exit code, stdout digest) of one run on one tree."""
    env = {**os.environ, "PYTHONPATH": src}
    helper = [sys.executable, "-S", "-E", "-c", HELPER, out_path, sys.executable, *CLI, *call]
    report = subprocess.run(helper, env=env, stdout=subprocess.PIPE, text=True, check=True)
    maxrss_kb, seconds, code = report.stdout.split()
    with open(out_path, "rb") as fh:
        digest = hashlib.blake2b(fh.read(), digest_size=16).hexdigest()
    # ru_maxrss is in kilobytes on Linux
    return int(maxrss_kb) / 1024, float(seconds), int(code), digest


def _spread(values: list[float], digits: int) -> str:
    return (f"{statistics.median(values):.{digits}f} "
            f"[{min(values):.{digits}f}, {max(values):.{digits}f}]")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter
    )
    parser.add_argument("--src", action="append", required=True, help="a tree's src directory")
    parser.add_argument("--runs", type=int, default=5, help="runs per tree (default 5)")
    parser.add_argument("call", nargs=argparse.REMAINDER, help="-- then the CLI arguments")
    args = parser.parse_args(argv)
    call = args.call[1:] if args.call[:1] == ["--"] else args.call
    if not call or args.runs < 1:
        parser.error("give --runs of at least 1 and a CLI call after --")
    srcs = [os.path.abspath(s) for s in args.src]
    for src in srcs:
        if not os.path.isfile(os.path.join(src, "starlap", "cli.py")):
            parser.error(f"no starlap sources under {src}")

    runs: list[list[tuple[float, float, int, str]]] = [[] for _ in srcs]
    with tempfile.TemporaryDirectory() as tmp:
        out_path = os.path.join(tmp, "stdout")
        width = len(str(len(srcs)))
        links = [os.path.join(tmp, f"src{i:0{width}d}") for i in range(len(srcs))]
        for src, link in zip(srcs, links):
            os.symlink(src, link)
        for _ in range(args.runs):
            for link, tree_runs in zip(links, runs):
                tree_runs.append(run_once(link, call, out_path))

    print(f"call: {' '.join(call)}; {args.runs} runs per tree, alternating")
    for i, (src, tree_runs) in enumerate(zip(srcs, runs), 1):
        rss, seconds = [r[0] for r in tree_runs], [r[1] for r in tree_runs]
        print(f"tree {i} {src}: peak_rss_mb {_spread(rss, 2)}, wall_s {_spread(seconds, 3)}")
    every = [r for tree_runs in runs for r in tree_runs]
    same_out = len({r[3] for r in every}) == 1
    codes = sorted({r[2] for r in every})
    print(f"stdout: {'same on every run' if same_out else 'DIFFERS between runs'}")
    print(f"exit code: {codes[0] if len(codes) == 1 else f'DIFFERS between runs {codes}'}")
    return 0 if same_out and len(codes) == 1 else 1


if __name__ == "__main__":
    sys.exit(main())
