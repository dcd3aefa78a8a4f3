#!/usr/bin/env python3
"""Write the golden CLI outputs that tests/test_golden.py compares against.

For each input graph (the write_fixtures.py graphs, a planted 120-vertex star
graph, a planted dependent-row graph and a graph with masses, as ``reduce``
writes it) it saves the graph file and the exact ``--json`` stdout of every
call in ``COMMANDS`` (``info``, ``spectrum`` of each matrix family,
``stars``, ``ldep``, ``verify``, ``reduce``, ``compare`` and three
``partition`` modes), plus every call's exit code in ``index.json``.  Regenerate a file only when a change is meant to alter that
output.

Usage:
    PYTHONPATH=src python scripts/write_golden.py [--out tests/golden]
"""

import argparse
import contextlib
import io
import json
import os
import sys
import tempfile

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

from starlap import (
    build_graph,
    plant_ldependent_graph,
    plant_star_graph,
    reduce_all,
    save_graph,
)
from starlap.cli import run_cli
from write_fixtures import FIXTURES

# output name -> CLI arguments before the graph path
COMMANDS = {
    "info": ["info"],
    **{f"spectrum-{m}": ["spectrum", "--matrix", m] for m in ("adjacency", "laplacian", "normalized", "signless")},
    "stars": ["stars"],
    "ldep": ["ldep"],
    "verify": ["verify"],
    "reduce": ["reduce"],
    "compare": ["compare"],
    "partition-bisect": ["partition", "--bisect"],
    "partition-rsb": ["partition", "--rsb", "--max-clusters", "4"],
    "partition-kway": ["partition", "--kway", "auto"],
}


def golden_graphs():
    """Name -> Graph for every golden input."""
    graphs = {name: build_graph(n, edges) for name, (n, edges) in FIXTURES.items()}
    graphs["stars120"] = plant_star_graph(
        11, 120, [(4, 3, 2.0), (3, 2, 1.0), (5, 2, 1.5), (2, 1, 0.75)], background_p=0.08
    )
    graphs["ldep44"] = plant_ldependent_graph(3, (4, 30, 10), 6.0)
    # a twin pair collapsed into one vertex of mass 2
    graphs["written_reduction"] = reduce_all(
        plant_star_graph(2, 35, [(2, 1, 1.0)], background_p=0.1)
    ).reduced
    return graphs


def run_command(command, graph_path, workdir):
    """Exit code and stdout of one ``--json`` CLI call, run in this process."""
    head, *options = COMMANDS[command]
    args = [head, graph_path, *options, "--json"]
    if head == "reduce":
        args += ["-o", os.path.join(workdir, "reduced.graph")]
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = run_cli(args)
    return code, out.getvalue()


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--out", default=os.path.join("tests", "golden"), help="output directory")
    args = parser.parse_args()
    os.makedirs(args.out, exist_ok=True)
    index = {}
    with tempfile.TemporaryDirectory() as workdir:
        for name, g in golden_graphs().items():
            graph_path = os.path.join(args.out, f"{name}.graph")
            save_graph(g, graph_path)
            for command in COMMANDS:
                code, stdout = run_command(command, graph_path, workdir)
                with open(os.path.join(args.out, f"{name}.{command}.json"), "w", encoding="utf-8") as fh:
                    fh.write(stdout)
                index[f"{name}.{command}"] = code
    with open(os.path.join(args.out, "index.json"), "w", encoding="utf-8") as fh:
        json.dump(index, fh, indent=1, sort_keys=True)
        fh.write("\n")
    print(f"wrote {len(index)} outputs to {args.out}")


if __name__ == "__main__":
    main()
