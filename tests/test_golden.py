"""The CLI's --json outputs on the golden inputs, byte for byte.

tests/golden holds input graphs and the stdout and exit code of each CLI call
in scripts/write_golden.py's COMMANDS on each, written by that script.
"""

import importlib.util
import json
import math
from pathlib import Path

import pytest

from starlap import load_graph, verify_graph, write_graph_file

ROOT = Path(__file__).resolve().parents[1]
GOLDEN = ROOT / "tests" / "golden"
INDEX = json.loads((GOLDEN / "index.json").read_text(encoding="utf-8"))


def _load_writer():
    spec = importlib.util.spec_from_file_location(
        "write_golden", ROOT / "scripts" / "write_golden.py"
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


writer = _load_writer()


def test_index_covers_every_graph_and_command():
    graphs = sorted(p.stem for p in GOLDEN.glob("*.graph"))
    assert graphs == sorted(writer.golden_graphs())
    assert set(INDEX) == {f"{g}.{c}" for g in graphs for c in writer.COMMANDS}


def test_golden_inputs_replant_byte_for_byte():
    # the planted inputs pin the planting functions' random stream
    for name, g in writer.golden_graphs().items():
        assert write_graph_file(g) == (GOLDEN / f"{name}.graph").read_text(encoding="utf-8"), name


@pytest.mark.parametrize("key", sorted(INDEX))
def test_cli_reproduces_golden_output(key, tmp_path):
    name, command = key.split(".")
    code, stdout = writer.run_command(command, str(GOLDEN / f"{name}.graph"), str(tmp_path))
    assert stdout == (GOLDEN / f"{key}.json").read_text(encoding="utf-8")
    assert code == INDEX[key]


def test_verify_graph_matches_the_verify_golden_output():
    expected = json.loads((GOLDEN / "stars120.verify.json").read_text(encoding="utf-8"))
    result = verify_graph(load_graph(str(GOLDEN / "stars120.graph")), 1e-8)
    assert [(c.name, c.passed) for c in result.checks] == [
        (c["name"], c["passed"]) for c in expected["checks"]
    ]
    assert result.passed == expected["passed"]


CHECK_KEYS = ["name", "note", "passed", "residual", "tol"]
CHECK_COMMANDS = ["stars", "ldep", "reduce", "verify"]


def _check_entries(path):
    """Every check entry of one golden report: its checks, then its reduction's."""
    payload = json.loads(path.read_text(encoding="utf-8"))
    return payload.get("checks", []) + payload.get("reduction", {}).get("checks", [])


@pytest.mark.parametrize("command", CHECK_COMMANDS)
def test_every_check_entry_is_one_record(command):
    # each check is written with the five keys of eigen.Check, and passes
    # exactly when its residual is finite and at most its tol
    entries = [c for path in sorted(GOLDEN.glob(f"*.{command}.json")) for c in _check_entries(path)]
    assert entries
    for c in entries:
        assert sorted(c) == CHECK_KEYS, c
        assert c["passed"] == (math.isfinite(c["residual"]) and c["residual"] <= c["tol"]), c


@pytest.mark.parametrize("key", [k for k in sorted(INDEX) if k.split(".")[1] in CHECK_COMMANDS])
def test_no_report_states_a_check_twice(key):
    # "reduction-X" in verify's checks is reduce's "X".  ldep states each
    # partition's claim, so the partition is part of an ldep check's identity
    path = GOLDEN / f"{key}.json"
    ids = [c["name"].removeprefix("reduction-") for c in _check_entries(path)]
    if key.endswith(".ldep"):
        partitions = json.loads(path.read_text(encoding="utf-8"))["partitions"]
        assert len(partitions) == len(ids)
        ids = [(name, tuple(p["v1"])) for name, p in zip(ids, partitions)]
    assert len(ids) == len(set(ids))


# the golden graphs whose collapse removes no vertex
IDENTITY_REDUCTIONS = ["f3", "f4", "ldep44", "two_triangles", "varied_supports", "written_reduction"]
# the checks read off K, here the identity, and interlacing; mass-laplacian-similarity,
# M^(-1/2) L(MB) M^(1/2) - L~, rounds apart where a mass is not 1 and is left out
EXACT_ON_IDENTITY = [
    "reduction-k-orthonormality",
    "reduction-adjacency-congruence",
    "reduction-adjacency-spectrum",
    "reduction-adjacency-lift-residual",
    "reduction-laplacian-spectrum",
    "reduction-laplacian-lift-residual",
    "reduction-interlacing",
]


@pytest.mark.parametrize("name", IDENTITY_REDUCTIONS)
def test_identity_reduction_residuals_are_exactly_zero(name):
    g = load_graph(str(GOLDEN / f"{name}.graph"))
    result = verify_graph(g, 1e-8)
    assert result.reduction.reduced.n == g.n
    residuals = {c.name: c.residual for c in result.checks}
    assert {c: residuals[c] for c in EXACT_ON_IDENTITY} == dict.fromkeys(EXACT_ON_IDENTITY, 0.0)
