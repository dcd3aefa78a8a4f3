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


@pytest.mark.parametrize("command", ["stars", "ldep", "reduce", "verify"])
def test_every_check_entry_is_one_record(command):
    # each check is written with the five keys of eigen.Check, and passes
    # exactly when its residual is finite and at most its tol
    entries = []
    for path in sorted(GOLDEN.glob(f"*.{command}.json")):
        payload = json.loads(path.read_text(encoding="utf-8"))
        entries += payload.get("checks", []) + payload.get("reduction", {}).get("checks", [])
    assert entries
    for c in entries:
        assert sorted(c) == CHECK_KEYS, c
        assert c["passed"] == (math.isfinite(c["residual"]) and c["residual"] <= c["tol"]), c
