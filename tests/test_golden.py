"""The CLI's --json outputs on the golden inputs, byte for byte.

tests/golden holds input graphs and the stdout and exit code of `stars`,
`ldep`, `verify`, `reduce` and `compare` on each, written by
scripts/write_golden.py.
"""

import importlib.util
import json
from pathlib import Path

import pytest

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


@pytest.mark.parametrize("key", sorted(INDEX))
def test_cli_reproduces_golden_output(key, tmp_path):
    name, command = key.split(".")
    code, stdout = writer.run_command(command, str(GOLDEN / f"{name}.graph"), str(tmp_path))
    assert stdout == (GOLDEN / f"{key}.json").read_text(encoding="utf-8")
    assert code == INDEX[key]
