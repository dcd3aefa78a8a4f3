import importlib.util
from pathlib import Path

import pytest

from starlap import build_graph

# The recurring fixtures f1, f2, f3, f4, two_triangles and varied_supports
# are the graphs of FIXTURES in scripts/write_fixtures.py, where each is
# described.


def _load_fixture_specs():
    spec = importlib.util.spec_from_file_location(
        "write_fixtures", Path(__file__).resolve().parents[1] / "scripts" / "write_fixtures.py"
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.FIXTURES


FIXTURES = _load_fixture_specs()


def _graph_fixture(name):
    @pytest.fixture(name=name)
    def graph():
        n, edges = FIXTURES[name]
        return build_graph(n, edges)

    return graph


f1, f2, f3, f4, two_triangles, varied_supports = map(
    _graph_fixture, ("f1", "f2", "f3", "f4", "two_triangles", "varied_supports")
)
