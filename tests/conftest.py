import importlib.util
from pathlib import Path

import pytest

from starlap import build_graph, detect_stars, reduce_all, verify_reduction

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


def reduce_one(g, star, q):
    """Reduce one detected star by q and leave every other: reduce_all with their q 0."""
    stars = detect_stars(g)
    qs = [0] * len(stars)
    qs[stars.index(star)] = q
    return reduce_all(g, qs)


def interlacing(g, r):
    """The interlacing check of verify_reduction, read by its name."""
    (check,) = [c for c in verify_reduction(g, r) if c.name == "interlacing"]
    return check


ADJACENCY_CHECKS = (
    "k-orthonormality",
    "adjacency-congruence",
    "adjacency-spectrum",
    "adjacency-lift-residual",
    "interlacing",
)
LAPLACIAN_CHECKS = ("laplacian-spectrum", "mass-laplacian-similarity", "laplacian-lift-residual")


def adjacency_checks(g, r):
    """The adjacency half of verify_reduction's checks, selected by name."""
    return [c for c in verify_reduction(g, r) if c.name in ADJACENCY_CHECKS]


def laplacian_checks(g, r):
    """The Laplacian half of verify_reduction's checks, selected by name."""
    return [c for c in verify_reduction(g, r) if c.name in LAPLACIAN_CHECKS]
