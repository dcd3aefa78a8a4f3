"""How much work the CLI commands do: eigensolves, matrix builds, scans and checks per call."""

import functools
import hashlib
import tracemalloc
from collections import Counter
from pathlib import Path

import numpy as np
import pytest

from starlap import (
    build_graph,
    cli,
    eigen,
    plant_ldependent_graph,
    partition,
    plant_star_graph,
    reduction,
    save_graph,
    stars,
)
from starlap.verify import verify_graph


GOLDEN = Path(__file__).resolve().parent / "golden"


@pytest.fixture
def counted(monkeypatch):
    """Records every eigensolve input's digest and every run of the costly steps."""
    calls = {"solves": [], "dependent_rows": 0, "reduction_checks": 0}

    def counter(module, name, key):
        real = getattr(module, name)

        def wrapper(*args, **kwargs):
            calls[key] += 1
            return real(*args, **kwargs)

        monkeypatch.setattr(module, name, wrapper)

    real_solve = eigen.sym_eigen

    def solve(a, **kwargs):
        calls["solves"].append(hashlib.blake2b(a.tobytes(), digest_size=16).hexdigest())
        return real_solve(a, **kwargs)

    monkeypatch.setattr(eigen, "sym_eigen", solve)
    detector = stars.GraphAnalysis.dependent_rows.func

    def dependent_rows(self):
        calls["dependent_rows"] += 1
        return detector(self)

    cached = functools.cached_property(dependent_rows)
    cached.__set_name__(stars.GraphAnalysis, "dependent_rows")
    monkeypatch.setattr(stars.GraphAnalysis, "dependent_rows", cached)
    counter(reduction, "verify_reduction", "reduction_checks")
    return calls


def _run(tmp_path, g, command, capsys):
    path = tmp_path / "g.graph"
    save_graph(g, str(path))
    code = cli.run_cli([command, str(path), "--json"])
    capsys.readouterr()
    return code


def test_verify_solves_each_matrix_once(tmp_path, counted, capsys):
    g = plant_star_graph(5, 120, [(4, 3, 2.0), (3, 2, 1.0), (2, 1, 0.5)], background_p=0.1)
    assert _run(tmp_path, g, "verify", capsys) == 0
    assert len(counted["solves"]) <= 6
    assert len(set(counted["solves"])) == len(counted["solves"])
    assert counted["dependent_rows"] == 1
    assert counted["reduction_checks"] == 1


def _count_calls(monkeypatch, name):
    """The shapes of the first arguments of every np.linalg.<name> call."""
    real = getattr(np.linalg, name)
    shapes = []

    def wrapper(a, *args, **kwargs):
        shapes.append(a.shape)
        return real(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, name, wrapper)
    return shapes


def test_verify_computes_eigenvectors_of_l_and_l_tilde_only(counted, capsys, monkeypatch):
    # each Fiedler pair is a values-only solve plus one LU solve at lambda2
    full, lu = _count_calls(monkeypatch, "eigh"), _count_calls(monkeypatch, "solve")
    assert cli.run_cli(["verify", str(GOLDEN / "stars120.graph"), "--json"]) == 0
    capsys.readouterr()
    assert full == []
    assert lu == [(120, 120), (110, 110)]   # L, then the reduced graph's L~
    assert len(counted["solves"]) <= 6


def test_verify_reads_an_identity_reduction_off_the_original(counted, capsys):
    # ldep44's stars have unequal weight vectors, so the reduction removes
    # nothing: L, Q and the normalized Laplacian for the claims and A for the
    # reduction checks, with no solve of the reduced graph's families
    assert cli.run_cli(["verify", str(GOLDEN / "ldep44.graph"), "--json"]) == 0
    capsys.readouterr()
    assert counted["reduction_checks"] == 1
    assert len(counted["solves"]) <= 4
    assert counted["dependent_rows"] == 1


def test_ldep_solves_the_laplacian_once_for_all_candidates(tmp_path, counted, capsys):
    # a new vertex copies vertex 0's row, inside the planted class of
    # strength 6; two more vertices hang off hub 3, a twin pair of strength 1
    planted = plant_ldependent_graph(2, (3, 12, 5), 6.0)
    n = planted.n
    copy = [(n, v, w) for u, v, w in planted.edges if u == 0]
    g = build_graph(n + 3, list(planted.edges) + copy + [(3, n + 1, 1.0), (3, n + 2, 1.0)])
    parts = stars.analyze(g).dependent_rows
    assert [(p.l, p.wtilde) for p in parts] == [(6, pytest.approx(6.0)), (1, 1.0)]
    counted["dependent_rows"] = 0
    assert _run(tmp_path, g, "ldep", capsys) == 0
    assert len(counted["solves"]) == 1
    assert counted["dependent_rows"] == 1


def test_rsb_solves_each_block_once(counted):
    g = plant_star_graph(4, 80, [(4, 3, 2.0), (3, 2, 1.0)], background_p=0.1)
    clusters = 6
    assert partition.recursive_bisection(g, max_clusters=clusters).n_clusters == clusters
    # the loop stops before it looks at the last split's two blocks
    assert 0 < len(counted["solves"]) <= 1 + 2 * (clusters - 2)
    assert len(set(counted["solves"])) == len(counted["solves"])


@pytest.mark.parametrize(
    "args, solves",
    [(["partition", "--bisect"], 1), (["partition", "--kway", "auto"], 1), (["compare"], 2)],
)
def test_partition_and_compare_solve_each_matrix_once(tmp_path, counted, capsys, args, solves):
    # compare solves the graph's mass Laplacian and its reduction's
    g = plant_star_graph(4, 80, [(4, 3, 2.0), (3, 2, 1.0)], background_p=0.1)
    path = tmp_path / "g.graph"
    save_graph(g, str(path))
    assert cli.run_cli([args[0], str(path), *args[1:], "--json"]) == 0
    capsys.readouterr()
    assert len(set(counted["solves"])) == len(counted["solves"]) == solves


@pytest.mark.parametrize(
    "args, full_solves",
    [
        (["partition", "--bisect"], 0),
        (["partition", "--rsb", "--max-clusters", "6"], 0),
        (["compare"], 0),
        (["partition", "--kway", "auto"], 1),
    ],
)
def test_only_kway_makes_a_full_eigensolve(
    tmp_path, counted, capsys, monkeypatch, args, full_solves
):
    # kway's one eigh is of the collapsed graph: q = (4 - 1) + (3 - 1) vertices fewer
    g = plant_star_graph(4, 80, [(4, 3, 2.0), (3, 2, 1.0)], background_p=0.1)
    path = tmp_path / "g.graph"
    save_graph(g, str(path))
    full, lu = _count_calls(monkeypatch, "eigh"), _count_calls(monkeypatch, "solve")
    assert cli.run_cli([args[0], str(path), *args[1:], "--json"]) == 0
    capsys.readouterr()
    assert full == [(75, 75)] * full_solves
    # every other solve is a Fiedler pair's values, and its vector one LU solve
    assert len(lu) == len(counted["solves"]) - full_solves


def test_values_first_then_the_vector_solves_each_once(counted, monkeypatch):
    lu = _count_calls(monkeypatch, "solve")
    ctx = stars.analyze(plant_star_graph(4, 80, [(4, 3, 2.0)], background_p=0.1))
    values = ctx.values("laplacian")
    vector = ctx.second_vector("laplacian")
    assert ctx.values("laplacian") is values and ctx.second_vector("laplacian") is vector
    assert len(counted["solves"]) == len(lu) == 1


def test_reduce_computes_no_eigenvector(tmp_path, counted, capsys, monkeypatch):
    full, lu = _count_calls(monkeypatch, "eigh"), _count_calls(monkeypatch, "solve")
    out = str(tmp_path / "reduced.graph")
    assert cli.run_cli(["reduce", str(GOLDEN / "stars120.graph"), "-o", out, "--json"]) == 0
    capsys.readouterr()
    assert full == lu == []
    assert 0 < len(counted["solves"]) <= 4


@pytest.fixture
def builds(monkeypatch):
    """(graph id, family built, n) of every GraphAnalysis.matrix call, in call order."""
    built = []
    real = stars.GraphAnalysis.matrix

    def matrix(self, family):
        built.append((id(self.graph), self._family(family), self.graph.n))
        return real(self, family)

    monkeypatch.setattr(stars.GraphAnalysis, "matrix", matrix)
    return built


@pytest.mark.parametrize(
    "args, adjacency_builds",
    [(["verify"], [1, 1]), (["compare"], []), (["partition", "--bisect"], [])],
    ids=["verify", "compare", "bisect"],
)
def test_each_graph_adjacency_is_built_once(builds, capsys, args, adjacency_builds):
    # no check reads a dense A: verify builds the graph's A and its
    # reduction's M^1/2 B M^1/2 once each, for their spectra, and compare
    # and bisect build neither
    assert cli.run_cli([args[0], str(GOLDEN / "stars120.graph"), *args[1:], "--json"]) == 0
    capsys.readouterr()
    adjacency = [g for g, family, _ in builds if family in ("adjacency", "mass-adjacency")]
    assert sorted(Counter(adjacency).values()) == adjacency_builds


def test_verify_builds_each_matrix_once_for_its_solve(builds, counted, capsys, monkeypatch):
    # the graph's L, Q, normalized Laplacian and A, the reduction's L~ and
    # M^1/2 B M^1/2: each built once and solved; the sign comparison builds
    # L and then L~, for their values and Fiedler vectors, and no other
    # call builds either
    real_compare = partition.compare_signs
    during_compare = []

    def compare_signs(*args, **kwargs):
        before = len(builds)
        result = real_compare(*args, **kwargs)
        during_compare.append(builds[before:])
        return result

    monkeypatch.setattr(partition, "compare_signs", compare_signs)
    assert cli.run_cli(["verify", str(GOLDEN / "stars120.graph"), "--json"]) == 0
    capsys.readouterr()
    assert len(builds) == len(set(builds)) == len(counted["solves"]) == 6
    assert sorted(n for _, _, n in builds) == [110, 110, 120, 120, 120, 120]
    [compared] = during_compare
    assert [(family, n) for _, family, n in compared] == [
        ("laplacian", 120), ("mass-laplacian", 110)
    ]
    laplacians = [b for b in builds if b[1] in ("laplacian", "mass-laplacian")]
    assert laplacians == compared


def test_kway_never_builds_the_original_adjacency(builds):
    # star detection reads the weight rows off the edge columns; the one
    # matrix built is the collapsed graph's L~, for its eigh
    g = plant_star_graph(4, 80, [(4, 3, 2.0), (3, 2, 1.0)], background_p=0.1)
    assert partition.kway(g, "auto").n_clusters >= 2
    assert [(family, n) for _, family, n in builds] == [("mass-laplacian", 75)]


@pytest.mark.parametrize("seed, n", [(1, 300), (2, 400), (3, 600)])
def test_verify_holds_few_dense_matrices_at_once(seed, n):
    # no dense A or B is kept: the dense arrays live at once are one family
    # matrix plus temporaries a block of rows or columns wide (LAPACK's own
    # copies are not traced), 1.3 to 1.5 n^2 doubles; with A and B cached
    # next to it the peak read 3.27 to 3.42
    g = plant_star_graph(seed, n, [(4, 3, 2.0)] * (n // 40), background_p=0.05)
    tracemalloc.start()
    try:
        assert verify_graph(g).passed
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 3.0 * 8 * n * n


@pytest.mark.parametrize(
    "g",
    [build_graph(1, []), build_graph(6, [(0, 1, 1.0), (1, 2, 2.0), (3, 4, 1.0), (4, 5, 1.0)])],
    ids=["n1", "two-components"],
)
def test_verify_without_a_fiedler_pair_makes_no_lu_solve(builds, counted, monkeypatch, g):
    # the sign comparison is inconclusive before it solves a Fiedler pair;
    # L's values are solved once, for the claims and the Laplacian checks
    lu = _count_calls(monkeypatch, "solve")
    verify_graph(g)
    assert lu == []
    assert [(family, n) for _, family, n in builds].count(("laplacian", g.n)) == 1
    assert len(counted["solves"]) == len(builds)
