"""How much work the CLI commands do: eigensolves, matrix builds, scans and checks per call."""

import functools
import hashlib
from pathlib import Path

import numpy as np
import pytest

from starlap import (
    build_graph,
    cli,
    eigen,
    graphs,
    plant_ldependent_graph,
    partition,
    plant_star_graph,
    reduction,
    save_graph,
    stars,
)


GOLDEN = Path(__file__).resolve().parent / "golden"


@pytest.fixture
def counted(monkeypatch):
    """Records every eigensolve input's digest and every run of the costly steps."""
    calls = {"solves": [], "dependent_rows": 0, "adjacency_checks": 0, "laplacian_checks": 0}

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
    counter(reduction, "verify_adjacency_reduction", "adjacency_checks")
    counter(reduction, "verify_laplacian_reduction", "laplacian_checks")
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
    assert counted["adjacency_checks"] == counted["laplacian_checks"] == 1


def _count_eigh(monkeypatch):
    real_eigh = np.linalg.eigh
    full = []

    def eigh(a, *args, **kwargs):
        full.append(a.shape)
        return real_eigh(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "eigh", eigh)
    return full


def test_verify_computes_eigenvectors_of_l_and_l_tilde_only(counted, capsys, monkeypatch):
    full = _count_eigh(monkeypatch)
    assert cli.run_cli(["verify", str(GOLDEN / "stars120.graph"), "--json"]) == 0
    capsys.readouterr()
    assert len(full) <= 2
    assert len(counted["solves"]) <= 6


def test_verify_reads_an_identity_reduction_off_the_original(counted, capsys):
    # ldep44's stars have unequal weight vectors, so the reduction removes
    # nothing: L, Q and the normalized Laplacian for the claims and A for the
    # reduction checks, with no solve of the reduced graph's families
    assert cli.run_cli(["verify", str(GOLDEN / "ldep44.graph"), "--json"]) == 0
    capsys.readouterr()
    assert counted["adjacency_checks"] == counted["laplacian_checks"] == 1
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


def test_reduce_computes_no_eigenvector(tmp_path, counted, capsys, monkeypatch):
    full = _count_eigh(monkeypatch)
    out = str(tmp_path / "reduced.graph")
    assert cli.run_cli(["reduce", str(GOLDEN / "stars120.graph"), "-o", out, "--json"]) == 0
    capsys.readouterr()
    assert full == []
    assert 0 < len(counted["solves"]) <= 4


@pytest.mark.parametrize("command", ["verify", "compare"])
def test_each_graph_adjacency_is_built_once(capsys, monkeypatch, command):
    builds = {}
    real_adjacency = graphs.adjacency

    def adjacency(g):
        builds[id(g)] = builds.get(id(g), 0) + 1
        return real_adjacency(g)

    for module in (graphs, stars):
        monkeypatch.setattr(module, "adjacency", adjacency)
    assert cli.run_cli([command, str(GOLDEN / "stars120.graph"), "--json"]) == 0
    capsys.readouterr()
    # the graph and its reduction
    assert sorted(builds.values()) == [1, 1]
