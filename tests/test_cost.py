"""How much work `verify`, `ldep` and `partition --rsb` do: eigensolves, scans and checks per call."""

import hashlib
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


GOLDEN = Path(__file__).resolve().parent / "golden"


@pytest.fixture
def counted(monkeypatch):
    """Records every eigensolve input's digest and every call of the costly steps."""
    calls = {"solves": [], "proportional": 0, "adjacency_checks": 0, "laplacian_checks": 0}

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
    counter(stars, "detect_proportional_ldependent", "proportional")
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
    assert counted["proportional"] == 1
    assert counted["adjacency_checks"] == counted["laplacian_checks"] == 1


def test_verify_computes_eigenvectors_of_l_and_l_tilde_only(counted, capsys, monkeypatch):
    real_eigh = np.linalg.eigh
    full = []

    def eigh(a, *args, **kwargs):
        full.append(a.shape)
        return real_eigh(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "eigh", eigh)
    assert cli.run_cli(["verify", str(GOLDEN / "stars120.graph"), "--json"]) == 0
    capsys.readouterr()
    assert len(full) <= 2
    assert len(counted["solves"]) <= 6


def test_verify_reads_an_identity_reduction_off_the_original(counted, capsys):
    # ldep44's only star has unequal weight vectors, so the reduction removes nothing
    assert cli.run_cli(["verify", str(GOLDEN / "ldep44.graph"), "--json"]) == 0
    capsys.readouterr()
    assert counted["adjacency_checks"] == counted["laplacian_checks"] == 1
    assert len(counted["solves"]) <= 3


def test_ldep_solves_the_laplacian_once_for_all_candidates(tmp_path, counted, capsys):
    # a new vertex copies vertex 0's row: a proportional group besides the
    # certified structural class
    planted = plant_ldependent_graph(2, (3, 12, 5), 6.0)
    copy = [(planted.n, v, w) for u, v, w in planted.edges if u == 0]
    g = build_graph(planted.n + 1, list(planted.edges) + copy)
    assert len(stars.detect_proportional_ldependent(g)) == 1
    counted["proportional"] = 0
    assert _run(tmp_path, g, "ldep", capsys) == 0
    assert len(counted["solves"]) == 1
    assert counted["proportional"] == 1


def test_rsb_solves_each_block_once(counted):
    g = plant_star_graph(4, 80, [(4, 3, 2.0), (3, 2, 1.0)], background_p=0.1)
    clusters = 6
    assert partition.recursive_bisection(g, max_clusters=clusters).n_clusters == clusters
    # the loop stops before it looks at the last split's two blocks
    assert 0 < len(counted["solves"]) <= 1 + 2 * (clusters - 2)
    assert len(set(counted["solves"])) == len(counted["solves"])
