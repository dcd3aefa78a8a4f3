import json
import math
import warnings

import pytest

from starlap import save_graph
from starlap.cli import run_cli
from starlap.fileio import parse_graph_file


@pytest.fixture
def fixture_files(tmp_path, f1, f2, f3, f4):
    paths = {}
    for name, g in (("f1", f1), ("f2", f2), ("f3", f3), ("f4", f4)):
        path = tmp_path / f"{name}.graph"
        save_graph(g, str(path))
        paths[name] = str(path)
    return paths


def run(capsys, *argv):
    code = run_cli(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestInfoAndSpectrum:
    def test_info(self, capsys, fixture_files):
        code, out, _ = run(capsys, "info", fixture_files["f1"])
        assert code == 0 and "vertices: 5" in out

    def test_spectrum_values(self, capsys, fixture_files):
        code, out, _ = run(capsys, "--json", "spectrum", fixture_files["f1"])
        assert code == 0
        payload = json.loads(out)
        assert payload["values"] == pytest.approx([0.0, 2.0, 2.0, 3.0, 5.0], abs=1e-10)

    def test_spectrum_missing_file(self, capsys):
        code, _, err = run(capsys, "spectrum", "missing.graph")
        assert code == 1 and err

    def test_spectrum_normalized(self, capsys, fixture_files):
        code, out, _ = run(capsys, "--json", "spectrum", fixture_files["f1"], "--matrix", "normalized")
        assert code == 0
        assert json.loads(out)["values"] == pytest.approx([0.0, 1.0, 1.0, 1.0, 2.0], abs=1e-10)

    def test_usage_error(self, capsys):
        code, _, _ = run(capsys, "spectrum")
        assert code == 1

    def test_seed_is_an_unknown_option(self, capsys, fixture_files):
        assert run(capsys, "--seed", "3", "info", fixture_files["f1"])[0] == 1
        assert run(capsys, "info", fixture_files["f1"], "--seed", "3")[0] == 1

    @pytest.mark.parametrize("before", [True, False], ids=["before", "after"])
    def test_tol_before_or_after_the_subcommand(self, capsys, fixture_files, before):
        tail = ["stars", fixture_files["f1"], "--json"]
        argv = ["--tol", "1e-6", *tail] if before else [*tail, "--tol", "1e-6"]
        code, out, _ = run(capsys, *argv)
        assert code == 0 and json.loads(out)["tolerances"]["relative"] == 1e-6
        code, out, _ = run(capsys, *tail)
        assert json.loads(out)["tolerances"]["relative"] == 1e-8


class TestStars:
    def test_path_reports_none(self, capsys, fixture_files):
        code, out, _ = run(capsys, "stars", fixture_files["f4"])
        assert code == 0 and "no stars detected" in out

    def test_bipartite(self, capsys, fixture_files):
        code, out, _ = run(capsys, "stars", fixture_files["f1"])
        assert code == 0
        assert "v1=[0, 1, 2]" in out and "PASS" in out


class TestLdep:
    def test_detects_fixture_groups(self, capsys, fixture_files):
        code, out, _ = run(capsys, "ldep", fixture_files["f1"])
        assert code == 0 and "PASS" in out

    def test_explicit_partition(self, capsys, tmp_path, fixture_files):
        part = tmp_path / "part.json"
        part.write_text(json.dumps({"v1": [0, 1], "v2": [2, 3, 4], "v3": [5]}))
        code, out, _ = run(capsys, "ldep", fixture_files["f3"], "--partition", str(part))
        assert code == 0
        assert "dependent rows v3=[5] of v1=[0, 1]\nPASS laplacian-multiplicity(w=6)" in out

    def test_rejected_partition(self, capsys, tmp_path, fixture_files):
        part = tmp_path / "part.json"
        part.write_text(json.dumps({"v1": [0], "v2": [2, 3, 4], "v3": [5]}))
        code, out, _ = run(capsys, "ldep", fixture_files["f3"], "--partition", str(part))
        assert code == 2 and "REJECTED" in out

    @pytest.mark.parametrize(
        "spec",
        [
            {"v1": [], "v2": [], "v3": []},
            {"v1": [], "v2": [2, 3, 4], "v3": [5]},
            {"v1": [0, 1], "v2": [2, 3, 4], "v3": []},
        ],
        ids=["all-empty", "empty-v1", "empty-v3"],
    )
    def test_empty_v1_or_v3_rejected(self, capsys, tmp_path, fixture_files, spec):
        part = tmp_path / "part.json"
        part.write_text(json.dumps(spec))
        code, out, _ = run(capsys, "--json", "ldep", fixture_files["f3"], "--partition", str(part))
        payload = json.loads(out)
        assert code == 2 and payload["passed"] is False and payload["partitions"] == []
        assert payload["rejected"] == [
            "condition 0 violated at vertex -1: v1 and v3 must each list a vertex"
        ]

    @pytest.mark.parametrize(
        "spec, error",
        [
            ({"v1": [-6, 1], "v2": [2, 3, 4], "v3": [5]}, "IndexOutOfRangeError"),
            ({"v1": [0, 1], "v2": [2, 3, 4], "v3": [99]}, "IndexOutOfRangeError"),
            ({"v1": [0, 1], "v2": [2, 3, 4]}, "ParseError"),
            ([[0, 1], [2, 3, 4], [5]], "ParseError"),
            ({"v1": ["0", "1"], "v2": [2, 3, 4], "v3": [5]}, "ParseError"),
            ({"v1": [0, 1], "v2": [2, 3, 4], "v3": [True]}, "ParseError"),
        ],
        ids=["negative", "past-n", "missing-key", "top-level-list", "string-entries", "bool-entry"],
    )
    def test_invalid_partition_file(self, capsys, tmp_path, fixture_files, spec, error):
        part = tmp_path / "part.json"
        part.write_text(json.dumps(spec))
        code, out, err = run(capsys, "ldep", fixture_files["f3"], "--partition", str(part))
        assert code == 1 and out == ""
        assert err.startswith(f"{error}: ") and err.count("\n") == 1


class TestReduce:
    def test_writes_reduced_graph(self, capsys, tmp_path, fixture_files):
        out_path = tmp_path / "reduced.graph"
        report_path = tmp_path / "report.json"
        code, out, _ = run(
            capsys, "reduce", fixture_files["f2"], "--policy", "collapse",
            "-o", str(out_path), "--report", str(report_path),
        )
        assert code == 0
        reduced = parse_graph_file(out_path.read_text())
        assert reduced.n == 4 and sorted(reduced.mass) == [1.0, 1.0, 2.0, 2.0]
        report = json.loads(report_path.read_text())
        assert report["reduction"]["passed"] is True


class TestVerify:
    def test_fixtures_pass(self, capsys, fixture_files):
        code, out, _ = run(capsys, "verify", fixture_files["f1"], "--q", "1")
        assert code == 0 and "all checks passed" in out
        for name in ("f2", "f3", "f4"):
            code, _, _ = run(capsys, "verify", fixture_files[name])
            assert code == 0, name

    def test_q1_spectrum_match_reported(self, capsys, fixture_files):
        code, out, _ = run(capsys, "--json", "verify", fixture_files["f1"], "--q", "1")
        assert code == 0
        payload = json.loads(out)
        assert payload["reduction"]["reduced_vertices"] == 4
        assert payload["passed"] is True

    def test_mutated_fixture_fails_named(self, capsys, tmp_path, f1):
        from starlap import build_graph

        edges = [(u, v, 1.1 if (u, v) == (0, 3) else w) for u, v, w in f1.edges]
        mutated = tmp_path / "mutated.graph"
        save_graph(build_graph(5, edges), str(mutated))
        code, out, err = run(capsys, "verify", str(mutated), "--q", "1")
        assert code == 2
        assert "FAIL reduction-requested(q=1)" in out
        assert "reduction-requested" in err

    def test_bad_q(self, capsys, fixture_files):
        code, _, err = run(capsys, "verify", fixture_files["f1"], "--q", "0")
        assert code == 1 and err == "error: q must be at least 1, got 0\n"

    def test_overlapping_certificates_not_double_counted(self, capsys, tmp_path):
        # rows (1,2), (1,2), (2,1), (1.5,1.5) at strength 3: the duplicate-row
        # pair sits inside the one dependence certificate of the class; counting
        # it on its own too would overstate the multiplicity of 3 (exactly 2)
        from starlap import build_graph

        g = build_graph(
            6,
            [
                (0, 4, 1.0), (0, 5, 2.0),
                (1, 4, 1.0), (1, 5, 2.0),
                (2, 4, 2.0), (2, 5, 1.0),
                (3, 4, 1.5), (3, 5, 1.5),
            ],
        )
        path = tmp_path / "overlap.graph"
        save_graph(g, str(path))
        code, out, _ = run(capsys, "verify", str(path))
        assert code == 0
        for family in ("laplacian", "signless"):
            (line,) = [s for s in out.splitlines() if f"{family}-multiplicity(w=3)" in s]
            assert line.startswith("PASS") and line.endswith("; l=2)")


class TestPartitionCommand:
    def test_bisect(self, capsys, fixture_files):
        code, out, _ = run(capsys, "--json", "partition", fixture_files["f4"], "--bisect")
        assert code == 0
        assert json.loads(out)["labels"] == [0, 0, 1, 1]

    def test_rsb(self, capsys, fixture_files):
        code, out, _ = run(
            capsys, "--json", "partition", fixture_files["f4"], "--rsb", "--max-clusters", "4"
        )
        assert code == 0
        assert sorted(json.loads(out)["labels"]) == [0, 1, 2, 3]

    def test_rsb_splits_blocks_whose_shift_is_exactly_singular(
        self, capsys, tmp_path, varied_supports
    ):
        # its blocks include a single edge, whose L - lambda2*I is singular for LU
        path = tmp_path / "varied.graph"
        save_graph(varied_supports, str(path))
        code, out, err = run(capsys, "--json", "partition", str(path), "--rsb", "--max-clusters", "4")
        assert (code, err) == (0, "")
        assert json.loads(out)["labels"] == [0, 1, 0, 0, 1, 0, 2, 2, 3]

    def test_kway_dot(self, capsys, tmp_path, fixture_files):
        dot = tmp_path / "out.dot"
        code, _, _ = run(
            capsys, "partition", fixture_files["f4"], "--kway", "2", "--dot", str(dot)
        )
        assert code == 0
        assert "graph G {" in dot.read_text()

    @pytest.mark.parametrize("value", ["abc", "2.5"])
    def test_kway_value_is_checked_before_the_file_is_read(self, capsys, value):
        code, _, err = run(capsys, "partition", "missing.graph", "--kway", value)
        assert code == 1 and err.startswith("usage: starlap partition")
        assert err.endswith(f"argument --kway: invalid value '{value}' (an integer or 'auto')\n")

    def test_disconnected_is_input_error(self, capsys, tmp_path):
        path = tmp_path / "disc.graph"
        path.write_text("n 4\n0 1 1\n2 3 1\n")
        code, _, err = run(capsys, "partition", str(path), "--bisect")
        assert code == 1 and "Disconnected" in err

    @pytest.mark.parametrize("n, labels", [(0, []), (1, [0])])
    @pytest.mark.parametrize(
        "mode, provenance",
        [
            (["--bisect"], "fiedler-sign(fewer than 2 vertices)"),
            (["--rsb"], "recursive-bisection(max_clusters=2)"),
            (["--kway", "auto"], "kway(auto->1)"),
        ],
    )
    def test_fewer_than_two_vertices_is_one_cluster(
        self, capsys, tmp_path, n, labels, mode, provenance
    ):
        path = tmp_path / "tiny.graph"
        path.write_text(f"n {n}\n", encoding="utf-8")
        code, out, err = run(capsys, "--json", "partition", str(path), *mode)
        payload = json.loads(out)
        assert (code, err) == (0, "")
        assert (payload["labels"], payload["provenance"]) == (labels, provenance)

    def test_more_clusters_than_vertices_is_input_error(self, capsys, tmp_path):
        for n in (1, 0):
            path = tmp_path / f"n{n}.graph"
            path.write_text(f"n {n}\n", encoding="utf-8")
            code, _, err = run(capsys, "partition", str(path), "--kway", "2")
            assert code == 1
            assert err == f"BadKError: the graph has fewer vertices ({n}) than the k=2 clusters\n"

    def test_fewer_than_two_kway_clusters_is_input_error(self, capsys, fixture_files):
        code, _, err = run(capsys, "partition", fixture_files["f4"], "--kway", "1")
        assert code == 1
        assert err == "BadKError: k-way clustering needs k >= 2 clusters, got k=1\n"

    @pytest.mark.parametrize("n", [0, 1, 4])
    def test_rsb_max_clusters_below_one_is_input_error(self, capsys, tmp_path, n):
        path = tmp_path / "g.graph"
        path.write_text(f"n {n}\n" + "".join(f"{v} {v + 1} 1\n" for v in range(n - 1)))
        code, _, err = run(capsys, "partition", str(path), "--rsb", "--max-clusters", "0")
        assert code == 1
        assert err == "BadKError: max_clusters must be at least 1, got 0\n"


class TestCompare:
    def test_double_star(self, capsys, fixture_files):
        code, out, _ = run(capsys, "compare", fixture_files["f2"])
        assert code == 0 and "signs agree" in out

    def test_degenerate_inconclusive(self, capsys, fixture_files):
        code, out, _ = run(capsys, "compare", fixture_files["f1"])
        assert code == 0 and "inconclusive" in out

    def test_disconnected_is_inconclusive(self, capsys, tmp_path):
        path = tmp_path / "disc.graph"
        path.write_text("n 4\n0 1 1\n2 3 1\n", encoding="utf-8")
        code, out, err = run(capsys, "compare", str(path))
        assert (code, out, err) == (0, "inconclusive: graph too small or disconnected\n", "")

    def test_graph_with_masses_agrees_on_every_vertex(self, capsys, tmp_path):
        # a path has no twins: the identity reduction compares L~ with itself
        path = tmp_path / "massed.graph"
        path.write_text("n 4\n0 1 1\n1 2 2\n2 3 3\nm 0 1.5\n", encoding="utf-8")
        code, out, _ = run(capsys, "compare", str(path), "--json")
        payload = json.loads(out)
        assert code == 0 and not payload["degenerate"]
        assert payload["agreement_fraction"] == 1.0
        assert [v for v, a, b in payload["pairs"] if a != b or a == 0] == []


class TestJsonStability:
    @pytest.mark.parametrize(
        "argv",
        [
            ("--json", "spectrum", "{f1}"),
            ("--json", "stars", "{f1}"),
            ("--json", "verify", "{f2}"),
            ("--json", "ldep", "{f3}"),
        ],
    )
    def test_byte_identical_reruns(self, capsys, fixture_files, argv):
        resolved = [a.format(**fixture_files) for a in argv]
        _, first, _ = run(capsys, *resolved)
        _, second, _ = run(capsys, *resolved)
        assert first == second and first


class TestIsolatedVertex:
    @pytest.fixture
    def isolated_file(self, tmp_path):
        from starlap import build_graph, plant_star_graph

        g = plant_star_graph(3, 30, [(3, 2, 2.0)], background_p=0.3)
        path = tmp_path / "isolated.graph"
        save_graph(build_graph(31, g.edges), str(path))
        return str(path)

    @pytest.mark.parametrize("command", ["stars", "verify"])
    def test_valid_graph_with_isolated_vertex_exits_0(self, capsys, isolated_file, command):
        code, out, _ = run(capsys, command, isolated_file, "--json")
        assert code == 0
        payload = json.loads(out)
        assert any("isolated vertices [30]" in w for w in payload["warnings"])
        assert not any(c["name"].startswith("normalized") for c in payload["checks"])

    def test_normalized_spectrum_of_isolated_vertex_is_undefined(self, capsys, tmp_path):
        path = tmp_path / "pendant.graph"
        path.write_text("n 3\n0 1 1\n", encoding="utf-8")
        warning = (
            "normalized-Laplacian spectrum undefined: isolated vertices [2] have no normalized row"
        )
        code, out, _ = run(capsys, "spectrum", str(path), "--matrix", "normalized")
        assert (code, out) == (0, f"warning: {warning}\n")
        code, out, _ = run(capsys, "spectrum", str(path), "--matrix", "normalized", "--json")
        assert code == 0
        payload = json.loads(out)
        assert (payload["values"], payload["groups"]) == ([], [])
        assert payload["warnings"] == [warning]
        code, out, _ = run(capsys, "spectrum", str(path), "--matrix", "laplacian", "--json")
        assert code == 0 and "warnings" not in json.loads(out)


class TestNearEqualStarWeights:
    @pytest.fixture
    def near_equal_file(self, tmp_path):
        # only vertices 0 and 1 share a neighbourhood, {2, 3}; their weights
        # toward vertex 3 differ by 1e-12, relative 1e-12 < 1e-9
        path = tmp_path / "near.graph"
        path.write_text(
            "n 6\n0 2 1.0\n0 3 1.5\n1 2 1.0\n1 3 1.500000000001\n2 4 1.0\n4 5 1.0\n3 5 2.0\n",
            encoding="utf-8",
        )
        return str(path)

    @pytest.mark.parametrize("command", ["stars", "verify"])
    def test_notice_reaches_the_json_warnings(self, capsys, near_equal_file, command):
        code, out, err = run(capsys, command, near_equal_file, "--json")
        assert code == 0 and not err
        payload = json.loads(out)
        assert payload["warnings"] == [
            "star class v1=[0, 1] has weight vectors that differ by less than the "
            "equality tolerance; treating them as equal"
        ]
        assert payload["passed"]

    def test_exactly_equal_weights_give_no_notice(self, capsys, tmp_path):
        path = tmp_path / "equal.graph"
        path.write_text("n 4\n0 2 1.0\n1 2 1.0\n2 3 1.0\n", encoding="utf-8")
        code, out, _ = run(capsys, "stars", str(path), "--json")
        assert code == 0 and json.loads(out)["warnings"] == []


class TestOverflowingStrengths:
    """Weights scaled by 2.5e307 overflow the strengths to inf: a valid input whose checks fail."""

    @pytest.fixture
    def overflow_file(self, tmp_path):
        from starlap import build_graph, plant_star_graph

        g = plant_star_graph(3, 30, [(3, 2, 2.0)], background_p=0.3)
        path = tmp_path / "overflow.graph"
        save_graph(build_graph(g.n, [(u, v, w * 2.5e307) for u, v, w in g.edges]), str(path))
        return str(path)

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    @pytest.mark.parametrize("command", ["stars", "verify"])
    def test_checks_fail_with_exit_2(self, capsys, overflow_file, command):
        code, out, _ = run(capsys, command, overflow_file, "--json")
        assert code == 2
        assert not json.loads(out)["passed"]

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    @pytest.mark.parametrize("matrix", ["signless", "laplacian"])
    def test_spectrum_is_all_nan_with_exit_0(self, capsys, overflow_file, matrix):
        code, out, _ = run(capsys, "spectrum", overflow_file, "--matrix", matrix, "--json")
        assert code == 0
        values = json.loads(out)["values"]
        assert len(values) == 30 and all(v != v for v in values)

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_reduce_fails_with_exit_2_and_still_writes(self, capsys, overflow_file, tmp_path):
        out_path, report_path = tmp_path / "reduced.graph", tmp_path / "report.json"
        code, out, err = run(
            capsys, "reduce", overflow_file, "-o", str(out_path), "--report", str(report_path),
            "--json",
        )
        assert code == 2
        payload = json.loads(out)
        assert payload["reduction"]["passed"] is False
        assert json.loads(report_path.read_text(encoding="utf-8")) == payload
        assert parse_graph_file(out_path.read_text(encoding="utf-8")).n == 28
        failed = [c["name"] for c in payload["reduction"]["checks"] if not c["passed"]]
        assert err == f"failed checks: {', '.join(failed)}\n"

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    @pytest.mark.parametrize(
        "argv",
        [
            ["partition", "--bisect"],
            ["partition", "--rsb", "--max-clusters", "3"],
            ["partition", "--kway", "2"],
            ["partition", "--kway", "auto"],
            ["compare"],
        ],
    )
    def test_non_finite_fiedler_pair_exits_2_with_a_reason(self, capsys, overflow_file, argv):
        code, out, err = run(capsys, argv[0], overflow_file, *argv[1:], "--json")
        assert code == 2 and out == ""
        assert err.count("\n") == 1
        assert err.startswith("NonFiniteSpectrumError: ") and "lambda2=nan" in err

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_verify_fails_the_sign_agreement(self, capsys, overflow_file):
        code, out, _ = run(capsys, "verify", overflow_file, "--json")
        checks = {c["name"]: c for c in json.loads(out)["checks"]}
        assert code == 2
        assert not checks["sign-agreement"]["passed"]
        assert "not finite" in checks["sign-agreement"]["note"]
        assert math.isnan(checks["sign-agreement"]["residual"])


class TestInfiniteStrengthsRunQuietly:
    """Four edges of weight 1e308 overflow every strength to inf: the reported answer, not noise."""

    WARNING = "vertices [0, 1, 2, 3] have a strength that is not finite; no claim is made on them"

    @pytest.fixture
    def files(self, tmp_path):
        graph, part = tmp_path / "inf.graph", tmp_path / "part.json"
        graph.write_text("n 4\n0 2 1e308\n0 3 1e308\n1 2 1e308\n1 3 1e308\n", encoding="utf-8")
        part.write_text(json.dumps({"v1": [0], "v2": [2, 3], "v3": [1]}), encoding="utf-8")
        return str(graph), str(part)

    def run_quietly(self, capsys, *argv):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code, out, err = run(capsys, *argv, "--json")
        assert [str(w.message) for w in caught] == []
        return code, out, err

    def test_info(self, capsys, files):
        code, out, err = self.run_quietly(capsys, "info", files[0])
        inf = float("inf")
        assert (code, err) == (0, "")
        assert json.loads(out)["summary"] == {
            "components": 1, "edges": 4, "max_strength": inf, "min_strength": inf,
            "non_unit_masses": {}, "total_weight": inf, "vertices": 4,
        }

    def test_spectrum(self, capsys, files):
        code, out, err = self.run_quietly(capsys, "spectrum", files[0])
        assert (code, err) == (0, "")
        values = json.loads(out)["values"]
        assert len(values) == 4 and all(v != v for v in values)

    def test_partition_bisect(self, capsys, files):
        code, out, err = self.run_quietly(capsys, "partition", files[0], "--bisect")
        assert (code, out) == (2, "")
        assert err == (
            "NonFiniteSpectrumError: the second laplacian eigenpair is not finite (lambda2=nan)\n"
        )

    def test_partition_rsb(self, capsys, files):
        code, out, err = self.run_quietly(
            capsys, "partition", files[0], "--rsb", "--max-clusters", "3"
        )
        assert (code, out) == (2, "")
        assert err == (
            "NonFiniteSpectrumError: the second laplacian eigenpair is not finite (lambda2=nan)\n"
        )

    def test_ldep(self, capsys, files):
        code, out, err = self.run_quietly(capsys, "ldep", files[0])
        payload = json.loads(out)
        assert (code, err) == (0, "")
        assert (payload["partitions"], payload["rejected"], payload["passed"]) == ([], [], True)
        assert payload["warnings"] == [self.WARNING]

    def test_ldep_partition(self, capsys, files):
        code, out, err = self.run_quietly(capsys, "ldep", files[0], "--partition", files[1])
        payload = json.loads(out)
        assert (code, err) == (2, "")
        assert payload["rejected"] == ["vertices do not share a common strength: {0: inf, 1: inf}"]
        assert (payload["partitions"], payload["passed"]) == ([], False)
        assert payload["warnings"] == [self.WARNING]

    def test_stars(self, capsys, files):
        code, out, err = self.run_quietly(capsys, "stars", files[0])
        payload = json.loads(out)
        assert (code, err) == (0, "")
        inf = float("inf")
        assert payload["stars"] == [
            {"k": 2, "m": 2, "v1": [0, 1], "v2": [2, 3], "weight": inf},
            {"k": 2, "m": 2, "v1": [2, 3], "v2": [0, 1], "weight": inf},
        ]
        assert (payload["checks"], payload["passed"]) == ([], True)
        assert payload["warnings"] == [self.WARNING]

    def test_compare(self, capsys, files):
        code, out, err = self.run_quietly(capsys, "compare", files[0])
        assert (code, out) == (2, "")
        assert err == (
            "NonFiniteSpectrumError: the second laplacian eigenpair is not finite (lambda2=nan)\n"
        )

    def test_verify(self, capsys, files):
        code, out, err = self.run_quietly(capsys, "verify", files[0])
        payload = json.loads(out)
        failed = [c["name"] for c in payload["checks"] if not c["passed"]]
        assert failed == [c["name"] for c in payload["checks"]][1:]
        assert (code, payload["passed"]) == (2, False)
        assert err == f"failed checks: {', '.join(failed)}\n"
        assert payload["reduction"]["masses"] == {"0": 2.0, "1": 2.0}
        assert payload["warnings"] == [self.WARNING]
        # the reduced graph's spectrum is NaN, so interlacing has no residual
        (interlacing,) = [c for c in payload["checks"] if c["name"] == "reduction-interlacing"]
        assert math.isnan(interlacing["residual"]) and not interlacing["passed"]

    def test_reduce(self, capsys, files, tmp_path):
        out_path = str(tmp_path / "reduced.graph")
        code, out, err = self.run_quietly(capsys, "reduce", files[0], "-o", out_path)
        checks = json.loads(out)["reduction"]["checks"]
        assert [(c["name"], c["passed"]) for c in checks] == [
            ("k-orthonormality", True),
            ("adjacency-congruence", False),
            ("adjacency-spectrum", False),
            ("adjacency-lift-residual", False),
            ("interlacing", False),
            ("laplacian-spectrum", False),
            ("mass-laplacian-similarity", False),
            ("laplacian-lift-residual", False),
        ]
        assert code == 2
        # a spectrum check's note follows its name
        assert err == (
            "failed checks: adjacency-congruence, adjacency-spectrum (no eigenvalue near 0 to "
            "remove), adjacency-lift-residual, interlacing, laplacian-spectrum, "
            "mass-laplacian-similarity, laplacian-lift-residual\n"
        )
