import dataclasses
import json
import math
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from starlap import (
    build_graph,
    detect_stars,
    fiedler,
    lift_vector,
    load_graph,
    plant_star_graph,
    reduce_all,
    save_graph,
    star_frame,
    sym_eigen,
    verify_graph,
    verify_reduction,
)
from starlap import eigen, reduction
from starlap.cli import run_cli
from starlap.reduction import star_complement
from starlap.stars import GraphAnalysis, analyze
from starlap.errors import DimensionMismatchError, InvalidQError, StructuralStarOnlyError

from conftest import adjacency_checks, interlacing, laplacian_checks, reduce_one
from reference import adjacency, mass_laplacian


def first_star(g):
    return detect_stars(g)[0]


class TestReduceStar:
    def test_q1_structure(self, f1):
        r = reduce_one(f1, first_star(f1), 1)
        assert r.reduced.n == 4
        assert r.reduced.mass == (1.5, 1.5, 1.0, 1.0)
        assert r.vertex_map == (0, 1, None, 2, 3)
        # unit-weight complete bipartite 2x2 remains
        assert r.reduced.edges == ((0, 2, 1.0), (0, 3, 1.0), (1, 2, 1.0), (1, 3, 1.0))

    def test_q2_structure(self, f1):
        r = reduce_one(f1, first_star(f1), 2)
        assert r.reduced.n == 3
        assert r.reduced.mass == (3.0, 1.0, 1.0)
        assert r.vertex_map == (0, None, None, 1, 2)

    def test_invalid_q(self, f1):
        star = first_star(f1)
        for q in (3, -1):
            with pytest.raises(InvalidQError):
                reduce_one(f1, star, q)
        # q = 0 leaves the star as it is
        assert reduce_one(f1, star, 0).reduced is f1

    def test_structural_star_rejected(self, f1):
        edges = [(u, v, 2.0 if (u, v) == (0, 3) else w) for u, v, w in f1.edges]
        g = build_graph(5, edges)
        broken = next(s for s in detect_stars(g) if s.v1 == (0, 1, 2))
        with pytest.raises(StructuralStarOnlyError):
            reduce_one(g, broken, 1)

    def test_removes_largest_indices(self, f2):
        star = next(s for s in detect_stars(f2) if s.v1 == (2, 3))
        r = reduce_one(f2, star, 1)
        assert r.vertex_map[3] is None and r.vertex_map[2] == 2


class TestReduceAll:
    def test_collapse_double_star(self, f2):
        r = reduce_all(f2, "collapse")
        assert r.reduced.n == 4
        assert sorted(r.reduced.mass) == [1.0, 1.0, 2.0, 2.0]
        kept_masses = {v: r.reduced.mass[r.vertex_map[v]] for v in (0, 1, 2, 4)}
        assert kept_masses == {0: 1.0, 1: 1.0, 2: 2.0, 4: 2.0}

    def test_no_stars_identity(self, f4):
        r = reduce_all(f4, "collapse")
        assert r.reduced == f4
        assert np.array_equal(r.k_matrix, np.eye(4))
        assert r.blocks == ()

    def test_keep_pair_fixture(self, f1):
        # the 2-vertex dual star is untouched by keep-pair, so this matches
        # reducing the 3-vertex star by one
        r = reduce_all(f1, "keep-pair")
        single = reduce_one(f1, first_star(f1), 1)
        assert r.reduced == single.reduced
        assert np.array_equal(r.k_matrix, single.k_matrix)

    def test_explicit_q_vector(self, f1):
        r = reduce_all(f1, [2, 1])
        assert r.reduced.n == 2
        assert r.reduced.mass == (3.0, 2.0)
        vals = sym_eigen(analyze(r.reduced).matrix("mass-laplacian")).values
        assert np.allclose(vals, [0.0, 5.0], atol=1e-10)

    def test_explicit_q_wrong_length(self, f1):
        with pytest.raises(DimensionMismatchError):
            reduce_all(f1, [1])


class TestKMatrix:
    def test_single_column_frame(self, f1):
        r = reduce_one(f1, first_star(f1), 2)
        col = r.k_matrix[0:3, 0]
        assert np.allclose(col, 1.0 / np.sqrt(3.0))
        assert col.sum() == pytest.approx(np.sqrt(3.0))

    def test_two_column_frame(self, f1):
        r = reduce_one(f1, first_star(f1), 1)
        block = r.k_matrix[0:3, 0:2]
        assert np.allclose(block.T @ block, np.eye(2), atol=1e-12)
        assert np.allclose(block.sum(axis=0), np.sqrt(1.5), atol=1e-12)

    def test_orthonormal_and_congruent(self, f1):
        for q in (1, 2):
            r = reduce_one(f1, first_star(f1), q)
            k = r.k_matrix
            assert np.abs(k.T @ k - np.eye(r.reduced.n)).max() <= 1e-10
            root = np.sqrt(np.asarray(r.reduced.mass))
            target = adjacency(r.reduced) * np.outer(root, root)
            assert np.abs(k.T @ adjacency(f1) @ k - target).max() <= 1e-9

    @pytest.mark.parametrize("m,p", [(2, 1), (3, 1), (3, 2), (5, 2), (7, 6)])
    def test_frame_properties(self, m, p):
        frame = star_frame(m, p)
        assert frame.shape == (m, p)
        assert np.abs(frame.T @ frame - np.eye(p)).max() <= 1e-12
        assert np.allclose(frame.sum(axis=0), np.sqrt(m / p), atol=1e-12)

    def test_frame_of_a_large_class_is_built_in_m_times_p_memory(self):
        # an m x m intermediate would need 8 m^2 bytes, 128 MB here
        m, p = 4000, 3
        tracemalloc.start()
        try:
            frame = star_frame(m, p)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 40 * 8 * m * p
        assert np.abs(frame.T @ frame - np.eye(p)).max() <= 1e-12
        assert np.allclose(frame.sum(axis=0), np.sqrt(m / p), atol=1e-12)


class TestMassOperators:
    def test_mass_adjacency_scales_rows(self, f1):
        # M B is the off-diagonal of -L(MB)
        r = reduce_one(f1, first_star(f1), 1)
        mb = -mass_laplacian(r)
        np.fill_diagonal(mb, 0.0)
        assert np.allclose(mb[0], 1.5 * adjacency(r.reduced)[0])
        assert np.allclose(mb[2], adjacency(r.reduced)[2])
        r2 = reduce_one(f1, first_star(f1), 2)
        mb2 = -mass_laplacian(r2)
        np.fill_diagonal(mb2, 0.0)
        assert np.allclose(mb2[0], 3.0 * adjacency(r2.reduced)[0])

    def test_mass_degree_fixture(self, f1):
        r1 = reduce_one(f1, first_star(f1), 1)
        assert np.allclose(analyze(r1.reduced).mass_strengths, [2.0, 2.0, 3.0, 3.0])
        assert np.allclose(np.diag(mass_laplacian(r1)), [2.0, 2.0, 3.0, 3.0])
        r2 = reduce_one(f1, first_star(f1), 2)
        assert np.allclose(analyze(r2.reduced).mass_strengths, [2.0, 3.0, 3.0])

    def test_unit_mass_reduces_to_plain_operators(self, f4):
        r = reduce_all(f4, "collapse")
        red, ctx = analyze(r.reduced), analyze(f4)
        assert np.array_equal(red.matrix("mass-adjacency"), adjacency(f4))
        assert np.array_equal(red.matrix("mass-laplacian"), ctx.matrix("laplacian"))
        assert np.array_equal(mass_laplacian(r), ctx.matrix("laplacian"))

    def test_tilde_spectrum_q1(self, f1):
        r = reduce_one(f1, first_star(f1), 1)
        vals = sym_eigen(analyze(r.reduced).matrix("mass-laplacian")).values
        assert np.allclose(vals, [0.0, 2.0, 3.0, 5.0], atol=1e-10)

    def test_tilde_spectrum_q2(self, f1):
        r = reduce_one(f1, first_star(f1), 2)
        vals = sym_eigen(analyze(r.reduced).matrix("mass-laplacian")).values
        assert np.allclose(vals, [0.0, 3.0, 5.0], atol=1e-10)

    def test_trace_conservation(self, f1, f2):
        for g in (f1, f2):
            r = reduce_all(g, "collapse")
            removed_weight = sum(b.q * b.star.weight_uniform for b in r.blocks)
            assert np.trace(analyze(r.reduced).matrix("mass-laplacian")) == pytest.approx(
                np.trace(analyze(g).matrix("laplacian")) - removed_weight, abs=1e-9
            )


class TestLift:
    def test_top_eigenvector(self, f1):
        r = reduce_one(f1, first_star(f1), 1)
        spec = sym_eigen(analyze(r.reduced).matrix("mass-laplacian"))
        lifted = lift_vector(r, spec.vectors[:, 3])
        lifted /= np.linalg.norm(lifted)
        target = np.array([1.0, 1.0, 1.0, -1.5, -1.5])
        target /= np.linalg.norm(target)
        assert min(np.abs(lifted - target).max(), np.abs(lifted + target).max()) <= 1e-8

    def test_difference_mode(self, f1):
        r = reduce_one(f1, first_star(f1), 1)
        lifted = lift_vector(r, np.array([1.0, -1.0, 0.0, 0.0]))
        assert abs(lifted.sum()) <= 1e-12
        assert np.abs(lifted[3:]).max() <= 1e-12
        lap = analyze(f1).matrix("laplacian")
        assert np.abs(lap @ lifted - 2.0 * lifted).max() <= 1e-9

    def test_right_eigvec_source(self, f1):
        # L(MB) = M^(1/2) L~ M^(-1/2) with M^(1/2) a positive diagonal, so
        # its right eigenvectors have the signs of L~'s, which fiedler reads
        r = reduce_one(f1, first_star(f1), 1)
        values, vectors = np.linalg.eig(mass_laplacian(r))
        order = np.argsort(values.real)
        right = vectors[:, order[1]].real
        lam2 = fiedler(r.reduced)
        assert not lam2.degenerate
        assert values.real[order[1]] == pytest.approx(lam2.lambda2)
        signs = eigen.signs(right)
        expected = eigen.signs(lam2.vector)
        assert np.any(signs) and (
            np.array_equal(signs, expected) or np.array_equal(signs, -expected)
        )

    def test_identity_reduction(self, f4):
        r = reduce_all(f4, "collapse")
        v = np.array([0.1, 0.2, 0.3, 0.4])
        assert np.array_equal(lift_vector(r, v), v)

    @pytest.mark.parametrize("shape", [(5,), (5, 3), (4, 3, 2), ()])
    def test_dimension_mismatch(self, f1, shape):
        r = reduce_one(f1, first_star(f1), 1)
        with pytest.raises(DimensionMismatchError):
            lift_vector(r, np.zeros(shape))

    @pytest.mark.parametrize("seed", range(10))
    def test_columns_lift_as_each_column_alone(self, seed):
        # one-column frames (collapse) make every lifted entry one product,
        # so the columns lift bit for bit; two-column frames (keep-pair) sum
        # two products, which a matrix and a vector product may round apart
        g = plant_star_graph(seed, 30, [(4, 2, 1.0), (5, 3, 2.0), (3, 2, 0.5)], background_p=0.2)
        for policy in ("collapse", "keep-pair"):
            r = reduce_all(g, policy)
            columns = np.random.default_rng(seed).standard_normal((r.reduced.n, 7))
            lifted = lift_vector(r, columns)
            one_by_one = np.column_stack([lift_vector(r, c) for c in columns.T])
            assert lifted.shape == (g.n, 7)
            if policy == "collapse":
                assert lifted.tobytes() == one_by_one.tobytes()
            else:
                assert np.abs(lifted - one_by_one).max() <= 1e-15 * np.abs(columns).max()


class TestVerification:
    def test_adjacency_fixture(self, f1):
        for q in (1, 2):
            checks = adjacency_checks(f1, reduce_one(f1, first_star(f1), q))
            assert [c for c in checks if not c.passed] == []

    def test_adjacency_spectrum_content(self, f1):
        r = reduce_one(f1, first_star(f1), 1)
        root = np.sqrt(np.asarray(r.reduced.mass))
        vals = sym_eigen(adjacency(r.reduced) * np.outer(root, root)).values
        assert np.allclose(vals, [-np.sqrt(6), 0.0, 0.0, np.sqrt(6)], atol=1e-10)
        r2 = reduce_one(f1, first_star(f1), 2)
        root2 = np.sqrt(np.asarray(r2.reduced.mass))
        vals2 = sym_eigen(adjacency(r2.reduced) * np.outer(root2, root2)).values
        assert np.allclose(vals2, [-np.sqrt(6), 0.0, np.sqrt(6)], atol=1e-10)

    def test_laplacian_fixture(self, f1, f2):
        for g, q in ((f1, 1), (f1, 2)):
            checks = laplacian_checks(g, reduce_one(g, first_star(g), q))
            assert all(c.passed for c in checks)
        checks = laplacian_checks(f2, reduce_all(f2, "collapse"))
        assert all(c.passed for c in checks)

    def test_identity_reduction_passes(self, f4):
        r = reduce_all(f4, "collapse")
        assert all(c.passed for c in verify_reduction(f4, r))
        assert interlacing(f4, r).passed

    def test_detects_wrong_mass(self, f1):
        r = reduce_one(f1, first_star(f1), 1)
        tampered = dataclasses.replace(
            r, reduced=build_graph(4, r.reduced.edges, mass=[2.0, 2.0, 1.0, 1.0])
        )
        assert not all(c.passed for c in adjacency_checks(f1, tampered))

    def test_a_spectrum_failure_reports_its_note(self, f1, tmp_path, monkeypatch, capsys):
        # ask the Laplacian spectrum check to remove a value L does not have
        reduce_all = reduction.reduce_all

        def misvalued(g, policy="collapse"):
            r = reduce_all(g, policy)
            blocks = tuple(dataclasses.replace(b, value=1e6) for b in r.blocks)
            return dataclasses.replace(r, blocks=blocks)

        monkeypatch.setattr(reduction, "reduce_all", misvalued)
        note = "no eigenvalue near 1e+06 to remove"
        notes = {c.name: c.note for c in verify_graph(f1).checks}
        assert notes["reduction-laplacian-spectrum"] == note
        path = tmp_path / "f1.graph"
        save_graph(f1, str(path))
        assert run_cli(["reduce", str(path), "-o", str(tmp_path / "out.graph")]) == 2
        err = capsys.readouterr().err
        assert f"failed checks: laplacian-spectrum ({note})" in err

    def test_interlacing_fixture(self, f1):
        assert interlacing(f1, reduce_one(f1, first_star(f1), 1)).passed


class TestRandomizedReductions:
    def test_planted_reductions_verify(self):
        for seed in range(10):
            g = plant_star_graph(seed=seed, n=16, star_specs=[(3, 2, 2.0)])
            r = reduce_all(g, "collapse")
            assert all(c.passed for c in verify_reduction(g, r))
            assert interlacing(g, r).passed


def _scaled(g, factor):
    return build_graph(g.n, [(u, v, w * factor) for u, v, w in g.edges])


LIFTS = ("adjacency-lift-residual", "laplacian-lift-residual")


def _sym_mass_adjacency(r):
    root = np.sqrt(np.asarray(r.reduced.mass))
    return adjacency(r.reduced) * np.outer(root, root)


def _per_vector_lift_residuals(g, r):
    """The per-eigenvector lift residuals that the intertwining check replaced.

    Each eigenvector v of S = M^(1/2) B M^(1/2) (of L~) with eigenvalue t is
    lifted to K v; its residual is |X K v - t K v| / radius with X = A (L)
    and radius the spectral radius of X, at least 1.  The largest residual
    per side is returned under the side's check name.
    """
    out = {}
    for name, x, reduced in (
        (LIFTS[0], adjacency(g), _sym_mass_adjacency(r)),
        (LIFTS[1], analyze(g).matrix("laplacian"), analyze(r.reduced).matrix("mass-laplacian")),
    ):
        radius = max(1.0, float(np.abs(np.linalg.eigvalsh(x)).max()))
        spec = sym_eigen(reduced)
        worst = 0.0
        for i in range(r.reduced.n):
            lifted = r.k_matrix @ spec.vectors[:, i]
            worst = max(worst, np.linalg.norm(x @ lifted - spec.values[i] * lifted) / radius)
        out[name] = worst
    return out


def _lift_checks(g, r):
    return {c.name: c for c in verify_reduction(g, r) if c.name in LIFTS}


def _planted_or_golden(name):
    if name == "stars120":
        return load_graph(str(Path(__file__).parent / "golden" / "stars120.graph"))
    return plant_star_graph(seed=int(name), n=16, star_specs=[(3, 2, 2.0)])


class TestIntertwiningLiftCheck:
    @pytest.mark.parametrize("name", [str(seed) for seed in range(10)] + ["stars120"])
    def test_bounds_the_per_vector_residuals(self, name):
        # the seeds are the planted reductions of TestRandomizedReductions
        g = _planted_or_golden(name)
        r = reduce_all(g, "collapse")
        reference = _per_vector_lift_residuals(g, r)
        for check_name, check in _lift_checks(g, r).items():
            assert check.passed == (reference[check_name] <= check.tol)
            assert reference[check_name] <= check.residual + 1e-12

    def test_random_orthonormal_k_fails(self, f2):
        # K with a random orthonormal frame in place of each star's frame
        r = reduce_all(f2, "collapse")
        rng = np.random.default_rng(0)
        frames = [np.linalg.qr(rng.standard_normal(b.frame.shape))[0] for b in r.blocks]
        tampered = _with_frames(r, frames)
        checks = _lift_checks(f2, tampered)
        assert sorted(checks) == sorted(LIFTS)
        assert not any(c.passed for c in checks.values())
        # every block of K's columns counts, the star blocks too
        reference, _ = _dense_residuals(f2, tampered, frames)
        for name, check in checks.items():
            assert check.residual == pytest.approx(reference[name], rel=1e-12)

    def test_non_orthonormal_frame_fails_k_orthonormality(self, f2):
        r = reduce_all(f2, "collapse")
        tampered = _with_frames(r, [2.0 * b.frame for b in r.blocks])
        checks = {c.name: c for c in verify_reduction(f2, tampered)}
        assert checks["k-orthonormality"].residual == pytest.approx(3.0)
        assert not checks["k-orthonormality"].passed

    def test_a_nan_frame_fails_every_check_through_k(self):
        # the NaN frame is not the first block read, so a maximum that drops
        # a NaN standing after a number would let these checks pass
        g = plant_star_graph(2, 40, [(3, 2, 1.0), (4, 2, 2.0), (3, 3, 1.5)], background_p=0.2)
        r = reduce_all(g, "keep-pair")
        assert len(r.blocks) == 3
        frames = [b.frame for b in r.blocks]
        frames[1] = np.full(frames[1].shape, np.nan)
        tampered = _with_frames(r, frames)
        checks = {c.name: c for c in verify_reduction(g, tampered)}
        for name in ("k-orthonormality", "adjacency-congruence") + LIFTS:
            assert np.isnan(checks[name].residual), name
            assert not checks[name].passed, name

    def test_a_k_whose_spectrum_fails_to_interlace_fails_interlacing(self, f2):
        # frames doubled, with the kept twins' masses times 4, keep the
        # congruence K^T A K = M^(1/2) B M^(1/2) exact, as D S D with D = 2
        # on the stars' columns; K is then not orthonormal, and the reduced
        # spectrum leaves A's
        r = reduce_all(f2, "collapse")
        kept = {r.vertex_map[v] for b in r.blocks for v in b.kept}
        mass = tuple(4.0 * m if v in kept else m for v, m in enumerate(r.reduced.mass))
        tampered = dataclasses.replace(
            _with_frames(r, [2.0 * b.frame for b in r.blocks]),
            reduced=dataclasses.replace(r.reduced, mass=mass),
        )
        checks = {c.name: c for c in verify_reduction(f2, tampered)}
        assert checks["adjacency-congruence"].passed and not checks["k-orthonormality"].passed
        assert interlacing(f2, r).passed
        failed = checks["interlacing"]
        assert failed.residual > failed.tol and not failed.passed

    @pytest.mark.parametrize("policy", ["collapse", "keep-pair"])
    def test_adjacency_checks_read_each_column_of_a_once(self, monkeypatch, policy):
        # the congruence and the lift residual share one pass of A K, whose
        # columns of A are written from the edges; the values come first
        ctx, r, gathered = _counted_columns(monkeypatch, policy)
        assert all(c.passed for c in verify_reduction(ctx, r))
        read = sorted(v for graph, family, v in gathered if (graph, family) == ("A", "adjacency"))
        assert read == list(range(ctx.graph.n))

    @pytest.mark.parametrize("policy", ["collapse", "keep-pair"])
    def test_reduction_checks_write_each_column_once(self, monkeypatch, policy):
        # one pass over A's columns and one over L's; the first writes the
        # columns of S and the second those of L~, which the similarity reads
        ctx, r, gathered = _counted_columns(monkeypatch, policy)
        assert all(c.passed for c in verify_reduction(ctx, r))
        families = [("A", "adjacency"), ("A", "laplacian"),
                    ("B", "mass-adjacency"), ("B", "mass-laplacian")]
        sizes = {"A": ctx.graph.n, "B": r.reduced.n}
        assert sorted(gathered) == sorted(
            (graph, family, v) for graph, family in families for v in range(sizes[graph])
        )


def _counted_columns(monkeypatch, policy):
    """stars120's analysis and reduction, its spectra solved, and a log of the columns written.

    Each column written afterwards is logged as (graph, family, vertex),
    graph "A" for the original and "B" for the reduced graph.
    """
    ctx = analyze(_planted_or_golden("stars120"))
    r = reduce_all(ctx, policy)
    red = ctx.reduced(r)
    for analysis in (ctx, red):
        analysis.values("mass-adjacency"), analysis.values("mass-laplacian")
    gathered = []
    columns = GraphAnalysis.columns

    def counted(self, family, idx):
        graph = "A" if self is ctx else "B" if self is red else "?"
        gathered.extend((graph, self._family(family), v) for v in idx.tolist())
        return columns(self, family, idx)

    monkeypatch.setattr(GraphAnalysis, "columns", counted)
    return ctx, r, gathered


def _with_frames(r, frames):
    """The reduction with each block's frame replaced."""
    blocks = tuple(dataclasses.replace(b, frame=f) for b, f in zip(r.blocks, frames))
    return dataclasses.replace(r, blocks=blocks)


def _dense_k_reference(r, frames=None):
    """K filled entry by entry into a dense array, as reductions used to store it.

    `frames`, one per reduced star, replace the star frames.
    """
    k = np.zeros((r.original.n, r.reduced.n))
    in_star_v1 = {v for block in r.blocks for v in block.star.v1}
    for v, new in enumerate(r.vertex_map):
        if new is not None and v not in in_star_v1:
            k[v, new] = 1.0
    for i, block in enumerate(r.blocks):
        frame = star_frame(block.star.m, len(block.kept)) if frames is None else frames[i]
        for a, orig in enumerate(sorted(block.star.v1)):
            for b, kept_orig in enumerate(block.kept):
                k[orig, r.vertex_map[kept_orig]] = frame[a, b]
    return k


def _dense_residuals(g, r, frames=None):
    """The residuals of the structural and lift checks computed through the dense K.

    Returns them by check name, with the spectral radius of A (at least 1).
    """
    k = _dense_k_reference(r, frames)
    a, lap = adjacency(g), analyze(g).matrix("laplacian")
    s, tilde = _sym_mass_adjacency(r), analyze(r.reduced).matrix("mass-laplacian")
    radius_a = max(1.0, float(np.abs(np.linalg.eigvalsh(a)).max()))
    radius_l = max(1.0, float(np.abs(np.linalg.eigvalsh(lap)).max()))
    residuals = {
        "k-orthonormality": float(np.abs(k.T @ k - np.eye(r.reduced.n)).max()),
        "adjacency-congruence": float(np.abs(k.T @ a @ k - s).max()),
        LIFTS[0]: float(np.linalg.norm(a @ k - k @ s)) / radius_a,
        LIFTS[1]: float(np.linalg.norm(lap @ k - k @ tilde)) / radius_l,
    }
    return residuals, radius_a


def _star_heavy_graph():
    # four 92-vertex stars leave n - q = 36 of 400 vertices, so a dense K
    # (400 x 36) outweighs every matrix of the reduced graph
    specs = [(92, 3, 1.0 + 0.5 * i) for i in range(4)]
    return plant_star_graph(8, 400, specs, background_p=0.1)


class TestImplicitK:
    @pytest.mark.parametrize("name", [str(seed) for seed in range(10)] + ["stars120"])
    def test_k_matrix_is_the_dense_k_bit_for_bit(self, name):
        r = reduce_all(_planted_or_golden(name), "collapse")
        k = r.k_matrix
        assert k.tobytes() == _dense_k_reference(r).tobytes()
        assert not k.flags.writeable

    @pytest.mark.parametrize("name", [str(seed) for seed in range(10)] + ["stars120"])
    def test_checks_agree_with_the_dense_k(self, name):
        g = _planted_or_golden(name)
        r = reduce_all(g, "collapse")
        reference, radius = _dense_residuals(g, r)
        checks = {c.name: c for c in verify_reduction(g, r) if c.name in reference}
        assert sorted(checks) == sorted(reference)
        for check_name, check in checks.items():
            # the lift residuals are already divided by their radius
            bound = 1e-12 if check_name in LIFTS else 1e-12 * radius
            assert abs(check.residual - reference[check_name]) <= bound, check_name
            assert check.passed == (reference[check_name] <= check.tol), check_name

    def test_lift_vector_through_the_frames(self):
        r = reduce_all(_planted_or_golden("stars120"), "collapse")
        v = np.random.default_rng(1).standard_normal(r.reduced.n)
        assert np.abs(lift_vector(r, v) - _dense_k_reference(r) @ v).max() <= 1e-14

    def test_checks_hold_less_than_a_dense_k(self):
        g = _star_heavy_graph()
        ctx = analyze(g)
        # the graph's own A, strengths, stars and spectra come first
        ctx.values("adjacency"), ctx.values("laplacian"), ctx.stars
        tracemalloc.start()
        try:
            r = reduce_all(ctx)
            assert all(c.passed for c in verify_reduction(ctx, r))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        dense_k = g.n * r.reduced.n * 8
        assert r.reduced.n == 36
        assert peak < dense_k, (peak, dense_k)


def _per_star(r):
    """(sorted original rows, reduced columns, frame) of each reduced star, in blocks order."""
    return [
        (sorted(b.star.v1), [r.vertex_map[v] for v in b.kept], b.frame)
        for b in r.blocks
    ]


def _mixed_shapes():
    # star shapes interleaved, so that stacking by shape reorders the stars
    specs = [(3, 2, 1.0), (4, 3, 2.0), (3, 2, 1.5), (5, 1, 1.0), (4, 3, 1.0), (3, 2, 0.5)]
    return plant_star_graph(6, 60, specs, background_p=0.2)


def _interleaved_shapes():
    # twelve stars of four shapes in shuffled order: with random frames,
    # one square per block of several stars rounds otherwise than one per star
    shapes = [(3, 2), (4, 3), (5, 1), (6, 2)]
    order = np.random.default_rng(0).permutation(12)
    return plant_star_graph(0, 110, [(*shapes[i % 4], float(1 + i % 3)) for i in order],
                            background_p=0.2)


@pytest.mark.parametrize("policy", ["collapse", "keep-pair"])
@pytest.mark.parametrize("make", [_mixed_shapes, _star_heavy_graph], ids=["mixed", "wide"])
def test_stacked_products_are_each_stars_own_bit_for_bit(make, policy):
    # one np.matmul per shape of K's star blocks gives, star by star, the
    # bits of that star's own frame product, and the column walk yields each
    # of K's columns once, in plain n x w blocks of X K
    g = make()
    r = reduce_all(g, policy)
    assert len({frame.shape for _, _, frame in _per_star(r)}) > 1 or make is _star_heavy_graph
    rng = np.random.default_rng(0)
    for m in (rng.standard_normal(r.reduced.n), rng.standard_normal((r.reduced.n, 3))):
        kx = reduction._k_times(r, m)
        for rows, cols, frame in _per_star(r):
            assert (kx[rows] == frame @ m[cols]).all()
    y = rng.standard_normal((g.n, 4))
    kty = reduction._kt_times(r, y)
    for rows, cols, frame in _per_star(r):
        assert (kty[cols] == frame.T @ y[rows]).all()
    x = rng.standard_normal((g.n, g.n))
    walked, columns = [], {}
    for cols, xk in reduction._column_blocks(r, lambda idx: np.take(x, idx, axis=1)):
        assert xk.shape == (g.n, len(cols))
        walked += cols.tolist()
        columns.update(zip(cols.tolist(), xk.T))
    assert sorted(walked) == list(range(r.reduced.n))
    step = max(1, r.reduced.n // 8)
    for rows, cols, frame in _per_star(r):
        xk = np.column_stack([columns[c] for c in cols])
        if len(rows) <= step:
            assert (xk == np.take(x, rows, axis=1) @ frame).all()
        else:
            assert np.abs(xk - x[:, rows] @ frame).max() <= 1e-12


def _lift_residual_reference(g, r, family):
    """A lift residual from dense matrices and per-star products, one square per block in walk order.

    The walk: the identity chunks, then, shape by shape in order of first
    use, step // m stars per block, or one star per block when m > step.
    """
    ctx = analyze(g)
    x, reduced = ctx.matrix(family), ctx.reduced(r).matrix(family)
    rows, cols = r._identity
    step = max(1, r.reduced.n // 8)
    by_shape = {}
    for star in _per_star(r):
        by_shape.setdefault(star[2].shape, []).append(star)

    def k_times(m):
        out = np.zeros((g.n,) + m.shape[1:])
        out[rows] = m[cols]
        for star_rows, star_cols, frame in _per_star(r):
            out[star_rows] = frame @ m[star_cols]
        return out

    blocks = [(cols[i:i + step], np.take(x, rows[i:i + step], axis=1))
              for i in range(0, rows.size, step)]
    for (m, _), stars in by_shape.items():
        per = 1 if m > step else step // m
        for start in range(0, len(stars), per):
            products = []
            for star_rows, _, frame in stars[start:start + per]:
                xk = np.take(x, star_rows[:step], axis=1) @ frame[:step]
                for i in range(step, m, step):
                    xk += np.take(x, star_rows[i:i + step], axis=1) @ frame[i:i + step]
                products.append(xk)
            block_cols = [c for _, star_cols, _ in stars[start:start + per] for c in star_cols]
            blocks.append((np.array(block_cols), np.hstack(products)))
    squares = 0.0
    for block_cols, xk in blocks:
        xk -= k_times(reduced[:, block_cols])
        squares += float(np.vdot(xk, xk))
    return math.sqrt(squares) / eigen.spectral_radius(ctx.values(family))


@pytest.mark.parametrize("tampered", [False, True], ids=["frames", "random-frames"])
@pytest.mark.parametrize("policy", ["collapse", "keep-pair"])
@pytest.mark.parametrize(
    "make", [_mixed_shapes, _interleaved_shapes, _star_heavy_graph],
    ids=["mixed", "interleaved", "wide"],
)
def test_lift_residuals_are_the_per_star_loops_bit_for_bit(make, policy, tampered):
    # one square per block, added in walk order as the loop adds them;
    # random orthonormal frames make every star's bits count
    g = make()
    r = reduce_all(g, policy)
    if tampered:
        rng = np.random.default_rng(0)
        r = _with_frames(
            r, [np.linalg.qr(rng.standard_normal(b.frame.shape))[0] for b in r.blocks]
        )
    lifts = _lift_checks(g, r)
    for name, family in zip(LIFTS, ("mass-adjacency", "mass-laplacian")):
        assert repr(lifts[name].residual) == repr(_lift_residual_reference(g, r, family))


def _similarity_reference(g):
    """The similarity check's deviation from the dense L(MB) and L~ expressions."""
    a, mass = adjacency(g), np.asarray(g.mass)
    root = np.sqrt(mass)
    with np.errstate(all="ignore"):
        lmb = np.diag((mass[:, None] * a).sum(axis=0)) - mass[:, None] * a
        similar = lmb * np.outer(1.0 / root, root)
        return float(np.abs(similar - analyze(g).matrix("mass-laplacian")).max())


def test_the_similarity_deviation_is_the_dense_one_bit_for_bit():
    written = load_graph(str(Path(__file__).parent / "golden" / "written_reduction.graph"))
    cases = [written, reduce_all(_mixed_shapes(), "keep-pair").reduced]
    # a mass of 5e-324 next to 1e308: 1/sqrt(m_i) * sqrt(m_j) overflows
    # off the edges, so the dense expression is NaN there
    extreme = dataclasses.replace(
        cases[1], mass=tuple(5e-324 if v == 0 else 1e308 if v == 1 else m
                             for v, m in enumerate(cases[1].mass))
    )
    for g in cases + [extreme]:
        ctx, every = analyze(g), np.arange(g.n)   # the helper on all of L~'s columns at once
        with np.errstate(all="ignore"):
            got = reduction._similarity_deviation(ctx, every, ctx.columns("mass-laplacian", every))
        assert repr(got) == repr(_similarity_reference(g))
    assert np.isnan(got)


def test_mass_laplacian_is_its_expression_bit_for_bit():
    r = reduce_all(reduce_all(_mixed_shapes(), "keep-pair").reduced, "collapse")
    a, mass = adjacency(r.reduced), np.asarray(r.reduced.mass)
    expected = np.diag((mass[:, None] * a).sum(axis=0)) - mass[:, None] * a
    got = mass_laplacian(r)
    assert min(mass) < max(mass)
    assert np.array_equal(got.view(np.int64), expected.view(np.int64))


class TestNonFiniteAndScale:
    def test_overflowing_strengths_fail_the_lift_residuals(self):
        # strengths and A K overflow to inf, so both intertwining defects are
        # NaN or inf
        g = _scaled(plant_star_graph(3, 30, [(3, 2, 2.0)], background_p=0.3), 2.5e307)
        r = reduce_all(g)
        with np.errstate(all="ignore"):
            checks = {c.name: c for c in verify_reduction(g, r)}
        for name in ("adjacency-lift-residual", "laplacian-lift-residual"):
            assert not np.isfinite(checks[name].residual)
            assert not checks[name].passed

    def test_non_finite_residual_never_passes(self):
        from starlap import Check

        assert not Check("c", float("nan"), 1.0).passed
        assert not Check("c", float("inf"), float("inf")).passed
        assert Check("c", 0.5, 1.0).passed

    @pytest.mark.parametrize("k", [-9, 9])
    def test_check_tolerances_scale_with_the_weights(self, k):
        g = plant_star_graph(0, 30, [(4, 3, 2.0)], background_p=0.3)
        scaled = _scaled(g, 10.0**k)
        relative = {"k-orthonormality", "adjacency-lift-residual", "laplacian-lift-residual"}
        plain = verify_reduction(g, reduce_all(g))
        for c, s in zip(plain, verify_reduction(scaled, reduce_all(scaled))):
            expected = c.tol if c.name in relative else c.tol * 10.0**k
            assert s.tol == pytest.approx(expected, rel=1e-12), c.name

    @pytest.mark.parametrize("k", [-9, 0, 6, 9])
    def test_interlacing_is_scale_covariant(self, k):
        for seed in range(20):
            g = plant_star_graph(seed, 60, [(4, 3, 2.0), (3, 2, 1.0)], background_p=0.2)
            g = _scaled(g, 10.0**k)
            assert interlacing(g, reduce_all(g)).passed, seed


def _match_after_removal_reference(original_vals, reduced_vals, removals, tol):
    """The list scan that _match_after_removal replaced."""
    vals = list(original_vals)
    for target in removals:
        idx = int(np.argmin([abs(v - target) for v in vals]))
        if abs(vals[idx] - target) > tol:
            return abs(vals[idx] - target), f"no eigenvalue near {target:.6g} to remove"
        vals.pop(idx)
    if len(vals) != len(reduced_vals):
        return float("inf"), "size mismatch after removal"
    deviation = float(np.abs(np.sort(vals) - np.sort(reduced_vals)).max()) if vals else 0.0
    return deviation, ""


def _spectrum_matches(g, r):
    """The (original, reduced, removals, tol) inputs of both spectrum checks."""
    a_vals = np.linalg.eigvalsh(adjacency(g))
    l_vals = np.linalg.eigvalsh(analyze(g).matrix("laplacian"))
    weights = [b.star.weight_uniform for b in r.blocks for _ in range(b.q)]
    return [
        (a_vals, np.linalg.eigvalsh(_sym_mass_adjacency(r)), [0.0] * r.q_total,
         1e-8 * max(1.0, np.abs(a_vals).max())),
        (l_vals, np.linalg.eigvalsh(analyze(r.reduced).matrix("mass-laplacian")), weights,
         1e-8 * max(1.0, np.abs(l_vals).max())),
    ]


def _same_match(args):
    from starlap.reduction import _match_after_removal

    dev, note = _match_after_removal(*args)
    ref_dev, ref_note = _match_after_removal_reference(*args)
    assert (repr(float(dev)), note) == (repr(float(ref_dev)), ref_note)


class TestMatchAfterRemoval:
    @pytest.mark.parametrize("name", [str(seed) for seed in range(10)] + ["stars120"])
    def test_equals_the_list_scan_on_planted_reductions(self, name):
        g = _planted_or_golden(name)
        r = reduce_all(g, "collapse")
        for original, reduced, removals, tol in _spectrum_matches(g, r):
            _same_match((original, reduced, removals, tol))
            # a removal that finds nothing, and one removal too many
            _same_match((original, reduced, removals + [1e6], tol))
            _same_match((original, reduced, removals[:-1], tol))

    @pytest.mark.parametrize(
        "original, reduced, removals, tol",
        [
            ([0.5, 1.5, 1.5, 3.0], [1.5, 3.0], [1.0, 1.5], 0.6),  # equidistant tie
            ([2.0, 2.0, 2.0], [2.0], [2.0, 2.0], 1e-9),          # exact ties
            ([0.0, 1.0, 2.0], [0.0, 2.0], [1.0], 0.0),           # zero tolerance
            ([0.0, np.nan, 1.0], [0.0], [1.0, 5.0], 0.5),        # NaN picked first
            ([0.0, np.inf, 1.0], [0.0, 1.0], [3.0], np.inf),     # infinite tolerance
            ([], [], [], 1e-9),
        ],
    )
    def test_equals_the_list_scan_on_edge_cases(self, original, reduced, removals, tol):
        with np.errstate(invalid="ignore"):
            _same_match((np.array(original), np.array(reduced), removals, tol))


class TestGraphsWithMasses:
    """A graph with masses, as reduce writes it, is checked through its mass families."""

    def test_identity_reduction_keeps_the_masses(self, tmp_path, capsys):
        # a path has no twins, so nothing is reduced; vertex 0 keeps mass 1.5
        path = tmp_path / "massed.graph"
        path.write_text("n 4\n0 1 1\n1 2 2\n2 3 3\nm 0 1.5\n", encoding="utf-8")
        assert run_cli(["verify", str(path)]) == 0
        capsys.readouterr()
        g = load_graph(str(path))
        ctx = analyze(g)
        r = reduce_all(ctx)
        assert r.reduced is g and ctx.reduced(r) is ctx and not ctx.unit_mass
        a, mass = adjacency(g), np.array([1.5, 1.0, 1.0, 1.0])
        root = np.diag(np.sqrt(mass))
        by_hand = np.diag((np.diag(mass) @ a).sum(axis=0)) - root @ a @ root
        values = ctx.values("mass-laplacian")
        assert np.allclose(values, sym_eigen(by_hand).values, rtol=0.0, atol=1e-12)
        assert not np.allclose(values, ctx.values("laplacian"))

    def test_a_reduced_graph_reduces_again(self, f1, tmp_path, capsys):
        # K_{3,2} with its three twins collapsed into a vertex of mass 3: the
        # two hubs are twins of weight 1, and of mass strength 3, the value
        # their difference vector takes in the mass Laplacian
        path = tmp_path / "half.graph"
        save_graph(reduce_one(f1, first_star(f1), 2).reduced, str(path))
        assert run_cli(["verify", str(path)]) == 0
        capsys.readouterr()
        half = analyze(load_graph(str(path)))
        r = reduce_all(half)
        assert r.q_total == 1
        reduced = half.reduced(r).values("mass-laplacian")
        assert np.allclose(half.values("mass-laplacian"), [0.0, 3.0, 5.0], rtol=0.0, atol=1e-12)
        assert np.allclose(reduced, [0.0, 5.0], rtol=0.0, atol=1e-12)

    def test_twins_of_unequal_mass_are_not_reduced(self, tmp_path, capsys):
        # 0, 1 and 3 hang off hub 2 with equal weights, but vertex 0 has mass 2
        path = tmp_path / "twins.graph"
        path.write_text("n 4\n0 2 1\n1 2 1\n2 3 1\nm 0 2\n", encoding="utf-8")
        warning = "star class v1=[0, 1, 3] has unequal masses and cannot be reduced"
        for command in ("verify", "stars"):
            assert run_cli([command, str(path), "--json"]) == 0
            assert json.loads(capsys.readouterr().out)["warnings"] == [warning]
        g = load_graph(str(path))
        star = first_star(g)
        assert star.v1 == (0, 1, 3) and star.weight_uniform is None
        for policy in ("collapse", "keep-pair"):
            assert reduce_all(g, policy).q_total == 0
        with pytest.raises(StructuralStarOnlyError):
            reduce_all(g, [1])
        with pytest.raises(StructuralStarOnlyError):
            reduce_one(g, star, 1)


@pytest.mark.parametrize("m", range(2, 13))
def test_frame_and_complement_make_an_orthogonal_matrix(m):
    for p in range(1, m + 1):
        square = np.hstack([star_frame(m, p), star_complement(m, p)])
        assert square.shape == (m, m)
        assert np.abs(square.T @ square - np.eye(m)).max() <= 1e-14


GOLDEN_GRAPHS = sorted((Path(__file__).parent / "golden").glob("*.graph"))


def _collapse_case(source):
    """A golden graph, or a planted one; odd seeds are keep-pair reductions, with masses."""
    if isinstance(source, Path):
        return load_graph(str(source))
    rng = np.random.default_rng(source)
    specs = [
        (int(rng.integers(2, 6)), int(rng.integers(1, 4)), float(rng.choice([0.5, 1.0, 2.0])))
        for _ in range(int(rng.integers(1, 5)))
    ]
    g = plant_star_graph(source, sum(m + k for m, k, _ in specs) + 8, specs, background_p=0.2)
    return reduce_all(g, "keep-pair").reduced if source % 2 else g


@pytest.mark.parametrize(
    "source, policy",
    [
        pytest.param(source, policy, id=name if policy == "collapse" else f"{name}-{policy}")
        for source, name in [(p, p.stem) for p in GOLDEN_GRAPHS]
        + [(seed, f"planted{seed}") for seed in range(20)]
        for policy in ("collapse", "keep-pair", "halves")
    ],
)
def test_the_collapse_gives_every_eigenvector_of_the_mass_laplacian(source, policy):
    # the paper's result: the collapsed graph's eigenvectors, lifted by K,
    # and each block's local vectors, orthogonal to its frame, are together
    # a complete orthonormal eigenbasis of the original mass Laplacian; a
    # block that keeps p >= 2 twins has its complement's columns checked too
    ctx = analyze(_collapse_case(source))
    if policy == "halves":   # an explicit q list: half of each reducible star goes
        policy = [s.m // 2 if s.weight_uniform is not None else 0 for s in ctx.stars]
    r = reduce_all(ctx, policy)
    tilde = ctx.matrix("mass-laplacian")
    bound = float(np.abs(tilde).sum(axis=1).max())
    spectrum = sym_eigen(ctx.reduced(r).matrix("mass-laplacian"))
    lifted = lift_vector(r, spectrum.vectors)
    residuals = [np.linalg.norm(tilde @ lifted - lifted * spectrum.values, axis=0)]
    columns = [lifted]
    for block in r.blocks:
        local = np.zeros((ctx.graph.n, block.q))
        local[list(block.rows)] = block.complement
        residuals.append(np.linalg.norm(tilde @ local - block.value * local, axis=0))
        columns.append(local)
    basis = np.hstack(columns)
    assert basis.shape == (ctx.graph.n, ctx.graph.n)
    assert np.abs(basis.T @ basis - np.eye(ctx.graph.n)).max() <= 1e-12
    assert np.concatenate(residuals).max() <= 1e-12 * bound
