import dataclasses
import itertools
from pathlib import Path

import numpy as np
import pytest

from starlap import (
    build_graph,
    detect_stars,
    group_by_weight,
    load_graph,
    plant_ldependent_graph,
    plant_star_graph,
    predict_multiplicities,
    reduce_all,
    strengths,
    verify_ldependent,
    verify_star_predictions,
)
from starlap.errors import (
    ConditionViolatedError,
    IndexOutOfRangeError,
    InfeasibleSpecError,
    IsolatedVertexError,
    NoCommonStrengthError,
)
from starlap.stars import analyze

from reference import adjacency, multiplicity_at


def perturb_edge(g, target, new_weight):
    edges = [(u, v, new_weight if (u, v) == target else w) for u, v, w in g.edges]
    return build_graph(g.n, edges)


class TestDetect:
    def test_bipartite_detects_both_sides(self, f1):
        found = detect_stars(f1)
        # both sides of the complete bipartite graph are equal-neighborhood classes
        assert len(found) == 2
        assert found[0].v1 == (0, 1, 2)
        assert found[0].v2 == (3, 4)
        assert found[0].weight_uniform == pytest.approx(2.0)
        assert found[1].v1 == (3, 4)
        assert found[1].weight_uniform == pytest.approx(3.0)

    def test_double_star(self, f2):
        found = detect_stars(f2)
        assert [(s.v1, s.v2, s.weight_uniform) for s in found] == [
            ((2, 3), (0,), 1.0),
            ((4, 5), (1,), 1.0),
        ]

    def test_path_has_none(self, f4):
        assert detect_stars(f4) == []

    def test_perturbed_weight_goes_structural(self, f1):
        g = perturb_edge(f1, (0, 3), 2.0)
        found = detect_stars(g)
        broken = next(s for s in found if s.v1 == (0, 1, 2))
        assert broken.weight_uniform is None

    def test_isolated_twins_skipped(self):
        g = build_graph(4, [(0, 1, 1.0)])
        assert detect_stars(g) == []   # vertices 2, 3 share the empty neighborhood

    def test_v1_sets_disjoint_and_independent(self, f2):
        found = detect_stars(f2)
        seen = set()
        a = adjacency(f2)
        for s in found:
            assert not (set(s.v1) & seen)
            seen.update(s.v1)
            for i in s.v1:
                for j in s.v1:
                    assert a[i, j] == 0.0


class TestStarWeight:
    def test_values(self, f1, f2):
        assert detect_stars(f1)[0].weight_uniform == pytest.approx(2.0)
        for s in detect_stars(f2):
            assert s.weight_uniform == pytest.approx(1.0)

    def test_unequal_rows_raise(self, f1):
        g = perturb_edge(f1, (0, 3), 2.0)
        broken = next(s for s in detect_stars(g) if s.v1 == (0, 1, 2))
        assert broken.weight_uniform is None
        assert group_by_weight([broken]) == []   # a star without a weight is left out


class TestGrouping:
    def test_double_star_merges(self, f2):
        classes = group_by_weight(detect_stars(f2))
        assert len(classes) == 1
        assert classes[0].weight == pytest.approx(1.0)
        assert classes[0].degree == 2

    def test_bipartite_classes(self, f1):
        classes = group_by_weight(detect_stars(f1))
        assert [(c.weight, c.degree) for c in classes] == [(2.0, 2), (3.0, 1)]

    def test_distinct_weights_split(self):
        from starlap import MkStar

        synthetic = [
            MkStar(v1=(0, 1), v2=(9,), weight_uniform=1.0),
            MkStar(v1=(2, 3), v2=(8,), weight_uniform=1.5),
        ]
        classes = group_by_weight(synthetic)
        assert [c.weight for c in classes] == [1.0, 1.5]

    def test_tiny_weights_split_and_an_overflowed_weight_stands_alone(self):
        from starlap import MkStar

        synthetic = [
            MkStar(v1=(0, 1), v2=(9,), weight_uniform=1e-12),
            MkStar(v1=(2, 3), v2=(8,), weight_uniform=1.5e-12),
            MkStar(v1=(4, 5), v2=(7,), weight_uniform=float("inf")),
        ]
        classes = group_by_weight(synthetic)
        assert [c.weight for c in classes] == [1e-12, 1.5e-12, float("inf")]


def normalized_claims(g):
    """The (name, note) of the claims verify_star_predictions checks in the normalized Laplacian."""
    checks, _ = verify_star_predictions(g)
    return [(c.name, c.note) for c in checks if c.name.startswith("normalized")]


class TestPredictions:
    def test_bipartite(self, f1):
        assert predict_multiplicities(f1) == ((2.0, 2), (3.0, 1))
        assert normalized_claims(f1) == [("normalized-multiplicity(w=1)", "l=3")]

    def test_double_star(self, f2):
        assert predict_multiplicities(f2) == ((1.0, 2),)
        assert normalized_claims(f2) == [("normalized-multiplicity(w=1)", "l=2")]

    def test_path_empty(self, f4):
        assert predict_multiplicities(f4) == ()
        assert normalized_claims(f4) == []

    def test_dependent_rows_of_different_supports(self, f3, varied_supports):
        # each class of dependent rows claims its strength for L and Q, and
        # the total at 1 for the normalized Laplacian
        for g, w in ((f3, 6.0), (varied_supports, 3.0)):
            assert predict_multiplicities(g) == ((w, 1),)
            assert normalized_claims(g) == [("normalized-multiplicity(w=1)", "l=1")]
            checks, _ = verify_star_predictions(g)
            assert all(c.passed for c in checks) and [c.name for c in checks] == [
                f"laplacian-multiplicity(w={w:g})", f"signless-multiplicity(w={w:g})",
                "normalized-multiplicity(w=1)",
            ]

    def test_verification_passes(self, f1, f2):
        for g in (f1, f2):
            checks, _ = verify_star_predictions(g)
            assert checks and all(c.passed for c in checks)

    def test_fixture_multiplicity_is_tight(self, f1):
        # two eigenvalues of L lie at 2, and a third does not
        two, three = analyze(f1).check_claims("laplacian", [(2.0, 2), (2.0, 3)], 1e-8)
        assert two.passed and two.residual <= 1e-14
        assert not three.passed

    def test_perturbed_is_vacuous_with_warning(self, f1):
        # the broken class claims nothing at its mean strength 7/3 (nor does
        # anything at 3); its members 1 and 2 keep equal rows, one dependent
        # row at strength 2
        g = perturb_edge(f1, (0, 3), 2.0)
        checks, warnings = verify_star_predictions(g)
        assert all(c.passed for c in checks)
        assert any("v1=[0, 1, 2]" in w and "cannot be reduced" in w for w in warnings)
        assert [(c.name, c.note) for c in checks] == [
            ("laplacian-multiplicity(w=2)", "l=1"),
            ("signless-multiplicity(w=2)", "l=1"),
            ("normalized-multiplicity(w=1)", "l=1"),
        ]


class TestVerifyLDependent:
    def test_fixture_accepted(self, f3):
        part = verify_ldependent(f3, v1=[0, 1], v2=[2, 3, 4], v3=[5])
        assert part.wtilde == pytest.approx(6.0)
        assert part.coefficients[5][0] == pytest.approx(0.5)
        assert part.coefficients[5][1] == pytest.approx(0.5)
        assert part.coefficients_nonnegative

    def test_residual_failure(self, f3):
        self._assert_residual_failure(f3, scale=1.0)

    def test_residual_failure_at_tiny_weights(self, f3):
        self._assert_residual_failure(f3, scale=1e-12)

    @staticmethod
    def _assert_residual_failure(f3, scale):
        edges = [(u, v, (1.6 if (u, v) == (2, 5) else w) * scale) for u, v, w in f3.edges]
        g = build_graph(6, edges)
        with pytest.raises(ConditionViolatedError) as err:
            verify_ldependent(g, v1=[0, 1], v2=[2, 3, 4], v3=[5])
        assert err.value.condition == 3

    def test_first_failing_row_is_reported(self, f3):
        # neither row 1 nor row 5 is a multiple of row 0
        with pytest.raises(ConditionViolatedError) as err:
            verify_ldependent(f3, v1=[0], v2=[2, 3, 4], v3=[5, 1])
        assert (err.value.condition, err.value.vertex) == (3, 1)

    def test_star_is_special_case(self, f1):
        part = verify_ldependent(f1, v1=[0, 1], v2=[3, 4], v3=[2])
        assert part.wtilde == pytest.approx(2.0)
        assert sum(part.coefficients[2].values()) == pytest.approx(1.0)

    def test_condition_one(self, f3):
        with pytest.raises(ConditionViolatedError) as err:
            verify_ldependent(f3, v1=[0, 1], v2=[2, 3, 4, 5], v3=[])
        assert err.value.condition == 1   # vertex 5 in v2 has no v1 neighbor

    def test_condition_two(self, f3):
        with pytest.raises(ConditionViolatedError) as err:
            verify_ldependent(f3, v1=[0, 1, 5], v2=[2, 3], v3=[])
        assert err.value.condition == 2   # edges into vertex 4 leave v2

    def test_no_common_strength(self):
        self._assert_no_common_strength(scale=1.0)

    def test_no_common_strength_at_tiny_weights(self):
        self._assert_no_common_strength(scale=1e-12)

    @staticmethod
    def _assert_no_common_strength(scale):
        edges = [(0, 2, 1.0), (0, 3, 1.0), (1, 2, 2.0), (1, 3, 2.0)]
        g = build_graph(4, [(u, v, w * scale) for u, v, w in edges])
        with pytest.raises(NoCommonStrengthError):
            verify_ldependent(g, v1=[0], v2=[2, 3], v3=[1])

    def test_overflowed_strength_is_not_common(self):
        # equal rows whose strengths 2e308 overflow to inf
        g = build_graph(4, [(0, 2, 1e308), (0, 3, 1e308), (1, 2, 1e308), (1, 3, 1e308)])
        with np.errstate(over="ignore", invalid="ignore"), pytest.raises(NoCommonStrengthError):
            verify_ldependent(g, v1=[0], v2=[2, 3], v3=[1])

    def test_empty_v3_is_vacuous(self, f3):
        part = verify_ldependent(f3, v1=[0, 1], v2=[2, 3, 4], v3=[])
        assert part.l == 0 and part.coefficients == {}

    @pytest.mark.parametrize("v1, v3", [([0, 1], [5, 5]), ([0, 0, 1], [5]), ([0, 1], [1, 5])])
    def test_repeated_or_shared_vertex(self, f3, v1, v3):
        with pytest.raises(ConditionViolatedError) as err:
            verify_ldependent(f3, v1=v1, v2=[2, 3, 4], v3=v3)
        assert err.value.condition == 0

    @pytest.mark.parametrize(
        "v1, v3, bad", [([-6, 1], [5], -6), ([0, 1], [99], 99), ([0, 6], [5], 6)]
    )
    def test_vertex_out_of_range(self, f3, v1, v3, bad):
        with pytest.raises(IndexOutOfRangeError) as err:
            verify_ldependent(f3, v1=v1, v2=[2, 3, 4], v3=v3)
        assert err.value.index == bad and err.value.n == 6


class TestProportionalDetection:
    def test_bipartite_groups(self, f1):
        parts = analyze(f1).dependent_rows
        assert len(parts) == 2
        first = parts[0]
        assert (first.v1, first.v3, first.wtilde, first.l) == ((0,), (1, 2), 2.0, 2)
        assert first.v2 == (3, 4)
        second = parts[1]
        assert (second.v1, second.v3, second.wtilde, second.l) == ((3,), (4,), 3.0, 1)

    def test_proportional_but_different_strength_excluded(self):
        # rows of 1 and 3 point the same way at strengths 2 and 4; the extra
        # pendant on 0 keeps any other pair from sharing a row
        g = build_graph(
            5, [(1, 0, 1.0), (1, 2, 1.0), (3, 0, 2.0), (3, 2, 2.0), (4, 0, 0.7)]
        )
        assert analyze(g).dependent_rows == ()

    def test_multi_term_combination_found(self, f3):
        (part,) = analyze(f3).dependent_rows
        assert (part.v1, part.v2, part.v3, part.wtilde) == ((0, 1), (2, 3, 4), (5,), 6.0)
        assert part.coefficients[5] == pytest.approx({0: 0.5, 1: 0.5})

    def test_detector_output_verifies(self, f1, f2, f3, varied_supports):
        for g in (f1, f2, f3, varied_supports):
            for p in analyze(g).dependent_rows:
                verified = verify_ldependent(g, p.v1, p.v2, p.v3)
                assert verified.wtilde == pytest.approx(p.wtilde)


class TestDependentRows:
    def test_adjacent_members_fall_back_to_their_stars(self):
        # 0 and 1 are twins on {2, 3}; 2 and 3 are adjacent, and 2 has the
        # twins' strength 2 and shares neighbour 3 with them, so the class of
        # strength 2 has no disjoint v2 and only the twin pair is kept
        g = build_graph(4, [(0, 2, 0.5), (0, 3, 1.5), (1, 2, 0.5), (1, 3, 1.5), (2, 3, 1.0)])
        (part,) = analyze(g).dependent_rows
        assert (part.v1, part.v2, part.v3) == ((0,), (2, 3), (1,))

    def test_dependent_column_before_an_independent_one(self):
        # rows (2, 0), (2, 0), (1, 1) toward {3, 4}: the repeated row leaves
        # a zero on the QR diagonal, and the third row still joins v1
        g = build_graph(5, [(0, 3, 2.0), (1, 3, 2.0), (2, 3, 1.0), (2, 4, 1.0)])
        (part,) = analyze(g).dependent_rows
        assert (part.v1, part.v2, part.v3) == ((0, 2), (3, 4), (1,))

    def test_drifting_class_is_split_at_its_first_member(self):
        # strengths 1, 1, 1 + 0.9e-9 and 1 + 1.8e-9: the class of the smallest
        # takes those within 1e-9 of it, and the last starts a class of its
        # own; without it, rows 0 and 1 are equal
        g = build_graph(
            7,
            [
                (0, 5, 0.5), (0, 6, 0.5), (1, 5, 0.5), (1, 6, 0.5),
                (2, 5, 0.3), (2, 6, 0.7 + 0.9e-9), (3, 5, 0.2), (3, 6, 0.8 + 1.8e-9),
            ],
        )
        (part,) = analyze(g).dependent_rows
        assert (part.v1, part.v2, part.v3) == ((0, 2), (5, 6), (1,))

    def test_near_tie_twins_give_one_claim_under_every_labelling(self):
        # the README's twins 0-3 toward {4, 5}, strengths equal only within
        # about 2e-9: the class of the smallest leaves out vertex 2 whatever
        # the labels, and the other three rows in the plane give l = 1
        rows = [
            (0.746839440993691, 1.3857914105513542),
            (0.7468394390005897, 1.3857914137511402),
            (0.7468394378537437, 1.3857914158336861),
            (0.7468394390005897, 1.385791414040458),
        ]
        for perm in itertools.permutations(range(4)):
            g = build_graph(6, [(perm[i], 4 + j, w) for i, row in enumerate(rows)
                                for j, w in enumerate(row)])
            assert [p.l for p in analyze(g).dependent_rows] == [1], perm

    def test_drifting_strengths_give_one_claim_set_under_every_labelling(self):
        # strengths 1, 1, 1 + 0.9e-9, 1 + 1.8e-9, 1 + 1.8e-9 toward hubs 5
        # and 6: classes {1, 1, 1 + 0.9e-9} and {1 + 1.8e-9} twice, each with
        # one dependent row, whichever vertex comes first
        rows = [(0.4, 0.6), (0.4, 0.6), (0.3, 0.7 + 0.9e-9), (0.2, 0.8 + 1.8e-9),
                (0.2, 0.8 + 1.8e-9)]
        for perm in itertools.permutations(range(5)):
            g = build_graph(7, [(perm[i], 5 + j, w) for i, row in enumerate(rows)
                                for j, w in enumerate(row)])
            claims = [(round(w, 6), l) for w, l in predict_multiplicities(g)]
            assert claims == [(1.0, 1), (1.0, 1)], perm

    @pytest.mark.parametrize("weight", [1.0, 1e-300])
    def test_tiny_weights_give_the_partitions_of_unit_weights(self, weight):
        # a 4-cycle: 0 and 3 are twins on {1, 2}, and 1 and 2 twins on {0, 3}
        g = build_graph(4, [(0, 1, weight), (0, 2, weight), (3, 1, weight), (3, 2, weight)])
        parts = analyze(g).dependent_rows
        assert [(p.v1, p.v2, p.v3) for p in parts] == [((0,), (1, 2), (3,)), ((1,), (0, 3), (2,))]
        assert [p.wtilde for p in parts] == [2 * weight, 2 * weight]


class TestDependenceSplit:
    def test_fixture_class(self, f3):
        (part,) = analyze(f3).dependent_rows
        assert part.v1 == (0, 1) and part.v3 == (5,)

    def test_hub_side_is_rank_two(self):
        # rows of 2, 3, 4 toward {0, 1, 5} satisfy row4 = 2 row3 - row2, and
        # rows of 0, 1, 5 toward {2, 3, 4} satisfy row5 = (row0 + row1) / 2;
        # every strength is 6
        rows = {2: (1.0, 3.0, 2.0), 3: (2.0, 2.0, 2.0), 4: (3.0, 1.0, 2.0)}
        g = build_graph(6, [(h, x, w) for h, row in rows.items() for x, w in zip((0, 1, 5), row)])
        parts = analyze(g).dependent_rows
        assert [(p.v1, p.v3) for p in parts] == [((0, 1), (5,)), ((2, 3), (4,))]
        assert parts[1].coefficients[4] == pytest.approx({2: -1.0, 3: 2.0})
        assert not parts[1].coefficients_nonnegative

    def test_independent_rows(self):
        g = build_graph(4, [(0, 2, 1.0), (0, 3, 2.0), (1, 2, 2.0), (1, 3, 1.0)])
        assert analyze(g).dependent_rows == ()


class TestPlantStars:
    def test_requested_star_is_detected(self):
        g = plant_star_graph(seed=1, n=5, star_specs=[(3, 2, 2.0)])
        found = detect_stars(g)
        assert any(s.m == 3 and s.k == 2 and s.weight_uniform == pytest.approx(2.0) for s in found)

    def test_two_stars_one_class(self):
        g = plant_star_graph(seed=2, n=12, star_specs=[(2, 1, 1.0), (2, 1, 1.0)])
        classes = group_by_weight(detect_stars(g))
        target = next(c for c in classes if abs(c.weight - 1.0) <= 1e-9)
        assert target.degree == 2

    def test_infeasible(self):
        with pytest.raises(InfeasibleSpecError):
            plant_star_graph(seed=3, n=4, star_specs=[(3, 3, 1.0)])

    def test_reproducible(self):
        a = plant_star_graph(seed=9, n=20, star_specs=[(3, 2, 2.0)])
        b = plant_star_graph(seed=9, n=20, star_specs=[(3, 2, 2.0)])
        assert a == b

    def test_multiplicity_bound_holds(self):
        for seed in range(12):
            g = plant_star_graph(seed=seed, n=18, star_specs=[(3, 2, 2.0), (2, 2, 0.5)])
            assert all(c.passed for c in verify_star_predictions(g)[0])


class TestPlantDependent:
    def test_planted_partition_accepted(self):
        g = plant_ldependent_graph(seed=1, sizes=(2, 3, 1), wtilde=6.0)
        part = verify_ldependent(g, v1=[0, 1], v2=[2, 3, 4], v3=[5])
        assert part.wtilde == pytest.approx(6.0)
        assert np.allclose(strengths(g)[[0, 1, 5]], 6.0)

    def test_eigenvalue_bound(self):
        from starlap import group_multiplicities, sym_eigen

        g = plant_ldependent_graph(seed=2, sizes=(3, 4, 3), wtilde=4.0)
        table = group_multiplicities(sym_eigen(analyze(g).matrix("laplacian")).values, 1e-8)
        assert multiplicity_at(table, 4.0) >= 3

    def test_degenerate_sizes(self):
        g = plant_ldependent_graph(seed=3, sizes=(1, 1, 0), wtilde=5.0)
        assert g.n == 2 and len(g.edges) == 1
        assert g.edges[0][2] == pytest.approx(5.0)

    def test_infeasible(self):
        with pytest.raises(InfeasibleSpecError):
            plant_ldependent_graph(seed=1, sizes=(0, 3, 1), wtilde=6.0)


def test_detection_is_relabeling_invariant(f2):
    rng = np.random.default_rng(5)
    perm = rng.permutation(f2.n)
    relabeled = build_graph(f2.n, [(perm[u], perm[v], w) for u, v, w in f2.edges])
    original = {tuple(sorted(perm[v] for v in s.v1)) for s in detect_stars(f2)}
    assert {s.v1 for s in detect_stars(relabeled)} == original


class TestIdentityReductionReuse:
    def test_unit_masses_read_the_original_spectra(self):
        # the only star has unequal weight vectors, so nothing is removed
        ctx = analyze(plant_ldependent_graph(3, (4, 30, 10), 6.0))
        r = reduce_all(ctx)
        assert r.q_total == 0
        red = ctx.reduced(r)
        assert red.values("mass-adjacency") is ctx.values("adjacency")
        assert red.values("mass-laplacian") is ctx.values("laplacian")
        assert red.second_vector("mass-laplacian") is ctx.second_vector("laplacian")

    def test_masses_are_solved_on_their_own(self):
        # a collapsed graph keeps no twins, so reducing it again removes
        # nothing, but its masses make M^(1/2) A M^(1/2) differ from A
        massed = reduce_all(plant_star_graph(2, 30, [(4, 3, 2.0)], background_p=0.3)).reduced
        ctx = analyze(massed)
        r = reduce_all(ctx)
        assert r.q_total == 0 and max(massed.mass) > 1.0
        red = ctx.reduced(r)
        root = np.sqrt(np.asarray(massed.mass))
        expected = np.linalg.eigvalsh(adjacency(massed) * np.outer(root, root))
        assert np.array_equal(red.values("mass-adjacency"), expected)
        assert not np.allclose(red.values("mass-adjacency"), ctx.values("adjacency"))
        assert np.allclose(red.values("mass-laplacian"), np.linalg.eigvalsh(red.matrix("mass-laplacian")))


GOLDEN = Path(__file__).resolve().parent / "golden"
FAMILIES = ("adjacency", "laplacian", "signless", "normalized", "mass-adjacency", "mass-laplacian")


def _column_sums_of_ma(g):
    """The mass strengths as the column sums of the dense M A."""
    with np.errstate(all="ignore"):
        return (np.asarray(g.mass)[:, None] * adjacency(g)).sum(axis=0)


def _family_expression(g, family):
    """A family as its plain numpy expression over a dense A makes it, n x n temporaries and all."""
    a, s = adjacency(g), strengths(g)
    if all(m == 1.0 for m in g.mass):
        family = family.removeprefix("mass-")
    if family == "adjacency":
        return a
    if family == "laplacian":
        return np.diag(s) - a
    if family == "signless":
        return np.diag(s) + a
    if family == "normalized":
        inv_sqrt = 1.0 / np.sqrt(s)
        lhat = -a * np.outer(inv_sqrt, inv_sqrt)
        np.fill_diagonal(lhat, 1.0)
        return lhat
    root = np.sqrt(np.asarray(g.mass))
    sym = a * np.outer(root, root)
    return sym if family == "mass-adjacency" else np.diag(_column_sums_of_ma(g)) - sym


def _with_an_inf_weight(g):
    w = g.w.copy()
    w[w.size // 2] = np.inf
    return dataclasses.replace(g, w=w)


def _with_masses(g, mass):
    return dataclasses.replace(g, mass=tuple(float(m) for m in mass))


_unit = plant_star_graph(3, 70, [(4, 3, 2.0), (3, 2, 1.0)], background_p=0.1)
_masses = load_graph(str(GOLDEN / "written_reduction.graph"))
# every strength overflows to inf, and every inverse square root is 0
_cycle_1e308 = build_graph(4, [(0, 1, 1e308), (1, 2, 1e308), (2, 3, 1e308), (0, 3, 1e308)])
# subnormal strengths: the normalized scale's outer product overflows, so
# its zeros off the edges are -0.0 * inf, NaN
_subnormal = build_graph(5, [(0, 1, 1e-310), (1, 2, 3e-310), (2, 3, 1.0), (3, 4, 2e-311)])
# masses near the largest double: mass strengths and mass-family entries overflow to inf
_heavy = _with_masses(_unit, [1.7e308 if v % 3 == 0 else 1.0 + v for v in range(_unit.n)])
_BIT_GRAPHS = {
    **{p.stem: load_graph(str(p)) for p in sorted(GOLDEN.glob("*.graph"))},
    "unit-mass": _unit,
    "unit-mass-inf": _with_an_inf_weight(_unit),
    "written_reduction-inf": _with_an_inf_weight(_masses),
    "cycle-1e308": _cycle_1e308,
    "subnormal": _subnormal,
    "heavy-masses": _heavy,
}


def _same_bits(x, y):
    return x.shape == y.shape and np.array_equal(x.view(np.int64), y.view(np.int64))


@pytest.mark.parametrize("name", list(_BIT_GRAPHS))
@pytest.mark.parametrize("family", FAMILIES)
def test_each_family_is_its_expression_bit_for_bit(name, family):
    # through int64 views, so signed zeros and NaN bits count; written from
    # the edges, all columns at once and a few at a time
    g = _BIT_GRAPHS[name]
    ctx = analyze(g)
    with np.errstate(all="ignore"):
        expected = _family_expression(g, family)
        assert _same_bits(ctx.matrix(family), expected)
        idx = np.arange(g.n)[::-3]
        assert _same_bits(ctx.columns(family, idx), np.ascontiguousarray(expected[:, idx]))


@pytest.mark.parametrize("name", list(_BIT_GRAPHS))
def test_mass_strengths_are_the_column_sums_bit_for_bit(name):
    g = _BIT_GRAPHS[name]
    assert _same_bits(np.asarray(analyze(g).mass_strengths), _column_sums_of_ma(g))


def test_adjacency_blocks_are_the_dense_blocks():
    g = _BIT_GRAPHS["stars120"]
    rows, cols = [5, 0, 119, 40], [3, 7, 0, 118, 41, 60]
    assert _same_bits(analyze(g).adjacency_block(rows, cols), adjacency(g)[np.ix_(rows, cols)])


def test_an_isolated_vertex_has_no_normalized_matrix():
    ctx = analyze(build_graph(3, [(0, 1, 1.0)]))
    for build in (lambda: ctx.matrix("normalized"), lambda: ctx.columns("normalized", [0])):
        with pytest.raises(IsolatedVertexError):
            build()
