import json
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from starlap import (
    analyze,
    group_multiplicities,
    spectral_gap_index,
    sym_eigen,
)
from starlap.eigen import (
    ROW_BLOCKS,
    SIGN_EPS,
    STEP_TOL,
    EigenvalueGroup,
    MultiplicityTable,
    _normalize_signs,
    eigenvector_at,
    row_blocks,
)
from starlap.errors import NotSymmetricError, TooFewValuesError

from reference import multiplicity_at

GOLDEN = Path(__file__).resolve().parent / "golden"


def rank_multiplicity(matrix, value):
    """Independent multiplicity oracle: nullity of (A - value I)."""
    shifted = matrix - value * np.eye(matrix.shape[0])
    return matrix.shape[0] - np.linalg.matrix_rank(shifted, tol=1e-8)


def test_two_by_two_closed_form():
    spec = sym_eigen(np.array([[1.0, -1.0], [-1.0, 1.0]]))
    assert np.allclose(spec.values, [0.0, 2.0])
    assert np.allclose(spec.vectors[:, 0], np.array([1.0, 1.0]) / np.sqrt(2))
    assert np.allclose(spec.vectors[:, 1], np.array([1.0, -1.0]) / np.sqrt(2))


def test_bipartite_fixture_spectrum(f1):
    # closed form for complete bipartite parts of sizes 3 and 2: {0, 2, 2, 3, 5}
    spec = sym_eigen(analyze(f1).matrix("laplacian"))
    assert np.allclose(spec.values, [0.0, 2.0, 2.0, 3.0, 5.0], atol=1e-10)


def test_identity_spectrum():
    spec = sym_eigen(np.eye(3))
    assert np.allclose(spec.values, [1.0, 1.0, 1.0])


def test_rejects_asymmetric():
    with pytest.raises(NotSymmetricError):
        sym_eigen(np.array([[0.0, 1.0], [0.5, 0.0]]))
    with pytest.raises(NotSymmetricError):
        sym_eigen(np.zeros((2, 3)))


def test_orthonormal_and_residual(f1):
    lap = analyze(f1).matrix("laplacian")
    spec = sym_eigen(lap)
    assert np.abs(spec.vectors.T @ spec.vectors - np.eye(5)).max() <= 1e-10
    residual = lap @ spec.vectors - spec.vectors @ np.diag(spec.values)
    assert np.abs(residual).max() <= 1e-10 * max(1.0, np.abs(lap).max())


def test_sign_convention():
    spec = sym_eigen(np.diag([3.0, 1.0, 2.0]))
    for c in range(3):
        col = spec.vectors[:, c]
        first = col[np.abs(col) > 1e-12][0]
        assert first > 0


def test_reconstruction_random():
    rng = np.random.default_rng(7)
    for n in (3, 10, 50):
        a = rng.normal(size=(n, n))
        a = 0.5 * (a + a.T)
        spec = sym_eigen(a)
        back = spec.vectors @ np.diag(spec.values) @ spec.vectors.T
        assert np.abs(back - a).max() <= 1e-9 * max(1.0, np.abs(a).max())
        assert spec.values.sum() == pytest.approx(np.trace(a), rel=1e-9, abs=1e-9)


def test_determinism():
    rng = np.random.default_rng(3)
    a = rng.normal(size=(8, 8))
    a = 0.5 * (a + a.T)
    first, second = sym_eigen(a), sym_eigen(a)
    assert np.array_equal(first.values, second.values)
    assert np.array_equal(first.vectors, second.vectors)


def test_values_match_independent_qr_solver():
    # scipy's 'ev' driver is plain QR iteration, a different algorithm from
    # the divide-and-conquer route underneath sym_eigen
    import scipy.linalg

    rng = np.random.default_rng(11)
    for n in (5, 20, 40):
        a = rng.normal(size=(n, n))
        a = 0.5 * (a + a.T)
        ours = sym_eigen(a).values
        theirs = scipy.linalg.eigh(a, eigvals_only=True, driver="ev")
        assert np.abs(ours - theirs).max() <= 1e-10 * max(1.0, np.abs(a).max())


def test_group_from_fixture_values():
    table = group_multiplicities([0.0, 2.0, 2.0, 3.0, 5.0], 1e-8)
    assert [(g.value, g.multiplicity) for g in table.groups] == [
        (0.0, 1), (2.0, 2), (3.0, 1), (5.0, 1),
    ]
    assert [(g.start, g.stop) for g in table.groups] == [(0, 1), (1, 3), (3, 4), (4, 5)]


def test_group_all_equal():
    table = group_multiplicities([0.0, 0.0, 0.0], 1e-8)
    assert [(g.value, g.multiplicity) for g in table.groups] == [(0.0, 3)]


def test_group_below_threshold_merges():
    table = group_multiplicities([0.0, 1e-12, 1.0], 1e-8)
    assert [g.multiplicity for g in table.groups] == [2, 1]
    assert table.groups[0].value == pytest.approx(0.0, abs=1e-12)


def test_group_empty():
    assert group_multiplicities([], 1e-8).groups == ()


def test_non_finite_values_do_not_widen_the_threshold():
    # the threshold is 1e-8 times the largest finite |value|, 2; a NaN one
    # would compare false everywhere and merge all five values
    with np.errstate(invalid="ignore"):
        table = group_multiplicities([0.0, 1.0, np.nan, 2.0, np.inf], 1e-8)
    assert table.tol == 2e-8
    groups = [(g.value, g.multiplicity) for g in table.groups]
    assert groups[0] == (0.0, 1) and groups[2] == (np.inf, 1)
    assert np.isnan(groups[1][0]) and groups[1][1] == 3


def test_multiplicity_at_fixture(f1):
    table = group_multiplicities(sym_eigen(analyze(f1).matrix("laplacian")).values, 1e-8)
    assert multiplicity_at(table, 2.0) == 2
    assert multiplicity_at(table, 7.0) == 0


@pytest.mark.parametrize("scale", [1e-9, 1.0, 1e9])
def test_grouping_and_lookup_scale_with_the_values(scale):
    table = group_multiplicities(np.array([0.0, 2.0, 2.0, 3.0, 5.0]) * scale, 1e-8)
    assert [g.multiplicity for g in table.groups] == [1, 2, 1, 1]
    looked_up = [multiplicity_at(table, v * scale) for v in (0.0, 2.0, 2.5, 2.0 + 1e-6)]
    assert looked_up == [1, 2, 0, 0]


def test_multiplicity_at_dependent_fixture(f3):
    lap = analyze(f3).matrix("laplacian")
    table = group_multiplicities(sym_eigen(lap).values, 1e-8)
    computed = multiplicity_at(table, 6.0)
    assert computed >= 1
    assert computed == rank_multiplicity(lap, 6.0)


def test_gap_index_dominant():
    assert spectral_gap_index([0.0, 0.1, 0.12, 3.0, 3.1]) == 3


def test_gap_index_tie_breaks_small():
    assert spectral_gap_index([0.0, 1.0, 2.0, 3.0]) == 1


def test_gap_index_fixture(f1):
    assert spectral_gap_index(sym_eigen(analyze(f1).matrix("laplacian")).values) == 1


def test_gap_index_too_few():
    with pytest.raises(TooFewValuesError):
        spectral_gap_index([1.0])


@st.composite
def symmetric_matrices(draw):
    n = draw(st.integers(1, 12))
    entries = draw(
        st.lists(
            st.floats(-1e6, 1e6, allow_nan=False, allow_subnormal=False),
            min_size=n * n,
            max_size=n * n,
        )
    )
    upper = np.triu(np.array(entries).reshape(n, n))
    return upper + np.triu(upper, 1).T


@given(symmetric_matrices())
@settings(max_examples=200, deadline=None)
def test_values_only_solve_matches_full_solve(a):
    values_only = sym_eigen(a, vectors=False)
    full = np.linalg.eigh(a)[0]
    assert values_only.vectors is None and values_only.n == a.shape[0]
    radius = float(np.abs(full).max())
    assert np.abs(values_only.values - full).max() <= 1e-12 * radius


def test_values_only_solve_keeps_the_checks():
    with pytest.raises(NotSymmetricError):
        sym_eigen(np.array([[0.0, 1.0], [0.5, 0.0]]), vectors=False)
    with pytest.raises(NotSymmetricError):
        sym_eigen(np.zeros((2, 3)), vectors=False)
    assert not sym_eigen(np.eye(3), vectors=False).values.flags.writeable


@pytest.mark.parametrize("bad", [np.inf, -np.inf, np.nan])
@pytest.mark.parametrize("vectors", [True, False])
def test_non_finite_matrix_gives_a_nan_spectrum_without_lapack(monkeypatch, bad, vectors):
    def refuse(*args, **kwargs):
        raise AssertionError("LAPACK called on a non-finite matrix")

    monkeypatch.setattr(np.linalg, "eigh", refuse)
    monkeypatch.setattr(np.linalg, "eigvalsh", refuse)
    a = np.array([[2.0, -1.0, 0.0], [-1.0, bad, -1.0], [0.0, -1.0, 1.0]])
    with np.errstate(invalid="ignore"):   # inf - inf in the symmetry scan
        spec = sym_eigen(a, vectors=vectors)
    assert spec.n == 3 and np.isnan(spec.values).all()
    assert not spec.values.flags.writeable
    if vectors:
        assert spec.vectors.shape == (3, 3) and np.isnan(spec.vectors).all()
    else:
        assert spec.vectors is None


def _normalize_signs_reference(vectors):
    """The per-column loop that _normalize_signs replaced."""
    out = vectors.copy()
    for c in range(out.shape[1]):
        col = out[:, c]
        significant = np.nonzero(np.abs(col) > SIGN_EPS)[0]
        if significant.size and col[significant[0]] < 0:
            out[:, c] = -col
    return out


def _sign_cases():
    rng = np.random.default_rng(5)
    yield "random", rng.standard_normal((7, 7))
    yield "eigenvectors", np.linalg.eigh(_path_laplacian(9))[1]
    cols = np.zeros((4, 8))
    cols[:, 1] = [SIGN_EPS, -1.0, 2.0, 0.0]           # entry at SIGN_EPS is not significant
    cols[:, 2] = [-SIGN_EPS, 1.0, -2.0, 0.0]
    cols[:, 3] = [np.nextafter(SIGN_EPS, 1.0), -1.0, 0.0, 0.0]
    cols[:, 4] = [-np.nextafter(SIGN_EPS, 1.0), 1.0, 0.0, 0.0]
    cols[:, 5] = [0.0, -0.0, -3.0, 1.0]                # negative leading entry after zeros
    cols[:, 6] = [-SIGN_EPS, SIGN_EPS, -0.5 * SIGN_EPS, 0.0]  # nothing significant
    cols[:, 7] = [-2.0, 0.0, 1.0, -0.0]
    yield "edge-columns", cols                         # column 0 is all zeros
    yield "empty", np.zeros((0, 0))
    yield "no-columns", np.zeros((3, 0))


def _path_laplacian(n):
    a = np.diag(np.ones(n - 1), 1)
    a = a + a.T
    return np.diag(a.sum(axis=1)) - a


@pytest.mark.parametrize("name, vectors", list(_sign_cases()))
def test_vectorised_sign_normalization_equals_the_loop(name, vectors):
    out = _normalize_signs(vectors)
    expected = _normalize_signs_reference(vectors)
    assert out.shape == expected.shape and out.dtype == expected.dtype
    assert out.tobytes() == expected.tobytes()  # bit for bit, signed zeros included
    assert out is not vectors


def _group_reference(values, tol_rel=1e-8):
    """The per-value loop that group_multiplicities replaced."""
    vals = np.asarray(values, dtype=float)
    if vals.size == 0:
        return MultiplicityTable(groups=())
    threshold = tol_rel * float(np.abs(vals[np.isfinite(vals)]).max(initial=0.0))
    groups = []
    start = 0
    for i in range(1, vals.size + 1):
        if i == vals.size or vals[i] - vals[i - 1] > threshold:
            chunk = vals[start:i]
            groups.append(
                EigenvalueGroup(
                    value=float(chunk.mean()), multiplicity=i - start, start=start, stop=i
                )
            )
            start = i
    return MultiplicityTable(groups=tuple(groups))


def _bits(table):
    return [(g.value.hex(), g.multiplicity, g.start, g.stop) for g in table.groups]


def _grouping_cases():
    rng = np.random.default_rng(17)
    for i in range(20):
        vals = np.sort(rng.normal(scale=10.0 ** rng.integers(-3, 4), size=rng.integers(1, 60)))
        yield f"random-{i}", vals, 1e-8
        yield f"random-coarse-{i}", vals, 0.05
    ties = np.sort(rng.integers(0, 5, size=40).astype(float) / 3.0)
    yield "exact-ties", ties, 1e-8
    # with max |value| 1 and tol_rel 0.25 the threshold is exactly 0.25
    yield "at-threshold", np.array([0.0, 0.25, 0.5, 0.75, 1.0]), 0.25
    yield "above-threshold", np.array([0.0, np.nextafter(0.25, 1.0), 0.5, 0.75, 1.0]), 0.25
    yield "single", np.array([3.0]), 1e-8
    yield "non-finite", np.array([0.0, 1.0, np.nan, 2.0, np.inf]), 1e-8


def test_gap_at_the_threshold_joins_and_above_it_splits():
    at = group_multiplicities([0.0, 0.25, 0.5, 0.75, 1.0], 0.25)
    above = group_multiplicities([0.0, np.nextafter(0.25, 1.0), 0.5, 0.75, 1.0], 0.25)
    assert [g.multiplicity for g in at.groups] == [5]
    assert [g.multiplicity for g in above.groups] == [1, 4]


def _golden_spectra():
    for path in sorted(GOLDEN.glob("*.spectrum-*.json")):
        values = json.loads(path.read_text(encoding="utf-8"))["values"]
        if values:
            yield path.stem, np.array(values), 1e-8


@pytest.mark.parametrize(
    "name, values, tol_rel", list(_grouping_cases()) + list(_golden_spectra())
)
def test_vectorised_grouping_equals_the_loop(name, values, tol_rel):
    with np.errstate(invalid="ignore"):
        assert _bits(group_multiplicities(values, tol_rel)) == _bits(
            _group_reference(values, tol_rel)
        )


def test_symmetry_scan_only_on_matrices_not_symmetric_bit_for_bit():
    near = np.array([[2.0, 1.0], [1.0 + 1e-13, 2.0]])   # within 1e-12 relative
    assert np.allclose(sym_eigen(near, vectors=False).values, [1.0, 3.0])
    with pytest.raises(NotSymmetricError):
        sym_eigen(np.array([[2.0, 1.0], [1.0 + 1e-9, 2.0]]))
    # NaN on one side only: not equal to its transpose, and the scan reads NaN
    one_sided = np.array([[2.0, np.nan], [1.0, 2.0]])
    with np.errstate(invalid="ignore"):
        spec = sym_eigen(one_sided)
    assert np.isnan(spec.values).all() and np.isnan(spec.vectors).all()


def _random_symmetric(seed):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(2, 40))
    upper = np.triu(rng.standard_normal((n, n)) * 10.0 ** rng.integers(-6, 7))
    return upper + np.triu(upper, 1).T


@pytest.mark.parametrize("seed", range(20))
def test_eigenvector_at_every_computed_eigenvalue(seed):
    a = _random_symmetric(seed)
    values, columns = np.linalg.eigh(a)
    radius = float(np.abs(values).max())
    gaps = np.diff(values)
    for i, value in enumerate(np.linalg.eigvalsh(a)):
        x = eigenvector_at(a, value)
        assert np.linalg.norm(x) == pytest.approx(1.0, abs=1e-15)
        assert np.linalg.norm(a @ x - value * x) <= 1e-12 * radius
        assert _normalize_signs(x[:, None])[:, 0].tobytes() == x.tobytes()
        gap = min(gaps[i - 1] if i else np.inf, gaps[i] if i < gaps.size else np.inf)
        if gap > 1e-6 * radius:   # a simple eigenvalue: the one eigenvector, up to its sign
            assert abs(x @ columns[:, i]) == pytest.approx(1.0, abs=1e-9)


def test_eigenvector_at_leaves_its_matrix_as_it_was():
    lap = _path_laplacian(7)
    value = np.linalg.eigvalsh(lap)[1]
    before = lap.copy()
    x = eigenvector_at(lap, value)   # shifted in place, then restored
    assert lap.tobytes() == before.tobytes()
    frozen = lap.copy()
    frozen.setflags(write=False)
    assert eigenvector_at(frozen, value).tobytes() == x.tobytes()
    assert frozen.tobytes() == before.tobytes()


def test_eigenvector_at_moves_an_exactly_singular_shift(monkeypatch):
    # L - 2I of a single unit edge is exactly singular for LAPACK's LU
    calls = []
    real = np.linalg.solve

    def solve(a, b):
        calls.append(np.diag(a).copy())
        return real(a, b)

    monkeypatch.setattr(np.linalg, "solve", solve)
    x = eigenvector_at(np.array([[1.0, -1.0], [-1.0, 1.0]]), 2.0)
    assert len(calls) == 2
    assert calls[1].tolist() == [-1.0 - np.spacing(2.0)] * 2   # one ulp of the row-sum bound 2
    assert np.allclose(x, [2**-0.5, -(2**-0.5)], rtol=0.0, atol=1e-14)


@pytest.mark.parametrize(
    "a, value",
    [
        (np.array([[2.0, -1.0], [-1.0, np.inf]]), 1.0),
        (np.array([[2.0, -1.0], [-1.0, np.nan]]), 1.0),
        (np.array([[1e308, -1e308], [-1e308, 1e308]]), 2.0),   # the row sums overflow
        (np.array([[1.0, -1.0], [-1.0, 1.0]]), np.nan),
    ],
)
def test_eigenvector_at_non_finite_gives_nan_without_a_solve(monkeypatch, a, value):
    def refuse(*args, **kwargs):
        raise AssertionError("LU solve of a non-finite input")

    monkeypatch.setattr(np.linalg, "solve", refuse)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        x = eigenvector_at(a, value)
    assert x.shape == (2,) and np.isnan(x).all()


def test_a_start_nearly_orthogonal_to_the_eigenvector_takes_a_second_step(monkeypatch):
    # sin(1..n) has a component of only 7e-4 along this eigenvector, so the
    # first step leaves a residual of about 4e-12 of the radius
    a = _random_symmetric(3)
    value = np.linalg.eigvalsh(a)[1]
    calls = []
    real = np.linalg.solve

    def solve(m, b):
        calls.append(np.linalg.norm(b))
        return real(m, b)

    monkeypatch.setattr(np.linalg, "solve", solve)
    x = eigenvector_at(a, value)
    assert len(calls) == 2
    assert np.linalg.norm(a @ x - value * x) <= STEP_TOL * float(np.abs(a).sum(axis=1).max())


@pytest.mark.parametrize("n", [0, 1, 2, 15, 16, 17, 33, 1000])
def test_row_blocks_cover_the_rows_once(n):
    blocks = list(row_blocks(n))
    assert len(blocks) <= ROW_BLOCKS
    assert [i for rows in blocks for i in range(rows.start, rows.stop)] == list(range(n))


@pytest.mark.parametrize("seed", range(5))
def test_row_sums_by_blocks_are_the_whole_sums(seed):
    # eigenvector_at sums |a| a block of rows at a time: each row's sum is
    # the one the whole matrix's sum gives, bit for bit
    rng = np.random.default_rng(seed)
    n = int(rng.integers(20, 300))
    a = rng.standard_normal((n, n)) * 10.0 ** rng.integers(-8, 9, size=(n, n))
    sums = np.empty(n)
    for rows in row_blocks(n):
        np.abs(a[rows]).sum(axis=1, out=sums[rows])
    assert sums.tobytes() == np.abs(a).sum(axis=1).tobytes()


def _late_entry(bad, diagonal):
    """A 50 x 50 symmetric matrix with one non-finite entry (or pair) in its last row block."""
    a = np.add.outer(np.arange(50.0), np.arange(50.0)) / 50.0
    if diagonal:
        a[47, 47] = bad
    else:
        a[47, 3] = a[3, 47] = bad
    return a


@pytest.mark.parametrize("bad", [np.inf, -np.inf, np.nan])
@pytest.mark.parametrize("diagonal", [True, False])
@pytest.mark.parametrize("vectors", [True, False])
def test_one_late_non_finite_entry_gives_a_nan_spectrum(monkeypatch, bad, diagonal, vectors):
    # the largest |entry| is read as max(a.max(), -a.min()), which keeps
    # the NaN and sees a -inf
    def refuse(*args, **kwargs):
        raise AssertionError("LAPACK called on a non-finite matrix")

    monkeypatch.setattr(np.linalg, "eigh", refuse)
    monkeypatch.setattr(np.linalg, "eigvalsh", refuse)
    spec = sym_eigen(_late_entry(bad, diagonal), vectors=vectors)
    assert spec.n == 50 and np.isnan(spec.values).all()
    assert spec.vectors is None if not vectors else np.isnan(spec.vectors).all()


@pytest.mark.parametrize("bad", [np.inf, -np.inf, np.nan, 1e308])
@pytest.mark.parametrize("diagonal", [True, False])
def test_eigenvector_at_a_late_non_finite_row_gives_nan(monkeypatch, bad, diagonal):
    # 1e308 entries make a row sum overflow in the last row block
    def refuse(*args, **kwargs):
        raise AssertionError("LU solve of a non-finite input")

    monkeypatch.setattr(np.linalg, "solve", refuse)
    a = _late_entry(bad, diagonal)
    if bad == 1e308:
        a[47, 10] = a[10, 47] = 1e308
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        x = eigenvector_at(a, 1.0)
    assert x.shape == (50,) and np.isnan(x).all()
