"""Deterministic dense symmetric eigendecomposition and multiplicity grouping.

The one tolerance rule of starlap: every tolerance is relative to what it
compares, with no absolute floor, so no verdict changes when all weights are
scaled alike.  A weight comparison allows stars.WEIGHT_TOL times the weight
compared (a piece or class strength, a row's largest entry, or max |A| for a
reduction's congruence); a spectral one allows tol times the family's
spectral_radius, its largest finite |eigenvalue|, so no NaN or inf widens it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterator, Sequence

import numpy as np

from .errors import NotSymmetricError, TooFewValuesError

DEFAULT_TOL = 1e-8
# an entry of a unit eigenvector at most this large has no sign
SIGN_EPS = 1e-12
# inverse iteration stops once the residual is within STEP_TOL of the row-sum
# bound: one step reached it on 589 planted graphs (at most 5e-14); a start
# nearly orthogonal to the eigenvector, as sin(1..n) is to some twin pairs'
# e_i - e_j, needs a second
STEP_TOL = 1e-13
MAX_STEPS = 3
# an n x n scan goes through at most this many blocks of rows, so that its
# temporaries stay a small fraction of one dense matrix
ROW_BLOCKS = 16


@dataclass(frozen=True)
class Spectrum:
    """Ascending eigenvalues with matched orthonormal eigenvector columns.

    Column i of `vectors` pairs with `values[i]`.  Columns are sign-normalized
    so the first entry of magnitude above 1e-12 is positive, which makes
    downstream sign comparisons deterministic.  `vectors` is None when only
    the eigenvalues were asked for.
    """

    values: np.ndarray
    vectors: np.ndarray | None
    n: int


@dataclass(frozen=True)
class Check:
    """A named check of one claim: it passes when its residual is finite and at most tol.

    Every check starlap reports is one: a multiplicity claim, a reduction
    identity, interlacing and the Fiedler sign agreement.  `note` says what
    the residual alone does not (the claimed multiplicity, why a comparison
    was inconclusive, why a spectrum failed to match).
    """

    name: str
    residual: float
    tol: float
    note: str = ""

    @property
    def passed(self) -> bool:
        return math.isfinite(self.residual) and self.residual <= self.tol


@dataclass(frozen=True)
class EigenvalueGroup:
    value: float        # representative: mean of the group's eigenvalues
    multiplicity: int
    start: int          # index span [start, stop) into the Spectrum
    stop: int


@dataclass(frozen=True)
class MultiplicityTable:
    groups: tuple[EigenvalueGroup, ...]
    tol: float = 0.0    # the absolute gap the groups were formed at


def row_blocks(n: int) -> Iterator[slice]:
    """Consecutive slices of range(n), at most ROW_BLOCKS of them, of equal size but the last."""
    step = max(1, -(-n // ROW_BLOCKS))
    for start in range(0, n, step):
        yield slice(start, min(start + step, n))


def _normalize_signs(vectors: np.ndarray) -> np.ndarray:
    """A copy with each column negated whose first entry above SIGN_EPS is negative.

    Columns with no such entry are kept as they are.
    """
    if not vectors.size:
        return vectors.copy()
    significant = np.abs(vectors) > SIGN_EPS
    first = significant.argmax(axis=0)
    leading = vectors[first, np.arange(vectors.shape[1])]
    flip = significant.any(axis=0) & (leading < 0)
    return vectors * np.where(flip, -1.0, 1.0)


def sym_eigen(a: np.ndarray, vectors: bool = True) -> Spectrum:
    """Eigendecomposition of a symmetric matrix (ascending order).

    With vectors=False only the eigenvalues are computed (np.linalg.eigvalsh)
    and the result's `vectors` is None.  Rejects inputs whose asymmetry
    exceeds 1e-12 times the largest |entry|.  A matrix with a NaN or
    infinite entry is not passed to LAPACK: its values (and vectors) are all
    NaN, so every check that reads them fails.  Output is deterministic for
    bit-identical input.
    """
    a = np.asarray(a, dtype=float)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise NotSymmetricError(f"expected a square matrix, got shape {a.shape}")
    # the largest |entry| without an n x n |a|; NaN when any entry is
    peak = float(max(a.max(), -a.min())) if a.size else 0.0
    # a matrix symmetric bit for bit (every one starlap builds) skips the scan
    if (
        a.size
        and not np.array_equal(a, a.T)
        and float(np.abs(a - a.T).max()) > 1e-12 * peak
    ):
        raise NotSymmetricError("matrix is not symmetric within 1e-12 relative tolerance")
    if not math.isfinite(peak):
        values = np.full(a.shape[0], np.nan)
        columns = np.full(a.shape, np.nan) if vectors else None
    elif vectors:
        values, columns = np.linalg.eigh(a)
        columns = _normalize_signs(columns)
    else:
        values, columns = np.linalg.eigvalsh(a), None
    values.setflags(write=False)
    if columns is not None:
        columns.setflags(write=False)
    return Spectrum(values=values, vectors=columns, n=a.shape[0])


def eigenvector_at(a: np.ndarray, value: float) -> np.ndarray:
    """Unit eigenvector of a symmetric matrix at one of its computed eigenvalues.

    Inverse iteration (Parlett, The Symmetric Eigenvalue Problem, 1998):
    each step is one LU solve (np.linalg.solve) of (a - value*I) y = b, from
    the fixed start b = sin(1..n) and then from the last y.  b is not
    constant, since a constant vector is a Laplacian's null vector and
    orthogonal to every other eigenvector.  The residual of the unit y,
    ||(a - value*I) y|| / ||y||, is read off the solve as ||b|| / ||y||; one
    step brings it within STEP_TOL times the row-sum bound R on
    |eigenvalues| unless b is nearly orthogonal to the eigenvector, and at
    most MAX_STEPS are taken.  While LAPACK finds the shifted matrix exactly
    singular, the shift moves by one ulp of R and the solve is repeated.
    Below R = 1, b is scaled by R, so that y, of size about |b| / (eps * R),
    stays finite at any scale of a.  The vector is sign-normalized as
    Spectrum's columns are.  A NaN or infinite value, entry or row sum gives
    an all-NaN vector, with no solve.  A writeable `a` has its diagonal
    shifted in place during the solves and restored bit for bit after them,
    instead of being copied.
    """
    a = np.asarray(a, dtype=float)
    n = a.shape[0]
    sums = np.empty(n)
    with np.errstate(over="ignore", invalid="ignore"):
        for rows in row_blocks(n):   # no n x n |a|
            np.abs(a[rows]).sum(axis=1, out=sums[rows])
        bound = float(sums.max(initial=0.0)) or 1.0
    if not (math.isfinite(value) and math.isfinite(bound)):
        return np.full(n, np.nan)
    work = a if a.flags.writeable else a.copy()
    diagonal = a.diagonal().copy()
    shift = value

    def solve(start: np.ndarray) -> np.ndarray:
        nonlocal shift
        while True:
            np.fill_diagonal(work, diagonal - shift)
            try:
                return np.linalg.solve(work, start)
            except np.linalg.LinAlgError:
                shift += np.spacing(bound)

    scale = min(bound, 1.0)
    x = np.sin(np.arange(1.0, n + 1))
    x /= np.linalg.norm(x)
    try:
        for _ in range(MAX_STEPS):
            y = solve(x * scale)
            peak = np.abs(y).max()
            x = y / peak
            norm = np.linalg.norm(x)
            x /= norm
            if scale <= STEP_TOL * bound * peak * norm:   # ||b|| / ||y||, the residual
                break
    finally:
        np.fill_diagonal(work, diagonal)
    return _normalize_signs(x[:, None])[:, 0]


def spectral_radius(values: Sequence[float] | np.ndarray) -> float:
    """The largest finite |value|, 0 when there is none."""
    vals = np.abs(np.asarray(values, dtype=float))
    return float(vals[np.isfinite(vals)].max(initial=0.0))


def group_multiplicities(
    values: Sequence[float] | np.ndarray, tol_rel: float = DEFAULT_TOL
) -> MultiplicityTable:
    """Single-linkage grouping of ascending values into near-equal clusters.

    Two consecutive values join the same group when their gap is at most
    tol_rel * spectral_radius(values), the table's `tol`.
    """
    vals = np.asarray(values, dtype=float)
    if vals.size == 0:
        return MultiplicityTable(groups=())
    threshold = tol_rel * spectral_radius(vals)
    bounds = [0, *(np.flatnonzero(np.diff(vals) > threshold) + 1).tolist(), vals.size]
    # a singleton's mean is its value, bit for bit
    return MultiplicityTable(
        groups=tuple(
            EigenvalueGroup(
                value=float(vals[start] if stop - start == 1 else vals[start:stop].mean()),
                multiplicity=stop - start,
                start=start,
                stop=stop,
            )
            for start, stop in zip(bounds, bounds[1:])
        ),
        tol=threshold,
    )


def kth_nearest_distance(values: Sequence[float] | np.ndarray, value: float, k: int) -> float:
    """Distance from `value` to its k-th nearest of `values`, k at least 1.

    At most tol away, it says that k of the values lie within tol of
    `value`: a multiplicity of at least k there.  It is inf when there are
    fewer than k values, and NaN when fewer than k of them are numbers.
    """
    distance = np.abs(np.asarray(values, dtype=float) - value)
    if distance.size < k:
        return math.inf
    return float(np.partition(distance, k - 1)[k - 1])


def spectral_gap_index(values: Sequence[float] | np.ndarray) -> int:
    """Index k (1-based) of the largest gap between consecutive ascending values.

    k counts the values before the gap, so a cluster-count heuristic reads the
    result directly.  Ties break toward the smallest k.
    """
    vals = np.asarray(values, dtype=float)
    if vals.size < 2:
        raise TooFewValuesError(f"need at least 2 values, got {vals.size}")
    gaps = np.diff(vals)
    return int(np.argmax(gaps)) + 1
