"""Deterministic dense symmetric eigendecomposition and multiplicity grouping."""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import NotSymmetricError, TooFewValuesError

DEFAULT_TOL = 1e-8
SIGN_EPS = 1e-12


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
class EigenvalueGroup:
    value: float        # representative: mean of the group's eigenvalues
    multiplicity: int
    start: int          # index span [start, stop) into the Spectrum
    stop: int


@dataclass(frozen=True)
class MultiplicityTable:
    groups: tuple[EigenvalueGroup, ...]

    @property
    def n(self) -> int:
        return sum(g.multiplicity for g in self.groups)


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
    exceeds 1e-12 relative to the largest entry.  A matrix with a NaN or
    infinite entry is not passed to LAPACK: its values (and vectors) are all
    NaN, so every check that reads them fails.  Output is deterministic for
    bit-identical input.
    """
    a = np.asarray(a, dtype=float)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise NotSymmetricError(f"expected a square matrix, got shape {a.shape}")
    peak = float(np.abs(a).max()) if a.size else 0.0   # NaN when any entry is
    # a matrix symmetric bit for bit (every one starlap builds) skips the scan
    if (
        a.size
        and not np.array_equal(a, a.T)
        and float(np.abs(a - a.T).max()) > 1e-12 * max(1.0, peak)
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


def group_multiplicities(
    values: Sequence[float] | np.ndarray, tol_rel: float = DEFAULT_TOL
) -> MultiplicityTable:
    """Single-linkage grouping of ascending values into near-equal clusters.

    Two consecutive values join the same group when their gap is at most
    tol_rel * max(1, max |value|).
    """
    vals = np.asarray(values, dtype=float)
    if vals.size == 0:
        return MultiplicityTable(groups=())
    threshold = tol_rel * max(1.0, float(np.abs(vals).max()))
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
        )
    )


def multiplicity_at(
    table: MultiplicityTable, value: float, tol_rel: float = DEFAULT_TOL
) -> int:
    """Multiplicity of the group whose representative is nearest `value`.

    Returns 0 when no representative lies within tol_rel * max(1, |value|).
    """
    tol = tol_rel * max(1.0, abs(value))
    best = None
    for g in table.groups:
        d = abs(g.value - value)
        if d <= tol and (best is None or d < best[0]):
            best = (d, g.multiplicity)
    return best[1] if best is not None else 0


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
