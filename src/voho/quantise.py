"""Equal-count discretisation of real-valued returns into m-ary symbols.

Symbols are plain int64 arrays; the alphabet size is the caller's to keep
(a study takes it from each `Variant`), and `entropy_rate` checks that
every symbol lies below it.
"""

from __future__ import annotations

import numpy as np

SUPPORTED_ALPHABETS = (2, 4)


def quantile_boundaries(values: np.ndarray, m: int) -> np.ndarray:
    """The m-1 cut points: the ceil(k*n/m)-th smallest value, k = 1..m-1."""
    ordered = np.sort(np.asarray(values, dtype=np.float64))
    n = ordered.size
    ranks = [-((-k * n) // m) for k in range(1, m)]  # ceil(k*n/m), 1-based
    return ordered[np.asarray(ranks) - 1]


def quantile_bins(values: np.ndarray, m: int) -> np.ndarray:
    """Discretise a 1-d array into m equal-count states, as int64 symbols
    in [0, m); a value's symbol is the number of cut points strictly below
    it, so boundary ties fall in the lower bin."""
    if m not in SUPPORTED_ALPHABETS:
        raise ValueError(f"alphabet size must be one of {SUPPORTED_ALPHABETS}, got {m}")
    values = np.ascontiguousarray(values, dtype=np.float64)
    if values.ndim != 1:
        raise ValueError("values must be a 1-d array")
    if values.size < m:
        raise ValueError(f"need at least {m} values, got {values.size}")
    boundaries = quantile_boundaries(values, m)
    return np.searchsorted(boundaries, values, side="left").astype(np.int64, copy=False)
