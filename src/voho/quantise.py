"""Equal-count discretisation of real-valued returns into m-ary symbols."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .ingest import ReturnSeries

SUPPORTED_ALPHABETS = (2, 4)


@dataclass(frozen=True)
class SymbolSequence:
    """Finite-alphabet sequence ready for entropy estimation."""

    instrument_id: str
    alphabet_size: int
    symbols: np.ndarray

    def __post_init__(self):
        symbols = np.ascontiguousarray(self.symbols, dtype=np.int64)
        if symbols.ndim != 1:
            raise ValueError("symbols must be a 1-d array")
        if symbols.size and (symbols.min() < 0 or symbols.max() >= self.alphabet_size):
            raise ValueError(f"symbols out of range for alphabet size {self.alphabet_size}")
        symbols.flags.writeable = False
        object.__setattr__(self, "symbols", symbols)

    def __len__(self) -> int:
        return int(self.symbols.size)


def quantile_boundaries(values: np.ndarray, m: int) -> np.ndarray:
    """The m-1 cut points: the ceil(k*n/m)-th smallest value, k = 1..m-1."""
    ordered = np.sort(np.asarray(values, dtype=np.float64))
    n = ordered.size
    ranks = [-((-k * n) // m) for k in range(1, m)]  # ceil(k*n/m), 1-based
    return ordered[np.asarray(ranks) - 1]


def quantile_bins(returns: ReturnSeries | np.ndarray, m: int) -> SymbolSequence:
    """Discretise into m equal-count states; a value's symbol is the number
    of cut points strictly below it, so boundary ties fall in the lower bin."""
    if m not in SUPPORTED_ALPHABETS:
        raise ValueError(f"alphabet size must be one of {SUPPORTED_ALPHABETS}, got {m}")
    if isinstance(returns, ReturnSeries):
        instrument_id = returns.instrument_id
        values = returns.returns
    else:
        instrument_id = ""
        values = np.ascontiguousarray(returns, dtype=np.float64)
    if values.size < m:
        raise ValueError(f"need at least {m} values, got {values.size}")
    boundaries = quantile_boundaries(values, m)
    symbols = np.searchsorted(boundaries, values, side="left")
    return SymbolSequence(instrument_id=instrument_id, alphabet_size=m, symbols=symbols)

