"""Price-series loading, eligibility filters, log returns, and synthetic paths.

CSV schemas:
    daily:  instrument,date,open,high,low,close,volume   (date as YYYYMMDD)
    tick:   instrument,timestamp,price,volume            (epoch seconds)

Daily dates are stored as proleptic-Gregorian day ordinals so that linear
interpolation across weekends/holidays uses real day spacing.
"""

from __future__ import annotations

import csv
import logging
import math
from dataclasses import dataclass
from datetime import date
from pathlib import Path

import numpy as np

from .errors import DataFormatError

logger = logging.getLogger(__name__)

DAILY_HEADER = ["instrument", "date", "open", "high", "low", "close", "volume"]
TICK_HEADER = ["instrument", "timestamp", "price", "volume"]

GENERATOR_KINDS = ("brownian", "time_changed", "jump")


@dataclass(frozen=True)
class PriceSeries:
    """Timestamped positive prices for one instrument.

    `times` are day ordinals for daily data and epoch seconds for tick data.
    Arrays are frozen after construction.
    """

    instrument_id: str
    times: np.ndarray
    prices: np.ndarray
    kind: str  # "daily" or "tick"

    def __post_init__(self):
        times = np.ascontiguousarray(self.times, dtype=np.float64)
        prices = np.ascontiguousarray(self.prices, dtype=np.float64)
        if times.ndim != 1 or prices.ndim != 1 or times.size != prices.size:
            raise ValueError("times and prices must be 1-d arrays of equal length")
        if self.kind not in ("daily", "tick"):
            raise ValueError(f"unknown frequency kind {self.kind!r}")
        if not np.all(np.isfinite(times)):
            raise ValueError(f"{self.instrument_id}: non-finite timestamp")
        if prices.size and (not np.all(np.isfinite(prices)) or float(prices.min()) <= 0.0):
            raise ValueError(f"{self.instrument_id}: non-positive price")
        steps = np.diff(times)
        if self.kind == "daily":
            if np.any(steps <= 0):
                raise ValueError(f"{self.instrument_id}: daily timestamps must be strictly increasing")
        elif np.any(steps < 0):
            raise ValueError(f"{self.instrument_id}: tick timestamps must be non-decreasing")
        times.flags.writeable = False
        prices.flags.writeable = False
        object.__setattr__(self, "times", times)
        object.__setattr__(self, "prices", prices)

    def __len__(self) -> int:
        return int(self.prices.size)


@dataclass(frozen=True)
class ReturnSeries:
    """Log returns aligned to the source price series."""

    instrument_id: str
    returns: np.ndarray

    def __post_init__(self):
        returns = np.ascontiguousarray(self.returns, dtype=np.float64)
        if returns.ndim != 1:
            raise ValueError("returns must be a 1-d array")
        returns.flags.writeable = False
        object.__setattr__(self, "returns", returns)

    def __len__(self) -> int:
        return int(self.returns.size)


def _parse_yyyymmdd(field: str) -> date:
    text = field.strip()
    if len(text) != 8 or not text.isdigit():
        raise ValueError(f"date {field!r} is not YYYYMMDD")
    return date(int(text[:4]), int(text[4:6]), int(text[6:8]))


def load_prices(path: str | Path, format: str) -> list[PriceSeries]:
    """Read a daily or tick CSV into one PriceSeries per instrument.

    Instruments may be interleaved; rows must already be time-ordered
    within each instrument (strictly for daily, ties allowed for tick,
    preserving file order). The returned list follows first appearance.
    """
    if format not in ("daily", "tick"):
        raise ValueError(f"unknown format {format!r}")
    expected = DAILY_HEADER if format == "daily" else TICK_HEADER
    groups: dict[str, tuple[list[float], list[float]]] = {}
    with open(path, newline="", encoding="utf-8-sig") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header is None:
            return []
        if [h.strip().lower() for h in header] != expected:
            raise DataFormatError(f"{path}:1: expected header {','.join(expected)!r}")
        for lineno, row in enumerate(reader, start=2):
            if not row:
                continue
            if len(row) != len(expected):
                raise DataFormatError(
                    f"{path}:{lineno}: expected {len(expected)} fields, got {len(row)}"
                )
            instrument = row[0].strip()
            if not instrument:
                raise DataFormatError(f"{path}:{lineno}: empty instrument id")
            try:
                if format == "daily":
                    ts = float(_parse_yyyymmdd(row[1]).toordinal())
                    price = float(row[5])
                else:
                    ts = float(row[1])
                    price = float(row[2])
            except ValueError as exc:
                raise DataFormatError(f"{path}:{lineno}: {exc}") from exc
            if not math.isfinite(ts):
                raise DataFormatError(f"{path}:{lineno}: non-finite timestamp {row[1]!r}")
            if not math.isfinite(price) or price <= 0.0:
                raise DataFormatError(f"{path}:{lineno}: non-positive price {price!r}")
            times, prices = groups.setdefault(instrument, ([], []))
            if times:
                if format == "daily" and ts <= times[-1]:
                    raise DataFormatError(
                        f"{path}:{lineno}: timestamps not strictly increasing for {instrument!r}"
                    )
                if format == "tick" and ts < times[-1]:
                    raise DataFormatError(
                        f"{path}:{lineno}: timestamps decrease for {instrument!r}"
                    )
            times.append(ts)
            prices.append(price)
    return [
        PriceSeries(instrument, np.asarray(t), np.asarray(p), format)
        for instrument, (t, p) in groups.items()
    ]


def count_price_changes(series: PriceSeries) -> int:
    """Number of consecutive observations whose price actually moved."""
    return int(np.count_nonzero(np.diff(series.prices) != 0.0))


def filter_eligible(
    series: list[PriceSeries], min_daily: int = 1000, min_tick_changes: int = 2500
) -> list[PriceSeries]:
    """Keep daily series with >= min_daily observations and tick series with
    >= min_tick_changes actual price changes (flat repeats do not count)."""
    if min_daily < 2 or min_tick_changes < 2:
        raise ValueError("eligibility thresholds must be >= 2")
    kept = []
    for s in series:
        if s.kind == "daily":
            if len(s) >= min_daily:
                kept.append(s)
        elif count_price_changes(s) >= min_tick_changes:
            kept.append(s)
    return kept


def log_returns(series: PriceSeries, drop_zero: bool = False) -> ReturnSeries:
    """r_t = ln(p_t / p_{t-1}).

    With drop_zero (required for tick data) observations whose price equals
    the previous one are removed before differencing, so every emitted
    return is nonzero.
    """
    if len(series) < 2:
        raise ValueError(f"{series.instrument_id}: need at least 2 observations")
    prices = series.prices
    if drop_zero:
        keep = np.empty(prices.size, dtype=bool)
        keep[0] = True
        keep[1:] = np.diff(prices) != 0.0
        prices = prices[keep]
    if prices.size < 2:
        return ReturnSeries(series.instrument_id, np.empty(0))
    return ReturnSeries(series.instrument_id, np.log(prices[1:] / prices[:-1]))


def generate_synthetic_path(
    kind: str,
    n: int,
    seed: int,
    *,
    instrument_id: str = "SYN",
    frequency: str = "daily",
    start: float = 1000.0,
    sigma: float = 1.0,
    delta: float = 0.5,
    jump_multiple: int = 5,
    jump_prob: float = 1.0,
    vol_period: float = 250.0,
    vol_swing: float = 0.5,
) -> PriceSeries:
    """Deterministic synthetic test path driven by a counter-based RNG.

    brownian      arithmetic random walk, per-step st.dev. sigma (sigma=0
                  gives a constant path)
    time_changed  Brownian motion read off a strictly increasing
                  integrated-volatility clock; the instantaneous volatility
                  oscillates around sigma with relative amplitude vol_swing
                  and period vol_period
    jump          piecewise-constant path; each step jumps by
                  +-jump_multiple*delta with probability jump_prob,
                  signs i.i.d.
    """
    if n < 2:
        raise ValueError("n must be >= 2")
    if start <= 0:
        raise ValueError("start must be positive")
    rng = np.random.Generator(np.random.Philox(key=int(seed)))
    steps = n - 1
    if kind == "brownian":
        if sigma < 0:
            raise ValueError("sigma must be >= 0")
        increments = sigma * rng.standard_normal(steps)
    elif kind == "time_changed":
        if sigma <= 0:
            raise ValueError("sigma must be positive")
        if not 0.0 <= vol_swing < 1.0:
            raise ValueError("vol_swing must be in [0, 1)")
        if vol_period <= 0:
            raise ValueError("vol_period must be positive")
        instant_vol = sigma * (1.0 + vol_swing * np.sin(2.0 * np.pi * np.arange(steps) / vol_period))
        clock_increments = instant_vol**2
        increments = np.sqrt(clock_increments) * rng.standard_normal(steps)
    elif kind == "jump":
        if delta <= 0:
            raise ValueError("delta must be positive")
        if int(jump_multiple) != jump_multiple or jump_multiple < 2:
            raise ValueError("jump_multiple must be an integer >= 2")
        if not 0.0 < jump_prob <= 1.0:
            raise ValueError("jump_prob must be in (0, 1]")
        signs = 2.0 * rng.integers(0, 2, size=steps) - 1.0
        moved = rng.random(steps) < jump_prob
        increments = signs * (float(jump_multiple) * delta) * moved
    else:
        raise ValueError(f"unknown generator kind {kind!r}")
    prices = start + np.concatenate([[0.0], np.cumsum(increments)])
    if prices.size and float(prices.min()) <= 0.0:
        raise ValueError("synthetic path crossed zero; raise `start` or lower the volatility")
    times = np.arange(n, dtype=np.float64)
    return PriceSeries(instrument_id, times, prices, frequency)
