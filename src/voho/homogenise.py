"""Spatial-skeleton decomposition of a path into fixed-size moves.

Crossings are decided on the integer grid u_j = (x_j - x_0) / delta, so a
price that sits on a multiple of delta is compared as a whole number of
steps, never as a float sum in price space. The skeleton level is an
integer index k (the value base + k * delta); it starts at k_0 = 0, and
after sample j it is

    k_j = clamp(k_{j-1}, floor(u_j), ceil(u_j)),

that is, it follows the path by whole steps whenever the path ends a
sample at least one step away, and otherwise stays. Each unit move of k is
one event, timed by linear interpolation on its sample interval.

This recursion has a closed form: k_j is ceil(u_j) if the last change of
floor(u) + ceil(u) up to sample j was downward and floor(u_j) otherwise, so
the levels, and from them every event, come from a few numpy passes:
O(samples + events) array work, and |u_j - k_j| < 1 by construction.
crossing="single" caps the level at one step per sample; such a lagging
level has no closed form, so it is one Python pass over the samples, with
the same event emission.
"""

from __future__ import annotations

import csv
import math
import os
from collections.abc import Iterable
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import DataError
from .ingest import PriceSeries
from .quantise import SymbolSequence

SKELETON_CSV_HEADER = ["instrument", "delta", "i", "T_i", "level", "direction"]

CROSSING_MODES = ("multi", "single")
# events one decompose call may emit; checked before any event array exists
MAX_EVENTS = 10_000_000
# events of one skeleton turned into CSV rows at a time by write_skeleton_csv
CSV_SLICE_EVENTS = 65_536


@dataclass(frozen=True)
class SkeletonSeries:
    """Decomposition output: event times, integer level indices, directions.

    The level at event i is base_level + level_indices[i] * delta; the
    event index itself (1-based) is the time-change estimate at that event.
    source_indices records which input sample produced each event, for
    diagnostics.
    """

    instrument_id: str
    delta: float
    base_level: float
    times: np.ndarray
    level_indices: np.ndarray
    directions: np.ndarray
    source_indices: np.ndarray

    def __post_init__(self):
        times = np.ascontiguousarray(self.times, dtype=np.float64)
        levels = np.ascontiguousarray(self.level_indices, dtype=np.int64)
        dirs = np.ascontiguousarray(self.directions, dtype=np.int8)
        src = np.ascontiguousarray(self.source_indices, dtype=np.int64)
        if not (times.size == levels.size == dirs.size == src.size):
            raise ValueError("skeleton arrays must have equal length")
        for name, arr in (("times", times), ("level_indices", levels),
                          ("directions", dirs), ("source_indices", src)):
            arr.flags.writeable = False
            object.__setattr__(self, name, arr)

    def __len__(self) -> int:
        return int(self.times.size)

    def levels(self) -> np.ndarray:
        """Skeleton values base_level + k_i * delta."""
        return self.base_level + self.level_indices * self.delta


def decompose(
    path: PriceSeries | np.ndarray,
    delta: float,
    *,
    times: np.ndarray | None = None,
    crossing: str = "multi",
    instrument_id: str | None = None,
) -> SkeletonSeries:
    """Extract the delta-step skeleton of a path.

    `path` is either a PriceSeries (its prices and timestamps are used) or
    a plain real-valued array, in which case `times` defaults to 0..n-1.

    Crossings are decided on u = (x - x[0]) / delta. With crossing="multi"
    the level after sample j is clamp(k_{j-1}, floor(u_j), ceil(u_j)),
    taken in closed form, and a sample emits one event per step the level
    moves. crossing="single" moves the level at most one step per sample,
    so it may lag the path and catch up over later samples. An event at
    level k from sample j is timed on the line through samples j-1 and j:
    t_{j-1} + (x[0] + k*delta - x_{j-1}) / (x_j - x_{j-1}) * (t_j - t_{j-1}),
    or t_j where x_j == x_{j-1} (a single-mode catch-up).

    Cost: O(samples + events) numpy work in multi mode, plus one Python
    pass over the samples in single mode. The event count is known before
    any event array exists; above MAX_EVENTS a DataError is raised.
    """
    if isinstance(path, PriceSeries):
        values = path.prices
        if times is None:
            times = path.times
        if instrument_id is None:
            instrument_id = path.instrument_id
    else:
        values = np.ascontiguousarray(path, dtype=np.float64)
    if instrument_id is None:
        instrument_id = ""
    if not (math.isfinite(delta) and delta > 0):
        raise ValueError("delta must be a positive finite number")
    if values.ndim != 1 or values.size < 2:
        raise ValueError("path must be 1-d with at least 2 samples")
    if not np.all(np.isfinite(values)):
        raise ValueError("path contains non-finite values")
    if times is None:
        times = np.arange(values.size, dtype=np.float64)
    else:
        times = np.ascontiguousarray(times, dtype=np.float64)
        if times.shape != values.shape:
            raise ValueError("times must match the path length")
    if crossing not in CROSSING_MODES:
        raise ValueError(f"unknown crossing mode {crossing!r}")

    with np.errstate(over="ignore"):  # an inf is clipped (single) or over the bound (multi)
        u = (values - values[0]) / delta
    if crossing == "single":
        # the level moves at most one step per sample, so |k| < n and
        # clipping u to [-n, n] changes no comparison with it
        bound = float(values.size)
        levels = _lagging_levels(np.clip(u, -bound, bound))
    else:
        reach = float(np.max(np.abs(u)))
        if reach > MAX_EVENTS + 1:  # reaching level k_j takes |k_j| >= floor(|u_j|) events
            raise _too_many_events(instrument_id, delta, f"at least {np.floor(reach):.0f}")
        levels = _levels(u)
    moves = np.diff(levels)
    moved = np.flatnonzero(moves)
    steps = moves[moved]
    counts = np.abs(steps)
    total = int(counts.sum())
    if total > MAX_EVENTS:
        raise _too_many_events(instrument_id, delta, str(total))

    directions = np.repeat(np.sign(steps), counts)
    source = np.repeat(moved + 1, counts)
    level_indices = np.cumsum(directions)
    x_prev = values[source - 1]
    t_prev = times[source - 1]
    dx = values[source] - x_prev
    dt = times[source] - t_prev
    # a zero-width price interval only occurs in single mode, where the
    # level catches up over a flat stretch: those events land on t_j
    flat = dx == 0.0
    dx[flat] = 1.0
    event_times = t_prev + (values[0] + level_indices * delta - x_prev) / dx * dt
    event_times[flat] = times[source[flat]]
    return SkeletonSeries(
        instrument_id=instrument_id,
        delta=float(delta),
        base_level=float(values[0]),
        times=event_times,
        level_indices=level_indices,
        directions=directions,
        source_indices=source,
    )


def _levels(u: np.ndarray) -> np.ndarray:
    """k_j = clamp(k_{j-1}, floor(u_j), ceil(u_j)) with k_0 = 0, in closed
    form: the level sits at the floor after an upward change of the
    interval [floor(u), ceil(u)] and at the ceiling after a downward one."""
    lower = np.floor(u).astype(np.int64)
    upper = np.ceil(u).astype(np.int64)
    change = np.sign(np.diff(lower + upper, prepend=0))
    last = np.maximum.accumulate(np.where(change != 0, np.arange(u.size), 0))
    return np.where(change[last] < 0, upper, lower)


def _lagging_levels(u: np.ndarray) -> np.ndarray:
    """The same rule with the level moving at most one step per sample."""
    levels = [0] * u.size
    k = 0
    for j, (lower, upper) in enumerate(zip(np.floor(u).tolist(), np.ceil(u).tolist())):
        if lower > k:
            k += 1
        elif upper < k:
            k -= 1
        levels[j] = k
    return np.asarray(levels, dtype=np.int64)


def _too_many_events(instrument_id: str, delta: float, count: str) -> DataError:
    return DataError(
        f"instrument {instrument_id!r}: delta={delta!r} gives {count} skeleton events, "
        f"more than the limit of {MAX_EVENTS}"
    )


def skeleton_to_symbols(skeleton: SkeletonSeries) -> SymbolSequence:
    """Binary sequence of the skeleton's moves: 1 for up, 0 for down."""
    symbols = (skeleton.directions > 0).astype(np.int64)
    return SymbolSequence(instrument_id=skeleton.instrument_id, alphabet_size=2, symbols=symbols)


def write_skeleton_csv(skeletons: SkeletonSeries | Iterable[SkeletonSeries], path: str | Path) -> int:
    """Export skeletons as instrument,delta,i,T_i,level,direction rows and
    return the number of events written. Skeletons are taken one at a time,
    so a generator holds one in memory, and each is turned into rows
    CSV_SLICE_EVENTS events at a time; the file is written beside `path`
    and renamed into place when complete, so a failure leaves none."""
    if isinstance(skeletons, SkeletonSeries):
        skeletons = [skeletons]
    path = Path(path)
    partial = path.with_name(path.name + ".part")
    events = 0
    try:
        with open(partial, "w", newline="", encoding="utf-8") as fh:
            writer = csv.writer(fh, lineterminator="\n")
            writer.writerow(SKELETON_CSV_HEADER)
            for skel in skeletons:
                delta = repr(float(skel.delta))
                levels = skel.levels()
                for start in range(0, len(skel), CSV_SLICE_EVENTS):
                    part = slice(start, start + CSV_SLICE_EVENTS)
                    rows = zip(skel.times[part].tolist(), levels[part].tolist(), skel.directions[part].tolist())
                    writer.writerows(
                        [skel.instrument_id, delta, i, repr(t), repr(level), direction]
                        for i, (t, level, direction) in enumerate(rows, start=start + 1)
                    )
                events += len(skel)
        os.replace(partial, path)
    except BaseException:
        partial.unlink(missing_ok=True)
        raise
    return events
