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
the levels come from a few numpy passes, and |u_j - k_j| < 1 by
construction. crossing="single" caps the level at one step per sample;
such a lagging level has no closed form, so it is one Python pass over the
samples.

A skeleton is kept in run-length form: the samples after which the level
moved and the signed number of steps it moved there. Decomposing costs
O(samples) and gives the event count; the per-event arrays (times, levels,
directions, source samples) cost O(events) each time one is read.
"""

from __future__ import annotations

import csv
import io
import math
import os
from collections.abc import Iterable
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import DataError

SKELETON_CSV_HEADER = ["instrument", "delta", "i", "T_i", "level", "direction"]

CROSSING_MODES = ("multi", "single")
# events one decompose call may emit; checked before any event array exists
MAX_EVENTS = 10_000_000
# events of one skeleton turned into CSV rows at a time by write_skeleton_csv
CSV_SLICE_EVENTS = 65_536


def _read_only(arr: np.ndarray) -> np.ndarray:
    arr.flags.writeable = False
    return arr


@dataclass(frozen=True)
class SkeletonSeries:
    """A delta-step skeleton in run-length form.

    `path` and `sample_times` are the decomposed samples (copied, so the
    caller's arrays may change afterwards). After sample `moved_at[r]`
    (increasing, each >= 1) the level moved by `steps[r]` whole steps, never
    0; each unit step is one event, so the skeleton has sum(|steps|) events.

    The per-event arrays are derived from that form each time they are
    read, in O(events), and are not kept, so a list of skeletons stays
    O(samples): `directions` (+1 or -1), `level_indices` (the level index
    after each event; its level is base_level + level_indices[i] * delta)
    and `times` (each event's interpolated time); the sample that produced
    each event is np.repeat(moved_at, np.abs(steps)). The event index
    itself (1-based) is the time-change estimate at that event.
    """

    instrument_id: str
    delta: float
    path: np.ndarray
    sample_times: np.ndarray
    moved_at: np.ndarray
    steps: np.ndarray

    def __post_init__(self):
        path = np.array(self.path, dtype=np.float64)
        sample_times = np.array(self.sample_times, dtype=np.float64)
        moved_at = np.array(self.moved_at, dtype=np.int64)
        steps = np.array(self.steps, dtype=np.int64)
        if path.shape != sample_times.shape or moved_at.shape != steps.shape:
            raise ValueError("skeleton arrays must have matching lengths")
        for name, arr in (("path", path), ("sample_times", sample_times),
                          ("moved_at", moved_at), ("steps", steps)):
            object.__setattr__(self, name, _read_only(arr))

    def __len__(self) -> int:
        return int(np.abs(self.steps).sum())

    @property
    def base_level(self) -> float:
        return float(self.path[0])

    def _per_event(self, per_run: np.ndarray) -> np.ndarray:
        return np.repeat(per_run, np.abs(self.steps))

    @property
    def directions(self) -> np.ndarray:
        return _read_only(self._per_event(np.sign(self.steps).astype(np.int8)))

    @property
    def level_indices(self) -> np.ndarray:
        return _read_only(np.cumsum(self._per_event(np.sign(self.steps))))

    @property
    def times(self) -> np.ndarray:
        """Each event timed on the line through its samples j-1 and j, or
        at t_j where x_j == x_{j-1} (a single-mode catch-up)."""
        x, t, j = self.path, self.sample_times, self.moved_at
        dx = x[j] - x[j - 1]
        flat = dx == 0.0
        dx[flat] = 1.0
        t_prev, x_prev, dx, dt = (self._per_event(a) for a in (t[j - 1], x[j - 1], dx, t[j] - t[j - 1]))
        event_times = t_prev + (x[0] + self.level_indices * self.delta - x_prev) / dx * dt
        flat = self._per_event(flat)
        event_times[flat] = self._per_event(t[j])[flat]
        return _read_only(event_times)

    def levels(self) -> np.ndarray:
        """Skeleton values base_level + k_i * delta."""
        return self.base_level + self.level_indices * self.delta


def decompose(
    values: np.ndarray,
    delta: float,
    *,
    times: np.ndarray | None = None,
    crossing: str = "multi",
    instrument_id: str = "",
) -> SkeletonSeries:
    """Extract the delta-step skeleton of the path `values`, a 1-d real
    array sampled at `times` (0..n-1 when None). `instrument_id` only
    labels the result and its errors.

    Crossings are decided on u = (x - x[0]) / delta. With crossing="multi"
    the level after sample j is clamp(k_{j-1}, floor(u_j), ceil(u_j)),
    taken in closed form, and a sample emits one event per step the level
    moves. crossing="single" moves the level at most one step per sample,
    so it may lag the path and catch up over later samples. An event at
    level k from sample j is timed on the line through samples j-1 and j:
    t_{j-1} + (x[0] + k*delta - x_{j-1}) / (x_j - x_{j-1}) * (t_j - t_{j-1}),
    or t_j where x_j == x_{j-1} (a single-mode catch-up).

    Cost: O(samples) numpy work in multi mode, plus one Python pass over
    the samples in single mode; reading an event array of the result costs
    O(events). Above MAX_EVENTS events a DataError is raised.
    """
    values = _checked_path(values, delta, crossing)
    if times is None:
        times = np.arange(values.size, dtype=np.float64)
    else:
        times = np.ascontiguousarray(times, dtype=np.float64)
        if times.shape != values.shape:
            raise ValueError("times must match the path length")
    moves = np.diff(_skeleton_levels(values, delta, crossing, instrument_id))
    moved = np.flatnonzero(moves)
    steps = moves[moved]
    total = int(np.abs(steps).sum())
    if total > MAX_EVENTS:
        raise _too_many_events(instrument_id, delta, str(total))
    return SkeletonSeries(
        instrument_id=instrument_id,
        delta=float(delta),
        path=values,
        sample_times=times,
        moved_at=moved + 1,
        steps=steps,
    )


def _checked_path(values: np.ndarray, delta: float, crossing: str) -> np.ndarray:
    values = np.ascontiguousarray(values, dtype=np.float64)
    if not (math.isfinite(delta) and delta > 0):
        raise ValueError("delta must be a positive finite number")
    if values.ndim != 1 or values.size < 2:
        raise ValueError("path must be 1-d with at least 2 samples")
    if not np.all(np.isfinite(values)):
        raise ValueError("path contains non-finite values")
    if crossing not in CROSSING_MODES:
        raise ValueError(f"unknown crossing mode {crossing!r}")
    return values


def _skeleton_levels(values: np.ndarray, delta: float, crossing: str, instrument_id: str) -> np.ndarray:
    """The level index after each sample; the first is 0."""
    with np.errstate(over="ignore"):  # an inf is clipped (single) or over the bound (multi)
        u = (values - values[0]) / delta
    if crossing == "single":
        # the level moves at most one step per sample, so |k| < n and
        # clipping u to [-n, n] changes no comparison with it
        bound = float(values.size)
        return _lagging_levels(np.clip(u, -bound, bound))
    reach = float(np.max(np.abs(u)))
    if reach > MAX_EVENTS + 1:  # reaching level k_j takes |k_j| >= floor(|u_j|) events
        raise _too_many_events(instrument_id, delta, f"at least {np.floor(reach):.0f}")
    return _levels(u)


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


def skeleton_to_symbols(skeleton: SkeletonSeries) -> np.ndarray:
    """Binary int64 symbols of the skeleton's moves: 1 for up, 0 for down."""
    return np.repeat((skeleton.steps > 0).astype(np.int64), np.abs(skeleton.steps))


def _csv_prefix(*fields) -> str:
    """The fields as csv.writer quotes them, each followed by a comma."""
    line = io.StringIO()
    csv.writer(line, lineterminator="\n").writerow(fields)
    return line.getvalue()[:-1] + ","


def write_skeleton_csv(skeletons: SkeletonSeries | Iterable[SkeletonSeries], path: str | Path) -> int:
    """Export skeletons as instrument,delta,i,T_i,level,direction rows and
    return the number of events written. Skeletons are taken one at a time,
    so a generator holds one and its event arrays in memory, and each is
    turned into text CSV_SLICE_EVENTS events at a time; the file is written
    beside `path` and renamed into place when complete, so a failure leaves
    none. Times and levels are written as repr of a Python float."""
    if isinstance(skeletons, SkeletonSeries):
        skeletons = [skeletons]
    path = Path(path)
    partial = path.with_name(path.name + ".part")
    events = 0
    try:
        with open(partial, "w", newline="", encoding="utf-8") as fh:
            fh.write(",".join(SKELETON_CSV_HEADER) + "\n")
            for skel in skeletons:
                prefix = _csv_prefix(skel.instrument_id, repr(float(skel.delta)))
                times, levels, directions = skel.times, skel.levels(), skel.directions
                for start in range(0, times.size, CSV_SLICE_EVENTS):
                    part = slice(start, start + CSV_SLICE_EVENTS)
                    rows = zip(times[part].tolist(), levels[part].tolist(), directions[part].tolist())
                    fh.write("".join(
                        f"{prefix}{i},{t!r},{level!r},{direction}\n"
                        for i, (t, level, direction) in enumerate(rows, start=start + 1)
                    ))
                events += times.size
        os.replace(partial, path)
    except BaseException:
        partial.unlink(missing_ok=True)
        raise
    return events
