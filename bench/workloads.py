"""The benchmark's workloads: inputs generated from a seed, plus a study config.

Each workload writes its input files and a complete study config (every
key the reference depends on is spelled out, so no program default is
assumed) into a fresh directory, and returns the price series the program
should see, in input order, for the reference computation.  Input paths in
the config are relative to that directory, so the same seed gives the
same bytes wherever the directory is; run the study from inside it.

See README.md in this directory for why each workload exists and which
layer it stresses.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from datetime import date, timedelta
from pathlib import Path

import numpy as np

DEFAULT_DELTAS = [0.05, 0.1, 0.25, 0.5, 0.75, 1.0]
DEPTH = 20

# Full and smoke sizes as (instruments, rows per instrument).  Smoke sizes
# are toys for the benchmark's own tests; they also lower the eligibility
# thresholds so the toy series are studied rather than filtered out.
SIZES = {
    "daily_study": {"full": (4, 1250), "smoke": (2, 300)},
    "tick_ingest": {"full": (20, 12_500), "smoke": (2, 2000)},
    "skeleton_fine": {"full": (2, 2500), "smoke": (2, 300)},
}
SMOKE_FILTERS = {"min_daily": 100, "min_tick_changes": 100, "min_skeleton_events": 1}


@dataclass(frozen=True)
class Series:
    instrument: str
    kind: str  # "daily" or "tick"
    prices: np.ndarray


@dataclass(frozen=True)
class Workload:
    name: str
    config_path: Path
    config: dict
    series: list[Series]
    files: list[Path]  # every generated file the program reads, config included


def _base_config(variants: list[str], deltas: list[float]) -> dict:
    return {
        "variants": variants,
        "deltas": deltas,
        "depth": DEPTH,
        "min_daily": 1000,
        "min_tick_changes": 2500,
        "min_skeleton_events": 1000,
        "domain": "price",
        "crossing": "multi",
    }


def _random_walk(rng: np.random.Generator, n: int, start: float, sigma: float) -> np.ndarray:
    return start + np.concatenate([[0.0], np.cumsum(sigma * rng.standard_normal(n - 1))])


def _daily_study(seed: int, work: Path, smoke: bool):
    instruments, n = SIZES["daily_study"]["smoke" if smoke else "full"]
    rng = np.random.default_rng(seed)
    series = [Series(f"D{i:02d}", "daily", _random_walk(rng, n, 1000.0, 1.0)) for i in range(instruments)]
    first = date(2000, 1, 3)
    days = [(first + timedelta(days=j)).strftime("%Y%m%d") for j in range(n)]
    lines = ["instrument,date,open,high,low,close,volume"]
    for s in series:
        for day, price in zip(days, s.prices.tolist()):
            p = repr(price)
            lines.append(f"{s.instrument},{day},{p},{p},{p},{p},0")
    path = work / "daily.csv"
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    config = _base_config(["orig2", "orig4"], DEFAULT_DELTAS)
    # at 1250 rows the default threshold of 1000 events sits inside the
    # seed-to-seed range for delta >= 0.75; 100 keeps all six deltas on every seed
    config["min_skeleton_events"] = 100
    config["inputs"] = [{"path": path.name, "format": "daily"}]
    return config, series, [path]


def _tick_ingest(seed: int, work: Path, smoke: bool):
    instruments, n = SIZES["tick_ingest"]["smoke" if smoke else "full"]
    rng = np.random.default_rng(seed)
    series = []
    lines = ["instrument,timestamp,price,volume"]
    for i in range(instruments):
        s = Series(f"T{i:02d}", "tick", _random_walk(rng, n, 100.0, 0.05))
        # whole-second stamps with repeats: tick time is non-decreasing
        stamps = 1_600_000_000 + np.cumsum(rng.integers(0, 3, n))
        lines.extend(f"{s.instrument},{t},{p!r},1" for t, p in zip(stamps.tolist(), s.prices.tolist()))
        series.append(s)
    path = work / "tick.csv"
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    config = _base_config([], [0.5, 1.0, 2.0])
    config["min_skeleton_events"] = 1
    config["inputs"] = [{"path": path.name, "format": "tick"}]
    return config, series, [path]


def time_changed_path(n: int, seed: int, start: float, sigma: float, vol_period: float, vol_swing: float) -> np.ndarray:
    """The prices the program's in-config `time_changed` generator yields.

    Brownian motion read off an integrated-volatility clock whose
    instantaneous volatility oscillates around sigma, from a Philox stream
    keyed by the instrument's seed.
    """
    rng = np.random.Generator(np.random.Philox(key=int(seed)))
    steps = n - 1
    instant_vol = sigma * (1.0 + vol_swing * np.sin(2.0 * np.pi * np.arange(steps) / vol_period))
    increments = np.sqrt(instant_vol**2) * rng.standard_normal(steps)
    return start + np.concatenate([[0.0], np.cumsum(increments)])


def _skeleton_fine(seed: int, work: Path, smoke: bool):
    instruments, n = SIZES["skeleton_fine"]["smoke" if smoke else "full"]
    synthetic = {
        "kind": "time_changed", "instruments": instruments, "n": n, "seed": seed,
        "frequency": "daily", "start": 1000.0, "sigma": 1.0,
        "vol_period": 250.0, "vol_swing": 0.5,
    }
    series = [
        Series(f"SYN{i:03d}", "daily", time_changed_path(n, seed + i, 1000.0, 1.0, 250.0, 0.5))
        for i in range(instruments)
    ]
    config = _base_config([], [0.05, 0.1])
    config["synthetic"] = synthetic
    return config, series, []


BUILDERS = {"daily_study": _daily_study, "tick_ingest": _tick_ingest, "skeleton_fine": _skeleton_fine}


def make(name: str, seed: int, work: Path, smoke: bool = False) -> Workload:
    """Generate the named workload's inputs and config under `work`."""
    config, series, files = BUILDERS[name](seed, work, smoke)
    if smoke:
        config.update(SMOKE_FILTERS)
    config_path = work / "config.json"
    config_path.write_text(json.dumps(config, indent=1) + "\n", encoding="utf-8")
    return Workload(name, config_path, config, series, files + [config_path])
