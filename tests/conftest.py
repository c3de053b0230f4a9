"""Shared helpers for building CSV fixtures and synthetic series, and for
running voho's command line in-process or as a program."""

from __future__ import annotations

import csv
import io
import os
import subprocess
import sys
from contextlib import redirect_stderr, redirect_stdout
from datetime import date, timedelta
from pathlib import Path

import numpy as np
import pytest

import voho
from voho.cli import main
from voho.ingest import PriceSeries

BASE_DATE = date(2010, 1, 4)


def write_daily_csv(path: Path, rows: list[tuple[str, str, float]]) -> Path:
    """rows: (instrument, yyyymmdd, close); open/high/low mirror close."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["instrument", "date", "open", "high", "low", "close", "volume"])
        for instrument, day, close in rows:
            writer.writerow([instrument, day, close, close, close, close, 100])
    return path


def write_tick_csv(path: Path, rows: list[tuple[str, float, float]]) -> Path:
    """rows: (instrument, timestamp, price)."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["instrument", "timestamp", "price", "volume"])
        for instrument, ts, price in rows:
            writer.writerow([instrument, ts, price, 10])
    return path


def daily_rows(instrument: str, prices: list[float], start: date = BASE_DATE):
    return [
        (instrument, (start + timedelta(days=i)).strftime("%Y%m%d"), p)
        for i, p in enumerate(prices)
    ]


def make_series(prices, times=None, instrument="T", kind="daily") -> PriceSeries:
    prices = np.asarray(prices, dtype=float)
    if times is None:
        times = np.arange(len(prices), dtype=float)
    return PriceSeries(instrument, np.asarray(times, dtype=float), prices, kind)


def run(argv: list[str]) -> tuple[int, str, str]:
    """voho's command line in-process: its exit code, argparse's SystemExit
    taken as one, and what it printed to stdout and stderr."""
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
    return code, out.getvalue(), err.getvalue()


def run_python(*args: str, cwd: Path | None = None) -> subprocess.CompletedProcess:
    """This interpreter run with args in a subprocess that imports voho from
    where this process imported it, its output captured as text."""
    src = str(Path(voho.__file__).resolve().parent.parent)
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    return subprocess.run([sys.executable, *args], cwd=cwd, env=env, capture_output=True, text=True, timeout=120)


@pytest.fixture
def rng():
    return np.random.Generator(np.random.Philox(20240901))
