"""Price-series loading, eligibility filters, log returns, and synthetic paths.

CSV schemas:
    daily:  instrument,date,open,high,low,close,volume   (date as YYYYMMDD)
    tick:   instrument,timestamp,price,volume            (epoch seconds)

Only instrument, date or timestamp, and close or price are parsed; the other
columns must be present and may hold any text. load_prices reads a file in
one np.loadtxt pass over its path, which numpy's C reader pulls in chunks,
and checks the columns as arrays. A file that numpy would read differently
from the row reader goes to the row reader up front, and any file that this
read or a check refuses is read again by it: the row reader alone words
errors, each as `path:line: reason`.

Daily dates are stored as proleptic-Gregorian day ordinals so that linear
interpolation across weekends/holidays uses real day spacing.
"""

from __future__ import annotations

import csv
import logging
import math
import os
import re
from collections.abc import Iterator
from dataclasses import dataclass
from datetime import date
from pathlib import Path

import numpy as np

from .errors import DataFormatError

logger = logging.getLogger(__name__)

DAILY_HEADER = ["instrument", "date", "open", "high", "low", "close", "volume"]
TICK_HEADER = ["instrument", "timestamp", "price", "volume"]
FORMATS = ("daily", "tick")

GENERATOR_KINDS = ("brownian", "time_changed")
SYNTH_EPOCH = date(2000, 1, 3).toordinal()  # the day ordinal of step 0 of a synthetic daily path
# samples over all paths of a SyntheticSpec, the value of homogenise.MAX_EVENTS
MAX_SYNTHETIC_SAMPLES = 10_000_000

# only the row reader decides a file holding one of these: np.loadtxt
# strips U+001C..U+001F from numbers as whitespace where float() refuses
# them, and reads NUL, which csv refuses before Python 3.11; a `"` may open
# a quoted field that spans lines, which numpy would neither limit nor read
# with its line ends as they are, and a stray `"` on its lines can hide it
_ROW_READER_BYTES = {b"\x00", b"\x1c", b"\x1d", b"\x1e", b"\x1f", b'"'}
# numpy decompresses a path by these suffixes
_COMPRESSED_SUFFIXES = (".gz", ".bz2", ".xz", ".lzma")
# errors="surrogateescape" decodes each byte that is not UTF-8 to one of
# these code points, which no UTF-8 text decodes to
_ESCAPED_BYTE = re.compile("[\udc80-\udcff]")


@dataclass(frozen=True)
class PriceSeries:
    """Timestamped positive prices for one instrument.

    `times` are day ordinals for daily data and epoch seconds for tick data.
    The arrays are read-only copies: the caller's stay writable, and
    changing them leaves the series as it was.
    """

    instrument_id: str
    times: np.ndarray
    prices: np.ndarray
    kind: str  # one of FORMATS

    def __post_init__(self):
        times = np.array(self.times, dtype=np.float64)
        prices = np.array(self.prices, dtype=np.float64)
        if times.ndim != 1 or prices.ndim != 1 or times.size != prices.size:
            raise ValueError("times and prices must be 1-d arrays of equal length")
        if self.kind not in FORMATS:
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


def _parse_yyyymmdd(field: str) -> date:
    text = field.strip()
    if len(text) != 8 or not text.isdecimal():
        raise ValueError(f"date {field!r} is not YYYYMMDD")
    return date(int(text[:4]), int(text[4:6]), int(text[6:8]))


def _schema(format: str) -> list[str]:
    if format not in FORMATS:
        raise ValueError(f"unknown format {format!r}")
    return DAILY_HEADER if format == "daily" else TICK_HEADER


def _read_header(fh, path: str | Path, expected: list[str]) -> int:
    """Check the header record of `fh`; the number of lines it spans, 0 for
    a file with no lines."""
    reader = csv.reader(fh)
    try:
        header = next(reader, None)
    except csv.Error as exc:
        raise DataFormatError(f"{path}:1: {exc}") from None
    if header is None:
        return 0
    if [h.strip().lower() for h in header] != expected:
        raise DataFormatError(f"{path}:1: expected header {','.join(expected)!r}")
    return reader.line_num


def load_prices(path: str | Path, format: str) -> list[PriceSeries]:
    """Read a daily or tick CSV into one PriceSeries per instrument.

    Instruments may be interleaved; rows must already be time-ordered
    within each instrument (strictly for daily, ties allowed for tick,
    preserving file order). The returned list follows first appearance.

    Only the instrument id, the time (`date` or `timestamp`) and the price
    (`close` or `price`) are parsed; the other columns must be present but
    may hold any text, and a field holds at most `csv.field_size_limit()`
    characters. The rows are read in one `np.loadtxt` pass over the file's
    path and checked as arrays. The row reader reads instead a file that
    numpy would read differently:

    - one holding NUL or a byte 0x1C..0x1F;
    - one holding a `"`, so numpy reads only files where every record is
      one line and no field holds a line end or a delimiter;
    - one named as compressed (`.gz`, `.bz2`, `.xz` or `.lzma`), which
      numpy would decompress;
    - one with a line of more than `csv.field_size_limit()` bytes, which
      numpy would not limit.

    When the read or any check fails, the file is read again row by row,
    which raises the `DataFormatError` naming the first bad line (or
    returns the series, for the few inputs that only the row reader
    accepts, such as numbers with underscores or non-ASCII digits).
    A line holding a byte that is not UTF-8 is refused as
    `path:line: not UTF-8 text`.
    """
    expected = _schema(format)
    if str(path).lower().endswith(_COMPRESSED_SUFFIXES) or _needs_row_reader(path):
        return _load_rows(path, format)
    with open(path, newline="", encoding="utf-8-sig", errors="surrogateescape") as fh:
        lines = _utf8_lines(fh, path)
        _read_header(lines, path, expected)
        # np.loadtxt would warn of an input with no rows
        if not any(line.rstrip("\r\n") for line in lines):
            return []
    # ids and dates as str objects, never cut to a fixed width
    parsed = {"instrument": "O", "date": "O", "timestamp": "f8", "price": "f8", "close": "f8"}
    dtype = np.dtype([(name, parsed.get(name, "U1")) for name in expected])
    try:
        # an absolute path is never taken for a URL
        table = np.loadtxt(
            os.path.abspath(path), dtype=dtype, delimiter=",", comments=None, ndmin=1,
            skiprows=1, encoding="utf-8-sig",
        )
        return _table_series(table, format)
    except ValueError:
        return _load_rows(path, format)


def _needs_row_reader(path: str | Path) -> bool:
    """Whether the file holds a byte of `_ROW_READER_BYTES` (a `"`, NUL or
    0x1C..0x1F) anywhere, or a line of more than `csv.field_size_limit()`
    bytes. In UTF-8 none of those bytes, nor a line end, is ever part of
    another character."""
    limit = csv.field_size_limit()
    with open(path, "rb") as fh:
        start = 0  # where the current line starts, relative to the chunk
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            if any(byte in chunk for byte in _ROW_READER_BYTES):
                return True
            # jump from each line start to the last line end within the
            # limit, so a long file costs a few searches per limit's bytes
            while len(chunk) - start > limit:
                lo, hi = max(start, 0), start + limit + 1
                end = max(chunk.rfind(b"\n", lo, hi), chunk.rfind(b"\r", lo, hi))
                if end < 0:
                    return True
                start = end + 1
            start -= len(chunk)
    return False


def _utf8_lines(fh, path: str | Path) -> Iterator[str]:
    """The lines of the text file `fh`, opened with errors="surrogateescape".
    Raises the DataFormatError naming the first line that holds a byte that
    is not UTF-8 when that line is reached, so errors come in file order."""
    for lineno, line in enumerate(fh, 1):
        if not line.isascii() and _ESCAPED_BYTE.search(line):
            raise DataFormatError(f"{path}:{lineno}: not UTF-8 text")
        yield line


def _table_series(table: np.ndarray, format: str) -> list[PriceSeries]:
    """Group the rows that np.loadtxt read by instrument, in order of first
    appearance. Raises ValueError for any row that the row reader refuses;
    PriceSeries checks the times and prices of each instrument."""
    if format == "daily":
        times, prices = _day_ordinals(table["date"]), table["close"]
    else:
        times, prices = table["timestamp"], table["price"]
    ids = table["instrument"]
    heads = np.flatnonzero(np.concatenate(([True], ids[1:] != ids[:-1])))
    # ids that differ only in padding are one instrument; numbering the
    # stripped id of each run of equal ids in order of first appearance
    # keeps the file's order
    codes: dict[str, int] = {}
    run_codes = []
    for instrument in ids[heads].tolist():
        instrument = instrument.strip()
        if not instrument:
            raise ValueError("empty instrument id")
        run_codes.append(codes.setdefault(instrument, len(codes)))
    row_codes = np.repeat(run_codes, np.diff(heads, append=ids.size))
    order = np.argsort(row_codes, kind="stable")
    bounds = np.cumsum(np.bincount(row_codes, minlength=len(codes)))[:-1]
    return [
        PriceSeries(instrument, t, p, format)
        for instrument, t, p in zip(codes, np.split(times[order], bounds), np.split(prices[order], bounds))
    ]


def _day_ordinals(fields: np.ndarray) -> np.ndarray:
    """Day ordinals of YYYYMMDD fields by the row reader's rule, each
    distinct field parsed once; ValueError for a field it refuses."""
    text = fields.tolist()
    ordinals = {field: _parse_yyyymmdd(field).toordinal() for field in set(text)}
    return np.fromiter(map(ordinals.__getitem__, text), dtype=np.int64, count=len(text))


def _load_rows(path: str | Path, format: str) -> list[PriceSeries]:
    """load_prices one row at a time: the reader of record for every error."""
    expected = _schema(format)
    groups: dict[str, tuple[list[float], list[float]]] = {}
    with open(path, newline="", encoding="utf-8-sig", errors="surrogateescape") as fh:
        lines = _utf8_lines(fh, path)
        header_lines = _read_header(lines, path, expected)
        if not header_lines:
            return []
        reader = csv.reader(lines)
        last = header_lines  # the last line read so far
        try:
            for row in reader:
                # errors name the first line of a record that spans several
                lineno, last = last + 1, header_lines + reader.line_num
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
        except csv.Error as exc:
            raise DataFormatError(f"{path}:{last + 1}: {exc}") from None
    return [PriceSeries(instrument, t, p, format) for instrument, (t, p) in groups.items()]


def count_price_changes(series: PriceSeries) -> int:
    """Number of consecutive observations whose price actually moved."""
    return int(np.count_nonzero(np.diff(series.prices) != 0.0))


def filter_eligible(series: list[PriceSeries], min_daily: int, min_tick_changes: int) -> list[PriceSeries]:
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


def log_returns(series: PriceSeries) -> np.ndarray:
    """The array of r_t = ln(p_t / p_{t-1}).

    For tick data, observations whose price equals the previous one are
    removed before differencing, so every emitted return is nonzero.
    Where the ratio of two prices is not a finite normal float (1e300 over
    1e-300 overflows), r_t is taken as ln(p_t) - ln(p_{t-1}), so every
    return is finite.
    """
    if len(series) < 2:
        raise ValueError("need at least 2 observations")
    prices = series.prices
    if series.kind == "tick":
        keep = np.empty(prices.size, dtype=bool)
        keep[0] = True
        keep[1:] = np.diff(prices) != 0.0
        prices = prices[keep]
    with np.errstate(over="ignore", under="ignore"):
        ratio = prices[1:] / prices[:-1]
    finfo = np.finfo(np.float64)
    lossy = ~((ratio >= finfo.tiny) & (ratio <= finfo.max))
    ratio[lossy] = 1.0
    returns = np.log(ratio)
    returns[lossy] = np.log(prices[1:][lossy]) - np.log(prices[:-1][lossy])
    return returns


@dataclass
class SyntheticSpec:
    """Parameters for a synthetic dataset: `instruments` paths of one
    generator kind, path i drawn from the counter-based stream keyed by
    seed + i.

    brownian      arithmetic random walk, per-step st.dev. sigma (sigma=0
                  gives a constant path)
    time_changed  Brownian motion read off a strictly increasing
                  integrated-volatility clock; the instantaneous volatility
                  oscillates around sigma with relative amplitude vol_swing
                  and period vol_period
    """

    kind: str = "brownian"
    instruments: int = 10
    n: int = 5000
    seed: int = 0
    frequency: str = "daily"
    start: float = 1000.0
    sigma: float = 1.0
    vol_period: float = 250.0
    vol_swing: float = 0.5

    def problems(self) -> list[str]:
        """Every rule the parameters break; an empty list means every path
        can be drawn. Assumes the declared field types."""
        kind = self.kind
        rules = [
            (kind not in GENERATOR_KINDS, f"kind must be one of {GENERATOR_KINDS}"),
            (self.instruments < 1, "instruments must be >= 1"),
            (self.n < 2, "n must be >= 2"),
            # checked before any path allocates its n samples
            (self.instruments > 0 and self.instruments * self.n > MAX_SYNTHETIC_SAMPLES,
             f"instruments * n must be <= {MAX_SYNTHETIC_SAMPLES}"),
            (self.frequency not in FORMATS, "frequency must be daily or tick"),
            (self.start <= 0, "start must be positive"),
            (kind == "brownian" and self.sigma < 0, "sigma must be >= 0"),
            (kind == "time_changed" and self.sigma <= 0, "sigma must be positive"),
            (kind == "time_changed" and not 0.0 <= self.vol_swing < 1.0, "vol_swing must be in [0, 1)"),
            (kind == "time_changed" and self.vol_period <= 0, "vol_period must be positive"),
            (self.seed < 0, "seed must be >= 0"),
            # path i is drawn from Philox keyed by seed + i, and keys are below 2**128
            (self.seed + self.instruments > 2**128, "seed + instruments must be <= 2**128"),
        ]
        rules += [
            (not math.isfinite(getattr(self, name)), f"{name} must be finite")
            for name in ("start", "sigma", "vol_period", "vol_swing")
        ]
        return [message for broken, message in rules if broken]


def generate_synthetic_path(spec: SyntheticSpec, index: int = 0) -> PriceSeries:
    """Path `index` of `spec`, named SYN{index:03d}: deterministic, drawn
    from Philox keyed by spec.seed + index, and timed as load_prices times
    its CSV: a daily path in day ordinals from SYNTH_EPOCH, a tick path in
    seconds from 0. Raises ValueError naming the first of spec's problems,
    or when the path overflows the float range or crosses zero."""
    problems = spec.problems()
    if problems:
        raise ValueError(problems[0])
    rng = np.random.Generator(np.random.Philox(key=spec.seed + index))
    steps = spec.n - 1
    # an overflow becomes an inf (or a nan, inf - inf), refused below by name
    with np.errstate(over="ignore", invalid="ignore"):
        vol = spec.sigma
        if spec.kind == "time_changed":  # the instantaneous volatility of each step
            vol = spec.sigma * (1.0 + spec.vol_swing * np.sin(2.0 * np.pi * np.arange(steps) / spec.vol_period))
        prices = spec.start + np.concatenate([[0.0], np.cumsum(vol * rng.standard_normal(steps))])
    if not np.all(np.isfinite(prices)):
        raise ValueError("synthetic path overflowed the float range; lower `start` or the volatility")
    if float(prices.min()) <= 0.0:
        raise ValueError("synthetic path crossed zero; raise `start` or lower the volatility")
    origin = SYNTH_EPOCH if spec.frequency == "daily" else 0
    return PriceSeries(f"SYN{index:03d}", np.arange(origin, origin + spec.n, dtype=np.float64), prices, spec.frequency)
