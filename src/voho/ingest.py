"""Price-series loading, eligibility filters, log returns, and synthetic paths.

CSV schemas:
    daily:  instrument,date,open,high,low,close,volume   (date as YYYYMMDD)
    tick:   instrument,timestamp,price,volume            (epoch seconds)

Only instrument, date or timestamp, and close or price are parsed; the other
columns must be present and may hold any text. load_prices reads a file in
one np.loadtxt pass and checks the columns as arrays. np.loadtxt is given
the file's path, which its C reader pulls in chunks, unless numpy would
read that path differently from the row reader: then it is given the
file's lines. Any file that this read or a check refuses is read again by
the row reader, which alone words errors, each as `path:line: reason`.

Daily dates are stored as proleptic-Gregorian day ordinals so that linear
interpolation across weekends/holidays uses real day spacing.
"""

from __future__ import annotations

import csv
import itertools
import logging
import math
import os
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

GENERATOR_KINDS = ("brownian", "time_changed", "jump")

# np.loadtxt strips U+001C..U+001F from numbers as whitespace, float()
# refuses them, so only the row reader decides a file holding one
_SEPARATOR_CONTROLS = {b"\x1c", b"\x1d", b"\x1e", b"\x1f"}
_QUOTE_AND_CR = {b'"', b"\r"}
_MARKS = _SEPARATOR_CONTROLS | _QUOTE_AND_CR
# numpy decompresses a path by these suffixes
_COMPRESSED_SUFFIXES = (".gz", ".bz2", ".xz", ".lzma")
_EPOCH_ORDINAL = date(1970, 1, 1).toordinal()  # day ordinal of datetime64 day 0


@dataclass(frozen=True)
class PriceSeries:
    """Timestamped positive prices for one instrument.

    `times` are day ordinals for daily data and epoch seconds for tick data.
    Arrays are frozen after construction.
    """

    instrument_id: str
    times: np.ndarray
    prices: np.ndarray
    kind: str  # one of FORMATS

    def __post_init__(self):
        times = np.ascontiguousarray(self.times, dtype=np.float64)
        prices = np.ascontiguousarray(self.prices, dtype=np.float64)
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
    if len(text) != 8 or not text.isdigit():
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
    header = next(reader, None)
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
    may hold any text. The rows are read in one `np.loadtxt` pass and
    checked as arrays. That pass reads from one of two sources:

    - the file's path, which numpy's C reader pulls in chunks, for most
      files;
    - the file's lines, as the row reader splits them, when numpy would
      read the path differently: it decompresses a name ending in `.gz`,
      `.bz2`, `.xz` or `.lzma`, its universal newlines turn a `\r` inside a
      quoted field into `\n` (so a file holding both `"` and `\r`), and it
      skips lines, not records, past a header that spans several lines.

    When that read or any check fails, the file is read again row by row,
    which raises the `DataFormatError` naming the first bad line (or
    returns the series, for the few inputs that only the row reader
    accepts, such as numbers with underscores or non-ASCII digits).
    Bytes that are not UTF-8 raise `path:line: not UTF-8 text` on either
    route, naming the line of the first such byte.
    """
    expected = _schema(format)
    marks = _marker_bytes(path)
    if marks & _SEPARATOR_CONTROLS:
        return _load_rows(path, format)
    # ids and dates as str objects, never cut to a fixed width
    parsed = {"instrument": "O", "date": "O", "timestamp": "f8", "price": "f8", "close": "f8"}
    dtype = np.dtype([(name, parsed.get(name, "U1")) for name in expected])
    with open(path, newline="", encoding="utf-8-sig") as fh:
        lines = _utf8_lines(fh, path)
        header_lines = _read_header(lines, path, expected)
        if not header_lines:
            return []
        rows = _skip_blank_lines(lines)
        if rows is None:
            return []
        if header_lines > 1 or _QUOTE_AND_CR <= marks or str(path).lower().endswith(_COMPRESSED_SUFFIXES):
            source, skiprows = rows, 0
        else:
            # an absolute path is never taken for a URL
            source, skiprows = os.path.abspath(path), 1
        try:
            table = np.loadtxt(
                source, dtype=dtype, delimiter=",", comments=None, quotechar='"', ndmin=1,
                skiprows=skiprows, encoding="utf-8-sig",
            )
        except ValueError:
            return _load_rows(path, format)
    try:
        return _table_series(table, format)
    except ValueError:
        return _load_rows(path, format)


def _marker_bytes(path: str | Path) -> set[bytes]:
    """Which bytes of `_SEPARATOR_CONTROLS` and `_QUOTE_AND_CR` the file
    holds. In UTF-8 none of them is ever part of another character."""
    found = set()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            found.update(mark for mark in _MARKS if mark in chunk)
    return found


def _utf8_lines(fh, path: str | Path) -> Iterator[str]:
    """The lines of the text file `fh`. Where decoding fails, raises the
    DataFormatError naming the line of the first byte that is not UTF-8:
    the decoder works in chunks, so its own error names neither."""
    try:
        yield from fh
    except UnicodeDecodeError:
        raise DataFormatError(f"{path}:{_first_undecodable_line(path)}: not UTF-8 text") from None


def _first_undecodable_line(path: str | Path) -> int:
    """The number of the file's first line that does not decode as UTF-8.
    bytes.splitlines splits on the same LF, CRLF and CR as the text
    reader, and no newline byte is ever part of a multi-byte character, so
    each line decodes on its own; the last part of a chunk is carried into
    the next, since it may go on there."""
    lineno = 0
    tail = b""
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            *lines, tail = (tail + chunk).splitlines(keepends=True)
            for line in lines:
                lineno += 1
                try:
                    line.decode("utf-8")
                except UnicodeDecodeError:
                    return lineno
    return lineno + 1  # the last line, which only the text decoder refused


def _skip_blank_lines(fh) -> Iterator[str] | None:
    """The lines of `fh` from its first non-blank one on, or None when only
    blank lines are left (np.loadtxt would warn of an empty input)."""
    for line in fh:
        if line not in ("\n", "\r\n", "\r"):
            return itertools.chain([line], fh)
    return None


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
    """Day ordinals of YYYYMMDD fields written in ASCII digits; ValueError
    for any other field or an invalid date."""
    text = [field.strip() for field in fields.tolist()]
    if any(len(t) != 8 for t in text):
        raise ValueError("date is not YYYYMMDD")
    digits = np.frombuffer("".join(text).encode("ascii"), dtype=np.uint8).reshape(-1, 8) - ord("0")
    if digits.max() > 9:
        raise ValueError("date is not YYYYMMDD")
    ymd = digits.astype(np.int64)
    year = ymd[:, :4] @ [1000, 100, 10, 1]
    month = ymd[:, 4:6] @ [10, 1]
    day = ymd[:, 6:] @ [10, 1]
    days = ((year - 1970) * 12 + month - 1).astype("datetime64[M]").astype("datetime64[D]") + (day - 1)
    # round trip: a month or day out of range lands in another month
    months = days.astype("datetime64[M]")
    back_month = months.astype(np.int64)
    back = (back_month // 12 + 1970, back_month % 12 + 1, (days - months).astype(np.int64) + 1)
    if np.any(year < 1) or not all(np.array_equal(a, b) for a, b in zip(back, (year, month, day))):
        raise ValueError("invalid date")
    return days.astype(np.int64) + _EPOCH_ORDINAL


def _load_rows(path: str | Path, format: str) -> list[PriceSeries]:
    """load_prices one row at a time: the reader of record for every error."""
    expected = _schema(format)
    groups: dict[str, tuple[list[float], list[float]]] = {}
    with open(path, newline="", encoding="utf-8-sig") as fh:
        lines = _utf8_lines(fh, path)
        header_lines = _read_header(lines, path, expected)
        if not header_lines:
            return []
        reader = csv.reader(lines)
        last = header_lines  # the last line read so far
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


def log_returns(series: PriceSeries) -> np.ndarray:
    """The array of r_t = ln(p_t / p_{t-1}).

    For tick data, observations whose price equals the previous one are
    removed before differencing, so every emitted return is nonzero.
    """
    if len(series) < 2:
        raise ValueError(f"{series.instrument_id}: need at least 2 observations")
    prices = series.prices
    if series.kind == "tick":
        keep = np.empty(prices.size, dtype=bool)
        keep[0] = True
        keep[1:] = np.diff(prices) != 0.0
        prices = prices[keep]
    return np.log(prices[1:] / prices[:-1])


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
    jump          piecewise-constant path; each step jumps by
                  +-jump_multiple*delta with probability jump_prob,
                  signs i.i.d.
    """

    kind: str = "brownian"
    instruments: int = 10
    n: int = 5000
    seed: int = 0
    frequency: str = "daily"
    start: float = 1000.0
    sigma: float = 1.0
    delta: float = 0.5
    jump_multiple: int = 5
    jump_prob: float = 1.0
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
            (self.frequency not in FORMATS, "frequency must be daily or tick"),
            (self.start <= 0, "start must be positive"),
            (kind == "brownian" and self.sigma < 0, "sigma must be >= 0"),
            (kind == "time_changed" and self.sigma <= 0, "sigma must be positive"),
            (kind == "time_changed" and not 0.0 <= self.vol_swing < 1.0, "vol_swing must be in [0, 1)"),
            (kind == "time_changed" and self.vol_period <= 0, "vol_period must be positive"),
            (kind == "jump" and not (self.jump_multiple % 1 == 0 and self.jump_multiple >= 2),
             "jump_multiple must be an integer >= 2"),
            (kind == "jump" and not 0.0 < self.jump_prob <= 1.0, "jump_prob must be in (0, 1]"),
            (kind == "jump" and self.delta <= 0, "delta must be positive"),
            (self.seed < 0, "seed must be >= 0"),
            # path i is drawn from Philox keyed by seed + i, and keys are below 2**128
            (self.seed + self.instruments > 2**128, "seed + instruments must be <= 2**128"),
        ]
        rules += [
            (not math.isfinite(getattr(self, name)), f"{name} must be finite")
            for name in ("start", "sigma", "delta", "jump_prob", "vol_period", "vol_swing")
        ]
        return [message for broken, message in rules if broken]


def generate_synthetic_path(spec: SyntheticSpec, index: int = 0) -> PriceSeries:
    """Path `index` of `spec`, named SYN{index:03d}: deterministic, drawn
    from Philox keyed by spec.seed + index. Raises ValueError naming the
    first of spec's problems, or when the path overflows the float range or
    crosses zero."""
    problems = spec.problems()
    if problems:
        raise ValueError(problems[0])
    rng = np.random.Generator(np.random.Philox(key=spec.seed + index))
    steps = spec.n - 1
    # an overflow becomes an inf (or a nan, inf * 0), refused below by name
    with np.errstate(over="ignore", invalid="ignore"):
        if spec.kind == "brownian":
            increments = spec.sigma * rng.standard_normal(steps)
        elif spec.kind == "time_changed":
            instant_vol = spec.sigma * (1.0 + spec.vol_swing * np.sin(2.0 * np.pi * np.arange(steps) / spec.vol_period))
            clock_increments = instant_vol**2
            increments = np.sqrt(clock_increments) * rng.standard_normal(steps)
        else:  # jump
            signs = 2.0 * rng.integers(0, 2, size=steps) - 1.0
            moved = rng.random(steps) < spec.jump_prob
            increments = signs * (float(spec.jump_multiple) * spec.delta) * moved
        prices = spec.start + np.concatenate([[0.0], np.cumsum(increments)])
    if not np.all(np.isfinite(prices)):
        raise ValueError("synthetic path overflowed the float range; lower `start` or the volatility")
    if float(prices.min()) <= 0.0:
        raise ValueError("synthetic path crossed zero; raise `start` or lower the volatility")
    return PriceSeries(f"SYN{index:03d}", np.arange(spec.n, dtype=np.float64), prices, spec.frequency)
