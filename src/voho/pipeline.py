"""End-to-end study orchestration: config, the per-instrument loop, and the writing of every file.

A study loads (or synthesises) price series, keeps the eligible ones and
writes the aggregate CSV outputs. Each instrument is handled in three steps:
instrument_sequences plans its symbol arrays (the quantile-binned returns of
each original variant, the skeleton symbols of each step size kept under
min_skeleton_events), score_sequences scores them and run_study makes their
rows. Instruments are handled one after another in input order; one that
raises while planning or scoring is logged and contributes no rows.
"""

from __future__ import annotations

import csv
import io
import json
import logging
import math
import numbers
import os
from collections.abc import Iterable, Iterator
from contextlib import contextmanager
from dataclasses import MISSING, dataclass, field, fields
from fnmatch import fnmatchcase
from pathlib import Path
from typing import get_args, get_origin, get_type_hints

import numpy as np

from . import homogenise
from .ctw import DEFAULT_DEPTH, entropy_rate
from .errors import AllInstrumentsFailedError, ConfigError, DataError
from .homogenise import CROSSING_MODES, SkeletonSeries, decompose, skeleton_to_symbols
from .ingest import (
    FORMATS,
    PriceSeries,
    SyntheticSpec,
    filter_eligible,
    generate_synthetic_path,
    load_prices,
    log_returns,
)
from .quantise import quantile_bins
from .stats import KDE_CSV_HEADER, ORIGINAL_VARIANTS, OUTPUT_FILES, StudyResult, StudyRow, Variant
from .stats import aggregate, name_clashes, study_variants

logger = logging.getLogger(__name__)

DEFAULT_DELTAS = (0.05, 0.1, 0.25, 0.5, 0.75, 1.0)
DOMAINS = ("price", "logpath")

SKELETON_CSV_HEADER = ["instrument", "delta", "i", "T_i", "level", "direction"]
# events of one skeleton turned into CSV rows at a time by write_skeleton_csv
CSV_SLICE_EVENTS = 65_536
# characters of a config file read before it is refused as too long, so a
# price file given as the config is not read whole
MAX_CONFIG_CHARS = 1 << 24
# bytes of a study's input files together, checked before any input is read:
# a study holds every loaded input at once, and loading a file held 2.5 (daily)
# to 4.0 (tick) times its size, so the loads stay under about 4.3 GB together
MAX_INPUT_BYTES = 1 << 30


@dataclass
class InputSpec:
    path: str | os.PathLike
    format: str  # one of FORMATS


@dataclass
class StudyConfig:
    """A study. `variants` names the originals to score (orig2, orig4);
    each of the strictly increasing `deltas` adds a skeleton variant, named
    as `stats` says, and validate_config refuses deltas that share a name.
    Either list may be empty, not both; the data come from `inputs`,
    `synthetic` or both."""

    inputs: list[InputSpec] = field(default_factory=list)
    synthetic: SyntheticSpec | None = None
    deltas: list[float] = field(default_factory=lambda: list(DEFAULT_DELTAS))
    depth: int = DEFAULT_DEPTH
    variants: list[str] = field(default_factory=lambda: list(ORIGINAL_VARIANTS))
    min_daily: int = 1000
    min_tick_changes: int = 2500
    min_skeleton_events: int = 1000
    domain: str = "price"
    crossing: str = "multi"
    out_dir: str | os.PathLike = "voho-out"


def _from_json_object(raw, cls, where: str, errors: list[str]):
    """`cls` built from a JSON object, or None after appending to `errors`
    what is wrong with it: not an object, unknown keys, missing keys."""
    if not isinstance(raw, dict):
        errors.append(f"{where}: must be a JSON object")
        return None
    names = {f.name for f in fields(cls)}
    required = {f.name for f in fields(cls) if f.default is MISSING and f.default_factory is MISSING}
    problems = [f"{where}: unknown config key {key!r}" for key in sorted(set(raw) - names)]
    problems += [f"{where}: missing config key {key!r}" for key in sorted(required - set(raw))]
    errors += problems
    return None if problems else cls(**raw)


def config_from_json(path: str | Path) -> StudyConfig:
    """Load a valid StudyConfig from a JSON file. Malformed JSON (also an
    integer over the interpreter's digit limit), keys that are unknown,
    missing, repeated in one object or hold something other than an object
    where one is expected, a file longer than MAX_CONFIG_CHARS characters
    (read no further; a leading byte-order mark is skipped, not counted) and
    every value validate_config refuses raise ConfigError."""
    def unique_keys(pairs: list[tuple[str, object]]) -> dict:
        seen: set[str] = set()
        for key, _ in pairs:
            if key in seen:  # json.load would keep the last value silently
                raise ConfigError([f"{path}: repeated config key {key!r}"])
            seen.add(key)
        return dict(pairs)

    limit = MAX_CONFIG_CHARS
    try:
        with open(path, encoding="utf-8-sig") as fh:  # RFC 8259 lets a parser ignore a BOM
            text = fh.read(limit + 1)
        if len(text) > limit:
            raise ConfigError([f"{path}: longer than {limit} characters, the limit for a config"])
        raw = json.loads(text, object_pairs_hook=unique_keys)
    except (ValueError, RecursionError) as exc:  # JSONDecodeError, UnicodeDecodeError, the digit limit, nesting
        raise ConfigError([f"{path}: not valid JSON: {exc}"]) from None
    errors: list[str] = []
    if isinstance(raw, dict):
        raw = dict(raw)
        if isinstance(raw.get("inputs"), list):
            raw["inputs"] = [
                _from_json_object(spec, InputSpec, f"{path}: inputs[{i}]", errors)
                for i, spec in enumerate(raw["inputs"])
            ]
        if raw.get("synthetic") is not None:
            raw["synthetic"] = _from_json_object(raw["synthetic"], SyntheticSpec, f"{path}: synthetic", errors)
    config = _from_json_object(raw, StudyConfig, str(path), errors)
    errors = errors or validate_config(config)
    if errors:
        raise ConfigError(errors)
    return config


def _has_type(value, hint) -> bool:
    if hint is int:
        return isinstance(value, numbers.Integral) and not isinstance(value, bool)
    if hint is float:
        if isinstance(value, bool) or not isinstance(value, numbers.Real):
            return False
        try:
            float(value)  # an int too large for a float raises OverflowError
        except OverflowError:
            return False
        return True
    args = get_args(hint)
    if get_origin(hint) is list:
        return isinstance(value, (list, tuple)) and all(_has_type(v, args[0]) for v in value)
    if args:  # a union, such as SyntheticSpec | None
        return any(_has_type(value, arg) for arg in args)
    return isinstance(value, hint)


def _type_errors(spec, where: str) -> list[str]:
    """One message per field of a config dataclass whose value does not
    have the declared type (an int is accepted where a float is declared,
    if it converts to one)."""
    hints = get_type_hints(type(spec))
    return [
        f"{where}{f.name} must be of type {f.type}, got {getattr(spec, f.name)!r}"
        for f in fields(spec)
        if not _has_type(getattr(spec, f.name), hints[f.name])
    ]


def validate_config(config: StudyConfig) -> list[str]:
    """All invariant violations at once; an empty list means the config is
    usable. Type errors are reported alone: the value checks assume the
    declared types."""
    errors = _type_errors(config, "")
    if not errors:
        for i, spec in enumerate(config.inputs):
            errors += _type_errors(spec, f"inputs[{i}].")
        if config.synthetic is not None:
            errors += _type_errors(config.synthetic, "synthetic.")
    if errors:
        return errors
    if not config.deltas and not config.variants:
        errors.append("variants and deltas must not both be empty")
    if not config.inputs and config.synthetic is None:
        errors.append("inputs and synthetic must not both be empty")
    named = [(f"variants[{i}]", v) for i, v in enumerate(config.variants)]
    if any(not (math.isfinite(d) and d > 0) for d in config.deltas):
        errors.append("every delta must be a positive finite number")
    elif any(b <= a for a, b in zip(config.deltas, config.deltas[1:])):
        errors.append("deltas must be strictly increasing")
    else:
        named += [(f"delta {d!r}", Variant.skeleton(d).name) for d in config.deltas]
    errors += name_clashes(named)
    if config.depth < 0:
        errors.append("depth must be a non-negative integer")
    for v in config.variants:
        if v not in ORIGINAL_VARIANTS:
            errors.append(f"unknown variant {v!r} (skeleton variants come from deltas)")
    if config.min_daily < 2:
        errors.append("min_daily must be >= 2")
    if config.min_tick_changes < 2:
        errors.append("min_tick_changes must be >= 2")
    if config.min_skeleton_events < 1:
        errors.append("min_skeleton_events must be >= 1")
    if config.domain not in DOMAINS:
        errors.append(f"domain must be one of {DOMAINS}")
    if config.crossing not in CROSSING_MODES:
        errors.append(f"crossing must be one of {CROSSING_MODES}")
    if not os.fspath(config.out_dir):  # "" would write into the working directory
        errors.append("out_dir must not be empty")
    if out_problem := _unusable_path(config.out_dir):
        errors.append(f"out_dir {config.out_dir!r}: {out_problem}")
    for spec in config.inputs:
        if spec.format not in FORMATS:
            errors.append(f"input {spec.path!r}: format must be daily or tick")
        if problem := _unusable_path(spec.path):
            errors.append(f"input {spec.path!r}: {problem}")
        elif not out_problem and _swept(spec.path, config.out_dir):
            errors.append(f"input {spec.path!r}: lies in out_dir under an output file name, which a study removes")
    if config.synthetic is not None:
        errors += [f"synthetic {problem}" for problem in config.synthetic.problems()]
    return errors


def synthetic_series(spec: SyntheticSpec) -> list[PriceSeries]:
    """One deterministic path per instrument, seeds derived from spec.seed."""
    return [generate_synthetic_path(spec, i) for i in range(spec.instruments)]


def instrument_skeletons(
    series: PriceSeries, deltas: list[float], domain: str, crossing: str
) -> Iterator[SkeletonSeries]:
    """An instrument's skeleton at each of `deltas` in order, one at a time,
    of its prices or, for domain "logpath", of its log prices, taken once:
    the one place that decides how a study and `voho decompose` decompose it."""
    path = np.log(series.prices) if domain == "logpath" else series.prices
    for delta in deltas:
        yield decompose(path, delta, times=series.times, crossing=crossing)


def instrument_sequences(
    series: PriceSeries, variants: list[Variant], domain: str, crossing: str, min_skeleton_events: int
) -> tuple[list[tuple[Variant, np.ndarray]], list[tuple[str, int]]]:
    """One instrument's study plan: each kept variant of `variants`, in order,
    with its symbol array for score_sequences, plus the name and event count
    of each skeleton variant dropped for having fewer than min_skeleton_events
    events. Log returns are taken only when an original variant is asked for;
    of each skeleton of instrument_skeletons only the symbol array is kept.
    DataError before the kept skeletons' events pass homogenise.MAX_EVENTS."""
    if any(v.delta is None for v in variants):
        returns = log_returns(series)
    skeletons = instrument_skeletons(series, [v.delta for v in variants if v.delta is not None], domain, crossing)
    kept: list[tuple[Variant, np.ndarray]] = []
    dropped: list[tuple[str, int]] = []
    events: list[int] = []  # of each kept skeleton
    for variant in variants:
        if variant.delta is None:
            kept.append((variant, quantile_bins(returns, variant.alphabet)))
        elif len(skeleton := next(skeletons)) < min_skeleton_events:
            dropped.append((variant.name, len(skeleton)))
        else:
            events.append(len(skeleton))
            if sum(events) > homogenise.MAX_EVENTS:
                raise DataError(f"{sum(events)} skeleton events over {len(events)} kept delta(s), more than the "
                                f"limit of {homogenise.MAX_EVENTS} for one instrument")
            kept.append((variant, skeleton_to_symbols(skeleton)))
    return kept, dropped


def score_sequences(sequences: list[tuple[Variant, np.ndarray]], depth: int) -> list[float]:
    """The entropy rate of each (variant, symbols) pair of instrument_sequences,
    in order, under the variant's alphabet: one entropy_rate call per pair."""
    return [entropy_rate(symbols, depth, alphabet_size=variant.alphabet).value for variant, symbols in sequences]


def gather_series(config: StudyConfig) -> list[PriceSeries]:
    """Every instrument a study of `config` loads: the series of each of its
    inputs in order, then its synthetic paths. DataError, before any input
    is read, when the input files hold more than MAX_INPUT_BYTES together;
    then when none is produced or when two share an instrument id."""
    limit = MAX_INPUT_BYTES
    if (total := sum(os.stat(spec.path).st_size for spec in config.inputs)) > limit:
        raise DataError(f"{len(config.inputs)} input file(s) hold {total} bytes, more than the limit of {limit} "
                        "for a study's inputs together")
    series: list[PriceSeries] = []
    for spec in config.inputs:
        loaded = load_prices(spec.path, spec.format)
        logger.info("loaded %d instrument(s) from %s", len(loaded), spec.path)
        series.extend(loaded)
    if config.synthetic is not None:
        series.extend(synthetic_series(config.synthetic))
    seen: set[str] = set()
    for s in series:
        if s.instrument_id in seen:
            raise DataError(f"duplicate instrument id {s.instrument_id!r} across inputs")
        seen.add(s.instrument_id)
    if not series:
        raise DataError("no input sources produced any instrument")
    return series


def eligible_series(config: StudyConfig) -> list[PriceSeries]:
    """The instruments a study of `config` scores: those of gather_series
    that its min_daily and min_tick_changes keep, in the same order.
    DataError when none is kept."""
    series = gather_series(config)
    eligible = filter_eligible(series, config.min_daily, config.min_tick_changes)
    logger.info("%d of %d instrument(s) eligible", len(eligible), len(series))
    if not eligible:
        raise DataError("no eligible instruments after length filters")
    return eligible


def _is_output_name(name: str) -> bool:
    """Whether a file named `name` in out_dir is one a study writes or leaves
    half written: a name of OUTPUT_FILES, bare or plus ".part"."""
    return any(fnmatchcase(name, pattern + part) for pattern in OUTPUT_FILES for part in ("", ".part"))


def _unusable_path(path: str | os.PathLike) -> str | None:
    """Why no file can have the name `path`, or None if one can."""
    try:
        return "holds a NUL, which names no file" if b"\0" in os.fsencode(path) else None
    except UnicodeEncodeError:  # a lone surrogate, as a JSON string may hold
        return "holds a character the file system cannot encode"


def _swept(path: str | os.PathLike, out: str | os.PathLike) -> bool:
    """Whether _remove_outputs(out) would remove the file at `path`: its
    name in its directory, or the file it links to, lies in `out` under a
    name _is_output_name accepts. Both must pass _unusable_path."""
    out = os.path.realpath(out)
    files = [os.path.join(os.path.realpath(os.path.dirname(path)), os.path.basename(path)), os.path.realpath(path)]
    return any(os.path.dirname(file) == out and _is_output_name(os.path.basename(file)) for file in files)


def _remove_outputs(out: Path) -> int:
    """Remove each regular file in `out` whose name _is_output_name accepts,
    and return how many there were; nothing else is touched."""
    stale = [p for p in out.glob("*") if _is_output_name(p.name) and p.is_file()]
    for path in stale:
        path.unlink()
    return len(stale)


def run_study(config: StudyConfig, threads: int | None = None) -> StudyResult:
    """Execute the full pipeline and persist all outputs under out_dir. Rows
    follow the input order of instruments, then the order of study_variants.
    Once the config is valid, before any input is read, _remove_outputs
    clears out_dir of an earlier or killed study's files, and _persist of
    its own if a write fails or is interrupted, so a failed study leaves no
    output.

    Instruments are handled one after another in the calling thread: the
    plan of instrument_sequences, its score_sequences estimates, its rows.
    One that raises before its rows is logged as `instrument A failed: <error>`
    (the layers name no instrument) and left out with all its rows.
    AllInstrumentsFailedError, quoting the first as `instrument 'A': <error>`,
    is raised only when every eligible instrument failed. `threads` is
    accepted for callers that still pass a worker count and is ignored."""
    errors = validate_config(config)
    if errors:
        raise ConfigError(errors)
    removed = _remove_outputs(Path(config.out_dir))
    logger.info("removed %d output file(s) of an earlier study from %s", removed, config.out_dir)

    eligible = eligible_series(config)
    variants = study_variants(config.variants, config.deltas)

    rows: list[StudyRow] = []
    failures: list[str] = []
    for s in eligible:
        try:  # per-instrument isolation
            sequences, dropped = instrument_sequences(
                s, variants, config.domain, config.crossing, config.min_skeleton_events
            )
            estimates = score_sequences(sequences, config.depth)
        except Exception as exc:
            failures.append(f"instrument {s.instrument_id!r}: {exc}")
            logger.warning("instrument %s failed: %s", s.instrument_id, exc)
            logger.debug("instrument %s traceback", s.instrument_id, exc_info=True)
            continue
        rows.extend(StudyRow(s.instrument_id, v.name, value, len(seq)) for (v, seq), value in zip(sequences, estimates))
        for name, events in dropped:
            logger.info(
                "instrument %s: variant %s dropped (%d < %d skeleton events)",
                s.instrument_id, name, events, config.min_skeleton_events,
            )
    if len(failures) == len(eligible):
        raise AllInstrumentsFailedError(
            f"all {len(eligible)} eligible instrument(s) failed; first error: {failures[0]}"
        )

    result = aggregate(rows, variants, config.depth)
    _persist(result, Path(config.out_dir))
    return result


@contextmanager
def open_output(path: str | Path) -> Iterator[io.TextIOWrapper]:
    """The one way voho creates an output file: make the directories of
    `path`, yield `<name>.part` beside it open as UTF-8 with newline="", and
    rename it onto `path` when the block completes or remove it if it fails.
    A `path` that exists and is not a regular file, after symlinks (a
    directory, a FIFO, a device), raises OSError before anything is made."""
    path = Path(path)
    if path.exists() and not path.is_file():
        raise OSError(f"{path} exists and is not a regular file; refusing to replace it")
    partial = path.with_name(path.name + ".part")
    path.parent.mkdir(parents=True, exist_ok=True)
    try:
        with open(partial, "w", newline="", encoding="utf-8") as fh:
            yield fh
        os.replace(partial, path)
    except BaseException:
        partial.unlink(missing_ok=True)
        raise


def write_csv(path: str | os.PathLike, header: list[str], rows) -> None:
    """Write a header and rows as CSV to path through open_output.
    csv.writer writes a Python float as its repr."""
    with open_output(path) as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(rows)


def _csv_prefix(*fields) -> str:
    """The fields as csv.writer quotes them, each followed by a comma."""
    line = io.StringIO()
    csv.writer(line, lineterminator="\n").writerow(fields)
    return line.getvalue()[:-1] + ","


def write_skeleton_csv(skeletons: Iterable[tuple[str, SkeletonSeries]], path: str | Path) -> None:
    """Export (instrument id, skeleton) pairs as instrument,delta,i,T_i,level,
    direction rows, one pair at a time: a generator holds one skeleton and its
    event arrays, turned into text CSV_SLICE_EVENTS events at a time. A failure
    leaves no file (see open_output); times and levels are written as repr of
    a Python float. export_skeletons counts and bounds the events."""
    with open_output(path) as fh:
        fh.write(",".join(SKELETON_CSV_HEADER) + "\n")
        for instrument, skel in skeletons:
            prefix = _csv_prefix(instrument, repr(float(skel.delta)))
            times, levels, directions = skel.times, skel.levels(), skel.directions
            for start in range(0, times.size, CSV_SLICE_EVENTS):
                part = slice(start, start + CSV_SLICE_EVENTS)
                rows = zip(times[part].tolist(), levels[part].tolist(), directions[part].tolist())
                fh.write("".join(
                    f"{prefix}{i},{t!r},{level!r},{direction}\n"
                    for i, (t, level, direction) in enumerate(rows, start=start + 1)
                ))


def export_skeletons(config: StudyConfig, path: str | Path) -> tuple[int, int]:
    """Write to `path` with write_skeleton_csv the skeletons of
    instrument_skeletons for each instrument of eligible_series, also those a
    study drops for min_skeleton_events, and return the events and instruments
    written. DataError names an instrument that decompose refuses as run_study
    does, and refuses more than homogenise.MAX_EVENTS events before any file."""
    series = eligible_series(config)

    def skeletons():  # instrument by instrument, each at every delta by increasing delta
        for s in series:
            try:  # decompose names no instrument: this names the one it refused
                for skeleton in instrument_skeletons(s, config.deltas, config.domain, config.crossing):
                    yield s.instrument_id, skeleton
            except DataError as exc:
                raise DataError(f"instrument {s.instrument_id!r}: {exc}") from None

    # holding every skeleton would cost a copy of its path per delta, so the
    # bounding pass keeps only event counts and the writer decomposes again
    events = sum(len(skel) for _, skel in skeletons())
    if events > homogenise.MAX_EVENTS:
        raise DataError(f"{events} skeleton events over {len(series)} instrument(s) and {len(config.deltas)} "
                        f"delta(s), more than the limit of {homogenise.MAX_EVENTS}")
    write_skeleton_csv(skeletons(), path)
    return events, len(series)


def _persist(result: StudyResult, out: Path) -> None:
    """Write each file of result.tables, then of result.kde_curves, under
    `out` through open_output. Every float is written as Python's repr of a
    Python float; a numpy scalar is never passed, since under numpy 2 its
    repr is np.float64(...). Any exception removes the outputs written so
    far, leaving all or none, and an OSError is raised as a DataError naming
    `out`."""
    try:
        for name, (header, rows) in result.tables.items():
            write_csv(out / name, header, rows)
        for name, (grid, density) in result.kde_curves.items():
            # 512 rows of plain numbers: one string, not one csv.writer call per value
            with open_output(out / name) as fh:
                fh.write(",".join(KDE_CSV_HEADER) + "\n")
                fh.write("".join(f"{x!r},{d!r}\n" for x, d in zip(grid.tolist(), density.tolist())))
    except BaseException as exc:
        _remove_outputs(out)
        if isinstance(exc, OSError):
            raise DataError(f"cannot write the outputs to {out}: {exc}") from exc
        raise
    logger.info("outputs written to %s", out)
