"""End-to-end study orchestration: config, the per-instrument loop, persistence.

A study loads (or synthesises) price series, keeps the eligible ones and
writes the aggregate CSV outputs. Each instrument is handled in two steps:
instrument_sequences builds its symbol arrays, the quantile-binned returns
of each original variant and the skeleton symbols of each step size kept
under min_skeleton_events; run_study then scores each array with its
variant's entropy rate. Instruments are handled one after another in input
order; one that raises in either step is logged and contributes no rows.
"""

from __future__ import annotations

import csv
import json
import logging
import math
import numbers
import os
from dataclasses import MISSING, dataclass, field, fields
from pathlib import Path
from typing import get_args, get_origin, get_type_hints

import numpy as np

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
from .stats import StudyResult, StudyRow, aggregate
from .variants import ORIGINAL_VARIANTS, Variant, name_clashes, study_variants

logger = logging.getLogger(__name__)

DEFAULT_DELTAS = (0.05, 0.1, 0.25, 0.5, 0.75, 1.0)
DOMAINS = ("price", "logpath")

ENTROPY_CSV_HEADER = ["instrument", "variant", "n", "depth", "alphabet", "entropy_bits_per_symbol"]
# the names, as glob patterns, of every file a study writes into out_dir
OUTPUT_FILES = ("entropy.csv", "summary.csv", "corr.csv", "kde_*.csv", "scatter_*.csv")


@dataclass
class InputSpec:
    path: str | os.PathLike
    format: str  # one of FORMATS


@dataclass
class StudyConfig:
    """A study. `variants` names the originals to score (orig2, orig4);
    each of the strictly increasing `deltas` adds a skeleton variant named
    `delta_{delta:g}`, the step to six significant digits. Either list may
    be empty, not both. validate_config refuses deltas that share a name
    (1.0000001 and 1.0000002 are both `delta_1`), since every output file
    is keyed by it."""

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
    missing or hold something other than an object where one is expected,
    and every value validate_config refuses raise ConfigError."""
    try:
        with open(path, encoding="utf-8") as fh:
            raw = json.load(fh)
    except ValueError as exc:  # JSONDecodeError, UnicodeDecodeError, the digit limit
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
    for spec in config.inputs:
        if spec.format not in FORMATS:
            errors.append(f"input {spec.path!r}: format must be daily or tick")
    if config.synthetic is not None:
        errors += [f"synthetic {problem}" for problem in config.synthetic.problems()]
    return errors


def synthetic_series(spec: SyntheticSpec) -> list[PriceSeries]:
    """One deterministic path per instrument, seeds derived from spec.seed."""
    return [generate_synthetic_path(spec, i) for i in range(spec.instruments)]


def decompose_series(series: PriceSeries, delta: float, domain: str, crossing: str) -> SkeletonSeries:
    """The skeleton of the prices or, for domain "logpath", of the log prices."""
    if domain not in DOMAINS:
        raise ValueError(f"unknown domain {domain!r}; expected one of {DOMAINS}")
    path = np.log(series.prices) if domain == "logpath" else series.prices
    return decompose(path, delta, times=series.times, crossing=crossing, instrument_id=series.instrument_id)


def instrument_sequences(
    series: PriceSeries, variants: list[Variant], domain: str, crossing: str, min_skeleton_events: int
) -> tuple[list[tuple[Variant, np.ndarray]], list[tuple[str, int]]]:
    """One instrument's symbol arrays: each kept variant of `variants`, in
    order, with its sequence, plus the name and event count of each skeleton
    variant dropped for having fewer than min_skeleton_events events. Log
    returns are taken only when an original variant is asked for. Only the
    symbol arrays are kept, not the skeletons they come from."""
    if any(v.delta is None for v in variants):
        returns = log_returns(series)
    kept: list[tuple[Variant, np.ndarray]] = []
    dropped: list[tuple[str, int]] = []
    for variant in variants:
        if variant.delta is None:
            kept.append((variant, quantile_bins(returns, variant.alphabet)))
            continue
        skeleton = decompose_series(series, variant.delta, domain, crossing)
        if len(skeleton) < min_skeleton_events:
            dropped.append((variant.name, len(skeleton)))
        else:
            kept.append((variant, skeleton_to_symbols(skeleton)))
    return kept, dropped


def gather_series(config: StudyConfig) -> list[PriceSeries]:
    """Every instrument a study of `config` loads: the series of each of its
    inputs in order, then its synthetic paths. DataError when none is
    produced or when two share an instrument id."""
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


def run_study(config: StudyConfig, threads: int | None = None) -> StudyResult:
    """Execute the full pipeline and persist all outputs under out_dir. Rows
    follow the input order of instruments, then the order of study_variants.
    Once the config is valid, before any input is read, each regular file
    in out_dir named as in OUTPUT_FILES is removed, so a study that fails
    leaves no earlier study's outputs; nothing else is touched or created.

    Instruments are handled one after another in the calling thread: the
    symbol arrays of instrument_sequences, then one entropy_rate per array.
    One that raises in either step is logged and left out with all its rows,
    and AllInstrumentsFailedError is raised only when every eligible
    instrument did. `threads` is accepted for callers that still pass a
    worker count and is ignored."""
    errors = validate_config(config)
    if errors:
        raise ConfigError(errors)
    stale = [p for name in OUTPUT_FILES for p in Path(config.out_dir).glob(name) if p.is_file()]
    for path in stale:
        path.unlink()
    logger.info("removed %d output file(s) of an earlier study from %s", len(stale), config.out_dir)

    eligible = eligible_series(config)
    variants = study_variants(config.variants, config.deltas)

    rows: list[StudyRow] = []
    failures: list[str] = []
    for s in eligible:
        try:  # per-instrument isolation
            sequences, dropped = instrument_sequences(
                s, variants, config.domain, config.crossing, config.min_skeleton_events
            )
            scored = []
            for variant, seq in sequences:
                estimate = entropy_rate(seq, config.depth, alphabet_size=variant.alphabet)
                scored.append(StudyRow(s.instrument_id, variant.name, estimate.value, len(seq)))
        except Exception as exc:
            failures.append(str(exc))
            logger.warning("instrument %s failed: %s", s.instrument_id, exc)
            logger.debug("instrument %s traceback", s.instrument_id, exc_info=True)
            continue
        rows.extend(scored)
        for name, events in dropped:
            logger.info(
                "instrument %s: variant %s dropped (%d < %d skeleton events)",
                s.instrument_id, name, events, config.min_skeleton_events,
            )
    if len(failures) == len(eligible):
        raise AllInstrumentsFailedError(
            f"all {len(eligible)} eligible instrument(s) failed; first error: {failures[0]}"
        )

    result = aggregate(rows, variants)
    _persist(result, config)
    return result


def write_csv(path: str | os.PathLike, header: list[str], rows) -> None:
    """Write a header and rows as CSV to path. csv.writer writes a Python
    float as its repr."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(rows)


def _persist(result: StudyResult, config: StudyConfig) -> None:
    """Write every output file under config.out_dir. Every float is written
    as Python's repr of a Python float; a numpy scalar is never passed, since
    under numpy 2 its repr is np.float64(...). Only writes: run_study has
    already removed an earlier study's outputs."""
    out = Path(config.out_dir)
    try:
        out.mkdir(parents=True, exist_ok=True)
        probe = out / ".write-probe"
        probe.write_text("")
        probe.unlink()
    except OSError as exc:
        raise DataError(f"output directory {out} is not writable: {exc}") from exc

    alphabet = {v.name: v.alphabet for v in result.variants}
    write_csv(
        out / "entropy.csv",
        ENTROPY_CSV_HEADER,
        ([r.instrument, r.variant, r.n, config.depth, alphabet[r.variant], float(r.entropy)] for r in result.rows),
    )
    for variant, (grid, density) in result.kde_curves.items():
        # 512 rows of plain numbers: one string, not one csv.writer call per value
        with open(out / f"kde_{variant}.csv", "w", newline="", encoding="utf-8") as fh:
            fh.write("x,density\n" + "".join(f"{x!r},{d!r}\n" for x, d in zip(grid.tolist(), density.tolist())))
    if result.corr_matrix is not None:
        header = ["variant"] + result.corr_variants
        body = [[v] + row for v, row in zip(result.corr_variants, result.corr_matrix.tolist())]
        write_csv(out / "corr.csv", header, body)
    if result.scatter is not None:
        a, b, pairs = result.scatter
        write_csv(
            out / f"scatter_{a}_{b}.csv",
            ["instrument", f"value_{a}", f"value_{b}"],
            ([i, float(va), float(vb)] for i, va, vb in pairs),
        )
    write_csv(
        out / "summary.csv",
        ["delta", "mean_entropy"],
        ([float(d), float(m)] for d, m in result.summary),
    )
    logger.info("outputs written to %s", out)
