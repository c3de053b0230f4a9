"""End-to-end study orchestration: config, fan-out, persistence.

A study loads (or synthesises) price series, keeps the eligible ones,
computes the original discretised variants and one skeleton variant per
step size for each instrument, estimates every variant's entropy rate,
and writes the aggregate CSV outputs. Instruments are independent work
items; results are merged in input order, so thread count never changes
the output bytes.
"""

from __future__ import annotations

import csv
import json
import logging
import math
import numbers
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import MISSING, dataclass, field, fields
from pathlib import Path
from typing import get_args, get_origin, get_type_hints

import numpy as np

from .ctw import DEFAULT_DEPTH, entropy_rate
from .errors import AllInstrumentsFailedError, ConfigError, DataError
from .homogenise import CROSSING_MODES, decompose, skeleton_to_symbols
from .ingest import (
    GENERATOR_KINDS,
    PriceSeries,
    filter_eligible,
    generate_synthetic_path,
    load_prices,
    log_returns,
)
from .quantise import quantile_bins
from .stats import (
    StudyResult,
    StudyRow,
    correlation_matrix,
    delta_summary,
    kernel_density,
    parse_delta_variant,
    variant_name,
)

logger = logging.getLogger(__name__)

DEFAULT_DELTAS = (0.05, 0.1, 0.25, 0.5, 0.75, 1.0)
ORIGINAL_VARIANTS = ("orig2", "orig4")
DOMAINS = ("price", "logpath")

ENTROPY_CSV_HEADER = ["instrument", "variant", "n", "depth", "alphabet", "entropy_bits_per_symbol"]


@dataclass
class InputSpec:
    path: str | os.PathLike
    format: str  # "daily" or "tick"


@dataclass
class SyntheticSpec:
    """Parameters for an in-config synthetic dataset (one generator kind,
    `instruments` paths with derived seeds)."""

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


@dataclass
class StudyConfig:
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
    """Load a StudyConfig from a JSON file. Malformed JSON, and keys that
    are unknown, missing or hold something other than an object where one
    is expected, raise ConfigError; validate_config checks the values."""
    try:
        with open(path, encoding="utf-8") as fh:
            raw = json.load(fh)
    except (json.JSONDecodeError, UnicodeDecodeError) as exc:
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
    if errors:
        raise ConfigError(errors)
    return config


def _has_type(value, hint) -> bool:
    if hint is int:
        return isinstance(value, numbers.Integral) and not isinstance(value, bool)
    if hint is float:
        return isinstance(value, numbers.Real) and not isinstance(value, bool)
    args = get_args(hint)
    if get_origin(hint) is list:
        return isinstance(value, (list, tuple)) and all(_has_type(v, args[0]) for v in value)
    if args:  # a union, such as SyntheticSpec | None
        return any(_has_type(value, arg) for arg in args)
    return isinstance(value, hint)


def _type_errors(spec, where: str) -> list[str]:
    """One message per field of a config dataclass whose value does not
    have the declared type (an int is accepted where a float is declared)."""
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
    if not config.deltas:
        errors.append("deltas must not be empty")
    else:
        if any(not (math.isfinite(d) and d > 0) for d in config.deltas):
            errors.append("every delta must be a positive finite number")
        elif any(b <= a for a, b in zip(config.deltas, config.deltas[1:])):
            errors.append("deltas must be strictly increasing")
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
    for spec in config.inputs:
        if spec.format not in ("daily", "tick"):
            errors.append(f"input {spec.path!r}: format must be daily or tick")
    syn = config.synthetic
    if syn is not None:
        if syn.kind not in GENERATOR_KINDS:
            errors.append(f"synthetic kind must be one of {GENERATOR_KINDS}")
        if syn.instruments < 1:
            errors.append("synthetic instruments must be >= 1")
        if syn.n < 2:
            errors.append("synthetic n must be >= 2")
        if syn.frequency not in ("daily", "tick"):
            errors.append("synthetic frequency must be daily or tick")
        if syn.start <= 0:
            errors.append("synthetic start must be positive")
        if syn.kind == "brownian" and syn.sigma < 0:
            errors.append("synthetic sigma must be >= 0")
        if syn.kind == "time_changed" and syn.sigma <= 0:
            errors.append("synthetic sigma must be positive")
        if syn.kind == "time_changed" and not 0.0 <= syn.vol_swing < 1.0:
            errors.append("synthetic vol_swing must be in [0, 1)")
        if syn.kind == "time_changed" and syn.vol_period <= 0:
            errors.append("synthetic vol_period must be positive")
        if syn.kind == "jump" and syn.jump_multiple < 2:
            errors.append("synthetic jump_multiple must be an integer >= 2")
        if syn.kind == "jump" and not 0.0 < syn.jump_prob <= 1.0:
            errors.append("synthetic jump_prob must be in (0, 1]")
        if syn.kind == "jump" and syn.delta <= 0:
            errors.append("synthetic delta must be positive")
    return errors


def synthetic_series(spec: SyntheticSpec) -> list[PriceSeries]:
    """One deterministic path per instrument, seeds derived from spec.seed."""
    return [
        generate_synthetic_path(
            spec.kind,
            spec.n,
            seed=spec.seed + i,
            instrument_id=f"SYN{i:03d}",
            frequency=spec.frequency,
            start=spec.start,
            sigma=spec.sigma,
            delta=spec.delta,
            jump_multiple=int(spec.jump_multiple),
            jump_prob=spec.jump_prob,
            vol_period=spec.vol_period,
            vol_swing=spec.vol_swing,
        )
        for i in range(spec.instruments)
    ]


def domain_path(series: PriceSeries, domain: str) -> tuple[np.ndarray, str]:
    """The path a skeleton is taken of, with its input kind: the prices,
    or for domain "logpath" the log prices."""
    if domain == "logpath":
        return np.log(series.prices), "log_return_path"
    return series.prices, "price"


def compute_instrument_rows(
    series: PriceSeries,
    *,
    variants: list[str],
    deltas: list[float],
    depth: int,
    domain: str = "price",
    crossing: str = "multi",
    min_skeleton_events: int = 1,
) -> tuple[list[StudyRow], list[str]]:
    """Entropy rows for one instrument plus the skeleton variants dropped
    for having fewer than min_skeleton_events events."""
    rows: list[StudyRow] = []
    dropped: list[str] = []
    if variants:
        returns = log_returns(series, drop_zero=series.kind == "tick")
        for variant in variants:
            m = 2 if variant == "orig2" else 4
            seq = quantile_bins(returns, m)
            estimate = entropy_rate(seq, depth)
            rows.append(StudyRow(series.instrument_id, variant, estimate.value, len(seq)))
    if deltas:
        values, kind = domain_path(series, domain)
        for delta in deltas:
            skeleton = decompose(
                values,
                delta,
                times=series.times,
                crossing=crossing,
                instrument_id=series.instrument_id,
                input_kind=kind,
            )
            name = variant_name(delta)
            if len(skeleton) < min_skeleton_events:
                dropped.append(name)
                continue
            seq = skeleton_to_symbols(skeleton)
            estimate = entropy_rate(seq, depth)
            rows.append(StudyRow(series.instrument_id, name, estimate.value, len(seq)))
    return rows, dropped


def resolve_workers(threads: int | None = None) -> int:
    """Explicit argument beats VOHO_THREADS; 0 or unset means one per CPU."""
    if threads is None:
        env = os.environ.get("VOHO_THREADS", "0").strip()
        try:
            threads = int(env) if env else 0
        except ValueError:
            raise ConfigError([f"VOHO_THREADS must be an integer, got {env!r}"]) from None
    if threads <= 0:
        threads = os.cpu_count() or 1
    return max(1, int(threads))


def _gather_series(config: StudyConfig) -> list[PriceSeries]:
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
    return series


def run_study(config: StudyConfig, threads: int | None = None) -> StudyResult:
    """Execute the full pipeline and persist all outputs under out_dir."""
    errors = validate_config(config)
    if errors:
        raise ConfigError(errors)
    workers = resolve_workers(threads)

    series = _gather_series(config)
    if not series:
        raise DataError("no input sources produced any instrument")
    eligible = filter_eligible(series, config.min_daily, config.min_tick_changes)
    logger.info("%d of %d instrument(s) eligible", len(eligible), len(series))
    if not eligible:
        raise DataError("no eligible instruments after length filters")

    def work(s: PriceSeries):
        return compute_instrument_rows(
            s,
            variants=config.variants,
            deltas=config.deltas,
            depth=config.depth,
            domain=config.domain,
            crossing=config.crossing,
            min_skeleton_events=config.min_skeleton_events,
        )

    outcomes: dict[str, tuple[list[StudyRow], list[str]]] = {}
    failures: dict[str, str] = {}
    with ThreadPoolExecutor(max_workers=workers) as pool:
        futures = {s.instrument_id: pool.submit(work, s) for s in eligible}
        for instrument, future in futures.items():
            try:
                outcomes[instrument] = future.result()
            except Exception as exc:  # per-instrument isolation
                failures[instrument] = str(exc)
                logger.warning("instrument %s failed: %s", instrument, exc)
    if not outcomes:
        raise AllInstrumentsFailedError(
            f"all {len(eligible)} eligible instrument(s) failed; first error: "
            f"{next(iter(failures.values()))}"
        )

    variant_order = [v for v in ORIGINAL_VARIANTS if v in config.variants]
    variant_order += [variant_name(d) for d in config.deltas]
    rows: list[StudyRow] = []
    for s in eligible:  # deterministic merge, input order
        if s.instrument_id not in outcomes:
            continue
        by_variant = {row.variant: row for row in outcomes[s.instrument_id][0]}
        rows.extend(by_variant[v] for v in variant_order if v in by_variant)
        for name in outcomes[s.instrument_id][1]:
            logger.info(
                "instrument %s: variant %s dropped (< %d skeleton events)",
                s.instrument_id, name, config.min_skeleton_events,
            )

    result = StudyResult(rows=rows, variants=variant_order)
    _aggregate(result)
    _persist(result, config)
    return result


def _aggregate(result: StudyResult) -> None:
    values: dict[str, list[float]] = {}
    for row in result.rows:
        values.setdefault(row.variant, []).append(row.entropy)
    for variant in result.variants:
        entries = values.get(variant, [])
        if len(entries) < 2:
            continue
        try:
            result.kde_curves[variant] = kernel_density(entries)
        except ValueError as exc:
            logger.warning("kde skipped for %s: %s", variant, exc)
    present = [v for v in result.variants if v in values]
    if len(present) >= 2:
        try:
            matrix, kept, dropped = correlation_matrix(result.rows, present)
            result.corr_matrix = matrix
            result.corr_variants = present
            result.corr_instruments = kept
            result.dropped_instruments = dropped
        except ValueError as exc:
            logger.warning("correlation matrix skipped: %s", exc)
    result.summary = delta_summary(result.rows)


def _fmt(x: float) -> str:
    return repr(float(x))


def _write_csv(path: Path, header: list[str], rows) -> None:
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(rows)


def _persist(result: StudyResult, config: StudyConfig) -> None:
    out = Path(config.out_dir)
    try:
        out.mkdir(parents=True, exist_ok=True)
        probe = out / ".write-probe"
        probe.write_text("")
        probe.unlink()
    except OSError as exc:
        raise DataError(f"output directory {out} is not writable: {exc}") from exc

    alphabet = {v: (2 if v != "orig4" else 4) for v in result.variants}
    _write_csv(
        out / "entropy.csv",
        ENTROPY_CSV_HEADER,
        (
            [r.instrument, r.variant, r.n, config.depth, alphabet[r.variant], _fmt(r.entropy)]
            for r in result.rows
        ),
    )
    for variant, (grid, density) in result.kde_curves.items():
        _write_csv(
            out / f"kde_{variant}.csv",
            ["x", "density"],
            ([_fmt(x), _fmt(d)] for x, d in zip(grid, density)),
        )
    if result.corr_matrix is not None:
        header = ["variant"] + result.corr_variants
        body = [
            [v] + [_fmt(x) for x in result.corr_matrix[i]]
            for i, v in enumerate(result.corr_variants)
        ]
        _write_csv(out / "corr.csv", header, body)
    _write_scatter(result, out)
    _write_csv(
        out / "summary.csv",
        ["delta", "mean_entropy"],
        ([_fmt(d), _fmt(m)] for d, m in result.summary),
    )
    logger.info("outputs written to %s", out)


def _write_scatter(result: StudyResult, out: Path) -> None:
    """orig4 against the smallest-delta skeleton variant, where both exist."""
    delta_variants = sorted(
        (parse_delta_variant(v), v) for v in result.variants if parse_delta_variant(v) is not None
    )
    if "orig4" not in result.variants or not delta_variants:
        return
    a, b = "orig4", delta_variants[0][1]
    by_instrument: dict[str, dict[str, float]] = {}
    order = []
    for row in result.rows:
        if row.instrument not in by_instrument:
            by_instrument[row.instrument] = {}
            order.append(row.instrument)
        by_instrument[row.instrument][row.variant] = row.entropy
    pairs = [
        (i, by_instrument[i][a], by_instrument[i][b])
        for i in order
        if a in by_instrument[i] and b in by_instrument[i]
    ]
    if not pairs:
        return
    _write_csv(
        out / f"scatter_{a}_{b}.csv",
        ["instrument", f"value_{a}", f"value_{b}"],
        ([i, _fmt(va), _fmt(vb)] for i, va, vb in pairs),
    )
