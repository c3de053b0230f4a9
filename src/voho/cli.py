"""Command-line interface: run studies, preview and synthesise their data,
and explore one price file.

Three commands read a study's JSON config and take every data setting from
it: `voho study` runs the study (`--out`, the output directory, is its only
override), `voho ingest` lists the instruments that study loads and marks
the ones its `min_daily` and `min_tick_changes` keep, and `voho synth`
writes the instruments of its `synthetic` block as a CSV in the schema of
that block's `frequency`. Two commands explore one file with flags:
`voho decompose` exports skeletons at one delta and `voho entropy` scores
chosen variants.

Exit codes: 0 success, 1 invalid configuration (also a config without a
`synthetic` block given to `synth`, a bad `--variants` entry: an unknown
name, a delta that is not a positive finite number, or a name given twice;
and a numeric flag that a study config would refuse, such as `--delta -1`
or `--depth -1`, checked before any input is read), 2 data error or a
usage error (such as a flag the command does not have), 3 every instrument
failed.
"""

from __future__ import annotations

import argparse
import logging
import sys
from dataclasses import replace
from datetime import date
from pathlib import Path

from . import homogenise
from .ctw import DEFAULT_DEPTH
from .errors import AllInstrumentsFailedError, ConfigError, DataError
from .homogenise import write_skeleton_csv
from .ingest import DAILY_HEADER, FORMATS, TICK_HEADER, count_price_changes, filter_eligible, load_prices
from .pipeline import (
    DOMAINS,
    StudyConfig,
    compute_instrument_rows,
    config_from_json,
    decompose_series,
    gather_series,
    run_study,
    synthetic_series,
    validate_config,
    write_csv,
    write_entropy_csv,
)
from .stats import format_summary_table
from .variants import parse_variants

logger = logging.getLogger(__name__)

SYNTH_EPOCH = date(2000, 1, 3).toordinal()  # day index 0 of synthetic daily files


def _validated(config: StudyConfig) -> StudyConfig:
    """`config`, or ConfigError with every value validate_config refuses;
    flag values are checked as a study config with the same fields."""
    errors = validate_config(config)
    if errors:
        raise ConfigError(errors)
    return config


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="voho",
        description="Decompose price series into fixed-size moves and estimate entropy rates.",
    )
    parser.add_argument("--log-level", default="info", choices=["debug", "info", "warning", "error"])
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser(
        "ingest", help="list the instruments a study config loads and which of them are eligible",
        description="List every instrument a study of the JSON config loads (its inputs in order, then "
                    "its synthetic paths) and mark the ones its min_daily and min_tick_changes keep.",
    )
    p.add_argument("--config", required=True, help="a study's JSON config")
    p.set_defaults(func=_cmd_ingest)

    p = sub.add_parser("decompose", help="export the skeleton of every instrument in a file")
    p.add_argument("--input", required=True)
    p.add_argument("--format", required=True, choices=FORMATS)
    p.add_argument("--delta", required=True, type=float)
    p.add_argument("--domain", default="price", choices=DOMAINS)
    p.add_argument("--single-crossing", dest="crossing", action="store_const", const="single", default="multi")
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_decompose)

    p = sub.add_parser("entropy", help="entropy rates for chosen variants of a price file")
    p.add_argument("--input", required=True)
    p.add_argument("--format", required=True, choices=FORMATS)
    p.add_argument("--variants", default="orig2,orig4",
                   help="comma list of orig2, orig4 and delta_<step>; a skeleton variant is named "
                        "delta_<step> with the step to six significant digits, and two entries "
                        "that name the same variant are refused")
    p.add_argument("--depth", type=int, default=DEFAULT_DEPTH)
    p.add_argument("--domain", default="price", choices=DOMAINS)
    p.add_argument("--single-crossing", dest="crossing", action="store_const", const="single", default="multi")
    p.add_argument("--min-skeleton-events", type=int, default=1)
    p.add_argument("--out", help="write CSV here instead of stdout")
    p.set_defaults(func=_cmd_entropy)

    p = sub.add_parser(
        "study", help="run the study a JSON config describes; --out is its only override",
        description="Run the study a JSON config describes. Every setting comes from the config; "
                    "--out, the output directory, is the only override.",
    )
    p.add_argument("--config", required=True)
    p.add_argument("--out", help="write the output files here instead of the config's out_dir")
    p.set_defaults(func=_cmd_study)

    p = sub.add_parser(
        "synth", help="write the synthetic instruments of a study config as a CSV",
        description="Write the instruments of the JSON config's synthetic block as a CSV in the daily "
                    "or tick schema its frequency names; a config without that block is refused.",
    )
    p.add_argument("--config", required=True, help="a study's JSON config")
    p.add_argument("--out", required=True, help="the CSV file to write")
    p.set_defaults(func=_cmd_synth)
    return parser


def _cmd_ingest(args: argparse.Namespace) -> int:
    config = _validated(config_from_json(args.config))
    series = gather_series(config)
    eligible = {
        s.instrument_id
        for s in filter_eligible(series, config.min_daily, config.min_tick_changes)
    }
    print(f"{'instrument':<14}{'kind':<7}{'rows':>8}{'changes':>9}  eligible")
    for s in series:
        changes = count_price_changes(s) if s.kind == "tick" else ""
        flag = "yes" if s.instrument_id in eligible else "no"
        print(f"{s.instrument_id:<14}{s.kind:<7}{len(s):>8}{changes!s:>9}  {flag}")
    print(f"{len(eligible)} of {len(series)} instrument(s) eligible")
    return 0


def _cmd_decompose(args: argparse.Namespace) -> int:
    _validated(StudyConfig(deltas=[args.delta]))
    series = load_prices(args.input, args.format)
    if not series:
        raise DataError(f"{args.input}: no instruments")
    # skeletons are O(samples) until written, so all are built before the
    # command-wide MAX_EVENTS bound is checked and none is decomposed twice
    skeletons = [decompose_series(s, args.delta, args.domain, args.crossing) for s in series]
    total = sum(map(len, skeletons))
    if total > homogenise.MAX_EVENTS:
        raise DataError(
            f"{args.input}: delta={args.delta!r} gives {total} skeleton events over {len(series)} "
            f"instrument(s), more than the limit of {homogenise.MAX_EVENTS}"
        )
    events = write_skeleton_csv(skeletons, args.out)
    print(f"{events} event(s) for {len(series)} instrument(s) -> {args.out}")
    return 0


def _cmd_entropy(args: argparse.Namespace) -> int:
    variants = parse_variants(v.strip() for v in args.variants.split(",") if v.strip())
    _validated(StudyConfig(depth=args.depth, min_skeleton_events=args.min_skeleton_events))
    series = load_prices(args.input, args.format)
    if not series:
        raise DataError(f"{args.input}: no instruments")
    rows = []
    for s in series:
        rows += compute_instrument_rows(
            s, variants=variants, depth=args.depth, domain=args.domain, crossing=args.crossing,
            min_skeleton_events=args.min_skeleton_events,
        )[0]
    write_entropy_csv(args.out, rows, variants, args.depth)
    return 0


def _cmd_study(args: argparse.Namespace) -> int:
    config = config_from_json(args.config)
    if args.out is not None:
        config = replace(config, out_dir=args.out)
    result = run_study(config)
    print(f"{len(result.rows)} entropy estimate(s) -> {config.out_dir}")
    if result.summary:
        print(format_summary_table(result.summary))
    return 0


def _cmd_synth(args: argparse.Namespace) -> int:
    spec = _validated(config_from_json(args.config)).synthetic
    if spec is None:
        raise ConfigError([f"{args.config}: no synthetic block to write"])
    series = synthetic_series(spec)
    daily = spec.frequency == "daily"
    rows = (
        [s.instrument_id, date.fromordinal(SYNTH_EPOCH + int(t)).strftime("%Y%m%d"), *[repr(p)] * 4, 0]
        if daily
        else [s.instrument_id, repr(t), repr(p), 0]
        for s in series
        for t, p in zip(s.times.tolist(), s.prices.tolist())
    )
    path = Path(args.out)
    path.parent.mkdir(parents=True, exist_ok=True)
    write_csv(path, DAILY_HEADER if daily else TICK_HEADER, rows)
    print(f"{len(series)} instrument(s), {spec.n} rows each -> {path}")
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    logging.basicConfig(
        level=getattr(logging, args.log_level.upper()),
        format="%(levelname)s %(name)s: %(message)s",
    )
    try:
        return args.func(args)
    except ConfigError as exc:
        for err in exc.errors:
            print(f"config error: {err}", file=sys.stderr)
        return 1
    except AllInstrumentsFailedError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except (DataError, OSError, ValueError) as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
