"""Command-line interface: run studies, preview and synthesise their data,
and export their skeletons.

Every command reads a study's JSON config and takes every data setting
from it: `voho study` runs the study (`--out`, the output directory, is its
only override), `voho ingest` lists the instruments that study loads and
marks the ones its `min_daily` and `min_tick_changes` keep, `voho synth`
writes the instruments of its `synthetic` block as a CSV in the schema of
that block's `frequency`, and `voho decompose` exports the skeletons that
study decomposes.

Exit codes: 0 success, 1 invalid configuration (also a config without a
`synthetic` block, or with a daily one whose paths run past 9999-12-31,
given to `synth`, or without deltas given to `decompose`), checked before
any input is read, 2 data error or a usage error (such as a flag or command
voho does not have), 3 every instrument failed.
"""

from __future__ import annotations

import argparse
import logging
import sys
from dataclasses import replace
from datetime import date

from .errors import AllInstrumentsFailedError, ConfigError, DataError
from .ingest import DAILY_HEADER, SYNTH_EPOCH, TICK_HEADER, count_price_changes, filter_eligible
from .pipeline import (
    config_from_json,
    export_skeletons,
    gather_series,
    run_study,
    synthetic_series,
    write_csv,
)
from .stats import format_summary_table

# the longest daily path `voho synth` writes: its last day, SYNTH_EPOCH + n - 1,
# is 9999-12-31, the last date a YYYYMMDD field holds
MAX_DAILY_SYNTH_N = date.max.toordinal() - SYNTH_EPOCH + 1


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

    p = sub.add_parser("decompose", help="export the skeletons a study of the JSON config decomposes as a CSV")
    p.add_argument("--config", required=True, help="a study's JSON config")
    p.add_argument("--out", required=True, help="the CSV file to write")
    p.set_defaults(func=_cmd_decompose)

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
    config = config_from_json(args.config)
    series = gather_series(config)
    eligible = {
        s.instrument_id
        for s in filter_eligible(series, config.min_daily, config.min_tick_changes)
    }
    # columns are one space apart, so a value wider than its column stays apart from the next
    print(f"{'instrument':<13} {'kind':<6} {'rows':>8} {'changes':>8}  eligible")
    for s in series:
        changes = count_price_changes(s) if s.kind == "tick" else ""
        flag = "yes" if s.instrument_id in eligible else "no"
        print(f"{s.instrument_id:<13} {s.kind:<6} {len(s):>8} {changes!s:>8}  {flag}")
    print(f"{len(eligible)} of {len(series)} instrument(s) eligible")
    return 0


def _cmd_decompose(args: argparse.Namespace) -> int:
    config = config_from_json(args.config)
    if not config.deltas:
        raise ConfigError([f"{args.config}: no deltas to decompose"])
    events, instruments = export_skeletons(config, args.out)
    print(f"{events} event(s) for {instruments} instrument(s) at {len(config.deltas)} delta(s) -> {args.out}")
    return 0


def _cmd_study(args: argparse.Namespace) -> int:
    config = config_from_json(args.config)
    if args.out is not None:
        config = replace(config, out_dir=args.out)
    result = run_study(config)
    print(f"{len(result.rows)} entropy estimate(s) -> {config.out_dir}")
    if summary := result.tables["summary.csv"][1]:
        print(format_summary_table(summary))
    return 0


def _cmd_synth(args: argparse.Namespace) -> int:
    spec = config_from_json(args.config).synthetic
    if spec is None:
        raise ConfigError([f"{args.config}: no synthetic block to write"])
    daily = spec.frequency == "daily"
    if daily and spec.n > MAX_DAILY_SYNTH_N:
        raise ConfigError([f"{args.config}: a daily synthetic n must be <= {MAX_DAILY_SYNTH_N} to end by 9999-12-31"])
    series = synthetic_series(spec)
    rows = (
        [s.instrument_id, date.fromordinal(int(t)).strftime("%Y%m%d"), *[repr(p)] * 4, 0]
        if daily
        else [s.instrument_id, repr(t), repr(p), 0]
        for s in series
        for t, p in zip(s.times.tolist(), s.prices.tolist())
    )
    write_csv(args.out, DAILY_HEADER if daily else TICK_HEADER, rows)
    print(f"{len(series)} instrument(s), {spec.n} rows each -> {args.out}")
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
