"""Command-line interface: inspect data, decompose, estimate, run studies.

Exit codes: 0 success, 1 invalid configuration, 2 data error,
3 every instrument failed.
"""

from __future__ import annotations

import argparse
import csv
import logging
import sys
from dataclasses import replace
from datetime import date, timedelta
from pathlib import Path

from .ctw import DEFAULT_DEPTH
from .errors import AllInstrumentsFailedError, ConfigError, DataError
from .homogenise import decompose, write_skeleton_csv
from .ingest import (
    GENERATOR_KINDS,
    PriceSeries,
    count_price_changes,
    filter_eligible,
    generate_synthetic_path,
    load_prices,
)
from .pipeline import (
    ENTROPY_CSV_HEADER,
    StudyConfig,
    SyntheticSpec,
    compute_instrument_rows,
    config_from_json,
    domain_path,
    run_study,
    validate_config,
)
from .stats import format_summary_table, parse_delta_variant

logger = logging.getLogger(__name__)

SYNTH_EPOCH = date(2000, 1, 3).toordinal()  # day index 0 of synthetic daily files


def _parse_deltas(text: str) -> list[float]:
    try:
        return [float(part) for part in text.split(",") if part.strip()]
    except ValueError:
        raise argparse.ArgumentTypeError(f"bad delta list {text!r}") from None


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="voho",
        description="Decompose price series into fixed-size moves and estimate entropy rates.",
    )
    parser.add_argument("--log-level", default="info", choices=["debug", "info", "warning", "error"])
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("ingest", help="validate and summarise a price file")
    p.add_argument("--input", required=True)
    p.add_argument("--format", required=True, choices=["daily", "tick"])
    p.add_argument("--min-daily", type=int, default=1000)
    p.add_argument("--min-tick-changes", type=int, default=2500)
    p.set_defaults(func=_cmd_ingest)

    p = sub.add_parser("decompose", help="export the skeleton of every instrument in a file")
    p.add_argument("--input", required=True)
    p.add_argument("--format", required=True, choices=["daily", "tick"])
    p.add_argument("--delta", required=True, type=float)
    p.add_argument("--domain", default="price", choices=["price", "logpath"])
    p.add_argument("--single-crossing", action="store_true")
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_decompose)

    p = sub.add_parser("entropy", help="entropy rates for chosen variants of a price file")
    p.add_argument("--input", required=True)
    p.add_argument("--format", required=True, choices=["daily", "tick"])
    p.add_argument("--variants", default="orig2,orig4",
                   help="comma list of orig2, orig4, delta_<step>")
    p.add_argument("--depth", type=int, default=DEFAULT_DEPTH)
    p.add_argument("--domain", default="price", choices=["price", "logpath"])
    p.add_argument("--single-crossing", action="store_true")
    p.add_argument("--min-skeleton-events", type=int, default=1)
    p.add_argument("--out", help="write CSV here instead of stdout")
    p.set_defaults(func=_cmd_entropy)

    p = sub.add_parser("study", help="run the full comparative study from a JSON config")
    p.add_argument("--config", required=True)
    p.add_argument("--deltas", type=_parse_deltas)
    p.add_argument("--depth", type=int)
    p.add_argument("--out", help="output directory override")
    p.add_argument("--domain", choices=["price", "logpath"])
    p.add_argument("--single-crossing", action="store_true")
    p.add_argument("--min-daily", type=int)
    p.add_argument("--min-tick-changes", type=int)
    p.add_argument("--min-skeleton-events", type=int)
    p.set_defaults(func=_cmd_study)

    p = sub.add_parser("synth", help="emit a synthetic dataset in daily or tick CSV schema")
    p.add_argument("--out", required=True)
    p.add_argument("--format", default="daily", choices=["daily", "tick"])
    p.add_argument("--kind", default="brownian", choices=list(GENERATOR_KINDS))
    p.add_argument("--instruments", type=int, default=10)
    p.add_argument("--n", type=int, default=5000)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--start", type=float, default=1000.0)
    p.add_argument("--sigma", type=float, default=1.0)
    p.add_argument("--delta", type=float, default=0.5)
    p.add_argument("--jump-multiple", type=int, default=5)
    p.add_argument("--jump-prob", type=float, default=1.0)
    p.add_argument("--vol-period", type=float, default=250.0)
    p.add_argument("--vol-swing", type=float, default=0.5)
    p.set_defaults(func=_cmd_synth)
    return parser


def _cmd_ingest(args: argparse.Namespace) -> int:
    series = load_prices(args.input, args.format)
    eligible = {
        s.instrument_id
        for s in filter_eligible(series, args.min_daily, args.min_tick_changes)
    }
    print(f"{'instrument':<14}{'kind':<7}{'rows':>8}{'changes':>9}  eligible")
    for s in series:
        changes = count_price_changes(s) if s.kind == "tick" else ""
        flag = "yes" if s.instrument_id in eligible else "no"
        print(f"{s.instrument_id:<14}{s.kind:<7}{len(s):>8}{changes!s:>9}  {flag}")
    print(f"{len(eligible)} of {len(series)} instrument(s) eligible")
    return 0


def _decompose_series(series: PriceSeries, delta: float, domain: str, crossing: str):
    values, kind = domain_path(series, domain)
    return decompose(
        values, delta, times=series.times, crossing=crossing,
        instrument_id=series.instrument_id, input_kind=kind,
    )


def _cmd_decompose(args: argparse.Namespace) -> int:
    series = load_prices(args.input, args.format)
    if not series:
        raise DataError(f"{args.input}: no instruments")
    crossing = "single" if args.single_crossing else "multi"
    skeletons = [_decompose_series(s, args.delta, args.domain, crossing) for s in series]
    write_skeleton_csv(skeletons, args.out)
    print(f"{sum(len(s) for s in skeletons)} event(s) for {len(series)} instrument(s) -> {args.out}")
    return 0


def _cmd_entropy(args: argparse.Namespace) -> int:
    series = load_prices(args.input, args.format)
    if not series:
        raise DataError(f"{args.input}: no instruments")
    names = [v.strip() for v in args.variants.split(",") if v.strip()]
    originals = [v for v in names if v in ("orig2", "orig4")]
    deltas = sorted(d for d in (parse_delta_variant(v) for v in names) if d is not None)
    bad = [v for v in names if v not in originals and parse_delta_variant(v) is None]
    if bad:
        raise ConfigError([f"unknown variant {v!r}" for v in bad])
    crossing = "single" if args.single_crossing else "multi"
    lines = []
    for s in series:
        rows, _ = compute_instrument_rows(
            s, variants=originals, deltas=deltas, depth=args.depth,
            domain=args.domain, crossing=crossing,
            min_skeleton_events=args.min_skeleton_events,
        )
        for r in rows:
            alphabet = 4 if r.variant == "orig4" else 2
            lines.append([r.instrument, r.variant, r.n, args.depth, alphabet, repr(r.entropy)])
    if args.out:
        with open(args.out, "w", newline="", encoding="utf-8") as fh:
            writer = csv.writer(fh, lineterminator="\n")
            writer.writerow(ENTROPY_CSV_HEADER)
            writer.writerows(lines)
    else:
        print(",".join(ENTROPY_CSV_HEADER))
        for line in lines:
            print(",".join(str(x) for x in line))
    return 0


def _cmd_study(args: argparse.Namespace) -> int:
    config = config_from_json(args.config)
    overrides = {}
    if args.deltas is not None:
        overrides["deltas"] = args.deltas
    if args.depth is not None:
        overrides["depth"] = args.depth
    if args.out is not None:
        overrides["out_dir"] = args.out
    if args.domain is not None:
        overrides["domain"] = args.domain
    if args.single_crossing:
        overrides["crossing"] = "single"
    if args.min_daily is not None:
        overrides["min_daily"] = args.min_daily
    if args.min_tick_changes is not None:
        overrides["min_tick_changes"] = args.min_tick_changes
    if args.min_skeleton_events is not None:
        overrides["min_skeleton_events"] = args.min_skeleton_events
    if overrides:
        config = replace(config, **overrides)
    errors = validate_config(config)
    if errors:
        raise ConfigError(errors)
    result = run_study(config)
    print(f"{len(result.rows)} entropy estimate(s) -> {config.out_dir}")
    if result.summary:
        print(format_summary_table(result.summary))
    return 0


def _cmd_synth(args: argparse.Namespace) -> int:
    spec = SyntheticSpec(
        kind=args.kind, instruments=args.instruments, n=args.n, seed=args.seed,
        frequency=args.format, start=args.start, sigma=args.sigma, delta=args.delta,
        jump_multiple=args.jump_multiple, jump_prob=args.jump_prob,
        vol_period=args.vol_period, vol_swing=args.vol_swing,
    )
    series = [
        generate_synthetic_path(
            spec.kind, spec.n, seed=spec.seed + i, instrument_id=f"SYN{i:03d}",
            frequency=spec.frequency, start=spec.start, sigma=spec.sigma,
            delta=spec.delta, jump_multiple=spec.jump_multiple, jump_prob=spec.jump_prob,
            vol_period=spec.vol_period, vol_swing=spec.vol_swing,
        )
        for i in range(spec.instruments)
    ]
    path = Path(args.out)
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        if args.format == "daily":
            writer.writerow(["instrument", "date", "open", "high", "low", "close", "volume"])
            for s in series:
                for t, p in zip(s.times.tolist(), s.prices.tolist()):
                    day = date.fromordinal(SYNTH_EPOCH + int(t)).strftime("%Y%m%d")
                    price = repr(p)
                    writer.writerow([s.instrument_id, day, price, price, price, price, 0])
        else:
            writer.writerow(["instrument", "timestamp", "price", "volume"])
            for s in series:
                for t, p in zip(s.times.tolist(), s.prices.tolist()):
                    writer.writerow([s.instrument_id, repr(t), repr(p), 0])
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
