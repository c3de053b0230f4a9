"""Benchmark of the voho study pipeline: end-to-end and per-layer metrics.

Run from the root of a checkout:

    python3 bench/run.py --workload daily_study --seed 1 --seconds 30 --trace 0

A run generates the workload's inputs from the seed, computes the expected
outputs with the independent reference in reference.py, and then measures
for --seconds seconds.  Every study runs `voho.run_study` in a fresh
interpreter (child.py) with an empty output directory, and every study's
files are checked against the reference.

--trace 0  several untraced one-worker studies give the end-to-end
           metrics; fresh interpreters that only import voho and load
           the config give setup_s.
--trace 1  traced one-worker studies alternate with untraced studies on
           PARALLEL_WORKERS threads; the traced study with the median
           wall time gives the per-layer metrics, so its spans plus
           pipeline.self_s add up to pipeline.serial_s, and the untraced
           ones give pipeline.speedup.

Metric names and units come from BENCHMARK.json at the checkout root.
The last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics; an attempted estimate is one
instrument x variant row.  The exit code is 1 when an output or work-count
check fails, 2 when the run cannot start.  --smoke runs the same
workloads at toy sizes, for the benchmark's own tests.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import reference
import workloads

STARTED = time.perf_counter()
BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
WORK_DIR = ROOT / ".bench_work"

# End-to-end studies run on one worker.  On a shared 2-vCPU host, two
# threads hand the GIL to each other across vCPUs, and each handoff stalls
# while the other vCPU is descheduled: wall time on two workers spread
# past its bound between runs while CPU time did not.  What a second
# worker gains is measured by pipeline.speedup instead.
WORKERS = 1
PARALLEL_WORKERS = min(2, os.cpu_count() or 1)
MIN_STUDIES = 3  # untraced studies per run, even past --seconds
MIN_TRACED = 2  # traced and untraced pairs per run, even past --seconds
HARD_LIMIT_S = 170.0  # every run ends within 180 s


def _median_rep(traces: list[dict]) -> dict:
    """The traced study whose serial wall time is the (lower) median."""
    ordered = sorted(traces, key=lambda t: t["serial_s"])
    return ordered[(len(ordered) - 1) // 2]


def tail_percentile(values: list[float]) -> tuple[float, float] | None:
    """(percentile, value) of the highest percentile with at least ten
    samples above it, or None with fewer than eleven samples."""
    k = len(values) - 10
    if k < 1:
        return None
    return 100.0 * k / len(values), sorted(values)[k - 1]


class Session:
    """Runs children for one benchmark run and tallies checked estimates."""

    def __init__(self, workload, expected, run_dir: Path):
        self.workload = workload
        self.expected = expected
        self.run_dir = run_dir
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self._studies = 0
        self._env = {k: v for k, v in os.environ.items() if k != "VOHO_THREADS"}
        self._env["PYTHONPATH"] = str(ROOT / "src")

    def child(self, *argv: str) -> dict | None:
        remaining = STARTED + HARD_LIMIT_S - time.perf_counter()
        if remaining < 1.0:
            self.problems.append(f"{argv[0]}: no time left in the run")
            return None
        try:
            proc = subprocess.run(
                [sys.executable, str(BENCH_DIR / "child.py"), *argv],
                env=self._env, cwd=self.run_dir, capture_output=True, text=True, timeout=remaining,
            )
        except subprocess.TimeoutExpired:
            self.problems.append(f"{argv[0]}: did not finish within the run's time limit")
            return None
        if proc.returncode != 0:
            last = (proc.stderr.strip().splitlines() or ["no message"])[-1]
            self.problems.append(f"{argv[0]}: exited {proc.returncode}: {last}")
            return None
        return json.loads(proc.stdout.strip().splitlines()[-1])

    def setup(self) -> dict | None:
        return self.child("setup", str(self.workload.config_path))

    def study(self, mode: str, *extra: str) -> dict | None:
        """One study in a fresh, empty output directory, checked."""
        out = self.run_dir / f"out-{self._studies}"
        self._studies += 1
        result = self.child(mode, str(self.workload.config_path), str(out), *extra)
        estimates = len(self.expected.rows)
        self.attempted += estimates
        if result is None:
            self.failed += estimates
        else:
            failed, problems = reference.check_outputs(self.expected, out)
            if mode == "trace":
                mismatched = count_mismatches(result, self.expected.counts)
                if mismatched:
                    failed = estimates
                    problems += mismatched
            self.failed += failed
            self.problems += problems
            if failed or problems:
                result = None
        shutil.rmtree(out, ignore_errors=True)
        return result


def count_mismatches(trace: dict, counts: dict) -> list[str]:
    """Work counts seen by the traced study that differ from the reference."""
    seen = {
        "ingest.rows": trace["rows"],
        "homogenise.events": trace["events"],
        "ctw.symbols.m2": trace["symbols_m2"],
        "ctw.symbols.m4": trace["symbols_m4"],
        "ctw.contexts": trace["contexts"],
    }
    return [f"{k}: traced study saw {v}, reference {counts[k]}" for k, v in seen.items() if v != counts[k]]


def repeat_problems(name: str, seed: int, smoke: bool, record: dict) -> list[str]:
    """Inputs and work counts must repeat exactly across runs of the same
    workload and seed; the first run in a checkout records them."""
    path = WORK_DIR / "counts" / f"{name}{'-smoke' if smoke else ''}-{seed}.json"
    if path.is_file():
        earlier = json.loads(path.read_text(encoding="utf-8"))
        return [f"{key} differ from an earlier run of seed {seed}: {earlier[key]} != {record[key]}"
                for key in record if earlier.get(key) != record[key]]
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(record, sort_keys=True) + "\n", encoding="utf-8")
    return []


def sha256s(files: list[Path]) -> dict[str, str]:
    return {f.name: hashlib.sha256(f.read_bytes()).hexdigest() for f in files}


def provenance(seed: int, inputs_sha256: dict[str, str]) -> dict:
    commit = "unknown"
    if (ROOT / ".git").exists():
        try:
            out = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                                 capture_output=True, text=True, timeout=30)
            commit = out.stdout.strip() or commit
        except (OSError, subprocess.SubprocessError):
            pass
    return {
        "commit": commit,
        "nproc": os.cpu_count(),
        "workers": WORKERS,
        "parallel_workers": PARALLEL_WORKERS,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "seed": seed,
        "inputs_sha256": inputs_sha256,
    }


def run_untraced(session: Session, seconds: float) -> tuple[dict, dict]:
    """End-to-end metrics and their raw samples."""
    session.setup()  # warm-up: the first import byte-compiles the package
    end = time.perf_counter() + seconds
    setups: list[float] = []
    studies: list[dict] = []
    longest = 0.0
    while len(studies) < MIN_STUDIES or time.perf_counter() + longest < end:
        began = time.perf_counter()
        # one probe before each study, so setup_s samples the same conditions as study_s
        setup = session.setup()
        if setup:
            setups.append(setup["setup_s"])
        result = session.study("study", str(WORKERS))
        longest = max(longest, time.perf_counter() - began)
        if result is None:
            break
        studies.append(result)
    samples = {
        "study_s": [s["study_s"] for s in studies],
        "cpu_s": [s["cpu_s"] for s in studies],
        "peak_rss_mb": [s["peak_rss_mb"] for s in studies],
        "setup_s": setups,
    }
    if not studies or not setups:
        return {}, samples
    symbols = session.expected.counts["ctw.symbols.m2"] + session.expected.counts["ctw.symbols.m4"]
    study_s = statistics.median(samples["study_s"])
    metrics = {
        "study_s": study_s,
        "symbols_per_s": symbols / study_s,
        "cpu_s": statistics.median(samples["cpu_s"]),
        "peak_rss_mb": statistics.median(samples["peak_rss_mb"]),
        "setup_s": statistics.median(setups),
    }
    return metrics, samples


def run_traced(session: Session, seconds: float) -> tuple[dict, dict]:
    """Per-layer metrics from the median traced study, and raw samples."""
    end = time.perf_counter() + seconds
    traces: list[dict] = []
    studies: list[float] = []
    longest = 0.0
    while len(traces) < MIN_TRACED or time.perf_counter() + longest < end:
        began = time.perf_counter()
        trace = session.study("trace")
        study = session.study("study", str(PARALLEL_WORKERS)) if trace else None
        longest = max(longest, time.perf_counter() - began)
        if study is None:
            break
        traces.append(trace)
        studies.append(study["study_s"])
    samples = {"pipeline.serial_s": [t["serial_s"] for t in traces], "study_s": studies}
    if not traces:
        return {}, samples
    return layer_metrics(_median_rep(traces), statistics.median(studies)), samples


# the layers' busy-time metrics; with pipeline.self_s they add up to pipeline.serial_s
SPAN_METRICS = (
    "ingest.load_s", "ingest.synth_s", "ingest.filter_s", "ingest.returns_s", "quantise.bins_s",
    "homogenise.decompose_s", "homogenise.to_symbols_s", "ctw.entropy_s",
    "stats.kde_s", "stats.corr_s", "stats.summary_s",
)


def layer_metrics(t: dict, study_s: float) -> dict:
    busy = t["busy"]

    def span(name: str) -> float:
        return busy.get(name, 0.0)

    def ratio(a: float, b: float, scale: float = 1.0) -> float:
        return a / b * scale if b else 0.0

    serial = t["serial_s"]
    produced_s = span("ingest.load") + span("ingest.synth")
    decomposed = t["calls"].get("homogenise.decompose", 0)
    return {
        "ingest.load_s": span("ingest.load"),
        "ingest.rows": t["rows"],
        "ingest.rows_per_s": ratio(t["rows"], produced_s),
        "ingest.synth_s": span("ingest.synth"),
        "ingest.filter_s": span("ingest.filter"),
        "ingest.returns_s": span("ingest.returns"),
        "quantise.bins_s": span("quantise.bins"),
        "quantise.symbols": t["bin_symbols"],
        "homogenise.decompose_s": span("homogenise.decompose"),
        "homogenise.samples": t["samples"],
        "homogenise.events": sum(t["events"].values()),
        "homogenise.ns_per_sample": ratio(span("homogenise.decompose"), t["samples"], 1e9),
        "homogenise.kept_ratio": ratio(t["skeletons_scored"], decomposed),
        "homogenise.to_symbols_s": span("homogenise.to_symbols"),
        "ctw.entropy_s": span("ctw.entropy"),
        "ctw.calls": t["calls"].get("ctw.entropy", 0),
        "ctw.symbols.m2": t["symbols_m2"],
        "ctw.symbols.m4": t["symbols_m4"],
        "ctw.us_per_symbol.m2": ratio(t["ctw_busy_m2"], t["symbols_m2"], 1e6),
        "ctw.us_per_symbol.m4": ratio(t["ctw_busy_m4"], t["symbols_m4"], 1e6),
        "ctw.contexts": t["contexts"],
        "ctw.share": ratio(span("ctw.entropy"), serial),
        "stats.kde_s": span("stats.kde"),
        "stats.corr_s": span("stats.corr"),
        "stats.summary_s": span("stats.summary"),
        "pipeline.serial_s": serial,
        "pipeline.self_s": serial - sum(busy.values()),
        "pipeline.speedup": ratio(serial, study_s),
        "pipeline.files_written": t["files_written"],
        "pipeline.bytes_written": t["bytes_written"],
    }


def report(spec_metrics: list[dict], metrics: dict, samples: dict) -> dict:
    """Print every metric with its unit; return them in result form."""
    out = {}
    for m in spec_metrics:
        name, unit = m["name"], m["unit"]
        value = metrics.get(name)
        out[name] = {"value": value, "unit": unit}
        shown = "n/a" if value is None else value if isinstance(value, int) else format(value, ".6g")
        line = f"  {name:<26} {shown:>14} {unit}"
        values = samples.get(name)
        if values:
            tail = tail_percentile(values)
            line += f"   median of {len(values)}"
            line += f", p{tail[0]:.0f} {tail[1]:.6g}" if tail else ", no percentile (fewer than 11 samples)"
        print(line)
    return out


def measure(args, spec: dict, run_dir: Path) -> int:
    workload = workloads.make(args.workload, args.seed, run_dir, args.smoke)
    expected = reference.expected_outputs(workload)
    session = Session(workload, expected, run_dir)
    hashes = sha256s(workload.files)
    session.problems += repeat_problems(args.workload, args.seed, args.smoke,
                                        {"inputs_sha256": hashes, "work_counts": expected.counts})
    if args.trace:
        metrics, samples = run_traced(session, args.seconds)
        spec_metrics = spec["per_layer"]
    else:
        metrics, samples = run_untraced(session, args.seconds)
        spec_metrics = spec["end_to_end"]

    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}  workers {WORKERS}"
          f"{'  smoke' if args.smoke else ''}")
    result_metrics = report(spec_metrics, metrics, samples)
    share = session.failed / session.attempted if session.attempted else 1.0
    print(f"  {'failed_share':<26} {share:>14.6g} ratio   {session.failed} of {session.attempted} estimates")
    if args.trace and metrics:
        print(f"  untraced study_s median {statistics.median(samples['study_s']):.6g} s"
              f" on {PARALLEL_WORKERS} workers, {len(samples['study_s'])} samples")
        spans = sum(metrics[name] for name in SPAN_METRICS)
        print(f"  layer spans {spans:.6f} s + pipeline.self_s {metrics['pipeline.self_s']:.6f} s"
              f" = pipeline.serial_s {metrics['pipeline.serial_s']:.6f} s")
    record = {
        "workload": args.workload,
        "trace": args.trace,
        "smoke": args.smoke,
        "provenance": provenance(args.seed, hashes),
        "work_counts": expected.counts,
        "samples": samples,
        "problems": session.problems,
    }
    results = WORK_DIR / "results"
    results.mkdir(parents=True, exist_ok=True)
    suffix = "-smoke" if args.smoke else ""
    (results / f"{args.workload}{suffix}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps({**record, "metrics": result_metrics}, indent=1) + "\n", encoding="utf-8")
    print(json.dumps({k: record[k] for k in ("provenance", "work_counts")}))
    for problem in session.problems:
        print(f"check failed: {problem}", file=sys.stderr)
    correct = bool(metrics) and not session.problems and session.failed == 0
    print(json.dumps({"correct": correct, "attempted": session.attempted,
                      "failed": session.failed, "metrics": result_metrics}))
    return 0 if correct else 1


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="toy sizes, for the benchmark's own tests")
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    if not (ROOT / "src" / "voho" / "__init__.py").is_file():
        print(f"bench: no voho package under {ROOT / 'src'}; run from a full checkout", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    if args.workload not in {w["name"] for w in spec["workloads"]}:
        print(f"bench: unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    # on SIGTERM, unwind: subprocess.run kills and reaps the running child
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    run_dir = WORK_DIR / f"run-{os.getpid()}"
    shutil.rmtree(run_dir, ignore_errors=True)
    run_dir.mkdir(parents=True)
    try:
        return measure(args, spec, run_dir)
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
