"""Tests of the benchmark itself, at toy sizes.

    python3 -m pytest -q bench/check_smoke.py

Every workload runs with --smoke, traced and untraced: every metric that
BENCHMARK.json names must be emitted with its unit, the output check must
pass, and the traced layer spans plus pipeline.self_s must add up to
pipeline.serial_s.  The reference is checked against the exact-rational
CTW oracle in tests/, and the output check must reject changed, missing
and stale files.
"""

from __future__ import annotations

import csv
import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src"), str(ROOT / "tests")]

import reference  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def bench(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, "bench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=170)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_smoke_run_emits_every_metric(workload, trace):
    proc = bench("--workload", workload, "--seed", "7", "--seconds", "1", "--trace", str(trace), "--smoke")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    named = SPEC["per_layer" if trace else "end_to_end"]
    assert {k: v["unit"] for k, v in result["metrics"].items()} == {m["name"]: m["unit"] for m in named}
    values = {k: v["value"] for k, v in result["metrics"].items()}
    assert all(isinstance(v, (int, float)) and math.isfinite(v) for v in values.values())
    if trace:
        spans = sum(values[name] for name in run.SPAN_METRICS)
        assert spans + values["pipeline.self_s"] == pytest.approx(values["pipeline.serial_s"], rel=1e-9)
    else:
        assert all(values[m["name"]] > 0 for m in named)


def test_refuses_a_directory_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = bench("--workload", "daily_study", "--seed", "1", "--seconds", "1", "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


@pytest.mark.parametrize("m", [2, 4])
def test_reference_ctw_matches_the_exact_oracle(m):
    from ctw_oracle import recursive_weighted_probability

    rng = np.random.default_rng(m)
    for n, depth in ((1, 0), (7, 2), (40, 3), (60, 5)):
        seq = rng.integers(0, m, n)
        exact = recursive_weighted_probability(seq.tolist(), depth, m)
        value, nodes = reference.ctw_entropy(seq, m, depth)
        assert value == pytest.approx(-math.log2(exact) / n, rel=1e-12)
        assert nodes == reference.count_contexts(seq, m, depth)


def test_skeleton_moves_follow_the_path():
    prices = np.array([10.0, 10.26, 10.49, 10.0, 9.1, 9.85])
    assert reference.skeleton_moves(prices, 0.25).tolist() == [1, 0, 0, 0, 0, 1, 1]


def _edit(path: Path, row: int, col: int, value: str) -> None:
    with open(path, newline="", encoding="utf-8") as fh:
        rows = list(csv.reader(fh))
    rows[row][col] = value
    with open(path, "w", newline="", encoding="utf-8") as fh:
        csv.writer(fh, lineterminator="\n").writerows(rows)


def test_output_check_rejects_changed_missing_and_stale_files(tmp_path, monkeypatch):
    import voho

    work = tmp_path / "work"
    work.mkdir()
    monkeypatch.chdir(work)
    workload = workloads.make("daily_study", 7, work, smoke=True)
    expected = reference.expected_outputs(workload)
    config = voho.config_from_json(workload.config_path)
    config.out_dir = str(tmp_path / "clean")
    voho.run_study(config, threads=1)
    assert reference.check_outputs(expected, tmp_path / "clean") == (0, [])
    total = len(expected.rows)

    def variant(name, change):
        out = tmp_path / name
        shutil.copytree(tmp_path / "clean", out)
        change(out)
        return reference.check_outputs(expected, out)

    failed, problems = variant("n", lambda out: _edit(out / "entropy.csv", 1, 2, "1"))
    assert failed == 1 and problems
    failed, _ = variant("entropy", lambda out: _edit(out / "entropy.csv", 2, 5, "0.5"))
    assert failed >= 1
    assert variant("summary", lambda out: _edit(out / "summary.csv", 1, 1, "0.5"))[0] == total
    assert variant("missing", lambda out: (out / "summary.csv").unlink())[0] == total
    assert variant("stale", lambda out: (out / "kde_delta_9.csv").write_text("x,density\n"))[0] == total
