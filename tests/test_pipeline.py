"""End-to-end studies on in-config synthetic data and on tick files."""

from __future__ import annotations

import csv
import io
import json
import logging
import sys
import threading
from dataclasses import asdict, replace

import numpy as np
import pytest

from voho import ctw, homogenise, pipeline, stats
from voho.errors import AllInstrumentsFailedError, ConfigError, DataError
from voho.ingest import generate_synthetic_path
from voho.pipeline import (
    InputSpec,
    StudyConfig,
    SyntheticSpec,
    instrument_sequences,
    instrument_skeletons,
    run_study,
    score_sequences,
    validate_config,
)
from voho.stats import ENTROPY_CSV_HEADER, Variant, entropy_by_instrument

from conftest import daily_rows, run, write_daily_csv, write_tick_csv

VARIANTS = ["orig2", "orig4", "delta_0.5", "delta_1"]
INSTRUMENTS = ["SYN000", "SYN001", "SYN002"]

# (n, entropy) per instrument and variant, written by the streaming context
# tree that the batch estimator replaced; estimates agree to 1e-12 relative
PINNED = {
    ("SYN000", "orig2"): (799, 1.007659973493555),
    ("SYN000", "orig4"): (799, 2.0185097291796317),
    ("SYN000", "delta_0.5"): (959, 0.7736039156988347),
    ("SYN000", "delta_1"): (381, 0.9711332451298452),
    ("SYN001", "orig2"): (799, 1.0076401479473776),
    ("SYN001", "orig4"): (799, 2.0185097291861913),
    ("SYN001", "delta_0.5"): (952, 0.7865651391160347),
    ("SYN001", "delta_1"): (374, 0.9139199089376236),
    ("SYN002", "orig2"): (799, 1.0076599384532074),
    ("SYN002", "orig4"): (799, 2.0185097291854586),
    ("SYN002", "delta_0.5"): (949, 0.7590978129901303),
    ("SYN002", "delta_1"): (381, 0.9285431147874372),
}


def study(out_dir, variants=("orig2", "orig4"), **run_args):
    config = StudyConfig(
        synthetic=SyntheticSpec(kind="brownian", instruments=3, n=800, seed=5),
        deltas=[0.5, 1.0],
        variants=list(variants),
        min_daily=100,
        min_skeleton_events=10,
        out_dir=out_dir,
    )
    return run_study(config, **run_args)


def read_csv(path) -> list[list[str]]:
    with open(path, newline="", encoding="utf-8") as fh:
        return list(csv.reader(fh))


@pytest.fixture(scope="module")
def results(tmp_path_factory):
    root = tmp_path_factory.mktemp("study")
    return root, {
        "default": study(root / "default"),
        "reversed": study(root / "reversed", variants=("orig4", "orig2")),
    }


@pytest.fixture(scope="module")
def outputs(results):
    return results[0]


def reference_files(result, depth: int) -> dict[str, bytes]:
    """Every output file of a study as earlier versions wrote it: one
    csv.writer per file, every float written as repr(float(x)), each
    variant's alphabet and the finest delta taken from its name."""

    def csv_bytes(header, rows) -> bytes:
        out = io.StringIO()
        writer = csv.writer(out, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(rows)
        return out.getvalue().encode("utf-8")

    def fmt(x) -> str:
        return repr(float(x))

    files = {
        "entropy.csv": csv_bytes(
            ENTROPY_CSV_HEADER,
            [[r.instrument, r.variant, r.n, depth, 4 if r.variant == "orig4" else 2, fmt(r.entropy)] for r in result.rows],
        ),
        "summary.csv": csv_bytes(["delta", "mean_entropy"], [[fmt(d), fmt(m)] for d, m in result.tables["summary.csv"][1]]),
    }
    corr_header, corr_rows = result.tables["corr.csv"]
    files["corr.csv"] = csv_bytes(corr_header, [[v] + [fmt(x) for x in xs] for v, *xs in corr_rows])
    for name, (grid, density) in result.kde_curves.items():
        files[name] = csv_bytes(["x", "density"], [[fmt(x), fmt(d)] for x, d in zip(grid, density)])
    finest = next(r.variant for r in result.rows if r.variant.startswith("delta_"))
    files[f"scatter_orig4_{finest}.csv"] = csv_bytes(
        ["instrument", "value_orig4", f"value_{finest}"],
        [[i, fmt(values["orig4"]), fmt(values[finest])] for i, values in entropy_by_instrument(result.rows).items()],
    )
    return files


@pytest.mark.parametrize("order", ["default", "reversed"])
def test_every_file_has_the_bytes_of_the_reference_writer(results, order):
    root, by_order = results
    written = {p.name: p.read_bytes() for p in (root / order).iterdir()}
    assert written == reference_files(by_order[order], depth=20)


def test_writes_the_documented_files_with_their_headers(outputs):
    out = outputs / "default"
    headers = {
        "entropy.csv": ENTROPY_CSV_HEADER,
        "corr.csv": ["variant"] + VARIANTS,
        "scatter_orig4_delta_0.5.csv": ["instrument", "value_orig4", "value_delta_0.5"],
        "summary.csv": ["delta", "mean_entropy"],
    }
    headers.update({f"kde_{v}.csv": ["x", "density"] for v in VARIANTS})
    assert sorted(p.name for p in out.iterdir()) == sorted(headers)
    for name, header in headers.items():
        assert read_csv(out / name)[0] == header


def test_rows_follow_input_then_variant_order(outputs):
    out = outputs / "default"
    entropy = read_csv(out / "entropy.csv")[1:]
    assert [(r[0], r[1]) for r in entropy] == [(i, v) for i in INSTRUMENTS for v in VARIANTS]
    assert [r[0] for r in read_csv(out / "corr.csv")[1:]] == VARIANTS
    assert [r[0] for r in read_csv(out / "scatter_orig4_delta_0.5.csv")[1:]] == INSTRUMENTS
    assert [r[0] for r in read_csv(out / "summary.csv")[1:]] == ["0.5", "1.0"]


def test_entropy_matches_pinned_estimates(outputs):
    for instrument, variant, n, depth, alphabet, value in read_csv(outputs / "default" / "entropy.csv")[1:]:
        want_n, want_value = PINNED[(instrument, variant)]
        assert (int(n), int(depth), int(alphabet)) == (want_n, 20, 4 if variant == "orig4" else 2)
        assert float(value) == pytest.approx(want_value, rel=1e-12, abs=0.0)


def test_threads_argument_starts_no_thread_and_writes_the_same_bytes(outputs, tmp_path, monkeypatch):
    def refuse(self):
        raise AssertionError("run_study started a thread")

    monkeypatch.setattr(threading.Thread, "start", refuse)
    study(tmp_path, threads=2)
    names = sorted(p.name for p in (outputs / "default").iterdir())
    assert sorted(p.name for p in tmp_path.iterdir()) == names
    for name in names:
        assert (tmp_path / name).read_bytes() == (outputs / "default" / name).read_bytes(), name


def test_a_rerun_into_the_same_directory_leaves_only_its_own_files(tmp_path, caplog):
    out = tmp_path / "out"
    study(out)
    (out / "notes.txt").write_text("kept\n", encoding="utf-8")
    assert {"kde_orig2.csv", "kde_orig4.csv", "kde_delta_0.5.csv", "corr.csv"} <= {p.name for p in out.iterdir()}
    config = StudyConfig(
        synthetic=SyntheticSpec(kind="brownian", instruments=3, n=800, seed=5),
        deltas=[1.0],
        variants=[],
        min_daily=100,
        min_skeleton_events=10,
        out_dir=out,
    )
    with caplog.at_level(logging.INFO, logger="voho.pipeline"):
        run_study(config)
    run_study(replace(config, out_dir=tmp_path / "fresh"))
    fresh = {p.name: p.read_bytes() for p in (tmp_path / "fresh").iterdir()}
    assert sorted(fresh) == ["entropy.csv", "kde_delta_1.csv", "summary.csv"]
    assert {p.name: p.read_bytes() for p in out.iterdir()} == {**fresh, "notes.txt": b"kept\n"}
    assert [m for m in caplog.messages if m.startswith("removed ")] == [
        f"removed 8 output file(s) of an earlier study from {out}"
    ]


def test_output_order_does_not_follow_the_order_variants_are_listed_in(outputs):
    reversed_order = outputs / "reversed"
    assert [r[1] for r in read_csv(reversed_order / "entropy.csv")[1:4]] == VARIANTS[:3]
    assert read_csv(reversed_order / "corr.csv")[0] == ["variant"] + VARIANTS
    for name in ("entropy.csv", "corr.csv"):
        assert (reversed_order / name).read_bytes() == (outputs / "default" / name).read_bytes(), name


def test_deltas_that_share_a_name_are_refused():
    config = StudyConfig(synthetic=SyntheticSpec(), deltas=[0.5, 1.0000001, 1.0000002, 1.0000003])
    assert validate_config(config) == [
        "delta 1.0000001 and delta 1.0000002 share the variant name 'delta_1'",
        "delta 1.0000001 and delta 1.0000003 share the variant name 'delta_1'",
    ]


def test_an_empty_out_dir_is_refused_not_read_as_the_working_directory():
    assert validate_config(StudyConfig(synthetic=SyntheticSpec(), out_dir="")) == ["out_dir must not be empty"]


def test_synthetic_problems_keep_their_wording_with_a_prefix():
    time_changed = SyntheticSpec(
        kind="time_changed", instruments=0, n=1, frequency="weekly", start=0.0, sigma=0.0, vol_swing=1.0,
        vol_period=0.0,
    )
    assert validate_config(StudyConfig(synthetic=time_changed)) == [
        "synthetic instruments must be >= 1",
        "synthetic n must be >= 2",
        "synthetic frequency must be daily or tick",
        "synthetic start must be positive",
        "synthetic sigma must be positive",
        "synthetic vol_swing must be in [0, 1)",
        "synthetic vol_period must be positive",
    ]
    assert validate_config(StudyConfig(synthetic=SyntheticSpec(sigma=-1.0))) == ["synthetic sigma must be >= 0"]
    assert validate_config(StudyConfig(synthetic=SyntheticSpec(kind="levy", sigma=-1.0))) == [
        "synthetic kind must be one of ('brownian', 'time_changed')"
    ]


@pytest.mark.parametrize("domain", ["price", "logpath"])
def test_instrument_skeletons_decompose_the_domain_path_at_each_delta_in_order(domain):
    series = generate_synthetic_path(SyntheticSpec(n=200))
    path = np.log(series.prices) if domain == "logpath" else series.prices
    got = list(instrument_skeletons(series, [0.0001, 0.01, 0.5], domain, "single"))
    want = [homogenise.decompose(path, d, times=series.times, crossing="single") for d in (0.0001, 0.01, 0.5)]
    assert [(s.delta, s.moved_at.tolist(), s.steps.tolist()) for s in got] == [
        (s.delta, s.moved_at.tolist(), s.steps.tolist()) for s in want
    ]
    assert np.array_equal(got[0].path, path)


def test_instrument_sequences_keep_one_byte_per_symbol():
    series = generate_synthetic_path(SyntheticSpec(n=2000, seed=3))
    variants = [Variant("orig2", 2), Variant("orig4", 4), Variant.skeleton(0.05), Variant.skeleton(0.5)]
    kept, dropped = instrument_sequences(series, variants, "price", "multi", 1)
    assert [v for v, _ in kept] == variants and dropped == []
    for _, symbols in kept:
        assert symbols.dtype == np.uint8 and symbols.nbytes == symbols.size > 0


def walk(instrument: str, seed: int, steps: int = 60):
    """Tick rows of a random walk on a 0.5 grid: every tick changes the price."""
    moves = np.random.default_rng(seed).choice([-0.5, 0.5], size=steps)
    prices = 100.0 + np.concatenate([[0.0], np.cumsum(moves)])
    return [(instrument, float(t), float(p)) for t, p in enumerate(prices)]


def two_changes(instrument: str):
    """Two price changes: eligible at min_tick_changes=2, too few returns for orig4."""
    return [(instrument, float(t), p) for t, p in enumerate([100.0, 100.0, 100.5, 100.5, 100.0])]


def three_changes(instrument: str):
    return [(instrument, float(t), p) for t, p in enumerate([100.0, 100.5, 101.0, 100.5])]


def tick_config(tmp_path, rows) -> StudyConfig:
    data = write_tick_csv(tmp_path / "ticks.csv", rows)
    return StudyConfig(
        inputs=[InputSpec(str(data), "tick")],
        deltas=[0.5, 1.0],
        depth=3,
        min_tick_changes=2,
        min_skeleton_events=1,
        out_dir=str(tmp_path / "out"),
    )


def test_a_failing_instrument_is_logged_and_the_others_are_written(tmp_path, caplog):
    config = tick_config(tmp_path, walk("A", 1) + two_changes("B") + walk("C", 2))
    with caplog.at_level(logging.WARNING, logger="voho.pipeline"):
        run_study(config)
    entropy = read_csv(tmp_path / "out" / "entropy.csv")[1:]
    assert [(r[0], r[1]) for r in entropy] == [(i, v) for i in ("A", "C") for v in VARIANTS]
    assert "instrument B failed: need at least 4 values, got 2" in caplog.messages


@pytest.mark.parametrize("instruments", [["A"], ["A", "B"]], ids=["one-instrument", "equal-estimates"])
def test_aggregates_without_spread_are_skipped_and_logged(tmp_path, caplog, instruments):
    # the same prices under every id give equal estimates for every variant
    config = tick_config(tmp_path, [row for i in instruments for row in walk(i, 1)])
    with caplog.at_level(logging.WARNING):
        run_study(config)
    written = sorted(p.name for p in (tmp_path / "out").iterdir())
    assert written == ["entropy.csv", "scatter_orig4_delta_0.5.csv", "summary.csv"]
    if len(instruments) == 1:
        assert caplog.messages == ["correlation matrix skipped: fewer than 2 instruments have every variant"]
    else:
        kde = caplog.messages[:-1]
        assert [m.split(": ")[0] for m in kde] == [f"kde skipped for {v}" for v in VARIANTS]
        assert all(": degenerate spread" in m for m in kde)
        assert caplog.messages[-1] == "correlation matrix skipped: zero variance"


def test_an_instrument_that_fails_while_scoring_leaves_none_of_its_rows(tmp_path, caplog, monkeypatch):
    # A's 60 steps give 60 symbols for orig2, orig4 and delta_0.5, and 120
    # for delta_0.25: its originals score, then delta_0.25 sorts 120 words
    # of history keys, over the limit; B's 40 steps stay under it
    monkeypatch.setattr(ctw, "MAX_SORT_WORDS", 100)
    scored = []

    def recording_entropy_rate(seq, depth, alphabet_size):
        estimate = ctw.entropy_rate(seq, depth, alphabet_size=alphabet_size)
        scored.append(len(seq))
        return estimate

    monkeypatch.setattr(pipeline, "entropy_rate", recording_entropy_rate)
    config = replace(tick_config(tmp_path, walk("A", 1) + walk("B", 2, steps=40)), deltas=[0.25, 0.5])
    with caplog.at_level(logging.WARNING, logger="voho.pipeline"):
        run_study(config)
    assert scored == [60, 60, 40, 40, 80, 40]  # A's two originals, then all of B
    entropy = read_csv(tmp_path / "out" / "entropy.csv")[1:]
    assert [(r[0], r[1], r[2]) for r in entropy] == [
        ("B", "orig2", "40"), ("B", "orig4", "40"), ("B", "delta_0.25", "80"), ("B", "delta_0.5", "40")
    ]
    assert (
        "instrument A failed: depth 3 over 120 symbols sorts 120 words of history keys, more than the limit of 100"
        in caplog.messages
    )


def test_score_sequences_scores_each_pair_as_entropy_rate_does(rng):
    depth = 5
    orig2, orig4, coarse, fine = Variant("orig2", 2), Variant("orig4", 4), Variant.skeleton(1.0), Variant.skeleton(0.5)
    sequences = [
        (orig2, rng.integers(0, 2, 40)),
        (fine, rng.integers(0, 2, 1)),
        (orig4, rng.integers(0, 4, 40)),
        (coarse, rng.integers(0, 2, depth)),
        (fine, rng.integers(0, 2, 3)),
        (orig4, rng.integers(0, 4, 2)),
        (coarse, rng.integers(0, 2, 200)),
    ]
    want = [ctw.entropy_rate(seq, depth, alphabet_size=variant.alphabet).value for variant, seq in sequences]
    assert score_sequences(sequences, depth) == want
    assert score_sequences([], depth) == []


def test_a_traced_study_calls_each_layer_as_the_benchmark_tracer_reads_it(tmp_path, monkeypatch):
    # bench/child.py times a layer by replacing every voho module attribute
    # that is its function, then reads the symbols or the path from args[0]
    calls = {"entropy_rate": [], "decompose": []}
    for original in (ctw.entropy_rate, homogenise.decompose):
        def recorder(*args, _original=original, **kwargs):
            result = _original(*args, **kwargs)
            calls[_original.__name__].append((args, kwargs, result))
            return result

        for name, module in list(sys.modules.items()):
            if name == "voho" or name.startswith("voho."):
                for attr, value in list(vars(module).items()):
                    if value is original:
                        monkeypatch.setattr(module, attr, recorder)
    spec = SyntheticSpec(instruments=2, n=300)
    config = StudyConfig(synthetic=spec, deltas=[0.5, 1.0], min_daily=100, min_skeleton_events=10, out_dir=tmp_path)
    run_study(config)
    entropy = read_csv(tmp_path / "entropy.csv")[1:]
    assert [r[1] for r in entropy] == VARIANTS * spec.instruments
    assert len(calls["entropy_rate"]) == len(entropy)
    for (args, _, estimate), (_, _, n, depth, alphabet, value) in zip(calls["entropy_rate"], entropy):
        assert (len(args[0]), estimate.depth, estimate.alphabet_size) == (int(n), int(depth), int(alphabet))
        assert repr(estimate.value) == value
    paths = [generate_synthetic_path(spec, i).prices for i in range(spec.instruments)]
    decomposed = [
        (args[0].tolist(), args[1] if len(args) > 1 else kwargs["delta"]) for args, kwargs, _ in calls["decompose"]
    ]
    assert decomposed == [(path.tolist(), delta) for path in paths for delta in config.deltas]


def test_every_instrument_failing_is_an_error_naming_the_first(tmp_path):
    config = tick_config(tmp_path, two_changes("B") + three_changes("D"))
    message = "all 2 eligible instrument(s) failed; first error: instrument 'B': need at least 4 values, got 2"
    with pytest.raises(AllInstrumentsFailedError) as raised:
        run_study(config)
    assert str(raised.value) == message
    assert not (tmp_path / "out").exists()

    path = tmp_path / "config.json"
    path.write_text(json.dumps(asdict(config)), encoding="utf-8")
    code, _, err = run(["study", "--config", str(path)])
    assert code == 3
    assert err.splitlines()[-1] == f"error: {message}"


def test_a_refused_skeleton_names_its_instrument_once(tmp_path, caplog, monkeypatch):
    monkeypatch.setattr(homogenise, "MAX_EVENTS", 50)
    config = StudyConfig(
        synthetic=SyntheticSpec(instruments=2, n=300), deltas=[0.05, 1.0], min_daily=100, out_dir=str(tmp_path)
    )
    refused = "delta=0.05 gives at least {} skeleton events, more than the limit of 50"
    with caplog.at_level(logging.WARNING, logger="voho.pipeline"), pytest.raises(AllInstrumentsFailedError) as raised:
        run_study(config)
    assert caplog.messages == [
        f"instrument SYN000 failed: {refused.format(818)}", f"instrument SYN001 failed: {refused.format(399)}"
    ]
    first = f"instrument 'SYN000': {refused.format(818)}"
    assert str(raised.value) == f"all 2 eligible instrument(s) failed; first error: {first}"


@pytest.mark.parametrize("limit", [500, 501], ids=["over", "at"])
def test_one_instruments_kept_skeletons_are_bounded_together(tmp_path, caplog, monkeypatch, limit):
    # A keeps 400 and 101 events at deltas 0.5 and 1, each under the limit,
    # and drops the 5 at delta 5, which do not count; B keeps 77 in all
    monkeypatch.setattr(homogenise, "MAX_EVENTS", limit)
    config = tick_config(tmp_path, walk("A", 1, 400) + walk("B", 2))
    config = replace(config, deltas=[0.5, 1.0, 5.0], min_skeleton_events=10)
    with caplog.at_level(logging.WARNING, logger="voho.pipeline"):
        run_study(config)
    scored = {row[0] for row in read_csv(tmp_path / "out" / "entropy.csv")[1:]}
    failed = [m for m in caplog.messages if m.startswith("instrument ")]
    if limit == 500:
        message = "501 skeleton events over 2 kept delta(s), more than the limit of 500 for one instrument"
        assert (failed, scored) == ([f"instrument A failed: {message}"], {"B"})
    else:
        assert (failed, scored) == ([], {"A", "B"})


def filled(out):
    """`out` after a study of every output kind, plus a file of the user's."""
    study(out)
    (out / "notes.txt").write_text("kept\n", encoding="utf-8")
    kinds = ["corr.csv", "entropy.csv", "kde_delta_0.5.csv", "scatter_orig4_delta_0.5.csv", "summary.csv"]
    assert set(kinds) <= {p.name for p in out.iterdir()}
    return sorted(p.name for p in out.iterdir())


@pytest.mark.parametrize("failing, code", [("no_eligible", 2), ("every_instrument_fails", 3)])
def test_a_rerun_that_fails_after_validation_leaves_no_earlier_outputs(tmp_path, failing, code):
    out = tmp_path / "out"
    if failing == "no_eligible":
        config = StudyConfig(synthetic=SyntheticSpec(instruments=3, n=800, seed=5), min_daily=801, out_dir=str(out))
        error, message = DataError, "data error: no eligible instruments after length filters"
    else:
        config = replace(tick_config(tmp_path, two_changes("B") + three_changes("D")), out_dir=str(out))
        error, message = AllInstrumentsFailedError, "error: all 2 eligible instrument(s) failed; first error:"
    files = filled(out)
    with pytest.raises(ConfigError):
        run_study(replace(config, depth=-1))
    assert sorted(p.name for p in out.iterdir()) == files
    with pytest.raises(error):
        run_study(config)
    assert [p.name for p in out.iterdir()] == ["notes.txt"]

    filled(out)
    path = tmp_path / "config.json"
    path.write_text(json.dumps(asdict(config)), encoding="utf-8")
    exit_code, _, err = run(["study", "--config", str(path)])
    assert exit_code == code
    assert err.splitlines()[-1].startswith(message)
    assert [p.name for p in out.iterdir()] == ["notes.txt"]
    assert (out / "notes.txt").read_text(encoding="utf-8") == "kept\n"


def test_an_out_dir_under_a_regular_file_is_a_data_error(tmp_path):
    (tmp_path / "file").write_text("", encoding="utf-8")
    out = tmp_path / "file" / "out"
    config = StudyConfig(
        synthetic=SyntheticSpec(instruments=2, n=200),
        deltas=[1.0],
        variants=[],
        min_daily=100,
        min_skeleton_events=1,
        out_dir=str(out),
    )
    message = f"cannot write the outputs to {out}: [Errno 20] Not a directory: '{out}'"
    with pytest.raises(DataError) as raised:
        run_study(config)
    assert str(raised.value) == message

    path = tmp_path / "config.json"
    path.write_text(json.dumps(asdict(config)), encoding="utf-8")
    assert run(["study", "--config", str(path)]) == (2, "", f"data error: {message}\n")
    assert (tmp_path / "file").read_bytes() == b""


def test_an_out_dir_that_refuses_the_first_write_is_a_data_error(tmp_path, monkeypatch):
    # root may write anywhere, so the refusal is made here, not asked of the file system
    def refuse(path, header, rows):
        raise PermissionError(13, "Permission denied", str(path))

    monkeypatch.setattr(pipeline, "write_csv", refuse)
    out = tmp_path / "out"
    config = StudyConfig(
        synthetic=SyntheticSpec(instruments=2, n=200),
        deltas=[1.0],
        variants=[],
        min_daily=100,
        min_skeleton_events=1,
        out_dir=str(out),
    )
    message = f"cannot write the outputs to {out}: [Errno 13] Permission denied: '{out / 'entropy.csv'}'"
    with pytest.raises(DataError) as raised:
        run_study(config)
    assert str(raised.value) == message

    path = tmp_path / "config.json"
    path.write_text(json.dumps(asdict(config)), encoding="utf-8")
    assert run(["study", "--config", str(path)]) == (2, "", f"data error: {message}\n")
    assert not out.exists()  # the writer makes the directory, and it was never called


def full_disk_midway(monkeypatch):
    """csv.writer's device fills after the first file's header and two rows."""
    real_writer = csv.writer

    class FullDisk:
        def __init__(self, fh, **kwargs):
            self.inner, self.rows = real_writer(fh, **kwargs), 0

        def writerow(self, row):
            if self.rows == 3:
                raise OSError(28, "No space left on device")
            self.rows += 1
            self.inner.writerow(row)

        def writerows(self, rows):
            for row in rows:
                self.writerow(row)

    monkeypatch.setattr(pipeline.csv, "writer", FullDisk)


def full_disk_at_the_last_file(monkeypatch):
    """The device fills when summary.csv, written last, is opened."""
    real_write_csv = pipeline.write_csv

    def write_csv(path, header, rows):
        if path.name == "summary.csv":
            raise OSError(28, "No space left on device")
        real_write_csv(path, header, rows)

    monkeypatch.setattr(pipeline, "write_csv", write_csv)


@pytest.mark.parametrize("fill", [full_disk_midway, full_disk_at_the_last_file], ids=["midway", "last-file"])
def test_a_write_that_fails_midway_leaves_no_partial_file(tmp_path, monkeypatch, fill):
    out = tmp_path / "out"
    out.mkdir()
    (out / "notes.txt").write_text("kept\n", encoding="utf-8")
    fill(monkeypatch)
    with pytest.raises(DataError, match=r"^cannot write the outputs to .*: \[Errno 28\] No space left on device$"):
        study(out)
    assert [p.name for p in out.iterdir()] == ["notes.txt"]


def test_an_interrupted_write_leaves_no_outputs_and_propagates(tmp_path, monkeypatch):
    real_write_csv = pipeline.write_csv

    def write_csv(path, header, rows):
        if path.name == "summary.csv":  # written last, after every other output
            raise KeyboardInterrupt
        real_write_csv(path, header, rows)

    monkeypatch.setattr(pipeline, "write_csv", write_csv)
    out = tmp_path / "out"
    out.mkdir()
    (out / "notes.txt").write_text("kept\n", encoding="utf-8")
    with pytest.raises(KeyboardInterrupt):
        study(out)
    assert [p.name for p in out.iterdir()] == ["notes.txt"]


def test_every_file_a_study_writes_has_a_name_the_sweep_and_input_guard_match(results):
    root, by_order = results
    for order, result in by_order.items():
        names = [*result.tables, *result.kde_curves]
        assert names[0] == "entropy.csv"
        assert sorted(names) == sorted(p.name for p in (root / order).iterdir())
        for name in names:
            assert pipeline._is_output_name(name) and pipeline._is_output_name(name + ".part")
    for name in ["notes.csv", "entropy.csv.bak", "kde_orig2.txt", "Summary.csv"]:
        assert not pipeline._is_output_name(name)


def test_the_sweep_removes_the_partial_files_of_a_killed_study(tmp_path):
    out = tmp_path / "out"
    out.mkdir()
    partial = [name.replace("*", "x") + ".part" for name in stats.OUTPUT_FILES]
    kept = ["notes.part", "entropy.csv.bak"]
    for name in partial + kept:
        (out / name).write_text("partial\n", encoding="utf-8")
    study(out)
    names = {p.name for p in out.iterdir()}
    assert names.isdisjoint(partial)
    assert set(kept) <= names


@pytest.mark.parametrize("command", ["study", "ingest", "decompose"])
def test_inputs_over_the_size_bound_together_are_refused_before_any_input_is_read(tmp_path, monkeypatch, command):
    first = write_tick_csv(tmp_path / "first.csv", three_changes("A"))
    second = write_tick_csv(tmp_path / "second.csv", two_changes("B") + three_changes("C"))
    size = first.stat().st_size + second.stat().st_size
    assert max(first.stat().st_size, second.stat().st_size) < size - 1  # each alone is under the bound
    loaded = []
    real_load_prices = pipeline.load_prices

    def load_prices(path, format):
        loaded.append(path)
        return real_load_prices(path, format)

    monkeypatch.setattr(pipeline, "load_prices", load_prices)
    monkeypatch.setattr(pipeline, "MAX_INPUT_BYTES", size - 1)
    config = StudyConfig(
        inputs=[InputSpec(str(first), "tick"), InputSpec(str(second), "tick")],
        deltas=[0.5, 1.0],
        variants=[],
        min_tick_changes=2,
        min_skeleton_events=1,
        out_dir=str(tmp_path / "out"),
    )
    path = tmp_path / "config.json"
    path.write_text(json.dumps(asdict(config)), encoding="utf-8")
    args = [command, "--config", str(path)] + (["--out", str(tmp_path / "skel.csv")] if command == "decompose" else [])
    message = f"2 input file(s) hold {size} bytes, more than the limit of {size - 1} for a study's inputs together"
    assert run(args) == (2, "", f"data error: {message}\n")
    assert loaded == []

    monkeypatch.setattr(pipeline, "MAX_INPUT_BYTES", size)
    assert run(args)[0] == 0
    assert loaded == [str(first), str(second)]


def test_a_study_of_inputs_without_instruments_is_a_data_error_and_writes_nothing(tmp_path):
    daily = write_daily_csv(tmp_path / "daily.csv", [])
    ticks = write_tick_csv(tmp_path / "ticks.csv", [])
    out = tmp_path / "out"
    config = StudyConfig(inputs=[InputSpec(str(daily), "daily"), InputSpec(str(ticks), "tick")], out_dir=str(out))
    with pytest.raises(DataError, match="^no input sources produced any instrument$"):
        run_study(config)
    assert not out.exists()


def test_prices_whose_ratio_overflows_are_scored(tmp_path):
    data = write_daily_csv(tmp_path / "daily.csv", daily_rows("A", [1e-300, 1e300] * 60))
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"inputs": [{"path": str(data), "format": "daily"}], "deltas": [],
                                  "min_daily": 100, "out_dir": str(tmp_path / "out")}), encoding="utf-8")
    assert run(["study", "--config", str(config)]) == (0, f"2 entropy estimate(s) -> {tmp_path / 'out'}\n", "")
    rows = read_csv(tmp_path / "out" / "entropy.csv")
    assert [(r[0], r[1]) for r in rows[1:]] == [("A", "orig2"), ("A", "orig4")]


def test_an_instrument_whose_variants_are_all_dropped_has_not_failed(tmp_path, caplog):
    config = StudyConfig(
        synthetic=SyntheticSpec(instruments=2, n=200),
        deltas=[1.0],
        variants=[],
        min_daily=100,
        min_skeleton_events=10**6,
        out_dir=str(tmp_path),
    )
    with caplog.at_level(logging.INFO, logger="voho.pipeline"):
        assert run_study(config).rows == []
    assert read_csv(tmp_path / "entropy.csv") == [ENTROPY_CSV_HEADER]
    assert [m for m in caplog.messages if " dropped " in m] == [
        "instrument SYN000: variant delta_1 dropped (85 < 1000000 skeleton events)",
        "instrument SYN001: variant delta_1 dropped (109 < 1000000 skeleton events)",
    ]
