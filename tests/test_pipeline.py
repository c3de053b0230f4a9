"""End-to-end studies on in-config synthetic data and on tick files."""

from __future__ import annotations

import csv
import io
import json
import logging
import threading
from dataclasses import asdict, replace

import numpy as np
import pytest

from voho import ctw, pipeline
from voho.cli import main
from voho.errors import AllInstrumentsFailedError, ConfigError, DataError
from voho.ingest import generate_synthetic_path
from voho.pipeline import (
    ENTROPY_CSV_HEADER,
    InputSpec,
    StudyConfig,
    SyntheticSpec,
    instrument_sequences,
    run_study,
    validate_config,
)
from voho.stats import entropy_by_instrument
from voho.variants import Variant

from conftest import write_tick_csv

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
    csv.writer per file, every float written as repr(float(x))."""

    def csv_bytes(header, rows) -> bytes:
        out = io.StringIO()
        writer = csv.writer(out, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(rows)
        return out.getvalue().encode("utf-8")

    def fmt(x) -> str:
        return repr(float(x))

    alphabet = {v.name: v.alphabet for v in result.variants}
    files = {
        "entropy.csv": csv_bytes(
            ENTROPY_CSV_HEADER,
            [[r.instrument, r.variant, r.n, depth, alphabet[r.variant], fmt(r.entropy)] for r in result.rows],
        ),
        "corr.csv": csv_bytes(
            ["variant"] + result.corr_variants,
            [[v] + [fmt(x) for x in result.corr_matrix[i]] for i, v in enumerate(result.corr_variants)],
        ),
        "summary.csv": csv_bytes(["delta", "mean_entropy"], [[fmt(d), fmt(m)] for d, m in result.summary]),
    }
    for variant, (grid, density) in result.kde_curves.items():
        files[f"kde_{variant}.csv"] = csv_bytes(["x", "density"], [[fmt(x), fmt(d)] for x, d in zip(grid, density)])
    finest = next(v.name for v in result.variants if v.delta is not None)
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
    assert validate_config(StudyConfig(out_dir="")) == ["out_dir must not be empty"]


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


def test_an_unknown_domain_is_refused_not_read_as_prices():
    series = generate_synthetic_path(SyntheticSpec(n=200))
    with pytest.raises(ValueError, match=r"unknown domain 'Logpath'; expected one of \('price', 'logpath'\)"):
        instrument_sequences(series, [Variant.skeleton(0.5)], "Logpath", "multi", 1)


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


def test_every_instrument_failing_is_an_error_naming_the_first(tmp_path, capsys):
    config = tick_config(tmp_path, two_changes("B") + three_changes("D"))
    message = "all 2 eligible instrument(s) failed; first error: need at least 4 values, got 2"
    with pytest.raises(AllInstrumentsFailedError) as raised:
        run_study(config)
    assert str(raised.value) == message
    assert not (tmp_path / "out").exists()

    path = tmp_path / "config.json"
    path.write_text(json.dumps(asdict(config)), encoding="utf-8")
    assert main(["study", "--config", str(path)]) == 3
    assert capsys.readouterr().err.splitlines()[-1] == f"error: {message}"


def filled(out):
    """`out` after a study of every output kind, plus a file of the user's."""
    study(out)
    (out / "notes.txt").write_text("kept\n", encoding="utf-8")
    kinds = ["corr.csv", "entropy.csv", "kde_delta_0.5.csv", "scatter_orig4_delta_0.5.csv", "summary.csv"]
    assert set(kinds) <= {p.name for p in out.iterdir()}
    return sorted(p.name for p in out.iterdir())


@pytest.mark.parametrize("failing, code", [("no_eligible", 2), ("every_instrument_fails", 3)])
def test_a_rerun_that_fails_after_validation_leaves_no_earlier_outputs(tmp_path, capsys, failing, code):
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
    assert main(["study", "--config", str(path)]) == code
    assert capsys.readouterr().err.splitlines()[-1].startswith(message)
    assert [p.name for p in out.iterdir()] == ["notes.txt"]
    assert (out / "notes.txt").read_text(encoding="utf-8") == "kept\n"


def test_an_out_dir_under_a_regular_file_is_a_data_error(tmp_path, capsys):
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
    message = f"output directory {out} is not writable: [Errno 20] Not a directory: '{out}'"
    with pytest.raises(DataError) as raised:
        run_study(config)
    assert str(raised.value) == message

    path = tmp_path / "config.json"
    path.write_text(json.dumps(asdict(config)), encoding="utf-8")
    assert main(["study", "--config", str(path)]) == 2
    assert capsys.readouterr().err == f"data error: {message}\n"
    assert (tmp_path / "file").read_bytes() == b""


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
