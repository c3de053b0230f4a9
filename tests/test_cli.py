"""Command-line exit codes and messages for malformed configs and variants."""

from __future__ import annotations

import json
import re

import numpy as np
import pytest

from voho import homogenise
from voho.cli import main
from voho.homogenise import decompose

from conftest import daily_rows, write_daily_csv, write_tick_csv


@pytest.mark.parametrize(
    "text, messages",
    [
        (
            '{"inputs": [{"extra": 1}]}',
            ["inputs[0]: unknown config key 'extra'", "inputs[0]: missing config key 'path'"],
        ),
        ('{"synthetic": {"instruments": "3"}}', ["synthetic.instruments must be of type int, got '3'"]),
        ('{"depth": 20, "deltas": [0.1', ["not valid JSON"]),
        ('[1, 2]', ["must be a JSON object"]),
        ('{"synthetic": 3}', ["synthetic: must be a JSON object"]),
        ('{"depth": "20", "deltas": [0.1, "x"]}', ["depth must be of type int", "deltas must be of type list[float]"]),
        ('{"inputs": [{"path": 1, "format": "daily"}]}', ["inputs[0].path must be of type str"]),
        (
            '{"synthetic": {"n": 100}, "deltas": [0.5, 1.0000001, 1.0000002]}',
            ["delta 1.0000001 and delta 1.0000002 share the variant name 'delta_1'"],
        ),
    ],
    ids=[
        "field-name", "field-type", "truncated", "not-object", "nested-not-object", "top-level-types",
        "input-type", "deltas-sharing-a-name",
    ],
)
def test_malformed_config_is_a_config_error(tmp_path, capsys, text, messages):
    config = tmp_path / "config.json"
    config.write_text(text, encoding="utf-8")
    code = main(["study", "--config", str(config), "--out", str(tmp_path / "out")])
    err = capsys.readouterr().err
    assert code == 1
    assert err.startswith("config error: ")
    for message in messages:
        assert message in err
    assert "Traceback" not in err
    assert not (tmp_path / "out").exists()


def test_undecodable_config_is_a_config_error(tmp_path, capsys):
    config = tmp_path / "config.json"
    config.write_bytes(b"\xff\xfe{}")
    assert main(["study", "--config", str(config)]) == 1
    assert "not valid JSON" in capsys.readouterr().err


def test_missing_config_file_stays_a_data_error(tmp_path, capsys):
    assert main(["study", "--config", str(tmp_path / "absent.json")]) == 2
    assert capsys.readouterr().err.startswith("data error: ")


@pytest.mark.parametrize(
    "flag",
    [
        ["--deltas", "0.5,1"], ["--depth", "3"], ["--domain", "logpath"], ["--single-crossing"],
        ["--min-daily", "100"], ["--min-tick-changes", "2"], ["--min-skeleton-events", "1"],
    ],
    ids=lambda flag: flag[0],
)
def test_a_study_setting_given_as_a_flag_is_a_usage_error_before_the_config_is_read(tmp_path, capsys, flag):
    # the config does not exist: reading it first would end in a data error
    with pytest.raises(SystemExit) as exited:
        main(["study", "--config", str(tmp_path / "absent.json"), "--out", str(tmp_path / "out"), *flag])
    assert exited.value.code == 2
    err = capsys.readouterr().err
    assert err.startswith("usage: ")
    assert f"error: unrecognized arguments: {' '.join(flag)}" in err
    assert list(tmp_path.iterdir()) == []


def test_study_out_writes_the_files_of_the_config_with_that_out_dir(tmp_path, capsys):
    config = {
        "synthetic": {"instruments": 3, "n": 300, "seed": 4},
        "deltas": [0.5, 1.0],
        "depth": 6,
        "min_daily": 100,
        "min_skeleton_events": 10,
    }
    as_flag, in_config = tmp_path / "as_flag.json", tmp_path / "in_config.json"
    as_flag.write_text(json.dumps({**config, "out_dir": str(tmp_path / "unused")}), encoding="utf-8")
    in_config.write_text(json.dumps({**config, "out_dir": str(tmp_path / "b")}), encoding="utf-8")
    assert main(["study", "--config", str(as_flag), "--out", str(tmp_path / "a")]) == 0
    assert capsys.readouterr().out.startswith(f"12 entropy estimate(s) -> {tmp_path / 'a'}\n")
    assert main(["study", "--config", str(in_config)]) == 0
    assert not (tmp_path / "unused").exists()
    written = {p.name: p.read_bytes() for p in (tmp_path / "a").iterdir()}
    assert sorted(written) == sorted(p.name for p in (tmp_path / "b").iterdir())
    assert "scatter_orig4_delta_0.5.csv" in written
    for name, data in written.items():
        assert data == (tmp_path / "b" / name).read_bytes(), name


@pytest.mark.parametrize(
    "variants, message",
    [
        ("delta_-1", "variant 'delta_-1': delta must be a positive finite number"),
        ("orig2,delta_0", "variant 'delta_0': delta must be a positive finite number"),
        ("delta_nan", "variant 'delta_nan': delta must be a positive finite number"),
        ("delta_inf", "variant 'delta_inf': delta must be a positive finite number"),
        ("delta_0.5,delta_0.5", "'delta_0.5' and 'delta_0.5' share the variant name 'delta_0.5'"),
        ("delta_0.50,orig4,delta_0.5", "'delta_0.50' and 'delta_0.5' share the variant name 'delta_0.5'"),
        ("orig2,orig2", "'orig2' and 'orig2' share the variant name 'orig2'"),
        ("orig3", "unknown variant 'orig3'"),
        ("delta_x", "unknown variant 'delta_x'"),
    ],
    ids=["negative", "zero", "nan", "inf", "repeated", "same-name", "repeated-original", "unknown", "no-number"],
)
def test_bad_entropy_variant_is_a_config_error(tmp_path, capsys, variants, message):
    data = write_tick_csv(tmp_path / "ticks.csv", [("A", float(i), 100.0 + i % 3) for i in range(20)])
    out = tmp_path / "entropy.csv"
    code = main(["entropy", "--input", str(data), "--format", "tick", "--variants", variants, "--out", str(out)])
    assert code == 1
    assert capsys.readouterr().err == f"config error: {message}\n"
    assert not out.exists()


@pytest.mark.parametrize(
    "args, message",
    [
        (
            ["decompose", "--input", "{tmp}/absent.csv", "--format", "tick", "--delta", "-1", "--out", "{tmp}/skel.csv"],
            "every delta must be a positive finite number",
        ),
        (
            ["entropy", "--input", "{tmp}/absent.csv", "--format", "tick", "--depth", "-1", "--out", "{tmp}/h.csv"],
            "depth must be a non-negative integer",
        ),
    ],
    ids=["decompose-delta", "entropy-depth"],
)
def test_bad_numeric_argument_is_a_config_error_before_any_input_is_read(tmp_path, capsys, args, message):
    # the input does not exist: reading it first would end in a data error
    assert main([arg.format(tmp=tmp_path) for arg in args]) == 1
    assert capsys.readouterr().err == f"config error: {message}\n"
    assert list(tmp_path.iterdir()) == []


def write_config(path, config: dict):
    path.write_text(json.dumps(config), encoding="utf-8")
    return path


@pytest.mark.parametrize(
    "command, config, message",
    [
        ("synth", {"synthetic": {"n": 1}}, "synthetic n must be >= 2"),
        ("ingest", {"inputs": [{"path": "{tmp}/absent.csv", "format": "tick"}], "min_tick_changes": 1},
         "min_tick_changes must be >= 2"),
        ("synth", {"synthetic": {"seed": -1}}, "synthetic seed must be >= 0"),
        ("synth", {"synthetic": {"seed": 2**128 - 1, "instruments": 2}}, "synthetic seed + instruments must be <= 2**128"),
        ("synth", {"synthetic": {"sigma": float("nan")}}, "synthetic sigma must be finite"),
        ("synth", {"synthetic": {"start": float("nan")}}, "synthetic start must be finite"),
        ("synth", {"synthetic": {"start": float("inf")}}, "synthetic start must be finite"),
        ("synth", {"synthetic": {"kind": "jump", "delta": float("nan")}}, "synthetic delta must be finite"),
        ("synth", {"synthetic": {"kind": "time_changed", "vol_period": float("nan")}},
         "synthetic vol_period must be finite"),
        ("synth", {}, "{tmp}/config.json: no synthetic block to write"),
    ],
    ids=[
        "synth-n", "ingest-min-tick-changes", "synth-seed", "synth-seed-key", "synth-sigma-nan", "synth-start-nan",
        "synth-start-inf", "synth-delta-nan", "synth-vol-period-nan", "synth-no-synthetic-block",
    ],
)
def test_bad_config_of_synth_and_ingest_is_a_config_error_before_any_input_is_read(
    tmp_path, capsys, command, config, message
):
    # the input does not exist: reading it first would end in a data error
    text = json.dumps(config).replace("{tmp}", str(tmp_path))
    path = tmp_path / "config.json"
    path.write_text(text, encoding="utf-8")
    args = [command, "--config", str(path)] + (["--out", str(tmp_path / "synth.csv")] if command == "synth" else [])
    assert main(args) == 1
    assert capsys.readouterr().err == f"config error: {message.format(tmp=tmp_path)}\n"
    assert list(tmp_path.iterdir()) == [path]


@pytest.mark.parametrize(
    "command, flag",
    [
        ("synth", flag) for flag in (
            ["--format", "tick"], ["--kind", "jump"], ["--instruments", "2"], ["--n", "10"], ["--seed", "1"],
            ["--start", "10"], ["--sigma", "2"], ["--delta", "0.5"], ["--jump-multiple", "3"],
            ["--jump-prob", "0.5"], ["--vol-period", "20"], ["--vol-swing", "0.1"],
        )
    ] + [
        ("ingest", flag) for flag in (
            ["--input", "prices.csv"], ["--format", "tick"], ["--min-daily", "100"], ["--min-tick-changes", "2"],
        )
    ],
    ids=lambda value: value if isinstance(value, str) else value[0],
)
def test_a_data_setting_of_synth_or_ingest_given_as_a_flag_is_a_usage_error(tmp_path, capsys, command, flag):
    # the config does not exist: reading it first would end in a data error
    out = ["--out", str(tmp_path / "synth.csv")] if command == "synth" else []
    with pytest.raises(SystemExit) as exited:
        main([command, "--config", str(tmp_path / "absent.json"), *out, *flag])
    assert exited.value.code == 2
    err = capsys.readouterr().err
    assert err.startswith("usage: ")
    assert f"error: unrecognized arguments: {' '.join(flag)}" in err
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("command, options", [("synth", {"--config", "--out"}), ("ingest", {"--config"})])
def test_synth_and_ingest_take_only_the_config(capsys, command, options):
    with pytest.raises(SystemExit) as exited:
        main([command, "--help"])
    assert exited.value.code == 0
    assert set(re.findall(r"--[a-z-]+", capsys.readouterr().out)) == options | {"--help"}


def test_entropy_lists_originals_as_given_then_deltas_in_order(tmp_path, capsys):
    data = write_tick_csv(tmp_path / "ticks.csv", [("A", float(i), 100.0 + i % 3) for i in range(20)])
    args = ["entropy", "--input", str(data), "--format", "tick", "--depth", "2"]
    assert main(args + ["--variants", "delta_1,orig4,delta_0.5,orig2"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "instrument,variant,n,depth,alphabet,entropy_bits_per_symbol"
    assert [line.split(",")[1:5] for line in lines[1:]] == [
        ["orig4", "19", "2", "4"],
        ["orig2", "19", "2", "2"],
        ["delta_0.5", "50", "2", "2"],
        ["delta_1", "25", "2", "2"],
    ]


def ingest_tick_file(tmp_path, data) -> list[str]:
    return ["ingest", "--config", str(write_config(
        tmp_path / "config.json", {"inputs": [{"path": str(data), "format": "tick"}]}
    ))]


def test_ingest_of_a_malformed_tick_file_is_a_data_error_naming_its_line(tmp_path, capsys):
    data = tmp_path / "ticks.csv"
    data.write_text("instrument,timestamp,price,volume\nA,1,10,1\n\nA,2,-3,1\n", encoding="utf-8")
    assert main(ingest_tick_file(tmp_path, data)) == 2
    assert capsys.readouterr().err == f"data error: {data}:4: non-positive price -3.0\n"


def test_ingest_of_a_file_that_is_not_utf8_is_a_data_error_naming_its_line(tmp_path, capsys):
    data = tmp_path / "ticks.csv"
    data.write_bytes(b"instrument,timestamp,price,volume\nA,1,10,1\nA,2,\xff11,1\n")
    assert main(ingest_tick_file(tmp_path, data)) == 2
    assert capsys.readouterr().err == f"data error: {data}:3: not UTF-8 text\n"


def test_decompose_on_a_decimal_tick_grid(tmp_path, capsys):
    prices = [100.006, 100.007, 100.008, 100.011, 100.012]
    data = write_tick_csv(tmp_path / "ticks.csv", [("A", float(i), p) for i, p in enumerate(prices)])
    out = tmp_path / "skel.csv"
    code = main(["decompose", "--input", str(data), "--format", "tick", "--delta", "0.001", "--out", str(out)])
    assert code == 0
    assert capsys.readouterr().out.startswith("6 event(s) for 1 instrument(s)")
    rows = out.read_text(encoding="utf-8").splitlines()[1:]
    assert [r.split(",")[2] for r in rows] == ["1", "2", "3", "4", "5", "6"]
    assert [r.split(",")[5] for r in rows] == ["1"] * 6


def test_decompose_over_the_event_bound_is_a_data_error(tmp_path, capsys):
    data = write_tick_csv(tmp_path / "ticks.csv", [("A", 0.0, 1.0), ("A", 1.0, 2001.0)])
    out = tmp_path / "skel.csv"
    code = main(["decompose", "--input", str(data), "--format", "tick", "--delta", "0.0001", "--out", str(out)])
    err = capsys.readouterr().err
    assert code == 2
    assert err.startswith("data error: instrument 'A': delta=0.0001 gives at least 20000000 skeleton events")
    assert not out.exists()


def test_decompose_bounds_the_events_of_all_instruments_together(tmp_path, capsys, monkeypatch):
    monkeypatch.setattr(homogenise, "MAX_EVENTS", 6)
    rows = [(name, t, p) for name in ("A", "B") for t, p in ((0.0, 1.0), (1.0, 2.0))]  # 4 events each
    args = ["decompose", "--format", "tick", "--delta", "0.25"]
    for name in ("A", "B"):
        alone = write_tick_csv(tmp_path / f"{name}.csv", [r for r in rows if r[0] == name])
        assert main(args + ["--input", str(alone), "--out", str(tmp_path / f"{name}.skel.csv")]) == 0
    capsys.readouterr()
    out = tmp_path / "both.skel.csv"
    both = write_tick_csv(tmp_path / "both.csv", rows)
    assert main(args + ["--input", str(both), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"data error: {both}: delta=0.25 gives 8 skeleton events over 2 instrument(s)")
    assert "more than the limit of 6" in err
    assert not out.exists()
    assert not list(tmp_path.glob("*.part"))


def test_decompose_logpath_is_the_skeleton_of_log_prices(tmp_path):
    prices = [100.0, 103.0, 98.0, 110.0]
    data = write_tick_csv(tmp_path / "ticks.csv", [("A", float(i), p) for i, p in enumerate(prices)])
    out = tmp_path / "skel.csv"
    args = ["decompose", "--input", str(data), "--format", "tick", "--delta", "0.01", "--out", str(out)]
    assert main(args + ["--domain", "logpath"]) == 0
    want = decompose(np.log(prices), 0.01, times=np.arange(4.0))
    rows = [r.split(",") for r in out.read_text(encoding="utf-8").splitlines()[1:]]
    assert [float(r[4]) for r in rows] == want.levels().tolist()
    assert [float(r[3]) for r in rows] == want.times.tolist()


@pytest.mark.parametrize(
    "synthetic, filters",
    [
        ({"instruments": 3, "n": 300, "seed": 5}, {"min_daily": 100}),
        ({"kind": "time_changed", "instruments": 2, "n": 400, "seed": 9, "frequency": "tick", "vol_period": 50.0},
         {"min_tick_changes": 100}),
    ],
    ids=["daily", "tick"],
)
def test_a_study_of_the_synth_file_writes_the_bytes_of_the_synthetic_study(tmp_path, capsys, synthetic, filters):
    study = {"deltas": [0.5, 1.0], "depth": 6, "min_skeleton_events": 10, **filters}
    in_config = write_config(tmp_path / "synthetic.json", {**study, "synthetic": synthetic})
    data = tmp_path / "synth.csv"
    assert main(["synth", "--config", str(in_config), "--out", str(data)]) == 0
    frequency = synthetic.get("frequency", "daily")
    from_file = write_config(tmp_path / "file.json", {**study, "inputs": [{"path": str(data), "format": frequency}]})
    assert main(["study", "--config", str(in_config), "--out", str(tmp_path / "a")]) == 0
    assert main(["study", "--config", str(from_file), "--out", str(tmp_path / "b")]) == 0
    capsys.readouterr()
    written = {p.name: p.read_bytes() for p in (tmp_path / "a").iterdir()}
    assert sorted(written) == sorted(p.name for p in (tmp_path / "b").iterdir())
    assert "entropy.csv" in written and "summary.csv" in written
    for name, content in written.items():
        assert content == (tmp_path / "b" / name).read_bytes(), name


def eligibility_inputs(tmp_path) -> list[dict]:
    """A daily file with one short instrument and a tick file with one that
    barely moves, each beside one that passes the filters below."""
    walk = np.random.default_rng(11).normal(0.0, 1.0, size=(2, 400)).cumsum(axis=1) + 100.0
    daily = write_daily_csv(
        tmp_path / "daily.csv", daily_rows("LONG", walk[0, :300].tolist()) + daily_rows("SHORT", walk[0, :50].tolist())
    )
    ticks = write_tick_csv(
        tmp_path / "ticks.csv",
        [("MOVING", float(t), p) for t, p in enumerate(walk[1].tolist())]
        + [("FLAT", float(t), 100.0 + (t // 10) % 2) for t in range(400)],  # 39 changes
    )
    return [{"path": str(daily), "format": "daily"}, {"path": str(ticks), "format": "tick"}]


def test_ingest_marks_eligible_exactly_the_instruments_the_study_scores(tmp_path, capsys):
    config = write_config(tmp_path / "config.json", {
        "inputs": eligibility_inputs(tmp_path),
        "synthetic": {"instruments": 2, "n": 120, "seed": 3},
        "deltas": [0.5, 1.0], "depth": 4, "min_daily": 100, "min_tick_changes": 100, "min_skeleton_events": 1,
        "out_dir": str(tmp_path / "out"),
    })
    assert main(["ingest", "--config", str(config)]) == 0
    lines = capsys.readouterr().out.splitlines()
    listed = [line.split() for line in lines[1:-1]]
    assert [row[0] for row in listed] == ["LONG", "SHORT", "MOVING", "FLAT", "SYN000", "SYN001"]
    assert lines[-1] == "4 of 6 instrument(s) eligible"
    eligible = {row[0] for row in listed if row[-1] == "yes"}
    assert eligible == {"LONG", "MOVING", "SYN000", "SYN001"}
    assert not (tmp_path / "out").exists()
    assert main(["study", "--config", str(config)]) == 0
    scored = (tmp_path / "out" / "entropy.csv").read_text(encoding="utf-8").splitlines()[1:]
    assert {line.split(",")[0] for line in scored} == eligible


def test_ingest_and_study_refuse_an_id_in_two_inputs_alike(tmp_path, capsys):
    inputs = eligibility_inputs(tmp_path)
    config = write_config(tmp_path / "config.json", {"inputs": inputs + inputs[:1], "min_daily": 100})
    assert main(["ingest", "--config", str(config)]) == 2
    assert capsys.readouterr().err == "data error: duplicate instrument id 'LONG' across inputs\n"
    assert main(["study", "--config", str(config), "--out", str(tmp_path / "out")]) == 2
    assert capsys.readouterr().err == "data error: duplicate instrument id 'LONG' across inputs\n"
    assert not (tmp_path / "out").exists()


def test_a_synthetic_path_that_overflows_is_a_named_data_error(tmp_path, capsys):
    config = write_config(tmp_path / "config.json", {
        "synthetic": {"instruments": 2, "n": 300, "start": 1e308, "sigma": 1e307},
        "deltas": [1e-300], "min_daily": 2,
    })
    out = tmp_path / "synth.csv"
    assert main(["synth", "--config", str(config), "--out", str(out)]) == 2
    message = "data error: synthetic path overflowed the float range; lower `start` or the volatility\n"
    assert capsys.readouterr().err == message
    assert not out.exists()
    assert main(["study", "--config", str(config), "--out", str(tmp_path / "out")]) == 2
    assert capsys.readouterr().err == message
