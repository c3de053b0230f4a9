"""Command-line exit codes and messages for malformed configs, and what each command writes."""

from __future__ import annotations

import csv
import json
import os
import re
import stat
from collections import Counter
from datetime import date

import numpy as np
import pytest

from voho import cli, homogenise, pipeline
from voho.ctw import entropy_rate
from voho.homogenise import decompose, skeleton_to_symbols
from voho.ingest import SyntheticSpec, load_prices, log_returns
from voho.pipeline import synthetic_series
from voho.quantise import quantile_bins
from voho.stats import format_summary_table

from conftest import daily_rows, make_series, run, run_python, write_daily_csv, write_tick_csv


def write_config(path, config: dict):
    path.write_text(json.dumps(config), encoding="utf-8")
    return path


@pytest.mark.parametrize(
    "text, messages",
    [
        (
            '{"inputs": [{"extra": 1}]}',
            ["inputs[0]: unknown config key 'extra'", "inputs[0]: missing config key 'path'"],
        ),
        ('{"synthetic": {"instruments": "3"}}', ["synthetic.instruments must be of type int, got '3'"]),
        ('{"depth": 20, "deltas": [0.1', ["not valid JSON"]),
        (b"\xff\xfe{}", ["not valid JSON"]),
        ('[1, 2]', ["must be a JSON object"]),
        ('{"synthetic": 3}', ["synthetic: must be a JSON object"]),
        ('{"depth": "20", "deltas": [0.1, "x"]}', ["depth must be of type int", "deltas must be of type list[float]"]),
        ('{"inputs": [{"path": 1, "format": "daily"}]}', ["inputs[0].path must be of type str"]),
        (
            '{"synthetic": {"n": 100}, "deltas": [0.5, 1.0000001, 1.0000002]}',
            ["delta 1.0000001 and delta 1.0000002 share the variant name 'delta_1'"],
        ),
        (json.dumps({"deltas": [10**400]}), [f"deltas must be of type list[float], got [{10**400}]"]),
        ('{"depth": -1}', ["depth must be a non-negative integer"]),
        ('{"variants": ["orig3"]}', ["unknown variant 'orig3' (skeleton variants come from deltas)"]),
        ('{"deltas": [0.0, 1.0]}', ["every delta must be a positive finite number"]),
        ('{"deltas": [0.5, NaN, Infinity]}', ["every delta must be a positive finite number"]),
        ('{"deltas": [0.5, 0.5]}', ["deltas must be strictly increasing"]),
        ('{"deltas": [], "variants": []}', ["variants and deltas must not both be empty"]),
        ('{"variants": ["orig2", "orig2"]}', ["variants[0] and variants[1] share the variant name 'orig2'"]),
        ('{"depth": 5, "deltas": [0.5], "depth": 20}', ["config.json: repeated config key 'depth'"]),
        ('{"synthetic": {"instruments": 2, "n": 300, "n": 400}}', ["config.json: repeated config key 'n'"]),
        ("{}", ["inputs and synthetic must not both be empty"]),
        ('{"min_daily": 1}', ["min_daily must be >= 2"]),
        ('{"min_skeleton_events": 0}', ["min_skeleton_events must be >= 1"]),
        ('{"domain": "Logpath"}', ["domain must be one of ('price', 'logpath')"]),
        ('{"crossing": "both"}', ["crossing must be one of ('multi', 'single')"]),
        ('{"inputs": [{"path": "p.csv", "format": "hourly"}]}', ["input 'p.csv': format must be daily or tick"]),
        (json.dumps({"inputs": [{"path": "a\0b.csv", "format": "tick"}]}), ["input 'a\\x00b.csv': holds a NUL"]),
        (json.dumps({"synthetic": {"n": 100}, "out_dir": "o\0ut"}), ["out_dir 'o\\x00ut': holds a NUL"]),
        (
            '{"inputs": [{"path": "a\\ud800b.csv", "format": "tick"}]}',
            ["input 'a\\ud800b.csv': holds a character the file system cannot encode"],
        ),
        # a config error with or without the interpreter's limit on integer digits
        ('{"deltas": [' + "1" * 5000 + "]}", []),
        ("[" * 100_000, ["not valid JSON"]),
    ],
    ids=[
        "field-name", "field-type", "truncated", "not-utf8", "not-object", "nested-not-object", "top-level-types",
        "input-type", "deltas-sharing-a-name", "delta-too-large-for-a-float", "negative-depth", "unknown-variant",
        "zero-delta", "non-finite-delta", "repeated-delta", "nothing-to-score", "repeated-original", "repeated-key",
        "repeated-synthetic-key", "no-data",
        "min-daily", "min-skeleton-events", "unknown-domain", "unknown-crossing", "unknown-input-format",
        "input-path-holding-a-nul", "out-dir-holding-a-nul", "input-path-holding-a-lone-surrogate",
        "integer-over-the-digit-limit", "nested-too-deeply",
    ],
)
def test_malformed_config_is_a_config_error(tmp_path, text, messages):
    config = tmp_path / "config.json"
    config.write_bytes(text if isinstance(text, bytes) else text.encode("utf-8"))
    code, _, err = run(["study", "--config", str(config), "--out", str(tmp_path / "out")])
    assert code == 1
    assert err.startswith("config error: ")
    for message in messages:
        assert message in err
    assert "Traceback" not in err
    assert not (tmp_path / "out").exists()


def test_missing_config_file_stays_a_data_error(tmp_path):
    code, _, err = run(["study", "--config", str(tmp_path / "absent.json")])
    assert code == 2
    assert err.startswith("data error: ")


_DATA_FLAGS = {
    "study": (
        ["--deltas", "0.5,1"], ["--depth", "3"], ["--domain", "logpath"], ["--single-crossing"],
        ["--min-daily", "100"], ["--min-tick-changes", "2"], ["--min-skeleton-events", "1"],
    ),
    "synth": (
        ["--format", "tick"], ["--kind", "jump"], ["--instruments", "2"], ["--n", "10"], ["--seed", "1"],
        ["--start", "10"], ["--sigma", "2"], ["--delta", "0.5"], ["--jump-multiple", "3"],
        ["--jump-prob", "0.5"], ["--vol-period", "20"], ["--vol-swing", "0.1"],
    ),
    "ingest": (["--input", "prices.csv"], ["--format", "tick"], ["--min-daily", "100"], ["--min-tick-changes", "2"]),
    "decompose": (
        ["--input", "prices.csv"], ["--format", "tick"], ["--delta", "0.5"], ["--domain", "logpath"],
        ["--single-crossing"],
    ),
}


@pytest.mark.parametrize(
    "command, flag",
    [(command, flag) for command, flags in _DATA_FLAGS.items() for flag in flags],
    ids=lambda value: value if isinstance(value, str) else value[0],
)
def test_a_data_setting_given_as_a_flag_is_a_usage_error_before_the_config_is_read(tmp_path, command, flag):
    # the config does not exist: reading it first would end in a data error
    out = ["--out", str(tmp_path / "out")] if command != "ingest" else []
    code, _, err = run([command, "--config", str(tmp_path / "absent.json"), *out, *flag])
    assert code == 2
    assert err.startswith("usage: ")
    assert f"error: unrecognized arguments: {' '.join(flag)}" in err
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize(
    "command, options",
    [("synth", {"--config", "--out"}), ("ingest", {"--config"}), ("decompose", {"--config", "--out"})],
)
def test_synth_and_ingest_take_only_the_config(command, options):
    code, out, _ = run([command, "--help"])
    assert code == 0
    assert set(re.findall(r"--[a-z-]+", out)) == options | {"--help"}


def test_entropy_is_not_a_command(tmp_path):
    code, _, err = run(
        ["entropy", "--input", str(tmp_path / "absent.csv"), "--format", "tick", "--out", str(tmp_path / "h.csv")]
    )
    assert code == 2
    assert "error: argument command: invalid choice: 'entropy'" in err
    assert list(tmp_path.iterdir()) == []
    code, out, _ = run(["--help"])
    assert code == 0
    assert "{ingest,decompose,study,synth}" in out


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
        ("synth", {"synthetic": {"kind": "time_changed", "vol_period": float("nan")}},
         "synthetic vol_period must be finite"),
        ("synth", {"synthetic": {"vol_swing": float("nan")}}, "synthetic vol_swing must be finite"),
        ("synth", {"inputs": [{"path": "{tmp}/absent.csv", "format": "daily"}]},
         "{tmp}/config.json: no synthetic block to write"),
        ("synth", {"synthetic": {"start": 10**400}}, f"synthetic.start must be of type float, got {10**400}"),
        ("synth", {"synthetic": {"sigma": 10**400}}, f"synthetic.sigma must be of type float, got {10**400}"),
        ("synth", {"synthetic": {"kind": "jump"}}, "synthetic kind must be one of ('brownian', 'time_changed')"),
        ("synth", {"synthetic": {"jump_multiple": 5}},
         "{tmp}/config.json: synthetic: unknown config key 'jump_multiple'"),
        ("synth", {"synthetic": {"instruments": 1001, "n": 10_000}}, "synthetic instruments * n must be <= 10000000"),
        # its last date would be in the year 10000, which no YYYYMMDD field holds
        ("synth", {"synthetic": {"instruments": 1, "n": 2_921_939}},
         "{tmp}/config.json: a daily synthetic n must be <= 2921938 to end by 9999-12-31"),
        ("decompose", {"inputs": [{"path": "{tmp}/absent.csv", "format": "tick"}], "deltas": [-1]},
         "every delta must be a positive finite number"),
        ("decompose", {"inputs": [{"path": "{tmp}/absent.csv", "format": "tick"}], "deltas": []},
         "{tmp}/config.json: no deltas to decompose"),
    ],
    ids=[
        "synth-n", "ingest-min-tick-changes", "synth-seed", "synth-seed-key", "synth-sigma-nan", "synth-start-nan",
        "synth-start-inf", "synth-vol-period-nan", "synth-vol-swing-nan",
        "synth-no-synthetic-block",
        "synth-start-too-large-for-a-float", "synth-sigma-too-large-for-a-float",
        "synth-retired-kind-jump", "synth-retired-key-jump-multiple", "synth-samples-over-the-bound",
        "synth-daily-past-9999", "decompose-delta", "decompose-no-deltas",
    ],
)
def test_bad_config_of_synth_and_ingest_is_a_config_error_before_any_input_is_read(tmp_path, command, config, message):
    # the input does not exist: reading it first would end in a data error
    text = json.dumps(config).replace("{tmp}", str(tmp_path))
    path = tmp_path / "config.json"
    path.write_text(text, encoding="utf-8")
    args = [command, "--config", str(path)] + (["--out", str(tmp_path / "out.csv")] if command != "ingest" else [])
    code, _, err = run(args)
    assert code == 1
    assert err == f"config error: {message.format(tmp=tmp_path)}\n"
    assert list(tmp_path.iterdir()) == [path]


def test_synth_draws_the_longest_daily_path_that_ends_by_9999_12_31(tmp_path, monkeypatch):
    drawn = []  # drawing and writing 2.9 million rows would take seconds
    monkeypatch.setattr(cli, "synthetic_series", lambda spec: drawn.append(spec.n) or [])
    config = write_config(tmp_path / "config.json", {"synthetic": {"instruments": 1, "n": cli.MAX_DAILY_SYNTH_N}})
    assert run(["synth", "--config", str(config), "--out", str(tmp_path / "s.csv")])[0] == 0
    assert drawn == [2_921_938]


def test_a_synth_that_fails_while_writing_leaves_no_file(tmp_path, monkeypatch):
    # the day after 9999-12-31 has no YYYYMMDD date, so its row fails after the first is written
    last = make_series([1.0, 1.0], [date.max.toordinal(), date.max.toordinal() + 1], instrument="A")
    monkeypatch.setattr(cli, "synthetic_series", lambda spec: [last])
    config = write_config(tmp_path / "config.json", {"synthetic": {"instruments": 1, "n": 2}})
    code, _, err = run(["synth", "--config", str(config), "--out", str(tmp_path / "s.csv")])
    assert code == 2
    assert err.startswith("data error: ")
    assert list(tmp_path.iterdir()) == [config]


def test_a_config_longer_than_the_bound_is_a_config_error(tmp_path, monkeypatch):
    monkeypatch.setattr(pipeline, "MAX_CONFIG_CHARS", 64)
    text = '{"synthetic": {"instruments": 2, "n": 300}, "min_daily": 100}'
    config = tmp_path / "config.json"
    config.write_text(text.ljust(64), encoding="utf-8")
    assert pipeline.config_from_json(config).min_daily == 100
    config.write_text(text.ljust(65), encoding="utf-8")
    assert run(["ingest", "--config", str(config)]) == (
        1, "", f"config error: {config}: longer than 64 characters, the limit for a config\n"
    )


def test_a_config_with_a_byte_order_mark_is_read_as_one_without(tmp_path, monkeypatch):
    text = json.dumps({"synthetic": {"instruments": 2, "n": 300}, "min_daily": 100, "out_dir": str(tmp_path / "out")})
    plain, marked = tmp_path / "plain.json", tmp_path / "marked.json"
    plain.write_text(text, encoding="utf-8")
    marked.write_text(text, encoding="utf-8-sig")
    assert marked.read_bytes() == b"\xef\xbb\xbf" + plain.read_bytes()
    monkeypatch.setattr(pipeline, "MAX_CONFIG_CHARS", len(text))  # the mark is not counted
    assert pipeline.config_from_json(marked) == pipeline.config_from_json(plain)
    assert run(["study", "--config", str(marked)])[0] == 0


@pytest.mark.parametrize("command", ["synth", "decompose"])
def test_an_output_path_that_is_a_fifo_is_refused_not_replaced(tmp_path, command):
    config = write_config(tmp_path / "study.json", {"synthetic": {"instruments": 2, "n": 300}, "min_daily": 100})
    fifo = tmp_path / "fifo"
    os.mkfifo(fifo)
    code, _, err = run([command, "--config", str(config), "--out", str(fifo)])
    assert code == 2
    assert err == f"data error: {fifo} exists and is not a regular file; refusing to replace it\n"
    assert stat.S_ISFIFO(fifo.stat().st_mode)
    assert sorted(p.name for p in tmp_path.iterdir()) == ["fifo", "study.json"]


def test_a_study_whose_summary_csv_is_a_fifo_leaves_none_of_its_outputs(tmp_path):
    # summary.csv is written last, so every other output was written and removed
    out = tmp_path / "out"
    out.mkdir()
    os.mkfifo(out / "summary.csv")
    config = write_config(
        tmp_path / "study.json",
        {"synthetic": {"instruments": 2, "n": 300}, "min_daily": 100, "min_skeleton_events": 10, "out_dir": str(out)},
    )
    code, _, err = run(["study", "--config", str(config)])
    assert code == 2
    assert err == (
        f"data error: cannot write the outputs to {out}: "
        f"{out / 'summary.csv'} exists and is not a regular file; refusing to replace it\n"
    )
    assert [p.name for p in out.iterdir()] == ["summary.csv"]
    assert stat.S_ISFIFO((out / "summary.csv").stat().st_mode)


def test_study_out_writes_the_files_of_the_config_with_that_out_dir(tmp_path):
    config = {
        "synthetic": {"instruments": 3, "n": 300, "seed": 4},
        "deltas": [0.5, 1.0],
        "depth": 6,
        "min_daily": 100,
        "min_skeleton_events": 10,
    }
    as_flag = write_config(tmp_path / "as_flag.json", {**config, "out_dir": str(tmp_path / "unused")})
    in_config = write_config(tmp_path / "in_config.json", {**config, "out_dir": str(tmp_path / "b")})
    code, out, _ = run(["study", "--config", str(as_flag), "--out", str(tmp_path / "a")])
    assert code == 0
    with open(tmp_path / "a" / "summary.csv", newline="", encoding="utf-8") as fh:
        summary = [(float(delta), float(mean)) for delta, mean in list(csv.reader(fh))[1:]]
    assert [delta for delta, _ in summary] == [0.5, 1.0]
    assert out == f"12 entropy estimate(s) -> {tmp_path / 'a'}\n{format_summary_table(summary)}\n"
    assert run(["study", "--config", str(in_config)])[0] == 0
    assert not (tmp_path / "unused").exists()
    written = {p.name: p.read_bytes() for p in (tmp_path / "a").iterdir()}
    assert sorted(written) == sorted(p.name for p in (tmp_path / "b").iterdir())
    assert "scatter_orig4_delta_0.5.csv" in written
    for name, data in written.items():
        assert data == (tmp_path / "b" / name).read_bytes(), name


def test_study_out_empty_is_a_config_error_that_leaves_the_working_directory_alone(tmp_path, monkeypatch):
    config = write_config(tmp_path / "study.json", {"synthetic": {"instruments": 2, "n": 300}, "min_daily": 100})
    (tmp_path / "corr.csv").write_text("the user's own\n", encoding="utf-8")
    monkeypatch.chdir(tmp_path)
    assert run(["study", "--config", str(config), "--out", ""]) == (1, "", "config error: out_dir must not be empty\n")
    assert sorted(p.name for p in tmp_path.iterdir()) == ["corr.csv", "study.json"]
    assert (tmp_path / "corr.csv").read_text(encoding="utf-8") == "the user's own\n"


def test_a_study_of_one_tick_file_scores_each_instrument_as_its_layers_do(tmp_path):
    # steps rounded to cents repeat prices, which log_returns drops from tick data
    walk = np.random.default_rng(5).normal(0.0, 0.4, size=(3, 400)).round(2).cumsum(axis=1) + 100.0
    data = write_tick_csv(
        tmp_path / "ticks.csv", [(f"I{i}", float(t), p) for i in range(3) for t, p in enumerate(walk[i].tolist())]
    )
    config = write_config(tmp_path / "config.json", {
        "inputs": [{"path": str(data), "format": "tick"}], "deltas": [0.5, 1.0], "depth": 8,
        "min_daily": 2, "min_tick_changes": 2, "min_skeleton_events": 1, "out_dir": str(tmp_path / "out"),
    })
    assert run(["study", "--config", str(config)])[0] == 0
    want = []
    for s in load_prices(data, "tick"):
        returns = log_returns(s)
        sequences = [("orig2", quantile_bins(returns, 2), 2), ("orig4", quantile_bins(returns, 4), 4)]
        sequences += [
            (f"delta_{d:g}", skeleton_to_symbols(decompose(s.prices, d, times=s.times)), 2) for d in (0.5, 1.0)
        ]
        want += [
            [s.instrument_id, name, len(seq), 8, m, entropy_rate(seq, 8, alphabet_size=m).value]
            for name, seq, m in sequences
        ]
    with open(tmp_path / "out" / "entropy.csv", newline="", encoding="utf-8") as fh:
        header, *rows = csv.reader(fh)
    assert header == ["instrument", "variant", "n", "depth", "alphabet", "entropy_bits_per_symbol"]
    assert [[i, v, int(n), int(d), int(m), float(h)] for i, v, n, d, m, h in rows] == want


def test_a_study_without_deltas_scores_the_originals_alone(tmp_path):
    config = write_config(tmp_path / "config.json", {
        "synthetic": {"instruments": 3, "n": 300, "seed": 4}, "deltas": [], "depth": 6, "min_daily": 100,
        "out_dir": str(tmp_path / "out"),
    })
    out = tmp_path / "out"
    assert run(["study", "--config", str(config)])[:2] == (0, f"6 entropy estimate(s) -> {out}\n")  # no table
    assert sorted(p.name for p in out.iterdir()) == [
        "corr.csv", "entropy.csv", "kde_orig2.csv", "kde_orig4.csv", "summary.csv",
    ]
    assert (out / "summary.csv").read_text(encoding="utf-8") == "delta,mean_entropy\n"
    rows = (out / "entropy.csv").read_text(encoding="utf-8").splitlines()[1:]
    assert [row.split(",")[:2] for row in rows] == [[f"SYN{i:03d}", v] for i in range(3) for v in ("orig2", "orig4")]


_TICKS = "instrument,timestamp,price,volume\n"
_THREE_LINES = "\n".join(["x" * 50_000] * 3)  # over csv's field limit as one quoted field


def ingest(data: bytes, name: str = "f.csv") -> tuple[tuple[str, ...], dict[str, bytes]]:
    """The argv and the files of a `voho ingest` of one tick file holding data."""
    config = json.dumps({"inputs": [{"path": name, "format": "tick"}], "min_tick_changes": 2}).encode()
    return ("ingest", "--config", "c.json"), {"c.json": config, name: data}


# `python -m voho.cli *argv` runs in a directory holding only `files`, exits
# with `code`, prints `line` as one line of stdout if `code` is 0 and of
# stderr if not, and leaves every file as it found it
@pytest.mark.parametrize(
    "argv, files, code, line",
    [
        (*ingest(_TICKS.encode() + b"A,1,10,1\nA,2,11\xff,1\n"), 2, "data error: f.csv:3: not UTF-8 text"),
        # csv's refusal of a field over its size limit is a data error, not a traceback
        (*ingest(f"{_TICKS}A,1,10,1\nA,2,-1,{'x' * 200_000}\n".encode()), 2,
         "data error: f.csv:3: field larger than field limit (131072)"),
        (*ingest(b'instrument,timestamp,price,volume\r\n"Q1",1,10,1\r\n"Q1",2,11,1\r\n"Q1",3,12,1\r\n'), 0,
         "Q1            tick          3        2  yes"),
        # a valid file with a field over that limit is refused too, on one
        # line or spread over several shorter ones, with or without a stray
        # `"` on its first and last line
        (*ingest(f"{_TICKS}A,1,10,{'x' * 200_000}\nA,2,11,1\n".encode()), 2,
         "data error: f.csv:2: field larger than field limit (131072)"),
        (*ingest(f'{_TICKS}A,1,10,"{_THREE_LINES}"\nA,2,11,1\n'.encode()), 2,
         "data error: f.csv:2: field larger than field limit (131072)"),
        (*ingest(f'{_TICKS}A"B,1,10,"{_THREE_LINES}"z"\nC,2,11,1\n'.encode()), 2,
         "data error: f.csv:2: field larger than field limit (131072)"),
        # a file of no rows, read by numpy or, for a compressed name, by the row reader
        (*ingest(_TICKS.encode()), 2, "data error: no input sources produced any instrument"),
        (*ingest(b"", "e.csv.gz"), 2, "data error: no input sources produced any instrument"),
        # refused before the study sweeps out_dir, so the last run's outputs stay
        (("study", "--config", "nodata.json"),
         {"nodata.json": b'{"deltas": [0.5, 1.0], "out_dir": "out"}', "out/entropy.csv": b"earlier\n"},
         1, "config error: inputs and synthetic must not both be empty"),
        # an input the sweep of out_dir would remove is refused before it is read
        (("study", "--config", "c.json"),
         {"c.json": b'{"inputs": [{"path": "out/scatter_prices.csv", "format": "tick"}], "out_dir": "out", '
                    b'"deltas": [1.0], "min_tick_changes": 2, "min_skeleton_events": 1}',
          "out/scatter_prices.csv": f"{_TICKS}A,1,10,1\nA,2,11,1\nA,3,12,1\n".encode()},
         1, "config error: input 'out/scatter_prices.csv': lies in out_dir under an output file name, "
            "which a study removes"),
        (("study", "--config", "c.json", "--out", "data"),
         {"c.json": b'{"inputs": [{"path": "data/entropy.csv.part", "format": "tick"}], "out_dir": "out"}',
          "data/entropy.csv.part": f"{_TICKS}A,1,10,1\nA,2,11,1\n".encode()},
         1, "config error: input 'data/entropy.csv.part': lies in out_dir under an output file name, "
            "which a study removes"),
    ],
    ids=[
        "not-utf8", "bad-row-over-the-limit", "quoted-crlf", "wide", "span", "stray-quote-pair",
        "header-only", "empty-compressed-name", "no-data-kept", "input-in-out-dir",
        "input-in-the-out-override",
    ],
)
def test_voho_run_as_a_program(tmp_path, argv, files, code, line):
    for name, content in files.items():
        (tmp_path / name).parent.mkdir(parents=True, exist_ok=True)
        (tmp_path / name).write_bytes(content)
    done = run_python("-m", "voho.cli", *argv, cwd=tmp_path)
    assert done.returncode == code, done.stderr
    assert line in (done.stderr if code else done.stdout).splitlines(), (done.stdout, done.stderr)
    assert {p.relative_to(tmp_path).as_posix(): p.read_bytes() for p in tmp_path.rglob("*") if p.is_file()} == files


@pytest.mark.parametrize(
    "data, code, out, err",
    [
        (f"{_TICKS}A,1,10,1\n\nA,2,-3,1\n", 2, "", "data error: f.csv:4: non-positive price -3.0\n"),
        # an id wider than its column keeps a space before the next one
        (_TICKS + "".join(f"AVERYLONGINSTRUMENTNAME,{t},1{t},1\n" for t in range(3)), 0,
         "instrument    kind       rows  changes  eligible\n"
         "AVERYLONGINSTRUMENTNAME tick          3        2  yes\n"
         "1 of 1 instrument(s) eligible\n", ""),
    ],
    ids=["malformed-after-a-blank-line", "wide-id"],
)
def test_ingest_in_process_decides_a_price_file(tmp_path, monkeypatch, data, code, out, err):
    argv, files = ingest(data.encode())
    for name, content in files.items():
        (tmp_path / name).write_bytes(content)
    monkeypatch.chdir(tmp_path)
    assert run(list(argv)) == (code, out, err)


def decompose_tick_file(tmp_path, data, out, **settings) -> tuple[int, str, str]:
    """voho decompose on a config of the one tick file that keeps every instrument."""
    config = write_config(tmp_path / "decompose.json", {
        "inputs": [{"path": str(data), "format": "tick"}], "min_daily": 2, "min_tick_changes": 2, **settings,
    })
    return run(["decompose", "--config", str(config), "--out", str(out)])


def test_decompose_on_a_decimal_tick_grid(tmp_path):
    prices = [100.006, 100.007, 100.008, 100.011, 100.012]
    data = write_tick_csv(tmp_path / "ticks.csv", [("A", float(i), p) for i, p in enumerate(prices)])
    out = tmp_path / "nested" / "dir" / "skel.csv"  # the missing directories are made
    code, printed, _ = decompose_tick_file(tmp_path, data, out, deltas=[0.001])
    assert code == 0
    assert printed.startswith("6 event(s) for 1 instrument(s)")
    rows = out.read_text(encoding="utf-8").splitlines()[1:]
    assert [r.split(",")[2] for r in rows] == ["1", "2", "3", "4", "5", "6"]
    assert [r.split(",")[5] for r in rows] == ["1"] * 6


def test_decompose_over_the_event_bound_is_a_data_error(tmp_path):
    data = write_tick_csv(tmp_path / "ticks.csv", [("A", 0.0, 1.0), ("A", 1.0, 2001.0), ("A", 2.0, 1.0)])
    out = tmp_path / "skel.csv"
    code, _, err = decompose_tick_file(tmp_path, data, out, deltas=[0.0001])
    assert code == 2
    assert err.startswith("data error: instrument 'A': delta=0.0001 gives at least 20000000 skeleton events")
    assert not out.exists()


@pytest.mark.parametrize(
    "names, deltas, refused",
    [(("A",), [0.25], None), (("A",), [0.5], None),
     (("A", "B"), [0.25], "8 skeleton events over 2 instrument(s) and 1 delta(s)"),
     (("A",), [0.25, 0.5], "6 skeleton events over 1 instrument(s) and 2 delta(s)")],
    ids=["one-instrument", "one-coarse-delta", "both-instruments", "both-deltas"],
)
def test_decompose_bounds_the_events_of_all_instruments_together(tmp_path, monkeypatch, names, deltas, refused):
    monkeypatch.setattr(homogenise, "MAX_EVENTS", 5)
    # 4 events at 0.25 and 2 at 0.5 for each instrument
    data = write_tick_csv(tmp_path / "ticks.csv", [(name, t, 1.0 + t / 2) for name in names for t in (0.0, 1.0, 2.0)])
    out = tmp_path / "nested" / "dir" / "skel.csv"
    code, _, err = decompose_tick_file(tmp_path, data, out, deltas=deltas)
    if refused is None:
        assert code == 0
        assert out.exists()
        return
    assert code == 2
    assert err.startswith(f"data error: {refused}")
    assert "more than the limit of 5" in err
    assert not (tmp_path / "nested").exists()  # a refused export makes no directory either
    assert not list(tmp_path.rglob("*.part"))


def test_decompose_logpath_is_the_skeleton_of_log_prices(tmp_path):
    prices = [100.0, 103.0, 98.0, 110.0]
    data = write_tick_csv(tmp_path / "ticks.csv", [("A", float(i), p) for i, p in enumerate(prices)])
    out = tmp_path / "skel.csv"
    assert decompose_tick_file(tmp_path, data, out, deltas=[0.01], domain="logpath")[0] == 0
    want = decompose(np.log(prices), 0.01, times=np.arange(4.0))
    rows = [r.split(",") for r in out.read_text(encoding="utf-8").splitlines()[1:]]
    assert [float(r[4]) for r in rows] == want.levels().tolist()
    assert [float(r[3]) for r in rows] == want.times.tolist()


@pytest.mark.parametrize(
    "domain, crossing, deltas",
    [("price", "multi", [0.5, 1.0]), ("logpath", "single", [0.005, 0.01])],
    ids=["price-multi", "logpath-single"],
)
@pytest.mark.parametrize("source", ["files", "synthetic"])
def test_decompose_exports_the_skeletons_the_study_scores(tmp_path, source, domain, crossing, deltas):
    data = (
        {"inputs": eligibility_inputs(tmp_path)} if source == "files"
        else {"synthetic": {"instruments": 3, "n": 300, "seed": 2, "start": 100.0}}
    )
    config = write_config(tmp_path / "config.json", {
        **data, "deltas": deltas, "depth": 4, "domain": domain, "crossing": crossing,
        "min_daily": 100, "min_tick_changes": 100, "min_skeleton_events": 1, "out_dir": str(tmp_path / "out"),
    })
    out = tmp_path / "skel.csv"
    assert run(["decompose", "--config", str(config), "--out", str(out)])[0] == 0
    assert run(["study", "--config", str(config)])[0] == 0
    with open(out, newline="", encoding="utf-8") as fh:
        header, *rows = csv.reader(fh)
    assert header == ["instrument", "delta", "i", "T_i", "level", "direction"]
    exported = [(r[0], f"delta_{float(r[1]):g}") for r in rows]
    with open(tmp_path / "out" / "entropy.csv", newline="", encoding="utf-8") as fh:
        scored = {(r[0], r[1]): int(r[2]) for r in list(csv.reader(fh))[1:] if r[1].startswith("delta_")}
    # SHORT and FLAT, in the files, are not eligible
    eligible = ["LONG", "MOVING"] if source == "files" else ["SYN000", "SYN001", "SYN002"]
    assert list(scored) == [(i, f"delta_{d:g}") for i in eligible for d in deltas]
    assert dict(Counter(exported)) == scored
    assert list(dict.fromkeys(exported)) == list(scored)  # instruments in order, each by increasing delta


@pytest.mark.parametrize("frequency", ["daily", "tick"])
@pytest.mark.parametrize("kind", ["brownian", "time_changed"])
def test_the_synth_file_loads_studies_and_decomposes_as_the_synthetic_block(tmp_path, kind, frequency):
    synthetic = {"kind": kind, "instruments": 2, "n": 400, "seed": 9, "frequency": frequency, "vol_period": 50.0}
    settings = {"deltas": [0.5, 1.0], "depth": 6, "min_skeleton_events": 10, "min_daily": 100, "min_tick_changes": 100}
    in_config = write_config(tmp_path / "synthetic.json", {**settings, "synthetic": synthetic})
    data = tmp_path / "synth.csv"
    assert run(["synth", "--config", str(in_config), "--out", str(data)])[0] == 0
    from_file = write_config(tmp_path / "file.json", {**settings, "inputs": [{"path": str(data), "format": frequency}]})

    def fields(series):
        return [(s.instrument_id, s.kind, s.times.tolist(), s.prices.tolist()) for s in series]

    assert fields(load_prices(data, frequency)) == fields(synthetic_series(SyntheticSpec(**synthetic)))
    for config, out in ((in_config, tmp_path / "a"), (from_file, tmp_path / "b")):
        assert run(["study", "--config", str(config), "--out", str(out / "study")])[0] == 0
        assert run(["decompose", "--config", str(config), "--out", str(out / "skel.csv")])[0] == 0
    written = {p.relative_to(tmp_path / "a").as_posix(): p.read_bytes() for p in (tmp_path / "a").rglob("*.csv")}
    assert sorted(written) == sorted(p.relative_to(tmp_path / "b").as_posix() for p in (tmp_path / "b").rglob("*.csv"))
    assert {"study/entropy.csv", "study/summary.csv", "skel.csv"} <= set(written)
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


def test_ingest_marks_eligible_exactly_the_instruments_the_study_scores(tmp_path):
    config = write_config(tmp_path / "config.json", {
        "inputs": eligibility_inputs(tmp_path),
        "synthetic": {"instruments": 2, "n": 120, "seed": 3},
        "deltas": [0.5, 1.0], "depth": 4, "min_daily": 100, "min_tick_changes": 100, "min_skeleton_events": 1,
        "out_dir": str(tmp_path / "out"),
    })
    code, out, _ = run(["ingest", "--config", str(config)])
    assert code == 0
    lines = out.splitlines()
    listed = [line.split() for line in lines[1:-1]]
    assert [row[0] for row in listed] == ["LONG", "SHORT", "MOVING", "FLAT", "SYN000", "SYN001"]
    assert lines[-1] == "4 of 6 instrument(s) eligible"
    eligible = {row[0] for row in listed if row[-1] == "yes"}
    assert eligible == {"LONG", "MOVING", "SYN000", "SYN001"}
    assert not (tmp_path / "out").exists()
    assert run(["study", "--config", str(config)])[0] == 0
    scored = (tmp_path / "out" / "entropy.csv").read_text(encoding="utf-8").splitlines()[1:]
    assert {line.split(",")[0] for line in scored} == eligible


def test_ingest_and_study_refuse_an_id_in_two_inputs_alike(tmp_path):
    inputs = eligibility_inputs(tmp_path)
    config = write_config(tmp_path / "config.json", {"inputs": inputs + inputs[:1], "min_daily": 100})
    refused = (2, "", "data error: duplicate instrument id 'LONG' across inputs\n")
    assert run(["ingest", "--config", str(config)]) == refused
    assert run(["study", "--config", str(config), "--out", str(tmp_path / "out")]) == refused
    assert not (tmp_path / "out").exists()


def test_a_synthetic_path_that_overflows_is_a_named_data_error(tmp_path):
    config = write_config(tmp_path / "config.json", {
        "synthetic": {"instruments": 2, "n": 300, "start": 1e308, "sigma": 1e307},
        "deltas": [1e-300], "min_daily": 2,
    })
    out = tmp_path / "synth.csv"
    refused = (2, "", "data error: synthetic path overflowed the float range; lower `start` or the volatility\n")
    assert run(["synth", "--config", str(config), "--out", str(out)]) == refused
    assert not out.exists()
    assert run(["study", "--config", str(config), "--out", str(tmp_path / "out")]) == refused
