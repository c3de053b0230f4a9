"""Command-line exit codes and messages for malformed study configs."""

from __future__ import annotations

import numpy as np
import pytest

from voho.cli import main
from voho.homogenise import decompose

from conftest import write_tick_csv


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
    ],
    ids=["field-name", "field-type", "truncated", "not-object", "nested-not-object", "top-level-types", "input-type"],
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
