"""Command-line exit codes and messages for malformed study configs."""

from __future__ import annotations

import pytest

from voho.cli import main


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
