"""Loading, filtering, log returns, and the synthetic generators."""

from __future__ import annotations

import csv
import gzip
import math
import os
import random
import re
import socket
import warnings
from datetime import date

import numpy as np
import pytest

import voho.ingest
from voho.errors import DataFormatError
from voho.ingest import (
    DAILY_HEADER,
    TICK_HEADER,
    PriceSeries,
    SyntheticSpec,
    _load_rows,
    filter_eligible,
    generate_synthetic_path,
    load_prices,
    log_returns,
)

from conftest import daily_rows, make_series, write_daily_csv, write_tick_csv


class TestLoadPrices:
    def test_empty_file_gives_empty_list(self, tmp_path):
        path = tmp_path / "empty.csv"
        path.write_text("")
        assert load_prices(path, "daily") == []

    def test_header_only_gives_empty_list(self, tmp_path):
        path = write_daily_csv(tmp_path / "d.csv", [])
        assert load_prices(path, "daily") == []

    def test_daily_grouping_and_order(self, tmp_path):
        rows = daily_rows("AAA", [10.0, 11.0, 12.0]) + daily_rows("BBB", [5.0, 6.0])
        path = write_daily_csv(tmp_path / "d.csv", rows)
        series = load_prices(path, "daily")
        assert [s.instrument_id for s in series] == ["AAA", "BBB"]
        assert series[0].prices.tolist() == [10.0, 11.0, 12.0]
        assert series[1].prices.tolist() == [5.0, 6.0]
        assert np.all(np.diff(series[0].times) == 1.0)

    def test_interleaved_tick_instruments(self, tmp_path):
        rows = [("X", 1.0, 10.0), ("Y", 1.5, 20.0), ("X", 2.0, 10.5), ("Y", 2.5, 19.0)]
        path = write_tick_csv(tmp_path / "t.csv", rows)
        series = load_prices(path, "tick")
        assert [s.instrument_id for s in series] == ["X", "Y"]
        assert series[0].times.tolist() == [1.0, 2.0]
        assert series[1].prices.tolist() == [20.0, 19.0]

    def test_zero_close_rejected_with_line_number(self, tmp_path):
        rows = daily_rows("AAA", [10.0, 0.0, 12.0])
        path = write_daily_csv(tmp_path / "d.csv", rows)
        with pytest.raises(DataFormatError, match=r":3: non-positive price"):
            load_prices(path, "daily")

    @pytest.mark.parametrize("day", ["not-a-date", "²0100105"])  # ² is a digit that int() refuses
    def test_malformed_row_reports_line(self, tmp_path, day):
        path = tmp_path / "d.csv"
        path.write_text(
            "instrument,date,open,high,low,close,volume\n"
            "AAA,20100104,1,1,1,10,100\n"
            f"AAA,{day},1,1,1,11,100\n",
            encoding="utf-8",
        )
        with pytest.raises(DataFormatError, match=f":3: date '{day}' is not YYYYMMDD$"):
            load_prices(path, "daily")

    @pytest.mark.parametrize(
        "rows,error",
        [
            ('"A\nB",1,10,1\nX,2,-1,1\n', r":4: non-positive price"),
            ('X,1,10,"1\n\n2"\nX,2,11,1\nX,3,12\n', r":6: expected 4 fields"),
            # csv's own refusal, for a field over its size limit
            pytest.param(
                '"A\nB",1,10,1\nX,2,-1,' + "x" * 200_000 + "\n", r":4: field larger than field limit \(131072\)$",
                id="field-over-csv-limit",
            ),
        ],
    )
    def test_error_after_a_record_over_several_lines_names_its_line(self, tmp_path, rows, error):
        path = tmp_path / "t.csv"
        path.write_text("instrument,timestamp,price,volume\n" + rows)
        with pytest.raises(DataFormatError, match=error):
            load_prices(path, "tick")

    def test_wrong_field_count_reports_line(self, tmp_path):
        path = tmp_path / "t.csv"
        path.write_text("instrument,timestamp,price,volume\nX,1.0,10.0\n")
        with pytest.raises(DataFormatError, match=r":2: expected 4 fields"):
            load_prices(path, "tick")

    def test_unexpected_header_rejected(self, tmp_path):
        path = tmp_path / "t.csv"
        path.write_text("foo,bar\n")
        with pytest.raises(DataFormatError, match=r":1: expected header"):
            load_prices(path, "tick")

    def test_daily_duplicate_date_rejected(self, tmp_path):
        rows = [("AAA", "20100104", 10.0), ("AAA", "20100104", 11.0)]
        path = write_daily_csv(tmp_path / "d.csv", rows)
        with pytest.raises(DataFormatError, match="strictly increasing"):
            load_prices(path, "daily")

    def test_tick_equal_timestamps_keep_file_order(self, tmp_path):
        rows = [("X", 5.0, 10.0), ("X", 5.0, 10.5), ("X", 5.0, 9.5)]
        path = write_tick_csv(tmp_path / "t.csv", rows)
        (series,) = load_prices(path, "tick")
        assert series.prices.tolist() == [10.0, 10.5, 9.5]

    def test_tick_decreasing_timestamp_rejected(self, tmp_path):
        rows = [("X", 5.0, 10.0), ("X", 4.0, 10.5)]
        path = write_tick_csv(tmp_path / "t.csv", rows)
        with pytest.raises(DataFormatError, match="decrease"):
            load_prices(path, "tick")

    def test_unknown_format_rejected(self, tmp_path):
        with pytest.raises(ValueError, match="unknown format"):
            load_prices(tmp_path / "whatever.csv", "hourly")


# np.loadtxt reads each \r in a quoted id as \n; the last two strip to A
_IDS = ["A", "B", " A ", "A ", '"X,Y"', '"a""b"', "ŻYWIEC", "INSTRUMENT_ID_LONGER_THAN_16",
        '"A\nB"', '"A\r\nB"', '"A\rB"', '"A\r"', '"\r\nA"']
_BAD_IDS = ["", "  ", 'a"b', '"']
_BAD_NUMBERS = ["nan", "inf", "-inf", "1e400", "1_000", "0x10", "", "abc", "٣", "0", "-1", '"1', "1 2"]
_BAD_DATES = ["00000101", "20100230", "٢٠١٠٠١٠٤", "²0100104", "2010-01-04", "2010010", "201001044",
              "20101301", "20100100", "", "20100104\x00"]
# padding that float() and np.loadtxt may strip differently
_EDGES = [" ", "\t", "\u3000", "\xa0", "\x0b", "\x1c", "\x1f", "\x00", "\u200b", '"']
_FREE = ["1", "", "x y", '"q,r"', '"two\nlines"', '"cr\rin"', "é", 'o"k']


class TestColumnarReader:
    """load_prices reads with np.loadtxt and falls back to the row reader,
    _load_rows, which must decide every file the same way."""

    @pytest.fixture
    def no_row_reader(self, monkeypatch):
        def refuse(path, format):
            raise AssertionError("the row reader ran")

        monkeypatch.setattr(voho.ingest, "_load_rows", refuse)

    @pytest.fixture
    def sources(self, monkeypatch):
        """The first argument of every np.loadtxt call, in order."""
        seen = []
        loadtxt = np.loadtxt

        def spy(source, *args, **kwargs):
            seen.append(source)
            return loadtxt(source, *args, **kwargs)

        monkeypatch.setattr(np, "loadtxt", spy)
        return seen

    @pytest.fixture
    def row_reads(self, monkeypatch):
        """The path of every _load_rows call, in order."""
        seen = []
        load_rows = _load_rows

        def spy(path, format):
            seen.append(path)
            return load_rows(path, format)

        monkeypatch.setattr(voho.ingest, "_load_rows", spy)
        return seen

    @pytest.mark.parametrize("end", ["\n", "\r\n", "\r"])
    # numpy reads a path with universal newlines: the quoted ids hold line
    # ends that it reads as \n, each at an edge that strip() removes
    @pytest.mark.parametrize("ids", [("X", "Y"), ('"X"', '"\r\nY\r"')], ids=["unquoted", "quoted"])
    def test_files_are_read_from_their_path(self, tmp_path, no_row_reader, sources, end, ids):
        x, y = ids
        path = tmp_path / "t.csv"
        lines = ["instrument,timestamp,price,volume", "", f"{x},1,10,1", f"{y},2,20,x y", "", f"{x},3,11,1"]
        path.write_text(end.join(lines) + end, newline="")
        series = load_prices(path, "tick")
        assert sources == [os.path.abspath(path)]
        assert [(s.instrument_id, s.prices.tolist()) for s in series] == [("X", [10.0, 11.0]), ("Y", [20.0])]

    @pytest.mark.parametrize(
        "text, read_by_numpy, loaded",
        [
            # numpy would read these ids with \n for \r, so it refuses them
            ('instrument,timestamp,price,volume\r\n"A\r\nB",1,10,1\r\nC,2,3,1\r\n', True,
             [("A\r\nB", [10.0]), ("C", [3.0])]),
            ('instrument,timestamp,price,volume\n"A\rB",1,10,1\n', True, [("A\rB", [10.0])]),
            # numpy skips lines, not records, so it would read `\nB` here
            ('instrument,timestamp,price,"volume\n"\nB",1,10,1\n', False, [('B"', [10.0])]),
        ],
        ids=["crlf-in-id", "cr-in-id", "header-over-two-lines"],
    )
    def test_files_numpy_would_read_otherwise_are_read_by_the_row_reader(
        self, tmp_path, sources, row_reads, text, read_by_numpy, loaded
    ):
        path = tmp_path / "t.csv"
        path.write_text(text, newline="")
        series = load_prices(path, "tick")
        assert row_reads == [path]
        assert sources == ([os.path.abspath(path)] if read_by_numpy else [])
        assert [(s.instrument_id, s.prices.tolist()) for s in series] == loaded

    @pytest.mark.parametrize("control", ["\x00", "\x1c"])
    def test_files_holding_a_control_byte_are_read_by_the_row_reader(self, tmp_path, sources, control):
        path = write_tick_csv(tmp_path / "t.csv", [("X", 1.0, 10.0), ("X", 2.0, 11.0)])
        path.write_text(path.read_text() + f"X,3,12,{control}\n")
        assert _outcome(load_prices, path, "tick") == _outcome(_load_rows, path, "tick")
        assert sources == []

    @pytest.mark.parametrize(
        "rows, line",
        [
            ("A,1,10," + "x" * 200_000 + "\n", 2),
            # across the scan's first 1 MiB read, on \r ends, the last one missing
            ("A,1,10,1\r" * 116_000 + "A,2,11," + "x" * 200_000, 116_002),
            pytest.param(
                'A,1,10,"' + "\n".join(["x" * 50_000] * 3) + '"\n', 2,
                marks=pytest.mark.xfail(strict=True, reason="np.loadtxt limits no field, and no line is over the limit"),
            ),
        ],
        ids=["one-line", "across-reads", "quoted-over-lines"],
    )
    def test_a_field_over_csvs_limit_is_refused_by_both_readers(self, tmp_path, rows, line):
        path = tmp_path / "t.csv"
        path.write_text("instrument,timestamp,price,volume\n" + rows, newline="")
        message = f"^{re.escape(str(path))}:{line}: field larger than field limit \\(131072\\)$"
        for load in (load_prices, _load_rows):
            with pytest.raises(DataFormatError, match=message):
                load(path, "tick")

    @pytest.mark.parametrize("extra, read_by_numpy", [(0, True), (1, False)])
    def test_a_line_over_csvs_limit_is_read_by_the_row_reader(self, tmp_path, sources, extra, read_by_numpy):
        path = tmp_path / "t.csv"
        line = "A,1,10," + "x" * (csv.field_size_limit() - 7 + extra)  # no field over the limit
        path.write_text(f"instrument,timestamp,price,volume\n{line}\nA,2,11,1\n")
        loaded = _outcome(load_prices, path, "tick")
        assert loaded[0] == "ok" and loaded == _outcome(_load_rows, path, "tick")
        assert sources == ([os.path.abspath(path)] if read_by_numpy else [])

    @pytest.mark.parametrize("suffix", [".gz", ".bz2", ".xz", ".lzma"])
    def test_plain_file_with_a_compressed_name_loads_as_csv(self, tmp_path, sources, row_reads, suffix):
        rows = [("X", 1.0, 10.0), ("Y", 1.0, 20.0), ("X", 2.0, 11.0)]
        plain = write_tick_csv(tmp_path / "t.csv", rows)
        named = write_tick_csv(tmp_path / f"t.csv{suffix}", rows)
        loaded = _outcome(load_prices, named, "tick")
        assert loaded[0] == "ok" and loaded == _outcome(load_prices, plain, "tick")
        # numpy would decompress the named file, so the row reader reads it
        assert row_reads == [named] and sources == [os.path.abspath(plain)]

    @pytest.mark.parametrize("end", [b"\n", b"\r\n", b"\r"])
    def test_bytes_that_are_not_utf8_name_their_line(self, tmp_path, end):
        lines = [b"instrument,timestamp,price,volume"]
        lines += [f"AAA,{i},{100 + i % 7 * 0.5},1".encode() for i in range(6000)]
        lines[4001] += b"\xff"
        path = tmp_path / "t.csv"
        path.write_bytes(end.join(lines) + end)
        assert path.read_bytes().index(b"\xff") > 1 << 16  # past the first chunks decoded
        for load in (load_prices, _load_rows):
            with pytest.raises(DataFormatError, match=f"^{re.escape(str(path))}:4002: not UTF-8 text$"):
                load(path, "tick")

    def test_compressed_file_is_not_utf8_text(self, tmp_path):
        plain = write_tick_csv(tmp_path / "t.csv", [("X", 1.0, 10.0), ("X", 2.0, 11.0)])
        path = tmp_path / "real.csv.gz"
        path.write_bytes(gzip.compress(plain.read_bytes()))
        for load in (load_prices, _load_rows):
            with pytest.raises(DataFormatError, match=r":1: not UTF-8 text$"):
                load(path, "tick")

    @pytest.mark.parametrize(
        "rows, line",
        [
            # a \r\n split across the text reader's 8192-byte reads is one
            # line end, not two
            (b"X,1,10," + b"x" * (8191 - 41) + b"\r\nX,2,11,1\xff\n", 3),
            (b"X,1,10,1\rX,2,11,1\n\xc3", 4),  # a character cut short by the end of the file
        ],
        ids=["crlf-across-chunks", "last-line"],
    )
    def test_first_undecodable_line(self, tmp_path, rows, line):
        path = tmp_path / "t.csv"
        path.write_bytes(b"instrument,timestamp,price,volume\n" + rows)
        assert path.read_bytes().find(b"\r\n") in (-1, 8191)  # 8191: the last byte of the first read
        for load in (load_prices, _load_rows):
            with pytest.raises(DataFormatError, match=f"^{re.escape(str(path))}:{line}: not UTF-8 text$"):
                load(path, "tick")

    @pytest.mark.parametrize(
        "rows",
        [
            b"A,1,-1,1\nA,2,3\xff,1\n",
            b"A,1,-1,1\n" + b"A,1,2,1\n" * 2000 + b"A,2,3\xff,1\n",  # in another 8192-byte read
            b'"A",1,-1,1\r\n"A",2,3\xff,1\r\n',  # quoted, on \r\n ends
        ],
        ids=["adjacent", "apart", "quoted-crlf"],
    )
    def test_a_bad_price_before_a_byte_that_is_not_utf8_is_named_first(self, tmp_path, rows):
        path = tmp_path / "t.csv"
        path.write_bytes(b"instrument,timestamp,price,volume\n" + rows)
        for load in (load_prices, _load_rows):
            with pytest.raises(DataFormatError, match=r"t\.csv:2: non-positive price -1\.0$"):
                load(path, "tick")

    def test_relative_path_that_parses_as_a_url_is_read_locally(self, tmp_path, monkeypatch, no_row_reader, sources):
        def offline(*args, **kwargs):
            raise OSError("network access attempted")

        monkeypatch.setattr(socket.socket, "connect", offline)
        monkeypatch.setattr(socket, "getaddrinfo", offline)
        (tmp_path / "http:" / "example.com").mkdir(parents=True)
        write_tick_csv(tmp_path / "http:" / "example.com" / "f.csv", [("X", 1.0, 10.0), ("X", 2.0, 11.0)])
        monkeypatch.chdir(tmp_path)
        (series,) = load_prices("http://example.com/f.csv", "tick")
        assert series.prices.tolist() == [10.0, 11.0]
        assert sources == [str(tmp_path / "http:" / "example.com" / "f.csv")]

    def test_header_and_blank_lines_give_empty_list_without_warning(self, tmp_path, no_row_reader):
        path = tmp_path / "t.csv"
        path.write_text("instrument,timestamp,price,volume\n\n\r\n\n", newline="")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert load_prices(path, "tick") == []

    @pytest.mark.parametrize("format", ["daily", "tick"])
    def test_single_row_loads(self, tmp_path, no_row_reader, format):
        if format == "daily":
            path = write_daily_csv(tmp_path / "d.csv", [("AAA", "20100104", 10.0)])
            times = [float(date(2010, 1, 4).toordinal())]
        else:
            path = write_tick_csv(tmp_path / "t.csv", [("AAA", 7.5, 10.0)])
            times = [7.5]
        (series,) = load_prices(path, format)
        assert (series.instrument_id, series.times.tolist(), series.prices.tolist()) == ("AAA", times, [10.0])

    def test_date_in_non_ascii_digits_loads_as_by_row_reader(self, tmp_path, no_row_reader):
        path = write_daily_csv(tmp_path / "d.csv", [("AAA", "٢٠١٠٠١٠٤", 10.0)])
        (series,) = load_prices(path, "daily")
        assert series.times.tolist() == [float(date(2010, 1, 4).toordinal())]

    def test_ids_whole_and_unparsed_columns_free(self, tmp_path, no_row_reader):
        long_id = "WARSAW_STOCK_EXCHANGE_INSTRUMENT"
        path = tmp_path / "d.csv"
        path.write_text(
            "instrument,date,open,high,low,close,volume\n"
            f"{long_id},20100104,n/a,,\"1,5\",10,lots\n"
            " ŻYWIEC ,20100105,x,y,z,11,-\n"
            f" {long_id},20100106,1,1,1,12,1_000\n",
            encoding="utf-8",
        )
        series = load_prices(path, "daily")
        assert [(s.instrument_id, s.prices.tolist()) for s in series] == [
            (long_id, [10.0, 12.0]), ("ŻYWIEC", [11.0]),
        ]

    def test_error_after_blank_lines_names_its_line(self, tmp_path):
        path = tmp_path / "t.csv"
        path.write_text("instrument,timestamp,price,volume\n\n\nX,1,10,1\n\nX,2,abc,1\n")
        with pytest.raises(DataFormatError, match=r"t\.csv:6: could not convert string to float: 'abc'"):
            load_prices(path, "tick")

    def test_interleaved_ties_keep_file_order(self, tmp_path, no_row_reader):
        rng = np.random.default_rng(5)
        ids = rng.choice(["X", "Y", " Z"], size=3000)
        rows = [(i, float(t), float(p)) for i, t, p in zip(ids, np.arange(3000) // 7, rng.uniform(1, 2, 3000))]
        path = write_tick_csv(tmp_path / "t.csv", rows)
        assert _outcome(load_prices, path, "tick") == _outcome(_load_rows, path, "tick")

    @pytest.mark.parametrize("day", ["20100104", "20000229", "00010101", *_BAD_DATES])
    def test_dates_decided_as_by_row_reader(self, tmp_path, day):
        path = write_daily_csv(tmp_path / "d.csv", [("AAA", "20091231", 9.0), ("AAA", day, 10.0)])
        assert _outcome(load_prices, path, "daily") == _outcome(_load_rows, path, "daily")

    def test_agrees_with_row_reader_on_random_files(self, tmp_path):
        rng = random.Random(20240917)
        path = tmp_path / "f.csv"
        seen = {"ok": 0, "raise": 0}
        for _ in range(1200):
            format = rng.choice(["daily", "tick"])
            path.write_bytes(_random_price_file(rng, format))
            new, old = _outcome(load_prices, path, format), _outcome(_load_rows, path, format)
            assert new == old, path.read_bytes()
            assert old[0] == "ok" or old[1] is DataFormatError, (old, path.read_bytes())
            seen[old[0]] += 1
        assert min(seen.values()) > 300, seen


def _outcome(load, path, format):
    """What a reader makes of a file: its series, bit for bit, or its error."""
    try:
        series = load(path, format)
    except Exception as exc:
        return ("raise", type(exc), str(exc))
    return ("ok", [(s.instrument_id, s.kind, s.times.tobytes(), s.prices.tobytes()) for s in series])


def _random_price_file(rng: random.Random, format: str) -> bytes:
    """A small daily or tick file; about half hold malformed rows, and a
    tenth of those a byte that is not UTF-8."""
    clean = rng.random() < 0.45
    ids = rng.sample(_IDS if clean else _IDS + _BAD_IDS, rng.randint(1, 3))
    clock = {i: rng.randint(0, 50) for i in ids}
    lines = []
    for _ in range(rng.randint(1, 10)):
        instrument = rng.choice(ids)
        clock[instrument] += rng.choice([0, 1, 2] if format == "tick" else [1, 3])
        if not clean and rng.random() < 0.15:
            clock[instrument] += rng.choice([0, -1])  # equal or decreasing
        c = clock[instrument]
        if format == "tick":
            time = rng.choice([str(1_600_000_000 + c), f" {c}.0 ", f'"{c}"', f"{c}e0", f"+{c}"])
            price = rng.choice(["10.5", " 7 ", '"8.25"', "1e1", repr(rng.uniform(1e-3, 1e6))])
        else:
            time = f"{20100101 + c % 28 + 100 * (c // 28 % 12) + 10_000 * (c // 336):08d}"
            time = rng.choice([time, f" {time} ", f'"{time}"'])
            price = rng.choice(["10.5", " 3 ", repr(rng.uniform(1e-3, 1e4))])
        if not clean and rng.random() < 0.2:
            time = rng.choice(_BAD_NUMBERS if format == "tick" else _BAD_DATES)
        if not clean and rng.random() < 0.2:
            price = rng.choice(_BAD_NUMBERS)
        if rng.random() < 0.1:
            digits = "".join(rng.choice("0123456789") for _ in range(rng.randint(1, 30)))
            price = rng.choice(["", "-"]) + digits + rng.choice(["", ".", f".{rng.randint(0, 10**12)}", f"e{rng.randint(-330, 330)}"])
        if format == "tick":
            fields = [instrument, time, price, rng.choice(_FREE)]
        else:
            fields = [instrument, time, *rng.choices(_FREE, k=3), price, rng.choice(_FREE)]
        if not clean and rng.random() < 0.1:
            k = rng.randrange(len(fields))
            fields[k] = rng.choice([rng.choice(_EDGES) + fields[k], fields[k] + rng.choice(_EDGES)])
        if not clean and rng.random() < 0.1:  # too few or too many fields
            if rng.random() < 0.5:
                fields.pop(rng.randrange(1, len(fields)))
            else:
                fields.insert(rng.randrange(1, len(fields)), "1")
        lines.append(",".join(fields))
        if rng.random() < 0.15:
            lines.append(rng.choice(["", "", "  "] if not clean else [""]))
    if rng.random() < 0.05:
        lines = [""] * rng.randint(1, 3)
    header = ",".join(DAILY_HEADER if format == "daily" else TICK_HEADER)
    end = rng.choice(["\n", "\r\n", "\r"])
    text = end.join([header, *lines]) + (end if rng.random() < 0.8 else "")
    data = (("\ufeff" if rng.random() < 0.2 else "") + text).encode("utf-8")
    if not clean and rng.random() < 0.1:
        i = rng.randrange(len(data) + 1)
        data = data[:i] + b"\xff" + data[i:]
    return data


class TestPriceSeriesInvariants:
    def test_nonpositive_price_rejected(self):
        with pytest.raises(ValueError, match="non-positive"):
            make_series([10.0, -1.0])

    def test_arrays_read_only(self):
        s = make_series([10.0, 11.0])
        with pytest.raises(ValueError):
            s.prices[0] = 99.0


class TestFilterEligible:
    def test_daily_999_excluded_1000_kept(self):
        short = make_series(np.linspace(10, 20, 999), instrument="S")
        long = make_series(np.linspace(10, 20, 1000), instrument="L")
        kept = filter_eligible([short, long], min_daily=1000, min_tick_changes=2500)
        assert [s.instrument_id for s in kept] == ["L"]

    def test_tick_counts_changes_not_rows(self):
        # 3000 rows but only 2400 actual price changes
        prices = np.concatenate([np.full(600, 10.0), 10.0 + 0.01 * np.arange(1, 2401)])
        ticky = make_series(prices, times=np.arange(3000.0), instrument="T", kind="tick")
        assert filter_eligible([ticky], min_daily=1000, min_tick_changes=2500) == []
        assert filter_eligible([ticky], min_daily=1000, min_tick_changes=2400) == [ticky]

    def test_two_point_series_included_at_min_2(self):
        s = make_series([10.0, 11.0])
        assert filter_eligible([s], min_daily=2, min_tick_changes=2) == [s]

    def test_threshold_preconditions(self):
        with pytest.raises(ValueError):
            filter_eligible([], min_daily=1, min_tick_changes=2500)
        with pytest.raises(ValueError):
            filter_eligible([], min_daily=1000, min_tick_changes=1)

    def test_idempotent_and_non_mutating(self):
        series = [make_series(np.linspace(10, 20, 50), instrument=f"I{i}") for i in range(3)]
        before = [s.prices.copy() for s in series]
        once = filter_eligible(series, min_daily=10, min_tick_changes=2)
        twice = filter_eligible(once, min_daily=10, min_tick_changes=2)
        assert once == twice
        for s, orig in zip(series, before):
            assert np.array_equal(s.prices, orig)


class TestLogReturns:
    def test_constant_pair_gives_zero(self):
        r = log_returns(make_series([100.0, 100.0]))
        assert r.tolist() == [0.0]

    def test_single_step_formula(self):
        r = log_returns(make_series([100.0, 105.0]))
        assert r.size == 1
        assert r[0] == pytest.approx(math.log(1.05), abs=1e-15)

    def test_drop_zero_removes_flat_observation(self):
        r = log_returns(make_series([100.0, 100.0, 105.0], kind="tick"))
        assert r.tolist() == pytest.approx([math.log(1.05)])

    def test_too_short_rejected(self):
        with pytest.raises(ValueError, match="at least 2"):
            log_returns(make_series([100.0]))

    def test_constant_series_drop_zero_empty(self):
        r = log_returns(make_series([100.0, 100.0, 100.0], kind="tick"))
        assert len(r) == 0 and r.dtype == np.float64

    def test_cumsum_reproduces_log_price(self, rng):
        prices = 100.0 * np.exp(np.cumsum(rng.normal(0, 0.02, size=500)))
        series = make_series(prices)
        r = log_returns(series)
        rebuilt = np.log(prices[0]) + np.cumsum(r)
        assert np.allclose(rebuilt, np.log(prices[1:]), rtol=1e-12, atol=0)


class TestSyntheticPaths:
    def test_same_seed_bit_identical(self):
        a = generate_synthetic_path(SyntheticSpec(n=500, seed=42))
        b = generate_synthetic_path(SyntheticSpec(n=500, seed=42))
        assert np.array_equal(a.prices, b.prices)
        assert np.array_equal(a.times, b.times)
        c = generate_synthetic_path(SyntheticSpec(n=500, seed=43))
        assert not np.array_equal(a.prices, c.prices)

    def test_path_index_keys_the_stream_and_names_the_path(self):
        first = generate_synthetic_path(SyntheticSpec(n=500, seed=42))
        second = generate_synthetic_path(SyntheticSpec(n=500, seed=42), 1)
        assert (first.instrument_id, second.instrument_id) == ("SYN000", "SYN001")
        assert np.array_equal(second.prices, generate_synthetic_path(SyntheticSpec(n=500, seed=43)).prices)

    def test_zero_sigma_constant_path(self):
        s = generate_synthetic_path(SyntheticSpec(n=100, seed=1, sigma=0.0, start=50.0))
        assert np.all(s.prices == 50.0)

    def test_time_changed_same_seed_identical(self):
        a = generate_synthetic_path(SyntheticSpec(kind="time_changed", n=300, seed=9, sigma=0.5))
        b = generate_synthetic_path(SyntheticSpec(kind="time_changed", n=300, seed=9, sigma=0.5))
        assert np.array_equal(a.prices, b.prices)

    def test_time_changed_steps_are_unit_normals_scaled_by_the_instantaneous_volatility(self):
        spec = SyntheticSpec(kind="time_changed", n=300, seed=9, sigma=0.5, vol_period=40.0, vol_swing=0.8)
        steps = np.diff(generate_synthetic_path(spec).prices)
        # a unit brownian path of the same seed draws the same normals
        normals = np.diff(generate_synthetic_path(SyntheticSpec(n=300, seed=9, sigma=1.0)).prices)
        instant_vol = 0.5 * (1.0 + 0.8 * np.sin(2.0 * np.pi * np.arange(299) / 40.0))
        np.testing.assert_allclose(steps, instant_vol * normals, rtol=1e-9, atol=1e-9)

    def test_tick_frequency_is_carried_with_sample_index_times(self):
        s = generate_synthetic_path(SyntheticSpec(n=50, frequency="tick"))
        assert (s.kind, s.times.tolist()) == ("tick", list(range(50)))

    @pytest.mark.parametrize(
        "kind,params",
        [
            ("brownian", {"sigma": -1.0}),
            ("time_changed", {"sigma": 0.0}),
            ("time_changed", {"vol_swing": 1.0}),
            ("time_changed", {"vol_period": 0.0}),
            ("brownian", {"start": 0.0}),
            ("time_changed", {"vol_swing": -0.1}),
            ("brownian", {"frequency": "weekly"}),
            ("brownian", {"instruments": 0}),
        ],
    )
    def test_invalid_params_rejected(self, kind, params):
        spec = SyntheticSpec(kind=kind, n=100, **params)
        [problem] = spec.problems()
        with pytest.raises(ValueError, match=f"^{re.escape(problem)}$"):
            generate_synthetic_path(spec)

    @pytest.mark.parametrize("name", ["start", "sigma", "vol_period", "vol_swing"])
    def test_an_infinite_parameter_is_refused_by_name(self, name):
        spec = SyntheticSpec(n=100, **{name: math.inf})
        assert spec.problems() == [f"{name} must be finite"]
        with pytest.raises(ValueError, match=f"^{name} must be finite$"):
            generate_synthetic_path(spec)

    def test_n_below_two_rejected(self):
        with pytest.raises(ValueError, match="n must be >= 2"):
            generate_synthetic_path(SyntheticSpec(n=1))

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError, match="kind must be one of"):
            generate_synthetic_path(SyntheticSpec(kind="levy", n=100))

    def test_samples_over_all_paths_are_bounded_before_any_is_drawn(self):
        assert voho.ingest.MAX_SYNTHETIC_SAMPLES == 10_000_000
        assert SyntheticSpec(instruments=4, n=2_500_000).problems() == []
        for instruments, n in ((4, 2_500_001), (1, 10**400), (10**7, 2)):
            spec = SyntheticSpec(instruments=instruments, n=n)
            assert spec.problems() == ["instruments * n must be <= 10000000"]
            with pytest.raises(ValueError, match=r"^instruments \* n must be <= 10000000$"):
                generate_synthetic_path(spec)

    def test_rules_of_other_kinds_do_not_apply(self):
        assert SyntheticSpec(vol_swing=2.0, vol_period=0.0).problems() == []

    def test_first_problem_is_raised(self):
        spec = SyntheticSpec(n=1, sigma=-1.0)
        assert spec.problems() == ["n must be >= 2", "sigma must be >= 0"]
        with pytest.raises(ValueError, match="^n must be >= 2$"):
            generate_synthetic_path(spec)

    def test_path_crossing_zero_rejected(self):
        with pytest.raises(ValueError, match="crossed zero"):
            generate_synthetic_path(SyntheticSpec(n=1000, start=1.0, sigma=5.0))

    @pytest.mark.parametrize(
        "spec",
        [
            SyntheticSpec(instruments=2, n=300, start=1e308, sigma=1e307),
            SyntheticSpec(kind="time_changed", n=300, sigma=1e200),
        ],
        ids=["brownian", "time_changed"],
    )
    def test_path_overflowing_the_float_range_is_named_not_warned(self, spec):
        # numpy's overflow warning would be an error here (filterwarnings)
        with pytest.raises(ValueError, match="^synthetic path overflowed the float range"):
            generate_synthetic_path(spec)
