"""Skeleton decomposition: crossing events, interpolation, invariants."""

from __future__ import annotations

import csv
import io
import math
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest

from voho import homogenise
from voho.errors import DataError
from voho.homogenise import SKELETON_CSV_HEADER, decompose, skeleton_to_symbols, write_skeleton_csv

from conftest import make_series


def source_indices(skeleton):
    """The sample that produced each event."""
    return np.repeat(skeleton.moved_at, np.abs(skeleton.steps))


def residuals_by_sample(values, skeleton):
    """|X(t_j) - current level| after each sample, reconstructed from the
    per-event source sample indices (independent of the sweep internals)."""
    k = 0
    out = []
    position = 0
    dirs = skeleton.directions.astype(int)
    src = source_indices(skeleton)
    for j in range(1, len(values)):
        while position < len(src) and src[position] == j:
            k += dirs[position]
            position += 1
        out.append(abs(values[j] - (skeleton.base_level + k * skeleton.delta)))
    return out


def loop_decompose(values, delta, times, crossing="multi"):
    """Reference: one pass over the samples on the grid u = (x - x0) / delta,
    with u computed exactly from the decimal form of each price and of
    delta (their shortest repr), as the prices were written.

    The level follows the path to clamp(k, floor(u), ceil(u)), at most one
    step per sample in single mode, and each step is one event timed on
    the sample's interpolation line, its fraction of the interval clipped
    to [0, 1] (at t_j where the price did not move).
    Returns (times, level_indices, directions, source_indices)."""
    x, t = list(map(float, values)), list(map(float, times))
    decimal = [Fraction(repr(v)) for v in x]
    step_size = Fraction(repr(float(delta)))
    events = ([], [], [], [])
    k = 0
    for j in range(1, len(x)):
        u = (decimal[j] - decimal[0]) / step_size
        target = min(max(k, math.floor(u)), math.ceil(u))
        if crossing == "single":
            target = k + (target > k) - (target < k)
        step = 1 if target > k else -1
        dx = x[j] - x[j - 1]
        while k != target:
            k += step
            if dx == 0.0:
                events[0].append(t[j])
            else:
                fraction = min(max((x[0] + k * delta - x[j - 1]) / dx, 0.0), 1.0)
                events[0].append(t[j - 1] + fraction * (t[j] - t[j - 1]))
            events[1].append(k)
            events[2].append(step)
            events[3].append(j)
    return events


def assert_matches_loop(values, delta, times, crossing):
    skel = decompose(values, delta, times=times, crossing=crossing)
    want_times, want_levels, want_dirs, want_src = loop_decompose(values, delta, times, crossing)
    assert skel.times.tolist() == want_times
    assert skel.level_indices.tolist() == want_levels
    assert skel.directions.tolist() == want_dirs
    assert source_indices(skel).tolist() == want_src
    return skel


class TestDecomposeExamples:
    def test_range_below_delta_gives_empty_skeleton(self):
        skel = decompose(np.array([0.0, 0.1, 0.2]), 0.5, times=np.array([0.0, 1.0, 2.0]))
        assert len(skel) == 0

    def test_exact_boundary_single_event(self):
        skel = decompose(np.array([10.00, 10.25]), 0.25, times=np.array([0.0, 1.0]))
        assert len(skel) == 1
        assert skel.times[0] == 1.0
        assert skel.levels()[0] == 10.25
        assert skel.directions[0] == 1

    def test_hand_traced_three_events(self):
        skel = decompose(
            np.array([10.00, 10.30, 10.10, 9.70]), 0.25, times=np.array([0.0, 1.0, 2.0, 3.0])
        )
        assert len(skel) == 3
        assert skel.directions.tolist() == [1, -1, -1]
        assert skel.levels().tolist() == [10.25, 10.00, 9.75]
        expected_times = [5.0 / 6.0, 2.25, 2.875]
        for got, want in zip(skel.times, expected_times):
            assert abs(got - want) < 1e-12

    def test_multi_crossing_shares_interpolation_line(self):
        # one sample moving 2.5 steps up: two events on the same segment
        skel = decompose(np.array([0.0, 2.5]), 1.0, times=np.array([0.0, 1.0]))
        assert skel.level_indices.tolist() == [1, 2]
        assert skel.times.tolist() == pytest.approx([0.4, 0.8])
        assert source_indices(skel).tolist() == [1, 1]

    def test_single_crossing_mode_caps_at_one_event_per_sample(self):
        multi = decompose(np.array([0.0, 2.5]), 1.0)
        single = decompose(np.array([0.0, 2.5]), 1.0, crossing="single")
        assert len(multi) == 2
        assert len(single) == 1
        assert single.level_indices.tolist() == [1]

    def test_single_crossing_level_catches_up_over_later_samples(self):
        # the lagging level registers one step per sample, even where the
        # path has gone flat; catch-up events land on the sample timestamp
        single = decompose(np.array([0.0, 2.5, 2.5, 2.5]), 1.0, crossing="single")
        assert single.level_indices.tolist() == [1, 2]
        assert source_indices(single).tolist() == [1, 2]
        assert single.times.tolist() == [0.4, 2.0]

    def test_zero_width_time_interval_event_at_shared_timestamp(self):
        skel = decompose(
            np.array([10.0, 10.1, 11.5]), 1.0, times=np.array([0.0, 5.0, 5.0])
        )
        assert len(skel) == 1
        assert skel.times[0] == 5.0

    def test_price_series_input_carries_id(self):
        series = make_series([10.0, 11.0, 12.0], instrument="ZZZ")
        skel = decompose(series.prices, 0.5, times=series.times, instrument_id=series.instrument_id)
        assert skel.instrument_id == "ZZZ"

    def test_errors(self):
        with pytest.raises(ValueError, match="delta"):
            decompose(np.array([1.0, 2.0]), 0.0)
        with pytest.raises(ValueError, match="delta"):
            decompose(np.array([1.0, 2.0]), -1.0)
        with pytest.raises(ValueError, match="at least 2"):
            decompose(np.array([1.0]), 0.5)
        with pytest.raises(ValueError, match="crossing"):
            decompose(np.array([1.0, 2.0]), 0.5, crossing="both")


class TestDecomposeProperties:
    def test_residual_bound_and_exact_steps_randomized(self, rng):
        for case in range(1000):
            n = int(rng.integers(3, 40))
            delta = float(rng.uniform(0.05, 2.0))
            # mix diffusive moves with occasional multi-delta jumps
            steps = rng.normal(0.0, delta, size=n - 1)
            jumps = rng.random(n - 1) < 0.15
            steps[jumps] += rng.choice([-1.0, 1.0], size=int(jumps.sum())) * delta * rng.uniform(
                2.0, 6.0, size=int(jumps.sum())
            )
            values = 100.0 + np.concatenate([[0.0], np.cumsum(steps)])
            skel = decompose(values, delta)
            # residual bound after every sample
            assert all(r < delta for r in residuals_by_sample(values, skel))
            # consecutive level indices move by exactly one step
            if len(skel) > 1:
                assert np.array_equal(np.diff(skel.level_indices), skel.directions[1:].astype(np.int64))
            if len(skel) > 0:
                assert skel.level_indices[0] == skel.directions[0]
                assert set(np.abs(skel.directions.astype(int))) == {1}

    def test_event_times_inside_their_sample_interval(self, rng):
        times = np.cumsum(rng.uniform(0.1, 2.0, size=60))
        values = 50.0 + np.cumsum(rng.normal(0.0, 1.0, size=60))
        skel = decompose(values, 0.75, times=times)
        for t_event, j in zip(skel.times, source_indices(skel)):
            assert times[j - 1] <= t_event <= times[j]

    def test_refinement_matches_total_move(self, rng):
        for _ in range(50):
            values = 10.0 + np.cumsum(rng.normal(0.0, 0.5, size=30))
            smallest = np.abs(np.diff(values))
            smallest = smallest[smallest > 0].min()
            delta = 0.9 * smallest
            skel = decompose(values, delta)
            signed_total = float(skel.directions.astype(int).sum()) * delta
            assert abs(signed_total - (values[-1] - values[0])) < delta

    def test_deterministic(self, rng):
        values = 10.0 + np.cumsum(rng.normal(0.0, 1.0, size=200))
        a = decompose(values, 0.5)
        b = decompose(values, 0.5)
        assert np.array_equal(a.times, b.times)
        assert np.array_equal(a.level_indices, b.level_indices)
        assert np.array_equal(a.directions, b.directions)

    def test_event_times_non_decreasing(self, rng):
        values = 10.0 + np.cumsum(rng.normal(0.0, 1.2, size=300))
        skel = decompose(values, 0.5)
        assert np.all(np.diff(skel.times) >= 0)


class TestDecomposeAgainstLoop:
    @pytest.mark.parametrize("crossing", ["multi", "single"])
    def test_random_continuous_paths(self, rng, crossing):
        for _ in range(300):
            n = int(rng.integers(2, 50))
            delta = float(rng.uniform(0.05, 2.0))
            steps = rng.normal(0.0, delta, size=n - 1)
            jumps = rng.random(n - 1) < 0.15
            steps[jumps] *= rng.uniform(2.0, 6.0, size=int(jumps.sum()))
            steps[rng.random(n - 1) < 0.1] = 0.0  # flat stretches
            values = 100.0 + np.concatenate([[0.0], np.cumsum(steps)])
            times = np.cumsum(rng.uniform(0.0, 2.0, size=n))
            times[rng.random(n) < 0.1] = times[0]  # zero-width intervals
            assert_matches_loop(values, delta, np.maximum.accumulate(times), crossing)

    @pytest.mark.parametrize("crossing", ["multi", "single"])
    def test_random_decimal_grid_paths(self, rng, crossing):
        # prices on a 0.001 tick, delta a whole number of ticks: many
        # samples land exactly on a level, where a price-space float
        # comparison used to miscount
        for _ in range(300):
            n = int(rng.integers(2, 40))
            delta = round(0.001 * int(rng.integers(1, 20)), 3)  # 0.009, not 0.001 * 9 = 0.009000000000000001
            ticks = np.cumsum(np.concatenate([[0], rng.integers(-30, 31, size=n - 1)]))
            values = np.round(100.0 + ticks * 0.001, 3)
            skel = assert_matches_loop(values, delta, np.arange(n, dtype=float), crossing)
            if crossing == "multi":
                u = (values - values[0]) / delta
                levels = np.zeros(n, dtype=np.int64)
                np.add.at(levels, source_indices(skel), skel.directions.astype(np.int64))
                assert np.all(np.abs(u - np.cumsum(levels)) < 1.0)

    def test_five_row_tick_prices(self):
        # every price is on a level; in floats u is 1.0000000000047748,
        # 1.9999999999953388, 4.9999999999954525 and 6.000000000000227,
        # which without the snap to whole numbers put the events of levels
        # 2 and 5 one sample late: sources [1, 3, 3, 3, 4, 4]
        values = np.array([100.006, 100.007, 100.008, 100.011, 100.012])
        skel = assert_matches_loop(values, 0.001, np.arange(5.0), "multi")
        assert skel.level_indices.tolist() == [1, 2, 3, 4, 5, 6]
        assert source_indices(skel).tolist() == [1, 2, 3, 3, 3, 4]

    @pytest.mark.parametrize("crossing", ["multi", "single"])
    def test_a_decimal_price_on_a_level_reaches_it(self, crossing):
        # (100.3 - 100.0) / 0.1 is 2.9999999999999716 in floats
        skel = assert_matches_loop(np.array([100.0, 100.3, 100.3, 100.3]), 0.1, np.arange(4.0), crossing)
        assert len(skel) == 3
        assert len(decompose(np.array([100.0, 100.3]), 0.1)) == 3

    def test_an_event_beyond_its_sample_in_floats_is_timed_at_the_sample(self):
        # u is 0.9999999999999787, taken as 1, and level 1 is
        # 10.05 + 0.05 = 10.100000000000001 > 10.1: its unclipped fraction
        # of the interval is 1.0000000000000355
        values, times = np.array([10.05, 10.1]), np.array([0.0, 10.0])
        assert (values[0] + 0.05 - values[0]) / (values[1] - values[0]) > 1.0
        skel = assert_matches_loop(values, 0.05, times, "multi")
        assert skel.times.tolist() == [10.0]


class TestEventBound:
    def test_far_move_raises_before_allocating(self):
        tracemalloc.start()
        try:
            with pytest.raises(DataError, match="at least 1000000000 skeleton events"):
                decompose(np.array([0.0, 1e9]), 1.0, instrument_id="FAR")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1_000_000

    def test_message_names_instrument_delta_and_count(self, monkeypatch):
        monkeypatch.setattr(homogenise, "MAX_EVENTS", 5)
        # the path never goes beyond 3 steps, but swings three times
        with pytest.raises(DataError) as info:
            decompose(np.array([0.0, 3.0, 0.0, 3.0]), 1.0, instrument_id="OSC")
        assert str(info.value) == (
            "instrument 'OSC': delta=1.0 gives 9 skeleton events, more than the limit of 5"
        )

    def test_limit_is_inclusive(self, monkeypatch):
        values = np.array([0.0, 3.0, 0.0])
        monkeypatch.setattr(homogenise, "MAX_EVENTS", 6)
        assert len(decompose(values, 1.0)) == 6
        monkeypatch.setattr(homogenise, "MAX_EVENTS", 5)
        with pytest.raises(DataError, match="gives 6 skeleton events"):
            decompose(values, 1.0)

    def test_overflowing_grid_raises(self):
        with pytest.raises(DataError, match="at least inf"):
            decompose(np.array([0.0, 1.0]), 1e-320)

    def test_single_mode_is_bounded_by_the_sample_count(self):
        skel = decompose(np.array([0.0, 1e9, 1e9]), 1.0, crossing="single")
        assert skel.level_indices.tolist() == [1, 2]


class TestRunLengthForm:
    def test_a_million_events_cost_no_event_array_until_read(self):
        tracemalloc.start()
        try:
            skel = decompose(np.array([0.0, 1e6]), 1.0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 64 * 1024
        assert len(skel) == 1_000_000
        symbols = skeleton_to_symbols(skel)
        assert symbols.dtype == np.int64 and symbols.size == 1_000_000 and np.all(symbols == 1)
        # t_0 + (x_0 + k * delta - x_0) / (x_1 - x_0) * (t_1 - t_0) for k = 1..10^6
        assert np.array_equal(skel.times, np.arange(1, 1_000_001) / 1e6)

    def test_event_arrays_are_read_only_and_do_not_follow_the_input(self):
        values = np.array([0.0, 2.5, 1.0])
        skel = decompose(values, 1.0)
        values[1] = 0.0
        assert skel.level_indices.tolist() == [1, 2, 1]
        assert skel.times.tolist() == pytest.approx([0.4, 0.8, 2.0])
        for arr in (skel.times, skel.level_indices, skel.directions, skel.path, skel.steps):
            assert not arr.flags.writeable


class TestSkeletonSymbols:
    def test_direction_mapping(self):
        skel = decompose(np.array([10.00, 10.30, 10.10, 9.70]), 0.25)
        seq = skeleton_to_symbols(skel)
        assert seq.dtype == np.int64
        assert seq.tolist() == [1, 0, 0]

    def test_empty_skeleton_gives_empty_sequence(self):
        skel = decompose(np.array([0.0, 0.1]), 5.0)
        assert len(skeleton_to_symbols(skel)) == 0

    def test_jump_path_gives_runs_of_five(self):
        signs = 2.0 * np.random.default_rng(2).integers(0, 2, size=99) - 1.0
        path = 1000.0 + np.concatenate([[0.0], np.cumsum(2.5 * signs)])  # jumps of five steps of 0.5
        symbols = skeleton_to_symbols(decompose(path, 0.5))
        assert symbols.size == 5 * 99
        flips = np.flatnonzero(np.diff(symbols) != 0)
        assert np.all((flips + 1) % 5 == 0)  # sign can only change between blocks


def reference_skeleton_csv(skeletons) -> bytes:
    """The file as the row writer of earlier versions wrote it: csv.writer
    with repr(float) for times and levels."""
    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(SKELETON_CSV_HEADER)
    for skel in skeletons:
        rows = zip(skel.times.tolist(), skel.levels().tolist(), skel.directions.tolist())
        writer.writerows(
            [skel.instrument_id, repr(float(skel.delta)), i, repr(t), repr(level), direction]
            for i, (t, level, direction) in enumerate(rows, start=1)
        )
    return out.getvalue().encode("utf-8")


class TestSkeletonCsv:
    @pytest.mark.parametrize("slice_events", [homogenise.CSV_SLICE_EVENTS, 3])
    def test_bytes_match_the_row_writer_with_ids_that_need_quoting(self, tmp_path, monkeypatch, rng, slice_events):
        monkeypatch.setattr(homogenise, "CSV_SLICE_EVENTS", slice_events)
        paths = [100.0 + np.cumsum(rng.normal(0.0, 0.7, size=40)) for _ in range(4)]
        times = np.cumsum(rng.uniform(0.0, 3.0, size=40))
        skeletons = [
            decompose(paths[0], 0.25, times=times, instrument_id="WIG,20"),
            decompose(paths[1], 0.1, instrument_id='say "hi"', crossing="single"),
            decompose(paths[2], 1e-3, times=times, instrument_id="Żywiec ąę"),
            decompose(np.array([1.0, 1.1]), 5.0, instrument_id="EMPTY"),
            decompose(paths[3], 0.3, instrument_id=""),
        ]
        out = tmp_path / "skel.csv"
        assert write_skeleton_csv(skeletons, out) == sum(map(len, skeletons))
        assert out.read_bytes() == reference_skeleton_csv(skeletons)
        assert b'"WIG,20",0.25,1,' in out.read_bytes()
        assert b'"say ""hi""",0.1,1,' in out.read_bytes()

    def test_schema_and_indexing(self, tmp_path):
        skel = decompose(
            np.array([10.00, 10.30, 10.10, 9.70]), 0.25, instrument_id="AAA"
        )
        out = tmp_path / "skel.csv"
        write_skeleton_csv(skel, out)
        lines = out.read_text().splitlines()
        assert lines[0] == ",".join(SKELETON_CSV_HEADER)
        first = lines[1].split(",")
        assert first[0] == "AAA"
        assert first[1] == "0.25"
        assert first[2] == "1"  # events are 1-based
        assert first[5] == "1"
        assert len(lines) == 1 + 3

    def test_bytes_of_two_instruments_with_multi_crossings(self, tmp_path):
        a = decompose(np.array([10.0, 10.5, 9.75]), 0.25, times=np.array([0.0, 1.0, 4.0]), instrument_id="A")
        b = decompose(np.array([5.0, 4.0]), 0.5, instrument_id="B")
        out = tmp_path / "skel.csv"
        write_skeleton_csv([a, b], out)
        assert out.read_bytes() == (
            b"instrument,delta,i,T_i,level,direction\n"
            b"A,0.25,1,0.5,10.25,1\n"
            b"A,0.25,2,1.0,10.5,1\n"
            b"A,0.25,3,2.0,10.25,-1\n"
            b"A,0.25,4,3.0,10.0,-1\n"
            b"A,0.25,5,4.0,9.75,-1\n"
            b"B,0.5,1,0.5,4.5,-1\n"
            b"B,0.5,2,1.0,4.0,-1\n"
        )

    def test_a_skeleton_written_in_slices_has_the_bytes_of_one_slice(self, tmp_path, monkeypatch):
        skeletons = [
            decompose(np.array([10.0, 10.5, 9.75, 11.0]), 0.25, times=np.array([0.0, 1.0, 4.0, 4.5]), instrument_id="A"),
            decompose(np.array([5.0, 4.0]), 0.5, instrument_id="B"),
        ]
        write_skeleton_csv(skeletons, tmp_path / "whole.csv")
        monkeypatch.setattr(homogenise, "CSV_SLICE_EVENTS", 3)  # A's 10 events span four slices
        assert write_skeleton_csv(skeletons, tmp_path / "sliced.csv") == 12
        assert (tmp_path / "sliced.csv").read_bytes() == (tmp_path / "whole.csv").read_bytes()

    def test_a_generator_writes_the_bytes_of_a_list(self, tmp_path):
        skeletons = [
            decompose(np.array([10.0, 10.5, 9.75]), 0.25, instrument_id="A"),
            decompose(np.array([5.0, 4.0]), 0.5, instrument_id="B"),
        ]
        assert write_skeleton_csv(skeletons, tmp_path / "list.csv") == 7
        assert write_skeleton_csv((s for s in skeletons), tmp_path / "generator.csv") == 7
        assert (tmp_path / "list.csv").read_bytes() == (tmp_path / "generator.csv").read_bytes()

    def test_a_failing_skeleton_leaves_no_file(self, tmp_path):
        def skeletons():
            yield decompose(np.array([10.0, 10.5]), 0.25, instrument_id="A")
            raise DataError("second instrument failed")

        with pytest.raises(DataError, match="second instrument failed"):
            write_skeleton_csv(skeletons(), tmp_path / "skel.csv")
        assert list(tmp_path.iterdir()) == []
