"""Equal-count binning into binary and quaternary symbol sequences."""

from __future__ import annotations

import numpy as np
import pytest

from voho.quantise import quantile_bins, quantile_boundaries


class TestQuantileBins:
    def test_median_split(self):
        seq = quantile_bins(np.array([-2.0, -1.0, 1.0, 2.0]), 2)
        assert seq.dtype == np.int64
        assert seq.tolist() == [0, 0, 1, 1]

    def test_rank_boundary_with_repeats(self):
        values = np.array([3.0, 1.0, 4.0, 1.0, 5.0, 9.0, 2.0, 6.0])
        assert quantile_boundaries(values, 2).tolist() == [3.0]
        seq = quantile_bins(values, 2)
        assert seq.tolist() == [0, 0, 1, 0, 1, 1, 0, 1]

    def test_quartiles_order_statistics(self):
        seq = quantile_bins(np.arange(1.0, 9.0), 4)
        assert quantile_boundaries(np.arange(1.0, 9.0), 4).tolist() == [2.0, 4.0, 6.0]
        assert seq.tolist() == [0, 0, 1, 1, 2, 2, 3, 3]

    def test_boundary_ties_fall_in_lower_bin(self):
        values = np.array([1.0, 2.0, 2.0, 3.0])
        seq = quantile_bins(values, 2)
        # boundary is 2.0; both 2.0s stay below it
        assert seq.tolist() == [0, 0, 0, 1]

    def test_equal_counts_for_tie_free_divisible_input(self, rng):
        for m in (2, 4):
            values = rng.permutation(np.linspace(-1.0, 1.0, 32))
            counts = np.bincount(quantile_bins(values, m), minlength=m)
            assert counts.tolist() == [32 // m] * m

    def test_monotone_in_value(self, rng):
        values = rng.normal(size=101)
        seq = quantile_bins(values, 4)
        order = np.argsort(values, kind="stable")
        assert np.all(np.diff(seq[order]) >= 0)

    def test_boundaries_depend_only_on_multiset(self, rng):
        values = rng.normal(size=40)
        shuffled = rng.permutation(values)
        assert np.array_equal(quantile_boundaries(values, 4), quantile_boundaries(shuffled, 4))
        a = quantile_bins(values, 4)
        b = quantile_bins(shuffled, 4)
        # same value -> same symbol regardless of position
        assert np.array_equal(np.sort(a), np.sort(b))

    def test_unsupported_alphabet_rejected(self):
        with pytest.raises(ValueError, match="alphabet size"):
            quantile_bins(np.array([1.0, 2.0, 3.0]), 3)

    def test_too_short_rejected(self):
        with pytest.raises(ValueError, match="at least 4"):
            quantile_bins(np.array([1.0, 2.0, 3.0]), 4)

    def test_two_dimensional_rejected(self):
        with pytest.raises(ValueError, match="1-d"):
            quantile_bins(np.arange(8.0).reshape(2, 4), 2)


class TestBinCounts:
    def test_two_state_counts(self):
        seq = quantile_bins(np.array([-2.0, -1.0, 1.0, 2.0]), 2)
        assert np.bincount(seq, minlength=2).tolist() == [2, 2]
