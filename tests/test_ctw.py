"""Context-tree estimator against exact enumeration, closed forms and
golden values of the earlier streaming implementation."""

from __future__ import annotations

import math
from itertools import product

import numpy as np
import pytest

from voho.ctw import EntropyEstimate, _context_counts, certified_ceiling, entropy_rate
from voho.quantise import SymbolSequence

from ctw_oracle import (
    _padded_context,
    enumerate_suffix_sets,
    kt_prob_from_counts,
    mixture_probability,
    prior_binary,
    prior_mary,
    recursive_weighted_probability,
)


def log2_prob(seq, depth: int, alphabet_size: int | None = None) -> float:
    """log2 of the mixture probability, recovered from the entropy rate."""
    est = entropy_rate(seq, depth=depth, alphabet_size=alphabet_size)
    return -est.value * est.sequence_length


def splitmix64(n: int, seed: int) -> np.ndarray:
    """n pseudo-random 64-bit words, the same on every platform and numpy."""
    z = (np.arange(n, dtype=np.uint64) + np.uint64(seed)) * np.uint64(0x9E3779B97F4A7C15)
    z = (z ^ (z >> np.uint64(30))) * np.uint64(0xBF58476D1CE4E5B9)
    z = (z ^ (z >> np.uint64(27))) * np.uint64(0x94D049BB133111EB)
    return z ^ (z >> np.uint64(31))


def golden_sequence(name: str) -> np.ndarray:
    if name == "binary":  # a biased coin, P(1) = 0.3
        return (splitmix64(20000, 1) % np.uint64(10) < np.uint64(3)).astype(np.int64)
    if name == "quaternary":
        return (splitmix64(24000, 2) >> np.uint64(62)).astype(np.int64)
    # skeleton-like: alternating runs of up and down moves, 1 to 4 long
    runs = 1 + (splitmix64(12000, 3) % np.uint64(4)).astype(np.int64)
    return np.repeat(np.arange(runs.size) % 2, runs)[:21000]


# log2 P at depth 20 from the streaming context tree this estimator replaced
GOLDEN_LOG2_PROB = {
    "binary": (2, -17621.964055976612),
    "quaternary": (4, -48021.60763845499),
    "skeleton_runs": (2, -16819.94145635043),
}


class TestKtUpdate:
    """The add-half estimate, seen through a tree of depth 0 (the root alone)."""

    def test_fresh_binary_context_is_half(self):
        assert log2_prob([0], depth=0) == pytest.approx(-1.0, abs=1e-15)
        assert log2_prob([1], depth=0) == pytest.approx(-1.0, abs=1e-15)

    def test_sequence_00_product(self):
        assert log2_prob([0, 0], depth=0) == pytest.approx(math.log2(3 / 8), abs=1e-12)

    def test_sequence_01_product(self):
        assert log2_prob([0, 1], depth=0) == pytest.approx(math.log2(1 / 8), abs=1e-12)

    def test_quaternary_fresh_context(self):
        assert log2_prob([2], depth=0, alphabet_size=4) == pytest.approx(math.log2(0.25), abs=1e-15)

    def test_matches_closed_form_likelihood(self, rng):
        for m in (2, 4):
            for n in (1, 30, 300):
                seq = rng.integers(0, m, size=n)
                exact = math.log2(kt_prob_from_counts(tuple(np.bincount(seq, minlength=m).tolist())))
                assert log2_prob(seq, depth=0, alphabet_size=m) == pytest.approx(exact, rel=1e-12)


class TestSequenceProbability:
    def test_depth0_is_plain_kt(self, rng):
        seq = rng.integers(0, 2, size=50)
        expected = math.log2(kt_prob_from_counts(tuple(np.bincount(seq, minlength=2).tolist())))
        assert log2_prob(seq, depth=0) == pytest.approx(expected, rel=1e-12)
        assert log2_prob(np.sort(seq), depth=0) == pytest.approx(expected, rel=1e-12)

    def test_depth1_fixture_00(self):
        assert log2_prob([0, 0], depth=1) == pytest.approx(math.log2(3 / 8), abs=1e-12)
        est = entropy_rate([0, 0], depth=1)
        assert est.value == pytest.approx(0.70751875, abs=1e-6)

    def test_matches_enumeration_depth2(self):
        for depth in (0, 1, 2):
            for n in (1, 3, 5):
                for seq in product(range(2), repeat=n):
                    got = log2_prob(list(seq), depth=depth)
                    want = math.log2(mixture_probability(seq, depth, 2))
                    assert got == pytest.approx(want, rel=1e-9)

    def test_matches_linear_domain_recursion_up_to_n64(self, rng):
        for m in (2, 4):
            for depth in (1, 3, 5):
                seq = rng.integers(0, m, size=64).tolist()
                got = log2_prob(seq, depth=depth, alphabet_size=m)
                want = math.log2(recursive_weighted_probability(seq, depth, m))
                assert got == pytest.approx(want, rel=1e-9)

    def test_depth_at_least_length_reads_zero_padding(self, rng):
        for m in (2, 4):
            for n in (1, 3, 7):
                seq = rng.integers(0, m, size=n).tolist()
                for depth in (n, n + 1, 2 * n + 3):
                    got = log2_prob(seq, depth=depth, alphabet_size=m)
                    want = math.log2(recursive_weighted_probability(seq, depth, m))
                    assert got == pytest.approx(want, rel=1e-12)

    def test_constant_sequence_at_depth20(self):
        # all zeros: every context is all zeros, padding included, so none splits;
        # all threes: contexts split only where the zero padding shows
        for seq, m in (([0] * 200, 2), ([0] * 200, 4), ([3] * 60, 4)):
            got = log2_prob(seq, depth=20, alphabet_size=m)
            want = math.log2(recursive_weighted_probability(seq, 20, m))
            assert got == pytest.approx(want, rel=1e-12)

    @pytest.mark.parametrize("name", sorted(GOLDEN_LOG2_PROB))
    def test_matches_streaming_tree_golden_values(self, name):
        m, want = GOLDEN_LOG2_PROB[name]
        assert log2_prob(golden_sequence(name), depth=20, alphabet_size=m) == pytest.approx(want, rel=1e-12)

    def test_normalises_binary(self):
        for depth in (0, 1, 2):
            for n in (1, 4, 6):
                total = sum(
                    2.0 ** log2_prob(list(seq), depth=depth)
                    for seq in product(range(2), repeat=n)
                )
                assert total == pytest.approx(1.0, abs=1e-9)

    def test_normalises_quaternary(self):
        for depth in (0, 1, 2):
            for n in (1, 3, 4):
                total = sum(
                    2.0 ** log2_prob(list(seq), depth=depth, alphabet_size=4)
                    for seq in product(range(4), repeat=n)
                )
                assert total == pytest.approx(1.0, abs=1e-9)

    def test_symbol_sequence_input(self, rng):
        for m in (2, 4):
            values = rng.integers(0, m, size=300).tolist()
            from_list = entropy_rate(values, depth=6, alphabet_size=m)
            from_int8 = entropy_rate(np.array(values, dtype=np.int8), depth=6, alphabet_size=m)
            from_sequence = entropy_rate(SymbolSequence("X", m, np.array(values)), depth=6)
            assert from_list == from_int8 == from_sequence
            assert from_sequence.alphabet_size == m

    def test_empty_sequence_rejected(self):
        with pytest.raises(ValueError, match="empty"):
            entropy_rate([], depth=2)

    def test_out_of_range_symbols_rejected(self):
        with pytest.raises(ValueError, match="out of range"):
            entropy_rate([0, 2], depth=2)
        with pytest.raises(ValueError, match="out of range"):
            entropy_rate([-1, 0], depth=2)
        with pytest.raises(ValueError, match="alphabet"):
            entropy_rate([0], depth=2, alphabet_size=3)


class TestPriorWeights:
    def test_binary_prior_sums_to_one_up_to_depth4(self):
        for depth in range(5):
            total = sum(prior_binary(s, depth) for s in enumerate_suffix_sets(depth, 2))
            assert total == 1

    def test_quaternary_prior_sums_to_one_up_to_depth2(self):
        for depth in range(3):
            total = sum(prior_mary(s, depth, 4) for s in enumerate_suffix_sets(depth, 4))
            assert total == 1

    def test_priors_agree_at_m2(self):
        for depth in range(4):
            for s in enumerate_suffix_sets(depth, 2):
                assert prior_binary(s, depth) == prior_mary(s, depth, 2)


class TestTreeStructure:
    """The per-depth count matrices that the fold reads."""

    def test_counts_sum_over_children(self, rng):
        seq = rng.integers(0, 4, size=80)
        levels = _context_counts(seq, 4, 4)
        assert levels[0][0].tolist() == [np.bincount(seq, minlength=4).tolist()]
        for (above, _), (counts, parent) in zip(levels, levels[1:]):
            summed = np.zeros_like(above)
            np.add.at(summed, parent, counts)
            assert np.array_equal(summed, above)
            assert counts.sum(axis=1).min() >= 1

    def test_node_budget_linear_in_length(self, rng):
        for seq, depth in ((rng.integers(0, 2, size=500), 8), (np.zeros(50, dtype=np.int64), 20)):
            levels = _context_counts(seq, depth, 2)
            contexts = {_padded_context(seq.tolist(), i, depth)[:d] for i in range(seq.size) for d in range(depth + 1)}
            assert sum(counts.shape[0] for counts, _ in levels) == len(contexts) <= seq.size * depth + 1

    def test_invalid_parameters(self):
        for depth in (-1, 2.5):
            with pytest.raises(ValueError, match="depth"):
                entropy_rate([0, 1], depth=depth)
        with pytest.raises(ValueError, match="alphabet"):
            entropy_rate([0, 1], depth=2, alphabet_size=3)
        with pytest.raises(ValueError, match="1-d"):
            entropy_rate([[0, 1]], depth=2)


class TestEntropyRate:
    def test_all_zeros_small(self):
        est = entropy_rate(np.zeros(1000, dtype=int), depth=20)
        assert est.value <= 0.02
        assert est.sequence_length == 1000
        assert est.alphabet_size == 2

    def test_alternating_quick(self):
        est = entropy_rate(np.arange(2000) % 2, depth=20)
        assert est.value <= 0.02

    def test_periodic_quaternary(self):
        est = entropy_rate(np.arange(4000) % 4, depth=10, alphabet_size=4)
        assert est.value <= 0.02

    def test_estimates_stay_under_certified_ceiling(self, rng):
        worst_cases = [
            np.zeros(5, dtype=int),
            np.ones(1, dtype=int),
            rng.integers(0, 2, size=17),
            np.array([0, 1] * 8),
        ]
        for seq in worst_cases:
            est = entropy_rate(seq, depth=6)
            assert 0.0 <= est.value <= certified_ceiling(2, len(seq))
        quaternary = rng.integers(0, 4, size=23)
        est = entropy_rate(quaternary, depth=4, alphabet_size=4)
        assert est.value <= certified_ceiling(4, 23)

    def test_out_of_bound_estimate_rejected(self):
        with pytest.raises(ValueError, match="outside"):
            EntropyEstimate(value=5.0, sequence_length=100, depth=4, alphabet_size=2)
        with pytest.raises(ValueError, match="outside"):
            EntropyEstimate(value=-0.1, sequence_length=100, depth=4, alphabet_size=2)

    def test_empty_rejected(self):
        with pytest.raises(ValueError, match="empty"):
            entropy_rate([], depth=4)
