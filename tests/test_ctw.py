"""Context-tree estimator against exact enumeration, closed forms, golden
values of the earlier streaming implementation, and, bit for bit, the
relabelling kernel that the sorted-history kernel replaced."""

from __future__ import annotations

import math
import time
import tracemalloc
from itertools import product

import numpy as np
import pytest

from voho import ctw
from voho.homogenise import decompose, skeleton_to_symbols
from voho.ingest import SyntheticSpec, generate_synthetic_path
from voho.ctw import EntropyEstimate, _context_blocks, _log2_mixture_probability, certified_ceiling, entropy_rate

from ctw_oracle import (
    _padded_context,
    enumerate_suffix_sets,
    kt_prob_from_counts,
    mixture_probability,
    prior_binary,
    prior_mary,
    recursive_weighted_probability,
)


def log2_prob(seq, depth: int, alphabet_size: int = 2) -> float:
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


def relabel_context_counts(symbols: np.ndarray, depth: int, m: int) -> list[tuple[np.ndarray, np.ndarray]]:
    """The relabelling kernel, kept as the reference: per depth 0..depth,
    the symbol counts of each context that occurs (one row per context) and
    each context's row at the depth above. Each depth relabels every
    position by rank among the (parent, symbol) pairs that occur."""
    labels = np.zeros(symbols.size, dtype=np.int64)
    levels = [(np.bincount(symbols, minlength=m).reshape(1, m), np.zeros(1, dtype=np.int64))]
    for d in range(1, depth + 1):
        pairs = labels * m
        pairs[d:] += symbols[:-d]  # both empty once d >= n: the padding is zeros
        occurs = np.zeros(levels[-1][0].shape[0] * m, dtype=bool)
        occurs[pairs] = True
        labels = (np.cumsum(occurs) - 1)[pairs]
        kept = np.flatnonzero(occurs)
        counts = np.bincount(labels * m + symbols, minlength=kept.size * m).reshape(kept.size, m)
        levels.append((counts, kept // m))
    return levels


def relabel_log2_probability(symbols: np.ndarray, depth: int, m: int) -> float:
    """The fold over the reference kernel's count matrices."""
    steps = np.arange(symbols.size, dtype=np.float64)
    half = np.concatenate(([0.0], np.cumsum(np.log2(steps + 0.5))))
    total = np.concatenate(([0.0], np.cumsum(np.log2(steps + 0.5 * m))))
    weighted = child_parents = None
    for counts, parents in reversed(relabel_context_counts(symbols, depth, m)):
        estimated = half[counts].sum(axis=1) - total[counts.sum(axis=1)]
        if weighted is not None:
            children = np.bincount(child_parents, weights=weighted, minlength=estimated.size)
            estimated = np.logaddexp2(estimated, children) - 1.0
        weighted, child_parents = estimated, parents
    return float(weighted[0])


def sorted_kernel_levels(symbols: np.ndarray, depth: int, m: int) -> list[tuple[np.ndarray, np.ndarray]]:
    """The blocks of the sorted-history kernel as the reference's per-depth
    (counts, parents) pairs, for the depths 0..L it builds, L <= depth."""
    levels = {}
    for depths, offsets, counts, parents in _context_blocks(symbols, depth, m):
        for i, d in enumerate(depths):
            rows = slice(offsets[i], offsets[i + 1])
            levels[d] = (np.stack([c[rows] for c in counts], axis=1), parents[rows])
    assert sorted(levels) == list(range(len(levels))) and len(levels) <= depth + 1
    return [levels[d] for d in range(len(levels))]


def differential_sequence(kind: str, n: int, m: int, seed: int) -> np.ndarray:
    words = splitmix64(n, seed)
    if kind == "random":
        return (words % np.uint64(m)).astype(np.int64)
    if kind == "runs":  # runs of 1 to 8 equal symbols
        lengths = 1 + (words % np.uint64(8)).astype(np.int64)
        return np.repeat((words >> np.uint64(32)) % np.uint64(m), lengths)[:n].astype(np.int64)
    if kind == "constant":
        return np.full(n, seed % m, dtype=np.int64)
    # sparse: zeros with about one symbol in 32 drawn at random
    return np.where(words % np.uint64(32) == 0, (words >> np.uint64(32)) % np.uint64(m), 0).astype(np.int64)


DIFFERENTIAL_KINDS = ("random", "runs", "constant", "sparse")


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
            assert from_list == from_int8
            assert from_int8.alphabet_size == m

    def test_empty_sequence_rejected(self):
        with pytest.raises(ValueError, match="empty"):
            entropy_rate([], depth=2)

    def test_integer_valued_inputs_accepted(self):
        want = entropy_rate([0, 1, 1, 0, 1, 1], depth=2)
        for seq in (
            np.array([0, 1, 1, 0, 1, 1]),
            np.array([0, 1, 1, 0, 1, 1], dtype=np.uint8),
            [False, True, True, False, True, True],
            [0.0, 1.0, 1.0, 0.0, 1.0, 1.0],
            np.array([0, 1, 1, 0, 1, 1], dtype=np.float32),
        ):
            assert entropy_rate(seq, depth=2) == want

    def test_fractional_symbols_rejected_not_truncated(self):
        # truncated, [0.5, 1.7, 0.2, 1.9] would read as [0, 1, 0, 1]
        for seq in ([0.5, 1.7, 0.2, 1.9], [0.0, 1.0 + 1e-9]):
            with pytest.raises(ValueError, match="whole numbers"):
                entropy_rate(seq, depth=2)

    def test_nan_and_infinite_symbols_rejected(self):
        for seq in ([0.0, np.nan], [np.inf, 0.0], [1.0, -np.inf]):
            with pytest.raises(ValueError, match="whole numbers"):
                entropy_rate(seq, depth=2)

    def test_whole_but_huge_float_is_out_of_range_not_cast(self):
        with pytest.raises(ValueError, match="out of range"):
            entropy_rate([1e300, 0.0], depth=2)

    def test_non_numeric_symbols_rejected(self):
        for seq in (["0", "1"], [0, None], [0j, 1j]):
            with pytest.raises(ValueError, match="integers"):
                entropy_rate(seq, depth=2)

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
    """The per-depth contexts that the fold reads."""

    def test_counts_sum_over_children(self, rng):
        seq = rng.integers(0, 4, size=80)
        levels = sorted_kernel_levels(seq, 4, 4)
        assert levels[0][0].tolist() == [np.bincount(seq, minlength=4).tolist()]
        for (above, _), (counts, parent) in zip(levels, levels[1:]):
            summed = np.zeros_like(above)
            np.add.at(summed, parent, counts)
            assert np.array_equal(summed, above)
            assert counts.sum(axis=1).min() >= 1

    def test_node_budget_linear_in_length(self, rng):
        for seq, depth in ((rng.integers(0, 2, size=500), 8), (np.zeros(50, dtype=np.int64), 20)):
            levels = sorted_kernel_levels(seq, depth, 2)
            end = len(levels) - 1  # the tree's end: contexts split no deeper
            contexts = {_padded_context(seq.tolist(), i, depth)[:d] for i in range(seq.size) for d in range(end + 1)}
            assert sum(counts.shape[0] for counts, _ in levels) == len(contexts) <= seq.size * end + 1

    def test_invalid_parameters(self):
        for depth in (-1, 2.5):
            with pytest.raises(ValueError, match="depth"):
                entropy_rate([0, 1], depth=depth)
        with pytest.raises(ValueError, match="alphabet"):
            entropy_rate([0, 1], depth=2, alphabet_size=3)
        with pytest.raises(ValueError, match="1-d"):
            entropy_rate([[0, 1]], depth=2)


class TestAgainstRelabellingKernel:
    """The sorted-history kernel gives the relabelling kernel's contexts,
    counts and parents, and so its estimate bit for bit."""

    @staticmethod
    def assert_same(seq: np.ndarray, depth: int, m: int) -> None:
        want = relabel_context_counts(seq, depth, m)
        got = sorted_kernel_levels(seq, depth, m)
        for d, ((want_counts, want_parents), (counts, parents)) in enumerate(zip(want, got)):
            assert np.array_equal(counts, want_counts), (seq.size, depth, m, d)
            assert np.array_equal(parents, want_parents), (seq.size, depth, m, d)
        # the kernel ends at the deepest depth where a context splits:
        # every deeper reference context is its parent's one child
        end = len(got) - 1
        assert end == 0 or got[end][0].shape[0] > got[end - 1][0].shape[0], (seq.size, depth, m)
        for d in range(end + 1, depth + 1):
            (above, _), (counts, parents) = want[d - 1], want[d]
            assert np.array_equal(parents, np.arange(above.shape[0])), (seq.size, depth, m, d)
            assert np.array_equal(counts, above), (seq.size, depth, m, d)
        assert _log2_mixture_probability(seq, depth, m) == relabel_log2_probability(seq, depth, m)

    @pytest.mark.parametrize("m", [2, 4])
    @pytest.mark.parametrize("kind", DIFFERENTIAL_KINDS)
    def test_lengths_up_to_2000_and_depths_up_to_70(self, kind, m):
        for case in range(12):
            words = splitmix64(2, 1000 * m + 100 * DIFFERENTIAL_KINDS.index(kind) + case)
            n = 1 + int(words[0] % np.uint64(2000))
            depth = int(words[1] % np.uint64(71))
            self.assert_same(differential_sequence(kind, n, m, case), depth, m)

    @pytest.mark.parametrize("m, depths", [(2, (62, 63, 64, 65, 70, 129)), (4, (30, 31, 32, 33, 40, 70))])
    def test_histories_longer_than_one_key(self, m, depths):
        for kind in DIFFERENTIAL_KINDS:
            seq = differential_sequence(kind, 600, m, 5)
            for depth in depths:
                self.assert_same(seq, depth, m)

    @pytest.mark.parametrize("m", [2, 4])
    def test_depth_at_least_length(self, m):
        for kind in DIFFERENTIAL_KINDS:
            for n in (1, 2, 3, 17, 40):
                seq = differential_sequence(kind, n, m, n)
                for depth in (n - 1, n, n + 1, 2 * n + 5, 70):
                    self.assert_same(seq, depth, m)

    @pytest.mark.parametrize("m", [2, 4])
    def test_many_small_blocks(self, monkeypatch, m):
        # with no cells beyond one per symbol, deep depths take a block each
        monkeypatch.setattr(ctw, "BLOCK_CELLS", 0)
        for kind in DIFFERENTIAL_KINDS:
            for n, depth in ((1, 5), (30, 70), (500, 20), (1500, 33)):
                self.assert_same(differential_sequence(kind, n, m, 3), depth, m)

    def test_workload_like_sequences(self):
        for name, (m, _) in GOLDEN_LOG2_PROB.items():
            self.assert_same(golden_sequence(name), 20, m)


class TestTreeEnd:
    """The tree ends at the deepest depth where a context splits."""

    def test_fold_identities_that_end_the_tree(self):
        # a context with one child of its own counts mixes to
        # logaddexp2(x, x) - 1 = (x + 1) - 1, which is x for every estimate
        # x <= -1 of a magnitude below 2**52
        words = splitmix64(4096, 17)
        mantissas = 1.0 + (words >> np.uint64(11)).astype(np.float64) / 2.0**53
        scaled = np.ldexp(mantissas, (words % np.uint64(52)).astype(np.int64))
        x = -np.concatenate(([1.0, np.nextafter(1.0, 2.0), 2.0], scaled))
        assert np.array_equal(np.logaddexp2(x, x), x + 1.0)
        assert np.array_equal((x + 1.0) - 1.0, x)

    @pytest.mark.parametrize("m", [2, 4])
    def test_depth_far_beyond_length_is_depth_n_minus_1(self, m):
        seq = differential_sequence("random", 3000, m, 7)
        start = time.perf_counter()
        huge = entropy_rate(seq, depth=10**8, alphabet_size=m)
        elapsed = time.perf_counter() - start
        assert huge.value == entropy_rate(seq, depth=seq.size - 1, alphabet_size=m).value
        assert huge.depth == 10**8
        assert elapsed < 1.0

    def test_history_sort_is_bounded_before_it_starts(self):
        # depth >= n sorts n - 1 symbols of history: 3125 keys of 200k words
        seq = np.zeros(200_000, dtype=np.int64)
        tracemalloc.start()
        try:
            with pytest.raises(ValueError, match="depth 10000000 over 200000 symbols sorts 625000000 words"):
                entropy_rate(seq, depth=10**7)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2**20

    def test_sort_bound_counts_n_words_per_key(self, monkeypatch):
        seq = differential_sequence("random", 600, 2, 5)  # depth 129: three keys of 64 symbols
        monkeypatch.setattr(ctw, "MAX_SORT_WORDS", 3 * 600)
        entropy_rate(seq, depth=129)
        monkeypatch.setattr(ctw, "MAX_SORT_WORDS", 3 * 600 - 1)
        with pytest.raises(ValueError, match="sorts 1800 words"):
            entropy_rate(seq, depth=129)


class TestMemory:
    @pytest.mark.parametrize("m, n, limit_mib", [(4, 100_000, 64), (2, 200_000, 31)])
    def test_peak_is_bounded_by_the_blocks(self, m, n, limit_mib):
        # the relabelling kernel peaked at 55.3 and 26.8 MiB here; building
        # every depth at once would peak far above the limits
        seq = (splitmix64(n, 11) % np.uint64(m)).astype(np.int64)
        tracemalloc.start()
        try:
            entropy_rate(seq, depth=20, alphabet_size=m)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= limit_mib * 2**20


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


def jump_skeleton_symbols(jump_multiple: int, events: int) -> np.ndarray:
    """The skeleton at 0.5 of a jump path that moves +-jump_multiple * 0.5
    every step: blocks of jump_multiple equal symbols with i.i.d. fair signs,
    so the source's entropy rate is 1 / jump_multiple bits per symbol."""
    spec = SyntheticSpec(
        kind="jump", n=events // jump_multiple + 1, jump_prob=1.0, jump_multiple=jump_multiple,
        delta=0.5, start=1e6, seed=7,
    )
    symbols = skeleton_to_symbols(decompose(generate_synthetic_path(spec).prices, 0.5))
    assert symbols.size == jump_multiple * (spec.n - 1)
    return symbols


# P(s[i] = 1 | s[i-1], s[i-2]), indexed 2 * s[i-1] + s[i-2]: the contexts
# s[i-2] s[i-1] = 00, 10, 01, 11 give 0.9, 0.6, 0.3, 0.2
MARKOV_P1 = np.array([0.9, 0.6, 0.3, 0.2])


def markov_symbols(n: int) -> np.ndarray:
    """An order-2 binary Markov chain from default_rng(3), started from the
    past 00 that the estimator pads with."""
    draws = np.random.default_rng(3).random(n).tolist()
    p1 = MARKOV_P1.tolist()
    out, context = [0] * n, 0
    for i, u in enumerate(draws):
        out[i] = int(u < p1[context])
        context = 2 * out[i] + (context >> 1)
    return np.array(out, dtype=np.int64)


def markov_entropy_rate() -> float:
    """sum over contexts of pi(context) * h(P(1 | context)), pi the
    stationary law of the chain on contexts (s[i-1], s[i-2])."""
    transitions = np.zeros((4, 4))
    for context, p in enumerate(MARKOV_P1):
        older = context >> 1  # s[i-1] becomes s[i-2]
        transitions[context, 2 + older] = p
        transitions[context, older] = 1.0 - p
    values, vectors = np.linalg.eig(transitions.T)
    pi = np.real(vectors[:, np.argmin(np.abs(values - 1.0))])
    pi /= pi.sum()
    h = -MARKOV_P1 * np.log2(MARKOV_P1) - (1 - MARKOV_P1) * np.log2(1 - MARKOV_P1)
    return float(pi @ h)


def redundancy_bound_bits(symbols: np.ndarray, order: int, p1: np.ndarray | None, depth: int = 20) -> float:
    """The redundancy theorem of Willems, Shtarkov and Tjalkens (1995) for
    binary CTW at `depth`, against the complete tree S of every context of
    `order` <= depth symbols (the zero-padded past, as the estimator reads
    it): the code length -log2 P_w is at most

        the code length under S with P(1 | s) = p1[s]
        (with the maximum-likelihood p1 when p1 is None)
        + Gamma_D(S) = |S| - 1 + |{s in S: l(s) < D}|
        + sum over s in S of gamma(n_s), gamma(0) = 0 and
          gamma(k) = log2(k) / 2 + 1 for k >= 1,

    the last from the add-half estimate's bound against any parameter."""
    n = symbols.size
    padded = np.concatenate((np.zeros(order, np.int64), symbols))
    context = np.zeros(n, np.int64)
    for back in range(1, order + 1):  # s[i-1] the most significant bit
        context = 2 * context + padded[order - back: order - back + n]
    counts = np.bincount(2 * context + symbols, minlength=2 ** (order + 1)).reshape(-1, 2).astype(float)
    totals = counts.sum(axis=1)
    if p1 is None:
        p1 = np.divide(counts[:, 1], totals, out=np.zeros_like(totals), where=totals > 0)
    with np.errstate(divide="ignore", invalid="ignore"):  # log2(0), and 0 * -inf where nothing was counted
        terms = counts * np.stack((np.log2(1.0 - p1), np.log2(p1)), axis=1)
    source_bits = -float(np.sum(terms, where=counts > 0))
    leaves = 2**order
    gamma_tree = leaves - 1 + (leaves if order < depth else 0)
    gamma_counts = float(np.sum(np.where(totals > 0, np.log2(np.maximum(totals, 1.0)) / 2 + 1, 0.0)))
    return source_bits + gamma_tree + gamma_counts


class TestKnownAnswers:
    @pytest.mark.parametrize("jump_multiple", [2, 3, 5])
    def test_jump_skeleton_converges_to_one_over_the_multiple_from_above(self, jump_multiple):
        rate = 1.0 / jump_multiple
        estimates = [entropy_rate(jump_skeleton_symbols(jump_multiple, events)).value for events in (2000, 10000)]
        assert rate < estimates[1] < estimates[0]
        # depth 20 cannot always tell a block's end (a run may span several
        # blocks), so the excess over 1/J shrinks slowly: measured 0.017,
        # 0.025 and 0.048 bits per symbol at 10k events for J = 2, 3, 5;
        # margin 0.06 bits per symbol
        assert estimates[1] - rate < 0.06

    def test_order_two_markov_chain_converges_to_its_rate(self):
        rate = markov_entropy_rate()
        assert rate == pytest.approx(0.82690, abs=5e-6)
        symbols = markov_symbols(100_000)
        estimates = []
        for n in (1000, 10_000, 100_000):
            estimate = entropy_rate(symbols[:n]).value
            estimates.append(estimate)
            # margin: 4 standard deviations of the source's code length per
            # symbol (sigma < 0.6 bit, 0.54 simulated) below the rate, and
            # as much plus the redundancy bound per symbol above it, with
            # Gamma_D(S) = 7 bits and sum gamma(n_s) <= 4 * gamma(n / 4)
            noise = 4 * 0.6 / math.sqrt(n)
            redundancy = (7 + 4 * (math.log2(n / 4) / 2 + 1)) / n
            assert rate - noise < estimate < rate + noise + redundancy, n
        assert estimates == sorted(estimates, reverse=True)  # 0.8490, 0.8340, 0.8282

    @pytest.mark.parametrize(
        "symbols, order, p1",
        [
            *((markov_symbols(n), 2, MARKOV_P1) for n in (10, 1000, 10_000, 100_000)),
            *((jump_skeleton_symbols(j, events), j, None) for j in (2, 3, 5) for events in (2000, 10000)),
            (np.zeros(500, dtype=np.int64), 0, None),
            (np.arange(300) % 2, 1, None),
        ],
        ids=[
            *(f"markov-{n}" for n in (10, 1000, 10_000, 100_000)),
            *(f"jump{j}-{events}" for j in (2, 3, 5) for events in (2000, 10000)),
            "constant", "alternating",
        ],
    )
    def test_code_length_is_within_the_redundancy_bound(self, symbols, order, p1):
        # an exact bound on every sequence: no statistical slack
        code_length = -_log2_mixture_probability(symbols, 20, 2)
        assert code_length <= redundancy_bound_bits(symbols, order, p1)
