"""Context-tree weighted entropy rates.

The tree mixes the add-half (Dirichlet(1/2,...)) estimates of every suffix
model up to a fixed depth. Each internal node weights its own estimate
against the product of its children's weighted probabilities with
coefficient 1/2, which realises a prior of 2^-(internal nodes + leaves
shorter than the depth bound) over suffix sets; for the binary alphabet
that is 2^(-|S|-N(S)+1). The first symbols of a sequence, which lack a full
past, are given the context of `depth` copies of symbol 0.

An add-half estimate depends only on a context's final symbol counts, so
the root's weighted probability is a fold over those counts; the sequence
is never replayed symbol by symbol. Per depth d = 1..depth, every position's
context is its depth d-1 context extended by the symbol d steps back, and
contexts are relabelled by rank among the pairs (parent, symbol) that
occur, so a label is always below n. Counting symbols per label gives that
depth's count matrix. Each count matrix holds only contexts that occur, and
each estimate is read from two cumulative log2 tables built per call. The
fold then runs bottom-up in log2 arithmetic: P_w = (P_e + prod(children)) / 2,
with P_w = P_e at the depth bound. -(1/n) log2 of the root's P_w is the
entropy-rate estimate in bits per symbol.

Cost is O(depth * m * n) time for alphabet size m, and O(tree nodes)
memory, where the tree has at most n*depth + 1 nodes; no node is created
for a context that does not occur, and no linear-domain probability is
ever formed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .quantise import SUPPORTED_ALPHABETS, SymbolSequence

DEFAULT_DEPTH = 20


def _context_counts(symbols: np.ndarray, depth: int, m: int) -> list[tuple[np.ndarray, np.ndarray]]:
    """Per depth 0..depth, the symbol counts of each context that occurs
    (one row per context) and each context's row at the depth above."""
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


def _log2_mixture_probability(symbols: np.ndarray, depth: int, m: int) -> float:
    steps = np.arange(symbols.size, dtype=np.float64)
    # log2 of the add-half numerator and denominator after c symbols
    half = np.concatenate(([0.0], np.cumsum(np.log2(steps + 0.5))))
    total = np.concatenate(([0.0], np.cumsum(np.log2(steps + 0.5 * m))))
    weighted = child_parents = None
    for counts, parents in reversed(_context_counts(symbols, depth, m)):
        estimated = half[counts].sum(axis=1) - total[counts.sum(axis=1)]
        if weighted is not None:  # below the depth bound: mix with the children
            children = np.bincount(child_parents, weights=weighted, minlength=estimated.size)
            estimated = np.logaddexp2(estimated, children) - 1.0
        weighted, child_parents = estimated, parents
    return float(weighted[0])


def certified_ceiling(alphabet_size: int, n: int) -> float:
    """Worst-case bits/symbol the estimator can report for length n."""
    m = alphabet_size
    return math.log2(m) + ((m - 1) / 2 * math.log2(n) + m + 1) / n


@dataclass(frozen=True)
class EntropyEstimate:
    """Entropy rate in bits per symbol with the run's parameters."""

    value: float
    sequence_length: int
    depth: int
    alphabet_size: int

    def __post_init__(self):
        ceiling = certified_ceiling(self.alphabet_size, self.sequence_length)
        if not 0.0 <= self.value <= ceiling:
            raise ValueError(
                f"estimate {self.value} outside [0, {ceiling}] for "
                f"n={self.sequence_length}, m={self.alphabet_size}"
            )


def entropy_rate(
    seq, depth: int = DEFAULT_DEPTH, alphabet_size: int | None = None
) -> EntropyEstimate:
    """-(1/n) log2 of the mixture probability: 0 is fully predictable,
    ~1 is unpredictable binary, ~2 unpredictable quaternary.

    A SymbolSequence brings its own alphabet size; any other sequence of
    symbols uses `alphabet_size`, binary when it is None."""
    if isinstance(seq, SymbolSequence):
        m, symbols = seq.alphabet_size, seq.symbols
    else:
        m = 2 if alphabet_size is None else alphabet_size
        symbols = np.ascontiguousarray(seq, dtype=np.int64)
    if m not in SUPPORTED_ALPHABETS:
        raise ValueError(f"alphabet size must be one of {SUPPORTED_ALPHABETS}")
    if int(depth) != depth or depth < 0:
        raise ValueError("depth must be a non-negative integer")
    if symbols.ndim != 1:
        raise ValueError("symbols must be 1-d")
    n = symbols.size
    if n == 0:
        raise ValueError("cannot estimate the entropy of an empty sequence")
    if symbols.min() < 0 or symbols.max() >= m:
        raise ValueError(f"symbols out of range for alphabet size {m}")
    log_prob = _log2_mixture_probability(symbols, int(depth), m)
    return EntropyEstimate(
        value=-log_prob / n, sequence_length=n, depth=int(depth), alphabet_size=m
    )
