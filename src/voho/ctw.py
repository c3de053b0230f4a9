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
is never replayed symbol by symbol. Each position's history s[i-1], s[i-2],
..., s[i-depth] is packed into an unsigned key, s[i-1] the most significant
digit of log2(m) bits and the missing past zeros, and the positions are
sorted once: np.sort on one key of up to 52 bits holding the history and
then the symbol while they fit, np.lexsort on several keys otherwise. The
contexts at depth d are the runs of sorted positions whose histories agree
on their first d symbols, so a boundary between sorted neighbours is born
at depth (symbols they share) + 1, read from the bit length of the XOR of
their keys: below 2**53 it converts to float64 exactly, and frexp's
exponent is its bit length. From those birth depths the contexts of a block
of consecutive depths are built at once, in the lexicographic order of
(s[i-1], ..., s[i-d]): the rows of each depth, each row's symbol counts as
differences of running counts over the sorted positions, each row's parent
at the depth above, and each row's estimate, read from two cumulative log2
tables built per call. The fold then runs bottom-up in log2 arithmetic, one
depth at a time: P_w = (P_e + prod(children)) / 2, with P_w = P_e at the
depth bound. -(1/n) log2 of the root's P_w is the entropy-rate estimate in
bits per symbol.

The tree ends at depth L <= depth, the deepest depth where a context
splits (0 if none does). Below L each context has one child with its own
counts, and logaddexp2(x, x) - 1 == x for every estimate x <= -1, so the
fold would give each context its own estimate there. Cost is
O(n log n + L * n) time: the sort, then at most n contexts per depth.
Memory is O(n + tree nodes), and in practice O(n): the tree has up to
n*L + 1 nodes, but only one block of them is held at a time, and a block
spans at most n + BLOCK_CELLS (depth, context) cells unless one depth alone
needs more. The sort's history keys, n words each, are bounded by
MAX_SORT_WORDS before any is built. No node is created for a context that
does not occur, and no linear-domain probability is ever formed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .quantise import SUPPORTED_ALPHABETS

DEFAULT_DEPTH = 20
# bits of one sort key; a longer history and its symbol are sorted on several
# keys. At 52 every key, and every XOR of two, is exact as a float64
KEY_BITS = 52
# cells (depths x rows) of one block of contexts beyond one per symbol
BLOCK_CELLS = 65_536
# uint64 words of history keys that one sort may build, n per key: 2**25
# words are 256 MiB, and lexsort's sorted copies double that
MAX_SORT_WORDS = 2**25


def _history_keys(padded: np.ndarray, length: int, bits: int) -> np.ndarray:
    """Entry t: padded[t+length-1], ..., padded[t] as the digits of one
    uint64, `bits` bits each and the first the most significant. The
    histories double in length per pass."""
    piece, size, keys = padded, 1, None
    while True:
        if length & size:  # `keys` so far are the newer digits, `piece` the older
            keys = piece if keys is None else (keys[size:] << np.uint64(size * bits)) | piece[: keys.size - size]
        if 2 * size > length:
            return keys
        piece = (piece[size:] << np.uint64(size * bits)) | piece[: piece.size - size]
        size *= 2


def _sort_histories(symbols: np.ndarray, width: int, m: int) -> tuple[list[np.ndarray], np.ndarray]:
    """Sort the positions by their histories s[i-1], s[i-2], ..., s[i-width].
    Return, per symbol a > 0, its running count over the sorted positions
    (n + 1 entries, from 0), and per sorted position the depth from which it
    begins a context: 0 for the first, and for the others one more than the
    symbols their history shares with the one before, or width + 1 if it
    shares all."""
    n = symbols.size
    counter = np.min_scalar_type(-n - 1)  # the narrowest signed type that holds n
    births = np.full(n, width + 1, dtype=np.min_scalar_type(width + 1))
    births[0] = 0
    bits = m.bit_length() - 1
    per_key = KEY_BITS // bits
    # histories reach `width` symbols back, into the zeros of the missing past
    padded = np.concatenate((np.zeros(width, np.uint64), symbols[:-1].astype(np.uint64)))
    if width < per_key:  # history and symbol fit one key, so the keys themselves are sorted
        packed = _history_keys(padded, width, bits)[:n] if width else np.zeros(n, np.uint64)
        packed <<= np.uint64(bits)
        packed |= symbols.astype(np.uint64)
        packed.sort()
        ranked = packed & np.uint64(m - 1)
        spans, keys = [(0, width + 1)], [packed]  # the symbol is the digit past the history
    else:
        spans = [(first, min(first + per_key, width)) for first in range(0, width, per_key)]
        keys = [_history_keys(padded, last - first, bits)[width - last: width - last + n] for first, last in spans]
        order = np.lexsort(keys[::-1])
        ranked = symbols[order]
        keys = [key[order] for key in keys]
    del padded
    running = [np.cumsum(np.concatenate(([False], ranked == a)), dtype=counter) for a in range(1, m)]
    del ranked
    for (first, last), key in reversed(list(zip(spans, keys))):  # the newest key that differs decides
        differ = np.frexp((key[1:] ^ key[:-1]).astype(np.float64))[1]  # bit lengths, 0 for 0
        np.copyto(births[1:], last + 1 - (differ + bits - 1) // bits, where=differ > 0, casting="unsafe")
    return running, births


def _context_blocks(symbols: np.ndarray, depth: int, m: int):
    """Sort the histories, then return an iterator over the contexts of each
    depth up to the tree's end, deepest first, in blocks of consecutive
    depths. A block is (depths, offsets, counts, parents): rows
    offsets[i]:offsets[i+1] are the contexts of depth depths[i] in
    lexicographic order, counts[a] holds each row's count of symbol a, and
    parents each row's row at the depth above (0 at depth 0). A block's mask
    has a row per depth, one more for the depth above, and a column per
    context of its deepest depth; it holds at most n + BLOCK_CELLS cells
    unless one depth alone needs more. ValueError, before any key is built,
    when the keys would exceed MAX_SORT_WORDS words."""
    n = symbols.size
    width = min(depth, n - 1)  # past that depth every history is padding
    words = n * max(1, -(-width // (KEY_BITS // (m.bit_length() - 1))))
    if words > MAX_SORT_WORDS:
        raise ValueError(
            f"depth {depth} over {n} symbols sorts {words} words of history keys, "
            f"more than the limit of {MAX_SORT_WORDS}"
        )
    running, births = _sort_histories(symbols, width, m)
    end = int(np.max(births, where=births <= width, initial=0))  # the deepest split
    rows_at = np.cumsum(np.bincount(births))  # rows at each depth up to width
    bounds = []
    hi = end + 1
    while hi > 0:
        lo = max(0, hi - max(1, (n + BLOCK_CELLS) // rows_at[hi - 1] - 1))
        bounds.append((lo, hi))
        hi = lo
    return (_block(lo, hi, births, running, rows_at) for lo, hi in bounds)


def _block(lo: int, hi: int, births: np.ndarray, running: list[np.ndarray], rows_at: np.ndarray):
    """The block of depths lo..hi-1, whose contexts begin at some of the
    sorted positions where the contexts of depth hi-1 begin."""
    n = births.size
    depths = np.arange(lo - 1, hi)  # and the depth above, for the parents
    rows = rows_at[depths[1:]]
    starts = np.flatnonzero(births <= depths[-1]).astype(running[0].dtype)  # in the counters' type
    # cell (i, j): sorted position starts[j] begins a context at depth depths[i]
    cells = (births[starts] <= depths[:, None]).ravel()
    taken = np.flatnonzero(cells[starts.size:])
    columns = taken - np.repeat(np.arange(rows.size) * starts.size, rows)
    offsets = np.concatenate(([0], np.cumsum(rows)))
    last = offsets[1:] - 1
    counts = []
    for before, total in [(starts, n)] + [(r[starts], r[n]) for r in running]:
        at = before[columns]
        count = np.empty_like(at)
        count[:-1] = at[1:]
        count[last] = total
        count -= at
        counts.append(count)
    for count in counts[1:]:  # counts[0] held every symbol
        counts[0] -= count
    above = np.cumsum(cells[taken], dtype=starts.dtype)  # rows that begin a context at the depth above
    parents = above - np.repeat(above[offsets[:-1]], rows)
    return range(lo, hi), offsets, counts, parents


def _log2_mixture_probability(symbols: np.ndarray, depth: int, m: int) -> float:
    blocks = _context_blocks(symbols, depth, m)
    steps = np.arange(symbols.size, dtype=np.float64)
    # log2 of the add-half numerator and denominator after c symbols
    half = np.concatenate(([0.0], np.cumsum(np.log2(steps + 0.5))))
    total = np.concatenate(([0.0], np.cumsum(np.log2(steps + 0.5 * m))))
    weighted = child_parents = None
    for depths, offsets, counts, parents in blocks:
        estimates = half[counts[0]]
        for count in counts[1:]:  # symbol by symbol, the order in which numpy sums a row
            estimates += half[count]
        estimates -= total[sum(counts)]
        for i in reversed(range(len(depths))):
            estimated = estimates[offsets[i]:offsets[i + 1]]
            if weighted is not None:  # below the depth bound: mix with the children
                children = np.bincount(child_parents, weights=weighted, minlength=estimated.size)
                estimated = np.logaddexp2(estimated, children) - 1.0
            weighted, child_parents = estimated, parents[offsets[i]:offsets[i + 1]]
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


def entropy_rate(seq, depth: int = DEFAULT_DEPTH, alphabet_size: int = 2) -> EntropyEstimate:
    """-(1/n) log2 of the mixture probability: 0 is fully predictable,
    ~1 is unpredictable binary, ~2 unpredictable quaternary.

    `seq` is a 1-d sequence of integer symbols in [0, alphabet_size), such
    as the uint8 arrays `quantile_bins` and `skeleton_to_symbols` return.
    Integer or bool arrays only, bools read as 0 and 1; floats are refused."""
    m = alphabet_size
    values = np.asarray(seq)
    if m not in SUPPORTED_ALPHABETS:
        raise ValueError(f"alphabet size must be one of {SUPPORTED_ALPHABETS}")
    if isinstance(depth, (bool, np.bool_)) or int(depth) != depth or depth < 0:
        raise ValueError("depth must be a non-negative integer")
    if values.ndim != 1:
        raise ValueError("symbols must be 1-d")
    n = values.size
    if n == 0:
        raise ValueError("cannot estimate the entropy of an empty sequence")
    if values.dtype.kind not in "biu":
        raise ValueError(f"symbols must be integers, not {values.dtype}")
    if values.min() < 0 or values.max() >= m:
        raise ValueError(f"symbols out of range for alphabet size {m}")
    log_prob = _log2_mixture_probability(values, int(depth), m)
    return EntropyEstimate(
        value=-log_prob / n, sequence_length=n, depth=int(depth), alphabet_size=m
    )
