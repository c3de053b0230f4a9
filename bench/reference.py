"""Independent expected outputs for a workload, and the check against them.

The reference recomputes the study's estimates from the workload's price
series with code that shares nothing with `voho`:

* eligibility, log returns and equal-count bins from their definitions;
* the delta-skeleton as the sequence of whole steps the path moves away
  from its current level, one loop over samples;
* the CTW entropy rate in batch form: symbol counts per context at every
  depth, add-half likelihoods from cumulative log tables, folded bottom-up
  with P_w = (P_e + prod P_w(children)) / 2 (Willems, Shtarkov and
  Tjalkens, 1995).  The same pass counts the tree's nodes, one per
  distinct context at depths 0..D.

entropy.csv is checked against those estimates.  The aggregate files (KDE
curves, correlations, scatter, per-delta means) are checked against the
reference aggregation of the estimates the program itself wrote: a KDE
over nearly equal values magnifies an estimate's last-digit difference by
the inverse of the bandwidth, so aggregating the reference estimates would
make the check fail on a correct program.

Non-float cells must match exactly; float cells within RTOL relative.  A
batch CTW evaluation differs from the streaming one by under 1e-12.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from workloads import Workload

RTOL = 1e-9
ABS_TOL = 1e-12
KDE_POINTS = 512
KDE_PAD = 3.0
ENTROPY_HEADER = ["instrument", "variant", "n", "depth", "alphabet", "entropy_bits_per_symbol"]

Estimates = dict[str, dict[str, tuple[int, float]]]  # instrument -> variant -> (n, bits per symbol)


@dataclass
class Expected:
    estimates: Estimates
    order: list[str]  # variant order of the output files
    deltas: list[float]
    depth: int
    counts: dict  # exact work counts

    @property
    def rows(self) -> list[tuple[str, str]]:
        """(instrument, variant) of every estimate, in entropy.csv order."""
        return [(i, v) for i, row in self.estimates.items() for v in self.order if v in row]


def _cut_points(values: np.ndarray, m: int) -> np.ndarray:
    ordered = np.sort(values)
    n = ordered.size
    return np.array([ordered[math.ceil(k * n / m) - 1] for k in range(1, m)])


def equal_count_symbols(returns: np.ndarray, m: int) -> np.ndarray:
    """Symbol = number of cut points strictly below the value."""
    cuts = _cut_points(returns, m)
    return (returns[:, None] > cuts[None, :]).sum(axis=1).astype(np.int64)


def skeleton_moves(prices: np.ndarray, delta: float) -> np.ndarray:
    """1 for each step up, 0 for each step down, in event order.

    The level starts at the first price; whenever a sample ends one or
    more whole steps away from the level, the level follows it by that
    many steps.
    """
    u = ((prices - prices[0]) / delta).tolist()
    k = 0
    moves: list[int] = []
    for x in u:
        gap = x - k
        if gap >= 1.0:
            c = int(gap)
            moves.extend([1] * c)
            k += c
        elif gap <= -1.0:
            c = int(-gap)
            moves.extend([0] * c)
            k -= c
    return np.asarray(moves, dtype=np.int64)


def context_codes(symbols: np.ndarray, m: int, depth: int) -> list[np.ndarray]:
    """Per depth d, the code of each position's d preceding symbols (most
    recent first, missing past read as zeros); the parent of a depth-(d+1)
    code c is c % m**d."""
    n = symbols.size
    padded = np.concatenate([np.zeros(depth, dtype=np.int64), symbols])
    codes = [np.zeros(n, dtype=np.int64)]
    for d in range(1, depth + 1):
        codes.append(codes[-1] + padded[depth - d: depth - d + n] * m ** (d - 1))
    return codes


def count_contexts(symbols: np.ndarray, m: int, depth: int) -> int:
    """Distinct contexts at depths 0..depth: the node count of a CTW tree."""
    if symbols.size == 0:
        return 0
    return int(sum(np.unique(c).size for c in context_codes(symbols, m, depth)))


def ctw_entropy(symbols: np.ndarray, m: int, depth: int) -> tuple[float, int]:
    """(entropy rate in bits per symbol, tree node count)."""
    n = symbols.size
    half_sums = np.concatenate([[0.0], np.cumsum(np.log2(np.arange(n) + 0.5))])
    total_sums = np.concatenate([[0.0], np.cumsum(np.log2(np.arange(n) + m / 2))])
    nodes = 0
    child_ctx = child_pw = None
    for d, codes in reversed(list(enumerate(context_codes(symbols, m, depth)))):
        ctx, inverse = np.unique(codes, return_inverse=True)
        counts = np.bincount(inverse * m + symbols, minlength=ctx.size * m).reshape(ctx.size, m)
        pe = half_sums[counts].sum(axis=1) - total_sums[counts.sum(axis=1)]
        if child_ctx is None:
            pw = pe
        else:
            parent = np.searchsorted(ctx, child_ctx % m**d)
            kids = np.bincount(parent, weights=child_pw, minlength=ctx.size)
            pw = np.logaddexp2(pe, kids) - 1.0
        child_ctx, child_pw = ctx, pw
        nodes += ctx.size
    return -float(child_pw[0]) / n, nodes


def _variant_name(delta: float) -> str:
    return f"delta_{delta:g}"


def _kde(values: list[float]) -> list[list[float]] | None:
    v = np.asarray(values)
    q75, q25 = np.percentile(v, [75.0, 25.0])
    h = 0.9 * min(float(np.std(v, ddof=1)), (q75 - q25) / 1.34) * v.size ** (-0.2)
    if h <= 0.0:
        return None
    grid = np.linspace(v.min() - KDE_PAD * h, v.max() + KDE_PAD * h, KDE_POINTS)
    z = (grid[:, None] - v[None, :]) / h
    density = np.exp(-0.5 * z * z).sum(axis=1) / (v.size * h * math.sqrt(2.0 * math.pi))
    return [[float(x), float(d)] for x, d in zip(grid, density)]


def _pearson(x: np.ndarray, y: np.ndarray) -> float | None:
    xc, yc = x - x.mean(), y - y.mean()
    sx, sy = float(xc @ xc), float(yc @ yc)
    if sx == 0.0 or sy == 0.0:
        return None
    return min(1.0, max(-1.0, float(xc @ yc) / math.sqrt(sx * sy)))


def expected_outputs(workload: Workload) -> Expected:
    cfg = workload.config
    if cfg["domain"] != "price" or cfg["crossing"] != "multi":
        raise ValueError("the reference covers the price domain with multi crossing only")
    depth = cfg["depth"]
    originals = [v for v in ("orig2", "orig4") if v in cfg["variants"]]
    events = {_variant_name(d): 0 for d in cfg["deltas"]}
    symbols = {2: 0, 4: 0}
    contexts = 0
    estimates: Estimates = {}
    for s in workload.series:
        p = s.prices
        if s.kind == "daily":
            if p.size < cfg["min_daily"]:
                continue
        elif np.count_nonzero(np.diff(p)) < cfg["min_tick_changes"]:
            continue
        sequences: dict[str, tuple[np.ndarray, int]] = {}
        if originals:
            moved = p if s.kind == "daily" else p[np.concatenate([[True], np.diff(p) != 0.0])]
            returns = np.log(moved[1:] / moved[:-1])
            for v in originals:
                m = 2 if v == "orig2" else 4
                sequences[v] = (equal_count_symbols(returns, m), m)
        for d in cfg["deltas"]:
            moves = skeleton_moves(p, d)
            events[_variant_name(d)] += moves.size
            if moves.size >= cfg["min_skeleton_events"]:
                sequences[_variant_name(d)] = (moves, 2)
        row = {}
        for v, (seq, m) in sequences.items():
            value, nodes = ctw_entropy(seq, m, depth)
            row[v] = (seq.size, value)
            symbols[m] += seq.size
            contexts += nodes
        estimates[s.instrument] = row
    order = originals + [_variant_name(d) for d in cfg["deltas"]]
    expected = Expected(estimates, order, list(cfg["deltas"]), depth, {})
    expected.counts = {
        "ingest.rows": int(sum(s.prices.size for s in workload.series)),
        "homogenise.events": events,
        "ctw.symbols.m2": symbols[2],
        "ctw.symbols.m4": symbols[4],
        "ctw.contexts": contexts,
        "estimates": len(expected.rows),
    }
    return expected


def entropy_table(estimates: Estimates, order: list[str], depth: int) -> list[list]:
    return [ENTROPY_HEADER] + [
        [i, v, str(row[v][0]), str(depth), "4" if v == "orig4" else "2", row[v][1]]
        for i, row in estimates.items() for v in order if v in row
    ]


def aggregate_files(estimates: Estimates, order: list[str], deltas: list[float]) -> dict[str, list[list]]:
    """kde_*, corr, scatter_* and summary tables aggregated from `estimates`."""
    files: dict[str, list[list]] = {}
    by_variant = {v: [row[v][1] for row in estimates.values() if v in row] for v in order}
    for v in order:
        if len(by_variant[v]) >= 2:
            curve = _kde(by_variant[v])
            if curve is not None:
                files[f"kde_{v}.csv"] = [["x", "density"]] + curve
    present = [v for v in order if by_variant[v]]
    kept = [i for i, row in estimates.items() if all(v in row for v in present)]
    if len(present) >= 2 and len(kept) >= 2:
        vectors = {v: np.array([estimates[i][v][1] for i in kept]) for v in present}
        matrix = [[1.0 if a == b else _pearson(vectors[a], vectors[b]) for b in present] for a in present]
        if all(r is not None for line in matrix for r in line):
            files["corr.csv"] = [["variant"] + present] + [[v] + line for v, line in zip(present, matrix)]
    finest = _variant_name(min(deltas)) if deltas else None
    if "orig4" in order and finest is not None:
        pairs = [[i, row["orig4"][1], row[finest][1]] for i, row in estimates.items()
                 if "orig4" in row and finest in row]
        if pairs:
            files[f"scatter_orig4_{finest}.csv"] = [["instrument", "value_orig4", f"value_{finest}"]] + pairs
    files["summary.csv"] = [["delta", "mean_entropy"]] + [
        [float(f"{d:g}"), float(np.mean(by_variant[_variant_name(d)]))]
        for d in sorted(deltas) if by_variant[_variant_name(d)]
    ]
    return files


def check_outputs(expected: Expected, out_dir: Path) -> tuple[int, list[str]]:
    """(failed estimates, problems) for one study's output directory.

    An estimate fails when its entropy.csv row is missing or differs.  Any
    other difference (a missing, extra or differing file, header or row)
    fails every estimate, because all of them feed the aggregate files.
    """
    total = len(expected.rows)
    got = _read(out_dir / "entropy.csv")
    if got is None:
        return total, ["entropy.csv: missing"]
    want = entropy_table(expected.estimates, expected.order, expected.depth)
    if len(got) > len(want) or not got or got[0] != ENTROPY_HEADER:
        return total, ["entropy.csv: header or row count differs from the reference"]
    failed = sum(1 for i in range(1, len(want)) if i >= len(got) or not _row_matches(want[i], got[i]))
    problems = [f"entropy.csv: {failed} estimate row(s) missing or different"] if failed else []

    written: Estimates = {}
    for row in got[1:]:
        try:
            written.setdefault(row[0], {})[row[1]] = (int(row[2]), float(row[5]))
        except (IndexError, ValueError):
            return total, problems + [f"entropy.csv: malformed row {row}"]
    files = aggregate_files(written, expected.order, expected.deltas)
    produced = {p.name for p in out_dir.iterdir()} - {"entropy.csv"}
    wrong = sorted(produced.symmetric_difference(files))
    for name, rows in files.items():
        table = _read(out_dir / name)
        if table is not None and (len(table) != len(rows) or not all(map(_row_matches, rows, table))):
            wrong.append(name)
    if wrong:
        return total, problems + [f"missing, extra or different: {', '.join(sorted(set(wrong)))}"]
    return failed, problems


def _read(path: Path) -> list[list[str]] | None:
    if not path.is_file():
        return None
    with open(path, newline="", encoding="utf-8") as fh:
        return list(csv.reader(fh))


def _row_matches(want: list, got: list[str]) -> bool:
    if len(want) != len(got):
        return False
    for w, g in zip(want, got):
        if isinstance(w, float):
            try:
                value = float(g)
            except ValueError:
                return False
            if not math.isclose(w, value, rel_tol=RTOL, abs_tol=ABS_TOL):
                return False
        elif w != g:
            return False
    return True
