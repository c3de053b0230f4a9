"""A study's variants and files, and the aggregation across instruments.

A study scores variants for each instrument. `orig2` and `orig4` are the
log returns binned into 2 and 4 equal-count states. A skeleton variant is
the up/down sequence of the skeleton with step size delta, named
`delta_{delta:g}`: the step to six significant digits. Every output file
is keyed by the name, so validate_config refuses steps that share one.

`aggregate` turns a study's entropy rows into every file it writes, each
named and given its header here. It groups the rows once into a table of
each instrument's estimate by variant, and applies these rules:

- `entropy.csv`: one row per estimate, in the order of the rows, with its
  n, the study's CTW depth and its variant's alphabet size.
- `kde_<variant>.csv`: one Gaussian-kernel density per variant with at
  least 2 estimates, with Silverman's bandwidth on 512 points over the
  estimates' range padded by 3 bandwidths. A variant with fewer than 2
  estimates gets none, silently; one whose estimates have no spread (a
  zero bandwidth) is logged as `kde skipped for <variant>: ...`.
- `corr.csv`: the Pearson matrix of the variants that have estimates,
  when there are at least 2 of them, over the instruments that have every
  one of those variants (listwise). The instruments left out are logged.
  With fewer than 2 complete instruments, or an estimate column with no
  variance, the matrix is logged as `correlation matrix skipped: ...`.
- `scatter_orig4_<variant>.csv`: each instrument's orig4 estimate against
  its estimate at the smallest delta, for the instruments that have both.
- `summary.csv`: the mean estimate over instruments of each skeleton
  variant that has estimates, by increasing delta.
"""

from __future__ import annotations

import logging
import math
from collections.abc import Iterable
from dataclasses import dataclass

import numpy as np

logger = logging.getLogger(__name__)

KDE_GRID_POINTS = 512
KDE_GRID_PAD = 3.0  # grid spans the data range padded by this many bandwidths
ORIGINAL_ALPHABETS = {"orig2": 2, "orig4": 4}
ORIGINAL_VARIANTS = tuple(ORIGINAL_ALPHABETS)
# the names, as glob patterns, of every file a study writes into out_dir
OUTPUT_FILES = ("entropy.csv", "summary.csv", "corr.csv", "kde_*.csv", "scatter_*.csv")
ENTROPY_CSV_HEADER = ["instrument", "variant", "n", "depth", "alphabet", "entropy_bits_per_symbol"]
KDE_CSV_HEADER = ["x", "density"]


@dataclass(frozen=True)
class Variant:
    """A scored sequence: its name, its alphabet size and, for a skeleton
    variant, its step size (None for the originals)."""

    name: str
    alphabet: int
    delta: float | None = None

    @classmethod
    def skeleton(cls, delta: float) -> Variant:
        return cls(f"delta_{delta:g}", 2, delta)


def study_variants(originals: Iterable[str], deltas: Iterable[float]) -> list[Variant]:
    """A study's variants in output order: the requested originals in the
    order of ORIGINAL_VARIANTS, then one skeleton variant per delta."""
    requested = set(originals)
    chosen = [Variant(name, m) for name, m in ORIGINAL_ALPHABETS.items() if name in requested]
    return chosen + [Variant.skeleton(delta) for delta in deltas]


def name_clashes(sources: Iterable[tuple[str, str]]) -> list[str]:
    """One message for each variant name that an earlier one already has;
    each name comes paired with the way it was given."""
    first: dict[str, str] = {}
    errors = []
    for source, name in sources:
        if name in first:
            errors.append(f"{first[name]} and {source} share the variant name {name!r}")
        first.setdefault(name, source)
    return errors


@dataclass(frozen=True)
class StudyRow:
    """One entropy estimate: instrument x variant."""

    instrument: str
    variant: str
    entropy: float
    n: int


@dataclass(frozen=True)
class StudyResult:
    """Everything a study run produces before it is written to disk.
    `kde_curves` maps each KDE file's name to its (grid, density); `tables`
    maps every other file's name, entropy.csv first, to its header and
    rows, each float a Python float."""

    rows: list[StudyRow]
    kde_curves: dict[str, tuple[np.ndarray, np.ndarray]]
    tables: dict[str, tuple[list[str], list[list]]]


def _percentile(ordered: np.ndarray, q: float) -> float:
    """np.percentile's default linear method, bit for bit, on sorted data.
    np.percentile itself imports numpy.ma on its first call in a process,
    which costs more than the rest of a study's KDE."""
    index = (ordered.size - 1) * (q / 100.0)
    lo = math.floor(index)
    a, b = ordered[lo], ordered[min(lo + 1, ordered.size - 1)]
    t = index - lo
    # numpy's lerp works from b when t >= 0.5; the two forms round differently
    return b - (b - a) * (1.0 - t) if t >= 0.5 else a + (b - a) * t


def silverman_bandwidth(values: np.ndarray) -> float:
    """0.9 * min(sd, IQR/1.34) * n^(-1/5); zero when the spread degenerates."""
    v = np.asarray(values, dtype=np.float64)
    sd = float(np.std(v, ddof=1))
    ordered = np.sort(v)
    iqr = _percentile(ordered, 75.0) - _percentile(ordered, 25.0)
    return 0.9 * min(sd, iqr / 1.34) * v.size ** (-0.2)


def kernel_density(values) -> tuple[np.ndarray, np.ndarray]:
    """Gaussian-kernel density f(x) = (1/(n h)) sum phi((x - v_i)/h) with
    Silverman's bandwidth h, on 512 even points over the data range padded
    by 3 h. Needs at least 2 finite values with some spread."""
    v = np.asarray(values, dtype=np.float64).ravel()
    if v.size < 2:
        raise ValueError("need at least 2 values")
    if not np.all(np.isfinite(v)):
        raise ValueError("values must be finite")
    h = silverman_bandwidth(v)
    if h <= 0.0:
        raise ValueError("degenerate spread")
    grid = np.linspace(v.min() - KDE_GRID_PAD * h, v.max() + KDE_GRID_PAD * h, KDE_GRID_POINTS)
    z = (grid[:, None] - v[None, :]) / h
    density = np.exp(-0.5 * z * z).sum(axis=1) / (v.size * h * math.sqrt(2.0 * math.pi))
    return grid, density


def pearson(x, y) -> float:
    """Product-moment correlation, clipped into [-1, 1]."""
    xa = np.asarray(x, dtype=np.float64)
    ya = np.asarray(y, dtype=np.float64)
    if xa.ndim != 1 or xa.shape != ya.shape:
        raise ValueError("inputs must be 1-d and of equal length")
    if xa.size < 2:
        raise ValueError("need at least 2 points")
    xc = xa - xa.mean()
    yc = ya - ya.mean()
    sx = float(xc @ xc)
    sy = float(yc @ yc)
    if sx == 0.0 or sy == 0.0:
        raise ValueError("zero variance")
    return min(1.0, max(-1.0, float(xc @ yc) / math.sqrt(sx * sy)))


def entropy_by_instrument(rows: list[StudyRow]) -> dict[str, dict[str, float]]:
    """Each instrument's entropy by variant, instruments in first-seen order."""
    table: dict[str, dict[str, float]] = {}
    for row in rows:
        table.setdefault(row.instrument, {})[row.variant] = row.entropy
    return table


def correlation_matrix(table: dict[str, dict[str, float]], variants: list[str]) -> np.ndarray:
    """Pairwise correlations of the variants' entropy vectors, from a table
    of each instrument's entropy by variant. Instruments missing any of the
    variants are dropped listwise and logged."""
    if len(variants) < 2:
        raise ValueError("need at least 2 variants for a correlation matrix")
    complete = [values for values in table.values() if all(v in values for v in variants)]
    if len(complete) < 2:
        raise ValueError("fewer than 2 instruments have every variant")
    dropped = [i for i, values in table.items() if not all(v in values for v in variants)]
    if dropped:
        logger.info(
            "correlation matrix: dropping %d instrument(s) missing a variant: %s",
            len(dropped), ", ".join(dropped),
        )
    vectors = [np.array([values[v] for values in complete]) for v in variants]
    matrix = np.eye(len(variants))
    for a in range(len(variants)):
        for b in range(a + 1, len(variants)):
            matrix[a, b] = matrix[b, a] = pearson(vectors[a], vectors[b])
    return matrix


def delta_summary(columns: dict[float, list[float]]) -> list[tuple[float, float]]:
    """The mean of each skeleton variant's estimates, from its delta mapped
    to the estimates, in the order given."""
    return [(delta, float(np.mean(values))) for delta, values in columns.items()]


def aggregate(rows: list[StudyRow], variants: list[Variant], depth: int) -> StudyResult:
    """A study's files, by the rules in this module's docstring. Rows follow
    the instruments' order; `variants` are the study's, skeleton variants by
    increasing delta, and `depth` its CTW depth."""
    alphabet = {v.name: v.alphabet for v in variants}
    entropy = [[r.instrument, r.variant, r.n, depth, alphabet[r.variant], float(r.entropy)] for r in rows]
    tables = {"entropy.csv": (ENTROPY_CSV_HEADER, entropy)}
    table = entropy_by_instrument(rows)
    columns = {v.name: [values[v.name] for values in table.values() if v.name in values] for v in variants}
    kde_curves = {}
    for name, values in columns.items():
        if len(values) >= 2:
            try:
                kde_curves[f"kde_{name}.csv"] = kernel_density(values)
            except ValueError as exc:
                logger.warning("kde skipped for %s: %s", name, exc)
    present = [name for name, values in columns.items() if values]
    if len(present) >= 2:
        try:
            matrix = correlation_matrix(table, present).tolist()
            tables["corr.csv"] = (["variant"] + present, [[v] + line for v, line in zip(present, matrix)])
        except ValueError as exc:
            logger.warning("correlation matrix skipped: %s", exc)
    skeletons = [v for v in variants if v.delta is not None]
    finest = skeletons[0].name if skeletons else None
    pairs = [
        [instrument, float(values["orig4"]), float(values[finest])]
        for instrument, values in table.items()
        if "orig4" in values and finest in values
    ]
    if pairs:
        tables[f"scatter_orig4_{finest}.csv"] = (["instrument", "value_orig4", f"value_{finest}"], pairs)
    summary = delta_summary({v.delta: columns[v.name] for v in skeletons if columns[v.name]})
    tables["summary.csv"] = (["delta", "mean_entropy"], [[float(d), m] for d, m in summary])
    return StudyResult(rows, kde_curves, tables)


def format_summary_table(summary: list) -> str:
    """Two-column text table of (step size, mean entropy rate) pairs, such
    as the rows of summary.csv."""
    lines = [f"{'delta':<7} mean_entropy"]
    for delta, mean in summary:
        lines.append(f"{delta:<7g} {mean:.2f}")
    return "\n".join(lines)
