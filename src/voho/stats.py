"""Cross-instrument aggregation: kernel densities, correlations, summaries.

`aggregate` turns a study's entropy rows into every aggregate it writes.
It groups the rows once into a table of each instrument's estimate by
variant, and applies these rules to it:

- KDE: one Gaussian-kernel density per variant with at least 2 estimates,
  with Silverman's bandwidth on 512 points over the estimates' range
  padded by 3 bandwidths. A variant with fewer than 2 estimates gets none,
  silently; one whose estimates have no spread (a zero bandwidth) is
  logged as `kde skipped for <variant>: ...`.
- Correlation: the Pearson matrix of the variants that have estimates,
  when there are at least 2 of them, over the instruments that have every
  one of those variants (listwise). The instruments left out are logged.
  With fewer than 2 complete instruments, or an estimate column with no
  variance, the matrix is logged as `correlation matrix skipped: ...`.
- Scatter: each instrument's orig4 estimate against its estimate at the
  smallest delta, for the instruments that have both.
- Summary: the mean estimate over instruments of each skeleton variant
  that has estimates, by increasing delta.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass

import numpy as np

from .variants import Variant

logger = logging.getLogger(__name__)

KDE_GRID_POINTS = 512
KDE_GRID_PAD = 3.0  # grid spans the data range padded by this many bandwidths


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
    `scatter` is (variant a, variant b, [(instrument, a, b), ...]) or None."""

    rows: list[StudyRow]
    variants: list[Variant]
    kde_curves: dict[str, tuple[np.ndarray, np.ndarray]]
    corr_matrix: np.ndarray | None
    corr_variants: list[str]
    scatter: tuple[str, str, list[tuple[str, float, float]]] | None
    summary: list[tuple[float, float]]


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


def aggregate(rows: list[StudyRow], variants: list[Variant]) -> StudyResult:
    """A study's aggregates, by the rules in this module's docstring. Rows
    follow the instruments' order; `variants` are the study's, skeleton
    variants by increasing delta."""
    table = entropy_by_instrument(rows)
    columns = {v.name: [values[v.name] for values in table.values() if v.name in values] for v in variants}
    kde_curves = {}
    for name, values in columns.items():
        if len(values) >= 2:
            try:
                kde_curves[name] = kernel_density(values)
            except ValueError as exc:
                logger.warning("kde skipped for %s: %s", name, exc)
    present = [name for name, values in columns.items() if values]
    corr_matrix = None
    if len(present) >= 2:
        try:
            corr_matrix = correlation_matrix(table, present)
        except ValueError as exc:
            logger.warning("correlation matrix skipped: %s", exc)
    skeletons = [v for v in variants if v.delta is not None]
    finest = skeletons[0].name if skeletons else None
    pairs = [
        (instrument, values["orig4"], values[finest])
        for instrument, values in table.items()
        if "orig4" in values and finest in values
    ]
    return StudyResult(
        rows=rows,
        variants=variants,
        kde_curves=kde_curves,
        corr_matrix=corr_matrix,
        corr_variants=present if corr_matrix is not None else [],
        scatter=("orig4", finest, pairs) if pairs else None,
        summary=delta_summary({v.delta: columns[v.name] for v in skeletons if columns[v.name]}),
    )


def format_summary_table(summary: list[tuple[float, float]]) -> str:
    """Two-column text table: step size against mean entropy rate."""
    lines = [f"{'delta':<8}mean_entropy"]
    for delta, mean in summary:
        lines.append(f"{delta:<8g}{mean:.2f}")
    return "\n".join(lines)
