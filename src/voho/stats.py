"""Cross-instrument aggregation: kernel densities, correlations, summaries."""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass, field

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


@dataclass
class StudyResult:
    """Everything a study run produces before it is written to disk."""

    rows: list[StudyRow]
    variants: list[Variant]
    kde_curves: dict[str, tuple[np.ndarray, np.ndarray]] = field(default_factory=dict)
    corr_matrix: np.ndarray | None = None
    corr_variants: list[str] = field(default_factory=list)
    summary: list[tuple[float, float]] = field(default_factory=list)


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


def kernel_density(
    values, grid: np.ndarray | None = None, bandwidth: float | None = None
) -> tuple[np.ndarray, np.ndarray]:
    """Gaussian-kernel density f(x) = (1/(n h)) sum phi((x - v_i)/h).

    With bandwidth=None, Silverman's rule is used (needs >= 2 spread-out
    values); an explicit bandwidth also admits a single value. The default
    grid is 512 even points over the data range padded by 3 bandwidths.
    """
    v = np.asarray(values, dtype=np.float64).ravel()
    if v.size < 1:
        raise ValueError("need at least one value")
    if not np.all(np.isfinite(v)):
        raise ValueError("values must be finite")
    if bandwidth is None:
        if v.size < 2:
            raise ValueError("automatic bandwidth needs at least 2 values")
        h = silverman_bandwidth(v)
        if h <= 0.0:
            raise ValueError("degenerate spread; pass an explicit bandwidth")
    else:
        h = float(bandwidth)
        if h <= 0.0:
            raise ValueError("bandwidth must be positive")
    if grid is None:
        grid = np.linspace(v.min() - KDE_GRID_PAD * h, v.max() + KDE_GRID_PAD * h, KDE_GRID_POINTS)
    else:
        grid = np.asarray(grid, dtype=np.float64)
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


def correlation_matrix(
    rows: list[StudyRow], variants: list[str] | None = None
) -> tuple[np.ndarray, list[str], list[str]]:
    """Pairwise correlations of per-instrument entropy vectors.

    Instruments missing any of the requested variants are dropped listwise
    (and reported); returns (matrix, kept instruments, dropped instruments).
    """
    by_instrument = entropy_by_instrument(rows)
    if variants is None:
        variants = list(dict.fromkeys(row.variant for row in rows))
    if len(variants) < 2:
        raise ValueError("need at least 2 variants for a correlation matrix")
    kept = [i for i, values in by_instrument.items() if all(v in values for v in variants)]
    dropped = [i for i in by_instrument if i not in set(kept)]
    if len(kept) < 2:
        raise ValueError("fewer than 2 instruments have every variant")
    if dropped:
        logger.info(
            "correlation matrix: dropping %d instrument(s) missing a variant: %s",
            len(dropped), ", ".join(dropped),
        )
    vectors = {v: np.array([by_instrument[i][v] for i in kept]) for v in variants}
    size = len(variants)
    matrix = np.eye(size)
    for a in range(size):
        for b in range(a + 1, size):
            r = pearson(vectors[variants[a]], vectors[variants[b]])
            matrix[a, b] = matrix[b, a] = r
    return matrix, kept, dropped


def delta_summary(rows: list[StudyRow], variants: list[Variant]) -> list[tuple[float, float]]:
    """Mean entropy over instruments for each skeleton variant, by increasing
    delta; a variant without rows is left out."""
    values: dict[str, list[float]] = {}
    for row in rows:
        values.setdefault(row.variant, []).append(row.entropy)
    skeletons = sorted((v for v in variants if v.delta is not None), key=lambda v: v.delta)
    return [(v.delta, float(np.mean(values[v.name]))) for v in skeletons if v.name in values]


def format_summary_table(summary: list[tuple[float, float]]) -> str:
    """Two-column text table: step size against mean entropy rate."""
    lines = [f"{'delta':<8}mean_entropy"]
    for delta, mean in summary:
        lines.append(f"{delta:<8g}{mean:.2f}")
    return "\n".join(lines)
