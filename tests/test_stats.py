"""Kernel densities, correlations, and the per-delta summary."""

from __future__ import annotations

import logging
import math

import numpy as np
import pytest

from voho.stats import (
    StudyRow,
    aggregate,
    correlation_matrix,
    delta_summary,
    format_summary_table,
    kernel_density,
    pearson,
    _percentile,
    silverman_bandwidth,
)
from voho.variants import study_variants


def trapezoid(y: np.ndarray, x: np.ndarray) -> float:
    """The trapezoid rule; np.trapezoid is numpy >= 2.0 only."""
    return float(np.sum((y[1:] + y[:-1]) * np.diff(x)) / 2.0)


class TestKernelDensity:
    def test_default_grid_shape_and_mass(self, rng):
        values = rng.normal(size=60)
        grid, density = kernel_density(values)
        assert grid.size == 512
        h = silverman_bandwidth(values)
        assert grid[0] == pytest.approx(values.min() - 3 * h)
        assert grid[-1] == pytest.approx(values.max() + 3 * h)
        assert trapezoid(density, grid) == pytest.approx(1.0, abs=1e-3)

    def test_translation_equivariance(self, rng):
        values = rng.normal(size=40)
        grid, base = kernel_density(values)
        moved_grid, moved = kernel_density(values + 1.5)
        assert np.allclose(moved_grid, grid + 1.5, rtol=0, atol=1e-12)
        assert np.allclose(base, moved, rtol=0, atol=1e-12)

    def test_density_non_negative(self, rng):
        _, density = kernel_density(rng.normal(size=25))
        assert np.all(density >= 0.0)

    def test_silverman_formula(self):
        values = np.array([1.0, 2.0, 3.0, 4.0, 5.0])
        sd = np.std(values, ddof=1)
        iqr = np.percentile(values, 75) - np.percentile(values, 25)
        expected = 0.9 * min(sd, iqr / 1.34) * 5 ** (-0.2)
        assert silverman_bandwidth(values) == pytest.approx(expected, rel=1e-12)

    def test_quartiles_match_numpy_percentile_bit_for_bit(self, rng):
        for k in range(500):
            values = rng.normal(size=int(rng.integers(2, 61))) * 10.0 ** rng.uniform(-12, 3)
            if k % 3 == 0:
                values = np.round(values, 1)  # ties
            ordered = np.sort(values)
            for q in (25.0, 75.0):
                assert _percentile(ordered, q) == np.percentile(values, q)
            q75, q25 = np.percentile(values, [75.0, 25.0])
            sd = float(np.std(values, ddof=1))
            assert silverman_bandwidth(values) == 0.9 * min(sd, (q75 - q25) / 1.34) * values.size ** (-0.2)

    def test_identical_values_are_refused(self):
        with pytest.raises(ValueError, match="degenerate spread"):
            kernel_density([2.0, 2.0, 2.0])

    def test_bad_inputs(self):
        with pytest.raises(ValueError, match="at least 2"):
            kernel_density([])
        with pytest.raises(ValueError, match="finite"):
            kernel_density([1.0, float("nan")])
        with pytest.raises(ValueError, match="at least 2"):
            kernel_density([1.0])


class TestPearson:
    def test_exact_antirelation(self):
        assert pearson([1.0, 2.0, 3.0], [6.0, 4.0, 2.0]) == pytest.approx(-1.0, abs=1e-15)

    def test_direct_formula_value(self):
        expected = 3.0 / math.sqrt(2.0 * 14.0 / 3.0)
        assert pearson([1.0, 2.0, 3.0], [1.0, 2.0, 4.0]) == pytest.approx(expected, abs=1e-12)

    def test_self_correlation_is_one(self, rng):
        x = rng.normal(size=20)
        assert pearson(x, x) == pytest.approx(1.0, abs=1e-15)

    def test_affine_invariance(self, rng):
        x = rng.normal(size=50)
        y = rng.normal(size=50)
        base = pearson(x, y)
        assert pearson(3.0 * x + 7.0, y) == pytest.approx(base, abs=1e-12)
        assert pearson(x, 0.2 * y - 4.0) == pytest.approx(base, abs=1e-12)

    def test_matches_numpy(self, rng):
        for _ in range(20):
            x = rng.normal(size=30)
            y = 0.4 * x + rng.normal(size=30)
            assert pearson(x, y) == pytest.approx(np.corrcoef(x, y)[0, 1], abs=1e-12)

    def test_errors(self):
        with pytest.raises(ValueError, match="equal length"):
            pearson([1.0, 2.0], [1.0, 2.0, 3.0])
        with pytest.raises(ValueError, match="zero variance"):
            pearson([1.0, 1.0, 1.0], [1.0, 2.0, 3.0])
        with pytest.raises(ValueError, match="at least 2"):
            pearson([1.0], [1.0])


class TestCorrelationMatrix:
    def test_identical_and_negated_variants(self):
        table = {
            f"I{i}": {"a": v, "b": v, "c": -v}
            for i, v in enumerate([0.1, 0.5, 0.9, 0.3])
        }
        matrix = correlation_matrix(table, ["a", "b", "c"])
        assert matrix[0, 1] == pytest.approx(1.0, abs=1e-15)
        assert matrix[0, 2] == pytest.approx(-1.0, abs=1e-15)

    def test_matches_pairwise_calls(self, rng):
        names = [f"I{i}" for i in range(12)]
        series = {v: rng.normal(size=12) for v in ("a", "b", "c")}
        table = {
            name: {v: float(series[v][i]) for v in series} for i, name in enumerate(names)
        }
        matrix = correlation_matrix(table, ["a", "b", "c"])
        for i, va in enumerate(("a", "b", "c")):
            for j, vb in enumerate(("a", "b", "c")):
                if i == j:
                    assert matrix[i, j] == 1.0
                else:
                    assert matrix[i, j] == pytest.approx(pearson(series[va], series[vb]))

    def test_symmetric_with_exact_unit_diagonal(self, rng):
        table = {f"I{i}": {"a": rng.normal(), "b": rng.normal()} for i in range(9)}
        matrix = correlation_matrix(table, ["a", "b"])
        assert np.array_equal(matrix, matrix.T)
        assert np.all(np.diag(matrix) == 1.0)
        assert np.all(np.abs(matrix) <= 1.0)

    def test_incomplete_instruments_dropped_and_reported(self, caplog):
        complete = {
            "FULL1": {"a": 0.1, "b": 0.7},
            "FULL2": {"a": 0.9, "b": 0.2},
            "FULL3": {"a": 0.4, "b": 0.5},
        }
        table = {"PART": {"a": 0.2}, **complete, "NONE": {"b": 0.3}}
        with caplog.at_level(logging.INFO, logger="voho.stats"):
            matrix = correlation_matrix(table, ["a", "b"])
        assert caplog.messages == ["correlation matrix: dropping 2 instrument(s) missing a variant: PART, NONE"]
        assert np.array_equal(matrix, correlation_matrix(complete, ["a", "b"]))
        assert matrix[0, 1] == pearson([0.1, 0.9, 0.4], [0.7, 0.2, 0.5])

    def test_fewer_than_two_common_instruments_rejected(self):
        table = {"ONLY": {"a": 0.1, "b": 0.2}, "PART": {"a": 0.3}}
        with pytest.raises(ValueError, match="fewer than 2"):
            correlation_matrix(table, ["a", "b"])

    def test_fewer_than_two_variants_rejected(self):
        with pytest.raises(ValueError, match="2 variants"):
            correlation_matrix({"I": {"a": 0.5}}, ["a"])


class TestDeltaSummary:
    def test_single_instrument_means_are_values(self):
        rows = [
            StudyRow("I", "orig2", 0.99, 1000),
            StudyRow("I", "delta_0.05", 0.13, 500),
            StudyRow("I", "delta_1", 0.32, 40),
        ]
        assert aggregate(rows, study_variants(["orig2"], [0.05, 1.0])).summary == [(0.05, 0.13), (1.0, 0.32)]

    def test_mean_over_instruments(self):
        assert delta_summary({0.5: [0.2, 0.4]}) == [(0.5, pytest.approx(0.3))]

    def test_table_layout(self):
        text = format_summary_table([(0.05, 0.13), (1.0, 0.32)])
        lines = text.splitlines()
        assert lines[0].split() == ["delta", "mean_entropy"]
        assert lines[1].split() == ["0.05", "0.13"]
        assert lines[2].split() == ["1", "0.32"]


class TestAggregate:
    def test_variants_without_estimates_are_left_out(self):
        rows = [
            StudyRow(instrument, variant, value, 100)
            for instrument, values in {"A": (0.9, 0.1, 0.5), "B": (1.0, 0.4, 0.6), "C": (0.7, 0.3, 0.9)}.items()
            for variant, value in zip(("orig2", "orig4", "delta_1"), values)
        ]
        result = aggregate(rows, study_variants(["orig2", "orig4"], [0.5, 1.0]))
        assert list(result.kde_curves) == ["orig2", "orig4", "delta_1"]
        assert result.corr_variants == ["orig2", "orig4", "delta_1"]
        assert result.corr_matrix[0, 2] == pearson([0.9, 1.0, 0.7], [0.5, 0.6, 0.9])
        assert result.scatter is None  # the finest skeleton variant, delta_0.5, has no estimates
        assert result.summary == [(1.0, pytest.approx(2.0 / 3.0))]
