"""Convergence diagnostics: the chapter-6 convergence claim, measurably."""

import math

import pytest

from repro.core import RadianceField, SimulationConfig, SplitPolicy
from repro.core.convergence import (
    bin_relative_error,
    decay_exponent,
    forest_error_summary,
)
from repro.core.binning import BinNode, TWO_PI
from repro.geometry import Vec3
from repro.paper.scalar import run_scalar


def leaf_with(total: int) -> BinNode:
    node = BinNode((0, 0, 0, 0), (1, 1, TWO_PI, 1))
    node.total = total
    return node


class TestBinRelativeError:
    def test_empty_bin_infinite(self):
        assert bin_relative_error(leaf_with(0), 1000) == math.inf

    def test_known_value(self):
        # p = 100/10000 = 0.01 -> sqrt(0.99 / (10000 * 0.01))
        err = bin_relative_error(leaf_with(100), 10000)
        assert err == pytest.approx(math.sqrt(0.99 / 100.0))

    def test_shrinks_with_photons(self):
        small = bin_relative_error(leaf_with(10), 1000)
        large = bin_relative_error(leaf_with(100), 10000)
        assert large < small

    def test_full_bin_zero(self):
        assert bin_relative_error(leaf_with(100), 100) == 0.0

    def test_bad_total(self):
        with pytest.raises(ValueError):
            bin_relative_error(leaf_with(1), 0)


class TestForestSummary:
    def test_summary_on_real_forest(self, mini_scene):
        res = run_scalar(mini_scene, SimulationConfig(n_photons=2000))
        summary = forest_error_summary(res.forest)
        assert summary.occupied_leaves > 0
        assert summary.mean_relative_error > 0
        assert summary.median_relative_error <= summary.worst_relative_error

    def test_error_falls_with_photons(self, mini_scene):
        """Mean per-bin relative error improves with the photon budget
        (coarse policy so the bin structure stays comparable)."""
        policy = SplitPolicy(min_count=10**9)  # freeze: no splits
        errs = []
        for n in (500, 4000):
            res = run_scalar(
                mini_scene, SimulationConfig(n_photons=n, seed=3, policy=policy)
            )
            errs.append(forest_error_summary(res.forest).median_relative_error)
        assert errs[1] < errs[0]


class TestSummaryEdgeCases:
    """The inputs the early-stop loop hands the summary in corners."""

    def test_empty_forest_never_converges(self):
        """A forest with no trees reports all-inf errors — the signal
        the early-stop check relies on to never stop before tracing."""
        from repro.core.bintree import BinForest

        summary = forest_error_summary(BinForest(SplitPolicy()))
        assert summary.leaves == 0
        assert summary.occupied_leaves == 0
        assert summary.mean_relative_error == math.inf
        assert summary.median_relative_error == math.inf
        assert summary.worst_relative_error == math.inf

    def test_zero_photon_total_rejected(self, mini_scene):
        """An occupied forest with an explicit zero total is a caller
        bug, not a degenerate summary: it raises, never divides."""
        res = run_scalar(mini_scene, SimulationConfig(n_photons=200))
        with pytest.raises(ValueError, match="total_photons"):
            forest_error_summary(res.forest, total_photons=0)
        with pytest.raises(ValueError, match="total_photons"):
            bin_relative_error(leaf_with(5), -3)

    def test_unoccupied_leaves_ignore_the_total(self):
        """No occupied leaf -> all-inf summary even for a bogus total
        (the occupancy check short-circuits the per-leaf division)."""
        from repro.core.bintree import BinForest

        summary = forest_error_summary(BinForest(SplitPolicy()), 0)
        assert summary.occupied_leaves == 0
        assert summary.median_relative_error == math.inf


class TestDecayExponent:
    def test_perfect_half_power(self):
        ns = [100, 400, 1600, 6400]
        errors = [1.0 / math.sqrt(n) for n in ns]
        assert decay_exponent(ns, errors) == pytest.approx(-0.5)

    def test_validation(self):
        with pytest.raises(ValueError):
            decay_exponent([1], [1.0])
        with pytest.raises(ValueError):
            decay_exponent([1, 2], [0.0, 1.0])
        with pytest.raises(ValueError):
            decay_exponent([2, 2], [1.0, 2.0])

    def test_fewer_than_two_points(self):
        """Empty and mismatched inputs fail the same <2-points gate."""
        with pytest.raises(ValueError, match="at least 2"):
            decay_exponent([], [])
        with pytest.raises(ValueError, match="at least 2"):
            decay_exponent([100, 400], [0.5])

    def test_monte_carlo_radiance_decay(self, mini_scene):
        """Radiance probe error decays with exponent near -1/2: the
        statistical half of the Rendering Equation convergence claim."""
        policy = SplitPolicy(min_count=10**9)  # fixed bins isolate MC error
        probe_dir = Vec3(0.0, 1.0, 0.0)

        def probe(n: int) -> float:
            res = run_scalar(
                mini_scene, SimulationConfig(n_photons=n, seed=17, policy=policy)
            )
            field = RadianceField(mini_scene, res.forest)
            return sum(field.sample(0, 0.5, 0.5, probe_dir).rgb)

        reference = probe(60_000)
        budgets = [400, 1600, 6400]
        errors = [abs(probe(n) - reference) + 1e-12 for n in budgets]
        exponent = decay_exponent(budgets, errors)
        # MC noise makes single-seed exponents wobbly; the claim is a
        # decaying estimate in the right regime, not an exact -0.5.
        assert -1.3 < exponent < -0.1
