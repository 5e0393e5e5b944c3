"""Convergence diagnostics: does Photon approach the Rendering Equation?

Chapter 6: "Photon correctly solves for the radiance for each discrete
area and direction.  As the discrete areas and angle ranges shrink,
Photon converges to a solution for the radiance at every point in a
scene, and therefore will converge to a solution to the Rendering
Equation."

This module provides the two measurable halves of that claim:

* **statistical convergence** — each bin's radiance estimate is a
  binomial proportion, so its relative standard error is
  ``sqrt((1 - p) / (n p))`` and must fall as 1/sqrt(photons);
* **sequence diagnostics** — compare radiance probes across increasing
  photon budgets and fit the observed error decay exponent (should be
  about -0.5).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

from .binning import BinNode

__all__ = [
    "bin_relative_error",
    "forest_error_summary",
    "ErrorSummary",
    "decay_exponent",
]


def bin_relative_error(leaf: BinNode, total_photons: int) -> float:
    """Relative standard error of one leaf's count as a flux estimate.

    The count is binomial(n=total_photons, p=count/n); the estimator
    count/n has standard error sqrt(p(1-p)/n), i.e. relative error
    sqrt((1-p)/(n p)).  Empty bins return inf (nothing is known).
    """
    if total_photons <= 0:
        raise ValueError("total_photons must be positive")
    count = leaf.total
    if count == 0:
        return math.inf
    p = count / total_photons
    if p >= 1.0:
        return 0.0
    return math.sqrt((1.0 - p) / (total_photons * p))


@dataclass(frozen=True)
class ErrorSummary:
    """Distributional summary of per-leaf relative errors."""

    leaves: int
    occupied_leaves: int
    mean_relative_error: float
    median_relative_error: float
    worst_relative_error: float


def forest_error_summary(forest, total_photons: int | None = None) -> ErrorSummary:
    """Per-leaf relative-error summary across a forest's occupied bins."""
    total = total_photons if total_photons is not None else forest.total_tallies
    errors = []
    leaves = 0
    for tree in forest.trees.values():
        for leaf in tree.leaves():
            leaves += 1
            if leaf.total > 0:
                errors.append(bin_relative_error(leaf, total))
    if not errors:
        return ErrorSummary(leaves, 0, math.inf, math.inf, math.inf)
    errors.sort()
    return ErrorSummary(
        leaves=leaves,
        occupied_leaves=len(errors),
        mean_relative_error=sum(errors) / len(errors),
        median_relative_error=errors[len(errors) // 2],
        worst_relative_error=errors[-1],
    )


def decay_exponent(ns: Sequence[float], errors: Sequence[float]) -> float:
    """Least-squares slope of log(error) vs log(n).

    Monte Carlo estimates decay with exponent ~-0.5; the convergence
    bench asserts the fitted exponent lands near that.

    Raises:
        ValueError: for fewer than two points or non-positive values.
    """
    if len(ns) != len(errors) or len(ns) < 2:
        raise ValueError("need matching sequences of at least 2 points")
    if any(n <= 0 for n in ns) or any(e <= 0 for e in errors):
        raise ValueError("values must be positive for a log-log fit")
    xs = [math.log(n) for n in ns]
    ys = [math.log(e) for e in errors]
    mx = sum(xs) / len(xs)
    my = sum(ys) / len(ys)
    num = sum((x - mx) * (y - my) for x, y in zip(xs, ys))
    den = sum((x - mx) ** 2 for x in xs)
    if den == 0.0:
        raise ValueError("degenerate abscissae")
    return num / den

