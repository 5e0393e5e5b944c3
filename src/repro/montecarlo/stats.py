"""The split statistic behind adaptive histogramming and the bin trees.

A histogram bin is hypothesised to hold a uniform distribution, so each
arriving sample falls in the bin's left half with probability p and right
half with q = 1 - p.  The daughter counts are then binomial; once enough
samples accumulate the binomial is well approximated by a normal with
mean np and standard deviation sqrt(npq), and the bin is split when the
daughters differ by more than ``threshold`` standard deviations (the
dissertation uses 3, giving 99.7 % confidence; chapter 3 and 4 discuss
the storage-vs-error trade of other thresholds — see the split-sigma
ablation bench).
"""

from __future__ import annotations

import math

import numpy as np

__all__ = [
    "split_statistic",
    "split_statistics",
    "DEFAULT_SPLIT_THRESHOLD",
    "DEFAULT_MIN_COUNT",
]

#: The dissertation's 3-sigma criterion.
DEFAULT_SPLIT_THRESHOLD = 3.0

#: "If we wait until we have a significant number of points in a bin before
#: we decide to split" — the normal approximation needs np and nq of at
#: least a handful; 16 keeps false splits rare without starving refinement.
DEFAULT_MIN_COUNT = 16


def split_statistic(left: int, right: int) -> float:
    """Number of standard deviations separating the daughter counts.

    Follows chapter 4: p is estimated from the daughter with the most
    photons ("to improve accuracy, p is calculated based on the daughter
    bin with the most photons"), sigma = sqrt(n p q), and the statistic is
    ``|left - right| / (2 * sigma_half)`` where sigma_half describes one
    daughter count.  Equivalently we measure how far the larger count
    sits from the even-split mean n/2 in units of sqrt(n p q).

    Returns 0.0 when fewer than 2 samples have arrived (nothing to test).
    """
    if left < 0 or right < 0:
        raise ValueError("daughter counts must be non-negative")
    n = left + right
    if n < 2:
        return 0.0
    big = left if left >= right else right
    p = big / n
    q = 1.0 - p
    if q <= 0.0:
        # All samples on one side: infinitely significant once n is real.
        return math.inf
    sigma = math.sqrt(n * p * q)
    return (big - n / 2.0) / sigma


def split_statistics(big: np.ndarray, total: np.ndarray) -> np.ndarray:
    """:func:`split_statistic` of many bins from their larger daughter counts.

    *big* and *total* are integer arrays with ``total / 2 <= big <= total``
    and ``total >= 2``; each element is computed in
    :func:`split_statistic`'s expression order, so it is that function's
    float, bit for bit.  A one-sided bin (``q == 0``) divides a positive
    numerator by zero, which IEEE division makes the ``inf`` the scalar
    returns.

    At a fixed total the statistic strictly increases with the larger
    count, so the most significant of several axes is the one with the
    largest daughter count: the bin forest's one-pass tally scores one
    statistic per row on that count alone.
    """
    p = big / total
    sigma = total * p
    q = np.subtract(1.0, p, out=p)
    sigma *= q
    np.sqrt(sigma, out=sigma)
    stat = total / 2.0
    np.subtract(big, stat, out=stat)
    with np.errstate(divide="ignore"):
        stat /= sigma
    return stat
