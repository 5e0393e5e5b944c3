"""Monte Carlo substrate: the split statistic the bin trees refine on.

The chapter-3 adaptive histograms built on the same statistic are a
paper-tier figure and live in :mod:`repro.paper.histogram`.
"""

from .stats import DEFAULT_MIN_COUNT, DEFAULT_SPLIT_THRESHOLD, split_statistic

__all__ = [
    "DEFAULT_MIN_COUNT",
    "DEFAULT_SPLIT_THRESHOLD",
    "split_statistic",
]
