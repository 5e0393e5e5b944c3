"""Monte Carlo substrate: split statistics, adaptive histograms, integration."""

from .histogram import (
    AdaptiveHistogram,
    FixedHistogram,
    HistogramBin,
    l1_density_error,
)
from .integration import (
    IntegrationResult,
    expected_value,
    hit_or_miss_area,
    integrate_importance,
    integrate_uniform,
)
from .stats import (
    DEFAULT_MIN_COUNT,
    DEFAULT_SPLIT_THRESHOLD,
    RunningMeanVar,
    normal_approximation_valid,
    should_split,
    split_statistic,
)

__all__ = [
    "AdaptiveHistogram",
    "DEFAULT_MIN_COUNT",
    "DEFAULT_SPLIT_THRESHOLD",
    "FixedHistogram",
    "HistogramBin",
    "IntegrationResult",
    "RunningMeanVar",
    "expected_value",
    "hit_or_miss_area",
    "integrate_importance",
    "integrate_uniform",
    "l1_density_error",
    "normal_approximation_valid",
    "should_split",
    "split_statistic",
]
