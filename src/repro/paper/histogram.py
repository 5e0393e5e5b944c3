"""One-dimensional adaptive histogramming (Figures 3.2, 3.4, 3.5).

This is the pedagogical ancestor of Photon's 4-D bins: start with one
interval, track how many samples land in each half, and split when the
halves are statistically different.  Refinement then concentrates where
the sampled density has steep gradient, bounding storage while improving
accuracy exactly where it is needed.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterable, Optional

from ..montecarlo.stats import (
    DEFAULT_MIN_COUNT,
    DEFAULT_SPLIT_THRESHOLD,
    split_statistic,
)

__all__ = ["AdaptiveHistogram", "FixedHistogram", "HistogramBin", "should_split"]


def should_split(
    left: int,
    right: int,
    *,
    threshold: float = DEFAULT_SPLIT_THRESHOLD,
    min_count: int = DEFAULT_MIN_COUNT,
) -> bool:
    """The dissertation's split decision for one candidate axis.

    Args:
        left / right: Speculative daughter tallies.
        threshold: Rejection level in standard deviations (paper: 3).
        min_count: Minimum total tally before the normal approximation is
            trusted.
    """
    if left + right < min_count:
        return False
    return split_statistic(left, right) > threshold


class HistogramBin:
    """A leaf-or-internal node of the adaptive histogram's binary tree."""

    __slots__ = ("lo", "hi", "count", "left_count", "left", "right", "depth")

    def __init__(self, lo: float, hi: float, depth: int = 0) -> None:
        self.lo = lo
        self.hi = hi
        self.count = 0  # samples tallied while this node was a leaf
        self.left_count = 0  # speculative: of those, how many in [lo, mid)
        self.left: Optional["HistogramBin"] = None
        self.right: Optional["HistogramBin"] = None
        self.depth = depth

    @property
    def is_leaf(self) -> bool:
        return self.left is None

    @property
    def mid(self) -> float:
        return 0.5 * (self.lo + self.hi)

    @property
    def width(self) -> float:
        return self.hi - self.lo


@dataclass(frozen=True)
class _LeafView:
    lo: float
    hi: float
    count: int
    depth: int


class AdaptiveHistogram:
    """Adaptive 1-D histogram over ``[lo, hi)``.

    Args:
        lo / hi: Domain of the sampled variable.
        threshold: Split criterion in standard deviations (default 3).
        min_count: Samples required in a leaf before testing the split.
        max_depth: Refinement cap (width halves per level).
        max_bins: Hard cap on leaf count; further splits are refused.
    """

    def __init__(
        self,
        lo: float,
        hi: float,
        *,
        threshold: float = DEFAULT_SPLIT_THRESHOLD,
        min_count: int = DEFAULT_MIN_COUNT,
        max_depth: int = 32,
        max_bins: int = 1 << 20,
    ) -> None:
        if not lo < hi:
            raise ValueError(f"need lo < hi, got [{lo}, {hi})")
        self.root = HistogramBin(lo, hi)
        self.threshold = threshold
        self.min_count = min_count
        self.max_depth = max_depth
        self.max_bins = max_bins
        self.total = 0
        self.leaf_count = 1
        self.splits = 0

    # -- insertion ---------------------------------------------------------------

    def add(self, x: float) -> None:
        """Tally one sample; may trigger a split of the containing leaf."""
        root = self.root
        if not root.lo <= x < root.hi:
            raise ValueError(f"sample {x} outside domain [{root.lo}, {root.hi})")
        self.total += 1
        node = root
        while not node.is_leaf:
            node = node.left if x < node.mid else node.right  # type: ignore[assignment]
        node.count += 1
        if x < node.mid:
            node.left_count += 1
        self._maybe_split(node)

    def add_many(self, xs: Iterable[float]) -> None:
        """Tally every sample in *xs*."""
        for x in xs:
            self.add(x)

    def _maybe_split(self, node: HistogramBin) -> None:
        if node.depth >= self.max_depth or self.leaf_count >= self.max_bins:
            return
        left = node.left_count
        right = node.count - node.left_count
        if should_split(
            left, right, threshold=self.threshold, min_count=self.min_count
        ):
            mid = node.mid
            node.left = HistogramBin(node.lo, mid, node.depth + 1)
            node.right = HistogramBin(mid, node.hi, node.depth + 1)
            # Daughters inherit the speculative tallies so density queries
            # remain consistent; their own left_count restarts at a uniform
            # prior (half of the inherited count) as the halves' interior
            # distribution is unknown.
            node.left.count = left
            node.left.left_count = left // 2
            node.right.count = right
            node.right.left_count = right // 2
            self.leaf_count += 1
            self.splits += 1

    # -- queries -------------------------------------------------------------------

    def leaf_for(self, x: float) -> HistogramBin:
        """The leaf bin containing *x*."""
        node = self.root
        if not node.lo <= x < node.hi:
            raise ValueError(f"query {x} outside domain")
        while not node.is_leaf:
            node = node.left if x < node.mid else node.right  # type: ignore[assignment]
        return node

    def density(self, x: float) -> float:
        """Estimated probability density at *x* (count / (total * width))."""
        if self.total == 0:
            return 0.0
        leaf = self.leaf_for(x)
        return leaf.count / (self.total * leaf.width)

    def leaves(self) -> list[_LeafView]:
        """All leaves left-to-right as immutable views."""
        out: list[_LeafView] = []
        stack = [self.root]
        while stack:
            node = stack.pop()
            if node.is_leaf:
                out.append(_LeafView(node.lo, node.hi, node.count, node.depth))
            else:
                stack.append(node.right)  # type: ignore[arg-type]
                stack.append(node.left)  # type: ignore[arg-type]
        out.sort(key=lambda leaf: leaf.lo)
        return out

    def min_leaf_width(self) -> float:
        """Width of the finest leaf (refinement depth proxy)."""
        return min(leaf.hi - leaf.lo for leaf in self.leaves())

    def __len__(self) -> int:
        return self.leaf_count


class FixedHistogram:
    """Uniform-width histogram, the baseline the adaptive scheme improves on."""

    def __init__(self, lo: float, hi: float, bins: int) -> None:
        if bins < 1:
            raise ValueError("need at least one bin")
        if not lo < hi:
            raise ValueError(f"need lo < hi, got [{lo}, {hi})")
        self.lo = lo
        self.hi = hi
        self.bins = bins
        self.counts = [0] * bins
        self.total = 0
        self._scale = bins / (hi - lo)

    def add(self, x: float) -> None:
        """Tally one sample into its fixed-width bin."""
        if not self.lo <= x < self.hi:
            raise ValueError(f"sample {x} outside domain")
        idx = int((x - self.lo) * self._scale)
        if idx == self.bins:  # floating round-up at the top edge
            idx -= 1
        self.counts[idx] += 1
        self.total += 1

    def add_many(self, xs: Iterable[float]) -> None:
        """Tally every sample in *xs*."""
        for x in xs:
            self.add(x)

    def density(self, x: float) -> float:
        """Estimated density at *x* (count / (total * width))."""
        if self.total == 0:
            return 0.0
        idx = min(int((x - self.lo) * self._scale), self.bins - 1)
        width = (self.hi - self.lo) / self.bins
        return self.counts[idx] / (self.total * width)


def l1_density_error(
    hist: AdaptiveHistogram | FixedHistogram,
    true_pdf: Callable[[float], float],
    samples: int = 2048,
) -> float:
    """Mean |estimated - true| density over a uniform grid (test metric)."""
    if isinstance(hist, AdaptiveHistogram):
        lo, hi = hist.root.lo, hist.root.hi
    else:
        lo, hi = hist.lo, hist.hi
    step = (hi - lo) / samples
    err = 0.0
    for i in range(samples):
        x = lo + (i + 0.5) * step
        err += abs(hist.density(x) - true_pdf(x))
    return err / samples


__all__ += ["l1_density_error"]
