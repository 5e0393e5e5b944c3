"""Chapter 3 (Figures 3.4/3.5) — adaptive histogramming.

The claim: splitting bins on the 3-sigma binomial test concentrates
storage where the sampled density has steep gradient, beating a fixed
discretisation of the same storage budget.
"""

import math

from repro.paper.histogram import AdaptiveHistogram, FixedHistogram, l1_density_error
from repro.paper.perf import format_table
from repro.rng import Lcg48

SAMPLES = 30000
RATE = 6.0


def sample_steep(rng: Lcg48) -> float:
    u = rng.uniform()
    x = -math.log(1 - u * (1 - math.exp(-RATE))) / RATE
    return min(x, 0.999999)


def true_pdf(x: float) -> float:
    return RATE / (1 - math.exp(-RATE)) * math.exp(-RATE * x)


def build_both():
    rng = Lcg48(13)
    xs = [sample_steep(rng) for _ in range(SAMPLES)]
    adaptive = AdaptiveHistogram(0.0, 1.0)
    adaptive.add_many(xs)
    fixed = FixedHistogram(0.0, 1.0, bins=adaptive.leaf_count)
    fixed.add_many(xs)
    return adaptive, fixed


def test_adaptive_vs_fixed(benchmark):
    adaptive, fixed = benchmark.pedantic(build_both, rounds=1, iterations=1)

    err_a = l1_density_error(adaptive, true_pdf)
    err_f = l1_density_error(fixed, true_pdf)
    widths = [l.hi - l.lo for l in adaptive.leaves()]
    print("\nChapter 3 — adaptive vs fixed histogramming (equal storage)")
    print(
        format_table(
            ["histogram", "bins", "L1 density error"],
            [
                ["adaptive (3-sigma splits)", adaptive.leaf_count, f"{err_a:.4f}"],
                ["fixed grid", fixed.bins, f"{err_f:.4f}"],
            ],
        )
    )
    print(f"finest adaptive bin: {min(widths):.4f}, coarsest: {max(widths):.4f}")

    # Equal storage, better answer.
    assert err_a < err_f
    # Refinement actually adapted: bin widths vary by at least 4x.
    assert max(widths) / min(widths) >= 4.0
    # The finest bins sit on the steep left side.
    finest = min(adaptive.leaves(), key=lambda l: l.hi - l.lo)
    assert finest.hi <= 0.5
