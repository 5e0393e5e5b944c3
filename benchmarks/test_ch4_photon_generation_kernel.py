"""Chapter 4 — the photon-generation kernel comparison.

Paper: the rejection kernel of Figure 4.3 expects ~22 floating-point
operations versus 34 for the Shirley/Sillion closed form ("experiments
show that our photon generation kernel is about twice as fast").  This
bench verifies the operation-count model and *measures* both kernels —
scalar (the faithful comparison: transcendentals vs multiply/compare)
and NumPy-vectorised (the form today's library user would call).
"""

import pytest

from repro.paper.physics import (
    direction_formula,
    direction_formula_batch,
    direction_rejection,
    direction_rejection_batch,
    expected_flops_rejection,
    flops_formula,
)
from repro.paper.perf import format_table
from repro.rng import Lcg48

N_SCALAR = 4000
N_BATCH = 200_000


def scalar_rejection() -> float:
    rng = Lcg48(1)
    acc = 0.0
    for _ in range(N_SCALAR):
        acc += direction_rejection(rng)[2]
    return acc


def scalar_formula() -> float:
    rng = Lcg48(1)
    acc = 0.0
    for _ in range(N_SCALAR):
        acc += direction_formula(rng)[2]
    return acc


class TestOperationModel:
    def test_flop_counts(self, benchmark):
        rejection = benchmark.pedantic(
            expected_flops_rejection, rounds=1, iterations=1
        )
        formula = flops_formula()
        print("\nChapter 4 — generation kernel operation counts")
        print(
            format_table(
                ["kernel", "ops (model)", "ops (paper)"],
                [
                    ["rejection (Fig 4.3)", f"{rejection:.1f}", 22],
                    ["Shirley/Sillion formula", formula, 34],
                ],
            )
        )
        assert rejection == pytest.approx(22.0, abs=1.0)
        assert formula == 34
        assert rejection < formula


class TestScalarKernels:
    def test_rejection_speed(self, benchmark):
        benchmark(scalar_rejection)

    def test_formula_speed(self, benchmark):
        benchmark(scalar_formula)


class TestBatchKernels:
    def test_rejection_batch_speed(self, benchmark):
        out = benchmark(direction_rejection_batch, N_BATCH, 7)
        assert out.shape == (N_BATCH, 3)

    def test_formula_batch_speed(self, benchmark):
        out = benchmark(direction_formula_batch, N_BATCH, 7)
        assert out.shape == (N_BATCH, 3)
