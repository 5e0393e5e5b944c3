"""Chapter 6 — "Photon ... will converge to a solution to the
Rendering Equation."

Measured form of the claim, in its two halves:

1. **statistical**: with the bin structure frozen, a radiance probe's
   error against a long-run reference decays with an exponent near the
   Monte Carlo -1/2;
2. **structural**: with adaptive splitting on, the per-bin footprint
   shrinks as photons accumulate (discrete areas and angle ranges
   shrink), while per-bin relative error stays controlled.
"""

from repro.core import RadianceField, SimulationConfig, SplitPolicy
from repro.core.convergence import decay_exponent, forest_error_summary
from repro.geometry import Vec3
from repro.paper.perf import format_table
from repro.paper.scalar import run_scalar
from tests.conftest import build_mini_scene

BUDGETS = [500, 2000, 8000]
REFERENCE = 64_000


def run_study():
    scene = build_mini_scene()
    frozen = SplitPolicy(min_count=10**9)
    probe_dir = Vec3(0.0, 1.0, 0.0)

    def probe(n: int) -> float:
        res = run_scalar(scene, SimulationConfig(n_photons=n, seed=17, policy=frozen))
        return sum(
            RadianceField(scene, res.forest).sample(0, 0.5, 0.5, probe_dir).rgb
        )

    reference = probe(REFERENCE)
    errors = [abs(probe(n) - reference) + 1e-12 for n in BUDGETS]
    exponent = decay_exponent(BUDGETS, errors)

    # Structural refinement with adaptive splitting enabled.
    structures = []
    for n in BUDGETS:
        res = run_scalar(
            scene,
            SimulationConfig(n_photons=n, seed=17, policy=SplitPolicy(min_count=16)),
        )
        summary = forest_error_summary(res.forest)
        mean_measure = 1.0 / max(summary.leaves, 1)
        structures.append((n, summary.leaves, mean_measure, summary.median_relative_error))
    return reference, errors, exponent, structures


def test_ch6_convergence(benchmark):
    reference, errors, exponent, structures = benchmark.pedantic(
        run_study, rounds=1, iterations=1
    )

    print("\nChapter 6 — convergence toward the Rendering Equation")
    print(
        format_table(
            ["photons", "probe |error| vs 64k reference"],
            [[n, f"{e:.4g}"] for n, e in zip(BUDGETS, errors)],
        )
    )
    print(f"fitted decay exponent: {exponent:.2f} (Monte Carlo ideal: -0.50)")
    print(
        format_table(
            ["photons", "bins", "mean bin measure", "median bin rel. error"],
            [
                [n, leaves, f"{m:.2e}", f"{err:.3f}"]
                for n, leaves, m, err in structures
            ],
        )
    )

    # Statistical half: error decays in the MC regime.
    assert errors[-1] < errors[0]
    assert -1.3 < exponent < -0.1
    # Structural half: bins multiply (their measure shrinks) as photons
    # grow, while per-bin statistical quality does not deteriorate.
    bins = [s[1] for s in structures]
    assert bins == sorted(bins)
    assert bins[-1] > bins[0]
    assert structures[-1][3] < 1.0  # occupied bins remain statistically usable
