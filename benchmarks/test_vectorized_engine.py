"""Vector-engine throughput: the batched fast path must beat the scalar
loop by a wide margin while producing the identical answer.

Records photons/sec for the scalar reference loop, the vector engine,
and the process-pool backend on the Cornell scene at 50k photons, and
asserts the acceptance floor: vector >= 5x scalar.  (The parity suite —
``tests/core/test_vectorized_parity.py`` — separately proves the speedup
changes no tally; here we only spot-check totals.)
"""

from __future__ import annotations

import time

import pytest

from repro.api import RenderSession, SessionOptions, SimulateRequest
from repro.core import SimulationConfig
from repro.paper.perf import format_table
from repro.paper.scalar import run_scalar

PHOTONS = 50_000
SEED = 0x1234ABCD330E

#: Acceptance floor for the batched engine on Cornell at 50k photons.
SPEEDUP_FLOOR = 5.0


def _measure(scene, engine, workers=1, photons=PHOTONS):
    """Photons/sec of one cold run: the scalar oracle, or a session."""
    t0 = time.perf_counter()
    if engine == "scalar":
        result = run_scalar(scene, SimulationConfig(n_photons=photons, seed=SEED))
    else:
        with RenderSession(scene, SessionOptions(workers=workers)) as session:
            result = session.simulate(
                SimulateRequest(n_photons=photons, seed=SEED)
            )
    elapsed = time.perf_counter() - t0
    return photons / elapsed, result


@pytest.fixture(scope="module")
def throughputs(request):
    cornell = request.getfixturevalue("cornell")
    rates = {}
    results = {}
    rates["scalar"], results["scalar"] = _measure(cornell, "scalar")
    rates["vector"], results["vector"] = _measure(cornell, "vector")
    rates["procpool(2)"], results["procpool(2)"] = _measure(
        cornell, "vector", workers=2
    )
    return rates, results


def test_vector_speedup_floor(throughputs):
    """The tentpole acceptance number: >= 5x photons/sec over scalar."""
    rates, _ = throughputs
    speedup = rates["vector"] / rates["scalar"]
    rows = [
        [name, f"{rate:,.0f}", f"{rate / rates['scalar']:.2f}x"]
        for name, rate in rates.items()
    ]
    print()
    print(f"Cornell box, {PHOTONS:,} photons:")
    print(format_table(["engine", "photons/sec", "vs scalar"], rows))
    assert speedup >= SPEEDUP_FLOOR, (
        f"vector engine {speedup:.2f}x scalar — below the {SPEEDUP_FLOOR}x floor"
    )


def test_engines_agree_on_totals(throughputs):
    """Same tally mass regardless of engine (full parity is tested in
    tests/core/test_vectorized_parity.py; scalar here runs the legacy
    serial stream, so only conservation-level equality is expected)."""
    _, results = throughputs
    for result in results.values():
        result.forest.check_invariants()
        assert result.forest.photons_emitted == PHOTONS
    assert (
        results["vector"].forest.total_tallies
        == results["procpool(2)"].forest.total_tallies
    )
    assert results["vector"].stats == results["procpool(2)"].stats


def test_engine_throughput_positive(cornell, engine):
    """Both engines trace a small budget through the shared fixture
    parametrization (the `engine` fixture from the root conftest)."""
    rate, result = _measure(cornell, engine, photons=2_000)
    assert result.stats.photons == 2_000
    assert rate > 0.0
    print(f"\n{engine}: {rate:,.0f} photons/sec (2k budget)")
