"""Cross-request amortization: what the forest cache is worth.

Measures the serving shapes the amortization layer exists for, on the
Cornell box with the vector engine:

* **cold CLI** — ``repro simulate`` as a subprocess: interpreter boot,
  imports, scene compile, and a full 10k-photon trace.  This is the
  price of answering without a warm process.
* **top-up** — a warm amortizing session that already served 2k
  photons answers the 10k request by tracing only the missing 8k.
* **camera-only** — re-rendering a cached trace from a new viewpoint:
  zero photons traced.
* **early stop** — a 400k budget with ``target_rel_error=0.5``
  converges after a few batches and stops.

Asserted *shape* (per the rule in ``benchmarks/conftest.py``): the
topped-up answer is byte-identical to the cold CLI answer file
(exactness is the whole point), the top-up beats the cold CLI serve by
at least 3x, the camera-only render traces nothing, and the early stop
traces well under its budget.
"""

from __future__ import annotations

import json
import subprocess
import sys
import time
from pathlib import Path

from repro.api import RenderSession, SessionOptions, SimulateRequest
from repro.core import forest_to_dict
from repro.scenes import get_scene


SCENE = "cornell-box"
PHOTONS_WARM = 2_000
PHOTONS_FULL = 10_000
EARLY_BUDGET = 400_000
TARGET = 0.5


def answer_bytes(result) -> bytes:
    return json.dumps(forest_to_dict(result.forest)).encode("utf-8")


def run_cold_cli(out: Path) -> float:
    """One ``repro simulate`` subprocess; returns its wall-clock."""
    t0 = time.perf_counter()
    subprocess.run(
        [
            sys.executable, "-m", "repro", "simulate", SCENE,
            "--photons", str(PHOTONS_FULL),
            "--out", str(out),
        ],
        check=True,
        capture_output=True,
        cwd=Path(__file__).resolve().parent.parent,
    )
    return time.perf_counter() - t0


def test_amortized_serving_shapes(tmp_path):
    # -- cold CLI: the no-warm-process baseline ------------------------
    cold_out = tmp_path / "cold.answer.json"
    cold_seconds = run_cold_cli(cold_out)
    cold_bytes = cold_out.read_bytes()

    options = SessionOptions(amortize=True)
    with RenderSession(get_scene(SCENE), options) as session:
        # Warm serve: the smaller request a real frontend sent earlier.
        session.simulate(SimulateRequest(n_photons=PHOTONS_WARM))
        assert session.last_photons_traced == PHOTONS_WARM

        # -- top-up: trace only the missing range ----------------------
        t0 = time.perf_counter()
        topped = session.simulate(SimulateRequest(n_photons=PHOTONS_FULL))
        topup_seconds = time.perf_counter() - t0
        assert session.last_photons_traced == PHOTONS_FULL - PHOTONS_WARM
        assert answer_bytes(topped) == cold_bytes  # exactness, again

        # -- camera-only: render the cached trace, trace nothing -------
        request = SimulateRequest(n_photons=PHOTONS_FULL)
        t0 = time.perf_counter()
        session.render_view(request, width=32, height=24)
        camera_seconds = time.perf_counter() - t0
        assert session.last_photons_traced == 0

        # -- early stop: converge, don't exhaust the budget ------------
        t0 = time.perf_counter()
        stopped = session.simulate(
            SimulateRequest(n_photons=EARLY_BUDGET, target_rel_error=TARGET)
        )
        early_seconds = time.perf_counter() - t0
        assert stopped.early_stopped
        assert stopped.config.n_photons < EARLY_BUDGET
        assert stopped.achieved_rel_error is not None
        assert stopped.achieved_rel_error <= TARGET

    # The headline claim: serving the 10k request by topping up a warm
    # 2k trace beats paying a cold CLI answer by at least 3x.
    speedup = cold_seconds / max(topup_seconds, 1e-9)
    assert speedup >= 3.0, (
        f"top-up {topup_seconds:.3f}s vs cold CLI {cold_seconds:.3f}s "
        f"= only {speedup:.1f}x"
    )
    # Camera-only serves must stay far cheaper than a cold answer too.
    assert camera_seconds < cold_seconds / 3.0

    print(
        f"\ncold CLI {cold_seconds:.2f}s | top-up {topup_seconds:.3f}s "
        f"({speedup:.0f}x) | camera-only {camera_seconds:.3f}s | "
        f"early stop {stopped.config.n_photons:,}/{EARLY_BUDGET:,} photons "
        f"in {early_seconds:.3f}s"
    )
