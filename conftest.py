"""Repo-wide fixtures shared by ``tests/`` and ``benchmarks/``.

Scenes are expensive to build, so they are session-scoped; tests must
never mutate one (patch ids are assigned at construction and shared).
Forests/simulations built *from* the scenes are cheap and constructed
per-test.  The ``engine`` fixture lets any test or bench parametrize
over the scalar and vector tracing engines without copy-paste.
"""

from __future__ import annotations

import errno

import pytest
from hypothesis import settings

from repro.core import SimulationConfig, SplitPolicy
from repro.geometry import Scene
from repro.paper.cluster import profile_scene
from repro.scenes import computer_lab, cornell_box, harpsichord_room
from repro.scenes.generator import generate_scene
from tests.scenehelpers import build_mini_scene


# CI runs `pytest --hypothesis-profile=ci`: the byte-identity properties
# (grouped tally == row-by-row, flat == linear) draw the same examples on
# every run, so a red build is a code change and never a lucky draw.
settings.register_profile("ci", derandomize=True, deadline=None)


@pytest.fixture(scope="session")
def mini_scene() -> Scene:
    return build_mini_scene()


@pytest.fixture(scope="session")
def cornell() -> Scene:
    return cornell_box()


@pytest.fixture(scope="session")
def harpsichord() -> Scene:
    return harpsichord_room()


@pytest.fixture(scope="session")
def lab_small() -> Scene:
    """A reduced Computer Lab (4 workstations) for affordable tests."""
    return computer_lab(workstations=4)


@pytest.fixture(scope="session")
def office64() -> Scene:
    """The mid-size generated corpus scene (gen:office-64, ~2.7k patches).

    The procedural counterpart of the Table 5.1 set: parity, golden,
    and transport suites parametrize over it so the generator sits
    under the same determinism contracts as the hand-built scenes.
    """
    return generate_scene("office-64")


@pytest.fixture()
def fast_config() -> SimulationConfig:
    """A small, deterministic simulation configuration."""
    return SimulationConfig(
        n_photons=400,
        seed=0xC0FFEE,
        policy=SplitPolicy(min_count=16, max_depth=12),
    )


@pytest.fixture(params=("scalar", "vector"))
def engine(request) -> str:
    """Parametrizes a test over the scalar oracle and the vector engine."""
    return request.param


@pytest.fixture(scope="session")
def scenes(cornell, harpsichord):
    """Full-size Table 5.1 scene set (benchmarks calibrate on these)."""
    return {
        "cornell-box": cornell,
        "harpsichord-room": harpsichord,
        "computer-lab": computer_lab(),
    }


@pytest.fixture()
def enospc_once(monkeypatch):
    """``enospc_once(module)``: the next ``module.allocate_segment`` call
    raises ``OSError(ENOSPC)``, later ones allocate for real.

    Patch the binding the code under test calls (``shmplane`` for a
    scene publish, the name imported into ``resultplane`` for result
    blocks).  Returns the list of refused sizes, so a test can assert
    the fault fired exactly once.
    """

    def install(module) -> list[int]:
        real_allocate = module.allocate_segment
        refused: list[int] = []

        def allocate(nbytes, tag=""):
            if not refused:
                refused.append(nbytes)
                raise OSError(errno.ENOSPC, "No space left on device")
            return real_allocate(nbytes, tag)

        monkeypatch.setattr(module, "allocate_segment", allocate)
        return refused

    return install


@pytest.fixture(scope="session")
def profiles(scenes):
    return {
        name: profile_scene(scene, photons=250)
        for name, scene in scenes.items()
    }
