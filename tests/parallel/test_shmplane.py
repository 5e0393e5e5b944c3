"""Shared-memory scene plane: zero-copy attach, lifecycle, failure.

The plane's contract has three parts the tests pin down separately:

* **Fidelity** — an attached :class:`SceneArrays` is view-for-view equal
  to the published one and traces bit-identically (the golden/parity
  suites then extend this through the pool).
* **Lifecycle** — the handle pickles small, repeat attaches are cached,
  the owner's close+unlink kills the name (late attaches fail), and the
  pool releases its program's segment after normal exit *and* after a
  worker exception — :func:`repro.parallel.shmplane.leaked_segments`
  must stay empty, always.
* **One path** — the plane is the pool's only scene transport on every
  scene size, and a segment that cannot be created propagates to the
  caller (no second transport to degrade to) with nothing leaked and
  the session still serviceable.
"""

from __future__ import annotations

import errno
import json
import pickle

import numpy as np
import pytest

from repro.api import RenderSession, SceneProgram, SessionOptions, SimulateRequest
from repro.core import (
    EVENT_FIELDS,
    SceneArrays,
    SimulationConfig,
    VectorEngine,
    forest_to_dict,
)
from repro.parallel import shmplane
from repro.parallel.procpool import PhotonPool
from repro.parallel.shmplane import (
    PLANE_SEGMENT_PREFIX,
    attach,
    detach_all,
    leaked_segments,
    publish,
)


@pytest.fixture(autouse=True)
def _plane_hygiene():
    """Every test starts detached and must leak no segments."""
    detach_all()
    yield
    detach_all()
    assert leaked_segments() == []


@pytest.fixture(scope="module")
def cornell_arrays(request) -> SceneArrays:
    return SceneArrays(request.getfixturevalue("cornell"))


def _forest_bytes(forest) -> str:
    return json.dumps(forest_to_dict(forest))


def _arrays_equal(a: np.ndarray, b: np.ndarray) -> bool:
    """Bit-level equality; NaN == NaN (the gloss column is NaN-padded)."""
    if a.dtype != b.dtype or a.shape != b.shape:
        return False
    return bool(np.array_equal(a.view(np.uint8), b.view(np.uint8)))


class TestPublishAttach:
    def test_attached_arrays_equal_published(self, cornell_arrays):
        with publish(cornell_arrays) as plane:
            att = attach(plane.handle)
            for name, value in vars(cornell_arrays).items():
                if isinstance(value, np.ndarray):
                    assert _arrays_equal(getattr(att, name), value), name
            for name, value in cornell_arrays.flat.arrays().items():
                assert _arrays_equal(getattr(att.flat, name), value), name
            assert att.total_power == cornell_arrays.total_power
            assert att.patch_count == cornell_arrays.patch_count
            assert att.scene is None
            detach_all()

    def test_exported_field_names(self, cornell_arrays):
        """Every array attribute plus the compiled octree — and nothing
        for a third accelerator (no per-leaf bounds or candidate lists)."""
        names = set(cornell_arrays.export_fields())
        assert names == {
            name for name, value in vars(cornell_arrays).items()
            if isinstance(value, np.ndarray)
        } | {f"flat.{name}" for name in cornell_arrays.flat.arrays()}
        assert not [name for name in names if name.startswith("leaf")]
        with publish(cornell_arrays) as plane:
            assert {row[0] for row in plane.handle.fields} == names

    def test_attach_is_zero_copy_and_read_only(self, cornell_arrays):
        with publish(cornell_arrays) as plane:
            att = attach(plane.handle)
            # Views alias the segment, they do not own copies...
            assert not att.p0x.flags.owndata
            assert not att.flat.first_child.flags.owndata
            # ...and the plane is immutable by contract.
            with pytest.raises(ValueError):
                att.p0x[0] = 1.0
            detach_all()

    def test_repeat_attach_is_cached(self, cornell_arrays):
        with publish(cornell_arrays) as plane:
            first = attach(plane.handle)
            assert attach(plane.handle) is first
            detach_all()

    def test_handle_pickles_small_and_reattaches(self, cornell_arrays):
        with publish(cornell_arrays) as plane:
            wire = pickle.dumps(plane.handle)
            # Names + shapes + dtypes + offsets only — never the payload.
            assert len(wire) < 16_384
            assert len(wire) < plane.handle.nbytes / 4
            att = attach(pickle.loads(wire))
            assert np.array_equal(att.nx, cornell_arrays.nx)
            detach_all()

    def test_engine_from_attached_plane_is_bit_exact(self, cornell_arrays, scenes):
        """An attached engine traces what the publisher's does, on a scene
        each side of the accelerator choice (dense scan, flat walk)."""
        for arrays, accel in (
            (cornell_arrays, "linear"),
            (SceneArrays(scenes["computer-lab"]), "flat"),
        ):
            with publish(arrays) as plane:
                reference = VectorEngine(arrays=arrays)
                attached = VectorEngine(arrays=attach(plane.handle))
                assert reference.accel == attached.accel == accel
                ev_ref, st_ref = reference.trace_range(0xC0FFEE, 0, 400)
                ev_att, st_att = attached.trace_range(0xC0FFEE, 0, 400)
                assert st_ref == st_att
                for name, _ in EVENT_FIELDS:
                    assert getattr(ev_ref, name).tolist() == getattr(ev_att, name).tolist()
                detach_all()


class TestLifecycle:
    def test_unlink_kills_the_name(self, cornell_arrays):
        plane = publish(cornell_arrays)
        handle = plane.handle
        plane.close()
        plane.unlink()
        with pytest.raises(FileNotFoundError):
            attach(handle)

    def test_close_and_unlink_are_idempotent(self, cornell_arrays):
        plane = publish(cornell_arrays)
        plane.close()
        plane.close()
        plane.unlink()
        plane.unlink()

    def test_context_manager_releases_on_exception(self, cornell_arrays):
        with pytest.raises(RuntimeError, match="boom"):
            with publish(cornell_arrays) as plane:
                name = plane.name
                assert name in leaked_segments()
                raise RuntimeError("boom")
        assert leaked_segments() == []

    def test_segment_names_are_scannable(self, cornell_arrays):
        with publish(cornell_arrays) as plane:
            assert plane.name.startswith(PLANE_SEGMENT_PREFIX)
            assert plane.name in leaked_segments()


class TestAllocationFailure:
    """A segment that cannot be created propagates; nothing degrades."""

    def test_unavailable_platform(self, cornell, monkeypatch):
        monkeypatch.setattr(shmplane, "_shm", None)
        config = SimulationConfig(n_photons=10, workers=2)
        with pytest.raises(RuntimeError, match="unavailable"):
            PhotonPool(SceneProgram.compile(cornell), config).start()
        # workers=1 never touches shared memory and still serves.
        with RenderSession(cornell, SessionOptions(workers=1)) as session:
            result = session.simulate(SimulateRequest(n_photons=50))
        assert result.stats.photons == 50

    def test_scene_publish_enospc_propagates_and_session_recovers(
        self, cornell, enospc_once
    ):
        """ENOSPC on the scene publish: the request raises, nothing
        leaks, no plane reference is taken, and the *next* request on
        the same session publishes and answers byte-identically."""
        request = SimulateRequest(n_photons=600, seed=0xC0FFEE)
        with RenderSession(cornell, SessionOptions(workers=1)) as single:
            reference = single.simulate(request)

        refused = enospc_once(shmplane)
        with RenderSession(cornell, SessionOptions(workers=2)) as session:
            with pytest.raises(OSError) as raised:
                session.simulate(request)
            assert raised.value.errno == errno.ENOSPC
            assert leaked_segments() == []
            assert session.program.plane_refs == 0
            result = session.simulate(request)
            assert session.program.plane_refs == 1
        assert len(refused) == 1
        assert result.stats == reference.stats
        assert _forest_bytes(result.forest) == _forest_bytes(reference.forest)
        assert leaked_segments() == []


class TestPooledRuns:
    """Real 2-process pools: one scene segment, same bytes, no leaks."""

    @pytest.fixture(scope="class")
    def reference(self, cornell):
        config = SimulationConfig(n_photons=600, seed=0xC0FFEE)
        return VectorEngine(cornell).run(config)

    @pytest.mark.parametrize("scene_name", ["cornell", "lab_small"])
    def test_pool_matches_single_process_on_any_scene_size(
        self, request, scene_name
    ):
        """30 patches or 370: the pool publishes exactly one scene
        segment (plus its result blocks) and reproduces the
        single-process bytes."""
        scene = request.getfixturevalue(scene_name)
        single = SimulationConfig(n_photons=600, seed=0xC0FFEE)
        expected = VectorEngine(scene).run(single)
        config = SimulationConfig(
            n_photons=600, seed=0xC0FFEE, workers=2
        )
        program = SceneProgram.compile(scene)
        with PhotonPool(program, config) as pool:
            [scene_segment] = leaked_segments()
            result = pool.run()
            assert leaked_segments() == sorted(
                [scene_segment, pool.result_blocks.name]
            )
        assert result.stats == expected.stats
        assert _forest_bytes(result.forest) == _forest_bytes(expected.forest)
        assert leaked_segments() == []

    def test_pool_reuse_across_runs(self, cornell, reference):
        """A persistent pool serves several budgets without re-publishing."""
        config = SimulationConfig(
            n_photons=600, seed=0xC0FFEE, workers=2
        )
        with PhotonPool(SceneProgram.compile(cornell), config) as pool:
            first = pool.run()
            again = pool.run()
            assert _forest_bytes(first.forest) == _forest_bytes(again.forest)
            other = pool.run(
                SimulationConfig(
                    n_photons=150, seed=0xBEEF, workers=2
                )
            )
            assert other.stats.photons == 150
        assert _forest_bytes(first.forest) == _forest_bytes(reference.forest)
        assert leaked_segments() == []

    def test_pool_publishes_caller_arrays(self, cornell, reference, monkeypatch):
        """The pool publishes its program's compiled arrays, never a
        recompile of the scene; answers and cleanup are unchanged."""
        program = SceneProgram.compile(cornell)
        published = []
        real_publish = shmplane.publish

        def recording_publish(arrays):
            published.append(arrays)
            return real_publish(arrays)

        monkeypatch.setattr(shmplane, "publish", recording_publish)
        config = SimulationConfig(
            n_photons=600, seed=0xC0FFEE, workers=2
        )
        with PhotonPool(program, config) as pool:
            result = pool.run()
        assert len(published) == 1 and published[0] is program.arrays
        assert _forest_bytes(result.forest) == _forest_bytes(reference.forest)
        assert leaked_segments() == []

    def test_pool_attaches_external_plane_without_owning_it(self, cornell, reference):
        """A pool borrows its program's plane: with another reference
        held it attaches that segment, publishes none of its own, and
        leaves it alive on close — the last release unlinks it."""
        config = SimulationConfig(
            n_photons=600, seed=0xC0FFEE, workers=2,
        )
        program = SceneProgram.compile(cornell)
        handle = program.acquire_plane()
        try:
            with PhotonPool(program, config) as pool:
                assert program.plane_refs == 2
                assert leaked_segments() == [handle.segment]
                result = pool.run()
            # The pool is closed; the other reference keeps the segment.
            assert program.plane_refs == 1
            assert leaked_segments() == [handle.segment]
        finally:
            program.release_plane()
        assert leaked_segments() == []
        assert _forest_bytes(result.forest) == _forest_bytes(reference.forest)

    def test_worker_exception_releases_segment(self, cornell):
        config = SimulationConfig(
            n_photons=100, seed=1, workers=2
        )
        with pytest.raises(RuntimeError, match="boom"):
            with PhotonPool(SceneProgram.compile(cornell), config) as pool:
                assert leaked_segments() != []
                pool._pool.apply(_boom)
        assert leaked_segments() == []


def _boom() -> None:
    """Pool target that always fails (worker-exception lifecycle test)."""
    raise RuntimeError("boom")
