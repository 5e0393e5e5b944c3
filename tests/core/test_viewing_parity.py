"""Batched viewing stage == the per-pixel oracle, byte for byte.

:func:`repro.core.viewing.render_rows` sends a band of eye rays through
the compiled closest-hit kernel and looks radiance up per (tree, leaf)
group.  The loop it replaced survives as the single-ray API —
``Camera.primary_ray`` -> ``repro.paper.octree.intersect`` ->
``RadianceField.sample`` — and is the reference here: for any camera
the two must produce the same float64 image to the bit, whichever
accelerator resolves the hits, however the rows are split into calls or
bands, for patch-keyed and ``ownership=``-keyed forests alike.

The ``vectorized.py`` determinism contract's caveat applies to this
suite: the pointer octree behind ``intersect`` may disagree with
the canonical max-patch-id rule on a cross-cell exact-distance tie.  If
Hypothesis ever draws one, the canonical rule wins — pin the example
here with a comment rather than bending the batch to it.
"""

from __future__ import annotations

import functools
import tracemalloc

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from repro.core import RadianceField, SimulationConfig
from repro.core.vectorized import SceneArrays, VectorEngine
from repro.core.viewing import Camera, render, render_rows
from repro.geometry import Vec3
from repro.paper.distributed import DistributedConfig, run_distributed
from repro.paper.octree import intersect
from repro.paper.scalar import run_scalar
from repro.scenes import cornell_box
from repro.scenes.generator import generate_scene
from tests.scenehelpers import build_mini_scene


def oracle_render(scene, field: RadianceField, camera: Camera) -> np.ndarray:
    """The per-pixel loop the batch replaced, on the single-ray API."""
    out = np.zeros((camera.height, camera.width, 3), dtype=np.float64)
    for j in range(camera.height):
        for i in range(camera.width):
            ray = camera.primary_ray(i, j)
            hit = intersect(scene, ray)
            if hit is None:
                continue
            d = ray.direction
            to_eye = Vec3(-d.x, -d.y, -d.z)
            out[j, i] = field.sample(hit.patch.patch_id, hit.s, hit.t, to_eye).rgb
    return out


_BUILDERS = {
    # 8 patches / 30 patches: `auto` is the dense scan; 344: the flat walk.
    "mini": build_mini_scene,
    "cornell": cornell_box,
    "office8": lambda: generate_scene("office-8"),
}


@functools.lru_cache(maxsize=None)
def _case(name: str):
    """(scene, patch-keyed field, {accel: engine}) — built once per scene."""
    scene = _BUILDERS[name]()
    result = run_scalar(scene, SimulationConfig(n_photons=2500, seed=41))
    arrays = SceneArrays(scene)
    engines = {
        accel: VectorEngine(arrays=arrays, accel=accel)
        for accel in ("linear", "flat")
    }
    return scene, RadianceField(scene, result.forest), engines


@functools.lru_cache(maxsize=None)
def _owned_case():
    """mini-box with a unit-keyed forest and the map that resolves it."""
    scene, _, engines = _case("mini")
    dist = run_distributed(
        scene,
        DistributedConfig(n_photons=2500, batch_size=500, pilot_photons=400, seed=5),
        2,
    )
    return scene, RadianceField(scene, dist.forest, ownership=dist.mapping), engines


# Eye and target as fractions of the scene bounds: eyes reach well
# outside the box (most rays miss), targets stay in or near it.
_eye = st.tuples(*[st.floats(-1.0, 2.0)] * 3)
_target = st.tuples(*[st.floats(-0.1, 1.1)] * 3)
_free_view = st.tuples(_eye, _target)
# Views along a world axis from a grid point: whole pixel columns and
# rows share an exactly zero (or negative-zero) direction component.
_axis_view = st.builds(
    lambda eye, axis, sign: (
        eye, tuple(e + sign * (k == axis) for k, e in enumerate(eye)),
    ),
    st.tuples(*[st.sampled_from([-0.5, 0.0, 0.25, 0.5, 1.0, 1.5])] * 3),
    st.integers(0, 2), st.sampled_from([-0.5, 0.5]),
)
_camera_spec = st.tuples(
    st.one_of(_free_view, _axis_view),
    st.sampled_from([(0.0, 1.0, 0.0), (0.0, 0.0, 1.0), (1.0, 0.0, 0.0)]),
    st.floats(20.0, 120.0),
    st.integers(1, 17), st.integers(1, 13),  # odd widths: a zero-ndc column
)


def build_camera(scene, spec) -> Camera:
    """The drawn camera over *scene*'s bounds; degenerate draws are discarded."""
    (eye, target), up, fov, width, height = spec
    lo, hi = scene.bounds().lo, scene.bounds().hi

    def place(frac):
        return Vec3(*(l + f * (h - l) for l, h, f in zip(lo, hi, frac)))

    try:
        return Camera(place(eye), place(target), Vec3(*up), fov, width, height)
    except ValueError:
        assume(False)


def assert_same_bytes(got: np.ndarray, want: np.ndarray) -> None:
    assert got.shape == want.shape
    if got.tobytes() != want.tobytes():
        where = np.argwhere((got != want).any(axis=2))
        raise AssertionError(f"{len(where)} pixel(s) differ, first (row, col) {where[0]}")


class TestBatchedEqualsOracle:
    @pytest.mark.parametrize("accel", ["linear", "flat"])
    @pytest.mark.parametrize("name", sorted(_BUILDERS))
    @settings(max_examples=25, deadline=None)
    @given(spec=_camera_spec)
    def test_random_cameras(self, name, accel, spec):
        scene, field, engines = _case(name)
        camera = build_camera(scene, spec)
        got = render(scene, field, camera, engine=engines[accel])
        assert_same_bytes(got, oracle_render(scene, field, camera))

    @pytest.mark.parametrize("accel", ["linear", "flat"])
    @settings(max_examples=25, deadline=None)
    @given(spec=_camera_spec)
    def test_ownership_keyed_forest(self, accel, spec):
        """Rows find their unit through ``OwnershipMap.unit_of`` first."""
        scene, field, engines = _owned_case()
        camera = build_camera(scene, spec)
        got = render(scene, field, camera, engine=engines[accel])
        assert_same_bytes(got, oracle_render(scene, field, camera))

    @pytest.mark.parametrize("name", sorted(_BUILDERS))
    def test_default_camera_odd_resolution(self, name):
        """The registered view, engine left to the call (``accel='auto'``)."""
        scene, field, _ = _case(name)
        camera = Camera(width=33, height=25, **scene.default_camera)
        assert_same_bytes(
            render(scene, field, camera), oracle_render(scene, field, camera)
        )

    def test_all_rays_miss(self):
        scene, field, engines = _case("office8")
        away = Camera(Vec3(4.0, 1.0, 30.0), Vec3(4.0, 1.0, 60.0), width=9, height=7)
        for engine in engines.values():
            assert not render(scene, field, away, engine=engine).any()


class TestBandInvariance:
    @settings(max_examples=25, deadline=None)
    @given(spec=_camera_spec, cuts=st.lists(st.integers(0, 13), max_size=4))
    def test_any_row_split_equals_the_full_frame(self, spec, cuts):
        scene, field, engines = _case("cornell")
        camera = build_camera(scene, spec)
        engine = engines["linear"]
        full = render(scene, field, camera, engine=engine)
        edges = sorted({0, camera.height, *(c for c in cuts if c < camera.height)})
        parts = [
            render_rows(scene, field, camera, a, b, engine=engine)
            for a, b in zip(edges, edges[1:])
        ]
        assert_same_bytes(np.concatenate(parts), full)

    @pytest.mark.parametrize("name,accel", [("cornell", "linear"), ("office8", "flat")])
    def test_one_row_bands_equal_the_full_frame(self, name, accel):
        """A band budget below one row still renders whole rows."""
        scene, field, engines = _case(name)
        camera = Camera(width=21, height=15, **scene.default_camera)
        narrow = VectorEngine(arrays=engines[accel].arrays, accel=accel, batch_size=1)
        assert_same_bytes(
            render(scene, field, camera, engine=narrow),
            render(scene, field, camera, engine=engines[accel]),
        )

    def test_transient_memory_does_not_grow_with_height(self):
        """Bands bound what a render holds besides the image it returns.

        Measured on the dense scan inside a closed box, where a band's
        working set is rays x patches whatever the rays look at (the
        flat walk's follows how much geometry a band's rays cross).
        """
        scene, field, engines = _case("cornell")
        engine = VectorEngine(
            arrays=engines["linear"].arrays, accel="linear", batch_size=512
        )

        def transient_bytes(height: int) -> int:
            camera = Camera(width=32, height=height, **scene.default_camera)
            tracemalloc.start()
            try:
                image = render(scene, field, camera, engine=engine)
                _, peak = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
            return peak - image.nbytes

        transient_bytes(32)  # first-call allocations out of the way
        short, tall = transient_bytes(64), transient_bytes(1024)
        assert tall <= 1.05 * short, (short, tall)
