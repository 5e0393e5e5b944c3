"""The screened dense scan == the scalar brute-force scan, bit for bit.

``VectorEngine._screen_patches`` walks lanes x patches in tiles of
``vectorized.DENSE_TILE``.  A conservative screen (two matrix products
a tile) rules pairs out; the exact ``Patch.intersect`` arithmetic and
the closest-hit rule (smallest t, exact ties to the largest patch id)
run on the pairs it keeps.  The screen is elementwise and its margins
depend on the whole call, and the rule is a pure function of the
candidate set, so where tile edges fall must be invisible: these tests
move the edges (1-lane tiles, 7 x 5 tiles, one tile for everything),
straddle them with lane and patch counts, and compare with the scalar
oracle — ``Patch.intersect`` patch by patch, later equal distances
winning, which is the paper tier's ``intersect_linear`` and the
canonical rule.  (Its ``intersect`` walks the pointer octree and may
break a cross-cell exact tie the other way; it is a second oracle only
where no tie straddles two of its cells.)  ``TestScreenIsConservative``
holds the screen's survivors against every pair the exact test accepts,
on the rays its error bound is weakest for.
"""

from __future__ import annotations

import functools
import math
import sys
import threading
import time
import tracemalloc
import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import vectorized
from repro.core.vectorized import VectorEngine
from repro.geometry import Vec3
from repro.geometry.material import RGB, Material
from repro.geometry.polygon import Patch
from repro.geometry.ray import Ray
from repro.geometry.scene import Scene
from repro.paper.octree import intersect
from repro.scenes import computer_lab, cornell_box

TILE_LANES, TILE_COLS = vectorized.DENSE_TILE
#: 1-lane tiles, tiles ragged on both axes, one tile for everything.
TILES = [(1, TILE_COLS), (7, 5), (10**9, 10**9)]


@pytest.fixture(scope="module")
def lab():
    """The full computer-lab: 1,902 patches, 59 column chunks and a part."""
    return computer_lab()


def random_rays(scene, seed: int, n: int):
    rng = np.random.default_rng(seed)
    lo, hi = scene.bounds().lo, scene.bounds().hi
    d = rng.normal(size=(3, n))
    d /= np.sqrt((d * d).sum(axis=0))
    return (rng.uniform(lo.x, hi.x, n), rng.uniform(lo.y, hi.y, n),
            rng.uniform(lo.z, hi.z, n), d[0], d[1], d[2])


def tie_rays(scene, step: int = 1):
    """One ray per *step*-th patch, dropped onto its centre along the normal.

    Coplanar overlapping patches (the lab's desk tops and floor tiles,
    cornell's floor under its blocks' bases) are then at bit-equal
    distance, so the max-patch-id rule decides.
    """
    cols = []
    for p in scene.patches[::step]:
        c = p.p0 + p.eu * 0.5 + p.ev * 0.5
        n = p.normal
        cols.append((c.x + 0.05 * n.x, c.y + 0.05 * n.y, c.z + 0.05 * n.z,
                     -n.x, -n.y, -n.z))
    return tuple(np.array(col) for col in zip(*cols))


def concat(*batches):
    return tuple(np.concatenate(cols) for cols in zip(*batches))


def scalar_scan(scene, rays, patch_ids=None):
    """``(ids, distances, tied lanes)`` of the scalar scan over *patch_ids*."""
    patches = scene.patches if patch_ids is None else [
        scene.patches[i] for i in patch_ids
    ]
    ids, dists, tied = [], [], 0
    for ox, oy, oz, dx, dy, dz in zip(*(r.tolist() for r in rays)):
        ray = Ray(Vec3(ox, oy, oz), Vec3(dx, dy, dz), normalized=True)
        best_i, best_t, ties = -1, math.inf, 0
        for patch in patches:
            hit = patch.intersect(ray, best_t)
            if hit is not None:
                ties = ties + 1 if hit.distance == best_t else 0
                best_i, best_t = patch.patch_id, hit.distance
        ids.append(best_i)
        dists.append(best_t)
        tied += ties > 0
    return ids, dists, tied


def screen_pairs(engine, rays, cols=None) -> set:
    """The ``(lane, patch)`` pairs the screen keeps, over *cols*.

    One tile for everything, so each pair the exact stage sees is
    recorded with its own lane index.  Leaves ``patch_tests`` as it was.
    """
    n = rays[0].size
    cols = np.arange(engine.arrays.patch_count) if cols is None else cols
    seen = set()
    real = VectorEngine._fold_hits

    def spy(lanes, pids, t, ok, best_t, best_i):
        seen.update(zip(lanes.tolist(), pids.tolist()))
        real(lanes, pids, t, ok, best_t, best_i)

    tests = engine.patch_tests
    with mock.patch.object(vectorized, "DENSE_TILE", (10**9, 10**9)), \
            mock.patch.object(VectorEngine, "_fold_hits", staticmethod(spy)):
        engine._screen_patches(*rays, np.asarray(cols, dtype=np.int64),
                               np.full(n, np.inf), np.full(n, -1, dtype=np.int64))
    engine.patch_tests = tests
    return seen


def exact_pairs(engine, rays, cols=None) -> set:
    """The ``(lane, patch)`` pairs the exact kernel accepts, all tested."""
    n = rays[0].size
    cols = np.arange(engine.arrays.patch_count) if cols is None else np.asarray(cols)
    lanes = np.repeat(np.arange(n), cols.size)
    pids = np.tile(cols, n)
    tests = engine.patch_tests
    _, ok = engine._plane_hits(
        engine._hit_consts(pids), *(r[lanes] for r in rays),
        np.empty((vectorized._HIT_PLANES, lanes.size)),
        np.empty((2, lanes.size), dtype=bool),
    )
    engine.patch_tests = tests
    return set(zip(lanes[ok].tolist(), pids[ok].tolist()))


def assert_matches_scalar(engine, scene, rays):
    best_i, best_t = engine.closest_hit(*rays)
    want_i, want_t, tied = scalar_scan(scene, rays)
    assert best_i.tolist() == want_i
    assert best_t.tolist() == want_t
    return tied


class TestTileIndependence:
    @pytest.mark.parametrize("scene_fixture", ["cornell", "lab_small"])
    def test_tile_shape_cannot_matter(self, request, monkeypatch, scene_fixture):
        scene = request.getfixturevalue(scene_fixture)
        rays = concat(random_rays(scene, 21, 300), tie_rays(scene))
        engine = VectorEngine(scene, accel="linear")
        want_i, want_t = engine.closest_hit(*rays)
        want_tests = engine.patch_tests
        assert want_tests == len(screen_pairs(engine, rays))
        for tile in TILES:
            monkeypatch.setattr(vectorized, "DENSE_TILE", tile)
            engine.patch_tests = 0
            best_i, best_t = engine.closest_hit(*rays)
            assert best_i.tolist() == want_i.tolist(), tile
            assert best_t.tolist() == want_t.tolist(), tile
            assert engine.patch_tests == want_tests, tile


class TestTileEdges:
    @pytest.mark.parametrize("lanes", [
        0, 1, TILE_LANES - 1, TILE_LANES, TILE_LANES + 1, 3 * TILE_LANES + 7,
    ])
    def test_lane_counts_straddling_a_tile(self, cornell, lanes):
        engine = VectorEngine(cornell, accel="linear")
        rays = random_rays(cornell, lanes, lanes)
        best_i, best_t = engine.closest_hit(*rays)
        want_i, want_t, _ = scalar_scan(cornell, rays)
        assert (best_i.tolist(), best_t.tolist()) == (want_i, want_t)
        # The pointer octree agrees too: the few exact ties here (floor
        # against a block's base) do not straddle two of its cells.
        for k in range(0, lanes, 17):
            hit = intersect(cornell, Ray(
                Vec3(*(float(r[k]) for r in rays[:3])),
                Vec3(*(float(r[k]) for r in rays[3:])), normalized=True,
            ))
            assert (best_i[k], best_t[k]) == (
                (-1, math.inf) if hit is None
                else (hit.patch.patch_id, hit.distance)
            )

    @pytest.mark.parametrize("patches", [
        1, TILE_COLS - 1, TILE_COLS, TILE_COLS + 1, 2 * TILE_COLS + 3,
    ])
    def test_patch_counts_straddling_a_chunk(self, lab, patches):
        engine = VectorEngine(lab, accel="linear")
        rays = concat(random_rays(lab, patches, 40), tie_rays(lab, step=48))
        n = rays[0].size
        best_t = np.full(n, np.inf)
        best_i = np.full(n, -1, dtype=np.int64)
        cols = np.arange(patches, dtype=np.int64)
        engine._screen_patches(*rays, cols, best_t, best_i)
        want_i, want_t, _ = scalar_scan(lab, rays, range(patches))
        assert best_i.tolist() == want_i
        assert best_t.tolist() == want_t
        assert engine.patch_tests == len(screen_pairs(engine, rays, cols))

    def test_whole_lab_with_ties_across_chunks(self, lab):
        """Tied patches sit in one chunk, in two, and on both sides of
        the running best; the largest id wins each time."""
        engine = VectorEngine(lab, accel="linear")
        rays = concat(tie_rays(lab, step=7), random_rays(lab, 5, 64))
        tied = assert_matches_scalar(engine, lab, rays)
        assert tied > 20
        assert engine.patch_tests == len(screen_pairs(engine, rays))


# -- property: any rays, any tile shape ----------------------------------------

@functools.lru_cache(maxsize=None)
def _cornell_case():
    scene = cornell_box()
    return scene, VectorEngine(scene, accel="linear")


_component = st.one_of(
    st.sampled_from([0.0, -0.0, 1.0, -1.0]), st.floats(-1.0, 1.0),
)
_free_ray = st.tuples(
    st.floats(-0.4, 2.4), st.floats(-0.4, 2.4), st.floats(-0.4, 2.4),
    _component, _component, _component,
).filter(lambda r: any(c != 0.0 for c in r[3:]))


@st.composite
def _in_plane_ray(draw):
    """A ray lying in a patch's plane: its ``denom`` is zero or rounding
    noise, inside the +-1e-14 band that rejects the patch."""
    patches = _cornell_case()[0].patches
    p = patches[draw(st.integers(0, len(patches) - 1))]
    s, t = draw(st.floats(-0.5, 1.5)), draw(st.floats(-0.5, 1.5))
    angle = draw(st.floats(0.0, 2.0 * math.pi))
    o = p.p0 + p.eu * s + p.ev * t
    d = p.eu.normalized() * math.cos(angle) + p.ev.normalized() * math.sin(angle)
    return (o.x, o.y, o.z, d.x, d.y, d.z)


class TestDenseScanProperty:
    @settings(max_examples=60, deadline=None)
    @given(
        rays=st.lists(st.one_of(_free_ray, _in_plane_ray()),
                      min_size=1, max_size=20),
        tile=st.tuples(st.integers(1, 24), st.integers(1, 40)),
    )
    def test_any_rays_any_tile(self, rays, tile):
        """Origins in and around the box, axis-parallel, signed-zero and
        unnormalised directions, rays grazing along a patch plane."""
        r = np.array(rays, dtype=np.float64)
        batch = tuple(r[:, k].copy() for k in range(6))
        with mock.patch.object(vectorized, "DENSE_TILE", tile), \
                warnings.catch_warnings():
            # A denormal denom overflows t on a lane the test rejects.
            warnings.simplefilter("error")
            scene, engine = _cornell_case()
            assert_matches_scalar(engine, scene, batch)


# -- the screen is conservative -------------------------------------------------
#
# The screen's margins come from a rounding-error bound (the
# ``_screen_patches`` docstring).  Each clause of that argument has rays
# that need it: aimed at patch edges and corners (the margin), grazing a
# plane (the |n.d| floor), and a patch whose screen rows overflow (NaN
# kept).  Every test here holds the screen's survivors against every pair
# the exact kernel accepts, and the answers against the scalar oracle.


def moved_cornell(offset: float = 1e4, scale: float = 1e-3) -> Scene:
    """Cornell box turned off the axes, scaled by *scale*, translated by
    *offset*.  Turned, its normals' dot products round too."""
    c, s = math.cos(0.5), math.sin(0.5)

    def turn(v):  # 0.5 rad about z, then 0.5 rad about x
        x, y = c * v.x - s * v.y, s * v.x + c * v.y
        return Vec3(x * scale, (c * y - s * v.z) * scale, (s * y + c * v.z) * scale)

    def place(v):
        v = turn(v)
        return Vec3(v.x + offset, v.y + offset, v.z + offset)

    return Scene(
        [Patch(place(p.p0), turn(p.eu), turn(p.ev), p.material, name=p.name)
         for p in cornell_box().patches],
        name="cornell-moved",
    )


#: The far patch: 1e302 out along x and 1e-7 across, so ``U.p0`` and
#: ``U.o`` overflow to -inf and +inf and the screen's ``s`` is NaN.
FAR_X, FAR_SIZE = 1e302, 1e-7


def far_patch_scene() -> Scene:
    lamp = Material("lamp", diffuse=RGB(0.0, 0.0, 0.0), emission=RGB(1.0, 1.0, 1.0))
    return Scene([
        Patch(Vec3(FAR_X, 0.0, 0.0), Vec3(FAR_SIZE, 0.0, 0.0),
              Vec3(0.0, 0.0, FAR_SIZE), Material("white"), name="far"),
        Patch(Vec3(0.0, 5.0, 0.0), Vec3(1.0, 0.0, 0.0), Vec3(0.0, 0.0, 1.0),
              lamp, name="lamp"),
    ], name="far-patch")


@functools.lru_cache(maxsize=None)
def _screen_case(name: str):
    scene = {"cornell": cornell_box, "moved": moved_cornell,
             "far": far_patch_scene}[name]()
    with np.errstate(all="ignore"):  # the far scene's boxes overflow
        return scene, VectorEngine(scene, accel="linear")


def _direction(rng) -> Vec3:
    d = Vec3(rng.uniform(-1, 1), rng.uniform(-1, 1), rng.uniform(-1, 1))
    return d.normalized() if d.length() > 0.1 else Vec3(0.36, 0.48, 0.8)


def _across(p, rng) -> Vec3:
    """A unit direction through *p*'s plane, at least ~8 degrees to it."""
    side = p.normal * float(rng.choice((-1.0, 1.0)))
    return (side + p.eu.normalized() * rng.uniform(-5.0, 5.0)
            + p.ev.normalized() * rng.uniform(-5.0, 5.0)).normalized()


def _edge_param(rng) -> float:
    """0 or 1, on the 1e-9 tolerance or a hair either side of it."""
    edge = float(rng.choice((0.0, 1.0)))
    sign = -1.0 if edge == 0.0 else 1.0
    return edge + sign * float(
        rng.choice((0.0, 1e-9, 0.999999e-9, 1.000001e-9, -1e-9, 2e-9, 1e-12))
    )


def edge_ray(scene, rng) -> tuple:
    """Aimed at an edge (``s`` or ``t`` = 0 or 1 +- ~1e-9) or a corner."""
    p = scene.patches[rng.integers(len(scene.patches))]
    s = _edge_param(rng)
    t = _edge_param(rng) if rng.integers(2) else rng.uniform(0.0, 1.0)
    if rng.integers(2):
        s, t = t, s
    target = p.p0 + p.eu * s + p.ev * t
    d = _across(p, rng)
    o = target - d * (rng.uniform(0.05, 2.0) * p.eu.length())
    return (o.x, o.y, o.z, d.x, d.y, d.z)


def grazing_ray(scene, rng) -> tuple:
    """``|n.d|`` from 1e-14 to 1e-3, crossing the plane in or near the patch."""
    p = scene.patches[rng.integers(len(scene.patches))]
    # Near an edge, by about as far as rounding moves a grazing hit.
    s = float(rng.choice((0.0, 1.0))) + 10.0 ** rng.uniform(-12.0, -2.0) * float(
        rng.choice((-1.0, 1.0))
    )
    t = rng.uniform(-0.01, 1.01)
    if rng.integers(2):
        s, t = t, s
    target = p.p0 + p.eu * s + p.ev * t
    n = p.normal
    angle = rng.uniform(0.0, 2.0 * math.pi)
    w = p.eu.normalized() * math.cos(angle) + p.ev.normalized() * math.sin(angle)
    w = (w - n * w.dot(n)).normalized()
    g = 10.0 ** rng.uniform(-14.0, -3.0) * float(rng.choice((-1.0, 1.0)))
    d = w * math.sqrt(1.0 - g * g) + n * g
    o = target - d * (rng.uniform(0.05, 2.0) * p.eu.length())
    return (o.x, o.y, o.z, d.x, d.y, d.z)


def surface_ray(scene, rng) -> tuple:
    """Leaving a patch from a point on its surface, to either side."""
    p = scene.patches[rng.integers(len(scene.patches))]
    o = p.point_at(rng.uniform(0.0, 1.0), rng.uniform(0.0, 1.0))
    d = _direction(rng)
    return (o.x, o.y, o.z, d.x, d.y, d.z)


def far_eye_ray(scene, rng) -> tuple:
    """From 1e6 away, through a point of the scene's box."""
    lo, hi = scene.bounds().lo, scene.bounds().hi
    target = Vec3(rng.uniform(lo.x, hi.x), rng.uniform(lo.y, hi.y),
                  rng.uniform(lo.z, hi.z))
    o = target + _direction(rng) * 1e6
    d = (target - o).normalized()
    return (o.x, o.y, o.z, d.x, d.y, d.z)


def far_patch_ray(scene, rng) -> tuple:
    """Straight down (or up) onto the far patch's ``s = 0`` edge."""
    y = rng.uniform(0.1, 10.0) * float(rng.choice((-1.0, 1.0)))
    return (FAR_X, y, rng.uniform(0.0, 1.0) * FAR_SIZE,
            0.0, -math.copysign(1.0, y), 0.0)


RAY_KINDS = {
    "edges": edge_ray, "grazing": grazing_ray,
    "surface": surface_ray, "far-eye": far_eye_ray,
}


def as_batch(rays) -> tuple:
    r = np.array(rays, dtype=np.float64)
    return tuple(r[:, k].copy() for k in range(6))


def assert_screen_is_conservative(name: str, rays) -> None:
    scene, engine = _screen_case(name)
    batch = as_batch(rays)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        kept = screen_pairs(engine, batch)
        accepted = exact_pairs(engine, batch)
        assert accepted <= kept, sorted(accepted - kept)[:5]
        assert_matches_scalar(engine, scene, batch)


class TestScreenIsConservative:
    @pytest.mark.parametrize("kind", sorted(RAY_KINDS))
    @pytest.mark.parametrize("name", ["cornell", "moved"])
    def test_adversarial_rays(self, name, kind):
        scene = _screen_case(name)[0]
        seed = sorted(RAY_KINDS).index(kind) + 10 * (name == "moved")
        rng = np.random.default_rng(seed)
        assert_screen_is_conservative(
            name, [RAY_KINDS[kind](scene, rng) for _ in range(600)]
        )

    def test_overflowing_screen_keeps_its_nan_pairs(self):
        """Every ray here hits the far patch, whose screen ``s`` is NaN."""
        scene, engine = _screen_case("far")
        rng = np.random.default_rng(7)
        rays = [far_patch_ray(scene, rng) for _ in range(50)]
        assert_screen_is_conservative("far", rays)
        assert engine.closest_hit(*as_batch(rays))[0].tolist() == [0] * 50

    def test_origin_patch_is_screened_out(self):
        """A bounce leaving a patch never spends an exact test on it."""
        scene, engine = _screen_case("cornell")
        rng = np.random.default_rng(5)
        rays, origins = [], []
        for _ in range(300):
            i = int(rng.integers(len(scene.patches)))
            p = scene.patches[i]
            o = p.point_at(rng.uniform(0.0, 1.0), rng.uniform(0.0, 1.0))
            d = _across(p, rng)
            rays.append((o.x, o.y, o.z, d.x, d.y, d.z))
            origins.append(i)
        assert not screen_pairs(engine, as_batch(rays)) & set(enumerate(origins))

    @pytest.mark.parametrize("kind", sorted(RAY_KINDS) + ["far-patch"])
    @settings(max_examples=40, deadline=None)
    @given(
        name=st.sampled_from(["cornell", "moved"]),
        seed=st.integers(0, 2**32 - 1),
        count=st.integers(1, 40),
    )
    def test_survivors_cover_every_accepted_pair(self, kind, name, seed, count):
        """Any batch of each kind, its rays drawn uniformly from *seed*."""
        if kind == "far-patch":
            name, make = "far", far_patch_ray
        else:
            make = RAY_KINDS[kind]
        scene, rng = _screen_case(name)[0], np.random.default_rng(seed)
        assert_screen_is_conservative(name, [make(scene, rng) for _ in range(count)])


# -- workspace ------------------------------------------------------------------

#: An int no patch id reaches: it would win every tie if read unwritten.
SENTINEL = 2**62


@pytest.fixture()
def poisoned_workspace(monkeypatch):
    """Every dense-scan workspace starts as garbage: NaN floats, ``True``
    bools, sentinel ints.  Returns the ``(lanes, cols)`` of each call."""
    real = VectorEngine._scan_workspace
    calls = []

    def poisoned(lanes, cols):
        blocks = real(lanes, cols)
        for block in blocks:
            block.fill({"f": np.nan, "b": True, "i": SENTINEL}[block.dtype.kind])
        calls.append((lanes, cols))
        return blocks

    monkeypatch.setattr(VectorEngine, "_scan_workspace", staticmethod(poisoned))
    return calls


class TestWorkspace:
    @pytest.mark.parametrize("scene_fixture", ["cornell", "lab_small"])
    def test_nothing_is_read_before_it_is_written(
        self, request, monkeypatch, poisoned_workspace, scene_fixture
    ):
        """Full, partial-lane and partial-chunk tiles, one workspace a call."""
        scene = request.getfixturevalue(scene_fixture)
        rays = concat(random_rays(scene, 8, TILE_LANES + 37), tie_rays(scene))
        want_i, want_t, _ = scalar_scan(scene, rays)
        engine = VectorEngine(scene, accel="linear")
        tests = []
        for tile in [vectorized.DENSE_TILE, (7, 4), (100, 13), (3, 7)]:
            monkeypatch.setattr(vectorized, "DENSE_TILE", tile)
            engine.patch_tests = 0
            best_i, best_t = engine.closest_hit(*rays)
            assert best_i.tolist() == want_i, tile
            assert best_t.tolist() == want_t, tile
            tests.append(engine.patch_tests)
        assert len(poisoned_workspace) == 4
        assert tests == [len(screen_pairs(engine, rays))] * 4

    def test_chunks_straddling_the_workspace(self, lab, poisoned_workspace):
        engine = VectorEngine(lab, accel="linear")
        rays = concat(random_rays(lab, 9, TILE_LANES + 5), tie_rays(lab, step=40))
        n = rays[0].size
        cols = np.arange(2 * TILE_COLS + 3, dtype=np.int64)
        best_t = np.full(n, np.inf)
        best_i = np.full(n, -1, dtype=np.int64)
        engine._screen_patches(*rays, cols, best_t, best_i)
        want_i, want_t, _ = scalar_scan(lab, rays, cols.tolist())
        assert (best_i.tolist(), best_t.tolist()) == (want_i, want_t)
        assert poisoned_workspace == [(n, cols.size)]

    def test_two_threads_on_one_engine(self, cornell):
        """Each call owns its workspace: concurrent scans over different
        rays give the sequential answers."""
        engine = VectorEngine(cornell, accel="linear")
        batches = [random_rays(cornell, seed, 3 * TILE_LANES + 11) for seed in (31, 32)]
        want = [
            tuple(a.tolist() for a in engine.closest_hit(*rays)) for rays in batches
        ]
        got = [[], []]
        errors = []
        start = threading.Barrier(2)

        def scan(k):
            try:
                start.wait(timeout=30)
                for _ in range(8):
                    got[k].append(tuple(
                        a.tolist() for a in engine.closest_hit(*batches[k])))
            except Exception as exc:  # surfaced below, on the main thread
                errors.append(exc)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=scan, args=(k,)) for k in (0, 1)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=120)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert errors == []
        for k in (0, 1):
            assert got[k] == [want[k]] * 8


# -- memory ---------------------------------------------------------------------


def test_transient_memory_does_not_grow_with_lanes(cornell):
    """Tiles bound what a scan holds besides the two arrays it returns."""
    engine = VectorEngine(cornell, accel="linear")

    def transient_bytes(lanes: int) -> int:
        rays = random_rays(cornell, 3, lanes)
        tracemalloc.start()
        try:
            best_i, best_t = engine.closest_hit(*rays)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        return peak - best_i.nbytes - best_t.nbytes

    # Two tiles, so that one tile's results are still alive at the next
    # tile's peak in both measurements; then 128 tiles.
    transient_bytes(2 * TILE_LANES)  # first-call allocations out of the way
    small, large = transient_bytes(2 * TILE_LANES), transient_bytes(65_536)
    assert large <= 1.05 * small, (small, large)


def test_scan_stays_on_one_thread(cornell):
    """No tile's matrix product is big enough for OpenBLAS to wake its
    other threads: the process spends no CPU beyond the calling thread's,
    so a kernel section holds one core, as ``KERNEL_GATE`` assumes."""
    engine = VectorEngine(cornell, accel="linear")
    rays = random_rays(cornell, 4, 65_536)
    engine.closest_hit(*rays)
    ratios = []
    for _ in range(3):  # the best of three: other threads may run meanwhile
        process, thread = time.process_time(), time.thread_time()
        engine.closest_hit(*rays)
        ratios.append(
            (time.process_time() - process) / (time.thread_time() - thread)
        )
    assert min(ratios) <= 1.1, ratios
