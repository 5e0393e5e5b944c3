"""FlatOctree builder correctness: structural invariants of the BVH,
and closest-hit parity against the linear scan.

The flat tree is an eight-wide BVH built from the patch columns, so
these tests check (a) what the builder promises — every patch in
exactly one leaf, boxes that nest from member AABB to leaf to root,
consecutive child blocks, a byte-identical rebuild — and (b) hit-for-hit
agreement with a brute force all-patches scan under the canonical
max-patch-id tie rule, on randomized ray batches over every test scene.

The walk is a level-synchronous pair frontier feeding a 1-D (lane, patch)
kernel, so the second half pins what that shape makes new: exact ties
(within one kernel call, across leaves, against the running best),
duplicate pairs, wave chunking, the root-is-leaf tree, the empty batch,
and one kernel call per tree level.
"""

from __future__ import annotations

import functools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.vectorized import PRUNE_PATCH_THRESHOLD, SceneArrays, VectorEngine
from repro.geometry import AABB, FlatOctree, Scene, Vec3, axis_rect, flatoctree, matte
from repro.geometry.material import emitter
from repro.geometry.octree import OctreeNode
from repro.scenes import get_scene
from repro.scenes.generator import generate_scene

SCENE_FIXTURES = ("cornell", "harpsichord", "lab_small")


def pointer_nodes_bfs(octree) -> list[OctreeNode]:
    """Pointer octree nodes in breadth-first order (children consecutive)."""
    order = [octree.root]
    i = 0
    while i < len(order):
        node = order[i]
        if not node.is_leaf:
            order.extend(node.children)
        i += 1
    return order


def _box(flat: FlatOctree, j: int) -> AABB:
    return AABB(Vec3(flat.lox[j], flat.loy[j], flat.loz[j]),
                Vec3(flat.hix[j], flat.hiy[j], flat.hiz[j]))


def _box_inside(inner: AABB, outer: AABB) -> bool:
    return outer.contains_point(inner.lo) and outer.contains_point(inner.hi)


def _children(flat: FlatOctree, j: int) -> range:
    return range(flat.first_child[j], flat.first_child[j] + 8)


class TestBuildInvariants:
    """What build() promises about the tree it makes."""

    @pytest.mark.parametrize("scene_fixture", SCENE_FIXTURES)
    def test_each_patch_in_exactly_one_leaf(self, request, scene_fixture):
        scene = request.getfixturevalue(scene_fixture)
        flat = SceneArrays(scene).flat
        n = len(scene.patches)
        assert sorted(flat.leaf_items.tolist()) == list(range(n))
        leaf = flat.first_child < 0
        size = flat.leaf_end - flat.leaf_start
        assert (size[~leaf] == 0).all()
        assert size.max() <= flatoctree.LEAF_SIZE
        # The non-empty leaves tile leaf_items, ids ascending in each.
        held = np.flatnonzero(size > 0)
        held = held[np.argsort(flat.leaf_start[held])]
        assert flat.leaf_start[held].tolist() == [0, *flat.leaf_end[held][:-1].tolist()]
        assert flat.leaf_end[held][-1] == n
        for j in held:
            ids = flat.leaf_patch_ids(j)
            assert (np.diff(ids) > 0).all()
        assert flat.node_count == 1 + 8 * int((~leaf).sum())
        assert flat.leaf_count == int(leaf.sum())

    @pytest.mark.parametrize("scene_fixture", SCENE_FIXTURES)
    def test_boxes_nest(self, request, scene_fixture):
        """Member AABB ⊆ leaf box ⊆ member union grown by the pad;
        child ⊆ parent; an empty slot is a point outside the root."""
        scene = request.getfixturevalue(scene_fixture)
        flat = SceneArrays(scene).flat
        root = AABB.union_all([p.bounds() for p in scene.patches])
        pad = flatoctree.FIT_PAD * root.extent().length() * (1 + 1e-9)
        for j in range(flat.node_count):
            box = _box(flat, j)
            if flat.first_child[j] >= 0:
                assert flat.leaf_patch_ids(j).size == 0
                for k in _children(flat, j):
                    assert flat.depth[k] == flat.depth[j] + 1
                    if flat.first_child[k] >= 0 or flat.leaf_patch_ids(k).size:
                        assert _box_inside(_box(flat, k), box)
            elif flat.leaf_patch_ids(j).size:
                members = [scene.patches[i].bounds() for i in flat.leaf_patch_ids(j)]
                for member in members:
                    assert _box_inside(member, box)
                assert _box_inside(box, AABB.union_all(members).expanded(pad))
            else:
                assert box.lo == box.hi
                assert not root.expanded(pad).contains_point(box.lo)
        assert _box_inside(root, _box(flat, 0))

    @pytest.mark.parametrize("scene_fixture", SCENE_FIXTURES)
    def test_child_blocks_partition_the_nodes(self, request, scene_fixture):
        """Breadth-first numbering: every node but the root sits in
        exactly one parent's block of eight consecutive slots."""
        scene = request.getfixturevalue(scene_fixture)
        flat = SceneArrays(scene).flat
        parents = np.flatnonzero(flat.first_child >= 0)
        firsts = flat.first_child[parents]
        assert (firsts > parents).all()
        assert firsts.tolist() == list(range(1, flat.node_count, 8))
        assert (np.diff(flat.depth) >= 0).all() and flat.depth[0] == 0

    @pytest.mark.parametrize("scene_fixture", SCENE_FIXTURES)
    def test_rebuild_is_byte_identical(self, request, scene_fixture):
        scene = request.getfixturevalue(scene_fixture)
        arrays = SceneArrays(scene)
        again = FlatOctree.build(
            (arrays.p0x, arrays.p0y, arrays.p0z),
            (arrays.eux, arrays.euy, arrays.euz),
            (arrays.evx, arrays.evy, arrays.evz),
        ).arrays()
        for name, want in arrays.flat.arrays().items():
            assert again[name].dtype == want.dtype
            assert again[name].tobytes() == want.tobytes()


def _assert_flat_equals_linear(scene, rays):
    """Flat walk vs the oracle: a dense scan over every patch under the
    canonical tie rule.  Returns the (agreed) ``(best_i, best_t)``."""
    got_i, got_t = VectorEngine(scene, accel="flat").closest_hit(*rays)
    want_i, want_t = VectorEngine(scene, accel="linear").closest_hit(*rays)
    assert got_i.tolist() == want_i.tolist()
    assert got_t.tolist() == want_t.tolist()
    return got_i, got_t


def _random_rays(scene, rng, n):
    """Ray batch mixing interior origins with points on patch surfaces."""
    lo = scene.bounds().lo
    hi = scene.bounds().hi
    px = rng.uniform(lo.x, hi.x, n)
    py = rng.uniform(lo.y, hi.y, n)
    pz = rng.uniform(lo.z, hi.z, n)
    d = rng.normal(size=(3, n))
    norm = np.sqrt((d * d).sum(axis=0))
    norm[norm == 0.0] = 1.0
    d /= norm
    return px, py, pz, d[0], d[1], d[2]


class TestClosestHitParity:
    """The flat walk agrees with the dense linear scan hit-for-hit."""

    @pytest.mark.parametrize("scene_fixture", SCENE_FIXTURES)
    @pytest.mark.parametrize("seed", [0, 1234, 0xC0FFEE])
    def test_randomized_rays(self, request, scene_fixture, seed):
        scene = request.getfixturevalue(scene_fixture)
        rng = np.random.default_rng(seed)
        _assert_flat_equals_linear(scene, _random_rays(scene, rng, 512))

    @pytest.mark.parametrize("scene_fixture", SCENE_FIXTURES)
    def test_axis_parallel_rays(self, request, scene_fixture):
        """Zero direction components (inf/NaN slab lanes) stay conservative."""
        scene = request.getfixturevalue(scene_fixture)
        c = scene.bounds().center()
        axes = np.array(
            [[1, 0, 0], [-1, 0, 0], [0, 1, 0], [0, -1, 0], [0, 0, 1], [0, 0, -1]],
            dtype=np.float64,
        )
        n = axes.shape[0]
        px = np.full(n, c.x)
        py = np.full(n, c.y)
        pz = np.full(n, c.z)
        dx, dy, dz = axes[:, 0].copy(), axes[:, 1].copy(), axes[:, 2].copy()
        _assert_flat_equals_linear(scene, (px, py, pz, dx, dy, dz))

    def test_rays_outside_root_miss(self, cornell):
        """Origins far outside the scene pointing away hit nothing."""
        engine = VectorEngine(cornell, accel="flat")
        n = 8
        px = np.full(n, 1e6)
        py = np.full(n, 1e6)
        pz = np.full(n, 1e6)
        dx = np.full(n, 1.0)
        dy = np.zeros(n)
        dz = np.zeros(n)
        best_i, best_t = engine.closest_hit(px, py, pz, dx, dy, dz)
        assert (best_i == -1).all()
        assert np.isinf(best_t).all()


def tiled_scene(patch_count: int) -> Scene:
    """A lamp over a strip of floor tiles: *patch_count* patches exactly."""
    white = matte("white", 0.6, 0.6, 0.6)
    tiles = [
        axis_rect("y", 0.0, (float(i), i + 1.0), (0.0, 1.0), white, flip=True)
        for i in range(patch_count - 1)
    ]
    lamp = axis_rect("y", 1.0, (0.0, 1.0), (0.0, 1.0), emitter("lamp", 5.0, 5.0, 5.0))
    return Scene([*tiles, lamp], name=f"tiles-{patch_count}")


class TestEngineIntegration:
    """The engine resolves its accelerator, and counts, as documented."""

    def test_auto_resolution_by_scene_size(self, cornell, harpsichord, lab_small):
        """cornell-box (30 patches) is the measured losing side of the
        crossover; harpsichord-room (97) and up the winning one."""
        assert VectorEngine(cornell).accel == "linear"
        assert VectorEngine(harpsichord).accel == "flat"
        assert VectorEngine(lab_small).accel == "flat"

    @pytest.mark.parametrize("spec, accel", [
        ("cornell-box", "linear"),
        ("computer-lab", "flat"),
        ("gen:office-8@0xBEEF", "flat"),
        ("gen:office-259@0xBEEF", "flat"),
    ], ids=["cornell-box", "computer-lab", "office-8", "office-259"])
    def test_benchmark_scene_picks(self, spec, accel):
        """Every scene BENCHMARK.json's workloads trace: both serving
        paths are measured, with nobody naming either."""
        assert VectorEngine(get_scene(spec)).accel == accel

    @pytest.mark.parametrize("patches, accel", [(31, "linear"), (32, "flat")])
    def test_threshold_edges(self, patches, accel):
        assert PRUNE_PATCH_THRESHOLD == 32
        scene = tiled_scene(patches)
        assert len(scene.patches) == patches
        assert VectorEngine(scene).accel == accel

    def test_unknown_accel_rejected(self, cornell):
        with pytest.raises(ValueError):
            VectorEngine(cornell, accel="bvh")

    def test_flat_walk_prunes_box_tests(self, lab_small):
        """The flat walk must test far fewer lane-x-node slabs than
        slab-testing every lane against every occupied leaf would (the
        whole point of descending the hierarchy)."""
        flat = VectorEngine(lab_small, accel="flat")
        rays = flat.emit_range(0xAB, 0, 512)
        flat.closest_hit(rays.px, rays.py, rays.pz, rays.dx, rays.dy, rays.dz)
        tree = flat.arrays.flat
        occupied = int((tree.leaf_end > tree.leaf_start).sum())
        assert flat.box_tests < 512 * occupied / 4


def _edge_box_scene() -> Scene:
    """A closed unit box with one free-standing quad at y = 0.4 spanning
    x, z in [0.3, 0.7]; the builder gives the quad a leaf of its own, so
    its edges bound that leaf's box."""
    white = matte("white", 0.6, 0.6, 0.6)
    return Scene([
        axis_rect("y", 0.0, (0.0, 1.0), (0.0, 1.0), white, name="floor", flip=True),
        axis_rect("y", 1.0, (0.0, 1.0), (0.0, 1.0), white, name="ceiling"),
        axis_rect("x", 0.0, (0.0, 1.0), (0.0, 1.0), white, name="w0"),
        axis_rect("x", 1.0, (0.0, 1.0), (0.0, 1.0), white, name="w1", flip=True),
        axis_rect("z", 0.0, (0.0, 1.0), (0.0, 1.0), white, name="w2"),
        axis_rect("z", 1.0, (0.0, 1.0), (0.0, 1.0), white, name="w3", flip=True),
        axis_rect("y", 0.98, (0.4, 0.6), (0.4, 0.6),
                  emitter("lamp", 5.0, 5.0, 5.0), name="lamp"),
        axis_rect("y", 0.4, (0.3, 0.7), (0.3, 0.7), white, name="quad", flip=True),
    ], name="edge-box")


EDGE_QUAD = 7


def octree_mirror(scene: Scene) -> FlatOctree:
    """The scene's pointer octree in the flat layout, boxes = its cells.

    What the walk traversed before it had a tree of its own: every
    pointer node in breadth-first order, each leaf listing every patch
    whose AABB meets its cell.
    """
    nodes = pointer_nodes_bfs(scene.octree)
    first_child, leaf_start, leaf_end, items = [], [], [], []
    below = 1
    for node in nodes:
        first_child.append(-1 if node.is_leaf else below)
        below += 0 if node.is_leaf else 8
        leaf_start.append(len(items))
        items.extend(sorted(p.patch_id for p in node.patches))
        leaf_end.append(len(items))
    corner = {"lo": [n.bounds.lo for n in nodes], "hi": [n.bounds.hi for n in nodes]}
    return FlatOctree(
        *(np.array([getattr(v, axis) for v in corner[side]])
          for side in ("lo", "hi") for axis in "xyz"),
        first_child=np.array(first_child, dtype=np.int32),
        leaf_start=np.array(leaf_start, dtype=np.int64),
        leaf_end=np.array(leaf_end, dtype=np.int64),
        leaf_items=np.array(items, dtype=np.int64),
        depth=np.array([n.depth for n in nodes], dtype=np.int32),
    )


class TestFittedBoxes:
    """Boxes around contents prune more and never lose a dense-scan hit."""

    def test_hits_inside_the_scan_tolerance_survive(self, monkeypatch):
        """Straight-down rays 2e-11..9e-11 beyond each edge of the quad
        are hits for the dense scan (its 1e-9 barycentric tolerance);
        the pad is what keeps them inside the quad's leaf box."""
        flat = SceneArrays(_edge_box_scene()).flat
        holders = [j for j in range(flat.node_count)
                   if EDGE_QUAD in flat.leaf_patch_ids(j)]
        assert [flat.leaf_patch_ids(j).tolist() for j in holders] == [[EDGE_QUAD]]
        offsets = np.linspace(2e-11, 9e-11, 8)
        inside = np.full(8, 0.45)
        xs = np.concatenate([0.7 + offsets, 0.3 - offsets, inside, inside])
        zs = np.concatenate([inside, inside, 0.7 + offsets, 0.3 - offsets])
        n = xs.size
        rays = (xs, np.full(n, 0.9), zs, np.zeros(n), np.full(n, -1.0), np.zeros(n))
        best_i, best_t = _assert_flat_equals_linear(_edge_box_scene(), rays)
        assert best_i.tolist() == [EDGE_QUAD] * n
        assert (best_t == 0.5).all()

        monkeypatch.setattr(flatoctree, "FIT_PAD", 0.0)
        unpadded_i, _ = VectorEngine(_edge_box_scene(), accel="flat").closest_hit(*rays)
        assert EDGE_QUAD not in unpadded_i.tolist()

    @pytest.mark.parametrize("scene_fixture, at_least", [
        ("lab_small", 2.0), ("office64", 2.0),
    ])
    def test_cells_answer_the_same_with_more_patch_tests(
        self, request, scene_fixture, at_least
    ):
        """The scene's own pointer octree, walked by the same code with
        its cells as boxes, is the walk before the BVH: same answers,
        and at least *at_least* times the patch tests (measured 2.46x on
        the 370-patch lab, 4.85x on office-64)."""
        scene = request.getfixturevalue(scene_fixture)
        built = VectorEngine(scene, accel="flat")
        cells = VectorEngine(scene, accel="flat")
        cells.arrays.flat = octree_mirror(scene)
        em = built.emit_range(0xAB, 0, 1000)
        rays = (em.px, em.py, em.pz, em.dx, em.dy, em.dz)
        want = [a.tolist() for a in built.closest_hit(*rays)]
        assert [a.tolist() for a in cells.closest_hit(*rays)] == want
        assert cells.patch_tests >= at_least * built.patch_tests


# -- the pair kernel: ties, duplicates, waves ---------------------------------

SHELF_BIG, SHELF_MID, SHELF_SMALL = 7, 8, 9


@pytest.fixture(scope="module")
def tie_scene() -> Scene:
    """A unit box with three nested *coplanar* shelves at y = 0.4.

    Any ray landing on the small shelf is at bit-identical distance from
    all three (same plane constants), on the middle one from two.  The
    builder puts each shelf in a leaf of its own, so the ties are
    resolved across leaves.
    """
    white = matte("white", 0.6, 0.6, 0.6)
    lamp = emitter("lamp", 5.0, 5.0, 5.0)
    patches = [
        axis_rect("y", 0.0, (0.0, 1.0), (0.0, 1.0), white, name="floor", flip=True),
        axis_rect("y", 1.0, (0.0, 1.0), (0.0, 1.0), white, name="ceiling"),
        axis_rect("x", 0.0, (0.0, 1.0), (0.0, 1.0), white, name="w0"),
        axis_rect("x", 1.0, (0.0, 1.0), (0.0, 1.0), white, name="w1", flip=True),
        axis_rect("z", 0.0, (0.0, 1.0), (0.0, 1.0), white, name="w2"),
        axis_rect("z", 1.0, (0.0, 1.0), (0.0, 1.0), white, name="w3", flip=True),
        axis_rect("y", 0.98, (0.4, 0.6), (0.4, 0.6), lamp, name="lamp"),
        axis_rect("y", 0.4, (0.1, 0.9), (0.1, 0.9), white, name="big", flip=True),
        axis_rect("y", 0.4, (0.25, 0.75), (0.25, 0.75), white, name="mid", flip=True),
        axis_rect("y", 0.4, (0.45, 0.7), (0.45, 0.7), white, name="small", flip=True),
    ]
    scene = Scene(patches, name="tie-box")
    shelves = [scene.patches[i] for i in (SHELF_BIG, SHELF_MID, SHELF_SMALL)]
    assert [p.name for p in shelves] == ["big", "mid", "small"]
    # The ties are exact only if the plane constants are bit-identical.
    assert len({(p.normal.x, p.normal.y, p.normal.z, p._d) for p in shelves}) == 1
    return scene


def _leaves_holding(flat: FlatOctree, patch_id: int) -> list[int]:
    return [
        j for j in np.nonzero(flat.first_child < 0)[0].tolist()
        if patch_id in flat.leaf_patch_ids(j).tolist()
    ]


def _rays_down(xs, zs, y=0.9):
    """Axis-parallel rays (0, -1, 0) from height *y* over an x/z grid."""
    gx, gz = np.meshgrid(np.asarray(xs, float), np.asarray(zs, float))
    px, pz = gx.ravel(), gz.ravel()
    n = px.size
    return px, np.full(n, y), pz, np.zeros(n), np.full(n, -1.0), np.zeros(n)


class TestExactTies:
    """Equal-distance candidates resolve to the max patch id, however
    the walk happens to meet them."""

    def test_shelves_tie_across_distinct_leaves(self, tie_scene):
        flat = SceneArrays(tie_scene).flat
        holders = [_leaves_holding(flat, pid)
                   for pid in (SHELF_BIG, SHELF_MID, SHELF_SMALL)]
        assert all(len(h) == 1 for h in holders)
        assert len({h[0] for h in holders}) == 3

    def test_coplanar_ties_resolve_to_max_id(self, tie_scene):
        """Rays over one, two or all three shelves, including rays
        along the middle shelf's edges (x or z = 0.25 or 0.75), give the
        dense scan's answer."""
        xs = [0.15, 0.25, 0.5, 0.55, 0.69, 0.75, 0.85]
        rays = _rays_down(xs, xs)
        best_i, best_t = _assert_flat_equals_linear(tie_scene, rays)
        px, pz = rays[0], rays[2]
        on_small = (px >= 0.45) & (px <= 0.7) & (pz >= 0.45) & (pz <= 0.7)
        on_mid = (px >= 0.25) & (px <= 0.75) & (pz >= 0.25) & (pz <= 0.75) & ~on_small
        assert on_small.sum() >= 9 and on_mid.sum() >= 6
        assert (best_i[on_small] == SHELF_SMALL).all()
        assert (best_i[on_mid] == SHELF_MID).all()
        assert (best_i[~on_small & ~on_mid] == SHELF_BIG).all()
        assert (best_t == 0.5).all()

    def test_slanted_rays_cross_many_shelf_leaves(self, tie_scene):
        """Grazing rays enter all three shelf leaves and meet the shelves
        at different distances: the nearest wins, whichever leaf."""
        rng = np.random.default_rng(7)
        n = 256
        px = rng.uniform(0.02, 0.98, n)
        pz = rng.uniform(0.02, 0.98, n)
        py = np.full(n, 0.45)
        dx = rng.uniform(-1.0, 1.0, n)
        dz = rng.uniform(-1.0, 1.0, n)
        dy = np.full(n, -0.05)
        best_i, _ = _assert_flat_equals_linear(tie_scene, (px, py, pz, dx, dy, dz))
        assert {SHELF_BIG, SHELF_MID, SHELF_SMALL} <= set(best_i.tolist())

    def test_pair_order_and_duplicates_cannot_matter(self, tie_scene):
        """The kernel is a pure function of the set of (lane, patch)
        pairs: shuffled, repeated and split lists give one answer."""
        engine = VectorEngine(tie_scene, accel="flat")
        rays = _rays_down([0.5, 0.6], [0.5, 0.6])
        n = rays[0].size
        lanes = np.repeat(np.arange(n), 10)
        cols = np.tile(np.arange(10), n)

        def run(*pair_lists):
            best_t = np.full(n, np.inf)
            best_i = np.full(n, -1, dtype=np.int64)
            for ln, cl in pair_lists:
                engine._test_pairs(*rays, ln, cl, best_t, best_i)
            return best_i.tolist(), best_t.tolist()

        want = run((lanes, cols))
        assert want[0] == [SHELF_SMALL] * n
        perm = np.random.default_rng(3).permutation(lanes.size)
        assert run((lanes[perm], cols[perm])) == want
        assert run((np.tile(lanes, 3), np.tile(cols, 3))) == want
        half = lanes.size // 2
        assert run((lanes[perm][:half], cols[perm][:half]),
                   (lanes[perm][half:], cols[perm][half:])) == want
        assert run((lanes[::-1], cols[::-1]), (lanes, cols)) == want

    def test_running_best_competes_only_on_exact_tie(self, tie_scene):
        """A new candidate at the running best's distance wins iff its
        id is larger; a nearer one always wins, a farther one never."""
        engine = VectorEngine(tie_scene, accel="flat")
        rays = _rays_down([0.5], [0.5])
        lane = np.zeros(1, dtype=np.int64)

        def fold(start_i, start_t, patch):
            best_t = np.array([start_t])
            best_i = np.array([start_i], dtype=np.int64)
            engine._test_pairs(*rays, lane, np.array([patch]), best_t, best_i)
            return int(best_i[0]), float(best_t[0])

        assert fold(SHELF_SMALL, 0.5, SHELF_BIG) == (SHELF_SMALL, 0.5)
        assert fold(SHELF_BIG, 0.5, SHELF_SMALL) == (SHELF_SMALL, 0.5)
        assert fold(SHELF_MID, 0.5, SHELF_MID) == (SHELF_MID, 0.5)
        assert fold(3, 0.75, SHELF_BIG) == (SHELF_BIG, 0.5)
        assert fold(3, 0.25, SHELF_SMALL) == (3, 0.25)
        assert fold(-1, np.inf, SHELF_MID) == (SHELF_MID, 0.5)


    def test_pruning_is_strict(self, tie_scene):
        """A subtree *entered* at exactly the running best distance is
        still walked: it may hold the equal-distance, larger-id winner.

        A built tree pads every leaf box past its patches, so this needs
        a hand-built one: the big shelf in a leaf above the shelf plane,
        the small one two levels down in a box ending exactly on it.
        """
        cube = (0.0, 0.0, 0.0, 1.0, 1.0, 1.0)
        above = (0.0, 0.4, 0.0, 1.0, 1.0, 1.0)
        below = (0.0, 0.0, 0.0, 1.0, 0.4, 1.0)
        far = (5.0, 5.0, 5.0, 6.0, 6.0, 6.0)
        boxes = np.array([cube, above, below] + [far] * 6 + [below] + [far] * 7)
        leaf_start = np.zeros(17, dtype=np.int64)
        leaf_end = np.zeros(17, dtype=np.int64)
        leaf_end[1] = 1
        leaf_start[9], leaf_end[9] = 1, 2
        tree = FlatOctree(
            *(boxes[:, k].copy() for k in range(6)),
            first_child=np.array([1, -1, 9] + [-1] * 14, dtype=np.int32),
            leaf_start=leaf_start, leaf_end=leaf_end,
            leaf_items=np.array([SHELF_BIG, SHELF_SMALL], dtype=np.int64),
            depth=np.array([0] + [1] * 8 + [2] * 8, dtype=np.int32),
        )
        engine = VectorEngine(tie_scene, accel="flat")
        engine.arrays.flat = tree
        rays = _rays_down([0.5, 0.6], [0.5])
        entry, _ = flatoctree.slab_spans(*below, *(r[0] for r in rays[:3]),
                                         np.inf, -1.0, np.inf)
        assert entry == 0.5
        best_i, best_t = engine.closest_hit(*rays)
        assert best_t.tolist() == [0.5, 0.5]
        assert best_i.tolist() == [SHELF_SMALL, SHELF_SMALL]


class TestWaves:
    """Chunking the batch into waves is invisible in the answer."""

    def test_batch_larger_than_a_wave(self, lab_small):
        n = 2 * flatoctree.WAVE_LANES + 37
        rays = _random_rays(lab_small, np.random.default_rng(11), n)
        engine = VectorEngine(lab_small, accel="flat")
        whole_i, whole_t = engine.closest_hit(*rays)
        want_i, want_t = VectorEngine(lab_small, accel="linear").closest_hit(*rays)
        assert whole_i.tolist() == want_i.tolist()
        assert whole_t.tolist() == want_t.tolist()

        def by_slices(step, lanes):
            out_i, out_t = [], []
            for a in lanes:
                bi, bt = engine.closest_hit(*(r[a:a + step] for r in rays))
                out_i += bi.tolist()
                out_t += bt.tolist()
            return out_i, out_t

        w = flatoctree.WAVE_LANES
        assert by_slices(w, range(0, n, w)) == (whole_i.tolist(), whole_t.tolist())
        # One lane at a time, on a sample of lanes from every wave.
        sample = range(0, n, 29)
        assert by_slices(1, sample) == (
            whole_i[::29].tolist(), whole_t[::29].tolist())

    def test_wave_size_cannot_matter(self, lab_small, monkeypatch):
        rays = _random_rays(lab_small, np.random.default_rng(12), 300)
        engine = VectorEngine(lab_small, accel="flat")
        want = [a.tolist() for a in engine.closest_hit(*rays)]
        for wave in (1, 7, 64, 299, 300, 301):
            monkeypatch.setattr(flatoctree, "WAVE_LANES", wave)
            assert [a.tolist() for a in engine.closest_hit(*rays)] == want

    def test_one_kernel_call_per_level_per_wave(self, lab_small):
        """The regression guard for per-node dispatch: callbacks are
        bounded by tree depth, not by leaves visited."""
        flat = SceneArrays(lab_small).flat
        px, py, pz, dx, dy, dz = _random_rays(
            lab_small, np.random.default_rng(13), 512)
        calls = []
        slabs = flat.traverse(
            px, py, pz, 1.0 / dx, 1.0 / dy, 1.0 / dz, np.full(512, np.inf),
            lambda lanes, cols: calls.append((lanes, cols)),
        )
        assert 0 < len(calls) <= int(flat.depth.max())
        assert slabs >= 512
        for lanes, cols in calls:
            assert lanes.shape == cols.shape and lanes.ndim == 1
            assert lanes.min() >= 0 and lanes.max() < 512
        # With best_t never tightened nothing is pruned by distance, so
        # every ray/leaf incidence of the tree shows up as pairs.
        assert sum(c[0].size for c in calls) > 512


def open_box_scene() -> Scene:
    """Floor, lamp ceiling and two walls of a unit box: four patches, no
    more than a leaf holds, open at z = 0 and z = 1."""
    white = matte("white", 0.6, 0.6, 0.6)
    return Scene([
        axis_rect("y", 0.0, (0.0, 1.0), (0.0, 1.0), white, name="floor", flip=True),
        axis_rect("y", 1.0, (0.0, 1.0), (0.0, 1.0),
                  emitter("lamp", 5.0, 5.0, 5.0), name="ceiling"),
        axis_rect("x", 0.0, (0.0, 1.0), (0.0, 1.0), white, name="w0"),
        axis_rect("x", 1.0, (0.0, 1.0), (0.0, 1.0), white, name="w1", flip=True),
    ], name="open-box")


class TestDegenerateShapes:
    def test_root_is_leaf(self):
        """No more patches than a leaf holds: the tree is one node."""
        scene = open_box_scene()
        assert len(scene.patches) <= flatoctree.LEAF_SIZE
        engine = VectorEngine(scene, accel="flat")
        assert engine.arrays.flat.node_count == 1
        assert engine.arrays.flat.first_child[0] == -1
        rays = _random_rays(scene, np.random.default_rng(5), 200)
        best_i, _ = _assert_flat_equals_linear(scene, rays)
        assert (best_i >= 0).sum() > 100 and (best_i == -1).any()
        assert engine.closest_hit(*rays)[0].tolist() == best_i.tolist()
        assert engine.box_tests == 200
        assert engine.patch_tests == 200 * 4
        flat_events, flat_stats = engine.trace_range(0xAB, 0, 300)
        lin_events, lin_stats = VectorEngine(
            scene, accel="linear").trace_range(0xAB, 0, 300)
        assert flat_stats == lin_stats
        assert flat_events.patch.tolist() == lin_events.patch.tolist()
        assert flat_events.s.tolist() == lin_events.s.tolist()

    def test_coincident_patches_are_split_by_count(self):
        """Keys equal in every column leave the SAH no cut: such a node
        is halved in order, so the build still ends in small leaves."""
        white = matte("white", 0.6, 0.6, 0.6)
        quads = [axis_rect("y", 0.5, (0.4, 0.401), (0.4, 0.401), white, flip=True)
                 for _ in range(4 * flatoctree.LEAF_SIZE)]
        lamp = axis_rect("y", 1.0, (0.0, 1.0), (0.0, 1.0), emitter("lamp", 5.0, 5.0, 5.0))
        floor = axis_rect("y", 0.0, (0.0, 1.0), (0.0, 1.0), white, flip=True)
        scene = Scene([floor, lamp, *quads], name="stack")
        flat = SceneArrays(scene).flat
        assert sorted(flat.leaf_items.tolist()) == list(range(len(scene.patches)))
        assert (flat.leaf_end - flat.leaf_start).max() <= flatoctree.LEAF_SIZE
        rays = _rays_down(np.linspace(0.39, 0.41, 9), np.linspace(0.39, 0.41, 9))
        best_i, _ = _assert_flat_equals_linear(scene, rays)
        assert best_i.max() == len(scene.patches) - 1  # the largest stacked id

    @pytest.mark.parametrize("scene_fixture", ("mini_scene", "lab_small"))
    def test_empty_batch(self, request, scene_fixture):
        scene = request.getfixturevalue(scene_fixture)
        engine = VectorEngine(scene, accel="flat")
        empty = np.empty(0)
        best_i, best_t = engine.closest_hit(*(empty,) * 6)
        assert best_i.shape == best_t.shape == (0,)
        assert best_i.dtype == np.int64
        assert engine.box_tests == 0 and engine.patch_tests == 0

        def never(lanes, cols):
            raise AssertionError("no lanes, no pairs")

        assert engine.arrays.flat.traverse(*(empty,) * 7, never) == 0

    def test_all_lanes_miss_the_root(self, lab_small):
        """A wave whose every lane is rejected at the root walks no level."""
        engine = VectorEngine(lab_small, accel="flat")
        n = 5
        far = np.full(n, 1e6)
        best_i, _ = engine.closest_hit(far, far, far, np.ones(n), np.zeros(n), np.zeros(n))
        assert (best_i == -1).all()
        assert engine.box_tests == n and engine.patch_tests == 0


# -- property: flat == linear on generated scenes -----------------------------


@functools.lru_cache(maxsize=None)
def _gen_engines(units: int, seed: int):
    scene = generate_scene(f"office-{units}@{seed}")
    return (scene.bounds(),
            VectorEngine(scene, accel="flat"), VectorEngine(scene, accel="linear"))


_component = st.one_of(
    st.sampled_from([0.0, -0.0, 1.0, -1.0]),
    # Tiny non-zero components only overflow 1/d into RuntimeWarnings.
    st.builds(math.copysign, st.floats(1e-9, 1.0), st.sampled_from([1.0, -1.0])),
)
_ray = st.tuples(
    st.floats(-0.1, 1.1), st.floats(-0.1, 1.1), st.floats(-0.1, 1.1),
    _component, _component, _component,
).filter(lambda r: any(c != 0.0 for c in r[3:]))
#: (patch pick, origin's (s, t) on that patch, in-plane?, direction
#: components): in the patch's plane the direction is ``a*eu + b*ev``
#: from the first two components, otherwise the three as given.
_surface_ray = st.tuples(
    st.integers(0, 2**31), st.floats(0.0, 1.0), st.floats(0.0, 1.0),
    st.booleans(), _component, _component, _component,
).filter(lambda r: any(c != 0.0 for c in (r[4:6] if r[3] else r[4:])))


def _surface_args(arrays, rays):
    """Ray operands for :data:`_surface_ray` draws on *arrays*' patches."""
    r = np.array(rays, dtype=np.float64).reshape(-1, 7)
    k = np.array([ray[0] for ray in rays], dtype=np.int64) % arrays.patch_count
    s, t, in_plane, free = r[:, 1], r[:, 2], r[:, 3] != 0.0, r[:, 4:].T
    origin, direction = [], []
    for axis, component in zip("xyz", free):
        p0, eu, ev = (getattr(arrays, f"{name}{axis}")[k] for name in ("p0", "eu", "ev"))
        origin.append(p0 + s * eu + t * ev)
        direction.append(np.where(in_plane, free[0] * eu + free[1] * ev, component))
    return (*origin, *direction)


class TestFlatEqualsLinearProperty:
    @settings(max_examples=60, deadline=None)
    @given(
        units=st.integers(1, 6), seed=st.integers(0, 2),
        rays=st.lists(_ray, min_size=1, max_size=24),
        surface_rays=st.lists(_surface_ray, max_size=12),
    )
    def test_random_rays_on_generated_offices(self, units, seed, rays, surface_rays):
        """Hit-for-hit equality on ``gen:office-<k>@<seed>``, origins in
        and just outside the root cell or on patch surfaces, directions
        with zero (and negative-zero) components, unnormalised, or lying
        in the origin patch's plane."""
        bounds, flat, linear = _gen_engines(units, seed)
        r = np.array(rays, dtype=np.float64)
        lo, hi = bounds.lo, bounds.hi
        px = lo.x + r[:, 0] * (hi.x - lo.x)
        py = lo.y + r[:, 1] * (hi.y - lo.y)
        pz = lo.z + r[:, 2] * (hi.z - lo.z)
        args = (px, py, pz, r[:, 3], r[:, 4], r[:, 5])
        on_patch = _surface_args(flat.arrays, surface_rays)
        args = tuple(np.concatenate([a, b]) for a, b in zip(args, on_patch))
        got_i, got_t = flat.closest_hit(*args)
        want_i, want_t = linear.closest_hit(*args)
        assert got_i.tolist() == want_i.tolist()
        assert got_t.tolist() == want_t.tolist()
