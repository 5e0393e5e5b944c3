"""Flat eight-wide bounding volume hierarchy for batched traversal.

The pointer octree (:class:`repro.geometry.octree.Octree`) is ideal for
the scalar tracer: one ray at a time, near-to-far recursion, early exit.
The vector engine needs the opposite shape — *one node at a time, all
rays at once* — and a tree shaped for it: an octree halves all three
axes at every level, so a flat building is cut as finely in height as in
width and a wall sits in a dozen leaves.

:class:`FlatOctree` is an eight-wide BVH built straight from the patch
columns (:meth:`FlatOctree.build`), held in contiguous NumPy arrays, so
neither building nor traversal touches a Python object per node:

* **Construction** is level-synchronous binned SAH (Wald, "On fast
  Construction of SAH-based BVHs", 2007), three binary rounds to one
  eight-wide level (Dammertz, Hanika & Keller, "Shallow BVHs for fast
  SIMD ray tracing of incoherent rays", 2008).  A round splits *every*
  node still larger than :data:`LEAF_SIZE` at once: centroid bounds by
  ``reduceat``, :data:`SAH_BINS` bins per axis filled by ``bincount`` and
  ``minimum.at``/``maximum.at``, left and right sweeps by ``accumulate``,
  then one stable partition of the patch order.  **Each patch sits in
  exactly one leaf.**
* **Node bounds** live in six parallel ``float64`` arrays
  (``lox..hiz``), indexed by flat node id.  A leaf's box is the union of
  its members' AABBs (the four corners, formed as ``Patch.corners()``
  forms them) padded by :data:`FIT_PAD` of the root diagonal; an
  interior node's box is the union of its children's.  Child slots a
  node does not fill get a zero-volume box outside the root.
* **Topology** is a single ``first_child`` ``int32`` array.  Children of
  an interior node occupy eight *consecutive* slots, so one integer
  encodes all eight links and a child block's bounds are a contiguous
  slice — the layout production renderers use for array-encoded
  BVH/octree walks.  Nodes are numbered breadth first.
* **Leaf membership** is a shared ``leaf_items`` patch-id array with
  per-node ``[leaf_start, leaf_end)`` ranges (ids ascending within each
  leaf; interior nodes and empty slots hold an empty range).

The module, the class and :meth:`FlatOctree.traverse` keep their octree
names although the tree is no longer an octree: the benchmark harness
wraps ``repro.geometry.flatoctree.FlatOctree.traverse`` by name, and the
eight-slot layout is the octree's.  The pointer octree is now built only
for the scalar tracer (:attr:`repro.geometry.scene.Scene.octree`).

Traversal (:meth:`FlatOctree.traverse`) is a level-synchronous *pair
frontier* — the wavefront shape: two parallel arrays ``(lane, node)``
hold every ray still inside some interior node of the current tree
level.  One step gathers each pair's eight-child block, slab-tests all
``m x 8`` children in a single :func:`slab_spans` call, and splits the
survivors: leaf pairs are expanded through ``leaf_start`` / ``leaf_end``
/ ``leaf_items`` into flat ``(lane, patch)`` pairs and handed to the
caller's kernel in **one** call for the whole level; interior pairs form
the next frontier, re-pruned against the ``best_t`` that kernel just
tightened.  NumPy calls per batch are therefore O(tree depth), not
O(nodes + leaves visited): deep nodes see a handful of lanes each, and
a call per node would spend its time in ufunc dispatch, not arithmetic.
Lanes are walked in waves of :data:`WAVE_LANES`, so the frontier's
transients do not grow with the caller's batch size.

Determinism contract
--------------------
The *answer* is visit-order independent: the caller's closest-hit
reduction resolves exact-distance ties to the **maximum patch id** (the
canonical rule shared by the linear scan, the pointer octree, and the
vector engine — see :mod:`repro.geometry.octree`), a pure function of
``(t, patch_id)``, so breadth-first order, which leaf holds a patch and
wave boundaries cannot change a byte.  A subtree is pruned only when it
provably cannot beat a lane's current best (slab miss, box behind the
origin, or entry strictly beyond the best hit; NaN slab results from
boundary-grazing axis-parallel rays compare ``False`` and are kept,
which is the conservative side).  Breadth-first pruning is a little
later than depth-first (a near leaf two levels down cannot yet cull a
far sibling subtree), which costs a few percent more slab and patch
tests and nothing else.

Pruning is conservative for every hit the dense scan accepts.  Such a
hit lies within the scan's barycentric tolerance (1e-9 times each edge,
at most 2e-9 of the root diagonal) of its patch's AABB; the one leaf
listing the patch holds that AABB and, padded by :data:`FIT_PAD` (1e-6
of the diagonal), holds the hit strictly inside, with ``t_enter`` about
a pad before it — far beyond any slab or plane rounding; every
ancestor's box contains the leaf's.  The winning candidate therefore
always reaches the kernel, the answer stays a pure function of the
candidate set, and no answer byte can move.
"""

from __future__ import annotations

import functools
from typing import Callable

import numpy as np

__all__ = [
    "FlatOctree", "slab_spans", "WAVE_LANES", "FIT_PAD", "LEAF_SIZE", "SAH_BINS",
]

#: Lanes walked together by :meth:`FlatOctree.traverse`.  The frontier
#: and its ``m x 8`` slab temporaries scale with the lanes in flight, so
#: a fixed wave keeps peak memory independent of the caller's batch size.
#: Measured on ``gen:office-259@0xBEEF`` at ``batch_size=4096`` (8,192
#: photons per trace): photons/sec 67k at 256 lanes, 81k at 512, 84k at
#: 1,024, 83k at 2,048 and 78k with the whole batch in one frontier.
#: Peak RSS was 66 MB at every size.
WAVE_LANES = 1024

#: Outward pad of every leaf box, as a fraction of the root diagonal.  It
#: must exceed what the dense scan accepts beyond a patch's AABB — its
#: 1e-9 barycentric tolerance times the two edges, at most 2e-9 of the
#: diagonal — plus slab and plane rounding, so that every hit the dense
#: scan accepts lies strictly inside each box on its path (see the module
#: docstring).  The pad costs almost nothing: on ``gen:office-259@0xBEEF``
#: (2,000 photons) patch tests per photon are 14.63 unpadded, 14.69 at
#: 1e-6, 14.85 at 1e-4 and 16.96 at 1e-3.
FIT_PAD = 1e-6

#: Most patches one leaf holds; :meth:`FlatOctree.build` splits every
#: larger node.  A constant, not a knob.  What decides it is tree depth:
#: each level is one round of NumPy calls per closest-hit call, so a
#: leaf size that saves a level on a small scene wins even though it
#: costs patch tests.  Bench medians (3 alternating runs, 2-vCPU Xeon),
#: leaf size 4 / 5 / 6: ``office_scale_serial`` 34.2k / 35.4k / 35.2k
#: photons/s, ``lab_pool2`` 92.4k / 96.6k / 92.6k, ``service_mixed``
#: 126 / 137 / 136 requests/s; ``gen:office-259`` patch tests per photon
#: 13.6 / 14.6 / 16.1.
LEAF_SIZE = 5

#: Bins per key in each binned-SAH split.  A constant, not a knob.  16
#: bins build ``gen:office-259`` in ~85 ms against ~60 ms for 8, and
#: made no tree measurably better (patch and slab tests within 2 %).
SAH_BINS = 8

_OCTANTS = np.arange(8)


def slab_spans(lox, loy, loz, hix, hiy, hiz, ox, oy, oz, ix, iy, iz):
    """Batched ``(t_enter, t_exit)`` slab spans for boxes against rays.

    The single home of the slab arithmetic (the flat walk's gathered
    child blocks and its root test), replicating
    :meth:`repro.geometry.aabb.AABB.intersect_ray` expression-for-expression:
    ``(bound - origin) * (1/direction)``.
    Any broadcast-compatible shapes work.  Lanes where ``0 * inf``
    occurs (axis-parallel ray on a slab plane) yield NaN, which every
    caller's rejection mask treats as "keep" — the conservative side.
    """
    with np.errstate(invalid="ignore"):
        tx1 = (lox - ox) * ix
        tx2 = (hix - ox) * ix
        ty1 = (loy - oy) * iy
        ty2 = (hiy - oy) * iy
        tz1 = (loz - oz) * iz
        tz2 = (hiz - oz) * iz
    t_enter = np.maximum(
        np.maximum(np.minimum(tx1, tx2), np.minimum(ty1, ty2)),
        np.minimum(tz1, tz2),
    )
    t_exit = np.minimum(
        np.minimum(np.maximum(tx1, tx2), np.maximum(ty1, ty2)),
        np.maximum(tz1, tz2),
    )
    return t_enter, t_exit


def _misses(t_enter, t_exit, best_t):
    """Mask of (lane, node) slab spans that cannot improve the lane's hit.

    Slab miss, box behind the origin, or entry *strictly* beyond the
    best hit (equal distance survives for the max-patch-id tie-break).
    All three tests compare False on NaN spans (axis-parallel rays on a
    box face), keeping them — the conservative choice.
    """
    return (t_exit < t_enter) | (t_exit < 0.0) | (t_enter > best_t)


def _half_area(lo, hi):
    """Half the surface area of boxes with x, y, z along the first axis."""
    ex, ey, ez = hi - lo
    return ex * ey + ey * ez + ez * ex


def _sweeps(box, union):
    """Unions of bins ``0..j`` and of bins ``j+1..``, for each cut ``j``.

    *box* is one corner of the per-bin boxes, shaped ``(3, bins, rows)``;
    *union* is ``np.minimum`` or ``np.maximum``.  A loop over the bins
    with ``out=`` runs each step over whole rows (``ufunc.accumulate``
    along a middle axis is several times slower).
    """
    left = box[:, :-1].copy()
    right = box[:, 1:].copy()
    for j in range(1, left.shape[1]):
        union(left[:, j - 1], left[:, j], out=left[:, j])
        union(right[:, -j], right[:, -j - 1], out=right[:, -j - 1])
    return left, right


def _sah_split(order, starts, counts, lo, hi, keys):
    """Split segments of *order* in two at their binned-SAH minimum, in place.

    Segment ``k`` is ``order[starts[k]:starts[k] + counts[k]]``, every
    count at least two.  Each column of *keys* is binned into
    :data:`SAH_BINS` equal bins over the segment's range, and the segment
    is partitioned stably at the cheapest cut between bins of any column
    (surface area times patch count, summed over both sides); a segment
    whose keys coincide in every column is halved in its current order
    instead.  Returns the left parts' sizes, each in ``[1, counts[k])``.
    """
    nseg = starts.size
    first = np.cumsum(counts) - counts
    seg = np.repeat(np.arange(nseg), counts)
    rank = np.arange(seg.size) - first[seg]
    pos = starts[seg] + rank
    ids = order[pos]
    c = keys[ids]
    k = c.shape[1]
    cmin = np.minimum.reduceat(c, first, axis=0)
    extent = np.maximum.reduceat(c, first, axis=0) - cmin
    with np.errstate(divide="ignore", over="ignore"):
        scale = SAH_BINS / extent
        scale[~np.isfinite(scale)] = 0.0  # no spread: every key in bin 0
        bins = np.minimum((c - cmin[seg]) * scale[seg], SAH_BINS - 1).astype(np.int64)

    # Per (bin, segment, split axis): the patch count, and per coordinate
    # the box of the patches in the bin.  Coordinates, then bins, lead:
    # the sweeps and the area run over long contiguous rows.
    row = bins * (nseg * k) + seg[:, None] * k + np.arange(k)
    size = SAH_BINS * nseg * k
    in_bin = np.bincount(row.ravel(), minlength=size).reshape(SAH_BINS, nseg, k)
    cell = (row[:, :, None] + size * np.arange(3)).ravel()
    sweeps = []
    for corner, union, identity in ((lo, np.minimum, np.inf), (hi, np.maximum, -np.inf)):
        box = np.full(3 * size, identity)
        union.at(box, cell, np.repeat(corner[ids], k, axis=0).ravel())
        sweeps.append(_sweeps(box.reshape(3, SAH_BINS, nseg * k), union))
    (lo_left, lo_right), (hi_left, hi_right) = sweeps
    n_left = np.cumsum(in_bin, axis=0)[:-1]
    n_right = counts[:, None] - n_left
    n_left, n_right = (n.reshape(SAH_BINS - 1, -1) for n in (n_left, n_right))
    with np.errstate(invalid="ignore"):
        cost = (_half_area(lo_left, hi_left) * n_left
                + _half_area(lo_right, hi_right) * n_right)
    cost[(n_left == 0) | (n_right == 0)] = np.inf
    cost = cost.reshape(SAH_BINS - 1, nseg, k).transpose(1, 2, 0).reshape(nseg, -1)
    best = cost.argmin(axis=1)
    found = np.isfinite(cost[np.arange(nseg), best])
    axis, cut = np.divmod(best, SAH_BINS - 1)

    left = bins[np.arange(seg.size), axis[seg]] <= cut[seg]
    left = np.where(found[seg], left, rank < (counts // 2)[seg])
    order[pos] = ids[np.argsort(2 * seg + ~left, kind="stable")]
    return np.bincount(seg[left], minlength=nseg)


class FlatOctree:
    """Array-encoded eight-wide BVH over a scene's patches.

    Build once per scene with :meth:`build`; the instance is immutable.
    Pool workers attach its arrays zero-copy through the shared-memory
    scene plane (:meth:`arrays` / :meth:`from_arrays`).  The name is
    kept from when the tree was the compiled pointer octree (see the
    module docstring).

    Attributes:
        lox, loy, loz, hix, hiy, hiz: Per-node boxes (``float64``): a
            leaf bounds its members padded by :data:`FIT_PAD` of the
            root diagonal, an interior node its children; an empty slot
            is a point outside the root.
        first_child: Per-node index of the first of eight consecutive
            children, or ``-1`` for a leaf (``int32``).
        leaf_start, leaf_end: Per-node ``[start, end)`` range into
            ``leaf_items`` (empty for interior nodes and empty slots).
        leaf_items: Every patch id exactly once, grouped by leaf and
            ascending within each (``int64``).
        depth: Per-node depth (root is 0); used by structural tests and
            diagnostics, not by traversal.
    """

    __slots__ = (
        "lox", "loy", "loz", "hix", "hiy", "hiz",
        "first_child", "leaf_start", "leaf_end", "leaf_items", "depth",
    )

    def __init__(
        self,
        lox: np.ndarray, loy: np.ndarray, loz: np.ndarray,
        hix: np.ndarray, hiy: np.ndarray, hiz: np.ndarray,
        first_child: np.ndarray,
        leaf_start: np.ndarray, leaf_end: np.ndarray,
        leaf_items: np.ndarray, depth: np.ndarray,
    ) -> None:
        self.lox, self.loy, self.loz = lox, loy, loz
        self.hix, self.hiy, self.hiz = hix, hiy, hiz
        self.first_child = first_child
        self.leaf_start = leaf_start
        self.leaf_end = leaf_end
        self.leaf_items = leaf_items
        self.depth = depth

    # -- builder --------------------------------------------------------------

    @classmethod
    def build(cls, p0, eu, ev) -> "FlatOctree":
        """Build the tree over parallelogram patches given as columns.

        Args:
            p0, eu, ev: Three ``(x, y, z)`` triples of equal-length
                ``float64`` arrays: each patch's origin corner and edge
                vectors — the ``p0*`` / ``eu*`` / ``ev*`` columns of
                :class:`repro.core.vectorized.SceneArrays`.  A patch's
                id is its position in these arrays.

        Level by level, every node larger than :data:`LEAF_SIZE` is cut
        into at most eight children by three rounds of
        :func:`_sah_split`: the first splits the node in two, the next
        two split every part of more than one patch.  A part lands in slot
        ``4a + 2b + c`` for the sides ``a, b, c`` it took (a part not
        split in a round keeps its slot; slots left over are empty).
        Children larger than :data:`LEAF_SIZE` are the next level's
        nodes, the rest are leaves.  Boxes are then filled bottom up.
        The result is a pure function of the columns: a rebuild is
        byte-identical.
        """
        p0, eu, ev = (np.stack(v, axis=1) for v in (p0, eu, ev))
        c1 = p0 + eu
        corners = (p0, c1, c1 + ev, p0 + ev)  # as Patch.corners() forms them
        lo = functools.reduce(np.minimum, corners)
        hi = functools.reduce(np.maximum, corners)
        # Binning keys: the box centre on each axis and, as a fourth
        # column, the box's largest extent.  Centres alone cannot cut a
        # building's floor, ceiling and outer walls, centred mid-building,
        # away from the small patches around them; the size column offers
        # the SAH that cut, and it takes it when it pays.
        keys = np.column_stack([0.5 * (lo + hi), (hi - lo).max(axis=1)])
        n = lo.shape[0]

        order = np.arange(n)
        # Per level: each new node's segment of `order` and its depth.
        seg_start = [np.zeros(1, dtype=np.int64)]
        seg_count = [np.array([n], dtype=np.int64)]
        seg_depth = [np.zeros(1, dtype=np.int32)]
        levels = []  # (interior node ids, their child blocks' bases) per depth
        parents = np.zeros(1 if n > LEAF_SIZE else 0, dtype=np.int64)
        starts, counts = seg_start[0][:parents.size], seg_count[0][:parents.size]
        next_id = 1
        while parents.size:
            owner = np.arange(parents.size)
            slot = np.zeros(parents.size, dtype=np.int64)
            for step in (4, 2, 1):
                split = counts > (LEAF_SIZE if step == 4 else 1)
                if not split.any():
                    break
                n_left = _sah_split(order, starts[split], counts[split], lo, hi, keys)
                keep = ~split
                starts = np.concatenate(
                    [starts[keep], starts[split], starts[split] + n_left])
                counts = np.concatenate(
                    [counts[keep], n_left, counts[split] - n_left])
                owner = np.concatenate([owner[keep], owner[split], owner[split]])
                slot = np.concatenate([slot[keep], slot[split], slot[split] + step])
            bases = next_id + 8 * np.arange(parents.size)
            levels.append((parents, bases))
            local = 8 * owner + slot
            block_start = np.zeros(8 * parents.size, dtype=np.int64)
            block_count = np.zeros(8 * parents.size, dtype=np.int64)
            block_start[local] = starts
            block_count[local] = counts
            seg_start.append(block_start)
            seg_count.append(block_count)
            seg_depth.append(np.full(block_count.size, len(levels), dtype=np.int32))
            inner = np.flatnonzero(block_count > LEAF_SIZE)
            parents = next_id + inner
            starts, counts = block_start[inner], block_count[inner]
            next_id += block_count.size

        start = np.concatenate(seg_start)
        count = np.concatenate(seg_count)
        first_child = np.full(start.size, -1, dtype=np.int32)
        for ids, bases in levels:
            first_child[ids] = bases
        leaves = np.flatnonzero((first_child < 0) & (count > 0))
        leaves = leaves[np.argsort(start[leaves])]
        leaf_start = np.zeros(start.size, dtype=np.int64)
        leaf_end = np.zeros(start.size, dtype=np.int64)
        leaf_start[leaves] = start[leaves]
        leaf_end[leaves] = start[leaves] + count[leaves]
        # The leaves tile `order`; sort ids within each.
        group = np.repeat(np.arange(leaves.size), count[leaves])
        items = order[np.lexsort((order, group))]

        root_lo, root_hi = lo.min(axis=0), hi.max(axis=0)
        diag = float(np.sqrt(((root_hi - root_lo) ** 2).sum()))
        pad = FIT_PAD * diag
        box_lo = np.full((start.size, 3), np.inf)
        box_hi = np.full((start.size, 3), -np.inf)
        box_lo[leaves] = np.minimum.reduceat(lo[items], start[leaves], axis=0) - pad
        box_hi[leaves] = np.maximum.reduceat(hi[items], start[leaves], axis=0) + pad
        for ids, bases in reversed(levels):
            kids = bases[:, None] + _OCTANTS
            box_lo[ids] = box_lo[kids].min(axis=1)
            box_hi[ids] = box_hi[kids].max(axis=1)
        empty = count == 0
        box_lo[empty] = box_hi[empty] = root_hi + diag
        return cls(
            *(np.ascontiguousarray(box[:, k]) for box in (box_lo, box_hi) for k in range(3)),
            first_child, leaf_start, leaf_end, items, np.concatenate(seg_depth),
        )

    # -- export / attach ------------------------------------------------------

    def arrays(self) -> dict:
        """The compiled tree as a name -> array mapping.

        This is the export surface of the shared-memory scene plane
        (:mod:`repro.parallel.shmplane`): eleven contiguous arrays fully
        describe the tree, so a worker can rebuild it zero-copy from
        views into a shared segment via :meth:`from_arrays`.
        """
        return {name: getattr(self, name) for name in self.__slots__}

    @classmethod
    def from_arrays(cls, arrays: dict) -> "FlatOctree":
        """Rebuild a tree from :meth:`arrays` output (or views onto it).

        No copies are made: the instance aliases whatever buffers the
        caller passes, which is exactly what zero-copy attach needs.
        """
        return cls(**{name: arrays[name] for name in cls.__slots__})

    # -- introspection --------------------------------------------------------

    @property
    def node_count(self) -> int:
        """Total nodes (interior + leaves), matching ``OctreeStats``."""
        return int(self.first_child.size)

    @property
    def leaf_count(self) -> int:
        """Nodes with no children (possibly with empty patch ranges)."""
        return int((self.first_child < 0).sum())

    def leaf_patch_ids(self, node: int) -> np.ndarray:
        """Ascending member patch ids of flat node *node* (empty if interior)."""
        return self.leaf_items[self.leaf_start[node]:self.leaf_end[node]]

    # -- batched traversal ----------------------------------------------------

    def traverse(
        self,
        px: np.ndarray, py: np.ndarray, pz: np.ndarray,
        inv_x: np.ndarray, inv_y: np.ndarray, inv_z: np.ndarray,
        best_t: np.ndarray,
        test_pairs: Callable[[np.ndarray, np.ndarray], None],
    ) -> int:
        """Walk the whole ray batch through the tree; returns slab-test count.

        Args:
            px, py, pz: Lane ray origins.
            inv_x, inv_y, inv_z: Lane reciprocal directions (``inf``/NaN
                for zero components is expected and handled
                conservatively).
            best_t: Per-lane current-best hit distance, **read live**:
                the caller's ``test_pairs`` updates it in place and the
                walk prunes against the tightened bound.  Pruning is
                strict (``t_enter > best_t``) so equal-distance
                candidates survive for the max-patch-id tie-break.
            test_pairs: ``test_pairs(lanes, patch_ids)`` — two parallel
                1-D arrays; test ray ``lanes[k]`` against patch
                ``patch_ids[k]`` for every ``k`` and fold the hits into
                ``best_t``.  Called at most once per tree level per wave
                of :data:`WAVE_LANES` lanes.  A tree from :meth:`build`
                lists each patch once, but the kernel must not assume
                it: a hand-built tree may list a patch in several leaves.

        Returns:
            Number of lane x node slab tests performed (the flat
            analogue of the pruned walk's ``box_tests`` counter).
        """
        if self.first_child.size == 0:
            return 0
        rays = (px, py, pz, inv_x, inv_y, inv_z)
        box_tests = 0
        for w0 in range(0, px.size, WAVE_LANES):
            lanes = np.arange(w0, min(w0 + WAVE_LANES, px.size))
            box_tests += self._walk_wave(lanes, rays, best_t, test_pairs)
        return box_tests

    def _walk_wave(self, lane, rays, best_t, test_pairs) -> int:
        """Level-synchronous walk of the lanes in *lane*; slab-test count."""
        first_child = self.first_child
        bounds = (self.lox, self.loy, self.loz, self.hix, self.hiy, self.hiz)
        box_tests = lane.size
        t_enter, t_exit = slab_spans(
            *(b[0] for b in bounds), *(r[lane] for r in rays)
        )
        lane = lane[~_misses(t_enter, t_exit, best_t[lane])]
        node = np.zeros(lane.size, dtype=np.intp)
        if first_child[0] < 0:
            self._test_leaves(lane, node, test_pairs)
            return box_tests
        while lane.size:
            box_tests += lane.size * 8
            child = first_child[node][:, None] + _OCTANTS
            t_enter, t_exit = slab_spans(
                *(b[child] for b in bounds), *(r[lane, None] for r in rays)
            )
            hit, octant = np.nonzero(
                ~_misses(t_enter, t_exit, best_t[lane, None])
            )
            lane = lane[hit]
            node = child[hit, octant]
            is_leaf = first_child[node] < 0
            self._test_leaves(lane[is_leaf], node[is_leaf], test_pairs)
            # The level's leaves have tightened best_t: prune the next
            # frontier against it before descending (NaN keeps the pair).
            descend = ~(is_leaf | (t_enter[hit, octant] > best_t[lane]))
            lane = lane[descend]
            node = node[descend]
        return box_tests

    def _test_leaves(self, lane, node, test_pairs) -> None:
        """Expand (lane, leaf) pairs to (lane, patch) pairs; one callback."""
        start = self.leaf_start[node]
        count = self.leaf_end[node] - start
        total = int(count.sum())
        if total == 0:
            return
        # Pair k of leaf j reads leaf_items[start[j] + k]: a running
        # index minus each leaf's offset into the expanded list.
        first = np.cumsum(count) - count
        items = np.arange(total) + np.repeat(start - first, count)
        test_pairs(np.repeat(lane, count), self.leaf_items[items])
