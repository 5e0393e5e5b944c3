"""Flattened structure-of-arrays octree for batched traversal.

The pointer octree (:class:`repro.geometry.octree.Octree`) is ideal for
the scalar tracer: one ray at a time, near-to-far recursion, early exit.
The vector engine needs the opposite shape — *one node at a time, all
rays at once* — and PR 1's interim answer (a Python loop over every
octree leaf per batch) pays per-leaf interpreter overhead ~3.4k times
per batch on the computer-lab scene whether or not a single lane's ray
goes anywhere near the leaf.

:class:`FlatOctree` is a one-time compile of the pointer tree into
contiguous NumPy arrays, after which traversal never touches a Python
object per node:

* **Node bounds** live in six parallel ``float64`` arrays
  (``lox..hiz``), indexed by flat node id.  They are *fitted boxes*:
  what the node contains, not its cell — a leaf bounds the parts of its
  member patches inside its cell, an interior node its children's
  boxes, each padded by :data:`FIT_PAD` of the root diagonal — so a ray
  through empty space in a cell, or past the edge of a wall piece,
  prunes there.  Empty leaves get a zero-volume box outside the root.
* **Topology** is a single ``first_child`` ``int32`` array.  Children of
  an interior node occupy eight *consecutive* slots (octant order), so
  one integer encodes all eight links and a child block's bounds are a
  contiguous slice — the layout production renderers use for
  array-encoded BVH/octree walks.
* **Leaf membership** is a shared ``leaf_items`` patch-id array with
  per-node ``[leaf_start, leaf_end)`` ranges (ids ascending within each
  leaf; interior nodes hold an empty range).

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
``(t, patch_id)``, so breadth-first order, duplicate leaf membership
and wave boundaries cannot change a byte.  A subtree is pruned only
when it provably cannot beat a lane's current best (slab miss, box
behind the origin, or entry strictly beyond the best hit; NaN slab
results from boundary-grazing axis-parallel rays compare ``False`` and
are kept, which is the conservative side).  Breadth-first pruning is a
little later than depth-first (a near leaf two levels down cannot yet
cull a far sibling subtree), which costs a few percent more slab and
patch tests and nothing else.

Pruning against fitted boxes is conservative for every hit the dense
scan accepts.  Such a hit lies within the scan's barycentric tolerance
(1e-9 times each edge, at most 2e-9 of the root diagonal) of a point
``q`` of its patch's AABB; the leaf whose cell holds ``q`` lists the
patch (membership is AABB-cell overlap), so that leaf's box holds ``q``
and, padded by :data:`FIT_PAD` (1e-6 of the diagonal), holds the hit
strictly inside, with ``t_enter`` about a pad before it — far beyond any
slab or plane rounding; every ancestor's box contains the leaf's.  The
winning candidate therefore always reaches the kernel, the answer stays
a pure function of the candidate set, and no answer byte can move.
"""

from __future__ import annotations

import functools
import itertools
from operator import attrgetter
from typing import Callable

import numpy as np

from .octree import Octree, OctreeNode
from .polygon import Patch

__all__ = ["FlatOctree", "slab_spans", "WAVE_LANES", "FIT_PAD"]

#: Lanes walked together by :meth:`FlatOctree.traverse`.  The frontier
#: and its ``m x 8`` slab temporaries scale with the lanes in flight, so
#: a fixed wave keeps peak memory independent of the caller's batch size.
#: Measured on ``gen:office-259`` at ``batch_size=4096``: peak RSS 118 MB
#: with the whole batch in one frontier, 96 MB at 1,024 (90 MB at 256),
#: and 1,024 was also the fastest of 256..4,096 (cache-sized operands).
WAVE_LANES = 1024

#: Outward pad of every fitted node box, as a fraction of the root
#: cell's diagonal.  It must exceed what the dense scan accepts beyond a
#: patch's AABB — its 1e-9 barycentric tolerance times the two edges,
#: at most 2e-9 of the diagonal — plus slab and plane rounding, so that
#: every hit the dense scan accepts lies strictly inside each box on its
#: path (see the module docstring).  The pad costs almost nothing: on
#: ``gen:office-259@0xBEEF`` (2,000 photons) patch tests per photon are
#: 38.89 unpadded, 38.96 at 1e-6, 41.6 at 1e-4 and 62.0 at 1e-3.
FIT_PAD = 1e-6

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


class FlatOctree:
    """Array-encoded octree compiled from a pointer :class:`Octree`.

    Build once per scene with :meth:`from_octree`; the instance is
    immutable and shares no state with the source tree.  Pool workers
    attach its arrays zero-copy through the shared-memory scene plane
    (:meth:`arrays` / :meth:`from_arrays`).

    Attributes:
        lox, loy, loz, hix, hiy, hiz: Per-node fitted boxes (``float64``):
            the padded bounds of what the node contains, not its cell.
        first_child: Per-node index of the first of eight consecutive
            children, or ``-1`` for a leaf (``int32``).
        leaf_start, leaf_end: Per-node ``[start, end)`` range into
            ``leaf_items`` (empty for interior nodes).
        leaf_items: Concatenated member patch ids of every leaf, sorted
            ascending within each leaf (``int64``).
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

    # -- compiler -------------------------------------------------------------

    @classmethod
    def from_octree(cls, octree: Octree) -> "FlatOctree":
        """Compile *octree* into flat arrays (breadth-first node order).

        Breadth-first emission is what makes each interior node's eight
        children consecutive: when a node is dequeued its children are
        appended as one block, and ``first_child`` records the block
        base.  Every pointer node — including empty leaves — gets a
        slot, so structural round-trip tests can compare node counts
        and memberships one-for-one.  The bounds are the fitted boxes of
        :meth:`_fit_bounds`, not the pointer nodes' cells.
        """
        order: list[OctreeNode] = [octree.root]
        first_child: list[int] = []
        i = 0
        while i < len(order):
            node = order[i]
            if node.is_leaf:
                first_child.append(-1)
            else:
                first_child.append(len(order))
                order.extend(node.children)  # type: ignore[arg-type]
            i += 1

        n = len(order)
        lox = np.empty(n); loy = np.empty(n); loz = np.empty(n)
        hix = np.empty(n); hiy = np.empty(n); hiz = np.empty(n)
        depth = np.empty(n, dtype=np.int32)
        leaf_start = np.zeros(n, dtype=np.int64)
        leaf_end = np.zeros(n, dtype=np.int64)
        items: list[int] = []
        members: set[Patch] = set()
        for j, node in enumerate(order):
            b = node.bounds
            lox[j], loy[j], loz[j] = b.lo.x, b.lo.y, b.lo.z
            hix[j], hiy[j], hiz[j] = b.hi.x, b.hi.y, b.hi.z
            depth[j] = node.depth
            if node.children is None and node.patches:
                members.update(node.patches)
                leaf_start[j] = len(items)
                items.extend(sorted(p.patch_id for p in node.patches))
                leaf_end[j] = len(items)
        tree = cls(
            lox, loy, loz, hix, hiy, hiz,
            np.array(first_child, dtype=np.int32),
            leaf_start, leaf_end, np.array(items, dtype=np.int64), depth,
        )
        # The lists hold a Python object per node and per membership;
        # dropping them first keeps the fit's temporaries off the peak.
        patches = list(members)
        del order, first_child, items, members
        tree._fit_bounds(patches)
        return tree

    def _fit_bounds(self, patches: list[Patch]) -> None:
        """Shrink every node's bounds, in place, from its cell to its contents.

        On entry the six bound arrays hold the pointer tree's cells; on
        exit a leaf holds the union over its member patches of (patch
        AABB ∩ cell), an interior node the union of its children's
        boxes, both padded outward by :data:`FIT_PAD` times the root
        cell's diagonal.  A node with no patch in its subtree gets a
        zero-volume box outside the root, so it costs one slab test and
        is never expanded.  *patches* holds every patch whose id is in
        ``leaf_items``.

        Vectorised, one axis at a time: patch extents come from the four
        corner columns, each leaf reduces its members' extents with
        ``reduceat`` over its ``leaf_items`` range, and interior nodes
        take one pass per depth level over their eight-child blocks,
        deepest first.
        """
        bounds = (self.lox, self.loy, self.loz, self.hix, self.hiy, self.hiz)
        root = np.array([b[0] for b in bounds])
        diag = float(np.sqrt(((root[3:] - root[:3]) ** 2).sum()))
        pad = FIT_PAD * diag
        outside = root[3:] + diag

        n = len(patches)
        ids = np.fromiter(map(attrgetter("patch_id"), patches), np.int64, n)
        geometry = attrgetter(*(f"{v}.{a}" for v in ("p0", "eu", "ev") for a in "xyz"))
        geom = np.fromiter(
            itertools.chain.from_iterable(map(geometry, patches)), np.float64, 9 * n
        ).reshape(n, 9)
        patch_side = np.zeros(int(ids.max()) + 1)
        leaves = np.flatnonzero(self.leaf_end > self.leaf_start)
        starts = self.leaf_start[leaves]
        interior = np.flatnonzero(self.first_child >= 0)
        levels = []
        for d in range(int(self.depth.max()) - 1, -1, -1):
            parents = interior[self.depth[interior] == d]
            levels.append((parents, self.first_child[parents][:, None] + _OCTANTS))
        for axis in range(3):
            p0, eu, ev = geom[:, axis], geom[:, axis + 3], geom[:, axis + 6]
            c1 = p0 + eu
            corners = (p0, c1, c1 + ev, p0 + ev)  # as Patch.corners() forms them
            for box, union, clip, grow, identity in (
                (bounds[axis], np.minimum, np.maximum, -pad, np.inf),
                (bounds[axis + 3], np.maximum, np.minimum, pad, -np.inf),
            ):
                patch_side[ids] = functools.reduce(union, corners)
                # Clamping every member to the cell and then taking the
                # union equals clamping the union: min and max commute
                # with a clamp to one constant.
                fitted = union.reduceat(patch_side[self.leaf_items], starts)
                clip(fitted, box[leaves], out=fitted)
                fitted += grow
                # Empty nodes hold the union's identity until the end.
                box[:] = identity
                box[leaves] = fitted
                for parents, kids in levels:
                    box[parents] = union.reduce(box[kids], axis=1)
        empty = self.lox > self.hix
        for axis in range(3):
            bounds[axis][empty] = outside[axis]
            bounds[axis + 3][empty] = outside[axis]

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
                of :data:`WAVE_LANES` lanes.  A lane may meet the same
                patch more than once (a patch straddling several leaves).

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
