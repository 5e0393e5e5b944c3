"""Per-patch bin trees and the scene-wide bin forest (Figure 4.6).

"For each geometrical primitive, a bin tree is maintained to record
photon counts.  The result is a forest of bin trees."  The forest *is*
the global illumination answer: a discrete representation of the radiance
``L`` for every surface point and direction.

Splitting policy lives here (threshold/min-count/max-depth), tallying and
axis selection in :mod:`repro.core.binning`.  A forest takes events one
at a time (:meth:`BinForest.tally`, the scalar engine and the oracle) or
a whole block at once, across all its trees (:meth:`BinForest.tally_groups`,
every batched replay); the two build the same forest, node for node.
A forest also carries the :class:`TraceStats` of the photons tallied
into it, booked per block by :func:`repro.core.vectorized.tally_block`.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import astuple, dataclass, field, replace
from itertools import chain, repeat
from operator import attrgetter
from typing import Iterator, Optional

import numpy as np

from ..montecarlo.stats import (
    DEFAULT_MIN_COUNT,
    DEFAULT_SPLIT_THRESHOLD,
    split_statistics,
)
from .binning import NUM_AXES, TWO_PI, BinCoords, BinNode
from .photon import NUM_BANDS

__all__ = [
    "TraceStats",
    "SplitPolicy",
    "BinTree",
    "BinForest",
    "NODE_BYTES",
]

#: Approximate C-struct footprint of one bin node, used for the Figure 5.4
#: memory-growth reproduction: 8 region floats + 3 band counts + total +
#: 4 speculative counts + axis/child pointers ~= 8*8 + 8*4 + 3*8 = 120.
NODE_BYTES = 120


def _require(value: object, name: str, kind, what: str) -> None:
    """*value* must be a *kind*: a bool (an int to Python) or ``2.5`` for
    a count is refused, not converted."""
    if isinstance(value, bool) or not isinstance(value, kind):
        raise TypeError(f"{name} must be {what}, got {value!r}")


@dataclass(frozen=True)
class SplitPolicy:
    """When and how eagerly bins subdivide.

    Attributes:
        threshold: Standard-deviation criterion (the paper's 3-sigma).
        min_count: Tallies required before a leaf may split.
        max_depth: Hard refinement cap per tree.
        max_leaves: Optional global leaf budget per tree; refinement stops
            silently at the cap (storage economy argument of chapter 3).
    """

    threshold: float = DEFAULT_SPLIT_THRESHOLD
    min_count: int = DEFAULT_MIN_COUNT
    max_depth: int = 24
    max_leaves: Optional[int] = None

    def __post_init__(self) -> None:
        _require(self.threshold, "threshold", (int, float), "a real number")
        _require(self.min_count, "min_count", int, "an int")
        _require(self.max_depth, "max_depth", int, "an int")
        if self.max_leaves is not None:
            _require(self.max_leaves, "max_leaves", int, "an int")
        # not (x > 0) also rejects NaN; an infinite threshold never splits
        # and serialises as a non-JSON token.
        if not (self.threshold > 0 and math.isfinite(self.threshold)):
            raise ValueError(
                f"threshold must be positive and finite, got {self.threshold}"
            )
        if self.min_count < 2:
            raise ValueError("min_count must be at least 2")
        if self.max_depth < 0:
            raise ValueError("max_depth must be non-negative")
        if self.max_leaves is not None and self.max_leaves < 1:
            raise ValueError("max_leaves must be positive when given")


_ROOT_LO = (0.0, 0.0, 0.0, 0.0)
_ROOT_HI = (1.0, 1.0, TWO_PI, 1.0)


class BinTree:
    """The 4-D adaptive histogram of one patch (or one ownership unit).

    Serial runs key trees by patch id with the full domain as the root;
    the distributed algorithm keys them by ownership unit, whose root is
    the unit's sub-region of the patch domain (see
    :class:`repro.paper.loadbalance.OwnershipMap`).
    """

    __slots__ = ("patch_id", "root", "policy", "leaf_count", "node_count", "splits")

    def __init__(
        self,
        patch_id,
        policy: SplitPolicy,
        root_lo: tuple[float, float, float, float] = _ROOT_LO,
        root_hi: tuple[float, float, float, float] = _ROOT_HI,
    ) -> None:
        self.patch_id = patch_id
        self.policy = policy
        self.root = BinNode(root_lo, root_hi)
        self.leaf_count = 1
        self.node_count = 1
        self.splits = 0

    # -- tallying -------------------------------------------------------------

    def find_leaf(self, coords: BinCoords) -> BinNode:
        """Descend to the leaf containing *coords*."""
        node = self.root
        while not node.is_leaf:
            node = node.child_for(coords)
        return node

    def tally(self, coords: BinCoords, band: int) -> BinNode:
        """Record a photon departure; split the leaf if warranted.

        Interior nodes keep *live* aggregates: every node on the descent
        path has its total and band counts incremented, so subtree sums
        are O(1) and ``root.total == sum(leaf totals)`` is an invariant
        the tests enforce.

        Returns the leaf that received the tally (before any split), so
        callers — the shared-memory variant locks exactly this node — can
        reason about what was touched.
        """
        return self._tally_from(self.root, coords, band)

    def _tally_from(self, node: BinNode, coords: BinCoords, band: int) -> BinNode:
        """:meth:`tally` for an event already known to lie under *node*."""
        if not 0 <= band < NUM_BANDS:
            # Checked before the descent so a bad band cannot leave the
            # interior aggregates ahead of the leaves.
            raise ValueError(f"band out of range: {band}")
        while not node.is_leaf:
            node.total += 1
            node.counts[band] += 1
            node = node.child_for(coords)
        node.tally(coords, band)
        if node.total >= self.policy.min_count and self._may_split(node):
            axis, stat = node.best_split_axis()
            if stat > self.policy.threshold:
                self._split(node, axis)
        return node

    def _may_split(self, leaf: BinNode) -> bool:
        """Whether the policy's caps still allow *leaf* to split."""
        policy = self.policy
        return leaf.depth < policy.max_depth and (
            policy.max_leaves is None or self.leaf_count < policy.max_leaves
        )

    def _split(self, leaf: BinNode, axis: int) -> None:
        leaf.split(axis)
        self.leaf_count += 1
        self.node_count += 2
        self.splits += 1

    # -- queries ---------------------------------------------------------------

    def leaf_groups(
        self, coords: np.ndarray
    ) -> Iterator[tuple[BinNode, np.ndarray]]:
        """Route the columns of *coords* to their leaves; touch nothing.

        The read-only, one-tree shape of :func:`_descend`: *coords* is
        ``[NUM_AXES, m]`` (``s, t, theta, r^2`` per column) and each
        yield is ``(leaf, rows)`` — *leaf* is what :meth:`find_leaf`
        returns for every column in the ascending index group *rows*, by
        the same ``value < mid`` test.  Every column lands in exactly one
        group.
        """
        stack = [(self.root, np.arange(coords.shape[1]))]
        while stack:
            node, rows = stack.pop()
            if node.is_leaf:
                yield node, rows
                continue
            axis = node.split_axis
            low = coords[axis, rows] < node.mid(axis)
            for child, sub in (
                (node.low_child, rows[low]), (node.high_child, rows[~low])
            ):
                if sub.size:
                    stack.append((child, sub))

    def leaves(self) -> Iterator[BinNode]:
        """Iterate over all leaf bins."""
        stack = [self.root]
        while stack:
            node = stack.pop()
            if node.is_leaf:
                yield node
            else:
                stack.append(node.low_child)  # type: ignore[arg-type]
                stack.append(node.high_child)  # type: ignore[arg-type]

    def total_tallies(self) -> int:
        """All-band tallies recorded in this tree."""
        return self.root.total

    def leaf_total_sum(self) -> int:
        """Sum of leaf totals — must equal :meth:`total_tallies`."""
        return sum(leaf.total for leaf in self.leaves())

    def memory_bytes(self) -> int:
        """Estimated C-struct footprint (Fig. 5.4 accounting)."""
        return self.node_count * NODE_BYTES

    def max_depth_reached(self) -> int:
        """Deepest leaf level in this tree."""
        return max((leaf.depth for leaf in self.leaves()), default=0)

    def node_by_path(self, path: tuple[tuple[int, int], ...]) -> BinNode:
        """Resolve a (axis, side) path to its node.

        Raises:
            KeyError: when the path walks off the tree (e.g. the local
                tree has not split where the remote one had).
        """
        node = self.root
        for axis, side in path:
            if node.is_leaf or node.split_axis != axis:
                raise KeyError(f"path {path} not present in tree {self.patch_id}")
            node = node.low_child if side == 0 else node.high_child  # type: ignore[assignment]
        return node

    def __repr__(self) -> str:
        return (
            f"BinTree(patch={self.patch_id}, leaves={self.leaf_count}, "
            f"tallies={self.root.total})"
        )

    def clone(self) -> "BinTree":
        """An independent copy of the tree (see :meth:`BinForest.__deepcopy__`)."""
        tree = BinTree.__new__(BinTree)
        tree.patch_id = self.patch_id
        tree.policy = self.policy
        tree.root = _clone_subtree(self.root)
        tree.leaf_count = self.leaf_count
        tree.node_count = self.node_count
        tree.splits = self.splits
        return tree


def _clone_subtree(node: BinNode) -> BinNode:
    """*node* and everything below it, with fresh count lists.

    Every :class:`BinNode` slot is set; the immutable ones (bounds, path)
    are shared with the original.
    """
    clone = BinNode.__new__(BinNode)
    clone.lo = node.lo
    clone.hi = node.hi
    clone.counts = node.counts.copy()
    clone.total = node.total
    clone.low_counts = node.low_counts.copy()
    clone.split_axis = node.split_axis
    low, high = node.low_child, node.high_child
    clone.low_child = None if low is None else _clone_subtree(low)
    clone.high_child = None if high is None else _clone_subtree(high)
    clone.depth = node.depth
    clone.path = node.path
    return clone


def add_band_counts(counts: list, bands: np.ndarray) -> None:
    """``counts[b] += (bands == b).sum()`` for every band, in one pass.

    *bands* must already lie in ``[0, NUM_BANDS)``.
    """
    for b, n in enumerate(np.bincount(bands, minlength=NUM_BANDS).tolist()):
        counts[b] += n


def _columns(nodes: list, attr: str, dtype, width: int) -> np.ndarray:
    """``[width, len(nodes)]``: each node's length-*width* sequence *attr*
    as a column (one flat pass, not a list of rows)."""
    flat = chain.from_iterable(map(attrgetter(attr), nodes))
    return np.fromiter(flat, dtype, width * len(nodes)).reshape(-1, width).T


def _segment_ids(sizes: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``(segment of each row, first row of each segment)`` for back-to-back
    segments of *sizes* rows."""
    return np.arange(sizes.size).repeat(sizes), sizes.cumsum() - sizes


def _descend(nodes: list, owners: list, rows: np.ndarray, sizes: np.ndarray,
             coords: np.ndarray, band: np.ndarray):
    """Route row groups from their nodes down to leaves, one level a step.

    Group *k* is the next ``sizes[k]`` entries of *rows* (ascending row
    indices) and starts at ``nodes[k]``.  Every interior node a group
    reaches takes it in one add and partitions it on its split plane
    with the ``value < mid`` test :meth:`BinNode.child_for` uses; a
    stable partition keeps each group ascending.  Returns ``(leaves,
    owners, rows, sizes)`` in the same layout, one group per reached
    leaf.
    """
    out_nodes: list = []
    out_owners: list = []
    out_rows: list = []
    out_sizes: list = []
    while nodes:
        inner = [k for k, node in enumerate(nodes) if node.split_axis is not None]
        if not inner:
            out_nodes += nodes
            out_owners += owners
            out_rows.append(rows)
            out_sizes.append(sizes)
            break
        if len(inner) < len(nodes):
            is_inner = np.zeros(len(nodes), dtype=bool)
            is_inner[inner] = True
            at_inner = is_inner.repeat(sizes)
            at_leaf = (~is_inner).nonzero()[0].tolist()
            out_nodes += [nodes[k] for k in at_leaf]
            out_owners += [owners[k] for k in at_leaf]
            out_rows.append(rows[~at_inner])
            out_sizes.append(sizes[at_leaf])
            nodes = [nodes[k] for k in inner]
            owners = [owners[k] for k in inner]
            sizes = sizes[inner]
            rows = rows[at_inner]
        parents, parent_owners = nodes, owners
        local, _ = _segment_ids(sizes)
        axes = np.array([node.split_axis for node in parents])
        mids = np.array([node.mid(node.split_axis) for node in parents])
        added = np.bincount(
            local * NUM_BANDS + band[rows], minlength=len(parents) * NUM_BANDS
        ).reshape(len(parents), NUM_BANDS).tolist()
        for node, m, counts in zip(parents, sizes.tolist(), added):
            node.total += m
            node.counts = [a + b for a, b in zip(node.counts, counts)]
        # Side 0 is the low child, side 1 the high one; ``>=`` is the
        # ``not <`` of child_for on range-checked (NaN-free) values.
        side = 2 * local + (coords[axes[local], rows] >= mids[local])
        child_sizes = np.bincount(side, minlength=2 * len(parents))
        # The narrowest dtype that holds every side: a stable sort of
        # 16-bit keys is a radix sort.
        side = side.astype(np.min_scalar_type(2 * len(parents)))
        rows = rows[np.argsort(side, kind="stable")]
        keep = child_sizes.nonzero()[0].tolist()
        nodes = [
            parents[j >> 1].high_child if j & 1 else parents[j >> 1].low_child
            for j in keep
        ]
        owners = [parent_owners[j >> 1] for j in keep]
        sizes = child_sizes[keep]
    return (
        out_nodes, out_owners,
        np.concatenate(out_rows) if len(out_rows) > 1 else out_rows[0],
        np.concatenate(out_sizes) if len(out_sizes) > 1 else out_sizes[0],
    )


def _top_counts(flags: np.ndarray, starts: np.ndarray, low0: np.ndarray,
                total: np.ndarray) -> np.ndarray:
    """Each row's largest daughter count over the four axes.

    *flags* (``[NUM_AXES, rows]``, "below mid") hold back-to-back groups
    that begin at the ascending rows *starts*, group *g* starting from
    the speculative low counts ``low0[:, g]``; *total* is each row's
    leaf total after it.  The running low counts are one ``cumsum``
    whose group heads carry what their group brought in, and
    ``top = max(max_a low, total - min_a low)``.
    """
    low = flags.astype(np.int64)
    carry = low0.copy()
    carry[:, 1:] -= low0[:, :-1] + np.add.reduceat(low, starts, axis=1)[:, :-1]
    # Every group's head on every axis, as flat indices into low.
    heads = np.arange(0, low.size, low.shape[1])[:, None] + starts
    low.reshape(-1)[heads.reshape(-1)] += carry.reshape(-1)
    np.cumsum(low, axis=1, out=low)
    return np.maximum(low.max(axis=0), total - low.min(axis=0))


def _fill(leaves: list, owners: list, trees: list, rows: np.ndarray,
          sizes: np.ndarray, coords: np.ndarray, band: np.ndarray,
          policy: SplitPolicy) -> list:
    """Tally each leaf's row group up to and including its first split trigger.

    Group *k* (the next ``sizes[k]`` entries of *rows*, ascending) lands
    in ``leaves[k]`` of ``trees[owners[k]]``.  A leaf whose total stays under
    ``min_count`` through its whole group, or whose depth or tree leaf
    count forbids a split, cannot trigger: it takes every row in one
    add.  The round's one segmented prefix scan covers every row (the
    rows of such leaves are masked out) and scores one split statistic
    per row, on the row's largest daughter count over the four axes
    (:func:`_top_counts`): at a fixed total the statistic strictly
    increases with that count
    (:func:`~repro.montecarlo.stats.split_statistics`), so it is the
    largest of the four per-axis statistics, and the first axis holding
    that count is :meth:`BinNode.best_split_axis`'s first maximum.
    Splits are not carried out here: each trigger comes back as
    ``(owner, (row, leaf, axis, rows after it))`` for
    :meth:`BinForest.tally_groups` to accept in replay order.
    """
    count = len(leaves)
    seg, first = _segment_ids(sizes)
    local = np.arange(rows.size) - first[seg]
    # Each leaf's own bounds, so a non-default root domain stays exact.
    mids = 0.5 * (
        _columns(leaves, "lo", np.float64, NUM_AXES)
        + _columns(leaves, "hi", np.float64, NUM_AXES)
    )
    below = np.empty((NUM_AXES, rows.size), dtype=bool)
    for axis in range(NUM_AXES):
        np.less(coords[axis].take(rows), mids[axis].take(seg), out=below[axis])
    total0 = np.fromiter(map(attrgetter("total"), leaves), np.int64, count)
    low0 = _columns(leaves, "low_counts", np.int64, NUM_AXES)
    stop = sizes.copy()
    scan = np.zeros(count, dtype=bool)
    scan[[
        k for k in (total0 + sizes >= policy.min_count).nonzero()[0].tolist()
        if trees[owners[k]]._may_split(leaves[k])
    ]] = True
    hit_seg = np.empty(0, dtype=np.intp)
    if scan.any():
        total = total0[seg] + local + 1
        # A total of 1 scores inf here (split_statistic's 0.0), but every
        # total below min_count is masked out.
        hit = (
            scan[seg] & (total >= policy.min_count)
            & (split_statistics(_top_counts(below, first, low0, total), total)
               > policy.threshold)
        ).nonzero()[0]
        if hit.size:
            # Each group's first triggering row only.
            hit_seg = seg[hit]
            first_hit = np.concatenate(([True], hit_seg[1:] != hit_seg[:-1]))
            hit, hit_seg = hit[first_hit], hit_seg[first_hit]
            stop[hit_seg] = local[hit] + 1
    kept = local < stop[seg]
    low = low0 + np.add.reduceat(below & kept, first, axis=1, dtype=np.int64)
    total = total0 + stop
    bands = np.bincount(
        seg[kept] * NUM_BANDS + band[rows[kept]], minlength=count * NUM_BANDS
    )
    counts = _columns(leaves, "counts", np.int64, NUM_BANDS).T + bands.reshape(
        count, NUM_BANDS
    )
    triggers = []
    if hit_seg.size:
        # The trigger row's counts are the leaf's counts now; argmax takes
        # the first axis with the largest daughter, as best_split_axis does.
        at = low[:, hit_seg]
        axes = np.maximum(at, total[hit_seg] - at).argmax(axis=0).tolist()
        ends = (first + stop)[hit_seg]
        group_ends = (first + sizes)[hit_seg].tolist()
        for k, end, axis, group_end in zip(
            hit_seg.tolist(), ends.tolist(), axes, group_ends
        ):
            triggers.append((owners[k], (
                int(rows[end - 1]), leaves[k], axis, rows[end:group_end]
            )))
    for leaf, leaf_total, band_counts, low_counts in zip(
        leaves, total.tolist(), counts.tolist(), low.T.tolist(),
    ):
        leaf.total = leaf_total
        leaf.counts = band_counts
        leaf.low_counts = low_counts
    return triggers


@dataclass
class TraceStats:
    """What a set of photons did: how many were emitted, reflected,
    absorbed, escaped the scene or stopped at the bounce cap.

    A served result's counts describe exactly the photons its forest
    holds (:attr:`BinForest.trace_stats`), so any prefix of a trace has
    its own.  Every photon ends in one of three ways, so ``escapes +
    absorptions + bounce_limit_hits == photons``.
    """

    photons: int = 0
    reflections: int = 0
    absorptions: int = 0
    escapes: int = 0  # photons that left the scene without hitting anything
    bounce_limit_hits: int = 0

    def merge(self, other: "TraceStats") -> None:
        """Accumulate another counter set into this one."""
        self.photons += other.photons
        self.reflections += other.reflections
        self.absorptions += other.absorptions
        self.escapes += other.escapes
        self.bounce_limit_hits += other.bounce_limit_hits

    def since(self, before: "TraceStats") -> "TraceStats":
        """The counts added since *before*, an earlier copy of these."""
        return TraceStats(*(a - b for a, b in zip(astuple(self), astuple(before))))

    @property
    def mean_bounces(self) -> float:
        return self.reflections / self.photons if self.photons else 0.0


class BinForest:
    """All bin trees of a scene plus global tally bookkeeping.

    Trees are created lazily on first tally, so an unlit patch costs no
    storage — part of why the forest stays one to two orders of magnitude
    smaller than the Density Estimation hit-point files.
    """

    def __init__(self, policy: Optional[SplitPolicy] = None) -> None:
        self.policy = policy or SplitPolicy()
        # Keyed by patch id (serial) or ownership-unit id (distributed).
        self.trees: dict = {}
        self.total_tallies = 0
        self.band_tallies = [0] * NUM_BANDS
        #: Photons *emitted* into the simulation that produced this forest;
        #: set by the simulator and required for radiance normalisation.
        self.photons_emitted = 0
        self.band_emitted = [0] * NUM_BANDS
        #: What the photons tallied in did, booked per block by
        #: :func:`repro.core.vectorized.tally_block`.  Not in an answer
        #: file, so a loaded forest (or a paper-tier one) carries none.
        self.trace_stats = TraceStats()

    def tree(
        self,
        key,
        root_lo: tuple[float, float, float, float] = _ROOT_LO,
        root_hi: tuple[float, float, float, float] = _ROOT_HI,
    ) -> BinTree:
        """The (lazily created) tree for *key*.

        *key* is a patch id in serial runs and an ownership-unit id in
        distributed runs; the root domain arguments only matter on first
        creation.
        """
        tree = self.trees.get(key)
        if tree is None:
            tree = BinTree(key, self.policy, root_lo, root_hi)
            self.trees[key] = tree
        return tree

    def tally(self, key, coords: BinCoords, band: int) -> BinNode:
        """Tally into tree *key*, updating forest-wide counters."""
        leaf = self.tree(key).tally(coords, band)
        self.total_tallies += 1
        self.band_tallies[band] += 1
        return leaf

    def tally_groups(self, keys: list, starts: np.ndarray, coords: np.ndarray,
                     band: np.ndarray) -> None:
        """Tally a block into many trees in one pass; same forest as :meth:`tally`.

        Args:
            keys: Distinct tree key of each row group; missing trees
                are created in list order.
            starts: ``[len(keys) + 1]`` bounds: rows ``starts[g] ..
                starts[g + 1]`` belong to tree ``keys[g]``, in replay order.
            coords: ``[NUM_AXES, n]`` float64 — ``s, t, theta, r^2`` per
                row, already range-checked
                (:func:`repro.core.vectorized.apply_events` checks whole
                blocks up front).
            band: ``[n]`` integer bands in ``[0, NUM_BANDS)``.

        The block moves through every tree at once, in rounds.  Each
        round routes its row groups down to leaves (:func:`_descend`: an
        interior node takes a group in one add and partitions it on its
        split plane), then fills every reached leaf (:func:`_fill`): a
        leaf that cannot split in this block takes all its rows in one
        add; the others share one segmented prefix scan, one split
        statistic per row, that finds the first row after which each
        must split.  Why that equals the one-at-a-time replay:

        * A leaf's tallies and its split decision read nothing but that
          leaf's own counts, so rows of different leaves — and of
          different trees — commute, except through
          ``SplitPolicy.max_leaves``, which reads the tree-wide leaf
          count.
        * So splits, and only splits, wait for their turn: a leaf that
          triggers stops filling at the trigger and parks ``(trigger
          row, leaf, axis, rows after it)`` on its tree's heap.  Without
          a leaf budget every parked split is carried out at the end of
          its round.  Under one, each round pops only the earliest
          trigger of every tree: daughters only ever trigger on later
          rows, so the pop order is each tree's replay order and the
          ``max_leaves`` check sees the leaf count the row-by-row replay
          would have seen.  An accepted trigger's remaining rows are the
          next round's groups, routed from the leaf it split (or, when
          ``max_leaves`` now refuses the split, back into that same
          leaf).

        The policy read is the forest's, which every tree it creates
        shares.
        """
        policy = self.policy
        new = [key for key in keys if key not in self.trees]
        self.trees.update(zip(new, map(BinTree, new, repeat(policy))))
        trees = [self.trees[key] for key in keys]
        nodes = [tree.root for tree in trees]
        owners = list(range(len(trees)))
        sizes = np.diff(starts)
        rows = np.arange(band.size)
        pending: dict = {}  # owner -> heap of parked triggers
        while nodes or pending:
            if nodes:
                leaves, owners, rows, sizes = _descend(
                    nodes, owners, rows, sizes, coords, band
                )
                for owner, trigger in _fill(
                    leaves, owners, trees, rows, sizes, coords, band, policy
                ):
                    heapq.heappush(pending.setdefault(owner, []), trigger)
            nodes, owners, parts = [], [], []
            for owner in list(pending):
                heap = pending[owner]
                tree = trees[owner]
                # Without a leaf budget every parked trigger is accepted
                # now; under one, only each tree's earliest.
                for _ in range(len(heap) if policy.max_leaves is None else 1):
                    _, leaf, axis, rest = heapq.heappop(heap)
                    if tree._may_split(leaf):
                        tree._split(leaf, axis)
                    if rest.size:
                        nodes.append(leaf)
                        owners.append(owner)
                        parts.append(rest)
                if not heap:
                    del pending[owner]
            if nodes:
                sizes = np.array([part.size for part in parts])
                rows = np.concatenate(parts)
        self.total_tallies += band.size
        add_band_counts(self.band_tallies, band)

    # -- aggregate statistics ------------------------------------------------------

    @property
    def tree_count(self) -> int:
        return len(self.trees)

    @property
    def leaf_count(self) -> int:
        """Total leaves — the paper's "view-dependent polygon" count."""
        return sum(tree.leaf_count for tree in self.trees.values())

    @property
    def node_count(self) -> int:
        return sum(tree.node_count for tree in self.trees.values())

    def memory_bytes(self) -> int:
        """Total estimated footprint across all trees."""
        return sum(tree.memory_bytes() for tree in self.trees.values())

    def tallies_per_patch(self) -> dict[int, int]:
        """Tree key -> total tallies (load-balance diagnostics)."""
        return {pid: tree.root.total for pid, tree in self.trees.items()}

    def check_invariants(self) -> None:
        """Assert the structural invariants every tally must preserve.

        Raises:
            AssertionError: on any violation (used heavily in tests and
                cheap enough to call in examples).
        """
        total = 0
        for tree in self.trees.values():
            leaf_sum = tree.leaf_total_sum()
            if leaf_sum != tree.root.total:
                raise AssertionError(
                    f"tree {tree.patch_id}: leaf sum {leaf_sum} != root total "
                    f"{tree.root.total}"
                )
            total += tree.root.total
        if total != self.total_tallies:
            raise AssertionError(
                f"forest total {self.total_tallies} != sum of trees {total}"
            )
        if sum(self.band_tallies) != self.total_tallies:
            raise AssertionError("band tallies do not sum to the forest total")

    def __repr__(self) -> str:
        return (
            f"BinForest({self.tree_count} trees, {self.leaf_count} leaves, "
            f"{self.total_tallies} tallies)"
        )

    def __deepcopy__(self, memo: dict) -> "BinForest":
        """``copy.deepcopy`` without the generic per-object walk.

        A session top-up copies the cached forest while it holds the
        kernel gate, and the generic walk pays a ``copyreg`` round trip
        for every slotted node.  This rebuilds each node directly with
        fresh count lists and shares what is immutable: bin bounds,
        paths, tree keys and the frozen policy.  Tree order is kept.
        """
        clone = BinForest.__new__(BinForest)
        memo[id(self)] = clone
        clone.policy = self.policy
        clone.trees = {key: tree.clone() for key, tree in self.trees.items()}
        clone.total_tallies = self.total_tallies
        clone.band_tallies = self.band_tallies.copy()
        clone.photons_emitted = self.photons_emitted
        clone.band_emitted = self.band_emitted.copy()
        clone.trace_stats = replace(self.trace_stats)
        return clone

