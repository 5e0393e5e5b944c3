"""Per-patch bin trees and the scene-wide bin forest (Figure 4.6).

"For each geometrical primitive, a bin tree is maintained to record
photon counts.  The result is a forest of bin trees."  The forest *is*
the global illumination answer: a discrete representation of the radiance
``L`` for every surface point and direction.

Splitting policy lives here (threshold/min-count/max-depth), tallying and
axis selection in :mod:`repro.core.binning`.  A tree takes events one at
a time (:meth:`BinTree.tally`, the scalar engine and the oracle) or a
block at a time (:meth:`BinTree.tally_rows`, every batched replay); the
two build the same tree.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass, field
from typing import Iterator, Optional

import numpy as np

from ..montecarlo.stats import DEFAULT_MIN_COUNT, DEFAULT_SPLIT_THRESHOLD
from .binning import NUM_AXES, TWO_PI, BinCoords, BinNode
from .photon import NUM_BANDS

__all__ = [
    "SplitPolicy",
    "BinTree",
    "BinForest",
    "NODE_BYTES",
    "GROUPED_MIN_ROWS",
    "merge_rank_forests",
]

#: Approximate C-struct footprint of one bin node, used for the Figure 5.4
#: memory-growth reproduction: 8 region floats + 3 band counts + total +
#: 4 speculative counts + axis/child pointers ~= 8*8 + 8*4 + 3*8 = 120.
NODE_BYTES = 120

#: Row groups smaller than this replay one event at a time inside
#: :meth:`BinTree.tally_rows`, from the node they have reached: the ~30
#: NumPy calls of a leaf's prefix scan cost more than the Python loop
#: they replace.  A measured crossover (flat from 8 to 32 on cornell,
#: computer-lab and generated-office events), not a knob: both sides of
#: it build the same tree.
GROUPED_MIN_ROWS = 16


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

    # -- grouped tallying ------------------------------------------------------

    def tally_rows(self, coords: np.ndarray, band: np.ndarray) -> None:
        """Record many departures at once; same tree as row-by-row :meth:`tally`.

        Args:
            coords: ``[NUM_AXES, m]`` float64 — ``s, t, theta, r^2`` of
                this tree's events in replay order, already range-checked
                (:func:`repro.core.vectorized.apply_events` checks whole
                blocks up front).
            band: ``[m]`` integer bands in ``[0, NUM_BANDS)``.

        Rows are routed down the tree as index groups: an interior node
        takes its whole group in one add and partitions it on the split
        plane; a leaf finds the first row after which it must split with
        one prefix scan (:meth:`_fill_leaf`).  Why that equals the
        one-at-a-time replay:

        * A leaf's tallies and its split decision read nothing but that
          leaf's own counts, so the rows of different leaves commute —
          except through ``SplitPolicy.max_leaves``, which reads the
          tree-wide leaf count.
        * So splits, and only splits, are carried out in replay order: a
          leaf that triggers parks ``(trigger row, leaf, axis, rows after
          it)`` on a heap, and the earliest trigger in the whole tree is
          popped and split first.  Daughters only ever trigger on later
          rows, so the pop order is the replay order and the
          ``max_leaves`` check sees the leaf count the scalar replay
          would have seen.
        """
        if band.size < GROUPED_MIN_ROWS:
            self._replay(self.root, coords, band)
            return
        pending: list = []
        self._route(self.root, np.arange(band.size), coords, band, pending)
        while pending:
            _, leaf, axis, rest = heapq.heappop(pending)
            if self._may_split(leaf):
                self._split(leaf, axis)
            if rest.size:
                self._route(leaf, rest, coords, band, pending)

    def _replay(self, node: BinNode, coords: np.ndarray, band: np.ndarray) -> None:
        """Tally every column of *coords* from *node*, one at a time."""
        for point, b in zip(coords.T.tolist(), band.tolist()):
            self._tally_from(node, BinCoords(*point), b)

    def _route(self, node: BinNode, rows: np.ndarray, coords: np.ndarray,
               band: np.ndarray, pending: list) -> None:
        """Send the ascending row group *rows* from *node* to its leaves.

        Without ``max_leaves`` no other group's split can matter to this
        one, so a group under :data:`GROUPED_MIN_ROWS` replays on the
        spot, splits included.
        """
        unordered = self.policy.max_leaves is None
        stack = [(node, rows)]
        while stack:
            node, rows = stack.pop()
            if unordered and rows.size < GROUPED_MIN_ROWS:
                self._replay(node, coords[:, rows], band[rows])
            elif node.is_leaf:
                self._fill_leaf(node, rows, coords, band, pending)
            else:
                node.total += rows.size
                add_band_counts(node.counts, band[rows])
                axis = node.split_axis
                low = coords[axis, rows] < node.mid(axis)
                for child, sub in (
                    (node.low_child, rows[low]), (node.high_child, rows[~low])
                ):
                    if sub.size:
                        stack.append((child, sub))

    def _fill_leaf(self, leaf: BinNode, rows: np.ndarray, coords: np.ndarray,
                   band: np.ndarray, pending: list) -> None:
        """Tally *rows* into *leaf* up to and including its first split trigger.

        The split itself is not carried out here: the trigger is pushed
        on *pending* with the rows that follow it, for :meth:`tally_rows`
        to accept in replay order.
        """
        policy = self.policy
        m = rows.size
        mids = np.array([leaf.mid(axis) for axis in range(NUM_AXES)])
        # low[a, k]: the speculative low count of axis a after row k.
        low = np.cumsum(coords[:, rows] < mids[:, None], axis=1)
        low += np.array(leaf.low_counts)[:, None]
        stop = m
        if leaf.total + m >= policy.min_count and self._may_split(leaf):
            # montecarlo.stats.split_statistic for every prefix at once,
            # in its expression order.  All rows on one side gives q == 0
            # and a positive numerator, so IEEE division yields the inf
            # the scalar returns; totals below 2 are below min_count.
            total = leaf.total + np.arange(1, m + 1)
            big = np.maximum(low, total - low)
            p = big / total
            q = 1.0 - p
            with np.errstate(divide="ignore"):
                stat = (big - total / 2.0) / np.sqrt(total * p * q)
            hit = (total >= policy.min_count) & (stat.max(axis=0) > policy.threshold)
            first = int(hit.argmax())
            if hit[first]:
                stop = first + 1
                # argmax takes the first maximum, as best_split_axis does.
                axis = int(stat[:, first].argmax())
                heapq.heappush(
                    pending, (int(rows[first]), leaf, axis, rows[stop:])
                )
        leaf.total += stop
        leaf.low_counts = low[:, stop - 1].tolist()
        add_band_counts(leaf.counts, band[rows[:stop]])

    # -- queries ---------------------------------------------------------------

    def leaf_groups(
        self, coords: np.ndarray
    ) -> Iterator[tuple[BinNode, np.ndarray]]:
        """Route the columns of *coords* to their leaves; touch nothing.

        The read-only shape of :meth:`_route`: *coords* is ``[NUM_AXES,
        m]`` (``s, t, theta, r^2`` per column) and each yield is ``(leaf,
        rows)`` — *leaf* is what :meth:`find_leaf` returns for every
        column in the ascending index group *rows*, by the same
        ``value < mid`` test.  Every column lands in exactly one group.
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
        return clone


def merge_rank_forests(forests, policy: Optional[SplitPolicy]) -> BinForest:
    """Union disjoint forest sections into one answer forest.

    Every sharded driver — distributed ranks, shared-memory threads, the
    process pool's ownership build — partitions tree keys between its
    workers, so the union is disjoint; counters are summed.  Raises on
    overlapping ownership (protocol violation).
    """
    merged = BinForest(policy)
    for forest in forests:
        for key, tree in forest.trees.items():
            if key in merged.trees:
                raise ValueError(f"unit {key} owned by more than one rank")
            merged.trees[key] = tree
        merged.total_tallies += forest.total_tallies
        for b in range(NUM_BANDS):
            merged.band_tallies[b] += forest.band_tallies[b]
            merged.band_emitted[b] += forest.band_emitted[b]
        merged.photons_emitted += forest.photons_emitted
    return merged
