"""One-pass bin-forest tally == the row-by-row oracle, node for node.

:func:`repro.core.vectorized.apply_events` replays a whole block across
every tree at once (:meth:`repro.core.bintree.BinForest.tally_groups`:
one add for leaves that cannot split, one segmented prefix scan per
round for the rest); the scalar :meth:`BinForest.tally` loop it replaced
stays as the reference.  The two must build the *same* forest — every
node's path, region, totals, band and speculative counts, every tree
counter, the tree-dict order and the forest-wide counters — for any
split policy, any chunking of the event stream (the streaming / top-up
contract), forests already filled by earlier blocks, non-default root
domains and coordinates sitting exactly on split planes and domain
edges.
"""

from __future__ import annotations

import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.binning import TWO_PI, BinCoords, BinNode
from repro.core.bintree import BinForest, BinTree, SplitPolicy
from repro.core.photon import NUM_BANDS
from repro.core.simulator import SimulationConfig
from repro.core.vectorized import (
    EVENT_FIELDS,
    PHOTONS_IN_FLIGHT,
    EventBatch,
    VectorEngine,
    apply_events,
    tally_block,
)


def scalar_replay(forest: BinForest, events: EventBatch) -> None:
    """The oracle: one :meth:`BinForest.tally` per row, in row order."""
    for patch, s, t, theta, r2, band in zip(
        events.patch.tolist(), events.s.tolist(), events.t.tolist(),
        events.theta.tolist(), events.r2.tolist(), events.band.tolist(),
    ):
        forest.tally(patch, BinCoords(s, t, theta, r2), band)


def snapshot(forest: BinForest):
    """Everything the two replays must agree on, in comparable form."""
    trees = []
    for key, tree in forest.trees.items():  # dict order is part of it
        nodes = []
        stack = [tree.root]
        while stack:
            node = stack.pop()
            nodes.append((
                node.path, node.total, list(node.counts),
                list(node.low_counts), node.split_axis, node.lo, node.hi,
            ))
            if not node.is_leaf:
                stack.append(node.high_child)
                stack.append(node.low_child)
        trees.append((
            key, tree.patch_id, tree.leaf_count, tree.node_count,
            tree.splits, nodes,
        ))
    return (
        trees, forest.total_tallies, list(forest.band_tallies),
        forest.photons_emitted, list(forest.band_emitted),
    )


def make_events(patch, s, t, theta, r2, band) -> EventBatch:
    n = len(patch)
    return EventBatch(
        gidx=np.arange(n, dtype=np.int64),
        seq=np.zeros(n, dtype=np.int64),
        patch=np.array(patch, dtype=np.int64),
        s=np.array(s, dtype=np.float64),
        t=np.array(t, dtype=np.float64),
        theta=np.array(theta, dtype=np.float64),
        r2=np.array(r2, dtype=np.float64),
        band=np.array(band, dtype=np.int64),
    )


def assert_grouped_equals_scalar(policy, events, cuts=(), prepare=None) -> BinForest:
    """Replay *events* both ways, the grouped side chunked at *cuts*.

    *prepare*, when given, sets both forests up identically first (trees
    with their own root domains, an earlier block replayed row by row).
    Returns the grouped forest.
    """
    oracle = BinForest(policy)
    grouped = BinForest(policy)
    if prepare is not None:
        prepare(oracle)
        prepare(grouped)
        assert snapshot(grouped) == snapshot(oracle)
    scalar_replay(oracle, events)
    bounds = [0, *sorted(cuts), len(events)]
    for a, b in zip(bounds, bounds[1:]):
        apply_events(grouped, events.take(np.arange(a, b)))
    assert snapshot(grouped) == snapshot(oracle)
    grouped.check_invariants()
    return grouped


# Values that sit exactly on split planes (dyadic points of the unit
# interval; the tree halves regions, so these are its ``mid`` values) and
# on the closed ends of the domain.
_DYADIC = [k / 16 for k in range(17)]
unit_coord = st.one_of(
    st.sampled_from(_DYADIC),
    st.floats(min_value=0.0, max_value=1.0, allow_nan=False),
    # A concentrated population: what makes leaves split.
    st.floats(min_value=0.0, max_value=0.2, allow_nan=False),
)
theta_coord = st.one_of(
    st.sampled_from([TWO_PI * d for d in _DYADIC]),  # includes 2 pi itself
    st.floats(min_value=0.0, max_value=TWO_PI, allow_nan=False),
    st.floats(min_value=0.0, max_value=1.0, allow_nan=False),
)
event_rows = st.lists(
    st.tuples(
        st.integers(min_value=0, max_value=3),  # few trees: real groups
        unit_coord, unit_coord, theta_coord, unit_coord,
        st.integers(min_value=0, max_value=NUM_BANDS - 1),
    ),
    min_size=0, max_size=400,
)
policies = st.builds(
    SplitPolicy,
    threshold=st.floats(min_value=0.5, max_value=4.0, allow_nan=False),
    min_count=st.integers(min_value=2, max_value=32),
    max_depth=st.integers(min_value=0, max_value=6),
    max_leaves=st.one_of(st.none(), st.integers(min_value=1, max_value=12)),
)


class TestOracleProperty:
    @settings(max_examples=150, deadline=None)
    @given(rows=event_rows, policy=policies, data=st.data())
    def test_grouped_equals_row_by_row(self, rows, policy, data):
        events = make_events(*zip(*rows)) if rows else EventBatch.empty()
        cuts = data.draw(st.lists(
            st.integers(min_value=0, max_value=len(rows)), max_size=4,
        ))
        assert_grouped_equals_scalar(policy, events, cuts)

    @settings(max_examples=40, deadline=None)
    @given(
        rows=st.lists(
            st.tuples(unit_coord, unit_coord, theta_coord, unit_coord),
            min_size=16, max_size=300,
        ),
        max_leaves=st.integers(min_value=2, max_value=12),
    )
    def test_leaf_budget_is_spent_in_row_order(self, rows, max_leaves):
        """One busy tree under ``max_leaves`` with an eager policy: many
        leaves trigger in the same block and the budget runs out inside
        it, so which of them may split is decided by row order alone."""
        policy = SplitPolicy(threshold=0.5, min_count=2, max_leaves=max_leaves)
        s, t, theta, r2 = zip(*rows)
        events = make_events([7] * len(rows), s, t, theta, r2, [0] * len(rows))
        assert_grouped_equals_scalar(policy, events)


#: Root domains other than the full patch domain (ownership-unit style
#: sub-regions): every leaf's split planes come from its own bounds.
_DOMAINS = [
    ((0.0, 0.0, 0.0, 0.0), (1.0, 1.0, TWO_PI, 1.0)),
    ((0.25, 0.0, 0.0, 0.5), (0.75, 0.5, math.pi, 1.0)),
    ((0.0, 0.5, math.pi, 0.0), (0.5, 1.0, TWO_PI, 0.25)),
]
small_policies = st.builds(
    SplitPolicy,
    threshold=st.floats(min_value=0.5, max_value=3.0, allow_nan=False),
    min_count=st.integers(min_value=2, max_value=4),
    max_depth=st.integers(min_value=0, max_value=4),
    max_leaves=st.one_of(st.none(), st.integers(min_value=1, max_value=3)),
)


def _point(data, domain):
    """A coordinate tuple inside *domain*, often on a split plane."""
    lo, hi = domain
    return tuple(
        data.draw(st.one_of(
            st.sampled_from([a + (b - a) * d for d in (0.0, 0.25, 0.5, 1.0)]),
            st.floats(min_value=a, max_value=a + (b - a) * 0.2),
            st.floats(min_value=a, max_value=b),
        ))
        for a, b in zip(lo, hi)
    )


class TestManyTrees:
    @settings(max_examples=50, deadline=None)
    @given(policy=small_policies, data=st.data())
    def test_one_pass_equals_row_by_row(self, policy, data):
        """Up to 64 trees in one block, each with ``min_count - 1``,
        ``min_count`` or ``min_count + 1`` rows (plus a few stragglers),
        over forests an earlier block already filled — some with split
        roots — and trees rooted on non-default domains."""
        n_trees = data.draw(st.integers(min_value=1, max_value=64))
        domains = [data.draw(st.sampled_from(_DOMAINS)) for _ in range(n_trees)]
        prefill = []
        for key in data.draw(st.lists(
            st.integers(min_value=0, max_value=n_trees - 1), max_size=8,
            unique=True,
        )):
            # A tight cluster: enough rows on one side to split the root.
            size = data.draw(st.integers(min_value=0, max_value=12))
            point = _point(data, domains[key])
            prefill += [(key, point, k % NUM_BANDS) for k in range(size)]
        rows = []
        for key in range(n_trees):
            size = policy.min_count + data.draw(st.sampled_from([-1, 0, 1]))
            size += data.draw(st.integers(min_value=0, max_value=2))
            rows += [
                (key, _point(data, domains[key]),
                 data.draw(st.integers(min_value=0, max_value=NUM_BANDS - 1)))
                for _ in range(size)
            ]
        rows = data.draw(st.permutations(rows))
        # Keys scattered over a wide id range, so patch order is not the
        # first-tally order the block must create its new trees in.
        ids = data.draw(st.lists(
            st.integers(min_value=0, max_value=10**6), min_size=n_trees,
            max_size=n_trees, unique=True,
        ))
        # Trees with their own domain or an earlier block exist already;
        # the others are created by this block.
        existing = sorted(
            {key for key, _, _ in prefill}
            | {key for key in range(n_trees) if domains[key] != _DOMAINS[0]}
        )

        def prepare(forest: BinForest) -> None:
            for key in existing:
                forest.tree(ids[key], *domains[key])
            for key, point, band in prefill:
                forest.tally(ids[key], BinCoords(*point), band)

        events = make_events(
            [ids[key] for key, _, _ in rows],
            *zip(*[point for _, point, _ in rows]) if rows else ([],) * 4,
            [band for _, _, band in rows],
        ) if rows else EventBatch.empty()
        cuts = data.draw(st.lists(
            st.integers(min_value=0, max_value=len(rows)), max_size=2,
        ))
        assert_grouped_equals_scalar(policy, events, cuts, prepare)


class TestExactnessEdges:
    """The two rules a forest-wide pass most easily gets wrong."""

    def test_trigger_on_a_leafs_last_row_still_splits(self):
        """The fourth row of a ``min_count=4`` leaf triggers, and nothing
        follows it: the split must happen with an empty remainder — in a
        block where another tree keeps the rounds going."""
        policy = SplitPolicy(threshold=1.0, min_count=4)
        patch = [5, 9, 5, 9, 5, 9, 5, 9, 9, 9]
        s = [0.1, 0.2, 0.1, 0.7, 0.1, 0.2, 0.1, 0.7, 0.2, 0.7]
        events = make_events(
            patch, s, [0.3] * 10, [1.0] * 10, [0.4] * 10, [0] * 10,
        )
        forest = assert_grouped_equals_scalar(policy, events)
        tree = forest.trees[5]
        assert tree.leaf_count == 2 and tree.root.split_axis is not None
        assert tree.root.total == 4

    def test_refused_trigger_returns_its_rows_to_the_same_leaf(self):
        """Two leaves of a ``max_leaves=3`` tree both trigger in one block;
        the earlier split spends the budget, so the later trigger is
        refused at its turn and the rows after it land in the same leaf."""
        policy = SplitPolicy(threshold=1.0, min_count=4, max_leaves=3)

        def prepare(forest: BinForest) -> None:
            tree = forest.tree(3)
            tree._split(tree.root, 0)  # empty halves at s = 0.5

        # Low half (s < 0.5) triggers on its 4th row (block row 6), the
        # high half on its 4th (block row 7) and keeps 3 rows after it.
        s = [0.1, 0.6, 0.1, 0.6, 0.1, 0.6, 0.1, 0.6, 0.6, 0.6, 0.6]
        t = [0.1] * 11
        events = make_events([3] * 11, s, t, [1.0] * 11, [0.4] * 11, [1] * 11)
        forest = assert_grouped_equals_scalar(policy, events, prepare=prepare)
        tree = forest.trees[3]
        low, high = tree.root.low_child, tree.root.high_child
        assert tree.leaf_count == 3
        assert not low.is_leaf and high.is_leaf
        assert high.total == 7 and low.total == 4

    # Eight rows into one ``min_count=8`` leaf, three after them: ``s``
    # and ``r2`` split 4/4 unless a case says otherwise, ``t`` puts 6 of
    # the 8 below its mid, ``theta`` 6 of the 8 above it (4.0 > pi).
    _S = [0.1, 0.9] * 4 + [0.2, 0.7, 0.3]
    _T = [0.1, 0.1, 0.1, 0.9, 0.1, 0.1, 0.9, 0.1, 0.1, 0.6, 0.3]
    _THETA = [4.0, 4.0, 1.0, 4.0, 4.0, 1.0, 4.0, 4.0, 1.0, 5.0, 2.0]
    _R2 = [0.1, 0.1, 0.9, 0.9, 0.1, 0.9, 0.1, 0.9, 0.4, 0.8, 0.2]

    def _split_axis(self, theta, r2) -> int:
        """The axis the eighth row splits on, checked against the oracle."""
        policy = SplitPolicy(threshold=1.0, min_count=8)
        events = make_events(
            [4] * 11, self._S, self._T, theta, r2, [k % NUM_BANDS for k in range(11)],
        )
        root = assert_grouped_equals_scalar(policy, events).trees[4].root
        assert root.total == 11 and not root.is_leaf
        assert root.low_child.total + root.high_child.total == 11
        return root.split_axis

    def test_a_tie_on_the_larger_count_splits_the_lower_axis(self):
        """At the trigger row ``t`` has 6 rows below its mid and ``theta``
        6 above: the largest daughter count ties, and ``t`` (axis 1)
        splits, as ``best_split_axis``'s first maximum does."""
        assert self._split_axis(self._THETA, self._R2) == 1

    def test_a_later_axis_with_a_larger_count_splits(self):
        """``r2`` puts 7 of the 8 rows below its mid: its count beats
        ``t``'s 6, so axis 3 splits although axis 1 also passes the
        threshold on its own."""
        theta = [1.0, 4.0] * 4 + self._THETA[8:]
        r2 = [0.1] * 7 + [0.9] + self._R2[8:]
        assert self._split_axis(theta, r2) == 3


SCENE_FIXTURES = ("cornell", "lab_small", "office64")
MIN_COUNT = SplitPolicy().min_count


class TestTracedEvents:
    """Real events off the vector engine, one case per scene fixture."""

    @staticmethod
    def traced(scene, photons: int) -> EventBatch:
        events, _ = VectorEngine(scene).trace_range(0xC0FFEE, 0, photons)
        return events.sorted_canonical()

    @pytest.mark.parametrize("scene_fixture", SCENE_FIXTURES)
    @pytest.mark.parametrize("policy", [
        SplitPolicy(),
        SplitPolicy(threshold=0.5, min_count=2),
        SplitPolicy(threshold=1.0, min_count=4, max_depth=5, max_leaves=6),
    ], ids=["default", "split-heavy", "capped"])
    def test_one_block_and_chunked(self, request, scene_fixture, policy):
        events = self.traced(request.getfixturevalue(scene_fixture), 1500)
        n = len(events)
        assert_grouped_equals_scalar(policy, events)
        assert_grouped_equals_scalar(policy, events, cuts=(n // 7, n // 2, n - 3))

    @pytest.mark.parametrize("scene_fixture", SCENE_FIXTURES)
    @pytest.mark.parametrize(
        "size", [MIN_COUNT - 1, MIN_COUNT, MIN_COUNT + 1],
    )
    def test_small_group_fallback_boundary(self, request, scene_fixture, size):
        """Groups one under, at and one over the default ``min_count``
        — the edge between a leaf's one add and its prefix scan — first
        into an empty tree and then on top of what that left."""
        events = self.traced(request.getfixturevalue(scene_fixture), 1500)
        patches, counts = np.unique(events.patch, return_counts=True)
        busiest = np.flatnonzero(events.patch == patches[counts.argmax()])
        assert busiest.size >= 2 * size
        for policy in (SplitPolicy(), SplitPolicy(threshold=0.5, min_count=2)):
            assert_grouped_equals_scalar(
                policy, events.take(busiest[: 2 * size]), cuts=(size,)
            )

    def test_tally_block_books_emissions_once(self, cornell):
        events, _ = VectorEngine(cornell).trace_range(3, 0, 300)
        forest = BinForest(SplitPolicy())
        tally_block(forest, events, 300)
        counts = forest.band_emitted
        assert forest.photons_emitted == 300 == sum(counts)
        assert all(isinstance(c, int) for c in counts)
        assert forest.total_tallies == len(events)
        forest.check_invariants()


class TestTransientMemory:
    def test_a_block_tally_peaks_under_three_times_its_events(self, cornell):
        """The scan keeps one ``[NUM_AXES, rows]`` integer array and
        per-row vectors, never per-axis float arrays: one engine block of
        cornell events (about 7,700 rows) peaks under 3x the block's own
        bytes."""
        seed = SimulationConfig(n_photons=1).seed
        block, _ = VectorEngine(cornell).trace_range(seed, 0, PHOTONS_IN_FLIGHT)
        events_bytes = sum(getattr(block, name).nbytes for name, _ in EVENT_FIELDS)
        forest = BinForest(SplitPolicy())
        tracing = tracemalloc.is_tracing()
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
            tally_block(forest, block, PHOTONS_IN_FLIGHT)
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            if not tracing:
                tracemalloc.stop()
        assert forest.total_tallies == len(block) > 7_000
        assert peak <= 3 * events_bytes, (peak, events_bytes)


def _filled_forest(cornell) -> tuple[BinForest, EventBatch]:
    events, _ = VectorEngine(cornell).trace_range(11, 0, 400)
    events = events.sorted_canonical()
    forest = BinForest(SplitPolicy(min_count=4, threshold=1.0))
    apply_events(forest, events)
    return forest, events


def _with(events: EventBatch, row: int, **values) -> EventBatch:
    """A copy of *events* with one row's columns overwritten."""
    out = events.take(np.arange(len(events)))
    for name, value in values.items():
        getattr(out, name)[row] = value
    return out


class TestValidation:
    """A bad block is refused whole, with the scalar replay's error."""

    @pytest.mark.parametrize("column, value, message", [
        ("s", 1.5, "s out of range: 1.5"),
        ("s", -0.25, "s out of range: -0.25"),
        ("t", math.nan, "t out of range: nan"),
        ("theta", 7.0, "theta out of range: 7.0"),
        ("theta", TWO_PI + 1e-12, "theta out of range"),
        ("r2", 1.0000001, "r_squared out of range: 1.0000001"),
        ("band", -1, "band out of range: -1"),
        ("band", NUM_BANDS, f"band out of range: {NUM_BANDS}"),
    ])
    def test_bad_row_raises_and_leaves_the_forest_untouched(
        self, cornell, column, value, message
    ):
        forest, events = _filled_forest(cornell)
        before = snapshot(forest)
        bad = _with(events, len(events) // 2, **{column: value})
        with pytest.raises(ValueError, match=message):
            apply_events(forest, bad)
        assert snapshot(forest) == before
        with pytest.raises(ValueError, match=message):
            tally_block(forest, bad, 400)
        assert snapshot(forest) == before
        with pytest.raises(ValueError, match=message):  # the oracle's error
            scalar_replay(BinForest(), bad)

    @pytest.mark.parametrize("where", [0, 0.5, -1])
    def test_bad_row_in_a_many_tree_block_leaves_the_forest_untouched(
        self, office64, where
    ):
        events, _ = VectorEngine(office64).trace_range(5, 0, 600)
        events = events.sorted_canonical()
        forest = BinForest(SplitPolicy(min_count=4, threshold=1.0))
        apply_events(forest, events.take(np.arange(len(events) // 2)))
        before = snapshot(forest)
        row = int(where * (len(events) - 1)) if where != -1 else len(events) - 1
        bad = _with(events, row, theta=-1.0)
        assert np.unique(bad.patch).size > 64
        with pytest.raises(ValueError, match="theta out of range: -1.0"):
            apply_events(forest, bad)
        assert snapshot(forest) == before

    def test_error_names_the_first_offending_row_and_field(self, cornell):
        _, events = _filled_forest(cornell)
        bad = _with(events, 30, band=-1)
        bad = _with(bad, 20, r2=2.0, t=3.0)
        bad = _with(bad, 25, s=9.0)
        with pytest.raises(ValueError, match="t out of range: 3.0"):
            apply_events(BinForest(), bad)

    def test_edges_of_the_domain_are_accepted(self):
        events = make_events(
            [0] * 3, [0.0, 1.0, 1.0], [1.0, 0.0, 1.0],
            [0.0, TWO_PI, TWO_PI], [1.0, 0.0, 1.0], [0, 1, 2],
        )
        assert_grouped_equals_scalar(SplitPolicy(), events)


class TestBandRange:
    """``counts[-1]`` is the last band to Python; it is an error here."""

    @pytest.mark.parametrize("band", [-1, NUM_BANDS])
    def test_node_tally_rejects(self, band):
        node = BinNode((0.0,) * 4, (1.0, 1.0, TWO_PI, 1.0))
        with pytest.raises(ValueError, match=f"band out of range: {band}"):
            node.tally(BinCoords(0.5, 0.5, 1.0, 0.5), band)
        assert node.total == 0 and node.counts == [0] * NUM_BANDS

    @pytest.mark.parametrize("band", [-1, NUM_BANDS])
    def test_tree_tally_rejects_before_touching_interior_nodes(self, band):
        tree = BinTree(0, SplitPolicy(threshold=0.5, min_count=2))
        for k in range(40):
            tree.tally(BinCoords(0.1 * (k % 3), 0.2, 0.3, 0.05 * (k % 5)), 0)
        assert not tree.root.is_leaf
        total, counts = tree.root.total, list(tree.root.counts)
        with pytest.raises(ValueError, match=f"band out of range: {band}"):
            tree.tally(BinCoords(0.1, 0.2, 0.3, 0.1), band)
        assert (tree.root.total, tree.root.counts) == (total, counts)
        assert tree.leaf_total_sum() == tree.root.total
