"""Bin trees and forests: policies, invariants, path lookup, memory."""

import copy
import json

import pytest
from hypothesis import given, settings, strategies as st

from repro.core import SimulationConfig, forest_to_dict
from repro.core.binning import TWO_PI, BinCoords, BinNode
from repro.core.bintree import NODE_BYTES, BinForest, BinTree, SplitPolicy
from repro.core.vectorized import VectorEngine
from repro.rng import Lcg48

unit = st.floats(min_value=0.0, max_value=0.999999, allow_nan=False)
coords_strategy = st.builds(
    BinCoords,
    s=unit,
    t=unit,
    theta=st.floats(min_value=0.0, max_value=TWO_PI - 1e-9, allow_nan=False),
    r_squared=unit,
)


def skewed_coords(rng: Lcg48) -> BinCoords:
    """Concentrated distribution that forces splits quickly."""
    return BinCoords(
        rng.uniform() * 0.25,
        rng.uniform() * 0.25,
        rng.uniform() * 0.5,
        rng.uniform() * 0.25,
    )


class TestPolicy:
    def test_validation(self):
        with pytest.raises(ValueError):
            SplitPolicy(threshold=0.0)
        with pytest.raises(ValueError):
            SplitPolicy(min_count=1)
        with pytest.raises(ValueError):
            SplitPolicy(max_depth=-1)
        with pytest.raises(ValueError):
            SplitPolicy(max_leaves=0)

    def test_defaults_match_paper(self):
        p = SplitPolicy()
        assert p.threshold == 3.0


class TestBinTree:
    def test_root_total_equals_leaf_sum(self):
        tree = BinTree(0, SplitPolicy(min_count=8))
        rng = Lcg48(1)
        for _ in range(2000):
            tree.tally(skewed_coords(rng), band=rng.randint(3))
        assert tree.leaf_total_sum() == tree.root.total == 2000
        assert tree.leaf_count >= 2  # skewed data must have split

    def test_node_count_tracks_splits(self):
        tree = BinTree(0, SplitPolicy(min_count=8))
        rng = Lcg48(2)
        for _ in range(2000):
            tree.tally(skewed_coords(rng), band=0)
        assert tree.node_count == 1 + 2 * tree.splits
        assert tree.leaf_count == 1 + tree.splits

    def test_max_depth_respected(self):
        tree = BinTree(0, SplitPolicy(min_count=4, max_depth=3))
        rng = Lcg48(3)
        for _ in range(5000):
            tree.tally(skewed_coords(rng), band=0)
        assert tree.max_depth_reached() <= 3

    def test_max_leaves_respected(self):
        tree = BinTree(0, SplitPolicy(min_count=4, max_leaves=5))
        rng = Lcg48(4)
        for _ in range(5000):
            tree.tally(skewed_coords(rng), band=0)
        assert tree.leaf_count <= 5

    def test_memory_accounting(self):
        tree = BinTree(0, SplitPolicy())
        assert tree.memory_bytes() == NODE_BYTES
        rng = Lcg48(5)
        for _ in range(3000):
            tree.tally(skewed_coords(rng), band=0)
        assert tree.memory_bytes() == tree.node_count * NODE_BYTES

    def test_node_by_path(self):
        tree = BinTree(0, SplitPolicy(min_count=8))
        rng = Lcg48(6)
        for _ in range(3000):
            tree.tally(skewed_coords(rng), band=0)
        for leaf in tree.leaves():
            assert tree.node_by_path(leaf.path) is leaf

    def test_node_by_path_missing(self):
        tree = BinTree(0, SplitPolicy())
        with pytest.raises(KeyError):
            tree.node_by_path(((0, 0),))

    def test_custom_root_domain(self):
        tree = BinTree(0, SplitPolicy(), (0.0, 0.0, 0.0, 0.0), (0.5, 0.5, TWO_PI, 1.0))
        tree.tally(BinCoords(0.25, 0.25, 1.0, 0.5), band=1)
        assert tree.root.total == 1
        assert tree.root.hi[0] == 0.5

    @given(st.lists(coords_strategy, min_size=1, max_size=200))
    @settings(max_examples=40, deadline=None)
    def test_find_leaf_contains(self, samples):
        tree = BinTree(0, SplitPolicy(min_count=8))
        for c in samples:
            tree.tally(c, band=0)
        for c in samples:
            leaf = tree.find_leaf(c)
            assert leaf.contains(c)


class TestBinForest:
    def test_lazy_tree_creation(self):
        forest = BinForest()
        assert forest.tree_count == 0
        forest.tally(3, BinCoords(0.5, 0.5, 1.0, 0.5), band=0)
        assert forest.tree_count == 1
        assert 3 in forest.trees

    def test_counters(self):
        forest = BinForest()
        rng = Lcg48(7)
        for i in range(300):
            forest.tally(i % 5, skewed_coords(rng), band=i % 3)
        assert forest.total_tallies == 300
        assert sum(forest.band_tallies) == 300
        forest.check_invariants()

    def test_leaf_count_aggregates(self):
        forest = BinForest(SplitPolicy(min_count=8))
        rng = Lcg48(8)
        for _ in range(3000):
            forest.tally(0, skewed_coords(rng), band=0)
        assert forest.leaf_count == forest.trees[0].leaf_count

    def test_invariant_violation_detected(self):
        forest = BinForest()
        forest.tally(0, BinCoords(0.5, 0.5, 1.0, 0.5), band=0)
        forest.total_tallies += 1  # corrupt
        with pytest.raises(AssertionError):
            forest.check_invariants()

    def test_tallies_per_patch(self):
        forest = BinForest()
        rng = Lcg48(9)
        for i in range(100):
            forest.tally(i % 2, skewed_coords(rng), band=0)
        per = forest.tallies_per_patch()
        assert per[0] + per[1] == 100

    def test_memory_bytes_sum(self):
        forest = BinForest()
        rng = Lcg48(10)
        for i in range(500):
            forest.tally(i % 3, skewed_coords(rng), band=0)
        assert forest.memory_bytes() == sum(
            t.memory_bytes() for t in forest.trees.values()
        )


def _tallied_forest() -> BinForest:
    """Split trees under keys created out of sorted order."""
    forest = BinForest(SplitPolicy(min_count=8))
    rng = Lcg48(11)
    for i in range(3000):
        forest.tally((7, 2, 5, 0)[i % 4], skewed_coords(rng), band=rng.randint(3))
    forest.photons_emitted = 3000
    forest.band_emitted = [1000, 1000, 1000]
    return forest


def _forest_bytes(forest: BinForest) -> str:
    return json.dumps(forest_to_dict(forest), sort_keys=True)


def _nodes(tree: BinTree):
    stack = [tree.root]
    while stack:
        node = stack.pop()
        yield node
        if not node.is_leaf:
            stack += [node.low_child, node.high_child]


class TestForestCopy:
    """``copy.deepcopy`` of a forest goes through ``BinForest.__deepcopy__``."""

    def test_copy_serialises_to_the_same_bytes_in_the_same_order(self):
        forest = _tallied_forest()
        clone = copy.deepcopy(forest)
        assert clone is not forest
        assert _forest_bytes(clone) == _forest_bytes(forest)
        assert list(clone.trees) == list(forest.trees) == [7, 2, 5, 0]
        clone.check_invariants()

    def test_mutating_the_copy_leaves_the_original(self):
        forest = _tallied_forest()
        before = _forest_bytes(forest)
        clone = copy.deepcopy(forest)
        rng = Lcg48(12)
        for i in range(2000):
            clone.tally((2, 9)[i % 2], skewed_coords(rng), band=rng.randint(3))
        clone.band_emitted[0] += 5
        clone.photons_emitted += 5
        assert _forest_bytes(forest) == before
        assert _forest_bytes(clone) != before
        forest.check_invariants()

    def test_every_slot_and_attribute_is_carried(self):
        """A new slot or forest attribute must be taught to the copy."""
        forest = _tallied_forest()
        clone = copy.deepcopy(forest)
        assert vars(clone).keys() == vars(forest).keys()
        assert clone.band_tallies is not forest.band_tallies
        assert clone.band_emitted is not forest.band_emitted
        for key, tree in forest.trees.items():
            twin = clone.trees[key]
            assert twin is not tree
            for name in BinTree.__slots__:
                if name != "root":
                    assert getattr(twin, name) == getattr(tree, name), name
            pairs = list(zip(_nodes(tree), _nodes(twin)))
            assert len(pairs) == tree.node_count
            for node, copied in pairs:
                assert copied is not node
                for name in BinNode.__slots__:
                    value = getattr(copied, name)  # every slot is set
                    if isinstance(value, list):
                        assert value == getattr(node, name)
                        assert value is not getattr(node, name), name
                    elif not isinstance(value, BinNode):
                        assert value == getattr(node, name), name

    def test_simulation_result_deepcopy(self, cornell):
        result = VectorEngine(cornell).run(SimulationConfig(
            n_photons=400, seed=3))
        clone = copy.deepcopy(result)
        assert clone.forest is not result.forest
        assert _forest_bytes(clone.forest) == _forest_bytes(result.forest)
        assert clone.config == result.config
