"""Answer-file persistence (Figure 4.10: "the same answer file").

The simulation and viewing stages are separate programs in the paper's
architecture; the bin forest travels between them as an *answer file*.
We serialise to a self-describing JSON document: portable, diffable in
tests, and free of pickle's code-execution hazards.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Any

from .binning import NUM_AXES, BinNode
from .bintree import BinForest, BinTree, SplitPolicy
from .photon import NUM_BANDS

__all__ = ["save_answer", "load_answer", "forest_to_dict", "forest_from_dict"]

FORMAT_VERSION = 1


def _node_to_obj(node: BinNode) -> Any:
    if node.is_leaf:
        return {
            "c": list(node.counts),
            "n": node.total,
            "l": list(node.low_counts),
        }
    return {
        "x": node.split_axis,
        "c": list(node.counts),
        "n": node.total,
        "lo": _node_to_obj(node.low_child),
        "hi": _node_to_obj(node.high_child),
    }


def _int(value: Any, what: str) -> int:
    """*value* when it is an int (not a bool); else the file is malformed."""
    if type(value) is not int:
        raise ValueError(f"{what} must be an integer, got {value!r}")
    return value


def _ints(values: Any, size: int, what: str) -> list[int]:
    """*values* when they are a list of *size* ints; else malformed."""
    if not isinstance(values, list) or len(values) != size:
        raise ValueError(f"{what} must be a list of {size} integers, got {values!r}")
    return [_int(v, what) for v in values]


def _bounds(values: Any, what: str) -> tuple[float, float, float, float]:
    """A region corner: four real numbers."""
    if not isinstance(values, list) or len(values) != NUM_AXES or any(
        type(v) not in (int, float) for v in values
    ):
        raise ValueError(f"{what} must be a list of {NUM_AXES} numbers, got {values!r}")
    return tuple(float(v) for v in values)


def _object(value: Any, what: str) -> dict:
    """*value* when it is a JSON object; else malformed."""
    if not isinstance(value, dict):
        raise ValueError(f"{what} must be a JSON object, got {value!r}")
    return value


def _node_from_obj(
    obj: Any,
    lo: tuple[float, float, float, float],
    hi: tuple[float, float, float, float],
    depth: int,
    path: tuple[tuple[int, int], ...],
) -> BinNode:
    obj = _object(obj, "a bin node")
    node = BinNode(lo, hi, depth, path)
    node.counts = _ints(obj.get("c"), NUM_BANDS, "band counts")
    node.total = _int(obj.get("n"), "a node total")
    if "x" in obj:
        axis = _int(obj["x"], "a split axis")
        if not 0 <= axis < NUM_AXES:
            raise ValueError(f"split axis out of range: {axis}")
        mid = 0.5 * (lo[axis] + hi[axis])
        lo_hi = tuple(mid if i == axis else hi[i] for i in range(4))
        hi_lo = tuple(mid if i == axis else lo[i] for i in range(4))
        node.split_axis = axis
        node.low_child = _node_from_obj(
            obj.get("lo"), lo, lo_hi, depth + 1, path + ((axis, 0),)
        )
        node.high_child = _node_from_obj(
            obj.get("hi"), hi_lo, hi, depth + 1, path + ((axis, 1),)
        )
    else:
        node.low_counts = _ints(obj.get("l"), NUM_AXES, "low counts")
    return node


def _count_nodes(node: BinNode) -> tuple[int, int]:
    """(node_count, leaf_count) of a subtree."""
    if node.is_leaf:
        return 1, 1
    ln, ll = _count_nodes(node.low_child)  # type: ignore[arg-type]
    hn, hl = _count_nodes(node.high_child)  # type: ignore[arg-type]
    return ln + hn + 1, ll + hl


def forest_to_dict(forest: BinForest) -> dict:
    """Serialisable representation of a forest."""
    return {
        "format": FORMAT_VERSION,
        "policy": {
            "threshold": forest.policy.threshold,
            "min_count": forest.policy.min_count,
            "max_depth": forest.policy.max_depth,
            "max_leaves": forest.policy.max_leaves,
        },
        "photons_emitted": forest.photons_emitted,
        "band_emitted": list(forest.band_emitted),
        "total_tallies": forest.total_tallies,
        "band_tallies": list(forest.band_tallies),
        "trees": {
            str(key): {
                "lo": list(tree.root.lo),
                "hi": list(tree.root.hi),
                "root": _node_to_obj(tree.root),
            }
            for key, tree in forest.trees.items()
        },
    }


def forest_from_dict(data: Any) -> BinForest:
    """Reconstruct a forest from :func:`forest_to_dict` output.

    Raises:
        ValueError: on unknown format versions or malformed documents —
            a missing field, a value of the wrong type or length, an
            out-of-range split axis, or a policy :class:`SplitPolicy`
            refuses.
    """
    data = _object(data, "an answer file")
    version = data.get("format")
    if type(version) is not int or version != FORMAT_VERSION:
        raise ValueError(f"unsupported answer-file format: {version!r}")
    pol = _object(data.get("policy"), "policy")
    try:
        policy = SplitPolicy(
            threshold=pol["threshold"],
            min_count=pol["min_count"],
            max_depth=pol["max_depth"],
            max_leaves=pol["max_leaves"],
        )
    except (KeyError, TypeError) as exc:
        raise ValueError(f"malformed policy: {exc}") from None
    forest = BinForest(policy)
    forest.photons_emitted = _int(data.get("photons_emitted"), "photons_emitted")
    forest.band_emitted = _ints(data.get("band_emitted"), NUM_BANDS, "band_emitted")
    forest.total_tallies = _int(data.get("total_tallies"), "total_tallies")
    forest.band_tallies = _ints(data.get("band_tallies"), NUM_BANDS, "band_tallies")
    for key_str, entry in _object(data.get("trees"), "trees").items():
        try:
            key = int(key_str)
        except (TypeError, ValueError):
            raise ValueError(f"tree key must be an integer, got {key_str!r}") from None
        entry = _object(entry, f"tree {key_str}")
        root_lo = _bounds(entry.get("lo"), f"tree {key_str} lo")
        root_hi = _bounds(entry.get("hi"), f"tree {key_str} hi")
        tree = BinTree(key, policy, root_lo, root_hi)
        try:
            tree.root = _node_from_obj(entry.get("root"), root_lo, root_hi, 0, ())
            tree.node_count, tree.leaf_count = _count_nodes(tree.root)
        except RecursionError:
            raise ValueError(f"tree {key_str} nests too deeply") from None
        tree.splits = (tree.node_count - 1) // 2
        forest.trees[key] = tree
    return forest


def save_answer(forest: BinForest, path: str | Path) -> None:
    """Write the forest to *path* as JSON."""
    Path(path).write_text(json.dumps(forest_to_dict(forest)))


def load_answer(path: str | Path) -> BinForest:
    """Read a forest previously written by :func:`save_answer`.

    Raises:
        ValueError: when the file is not an answer file — not JSON, JSON
            nested past the parser's recursion limit, or a document
            :func:`forest_from_dict` refuses.
    """
    text = Path(path).read_text()
    try:
        data = json.loads(text)
    except RecursionError:
        raise ValueError(f"{path}: JSON nests too deeply") from None
    return forest_from_dict(data)
