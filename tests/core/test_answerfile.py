"""Answer-file persistence: exact round trips, format guards."""

import json

import pytest

from repro.core import (
    BinForest,
    RadianceField,
    SimulationConfig,
    SplitPolicy,
    forest_from_dict,
    forest_to_dict,
    load_answer,
    save_answer,
)
from repro.geometry import Vec3
from repro.paper.scalar import run_scalar


@pytest.fixture(scope="module")
def result(request):
    scene = request.getfixturevalue("mini_scene")
    cfg = SimulationConfig(n_photons=1500, policy=SplitPolicy(min_count=16))
    return run_scalar(scene, cfg)


class TestRoundTrip:
    def test_dict_roundtrip_exact(self, result):
        doc = forest_to_dict(result.forest)
        restored = forest_from_dict(doc)
        assert forest_to_dict(restored) == doc

    def test_file_roundtrip(self, result, tmp_path):
        path = tmp_path / "answer.json"
        save_answer(result.forest, path)
        loaded = load_answer(path)
        assert forest_to_dict(loaded) == forest_to_dict(result.forest)

    def test_counts_preserved(self, result, tmp_path):
        path = tmp_path / "answer.json"
        save_answer(result.forest, path)
        loaded = load_answer(path)
        assert loaded.total_tallies == result.forest.total_tallies
        assert loaded.leaf_count == result.forest.leaf_count
        assert loaded.node_count == result.forest.node_count
        assert loaded.photons_emitted == result.forest.photons_emitted
        loaded.check_invariants()

    def test_loaded_forest_renders_identically(self, mini_scene, result, tmp_path):
        """The figure 4.10 workflow: save, reload, view."""
        path = tmp_path / "answer.json"
        save_answer(result.forest, path)
        loaded = load_answer(path)
        f1 = RadianceField(mini_scene, result.forest)
        f2 = RadianceField(mini_scene, loaded)
        d = Vec3(0.1, 0.9, 0.2).normalized()
        assert f1.sample(0, 0.4, 0.6, d).rgb == f2.sample(0, 0.4, 0.6, d).rgb

    def test_loaded_tree_continues_tallying(self, result, tmp_path):
        """A reloaded forest is live: policies and paths intact."""
        path = tmp_path / "answer.json"
        save_answer(result.forest, path)
        loaded = load_answer(path)
        from repro.core.binning import BinCoords

        before = loaded.total_tallies
        loaded.tally(0, BinCoords(0.5, 0.5, 1.0, 0.5), band=0)
        assert loaded.total_tallies == before + 1
        loaded.check_invariants()


class TestFormatGuards:
    def test_unknown_version(self, result):
        doc = forest_to_dict(result.forest)
        doc["format"] = 999
        with pytest.raises(ValueError):
            forest_from_dict(doc)

    def test_json_serialisable(self, result):
        # Must not contain non-JSON types.
        json.dumps(forest_to_dict(result.forest))

    def test_policy_preserved(self, result):
        doc = forest_to_dict(result.forest)
        restored = forest_from_dict(doc)
        assert restored.policy == result.forest.policy


def _malformed(doc: dict, edit) -> dict:
    doc = json.loads(json.dumps(doc))
    edit(doc)
    return doc


def _first_tree(doc: dict) -> dict:
    return next(iter(doc["trees"].values()))


def _first_split(doc: dict) -> dict:
    """The root of the first tree that has split."""
    return next(
        entry["root"] for entry in doc["trees"].values() if "x" in entry["root"]
    )


class TestMalformedDocuments:
    """Every malformed shape is a ``ValueError`` naming what is wrong — the
    error ``repro view`` turns into a usage error — never a ``KeyError``
    or ``TypeError`` from deep inside the loader, and never a silently
    converted value."""

    @pytest.mark.parametrize("edit, named", [
        (lambda d: d.pop("policy"), "policy"),
        (lambda d: d["policy"].pop("max_depth"), "max_depth"),
        (lambda d: d["policy"].update(min_count="16"), "min_count"),
        (lambda d: d["policy"].update(min_count=2.5), "min_count"),
        (lambda d: d["policy"].update(max_leaves=1.5), "max_leaves"),
        (lambda d: d["policy"].update(threshold=True), "threshold"),
        (lambda d: d.update(policy=[3.0, 16]), "policy"),
        (lambda d: d.update(format=True), "format"),
        (lambda d: d.update(photons_emitted="1500"), "photons_emitted"),
        (lambda d: d.update(band_tallies=[1, 2]), "band_tallies"),
        (lambda d: d.update(trees=[]), "trees"),
        (lambda d: d["trees"].update({"0": "root"}), "tree 0"),
        (lambda d: d["trees"].update({"x7": _first_tree(d)}), "tree key"),
        (lambda d: _first_tree(d).update(lo=[0.0, 0.0]), "lo"),
        (lambda d: _first_tree(d).update(hi=[1, 1, "6.28", 1]), "hi"),
        (lambda d: _first_tree(d).pop("root"), "bin node"),
        (lambda d: _first_tree(d)["root"].update(c=[1, 2]), "band counts"),
        (lambda d: _first_tree(d)["root"].update(n=12.0), "node total"),
        (lambda d: _first_split(d).update(x=-1), "split axis"),
        (lambda d: _first_split(d).update(x=4), "split axis"),
        (lambda d: _first_split(d).update(lo=7), "bin node"),
    ], ids=[
        "no-policy", "no-max-depth", "min-count-string", "min-count-float",
        "max-leaves-float", "threshold-bool", "policy-list", "format-bool",
        "photons-string", "band-tallies-short", "trees-list", "tree-string",
        "tree-key", "lo-short", "hi-string", "no-root", "counts-short",
        "total-float", "axis-negative", "axis-4", "child-int",
    ])
    def test_is_a_value_error(self, result, edit, named):
        doc = _malformed(forest_to_dict(result.forest), edit)
        with pytest.raises(ValueError, match=named):
            forest_from_dict(doc)

    @pytest.mark.parametrize("doc", [[], "answer", None], ids=["list", "str", "null"])
    def test_a_document_that_is_not_an_object(self, doc):
        with pytest.raises(ValueError, match="answer file"):
            forest_from_dict(doc)

    def test_json_nested_past_the_parser_limit(self, tmp_path):
        path = tmp_path / "deep.json"
        path.write_text("[" * 100_000 + "]" * 100_000)
        with pytest.raises(ValueError, match="nests too deeply"):
            load_answer(path)

    def test_a_tree_nested_past_the_recursion_limit(self):
        forest = BinForest(SplitPolicy())
        doc = _malformed(forest_to_dict(forest), lambda d: None)
        node = {"c": [0, 0, 0], "n": 0, "l": [0, 0, 0, 0]}
        for _ in range(5_000):
            node = {"x": 0, "c": [0, 0, 0], "n": 0, "lo": node, "hi": node}
        doc["trees"]["0"] = {"lo": [0, 0, 0, 0], "hi": [1, 1, 6, 1], "root": node}
        with pytest.raises(ValueError, match="nests too deeply"):
            forest_from_dict(doc)


class TestPolicyTypes:
    @pytest.mark.parametrize("field, value", [
        ("min_count", 2.5), ("min_count", True), ("min_count", "16"),
        ("max_depth", 3.0), ("max_depth", False), ("max_leaves", 1.5),
        ("max_leaves", True), ("threshold", True), ("threshold", "3"),
    ])
    def test_wrong_types_are_refused_not_converted(self, field, value):
        with pytest.raises(TypeError, match=field):
            SplitPolicy(**{field: value})

    def test_ints_and_reals_are_accepted(self):
        policy = SplitPolicy(threshold=3, min_count=2, max_depth=0, max_leaves=1)
        assert policy.threshold == 3
        assert SplitPolicy(threshold=2.5).threshold == 2.5
