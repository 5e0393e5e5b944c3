"""Answer-file persistence: exact round trips, format guards."""

import json

import pytest

from repro.core import (
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
