"""The scalar oracle: determinism, accounting identities, batching."""

import json

import pytest

from repro.api import RenderSession, SimulateRequest
from repro.core import SimulationConfig, SplitPolicy, forest_to_dict
from repro.paper.scalar import run_scalar, run_scalar_batches, trace_photon
from repro.rng import Lcg48


class TestTracePhoton:
    def test_first_event_is_emission(self, mini_scene):
        rng = Lcg48(1)
        events, stats = trace_photon(mini_scene, rng)
        assert stats.photons == 1
        lum = mini_scene.patch_by_id(events[0].patch_id)
        assert lum.material.is_emitter

    def test_event_count_identity(self, mini_scene):
        """events = 1 emission + reflections."""
        rng = Lcg48(2)
        for _ in range(200):
            events, stats = trace_photon(mini_scene, rng)
            assert len(events) == 1 + stats.reflections

    def test_termination_accounting(self, mini_scene):
        rng = Lcg48(3)
        for _ in range(200):
            _, stats = trace_photon(mini_scene, rng)
            assert (
                stats.absorptions + stats.escapes + stats.bounce_limit_hits == 1
            )

    def test_closed_scene_no_escapes(self, mini_scene):
        rng = Lcg48(4)
        escapes = 0
        for _ in range(300):
            _, stats = trace_photon(mini_scene, rng)
            escapes += stats.escapes
        assert escapes == 0

    def test_open_scene_escapes(self, cornell):
        rng = Lcg48(5)
        escapes = 0
        for _ in range(300):
            _, stats = trace_photon(cornell, rng)
            escapes += stats.escapes
        assert escapes > 0  # the Cornell front is open


class TestSimulator:
    def test_deterministic(self, mini_scene, fast_config):
        a = run_scalar(mini_scene, fast_config)
        b = run_scalar(mini_scene, fast_config)
        assert json.dumps(forest_to_dict(a.forest), sort_keys=True) == json.dumps(
            forest_to_dict(b.forest), sort_keys=True
        )

    def test_seed_changes_answer(self, mini_scene):
        a = run_scalar(mini_scene, SimulationConfig(n_photons=200, seed=1))
        b = run_scalar(mini_scene, SimulationConfig(n_photons=200, seed=2))
        assert forest_to_dict(a.forest) != forest_to_dict(b.forest)

    def test_tally_identity(self, mini_scene, fast_config):
        """Total tallies = photons emitted + reflections."""
        res = run_scalar(mini_scene, fast_config)
        assert (
            res.forest.total_tallies
            == res.stats.photons + res.stats.reflections
        )
        assert res.stats.photons == fast_config.n_photons

    def test_invariants(self, mini_scene, fast_config):
        res = run_scalar(mini_scene, fast_config)
        res.forest.check_invariants()

    def test_band_emitted_sums(self, mini_scene, fast_config):
        res = run_scalar(mini_scene, fast_config)
        assert sum(res.forest.band_emitted) == fast_config.n_photons

    def test_zero_photons(self, mini_scene):
        res = run_scalar(mini_scene, SimulationConfig(n_photons=0))
        assert res.forest.total_tallies == 0

    def test_negative_photons_rejected(self):
        with pytest.raises(ValueError):
            SimulationConfig(n_photons=-1)

    def test_view_dependent_polygons(self, mini_scene):
        res = run_scalar(
            mini_scene,
            SimulationConfig(n_photons=2000, policy=SplitPolicy(min_count=8)),
        )
        assert res.view_dependent_polygons == res.forest.leaf_count
        assert res.view_dependent_polygons > mini_scene.defining_polygon_count

    def test_mean_bounces_positive(self, mini_scene, fast_config):
        res = run_scalar(mini_scene, fast_config)
        assert res.stats.mean_bounces > 0.1


class TestBatches:
    def test_batches_accumulate_to_full_run(self, mini_scene, fast_config):
        full = run_scalar(mini_scene, fast_config)
        last = None
        for partial in run_scalar_batches(mini_scene, fast_config, 100):
            last = partial
        assert last is not None
        assert json.dumps(forest_to_dict(last.forest), sort_keys=True) == json.dumps(
            forest_to_dict(full.forest), sort_keys=True
        )

    def test_batch_count(self, mini_scene):
        cfg = SimulationConfig(n_photons=250)
        batches = list(run_scalar_batches(mini_scene, cfg, 100))
        assert len(batches) == 3  # 100 + 100 + 50

    def test_monotone_growth(self, mini_scene):
        cfg = SimulationConfig(n_photons=400)
        totals = [
            r.forest.total_tallies
            for r in run_scalar_batches(mini_scene, cfg, 100)
        ]
        assert totals == sorted(totals)

    def test_bad_batch_size(self, mini_scene, fast_config):
        with pytest.raises(ValueError):
            run_scalar_batches(mini_scene, fast_config, 0)

    def test_vector_workers_rejected_not_ignored(self, mini_scene):
        """The oracle traces on one core; a pool config is a loud error
        naming the serving path, not a silent scalar run on one core."""
        cfg = SimulationConfig(n_photons=200, workers=3)
        with pytest.raises(ValueError, match="RenderSession"):
            run_scalar(mini_scene, cfg)
        with pytest.raises(ValueError, match="RenderSession"):
            run_scalar_batches(mini_scene, cfg, 100)

    def test_vector_batches_stream_from_a_session(self, mini_scene):
        with RenderSession(mini_scene) as session:
            results = list(
                session.simulate_stream(SimulateRequest(n_photons=120), 60)
            )
        assert len(results) == 2
        assert results[-1].forest.photons_emitted == 120


class TestMemoryGrowth:
    def test_forest_grows_sublinearly_late(self, mini_scene):
        """Fig. 5.4's qualitative shape: early growth, later flattening
        of *new leaves per photon*."""
        cfg = SimulationConfig(
            n_photons=4000, policy=SplitPolicy(min_count=8)
        )
        leaf_counts = [
            r.forest.leaf_count
            for r in run_scalar_batches(mini_scene, cfg, 500)
        ]
        early_rate = leaf_counts[1] - leaf_counts[0]
        late_rate = leaf_counts[-1] - leaf_counts[-2]
        assert late_rate <= early_rate
