"""Distributed Photon (Figure 5.3): equivalence, balance, protocol."""

import json

import pytest

from repro.core import SplitPolicy, forest_to_dict
from repro.paper.distributed import (
    DistributedConfig,
    merge_rank_forests,
    rank_share,
    run_distributed,
    serial_replay,
)
from repro.paper.loadbalance import load_imbalance


def small_config(**overrides) -> DistributedConfig:
    defaults = dict(
        n_photons=600,
        seed=0xBEEF,
        batch_size=150,
        pilot_photons=300,
        policy=SplitPolicy(min_count=16),
    )
    defaults.update(overrides)
    return DistributedConfig(**defaults)


class TestConfig:
    def test_validation(self):
        with pytest.raises(ValueError):
            DistributedConfig(n_photons=-1)
        with pytest.raises(ValueError):
            DistributedConfig(n_photons=10, batch_size=0)
        with pytest.raises(ValueError):
            DistributedConfig(n_photons=10, balance="wrong")


class TestRankShare:
    def test_even(self):
        assert [rank_share(100, r, 4) for r in range(4)] == [25, 25, 25, 25]

    def test_remainder_to_first(self):
        assert [rank_share(10, r, 4) for r in range(4)] == [3, 3, 2, 2]

    def test_total(self):
        for n in (0, 1, 17, 100):
            assert sum(rank_share(n, r, 8) for r in range(8)) == n


class TestEquivalence:
    def test_one_rank_matches_replay_exactly(self, mini_scene):
        cfg = small_config()
        dist = run_distributed(mini_scene, cfg, 1)
        replay = serial_replay(mini_scene, cfg, 1)
        assert json.dumps(forest_to_dict(dist.forest), sort_keys=True) == json.dumps(
            forest_to_dict(replay), sort_keys=True
        )

    @pytest.mark.parametrize("ranks", [2, 3, 4])
    def test_per_unit_totals_match_replay(self, mini_scene, ranks):
        """Totals are order-independent: any rank count must agree with
        the serial replay of the same leapfrog schedule, unit by unit."""
        cfg = small_config()
        dist = run_distributed(mini_scene, cfg, ranks)
        replay = serial_replay(mini_scene, cfg, ranks)
        dist_totals = {k: t.root.total for k, t in dist.forest.trees.items()}
        replay_totals = {k: t.root.total for k, t in replay.trees.items()}
        assert dist_totals == replay_totals
        assert dist.forest.total_tallies == replay.total_tallies

    def test_band_tallies_match_replay(self, mini_scene):
        cfg = small_config()
        dist = run_distributed(mini_scene, cfg, 3)
        replay = serial_replay(mini_scene, cfg, 3)
        assert dist.forest.band_tallies == replay.band_tallies

    def test_deterministic_across_runs(self, mini_scene):
        cfg = small_config()
        a = run_distributed(mini_scene, cfg, 3)
        b = run_distributed(mini_scene, cfg, 3)
        assert a.processed_per_rank() == b.processed_per_rank()
        assert forest_to_dict(a.forest) == forest_to_dict(b.forest)


class TestAccounting:
    def test_photon_conservation(self, mini_scene):
        cfg = small_config()
        dist = run_distributed(mini_scene, cfg, 4)
        assert dist.total_photons == cfg.n_photons
        # Every tally event was applied exactly once somewhere.
        assert sum(dist.processed_per_rank()) == dist.forest.total_tallies

    def test_forwarded_events_counted(self, mini_scene):
        cfg = small_config()
        dist = run_distributed(mini_scene, cfg, 4)
        forwarded = sum(r.events_forwarded for r in dist.ranks)
        local = sum(
            r.photons_processed for r in dist.ranks
        ) - forwarded
        assert forwarded > 0
        assert local > 0

    def test_batches_equal_across_ranks(self, mini_scene):
        cfg = small_config(n_photons=601)  # uneven share
        dist = run_distributed(mini_scene, cfg, 4)
        batch_counts = {r.batches for r in dist.ranks}
        assert len(batch_counts) == 1

    def test_invariants(self, mini_scene):
        dist = run_distributed(mini_scene, small_config(), 3)
        dist.forest.check_invariants()


class TestLoadBalance:
    def test_best_fit_processed_balanced(self, mini_scene):
        """Table 5.2's measured outcome on real runs."""
        cfg = small_config(n_photons=1200)
        dist = run_distributed(mini_scene, cfg, 4)
        assert load_imbalance(dist.processed_per_rank()) < 1.25

    def test_naive_worse_than_best_fit(self, mini_scene):
        cfg_b = small_config(n_photons=1200)
        cfg_n = small_config(n_photons=1200, balance="naive")
        best = run_distributed(mini_scene, cfg_b, 4)
        naive = run_distributed(mini_scene, cfg_n, 4)
        assert load_imbalance(naive.processed_per_rank()) > load_imbalance(
            best.processed_per_rank()
        )

    def test_ownership_disjoint(self, mini_scene):
        dist = run_distributed(mini_scene, small_config(), 3)
        seen = set()
        for r in dist.ranks:
            for u in r.owned_units:
                assert u not in seen
                seen.add(u)


class TestMerge:
    def test_merge_rejects_overlap(self, mini_scene):
        dist = run_distributed(mini_scene, small_config(), 2)
        with pytest.raises(ValueError):
            merge_rank_forests([dist.ranks[0].forest] * 2, SplitPolicy())
