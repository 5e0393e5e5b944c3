"""The vector engine traces a photon range as one refilled wave.

``VectorEngine._wave`` keeps at most ``batch_size`` lanes in flight
(``PHOTONS_IN_FLIGHT`` unless a test names a width) and,
before every ``step``, replaces the lanes that retired with the range's
next photons (``emit``), so a range pays one narrowing tail of bounces.
``run()`` tallies completed prefixes: every photon below the lowest one
still in flight, in blocks of ``batch_size`` photons as the prefix
reaches them, plus the rest at the end, into a fresh forest or one it
extends from photon ``start``.  It drains ``grow``, which also cuts the
blocks at each multiple of its step and yields there.  These tests pin that structure;
the parity and golden suites pin the bytes.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.api import RenderSession, SimulateRequest
from repro.core import SimulationConfig, forest_to_dict, save_answer
from repro.core import vectorized
from repro.core.bintree import BinForest
from repro.core.simulator import TraceStats
from repro.core.vectorized import EventBatch, Lanes, VectorEngine


def spy_widths(engine: VectorEngine) -> list[int]:
    """Record the lane count of every ``closest_hit`` call on *engine*."""
    widths = []
    real = engine.closest_hit

    def closest_hit(*rays):
        widths.append(rays[0].size)
        return real(*rays)

    engine.closest_hit = closest_hit
    return widths


def test_ten_thousand_cornell_photons_pay_one_tail(cornell):
    """Cut into 4,096-photon batches, each narrowed to its own one-lane
    tail, this request took 44 calls.  One wave takes 19."""
    engine = VectorEngine(cornell)
    widths = spy_widths(engine)
    engine.run(SimulationConfig(n_photons=10_000))
    assert len(widths) <= 20, widths


@pytest.mark.parametrize("batch_size", [7, 64])
def test_no_step_is_wider_than_batch_size(cornell, batch_size):
    engine = VectorEngine(cornell, batch_size=batch_size)
    widths = spy_widths(engine)
    engine.run(SimulationConfig(n_photons=1_000, seed=11))
    engine.trace_range(11, 3, 500)
    assert max(widths) == batch_size, widths
    # Retired lanes are refilled: until the range runs dry every step is
    # full, so the wave takes far fewer steps than batches would.
    assert widths.count(batch_size) >= (1_000 - batch_size) // batch_size // 2


@pytest.mark.parametrize("batch_size", [1, 64, 4096])
def test_prefix_tallies_are_contiguous(monkeypatch, cornell, batch_size):
    """Each ``tally_block`` in ``run()`` takes every event of a photon
    range that starts where the previous one ended, and nothing else;
    every range but the last spans exactly ``batch_size`` photons."""
    check_prefix_tallies(monkeypatch, cornell, batch_size, 0)


@pytest.mark.parametrize("batch_size", [1, 64, 4096])
def test_an_extension_tallies_from_the_forest_end(monkeypatch, cornell, batch_size):
    """``run(config, forest, start)`` does the same from photon *start*
    on, into the forest it is given: the bytes of one whole run, and
    counters for its own range only."""
    check_prefix_tallies(monkeypatch, cornell, batch_size, 250)


def check_prefix_tallies(monkeypatch, cornell, batch_size, start):
    n = 1_500
    config = SimulationConfig(n_photons=n, seed=5)
    engine = VectorEngine(cornell, batch_size=batch_size)
    prefix = engine.run(SimulationConfig(n_photons=start, seed=5)).forest
    blocks = []
    real = vectorized.tally_block

    def tally_block(forest, block, photons):
        blocks.append((block.gidx.copy(), block.seq.copy(), photons))
        real(forest, block, photons)

    monkeypatch.setattr(vectorized, "tally_block", tally_block)
    result = engine.run(config, prefix, start)
    events, _ = VectorEngine(cornell).trace_range(5, 0, n)
    assert result.forest is prefix
    assert result.stats.photons == n - start
    monkeypatch.undo()
    assert forest_to_dict(prefix) == forest_to_dict(engine.run(config).forest)
    begin = start
    for k, (gidx, seq, photons) in enumerate(blocks):
        end = begin + photons
        if k < len(blocks) - 1:
            assert photons == batch_size
        assert np.sort(gidx[seq == 0]).tolist() == list(range(begin, end))
        assert gidx.min() >= begin and gidx.max() < end
        inside = (events.gidx >= begin) & (events.gidx < end)
        assert gidx.size == np.count_nonzero(inside)
        begin = end
    assert begin == n
    assert result.forest.photons_emitted == n


@pytest.mark.parametrize("start", [0, 50])
def test_grow_reports_exact_prefixes_from_one_wave(cornell, start):
    """``grow`` yields each multiple of its step inside the range, and the
    range's end, once the forest holds exactly the photons below it (a
    cold ``run``'s forest for that budget), and traces the one wave
    ``run`` traces: its report points move no step."""
    config = SimulationConfig(n_photons=500, seed=13)
    engine = VectorEngine(cornell, batch_size=64)
    head = SimulationConfig(n_photons=start, seed=13)
    before, forest = engine.run(head).forest, engine.run(head).forest
    widths = spy_widths(engine)
    ran = engine.run(config, before, start)
    one_wave = list(widths)
    widths.clear()
    stats = TraceStats()
    yielded = []
    for stop in engine.grow(config, forest, stats, start, 111):
        yielded.append(stop)
        cold = VectorEngine(cornell).run(
            SimulationConfig(n_photons=stop, seed=13)
        )
        assert forest_to_dict(forest) == forest_to_dict(cold.forest)
        assert stats.photons >= stop - start
    assert yielded == [111, 222, 333, 444, 500]
    assert widths == one_wave
    assert stats == ran.stats


def test_one_wave_wider_than_the_budget_serves_the_same_bytes(
    cornell, tmp_path
):
    """5,000 cornell photons in one wave: the first ``closest_hit`` call
    takes every lane (the dense scan's tiles, not the wave, bound its
    operands), and the answer file is a default session's."""
    engine = VectorEngine(cornell, batch_size=100_000)
    widths = spy_widths(engine)
    wide = engine.run(SimulationConfig(n_photons=5_000))
    assert widths[0] == 5_000 and max(widths[1:]) < 5_000, widths
    with RenderSession(cornell) as session:
        served = session.simulate(SimulateRequest(n_photons=5_000))
    save_answer(wide.forest, tmp_path / "wide.json")
    save_answer(served.forest, tmp_path / "served.json")
    assert (tmp_path / "wide.json").read_bytes() == (
        tmp_path / "served.json"
    ).read_bytes()


def test_wave_equals_one_photon_at_a_time(cornell):
    """No lane's events depend on which photons share its steps."""
    wide, wide_stats = VectorEngine(cornell, batch_size=4096).trace_range(9, 40, 300)
    narrow, narrow_stats = VectorEngine(cornell, batch_size=1).trace_range(9, 40, 300)
    assert wide_stats == narrow_stats
    wide, narrow = wide.sorted_canonical(), narrow.sorted_canonical()
    for name in ("gidx", "seq", "patch", "s", "t", "theta", "r2", "band"):
        assert getattr(wide, name).tolist() == getattr(narrow, name).tolist(), name


def test_run_and_trace_range_agree(cornell):
    """``run()`` tallies the events ``trace_range`` returns."""
    config = SimulationConfig(n_photons=900, seed=21)
    engine = VectorEngine(cornell, batch_size=100)
    ran = engine.run(config)
    events, stats = engine.trace_range(21, 0, 900)
    forest = BinForest(config.policy)
    vectorized.tally_block(forest, events, 900)
    assert forest_to_dict(ran.forest) == forest_to_dict(forest)
    assert ran.stats == stats


def test_emit_then_step_until_empty(cornell):
    """The two passes by hand: ``emit`` once, ``step`` until no lane is
    left, is the wave of a range that fits in one ``batch_size``."""
    engine = VectorEngine(cornell)
    lanes, first = engine.emit(3, 10, 50)
    assert isinstance(lanes, Lanes) and lanes.size == 50
    assert first.seq.tolist() == [0] * 50
    stats = TraceStats(photons=50)
    events = [first]
    while lanes.size:
        assert np.all(np.diff(lanes.gidx) > 0)
        lanes, stepped = engine.step(lanes, stats)
        events.append(stepped)
    want, want_stats = engine.trace_range(3, 10, 50)
    got = EventBatch.concat(events).sorted_canonical()
    assert got.gidx.tolist() == want.sorted_canonical().gidx.tolist()
    assert got.theta.tolist() == want.sorted_canonical().theta.tolist()
    assert stats == want_stats


class TestTraceRangeArguments:
    def test_negative_count_is_refused(self, cornell):
        with pytest.raises(ValueError, match="count"):
            VectorEngine(cornell).trace_range(1, 0, -1)

    def test_negative_start_is_refused(self, cornell):
        with pytest.raises(ValueError, match="start"):
            VectorEngine(cornell).trace_range(1, -3, 10)

    def test_empty_range(self, cornell):
        events, stats = VectorEngine(cornell).trace_range(1, 7, 0)
        assert len(events) == 0 and stats == TraceStats()

    def test_run_past_the_budget_is_refused(self, cornell):
        config = SimulationConfig(n_photons=10, seed=1)
        with pytest.raises(ValueError, match="count"):
            VectorEngine(cornell).run(config, start=11)
