"""EventBatch edge cases: empty/single concat, empty sort, buffer codecs.

The degenerate shapes every transport must survive — zero-photon
requests, single-shard pools, and zero-event shards crossing the result
plane — pinned here once instead of incidentally inside the parity
suites.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core import EVENT_FIELDS
from repro.core.photon import NUM_BANDS
from repro.core.vectorized import EventBatch, VectorEngine


def _sample_batch(cornell, count=40) -> EventBatch:
    events, _ = VectorEngine(cornell).trace_range(0xC0FFEE, 0, count)
    return events


class TestConcat:
    def test_concat_empty_list_is_empty_batch(self):
        merged = EventBatch.concat([])
        assert len(merged) == 0
        for name, dt in EVENT_FIELDS:
            assert getattr(merged, name).size == 0

    def test_concat_single_batch_preserves_rows(self, cornell):
        events = _sample_batch(cornell)
        merged = EventBatch.concat([events])
        for name, _ in EVENT_FIELDS:
            assert getattr(merged, name).tolist() == getattr(events, name).tolist()

    def test_concat_single_batch_copies(self, cornell):
        """The single-batch concat must still copy: the result plane
        recycles its blocks, so the merge may never alias them."""
        events = _sample_batch(cornell)
        merged = EventBatch.concat([events])
        assert merged.gidx is not events.gidx
        assert not np.shares_memory(merged.gidx, events.gidx)

    def test_concat_of_empties_is_empty(self):
        merged = EventBatch.concat([EventBatch.empty(), EventBatch.empty()])
        assert len(merged) == 0


class TestSortedCanonical:
    def test_empty_batch_sorts_to_empty(self):
        out = EventBatch.empty().sorted_canonical()
        assert len(out) == 0

    def test_sort_orders_by_photon_then_bounce(self):
        batch = EventBatch(
            gidx=np.array([2, 0, 2, 0], dtype=np.int64),
            seq=np.array([1, 0, 0, 1], dtype=np.int64),
            patch=np.array([10, 11, 12, 13], dtype=np.int64),
            s=np.array([0.1, 0.2, 0.3, 0.4]),
            t=np.array([0.5, 0.6, 0.7, 0.8]),
            theta=np.array([1.0, 2.0, 3.0, 4.0]),
            r2=np.array([0.0, 0.1, 0.2, 0.3]),
            band=np.array([0, 1, 2, 0], dtype=np.int64),
        )
        out = batch.sorted_canonical()
        assert out.gidx.tolist() == [0, 0, 2, 2]
        assert out.seq.tolist() == [0, 1, 0, 1]
        assert out.patch.tolist() == [11, 13, 12, 10]


class TestEmissionBandCounts:
    def test_counts_emission_rows_per_band(self, cornell):
        events = _sample_batch(cornell, 200)
        counts = events.emission_band_counts()
        assert counts == [
            int(((events.seq == 0) & (events.band == b)).sum())
            for b in range(NUM_BANDS)
        ]
        assert sum(counts) == 200
        assert all(type(c) is int for c in counts)

    def test_absent_bands_and_empty_batches_still_report_every_band(self):
        assert EventBatch.empty().emission_band_counts() == [0] * NUM_BANDS
        batch = EventBatch.empty()
        batch.seq = np.array([0, 1, 0], dtype=np.int64)
        batch.band = np.array([0, 2, 0], dtype=np.int64)
        assert batch.emission_band_counts() == [2, 0, 0]


class TestBufferCodecs:
    def test_round_trip_preserves_bits(self, cornell):
        events = _sample_batch(cornell)
        rebuilt = EventBatch.from_fields(events.export_fields())
        for name, dt in EVENT_FIELDS:
            a, b = getattr(events, name), getattr(rebuilt, name)
            assert b.dtype == np.dtype(dt)
            assert np.array_equal(a.view(np.uint8), b.view(np.uint8))

    def test_round_trip_zero_event_shard(self):
        fields = EventBatch.empty().export_fields()
        rebuilt = EventBatch.from_fields(fields)
        assert len(rebuilt) == 0
        for name, dt in EVENT_FIELDS:
            assert getattr(rebuilt, name).dtype == np.dtype(dt)

    def test_export_normalises_dtypes(self):
        """Off-spec column dtypes are normalised to the wire layout, so
        result blocks and inline payloads always carry identical bytes."""
        batch = EventBatch(
            gidx=np.array([1], dtype=np.int32),  # narrower than the wire
            seq=np.array([0], dtype=np.int64),
            patch=np.array([3], dtype=np.int64),
            s=np.array([0.25], dtype=np.float32),
            t=np.array([0.5]),
            theta=np.array([1.5]),
            r2=np.array([0.75]),
            band=np.array([2], dtype=np.int64),
        )
        fields = batch.export_fields()
        assert fields["gidx"].dtype == np.dtype("<i8")
        assert fields["s"].dtype == np.dtype("<f8")
        assert fields["gidx"].tolist() == [1]
        assert fields["s"].tolist() == [0.25]

    def test_export_field_order_matches_wire_contract(self):
        assert tuple(name for name, _ in EVENT_FIELDS) == (
            "gidx", "seq", "patch", "s", "t", "theta", "r2", "band",
        )
