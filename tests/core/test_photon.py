"""Photon particle record."""

import pytest

from repro.core.photon import BAND_NAMES, NUM_BANDS
from repro.geometry import Vec3
from repro.paper.physics import Photon


class TestPhoton:
    def test_construction(self):
        p = Photon(Vec3(0, 0, 0), Vec3(0, 0, 1), band=1)
        assert p.bounces == 0
        assert p.band == 1

    def test_band_validation(self):
        with pytest.raises(ValueError):
            Photon(Vec3(0, 0, 0), Vec3(0, 0, 1), band=3)
        with pytest.raises(ValueError):
            Photon(Vec3(0, 0, 0), Vec3(0, 0, 1), band=-1)

    def test_advance(self):
        p = Photon(Vec3(0, 0, 0), Vec3(0, 0, 1), band=0)
        p.advance_to(Vec3(0, 0, 5), Vec3(1, 0, 0))
        assert p.position == Vec3(0, 0, 5)
        assert p.direction == Vec3(1, 0, 0)
        assert p.bounces == 1

    def test_band_names(self):
        assert len(BAND_NAMES) == NUM_BANDS == 3

    def test_repr_contains_band(self):
        p = Photon(Vec3(0, 0, 0), Vec3(0, 0, 1), band=2)
        assert "blue" in repr(p)
