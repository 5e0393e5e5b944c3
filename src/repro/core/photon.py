"""Colour bands of the photon record.

A photon in this simulator is a classical energy packet: a position, a
unit direction of travel, and a colour band.  Colour is "a fifth
dimension, but one not subject to hierarchical subdivision" (chapter 4):
each photon is monochromatic, carrying one of the three RGB bands chosen
at emission in proportion to the luminaire's spectrum, and every bin
keeps three per-band tallies.  The scalar record itself is
:class:`repro.paper.physics.Photon`; the vector engine keeps the same
fields as columns.
"""

from __future__ import annotations

__all__ = ["BAND_NAMES", "NUM_BANDS"]

NUM_BANDS = 3
BAND_NAMES = ("red", "green", "blue")
