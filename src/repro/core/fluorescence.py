"""Fluorescence extension (chapter 6 future work).

"We foresee the ability to add fluorescence."  Because Photon simulates
quantum light transport — each photon is a monochromatic energy packet —
fluorescence is a natural extension: on contact with a fluorescent
surface, an absorbed short-wavelength photon may be re-emitted in a
longer-wavelength band (a Stokes shift; energy only ever moves *down*
the spectrum, blue -> green -> red).

A :class:`FluorescenceSpec` is request data: the vector engine applies
it after the reflection roulette (an absorbed photon gets a second
chance in a lower band, re-emitted diffusely — fluorescent emission is
isotropic), and :func:`repro.paper.physics.fluorescent_reflect` is the
scalar oracle of that step.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from numbers import Real

from .photon import NUM_BANDS

__all__ = ["FluorescenceSpec"]

#: Band energy ordering: index 2 (blue) is the most energetic, 0 (red)
#: the least; a Stokes shift can only move a photon to a *lower* index.
_BAND_ENERGY_ORDER = (2, 1, 0)  # blue > green > red


def _is_probability(p) -> bool:
    """A finite real >= 0 (NaN fails every comparison the checks use)."""
    return isinstance(p, Real) and math.isfinite(p) and p >= 0.0


@dataclass(frozen=True)
class FluorescenceSpec:
    """Down-conversion probabilities of a fluorescent coating.

    Attributes:
        conversion: ``conversion[from_band][to_band]`` — probability that
            a band-``from_band`` photon which would otherwise be absorbed
            is re-emitted in ``to_band``.  Rows must sum to at most 1
            (the remainder stays absorbed) and may only populate strictly
            lower-energy targets (no up-conversion).
    """

    conversion: tuple[tuple[float, float, float], ...]

    def __post_init__(self) -> None:
        if len(self.conversion) != NUM_BANDS:
            raise ValueError("conversion needs one row per band")
        energy_rank = {band: i for i, band in enumerate(_BAND_ENERGY_ORDER)}
        for src in range(NUM_BANDS):
            row = self.conversion[src]
            if len(row) != NUM_BANDS:
                raise ValueError("conversion rows must have 3 entries")
            if not all(_is_probability(p) for p in row):
                raise ValueError(
                    "conversion probabilities must be finite reals >= 0, "
                    f"got {row!r}"
                )
            if sum(row) > 1.0 + 1e-12:
                raise ValueError(f"band {src} converts more than it absorbs")
            for dst in range(NUM_BANDS):
                if row[dst] > 0.0 and energy_rank[dst] <= energy_rank[src]:
                    raise ValueError(
                        f"up-conversion {src} -> {dst} violates the Stokes shift"
                    )

    @classmethod
    def simple(cls, blue_to_green: float = 0.0, green_to_red: float = 0.0,
               blue_to_red: float = 0.0) -> "FluorescenceSpec":
        """Convenience constructor for the common down-shift chains."""
        return cls(
            (
                (0.0, 0.0, 0.0),  # red converts to nothing lower
                (green_to_red, 0.0, 0.0),
                (blue_to_red, blue_to_green, 0.0),
            )
        )

    def probability(self, src: int, dst: int) -> float:
        """Conversion probability from band *src* to band *dst*."""
        return self.conversion[src][dst]
