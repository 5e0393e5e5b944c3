"""The Density Estimation baseline (Shirley et al. 1995; Zareski 1995).

Photon's closest prior art and the comparison the dissertation leans on:
particle tracing that records *every* interaction as a hit-point record
("saving the ray history of each photon"), a density-estimation pass
that grids the hit file per surface, and a meshing pass.  Its two
published weaknesses are reproduced measurably:

* the hit file is O(n) in photons — "if each photon requires 100 bytes
  of storage, a realistic scene might consume a terabyte" — versus
  Photon's histogram distillation (compare
  :meth:`DensityEstimationResult.hit_bytes` against
  :meth:`repro.core.bintree.BinForest.memory_bytes`);
* the parallel density-estimation phase is limited by the surface with
  the most hit points — speedup "a mere 4.5 for 16 processors" in bad
  cases — captured analytically by :func:`density_phase_speedup`.
"""

from __future__ import annotations

import struct
import tempfile
from dataclasses import dataclass
from pathlib import Path
from typing import Optional

import numpy as np

from ..geometry.scene import Scene
from ..rng import Lcg48
from .scalar import trace_photon

__all__ = [
    "HIT_RECORD_BYTES",
    "DensityEstimationResult",
    "run_density_estimation",
    "density_phase_speedup",
]

#: On-disk footprint of one hit record.  The paper quotes ~100 bytes per
#: photon interaction for a realistic implementation (position, normal,
#: power, surface id, padding); our packed record keeps the same figure
#: so storage comparisons are apples-to-apples.
HIT_RECORD_BYTES = 100

_RECORD_STRUCT = struct.Struct("<i d d d i 68x")  # patch, s, t, weight, band + pad
assert _RECORD_STRUCT.size == HIT_RECORD_BYTES, _RECORD_STRUCT.size


@dataclass
class DensityEstimationResult:
    """Output of the three-phase Density Estimation pipeline.

    Attributes:
        irradiance: patch_id -> (grid, grid) hit-density array (the
            "approximate irradiance function H for each surface").
        hits_per_patch: Hit-point counts per surface (the parallel
            bottleneck driver).
        total_hits: All interactions recorded.
        hit_file: Path of the phase-1 hit file, if written to disk.
        grid: Mesh resolution used in phase 2/3.
    """

    irradiance: dict[int, np.ndarray]
    hits_per_patch: dict[int, int]
    total_hits: int
    hit_file: Optional[Path]
    grid: int

    @property
    def hit_bytes(self) -> int:
        """Phase-1 storage: O(photons), the paper's terabyte warning."""
        return self.total_hits * HIT_RECORD_BYTES

    def mesh_polygons(self) -> int:
        """Phase-3 output size: one Gouraud quad per grid cell."""
        return len(self.irradiance) * self.grid * self.grid


def run_density_estimation(
    scene: Scene,
    n_photons: int,
    *,
    grid: int = 8,
    seed: int = 0x1234ABCD330E,
    use_disk: bool = False,
) -> DensityEstimationResult:
    """Run the particle-tracing + density-estimation + meshing pipeline.

    Args:
        grid: Fixed (s, t) mesh resolution per surface — fixed, not
            adaptive, which is exactly what Photon's 4-D bins improve on.
        use_disk: Write the phase-1 hit file to a real temporary file
            (the faithful mode); in-memory otherwise (fast test mode).

    Note the algorithmic contrast with Photon: H is a function of
    *position only*, so the result cannot represent mirrors or glare —
    a separate per-viewpoint ray pass would be needed.
    """
    if n_photons < 1:
        raise ValueError("need at least one photon")
    if grid < 1:
        raise ValueError("grid must be positive")
    rng = Lcg48(seed)

    records: list[tuple[int, float, float, float, int]] = []
    hit_file: Optional[Path] = None
    fh = None
    if use_disk:
        tmp = tempfile.NamedTemporaryFile(
            prefix="hitpoints-", suffix=".bin", delete=False
        )
        hit_file = Path(tmp.name)
        fh = tmp

    total = 0
    try:
        # Phase 1: particle tracing, recording every interaction.
        for _ in range(n_photons):
            events, _ = trace_photon(scene, rng)
            for ev in events:
                total += 1
                rec = (ev.patch_id, ev.coords.s, ev.coords.t, 1.0, ev.band)
                if fh is not None:
                    fh.write(_RECORD_STRUCT.pack(*rec))
                else:
                    records.append(rec)
        if fh is not None:
            fh.flush()
            fh.close()
            # Phase 2 reads the hit file back, as the real pipeline must.
            data = hit_file.read_bytes()
            records = [
                _RECORD_STRUCT.unpack_from(data, off)
                for off in range(0, len(data), HIT_RECORD_BYTES)
            ]
    finally:
        if fh is not None and not fh.closed:
            fh.close()

    # Phase 2: density estimation — grid histogram per surface.
    irradiance: dict[int, np.ndarray] = {}
    hits_per_patch: dict[int, int] = {}
    for patch_id, s, t, weight, _band in records:
        h = irradiance.get(patch_id)
        if h is None:
            h = np.zeros((grid, grid))
            irradiance[patch_id] = h
        i = min(int(s * grid), grid - 1)
        j = min(int(t * grid), grid - 1)
        h[i, j] += weight
        hits_per_patch[patch_id] = hits_per_patch.get(patch_id, 0) + 1

    # Phase 3 ("meshing") normalises by cell area to an irradiance-like
    # density; Gouraud shading itself is presentation, not computation.
    for patch_id, h in irradiance.items():
        patch = scene.patch_by_id(patch_id)
        cell_area = patch.area / (grid * grid)
        h /= max(cell_area * max(total, 1), 1e-30)

    return DensityEstimationResult(
        irradiance=irradiance,
        hits_per_patch=hits_per_patch,
        total_hits=total,
        hit_file=hit_file,
        grid=grid,
    )


def density_phase_speedup(hits_per_patch: dict[int, int], processors: int) -> float:
    """Ideal speedup of the parallel density-estimation phase.

    Surfaces are indivisible work items ("the density estimation and
    meshing phase speedup is limited by the time needed to process the
    surface with the largest number of hit points"), so with longest-
    processing-time scheduling the makespan is bounded below by the
    largest surface:

        speedup = total / max(ceil-packed makespan)

    Reproduces the published asymmetry: particle tracing scales ~15/16
    while this phase manages ~8.5 (or 4.5) on 16 processors.
    """
    if processors < 1:
        raise ValueError("processors must be positive")
    if not hits_per_patch:
        raise ValueError("no hits recorded")
    # LPT packing of surface costs onto processors.
    loads = [0] * processors
    for hits in sorted(hits_per_patch.values(), reverse=True):
        loads[loads.index(min(loads))] += hits
    total = sum(hits_per_patch.values())
    return total / max(loads)
