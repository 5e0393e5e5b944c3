"""Scene container: patches, luminaires and their bounds.

A :class:`Scene` owns the *defining polygons* (Table 5.1's first column).
The view-dependent mesh polygons of the second column are not geometry at
all — they are histogram bins that the Photon simulator grows at run time
(see :mod:`repro.core.bintree`).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

from .aabb import AABB
from .polygon import Patch
from .vec import Vec3

__all__ = ["Scene", "Luminaire", "SceneStats", "root_bounds", "check_params"]


def root_bounds(patches: Sequence[Patch]) -> AABB:
    """The union of the patch AABBs, grown by a hair.

    Patches lying exactly on the boundary are inside.  This is the root
    cell of the paper tier's pointer octree
    (:class:`repro.paper.octree.Octree`) and what :meth:`Scene.bounds`
    returns, without building any tree.
    """
    bounds = AABB.union_all([p.bounds() for p in patches])
    diag = bounds.extent().length()
    return bounds.expanded(max(diag, 1.0) * 1e-9 + 1e-12)


def check_params(leaf_capacity: int, max_depth: int) -> None:
    """Raise ``ValueError`` unless the octree build parameters are usable."""
    if leaf_capacity < 1:
        raise ValueError("leaf_capacity must be >= 1")
    if max_depth < 0:
        raise ValueError("max_depth must be >= 0")


@dataclass(frozen=True)
class Luminaire:
    """An emitting patch together with its share of scene power.

    Attributes:
        patch: The emitting patch (``patch.material.is_emitter`` is True).
        power: Total radiant power, integrated over area and bands.
        cumulative: Upper edge of this luminaire's interval in the
            power-proportional CDF used for emitter selection.
        beam_half_angle: Collimation in radians.  ``None`` means a diffuse
            (cosine-hemisphere) emitter; small values approximate sunlight
            (the paper uses a quarter-degree scaling of the unit circle).
    """

    patch: Patch
    power: float
    cumulative: float
    beam_half_angle: Optional[float]


@dataclass
class SceneStats:
    """Inventory numbers surfaced by Table 5.1 and the README."""

    defining_polygons: int
    emitters: int
    total_area: float
    total_power: float


class Scene:
    """An indexed collection of patches with power-weighted luminaires.

    Args:
        patches: All defining polygons.  Patch ids are (re)assigned
            densely in input order: the distributed-memory algorithm
            identifies bins by ``(patch_id, path)`` so ids must be
            identical across ranks.
        name: Scene label, used in reports.
        beam_half_angles: Optional mapping from patch index (in *patches*)
            to a collimation half-angle for that emitter.
        leaf_capacity / max_depth: Build parameters of the paper tier's
            pointer octree (:func:`repro.paper.octree.scene_octree`),
            which only the scalar tracer walks; the vector engine builds
            its own tree from the patches.  Plain scene data, checked
            here: scene files and ``save_scene`` carry them.
        default_camera: Optional viewing defaults carried *with* the
            scene — ``Camera(**scene.default_camera)`` keyword arguments
            (``position``, ``look_at``, ``vertical_fov_degrees``).  When
            omitted, :attr:`default_camera` derives a framing camera
            from the scene bounds, so a newly registered scene renders
            something sensible instead of a hardcoded fallback view.
    """

    def __init__(
        self,
        patches: Sequence[Patch],
        *,
        name: str = "scene",
        beam_half_angles: Optional[dict[int, float]] = None,
        leaf_capacity: int = 8,
        max_depth: int = 10,
        default_camera: Optional[dict] = None,
    ) -> None:
        if not patches:
            raise ValueError("a scene needs at least one patch")
        check_params(leaf_capacity, max_depth)
        self.name = name
        self.leaf_capacity = leaf_capacity
        self.max_depth = max_depth
        if default_camera is not None:
            missing = {"position", "look_at"} - set(default_camera)
            if missing:
                raise ValueError(
                    f"default_camera needs {sorted(missing)} (got "
                    f"{sorted(default_camera)}); every consumer — repro "
                    "view, RenderSession.render — reads those keys"
                )
            self._default_camera = dict(default_camera)
        else:
            self._default_camera = None
        self.patches: list[Patch] = list(patches)
        for i, patch in enumerate(self.patches):
            patch.patch_id = i

        beam_half_angles = beam_half_angles or {}

        # Power-proportional CDF over emitters, so photon generation can
        # select a luminaire with a single uniform variate.
        self.luminaires: list[Luminaire] = []
        cumulative = 0.0
        for i, patch in enumerate(self.patches):
            mat = patch.material
            if not mat.is_emitter:
                continue
            power = (mat.emission.r + mat.emission.g + mat.emission.b) * patch.area
            cumulative += power
            self.luminaires.append(
                Luminaire(
                    patch=patch,
                    power=power,
                    cumulative=cumulative,
                    beam_half_angle=beam_half_angles.get(i),
                )
            )
        self.total_power = cumulative
        if not self.luminaires:
            raise ValueError(f"scene {name!r} has no luminaires — nothing to simulate")
        self.band_powers = (
            sum(l.patch.material.emission.r * l.patch.area for l in self.luminaires),
            sum(l.patch.material.emission.g * l.patch.area for l in self.luminaires),
            sum(l.patch.material.emission.b * l.patch.area for l in self.luminaires),
        )

        self._bounds: Optional[AABB] = None

    def __getstate__(self) -> dict:
        """Pickle without process-local state.

        :meth:`repro.api.SceneProgram.compile` caches the compiled
        program on the scene object; the program holds locks and
        megabytes of arrays, neither of which may travel with the scene
        when the multi-process pickle transport ships it to a worker
        (spawn-start platforms pickle pool init args).  The receiving
        process compiles its own program on first need.
        """
        state = self.__dict__.copy()
        state.pop("_compiled_program", None)
        return state

    # -- queries -------------------------------------------------------------

    def pick_luminaire(self, u: float) -> Luminaire:
        """Luminaire whose CDF interval contains ``u * total_power``.

        Args:
            u: Uniform variate in [0, 1).
        """
        target = u * self.total_power
        lo, hi = 0, len(self.luminaires) - 1
        while lo < hi:
            mid = (lo + hi) // 2
            if self.luminaires[mid].cumulative <= target:
                lo = mid + 1
            else:
                hi = mid
        return self.luminaires[lo]

    def bounds(self) -> AABB:
        """The slightly expanded scene extent (:func:`root_bounds`)."""
        if self._bounds is None:
            self._bounds = root_bounds(self.patches)
        return self._bounds

    @property
    def default_camera(self) -> dict:
        """Viewing defaults for this scene, as ``Camera`` keyword args.

        Returns the camera registered at construction, or — for scenes
        built without one — a deterministic framing view derived from
        the scene bounds (eye pulled back outside the +z face, looking
        at the centre), so ``repro view`` and
        :meth:`repro.api.RenderSession.render` never fall back to a
        viewpoint unrelated to the geometry.
        """
        if self._default_camera is not None:
            return dict(self._default_camera)
        box = self.bounds()
        cx = 0.5 * (box.lo.x + box.hi.x)
        cy = 0.5 * (box.lo.y + box.hi.y)
        cz = 0.5 * (box.lo.z + box.hi.z)
        extent = max(box.hi.x - box.lo.x, box.hi.y - box.lo.y,
                     box.hi.z - box.lo.z)
        return {
            "position": Vec3(cx, cy + 0.25 * extent, box.hi.z + 1.1 * extent),
            "look_at": Vec3(cx, cy, cz),
            "vertical_fov_degrees": 55.0,
        }

    # -- inventory ----------------------------------------------------------------

    @property
    def defining_polygon_count(self) -> int:
        return len(self.patches)

    def stats(self) -> SceneStats:
        """Inventory snapshot for Table 5.1-style reports."""
        return SceneStats(
            defining_polygons=len(self.patches),
            emitters=len(self.luminaires),
            total_area=sum(p.area for p in self.patches),
            total_power=self.total_power,
        )

    def patch_by_id(self, patch_id: int) -> Patch:
        """The patch with dense id *patch_id* (asserts table sanity)."""
        patch = self.patches[patch_id]
        if patch.patch_id != patch_id:
            raise AssertionError("patch id table corrupted")
        return patch

    def __repr__(self) -> str:
        return (
            f"Scene({self.name!r}, {len(self.patches)} patches, "
            f"{len(self.luminaires)} luminaires)"
        )
