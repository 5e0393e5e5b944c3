"""Seeded procedural scenes: the geometry axis of Table 5.1, extended.

The paper's scaling study stops at the ~2k-patch Computer Laboratory.
This module generates structurally similar scenes — office floors of
jittered cubicles, furniture-dense store rooms — at any size, so the
flat octree, the shm scene plane, and the result plane can be tested
and benchmarked at 10-100x the hand-built scenes.

Determinism promise
-------------------
``generate_scene("office-64@7")`` is a pure function of its spec: the
same kind, size, and seed produce the *identical* ``Scene`` — same
patches in the same order with the same jittered coordinates — on every
platform, forever (all randomness comes from the repo's own
:class:`~repro.rng.lcg.Lcg48`, never the host RNG; layout changes bump
:data:`GENERATOR_VERSION`, which is stamped into the scene metadata and
therefore into saved scene files).  That is what lets generated scenes
join the golden-answer harness: a committed answer file for
``gen:office-64`` pins the generator, the engines, and the transports
at once.

Spec grammar (accepted by :func:`generate_scene`,
``repro.scenes.get_scene("gen:...")``, and ``repro simulate --gen``)::

    <kind>-<units>[@seed]     e.g.  office-64, den-48, office-238@0x7e57
"""

from __future__ import annotations

import math
from typing import Callable

from ..geometry import Scene, Vec3, axis_rect, box, room, table
from ..geometry.material import emitter, glossy, matte
from ..geometry.polygon import Patch
from ..rng.lcg import Lcg48

__all__ = [
    "GEN_DEFAULT_SEED",
    "GENERATOR_VERSION",
    "furniture_den",
    "generate_scene",
    "generator_kinds",
    "office_floor",
    "parse_gen_spec",
    "units_for_patches",
]

GEN_DEFAULT_SEED = 0x0FF1CE

#: Bumped whenever generated layouts change; stamped into scene metadata
#: so a saved scene file records exactly which generator produced it.
#: A bump invalidates the committed gen-scene goldens by construction —
#: regenerate them (tests/data/regenerate.py) in the same change.
GENERATOR_VERSION = 1


def _light_grid(
    count: int, width: float, depth: float, height: float, material
) -> list[Patch]:
    """*count* ceiling panels in a near-square grid (deterministic)."""
    cols = max(1, round(math.sqrt(count * width / depth)))
    rows = math.ceil(count / cols)
    panels: list[Patch] = []
    for i in range(count):
        r, c = divmod(i, cols)
        cx = (c + 0.5) * width / cols
        cz = (r + 0.5) * depth / rows
        panels.append(
            axis_rect(
                "y",
                height - 0.01,
                (cx - 0.6, cx + 0.6),
                (cz - 0.3, cz + 0.3),
                material,
                name=f"panel{i}",
            )
        )
    return panels


def office_floor(units: int = 64, *, seed: int = GEN_DEFAULT_SEED) -> Scene:
    """An open-plan office floor of *units* jittered cubicles.

    Each cubicle is a desk (30 patches), a divider panel (6), and a
    pedestal cabinet (6) — 42 patches — plus the room shell (6) and a
    ceiling panel grid (``max(2, units // 6)``), so the total patch
    count is exactly ``6 + max(2, units // 6) + 42 * units``.
    """
    if units < 1:
        raise ValueError("office_floor needs at least one unit")
    rng = Lcg48(seed)

    carpet = glossy("gen-carpet", 0.24, 0.25, 0.29, specular=0.03, gloss=18.0)
    wall = matte("gen-wall", 0.74, 0.73, 0.70)
    ceiling = matte("gen-ceiling", 0.80, 0.80, 0.80)
    desk_mat = matte("gen-desk", 0.46, 0.38, 0.29)
    divider_mat = matte("gen-divider", 0.42, 0.46, 0.52)
    pedestal_mat = matte("gen-pedestal", 0.34, 0.34, 0.38)
    panel = emitter("gen-panel", 11.0, 11.5, 12.0)

    cols = max(1, round(math.sqrt(units)))
    rows = math.ceil(units / cols)
    cell_x, cell_z = 2.4, 2.2
    width = cols * cell_x + 1.2
    depth = rows * cell_z + 1.2
    height = 2.9

    patches = room(
        Vec3(0.0, 0.0, 0.0), Vec3(width, height, depth),
        floor=carpet, ceiling=ceiling, walls=wall, name="office",
    )
    patches += _light_grid(max(2, units // 6), width, depth, height, panel)

    for i in range(units):
        r, c = divmod(i, cols)
        # Jitter keeps the corpus from being a perfect lattice (which
        # would understate octree build variety) while staying inside
        # the cell so no cubicle ever intersects a wall.
        jx = (rng.uniform() - 0.5) * 0.3
        jz = (rng.uniform() - 0.5) * 0.3
        bx = 0.6 + c * cell_x + cell_x / 2 + jx
        bz = 0.6 + r * cell_z + cell_z / 2 + jz
        name = f"cubicle{i}"

        desk_w = 1.35 + rng.uniform() * 0.25
        patches += table(
            Vec3(bx, 0.0, bz), desk_w, 0.75, 0.73, 0.04, 0.05,
            desk_mat, name=f"{name}.desk",
        )

        # Divider behind (-z) or beside (+x) the desk, chosen per unit.
        div_h = 1.45 + rng.uniform() * 0.2
        if rng.randint(2) == 0:
            lo = Vec3(bx - desk_w / 2, 0.0, bz - 0.55)
            hi = Vec3(bx + desk_w / 2, div_h, bz - 0.51)
        else:
            lo = Vec3(bx + desk_w / 2 + 0.08, 0.0, bz - 0.5)
            hi = Vec3(bx + desk_w / 2 + 0.12, div_h, bz + 0.5)
        patches += box(lo, hi, divider_mat, name=f"{name}.divider")

        ped_h = 0.5 + rng.uniform() * 0.1
        patches += box(
            Vec3(bx - desk_w / 2 + 0.05, 0.0, bz + 0.15),
            Vec3(bx - desk_w / 2 + 0.45, ped_h, bz + 0.60),
            pedestal_mat, name=f"{name}.pedestal",
        )

    return Scene(
        patches,
        name=f"gen-office-{units}@{seed:#x}",
        max_depth=12,
    )


_DEN_PIECES = 4  # table / shelf / crate / bench — keep in sync with _den_piece


def _den_piece(
    rng: Lcg48, bx: float, bz: float, name: str, materials: dict
) -> list[Patch]:
    """One furniture piece at cell centre (bx, bz); 6-30 patches."""
    kind = rng.randint(_DEN_PIECES)
    if kind == 0:  # table (30)
        return table(
            Vec3(bx, 0.0, bz), 1.1 + rng.uniform() * 0.4, 0.7, 0.74,
            0.05, 0.06, materials["wood"], name=f"{name}.table",
        )
    if kind == 1:  # tall shelf (6)
        half = 0.35 + rng.uniform() * 0.15
        return box(
            Vec3(bx - half, 0.0, bz - 0.25),
            Vec3(bx + half, 1.6 + rng.uniform() * 0.4, bz + 0.25),
            materials["shelf"], name=f"{name}.shelf",
        )
    if kind == 2:  # crate (6)
        half = 0.25 + rng.uniform() * 0.2
        return box(
            Vec3(bx - half, 0.0, bz - half),
            Vec3(bx + half, 2 * half, bz + half),
            materials["crate"], name=f"{name}.crate",
        )
    # bench: seat slab + two end supports (18)
    half_w = 0.6 + rng.uniform() * 0.2
    patches = box(
        Vec3(bx - half_w, 0.40, bz - 0.22),
        Vec3(bx + half_w, 0.46, bz + 0.22),
        materials["wood"], name=f"{name}.bench-seat",
    )
    for side, sx in (("l", -1.0), ("r", 1.0)):
        patches += box(
            Vec3(bx + sx * (half_w - 0.08) - 0.04, 0.0, bz - 0.20),
            Vec3(bx + sx * (half_w - 0.08) + 0.04, 0.40, bz + 0.20),
            materials["crate"], name=f"{name}.bench-{side}",
        )
    return patches


def furniture_den(units: int = 48, *, seed: int = GEN_DEFAULT_SEED) -> Scene:
    """A furniture-dense store room: *units* mixed pieces, tight packing.

    Piece mix (table / shelf / crate / bench) is drawn per unit from the
    seeded stream, so the patch count varies with the seed — but is a
    pure function of ``(units, seed)`` like everything else here.
    Denser occlusion than :func:`office_floor`: the octree works harder
    per photon, which is the point of having a second corpus kind.
    """
    if units < 1:
        raise ValueError("furniture_den needs at least one unit")
    rng = Lcg48(seed)

    materials = {
        "wood": matte("gen-wood", 0.48, 0.40, 0.30),
        "shelf": matte("gen-shelf", 0.52, 0.46, 0.38),
        "crate": matte("gen-crate", 0.38, 0.34, 0.28),
    }
    floor_mat = glossy("gen-deck", 0.30, 0.30, 0.32, specular=0.05, gloss=22.0)
    wall = matte("gen-denwall", 0.62, 0.62, 0.60)
    lamp = emitter("gen-lamp", 13.0, 12.0, 10.0)

    cols = max(1, round(math.sqrt(units)))
    rows = math.ceil(units / cols)
    cell = 1.7  # tighter than the office: furniture nearly touches
    width = cols * cell + 1.0
    depth = rows * cell + 1.0
    height = 2.6

    patches = room(
        Vec3(0.0, 0.0, 0.0), Vec3(width, height, depth),
        floor=floor_mat, ceiling=wall, walls=wall, name="den",
    )
    patches += _light_grid(max(2, units // 10), width, depth, height, lamp)

    for i in range(units):
        r, c = divmod(i, cols)
        jx = (rng.uniform() - 0.5) * 0.2
        jz = (rng.uniform() - 0.5) * 0.2
        bx = 0.5 + c * cell + cell / 2 + jx
        bz = 0.5 + r * cell + cell / 2 + jz
        patches += _den_piece(rng, bx, bz, f"piece{i}", materials)

    return Scene(
        patches,
        name=f"gen-den-{units}@{seed:#x}",
        max_depth=12,
    )


def generator_kinds() -> dict[str, Callable[..., Scene]]:
    """Kind name -> builder, in documentation order."""
    return {"office": office_floor, "den": furniture_den}


def units_for_patches(
    kind: str, target_patches: int, *, seed: int = GEN_DEFAULT_SEED
) -> int:
    """Smallest unit count whose scene has >= *target_patches* patches.

    Exact for both kinds: ``office`` has a closed-form count, and
    ``den`` replays the seeded piece stream (building loose patches,
    never a Scene/octree, so this stays cheap) until the running total
    clears the target — the same draws the real builder will consume,
    so the returned unit count realises the promise precisely.
    """
    if kind == "office":
        units = 1
        while 6 + max(2, units // 6) + 42 * units < target_patches:
            units += 1
        return units
    if kind == "den":
        rng = Lcg48(seed)
        materials = {
            "wood": matte("gen-wood", 0.48, 0.40, 0.30),
            "shelf": matte("gen-shelf", 0.52, 0.46, 0.38),
            "crate": matte("gen-crate", 0.38, 0.34, 0.28),
        }
        units = 0
        pieces = 0
        while True:
            units += 1
            rng.uniform()  # jx — same stream shape as furniture_den
            rng.uniform()  # jz
            pieces += len(_den_piece(rng, 10.0, 10.0, "probe", materials))
            if 6 + max(2, units // 10) + pieces >= target_patches:
                return units
    raise ValueError(
        f"unknown generator kind {kind!r}; valid kinds: "
        f"{sorted(generator_kinds())}"
    )


def parse_gen_spec(spec: str) -> tuple[str, int, int]:
    """Parse ``<kind>-<units>[@seed]`` into (kind, units, seed).

    The seed accepts any ``int(x, 0)`` literal (``7``, ``0x7e57``).
    Raises ``ValueError`` spelling out the grammar on any malformation,
    so CLI and registry callers can surface it as a usage error.
    """
    grammar = (
        f"generator spec must be <kind>-<units>[@seed] with kind in "
        f"{sorted(generator_kinds())}, e.g. 'office-64' or 'den-48@7'"
    )
    body, at, seed_text = spec.partition("@")
    seed = GEN_DEFAULT_SEED
    if at:
        try:
            seed = int(seed_text, 0)
        except ValueError:
            raise ValueError(f"bad seed {seed_text!r} in {spec!r}: {grammar}") from None
    kind, dash, units_text = body.rpartition("-")
    if not dash or kind not in generator_kinds():
        raise ValueError(f"bad generator spec {spec!r}: {grammar}")
    try:
        units = int(units_text)
    except ValueError:
        raise ValueError(f"bad unit count {units_text!r} in {spec!r}: {grammar}") from None
    if units < 1:
        raise ValueError(f"unit count must be >= 1 in {spec!r}: {grammar}")
    return kind, units, seed


def generate_scene(spec: str) -> Scene:
    """Build a procedural scene from a ``<kind>-<units>[@seed]`` spec."""
    kind, units, seed = parse_gen_spec(spec)
    scene = generator_kinds()[kind](units, seed=seed)
    scene.generator_metadata = {
        "kind": kind,
        "units": units,
        "seed": seed,
        "generator_version": GENERATOR_VERSION,
    }
    return scene
