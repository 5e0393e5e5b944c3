"""The Harpsichord Practice Room (Figures 4.7, 5.16).

"The scene depicts a harpsichord in a room with skylights and a mirrored
music shelf."  ~100 defining polygons.  The skylights are collimated
emitters with the sun's quarter-degree half-angle — the scene the paper
uses to show sharp shadows near occluders (harpsichord legs) and fuzzy
shadows far from them (the skylight outlines on the floor) — plus dim
diffuse sky panels that fill the room with ambient light.
"""

from __future__ import annotations

import math

from ..geometry import Scene, Vec3, axis_rect, box, matte, mirror, quad_from_corners, table
from ..geometry.material import emitter, glossy

__all__ = ["harpsichord_room", "HARPSICHORD_DEFAULT_CAMERA", "SUN_HALF_ANGLE_RADIANS"]

#: The sun subtends about half a degree, so the emission cone half-angle is
#: a quarter degree; sin(0.25 deg) ~= 0.00436, which the paper rounds to a
#: 0.005 scaling of the unit circle (Figure 4.4).
SUN_HALF_ANGLE_RADIANS = math.radians(0.25)


def harpsichord_room() -> Scene:
    """Build the Harpsichord Practice Room (~100 defining polygons)."""
    wall = matte("plaster", 0.65, 0.62, 0.55)
    floor_wood = glossy("oak-floor", 0.35, 0.24, 0.14, specular=0.08, gloss=40.0)
    body_wood = glossy("walnut", 0.28, 0.17, 0.09, specular=0.10, gloss=90.0)
    dark_wood = matte("ebony", 0.08, 0.06, 0.05)
    ivory = matte("ivory", 0.80, 0.78, 0.70)
    paper_mat = matte("paper", 0.85, 0.85, 0.80)
    shelf_mirror = mirror("shelf-mirror", 0.92)
    sun = emitter("sun", 40.0, 38.0, 32.0)
    sky = emitter("sky", 1.5, 2.0, 3.5)

    patches = []
    beam_angles: dict[int, float] = {}

    # Room shell (6): 6 m x 3 m x 5 m.
    patches.append(axis_rect("y", 0.0, (0.0, 6.0), (0.0, 5.0), floor_wood, name="floor", flip=True))
    patches.append(axis_rect("y", 3.0, (0.0, 6.0), (0.0, 5.0), wall, name="ceiling"))
    patches.append(axis_rect("x", 0.0, (0.0, 3.0), (0.0, 5.0), wall, name="wall-x0"))
    patches.append(axis_rect("x", 6.0, (0.0, 3.0), (0.0, 5.0), wall, name="wall-x1", flip=True))
    patches.append(axis_rect("z", 0.0, (0.0, 6.0), (0.0, 3.0), wall, name="wall-z0"))
    patches.append(axis_rect("z", 5.0, (0.0, 6.0), (0.0, 3.0), wall, name="wall-z1", flip=True))

    # Two skylights: each is a collimated sun aperture flanked by two
    # diffuse sky strips (same opening, different directionality), so
    # neither emitter occludes the other.  6 emitting patches total.
    for k, (x0, x1) in enumerate(((1.0, 2.2), (3.8, 5.0))):
        idx = len(patches)
        patches.append(
            axis_rect("y", 2.99, (x0, x1), (1.55, 2.45), sun, name=f"skylight{k}.sun")
        )
        beam_angles[idx] = SUN_HALF_ANGLE_RADIANS
        patches.append(
            axis_rect("y", 2.99, (x0, x1), (1.40, 1.55), sky, name=f"skylight{k}.sky0")
        )
        patches.append(
            axis_rect("y", 2.99, (x0, x1), (2.45, 2.60), sky, name=f"skylight{k}.sky1")
        )

    # Harpsichord: body (6), lid (1), lid prop (1), keyboard (6),
    # 4 legs (24), music desk (1), strings cover (1) = 40.
    body_lo = Vec3(1.6, 0.75, 1.6)
    body_hi = Vec3(3.8, 1.05, 2.6)
    patches += box(body_lo, body_hi, body_wood, name="harpsichord.body")
    # Open lid: a parallelogram hinged along the +z body edge, raised 55 deg.
    lid_angle = math.radians(55.0)
    lid_depth = 1.0
    patches.append(
        # From the hinge line (y at body top, z at the back edge) sweeping up.
        quad_from_corners(
            Vec3(1.6, 1.05, 2.6),
            Vec3(3.8, 1.05, 2.6),
            Vec3(
                1.6,
                1.05 + lid_depth * math.sin(lid_angle),
                2.6 + lid_depth * math.cos(lid_angle),
            ),
            body_wood,
            name="harpsichord.lid",
        )
    )
    patches += box(Vec3(1.45, 0.72, 1.7), Vec3(1.62, 0.82, 2.5), ivory, name="harpsichord.keyboard")
    for i, (lx, lz) in enumerate(((1.7, 1.7), (1.7, 2.5), (3.7, 1.7), (3.7, 2.5))):
        patches += box(
            Vec3(lx - 0.05, 0.0, lz - 0.05),
            Vec3(lx + 0.05, 0.75, lz + 0.05),
            dark_wood,
            name=f"harpsichord.leg{i}",
        )
    patches.append(
        axis_rect("y", 1.06, (1.9, 3.5), (1.8, 2.4), dark_wood, name="harpsichord.soundboard", flip=True)
    )

    # Bench: table() = 30 patches.
    patches += table(Vec3(2.7, 0.0, 3.4), 1.0, 0.45, 0.5, 0.06, 0.07, body_wood, name="bench")

    # Mirrored music shelf on the x0 wall: mirror (1) + shelf box (6) +
    # music book (1) = 8.
    patches.append(
        axis_rect("x", 0.01, (1.0, 2.2), (1.5, 3.0), shelf_mirror, name="music-mirror")
    )
    patches += box(Vec3(0.0, 0.95, 1.4), Vec3(0.35, 1.02, 3.1), body_wood, name="shelf")
    patches.append(
        axis_rect("x", 0.36, (1.05, 1.55), (1.9, 2.6), paper_mat, name="music-book")
    )

    # Music stand (6), rug (1) and two framed prints (2) round the scene
    # out near the paper's ~100 defining polygons.
    patches += box(Vec3(4.3, 0.0, 1.9), Vec3(4.45, 1.25, 2.35), dark_wood, name="music-stand")
    patches.append(axis_rect("y", 0.005, (2.0, 4.4), (2.9, 4.4), matte("rug", 0.45, 0.12, 0.12), name="rug", flip=True))
    patches.append(axis_rect("z", 0.01, (1.0, 1.8), (1.2, 2.2), paper_mat, name="print0"))
    patches.append(axis_rect("z", 0.01, (4.2, 5.0), (1.2, 2.2), paper_mat, name="print1"))

    return Scene(
        patches,
        name="harpsichord-room",
        beam_half_angles=beam_angles,
        default_camera=HARPSICHORD_DEFAULT_CAMERA,
    )


HARPSICHORD_DEFAULT_CAMERA = dict(
    position=Vec3(5.4, 1.7, 4.6),
    look_at=Vec3(2.2, 1.0, 1.8),
    vertical_fov_degrees=55.0,
)
