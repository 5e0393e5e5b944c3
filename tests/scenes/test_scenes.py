"""The three Table 5.1 scenes: inventory and structural properties."""

import math

import pytest

from repro.scenes.harpsichord import SUN_HALF_ANGLE_RADIANS
from repro.scenes import (
    build_scene,
    computer_lab,
    cornell_box,
    harpsichord_room,
    scene_registry,
)


class TestCornell:
    def test_polygon_count_matches_table_5_1(self, cornell):
        assert cornell.defining_polygon_count == 30

    def test_has_mirror(self, cornell):
        mirrors = [p for p in cornell.patches if p.material.is_mirror]
        assert len(mirrors) >= 2  # front and back faces of the panel

    def test_single_luminaire(self, cornell):
        assert len(cornell.luminaires) == 1

    def test_colored_walls(self, cornell):
        names = {p.material.name for p in cornell.patches}
        assert "red" in names and "green" in names

    def test_open_front(self, cornell):
        """No patch on the z=2 plane (the open viewing side)."""
        for p in cornell.patches:
            if all(abs(c.z - 2.0) < 1e-9 for c in p.corners()):
                pytest.fail(f"front should be open but found {p.name}")


class TestHarpsichord:
    def test_polygon_count_near_100(self, harpsichord):
        assert 90 <= harpsichord.defining_polygon_count <= 110

    def test_collimated_skylights(self, harpsichord):
        sun_lums = [
            l for l in harpsichord.luminaires if l.beam_half_angle is not None
        ]
        assert len(sun_lums) == 2
        for l in sun_lums:
            assert l.beam_half_angle == pytest.approx(SUN_HALF_ANGLE_RADIANS)

    def test_diffuse_sky_panels(self, harpsichord):
        sky = [l for l in harpsichord.luminaires if l.beam_half_angle is None]
        assert len(sky) == 4

    def test_has_mirror_shelf(self, harpsichord):
        assert any(p.material.is_mirror for p in harpsichord.patches)

    def test_has_glossy_surfaces(self, harpsichord):
        """Semi-diffuse wood: the case two-pass methods get wrong."""
        glossy = [
            p
            for p in harpsichord.patches
            if p.material.specular > 0 and p.material.gloss is not None
        ]
        assert glossy


class TestComputerLab:
    def test_polygon_count_near_2000(self, request):
        lab = request.getfixturevalue("lab_small")
        # the full-size builder is checked arithmetically to avoid a
        # second expensive octree build:
        full_count = computer_lab.__defaults__  # no defaults: compute below
        scene = computer_lab(workstations=22)
        assert 1800 <= scene.defining_polygon_count <= 2100

    def test_many_even_lights(self, lab_small):
        assert len(lab_small.luminaires) >= 2

    def test_workstation_scaling(self):
        small = computer_lab(workstations=2)
        big = computer_lab(workstations=4)
        assert big.defining_polygon_count - small.defining_polygon_count == 2 * 84

    def test_invalid_workstations(self):
        with pytest.raises(ValueError):
            computer_lab(workstations=0)


class TestRegistry:
    def test_names(self):
        assert sorted(scene_registry()) == [
            "computer-lab",
            "cornell-box",
            "harpsichord-room",
        ]

    def test_build_scene(self):
        scene = build_scene("cornell-box")
        assert scene.name == "cornell-box"

    def test_unknown_scene(self):
        with pytest.raises(KeyError, match="cornell-box"):
            build_scene("atrium")


class TestSceneSanity:
    @pytest.mark.parametrize("fixture", ["cornell", "harpsichord", "lab_small"])
    def test_all_patches_finite(self, request, fixture):
        scene = request.getfixturevalue(fixture)
        for p in scene.patches:
            assert p.area > 0
            assert math.isfinite(p.normal.length())

    @pytest.mark.parametrize("fixture", ["cornell", "harpsichord", "lab_small"])
    def test_short_simulation_runs(self, request, fixture):
        from repro.core import SimulationConfig
        from repro.paper.scalar import run_scalar

        scene = request.getfixturevalue(fixture)
        res = run_scalar(scene, SimulationConfig(n_photons=50))
        res.forest.check_invariants()
        assert res.forest.total_tallies >= 50


class TestDefaultCameras:
    """Viewing defaults travel with the scene (PR 4: registry fold-in)."""

    def test_registered_scenes_carry_their_camera(self):
        from repro.scenes import (
            CORNELL_DEFAULT_CAMERA,
            HARPSICHORD_DEFAULT_CAMERA,
            LAB_DEFAULT_CAMERA,
        )

        expected = {
            "cornell-box": CORNELL_DEFAULT_CAMERA,
            "harpsichord-room": HARPSICHORD_DEFAULT_CAMERA,
            "computer-lab": LAB_DEFAULT_CAMERA,
        }
        for name, camera in expected.items():
            assert build_scene(name).default_camera == camera

    def test_unregistered_scene_derives_framing_camera(self, mini_scene):
        """A scene built without a camera frames itself from its bounds
        instead of inheriting somebody else's hardcoded viewpoint."""
        camera = mini_scene.default_camera
        box = mini_scene.bounds()
        assert camera["position"].z > box.hi.z  # eye outside the +z face
        look = camera["look_at"]
        assert box.lo.x <= look.x <= box.hi.x
        assert box.lo.y <= look.y <= box.hi.y
        assert box.lo.z <= look.z <= box.hi.z

    def test_default_camera_builds_a_camera(self, mini_scene):
        from repro.core import Camera

        camera = Camera(width=8, height=6, **mini_scene.default_camera)
        assert camera.width == 8

    def test_partial_default_camera_rejected_at_construction(self):
        """A camera dict missing required keys fails at Scene build time,
        not as a KeyError inside `repro view`."""
        from repro.geometry import Scene, Vec3, axis_rect
        from repro.geometry.material import emitter

        patches = [
            axis_rect("y", 2.0, (0, 1), (0, 1), emitter("lamp", 5, 5, 5)),
        ]
        with pytest.raises(ValueError, match="look_at"):
            Scene(patches, default_camera={"position": Vec3(0, 1, 3)})
