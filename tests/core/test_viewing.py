"""Viewing stage: camera geometry and single-step rendering."""

import numpy as np
import pytest

from repro.core import Camera, RadianceField, SimulationConfig
from repro.core.viewing import render, render_rows
from repro.geometry import Vec3
from repro.paper.scalar import run_scalar


@pytest.fixture(scope="module")
def field(request):
    scene = request.getfixturevalue("mini_scene")
    res = run_scalar(scene, SimulationConfig(n_photons=3000))
    return RadianceField(scene, res.forest)


@pytest.fixture(scope="module")
def camera():
    return Camera(
        position=Vec3(0.5, 0.5, 0.02),
        look_at=Vec3(0.5, 0.5, 1.0),
        width=24,
        height=18,
        vertical_fov_degrees=70.0,
    )


class TestCamera:
    def test_validation(self):
        with pytest.raises(ValueError):
            Camera(Vec3(0, 0, 0), Vec3(0, 0, 1), width=0)
        with pytest.raises(ValueError):
            Camera(Vec3(0, 0, 0), Vec3(0, 0, 1), vertical_fov_degrees=180.0)

    @pytest.mark.parametrize(
        "position,look_at,up",
        [
            ((0.5, 0.5, 0.5), (0.5, 0.5, 0.5), (0, 1, 0)),  # no view direction
            ((0.5, 0.0, 0.5), (0.5, 1.0, 0.5), (0, 1, 0)),  # looking along up
            ((0, 0, 0), (0, 0, 1), (0, 0, 0)),  # no up
            ((float("nan"), 0, 0), (0, 0, 1), (0, 1, 0)),
            ((0, 0, 0), (float("inf"), 0, 1), (0, 1, 0)),
            ((0, 0, 0), (0, 0, 1), (0, float("nan"), 0)),
            ((1e308, 0, 0), (-1e308, 0, 0), (0, 1, 0)),  # difference overflows
            ((1e200, 0, 0), (0, 0, 0), (0, 1, 0)),  # its length does
        ],
    )
    def test_degenerate_or_non_finite_view_is_rejected(self, position, look_at, up):
        with pytest.raises(ValueError):
            Camera(Vec3(*position), Vec3(*look_at), Vec3(*up))

    def test_straight_down_with_a_usable_up_is_fine(self):
        camera = Camera(Vec3(0.5, 0.9, 0.5), Vec3(0.5, 0.0, 0.5), up=Vec3(0, 0, 1))
        assert camera.primary_ray(80, 60).direction.y < -0.99

    def test_frame_is_computed_once_and_shared(self, camera):
        assert camera.frame is camera.frame
        assert camera.basis() == camera.frame[:3]
        half_h = camera.frame.half_h
        assert camera.frame.half_w == half_h * camera.width / camera.height
        # primary_ray is the frame's arithmetic: the corner pixel's ray
        # leans a full half extent less half a pixel both ways.
        right, up, forward, half_w, _ = camera.frame
        ray = camera.primary_ray(0, 0)
        x = -(1.0 - 1.0 / camera.width) * half_w
        y = (1.0 - 1.0 / camera.height) * half_h
        want = (forward + right * x + up * y).normalized()
        assert ray.direction.dot(want) == pytest.approx(1.0)

    def test_center_ray_is_forward(self, camera):
        ray = camera.primary_ray(camera.width / 2 - 0.5, camera.height / 2 - 0.5)
        forward = (camera.look_at - camera.position).normalized()
        assert ray.direction.dot(forward) > 0.999

    def test_corner_rays_diverge(self, camera):
        tl = camera.primary_ray(0, 0)
        br = camera.primary_ray(camera.width - 1, camera.height - 1)
        assert tl.direction.dot(br.direction) < 0.99

    def test_top_row_points_up(self, camera):
        top = camera.primary_ray(camera.width / 2, 0)
        bottom = camera.primary_ray(camera.width / 2, camera.height - 1)
        assert top.direction.y > bottom.direction.y

    def test_basis_orthonormal(self, camera):
        r, u, f = camera.basis()
        for v in (r, u, f):
            assert v.length() == pytest.approx(1.0)
        assert abs(r.dot(u)) < 1e-12
        assert abs(r.dot(f)) < 1e-12


class TestRender:
    def test_shape_and_coverage(self, mini_scene, field, camera):
        img = render(mini_scene, field, camera)
        assert img.shape == (18, 24, 3)
        # Inside a closed box every ray hits something; most pixels lit.
        lit = np.count_nonzero(img.sum(axis=2))
        assert lit > 0.5 * 18 * 24

    def test_rows_match_full(self, mini_scene, field, camera):
        img = render(mini_scene, field, camera)
        rows = render_rows(mini_scene, field, camera, 5, 9)
        assert np.array_equal(rows, img[5:9])

    def test_bad_row_range(self, mini_scene, field, camera):
        with pytest.raises(ValueError):
            render_rows(mini_scene, field, camera, 5, 3)
        with pytest.raises(ValueError):
            render_rows(mini_scene, field, camera, 0, 100)

    def test_deterministic(self, mini_scene, field, camera):
        a = render(mini_scene, field, camera)
        b = render(mini_scene, field, camera)
        assert np.array_equal(a, b)

    def test_miss_is_black(self, mini_scene, field):
        outward = Camera(
            position=Vec3(0.5, 0.5, -5.0),
            look_at=Vec3(0.5, 0.5, -10.0),
            width=4,
            height=4,
        )
        img = render(mini_scene, field, outward)
        assert np.all(img == 0.0)

    def test_viewpoint_independence_of_answer(self, mini_scene, field):
        """Two cameras render from the same answer file — no
        recomputation of the simulation (Figure 4.10)."""
        cam_a = Camera(Vec3(0.2, 0.5, 0.1), Vec3(0.8, 0.4, 0.9), width=8, height=8)
        cam_b = Camera(Vec3(0.8, 0.6, 0.9), Vec3(0.2, 0.4, 0.1), width=8, height=8)
        img_a = render(mini_scene, field, cam_a)
        img_b = render(mini_scene, field, cam_b)
        assert img_a.sum() > 0 and img_b.sum() > 0
        assert not np.array_equal(img_a, img_b)
