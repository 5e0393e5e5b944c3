"""End-to-end workflows: the pipelines a user of the library runs."""

import json

import numpy as np
import pytest

from repro.core import (
    Camera,
    RadianceField,
    SimulationConfig,
    SplitPolicy,
    forest_to_dict,
    load_answer,
    save_answer,
)
from repro.core.viewing import render
from repro.geometry import Vec3
from repro.image import rmse, save_radiance_ppm, read_ppm
from repro.paper.distributed import DistributedConfig, run_distributed
from repro.paper.scalar import run_scalar
from repro.paper.shared import SharedConfig, run_shared


class TestSimulateSaveView:
    """Figure 4.9/4.10: simulate once, save, view from anywhere."""

    def test_full_pipeline(self, mini_scene, tmp_path):
        cfg = SimulationConfig(n_photons=2500, policy=SplitPolicy(min_count=16))
        result = run_scalar(mini_scene, cfg)
        answer = tmp_path / "mini.answer.json"
        save_answer(result.forest, answer)

        forest = load_answer(answer)
        field = RadianceField(mini_scene, forest)
        cam = Camera(Vec3(0.5, 0.5, 0.05), Vec3(0.5, 0.5, 1.0), width=16, height=12)
        img = render(mini_scene, field, cam)
        assert img.sum() > 0

        out = tmp_path / "view.ppm"
        save_radiance_ppm(img, out)
        assert read_ppm(out).shape == (12, 16, 3)

    def test_two_viewpoints_one_answer(self, mini_scene):
        cfg = SimulationConfig(n_photons=2000)
        result = run_scalar(mini_scene, cfg)
        field = RadianceField(mini_scene, result.forest)
        img1 = render(mini_scene, field, Camera(Vec3(0.1, 0.5, 0.1), Vec3(0.9, 0.5, 0.9), width=8, height=8))
        img2 = render(mini_scene, field, Camera(Vec3(0.9, 0.5, 0.9), Vec3(0.1, 0.5, 0.1), width=8, height=8))
        assert img1.sum() > 0 and img2.sum() > 0


class TestParallelConsistency:
    def test_shared_and_serial_same_image(self, mini_scene):
        """Shared-memory with one worker renders bit-identically to the
        serial simulator."""
        serial = run_scalar(mini_scene, SimulationConfig(n_photons=1500, seed=3))
        shared = run_shared(mini_scene, SharedConfig(n_photons=1500, seed=3), 1)
        cam = Camera(Vec3(0.5, 0.5, 0.05), Vec3(0.5, 0.5, 1.0), width=12, height=8)
        img_a = render(mini_scene, RadianceField(mini_scene, serial.forest), cam)
        img_b = render(mini_scene, RadianceField(mini_scene, shared.forest), cam)
        assert np.array_equal(img_a, img_b)

    def test_distributed_answer_renders(self, mini_scene):
        """Distributed answers view through the ownership map."""
        cfg = DistributedConfig(
            n_photons=1500, batch_size=300, pilot_photons=400, seed=5
        )
        dist = run_distributed(mini_scene, cfg, 3)
        field = RadianceField(mini_scene, dist.forest, ownership=dist.mapping)
        cam = Camera(Vec3(0.5, 0.5, 0.05), Vec3(0.5, 0.5, 1.0), width=12, height=8)
        img = render(mini_scene, field, cam)
        assert np.count_nonzero(img.sum(axis=2)) > 40

    def test_distributed_image_approximates_serial(self, mini_scene):
        """Different photon schedules, same light: the images agree to
        Monte Carlo tolerance."""
        n = 4000
        serial = run_scalar(mini_scene, SimulationConfig(n_photons=n, seed=5))
        dist = run_distributed(
            mini_scene,
            DistributedConfig(n_photons=n, batch_size=500, pilot_photons=400, seed=5),
            2,
        )
        cam = Camera(Vec3(0.5, 0.5, 0.05), Vec3(0.5, 0.5, 1.0), width=10, height=8)
        img_s = render(mini_scene, RadianceField(mini_scene, serial.forest), cam)
        img_d = render(
            mini_scene,
            RadianceField(mini_scene, dist.forest, ownership=dist.mapping),
            cam,
        )
        scale = max(img_s.mean(), 1e-12)
        assert rmse(img_s, img_d) / scale < 1.5  # same order of magnitude


class TestQualityImprovesWithPhotons:
    def test_rmse_decreases(self, mini_scene):
        """Fig. 5.16's substance: more photons (what more processors buy
        in fixed time) -> less image noise vs a long reference."""
        cam = Camera(Vec3(0.5, 0.5, 0.05), Vec3(0.5, 0.5, 1.0), width=10, height=8)
        ref = run_scalar(mini_scene, SimulationConfig(n_photons=16000, seed=99))
        ref_img = render(mini_scene, RadianceField(mini_scene, ref.forest), cam)
        errors = []
        for n in (500, 4000):
            res = run_scalar(mini_scene, SimulationConfig(n_photons=n, seed=7))
            img = render(mini_scene, RadianceField(mini_scene, res.forest), cam)
            errors.append(rmse(ref_img, img))
        assert errors[1] < errors[0]


class TestMirrorBehaviour:
    def test_cornell_mirror_accumulates_angular_bins(self, cornell):
        """Specular surfaces need angular subdivision: after enough
        photons, the mirror's trees contain theta/r^2 splits while a
        matte wall's splits are mostly spatial."""
        cfg = SimulationConfig(
            n_photons=6000, policy=SplitPolicy(min_count=16), seed=11
        )
        res = run_scalar(cornell, cfg)
        mirror_ids = [
            p.patch_id for p in cornell.patches if p.material.is_mirror
        ]
        angular = 0
        for pid in mirror_ids:
            tree = res.forest.trees.get(pid)
            if tree is None:
                continue
            for leaf in tree.leaves():
                angular += sum(1 for axis, _ in leaf.path if axis >= 2)
        assert angular > 0
