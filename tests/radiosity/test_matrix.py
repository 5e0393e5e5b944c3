"""Matrix radiosity: analytic two-patch case, solver agreement."""

import numpy as np
import pytest

from repro.geometry import Patch, Scene, Vec3, matte
from repro.geometry.material import Material, RGB
from repro.paper.radiosity import (
    assemble_system,
    gauss_seidel,
    jacobi,
    solve_radiosity,
)


def two_patch_scene(rho: float, f: float):
    """An emitter and a reflector exchanging a known form factor."""
    emit = Material(name="e", diffuse=RGB(0, 0, 0), emission=RGB(1.0, 1.0, 1.0))
    refl = matte("r", rho, rho, rho)
    a = Patch(Vec3(0, 0, 0), Vec3(1, 0, 0), Vec3(0, 0, 1), emit, "emitter")
    b = Patch(Vec3(0, 1, 0), Vec3(0, 0, 1), Vec3(1, 0, 0), refl, "reflector")
    scene = Scene([a, b], name="two-patch")
    ff = np.array([[0.0, f], [f, 0.0]])
    return scene, ff


class TestAssemble:
    def test_shape_check(self, mini_scene):
        with pytest.raises(ValueError):
            assemble_system(mini_scene, np.zeros((2, 2)), band=0)

    def test_identity_for_black_scene(self):
        scene, ff = two_patch_scene(rho=0.0, f=0.5)
        a, e = assemble_system(scene, ff, band=0)
        assert np.allclose(a[1], [0.0, 1.0])
        assert e[0] == 1.0


class TestSolvers:
    def test_jacobi_analytic(self):
        """B_reflector = rho * F * (E + ...) — closed form for 2 patches:
        b = (I - rho F)^-1 e."""
        scene, ff = two_patch_scene(rho=0.5, f=0.4)
        a, e = assemble_system(scene, ff, band=0)
        x, info = jacobi(a, e)
        expected = np.linalg.solve(a, e)
        assert np.allclose(x, expected, atol=1e-8)
        assert info.converged

    def test_gauss_seidel_matches_jacobi(self):
        scene, ff = two_patch_scene(rho=0.7, f=0.6)
        a, e = assemble_system(scene, ff, band=0)
        xj, ij = jacobi(a, e)
        xg, ig = gauss_seidel(a, e)
        assert np.allclose(xj, xg, atol=1e-8)

    def test_gauss_seidel_fewer_iterations(self):
        scene, ff = two_patch_scene(rho=0.9, f=0.9)
        a, e = assemble_system(scene, ff, band=0)
        _, ij = jacobi(a, e, tol=1e-12)
        _, ig = gauss_seidel(a, e, tol=1e-12)
        assert ig.iterations <= ij.iterations

    def test_nonconvergence_reported(self):
        """A nearly singular symmetric system cannot reach 1e-14 in 3
        sweeps (both rows reflective, unlike the emitter case where one
        row is the identity and converges instantly)."""
        a = np.array([[1.0, -0.99], [-0.99, 1.0]])
        e = np.array([1.0, 0.0])
        _, info = jacobi(a, e, tol=1e-14, max_iter=3)
        assert not info.converged


class TestSolveRadiosity:
    def test_full_solve(self, mini_scene):
        sol = solve_radiosity(mini_scene, samples=6)
        assert sol.radiosity.shape == (len(mini_scene.patches), 3)
        assert all(i.converged for i in sol.info)
        # The lamp patch has the highest radiosity.
        lamp_id = next(
            p.patch_id for p in mini_scene.patches if p.material.is_emitter
        )
        assert sol.radiosity[lamp_id].sum() == sol.radiosity.sum(axis=1).max()

    def test_passive_patches_lit(self, mini_scene):
        sol = solve_radiosity(mini_scene, samples=6)
        floor_b = sol.radiosity[0].sum()
        assert floor_b > 0.0

    def test_bad_method(self, mini_scene):
        with pytest.raises(ValueError):
            solve_radiosity(mini_scene, method="cg")

    def test_reuse_form_factors(self, mini_scene):
        sol1 = solve_radiosity(mini_scene, samples=6)
        sol2 = solve_radiosity(mini_scene, form_factors=sol1.form_factors)
        assert np.allclose(sol1.radiosity, sol2.radiosity)

    def test_mirror_energy_is_directionless(self, cornell):
        """The chapter-2 critique: matrix radiosity treats the Cornell
        mirror's specular energy as diffuse — its radiosity is finite
        and directionless, unlike Photon's angular bins."""
        sol = solve_radiosity(cornell, samples=4)
        mirror_ids = [
            p.patch_id for p in cornell.patches if p.material.is_mirror
        ]
        for pid in mirror_ids:
            assert sol.radiosity[pid].sum() >= 0.0  # defined, but flat
