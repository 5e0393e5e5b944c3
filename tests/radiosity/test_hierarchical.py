"""Hierarchical radiosity baseline: refinement, convergence, critiques."""

import pytest

from repro.paper.radiosity import HierarchicalConfig, solve_hierarchical


@pytest.fixture(scope="module")
def solution(request):
    scene = request.getfixturevalue("mini_scene")
    return solve_hierarchical(
        scene, HierarchicalConfig(f_eps=0.1, a_min=0.1, visibility_samples=2)
    )


class TestConfig:
    def test_validation(self):
        with pytest.raises(ValueError):
            HierarchicalConfig(f_eps=0.0)
        with pytest.raises(ValueError):
            HierarchicalConfig(a_min=-1.0)


class TestRefinement:
    def test_elements_exceed_patches(self, mini_scene, solution):
        assert solution.elements > len(mini_scene.patches)

    def test_links_created(self, solution):
        assert solution.links > 0

    def test_leaf_areas_respect_minimum(self, solution):
        for root in solution.roots:
            for leaf in root.leaves():
                # a subdivided element can be half the parent of a_min size
                assert leaf.patch.area >= 0.1 / 4.0

    def test_finer_eps_more_elements(self, mini_scene):
        coarse = solve_hierarchical(
            mini_scene, HierarchicalConfig(f_eps=0.4, a_min=0.2, visibility_samples=1)
        )
        fine = solve_hierarchical(
            mini_scene, HierarchicalConfig(f_eps=0.05, a_min=0.05, visibility_samples=1)
        )
        assert fine.elements >= coarse.elements


class TestSolution:
    def test_converged(self, solution):
        assert solution.converged

    def test_emitter_brightest(self, mini_scene, solution):
        lamp_id = next(
            p.patch_id for p in mini_scene.patches if p.material.is_emitter
        )
        lamp_b = solution.patch_radiosity(lamp_id)
        for patch in mini_scene.patches:
            if patch.patch_id != lamp_id:
                assert solution.patch_radiosity(patch.patch_id) < lamp_b

    def test_energy_bounded(self, mini_scene, solution):
        """No patch radiosity exceeds emission/(1 - rho_max)."""
        bound = (5.0 * 3 / 3) / (1 - 0.6) + 1e-9
        for patch in mini_scene.patches:
            assert solution.patch_radiosity(patch.patch_id) <= bound

    def test_passive_surfaces_lit(self, solution):
        assert solution.patch_radiosity(0) > 0.0


class TestCritique:
    def test_refinement_blind_to_darkness(self, mini_scene):
        """Chapter 2: Hanrahan's oracle refines on form-factor error,
        not answer error — the dark floor region under the shelf gets
        subdivided just like bright regions."""
        sol = solve_hierarchical(
            mini_scene, HierarchicalConfig(f_eps=0.1, a_min=0.05, visibility_samples=1)
        )
        floor_elements = sol.element_count_for_patch(0)
        # The floor subdivides heavily even though part of it is in
        # shadow and contributes almost nothing to answer quality.
        assert floor_elements >= 4
