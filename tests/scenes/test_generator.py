"""Procedural generator contracts: determinism and parameterization.

The generator's one non-negotiable promise is bit-reproducibility:
``generate_scene(spec)`` is a pure function of the spec.  These tests
pin that structurally (identical patch geometry across calls, seed
actually changes layouts, unit counts land where the sizing helper says
they will); the *answer-byte* half of the claim lives in the golden
suite (``tests/core/test_golden_answers.py``) against the committed
``gen-office-64`` answerfile.
"""

from __future__ import annotations

import pytest

from repro.scenes.generator import (
    GEN_DEFAULT_SEED,
    GENERATOR_VERSION,
    furniture_den,
    generate_scene,
    generator_kinds,
    office_floor,
    parse_gen_spec,
    units_for_patches,
)


def geometry_signature(scene) -> list:
    return [
        (p.name, p.p0, p.eu, p.ev, p.material.name)
        for p in scene.patches
    ]


class TestDeterminism:
    @pytest.mark.parametrize("spec", ["office-12", "den-15@0xABC"])
    def test_same_spec_identical_geometry(self, spec):
        assert geometry_signature(generate_scene(spec)) == geometry_signature(
            generate_scene(spec)
        )

    def test_seed_changes_layout(self):
        base = generate_scene("office-12")
        other = generate_scene("office-12@99")
        assert geometry_signature(base) != geometry_signature(other)

    def test_default_seed_is_explicit(self):
        explicit = generate_scene(f"office-12@{GEN_DEFAULT_SEED:#x}")
        assert geometry_signature(generate_scene("office-12")) == (
            geometry_signature(explicit)
        )

    def test_metadata_records_provenance(self):
        scene = generate_scene("den-9@5")
        assert scene.generator_metadata == {
            "kind": "den",
            "units": 9,
            "seed": 5,
            "generator_version": GENERATOR_VERSION,
        }


class TestParameterization:
    def test_office_patch_count_formula(self):
        for units in (1, 6, 64, 100):
            scene = office_floor(units)
            assert scene.defining_polygon_count == (
                6 + max(2, units // 6) + 42 * units
            )

    def test_units_for_patches_reaches_target(self):
        for kind in generator_kinds():
            units = units_for_patches(kind, 10_000)
            scene = generator_kinds()[kind](units)
            assert scene.defining_polygon_count >= 10_000 - 30
            # And not wildly overshooting (one unit of slack).
            assert scene.defining_polygon_count < 10_000 + 100

    def test_den_mix_varies_with_seed(self):
        a = furniture_den(20, seed=1).defining_polygon_count
        b = furniture_den(20, seed=2).defining_polygon_count
        # Different piece draws almost surely give different totals; if
        # this ever collides, the geometry signature still differs.
        assert a != b or geometry_signature(furniture_den(20, seed=1)) != (
            geometry_signature(furniture_den(20, seed=2))
        )

    def test_scenes_have_luminaires_and_cameras(self):
        for spec in ("office-3", "den-3"):
            scene = generate_scene(spec)
            assert len(scene.luminaires) >= 2
            camera = scene.default_camera  # derived from bounds, never raises
            assert {"position", "look_at"} <= set(camera)


class TestSpecGrammar:
    def test_parse_forms(self):
        assert parse_gen_spec("office-64") == ("office", 64, GEN_DEFAULT_SEED)
        assert parse_gen_spec("den-48@7") == ("den", 48, 7)
        assert parse_gen_spec("office-8@0x7E57") == ("office", 8, 0x7E57)

    @pytest.mark.parametrize("bad", [
        "office", "atrium-64", "office-", "office-x", "office-0",
        "office-64@", "office-64@zed",
    ])
    def test_malformed_specs_explain_grammar(self, bad):
        with pytest.raises(ValueError, match="<kind>-<units>"):
            parse_gen_spec(bad)
