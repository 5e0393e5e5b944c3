"""Scene ingestion contracts: round-trip fidelity and strict validation.

Two promises, pinned separately:

* ``load_scene(save_scene(s))`` reproduces *s* exactly — the patch
  structure-of-arrays byte-for-byte, materials value-for-value, and
  ``default_camera`` — for the three built-ins and a sweep of generated
  seeds, and ``save -> load -> save`` is byte-stable (the serialisation
  is canonical, which the CLI round-trip ``cmp`` relies on).
* Malformed inputs fail with :class:`SceneFormatError` carrying the JSON
  path, field context, and source line — never a bare
  ``KeyError``/``TypeError`` traceback.
"""

from __future__ import annotations

import json

import numpy as np
import pytest

from repro.core.vectorized import SceneArrays
from repro.paper.octree import scene_octree
from repro.scenes import (
    build_scene,
    computer_lab,
    cornell_box,
    get_scene,
    harpsichord_room,
    save_scene,
)
from repro.scenes.generator import generate_scene
from repro.scenes.loader import (
    SceneFormatError,
    load_obj,
    load_scene,
    parse_obj,
    parse_scene,
    scene_to_doc,
    scene_to_json,
)

BUILTIN_BUILDERS = {
    "cornell-box": cornell_box,
    "harpsichord-room": harpsichord_room,
    "computer-lab": computer_lab,
}

#: Every array SceneArrays derives from the patch list; byte equality
#: here means the two scenes are indistinguishable to the vector engine.
SOA_FIELDS = (
    "p0x", "p0y", "p0z", "eux", "euy", "euz", "evx", "evy", "evz",
    "nx", "ny", "nz", "d_plane", "diffuse", "specular", "lum_cum",
)


def assert_scene_equal(original, reloaded) -> None:
    assert reloaded.name == original.name
    assert reloaded.defining_polygon_count == original.defining_polygon_count
    a, b = SceneArrays(original), SceneArrays(reloaded)
    for field in SOA_FIELDS:
        left, right = getattr(a, field), getattr(b, field)
        assert np.array_equal(left, right), f"SoA field {field} drifted"
        assert left.tobytes() == right.tobytes(), f"SoA bytes {field} drifted"
    for p, q in zip(original.patches, reloaded.patches):
        assert q.material == p.material
    assert reloaded.default_camera == original.default_camera
    assert [l.patch.patch_id for l in reloaded.luminaires] == [
        l.patch.patch_id for l in original.luminaires
    ]
    assert [l.beam_half_angle for l in reloaded.luminaires] == [
        l.beam_half_angle for l in original.luminaires
    ]
    assert scene_octree(reloaded).leaf_capacity == scene_octree(original).leaf_capacity
    assert scene_octree(reloaded).max_depth == scene_octree(original).max_depth


class TestRoundTrip:
    @pytest.mark.parametrize("name", sorted(BUILTIN_BUILDERS))
    def test_builtins_reproduce_exactly(self, tmp_path, name):
        original = BUILTIN_BUILDERS[name]()
        path = save_scene(original, tmp_path / f"{name}.json")
        assert_scene_equal(original, load_scene(path))

    @pytest.mark.parametrize("spec", [
        "office-5", "office-17@3", "office-17@0xBEEF",
        "den-9", "den-24@7", "den-24@0x51EE9",
    ])
    def test_generated_seed_sweep(self, tmp_path, spec):
        original = generate_scene(spec)
        path = save_scene(original, tmp_path / "gen.json")
        reloaded = load_scene(path)
        assert_scene_equal(original, reloaded)
        assert reloaded.generator_metadata == original.generator_metadata
        assert scene_to_doc(original)["metadata"] == {
            "generator": original.generator_metadata
        }

    def test_save_load_save_is_byte_stable(self, tmp_path):
        scene = generate_scene("office-5@11")
        first = scene_to_json(scene)
        second = scene_to_json(parse_scene(first))
        assert second == first

    def test_file_spec_resolves_through_registry(self, tmp_path):
        path = save_scene(cornell_box(), tmp_path / "c.json")
        scene = get_scene(f"file:{path}")
        assert_scene_equal(cornell_box(), scene)
        # build_scene is the same resolver (sessions construct through it).
        assert_scene_equal(cornell_box(), build_scene(f"file:{path}"))

    def test_duplicate_material_names_disambiguated(self, tmp_path):
        from repro.geometry import Scene, Vec3, axis_rect
        from repro.geometry.material import Material, RGB, emitter

        # Two *different* materials that share a name: the writer must
        # keep both, not silently merge them.
        a = Material(name="clash", diffuse=RGB(0.3, 0.3, 0.3))
        b = Material(name="clash", diffuse=RGB(0.6, 0.6, 0.6))
        scene = Scene([
            axis_rect("y", 0.0, (0, 1), (0, 1), a, name="pa", flip=True),
            axis_rect("y", 0.5, (0, 1), (0, 1), b, name="pb", flip=True),
            axis_rect("y", 1.0, (0, 1), (0, 1), emitter("lamp", 5, 5, 5),
                      name="pl"),
        ], name="clash-scene")
        reloaded = load_scene(save_scene(scene, tmp_path / "clash.json"))
        assert reloaded.patches[0].material.diffuse == a.diffuse
        assert reloaded.patches[1].material.diffuse == b.diffuse
        a_soa, b_soa = SceneArrays(scene), SceneArrays(reloaded)
        assert a_soa.diffuse.tobytes() == b_soa.diffuse.tobytes()


def expect_error(text: str, **expected) -> SceneFormatError:
    with pytest.raises(SceneFormatError) as excinfo:
        parse_scene(text, source="test.json")
    err = excinfo.value
    for attr, value in expected.items():
        got = getattr(err, attr)
        if attr == "message":
            assert value in got, f"message {got!r} lacks {value!r}"
        else:
            assert got == value, f"{attr}: {got!r} != {value!r}"
    return err


def minimal_doc(**overrides) -> dict:
    doc = {
        "format": "photon-scene",
        "version": 1,
        "name": "t",
        "materials": {
            "m": {"diffuse": [0.5, 0.5, 0.5]},
            "lamp": {"emission": [5.0, 5.0, 5.0]},
        },
        "patches": [
            {"material": "m", "origin": [0, 0, 0],
             "eu": [1, 0, 0], "ev": [0, 0, 1]},
            {"material": "lamp", "origin": [0, 1, 0],
             "eu": [1, 0, 0], "ev": [0, 0, 1]},
        ],
    }
    doc.update(overrides)
    return doc


class TestValidation:
    """Errors carry path + field context, and never bare tracebacks."""

    def test_invalid_json_reports_line(self):
        err = expect_error('{\n  "format": nope\n}', source="test.json")
        assert "invalid JSON" in err.message
        assert err.line == 2

    def test_wrong_format_marker(self):
        doc = minimal_doc(format="obj")
        expect_error(json.dumps(doc), path="format", message="photon-scene")

    def test_newer_version_refused(self):
        doc = minimal_doc(version=99)
        err = expect_error(json.dumps(doc), path="version")
        assert "99" in err.message and "version 1" in err.message

    def test_unknown_root_key(self):
        doc = minimal_doc(lights=[])
        expect_error(json.dumps(doc), path="lights", message="unknown key")

    def test_missing_required_key(self):
        doc = minimal_doc()
        del doc["materials"]
        expect_error(json.dumps(doc), message="'materials'")

    def test_undefined_material_reference(self):
        doc = minimal_doc()
        doc["patches"][1]["material"] = "ghost"
        err = expect_error(json.dumps(doc), path="patches[1].material")
        assert "ghost" in err.message and "lamp" in err.message

    def test_bad_vector_arity(self):
        doc = minimal_doc()
        doc["patches"][0]["eu"] = [1, 0]
        expect_error(json.dumps(doc), path="patches[0].eu",
                     message="3 numbers")

    def test_degenerate_patch_is_located(self):
        doc = minimal_doc()
        doc["patches"][0]["ev"] = [2, 0, 0]  # parallel to eu
        text = json.dumps(doc, indent=1)
        err = expect_error(text, path="patches[0]", message="degenerate")
        # Line-precision: the reported line is where the patches[0]
        # object opens in the source text.
        expected_line = text[: text.index("{", text.index('"patches"'))].count("\n") + 1
        assert err.line == expected_line

    def test_over_unity_material(self):
        doc = minimal_doc()
        doc["materials"]["m"]["specular"] = 0.9
        err = expect_error(json.dumps(doc), path="materials.m")
        assert "reflects more than it receives" in err.message

    def test_no_luminaires(self):
        doc = minimal_doc()
        doc["patches"] = [doc["patches"][0]]
        expect_error(json.dumps(doc), path="patches",
                     message="no luminaires")

    def test_beam_angle_on_passive_material(self):
        doc = minimal_doc()
        doc["patches"][0]["beam_half_angle"] = 0.01
        expect_error(json.dumps(doc), path="patches[0].beam_half_angle",
                     message="not an emitter")

    def test_errors_are_value_errors_not_tracebacks(self):
        # API contract: one except clause catches every schema problem.
        assert issubclass(SceneFormatError, ValueError)
        with pytest.raises(ValueError):
            parse_scene("[]")

    def test_missing_file(self, tmp_path):
        with pytest.raises(SceneFormatError, match="cannot read"):
            load_scene(tmp_path / "absent.json")

    def test_str_includes_source_and_line(self):
        doc = minimal_doc(version=2)
        err = expect_error(json.dumps(doc, indent=1), source="test.json")
        rendered = str(err)
        assert rendered.startswith("test.json:")
        assert "version" in rendered


class TestNonFiniteGeometry:
    """NaN, infinities and overflow are schema errors: a non-finite corner
    would make the octree root, and every fitted box, infinite or NaN."""

    @pytest.mark.parametrize("literal", [
        "NaN", "Infinity", "-Infinity", "1e400",
        pytest.param("-1" + "0" * 400, id="integer-1e400"),
    ])
    def test_non_finite_corner_literal(self, literal):
        doc = minimal_doc()
        doc["patches"][1]["origin"] = ["@", 1, 0]
        text = json.dumps(doc, indent=1).replace('"@"', literal)
        err = expect_error(text, path="patches[1].origin[0]", message="finite")
        assert err.line == text[: text.index(literal)].count("\n") + 1

    @pytest.mark.parametrize("key, value, path", [
        ("diffuse", [0.5, float("nan"), 0.5], "materials.m.diffuse[1]"),
        ("specular", float("inf"), "materials.m.specular"),
    ])
    def test_non_finite_material_value(self, key, value, path):
        doc = minimal_doc()
        doc["materials"]["m"][key] = value
        expect_error(json.dumps(doc), path=path, message="finite")

    @pytest.mark.parametrize("value", [1.9, float("nan"), -1, "many"])
    def test_metadata_events_per_photon_is_ignored(self, value):
        """``metadata`` is an open namespace: the ``events_per_photon``
        older files carry loads, whatever its value, and is dropped."""
        legacy = parse_scene(json.dumps(minimal_doc(
            metadata={"events_per_photon": value, "generator": {"kind": "x"}}
        )))
        plain = parse_scene(json.dumps(minimal_doc()))
        assert legacy.generator_metadata == {"kind": "x"}
        assert scene_to_doc(legacy) == {
            **scene_to_doc(plain), "metadata": {"generator": {"kind": "x"}}
        }

    @pytest.mark.parametrize("origin, eu, ev", [
        ([1e308, 0, 0], [1e308, 0, 0], [0, 0, 1]),      # origin + eu overflows
        ([0, 0, 0], [1e200, 0, 0], [0, 0, 1e200]),      # eu x ev overflows
        ([0, 0, 0], [1e160, 0, 0], [0, 0, 1e-160]),     # eu . eu overflows
    ], ids=["corner", "area", "gram"])
    def test_overflowing_patch_is_located(self, origin, eu, ev):
        doc = minimal_doc()
        doc["patches"][0].update(origin=origin, eu=eu, ev=ev)
        expect_error(json.dumps(doc), path="patches[0]", message="overflow")

    def test_integer_past_the_digit_limit(self):
        text = json.dumps(minimal_doc(), indent=1).replace(
            '"version": 1', '"version": 1' + "0" * 5000)
        expect_error(text, message="invalid JSON")

    @pytest.mark.parametrize("coordinate", ["nan", "inf", "-inf", "1e400"])
    def test_obj_vertex(self, coordinate):
        text = f"v 0 0 0\nv {coordinate} 0 0\n"
        with pytest.raises(SceneFormatError, match="non-finite") as excinfo:
            parse_obj(text)
        assert excinfo.value.line == 2

    def test_obj_face_edges_overflow(self):
        text = "v -1e308 0 0\nv 1e308 0 0\nv 1e308 0 1\nv -1e308 0 1\nf 1 2 3 4\n"
        with pytest.raises(SceneFormatError, match="overflow") as excinfo:
            parse_obj(text)
        assert excinfo.value.line == 5

    @pytest.mark.parametrize("statement", ["Kd nan 0.5 0.5", "Ke 1 inf 1",
                                           "Ks 0.1 0.1 1e999", "Ns nan"])
    def test_mtl_values(self, statement):
        mtl = f"newmtl m\n{statement}\n"
        with pytest.raises(SceneFormatError, match="non-finite") as excinfo:
            parse_obj("mtllib m.mtl\n", mtl_loader=lambda lib: mtl)
        assert excinfo.value.line == 2 and excinfo.value.source == "m.mtl"


class TestObjImporter:
    OBJ = """\
mtllib room.mtl
o floor
v 0 0 0
v 2 0 0
v 2 0 2
v 0 0 2
usemtl white
f 1 2 3 4
o lamp
v 0.8 1.9 0.8
v 1.2 1.9 0.8
v 1.2 1.9 1.2
v 0.8 1.9 1.2
usemtl glow
f 5 8 7 6
"""
    MTL = """\
newmtl white
Kd 0.70 0.71 0.72
Ks 0.1 0.1 0.1
Ns 30
newmtl glow
Kd 0 0 0
Ke 12.0 11.0 10.0
"""

    def write(self, tmp_path):
        (tmp_path / "room.obj").write_text(self.OBJ)
        (tmp_path / "room.mtl").write_text(self.MTL)
        return tmp_path / "room.obj"

    def test_obj_maps_onto_schema_path(self, tmp_path):
        scene = load_obj(self.write(tmp_path))
        assert scene.defining_polygon_count == 2
        assert len(scene.luminaires) == 1
        white = scene.patches[0].material
        assert white.diffuse.r == pytest.approx(0.70)
        assert white.specular == pytest.approx(0.1)
        assert white.gloss == pytest.approx(30.0)
        glow = scene.patches[1].material
        assert glow.emission.r == pytest.approx(12.0)
        # Same Scene surface as the JSON path: saving the imported OBJ
        # yields a schema file that round-trips byte-stably.
        text = scene_to_json(scene)
        assert scene_to_json(parse_scene(text)) == text

    def test_file_spec_dispatches_obj_by_suffix(self, tmp_path):
        path = self.write(tmp_path)
        scene = get_scene(f"file:{path}")
        assert scene.name == "room"

    def test_triangle_face_rejected_with_line(self, tmp_path):
        bad = tmp_path / "tri.obj"
        bad.write_text("v 0 0 0\nv 1 0 0\nv 0 1 0\nf 1 2 3\n")
        with pytest.raises(SceneFormatError) as excinfo:
            load_obj(bad)
        assert excinfo.value.line == 4
        assert "parallelogram" in excinfo.value.message

    def test_non_parallelogram_quad_rejected(self):
        text = "v 0 0 0\nv 1 0 0\nv 1.5 1 0\nv 0 1 0\nf 1 2 3 4\n"
        with pytest.raises(SceneFormatError, match="not a parallelogram"):
            parse_obj(text)

    def test_unknown_keyword_rejected(self):
        with pytest.raises(SceneFormatError, match="unsupported OBJ keyword"):
            parse_obj("curv 0 1 2\n")

    def test_usemtl_before_definition(self):
        with pytest.raises(SceneFormatError, match="before any mtllib"):
            parse_obj("usemtl phantom\n")
