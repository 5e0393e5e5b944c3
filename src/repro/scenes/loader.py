"""Scene ingestion: the versioned JSON scene schema and an OBJ subset.

The three built-in scenes cover Table 5.1, but a production service has
to serve geometry it has never seen.  This module is the open ingestion
surface: a small, strictly validated JSON schema that describes exactly
what :class:`~repro.geometry.scene.Scene` can hold (parallelogram
patches, the diffuse/specular/gloss/emission material decomposition,
collimated luminaires, viewing defaults, octree build parameters), a
byte-stable writer (:func:`save_scene`) whose output round-trips through
:func:`load_scene` to the identical patch structure-of-arrays, and a
Wavefront-OBJ-subset importer that maps onto the same schema so both
formats share one validation and build path.

Schema (``format: "photon-scene"``, ``version: 1``)::

    {
      "format": "photon-scene",
      "version": 1,
      "name": "my-scene",
      "metadata": {"generator": {...}},                // optional, open
      "octree": {"leaf_capacity": 8, "max_depth": 10}, // optional
      "camera": {"position": [x,y,z], "look_at": [x,y,z],
                 "vertical_fov_degrees": 55.0},        // optional
      "materials": {
        "white": {"diffuse": [0.73, 0.73, 0.73]},
        "lamp":  {"emission": [18.0, 15.0, 10.0]}
      },
      "patches": [
        {"name": "floor", "material": "white",
         "origin": [0,0,0], "eu": [2,0,0], "ev": [0,0,2]},
        {"name": "light", "material": "lamp",
         "origin": [0.7, 1.98, 0.7], "eu": [0.6,0,0], "ev": [0,0,0.6],
         "beam_half_angle": 0.004363}                  // optional
      ]
    }

Validation contract
-------------------
Every structural problem raises :class:`SceneFormatError` — never a bare
``KeyError``/``TypeError`` traceback — carrying the JSON path of the
offending value (``patches[3].eu``), the source name, and the **line**
in the input text (located lazily by a tiny position scanner, so the
happy path never pays for it).  Unknown keys are rejected everywhere
except ``metadata``, which is an open namespace; unknown *values* of
known keys fail with the constraint spelled out.  Every number outside
``metadata`` must be finite (JSON ``NaN``/``Infinity``/``1e400`` and OBJ/MTL ``nan``/``inf``
are rejected), and so must every patch's corners and the area and plane
constants derived from its edges.  ``version`` gates the
schema: readers refuse documents newer than they understand instead of
misreading them.

``metadata`` is read for ``generator`` provenance only (restored as
``Scene.generator_metadata`` and written back); every other key, such
as the ``events_per_photon`` older files carry, is accepted and
ignored.
"""

from __future__ import annotations

import json
import math
from json.decoder import scanstring
from pathlib import Path
from typing import Callable, Optional, Union

from ..geometry import Scene, Vec3
from ..geometry.material import BLACK, RGB, Material
from ..geometry.polygon import Patch

__all__ = [
    "SCENE_FORMAT",
    "SCENE_SCHEMA_VERSION",
    "SceneFormatError",
    "load_scene",
    "load_scene_file",
    "load_obj",
    "parse_obj",
    "parse_scene",
    "save_scene",
    "scene_from_doc",
    "scene_to_doc",
    "scene_to_json",
]

SCENE_FORMAT = "photon-scene"
SCENE_SCHEMA_VERSION = 1

_OCTREE_DEFAULTS = {"leaf_capacity": 8, "max_depth": 10}


class SceneFormatError(ValueError):
    """A scene document failed validation.

    Carries enough context to fix the input without reading the loader:
    the *source* (file name or ``"<string>"``), the JSON *path* of the
    offending value (``patches[3].eu``), the 1-based *line* when it
    could be located in the input text, and the constraint that failed.
    """

    def __init__(
        self,
        message: str,
        *,
        path: str = "",
        source: str = "<string>",
        line: Optional[int] = None,
    ) -> None:
        self.message = message
        self.path = path
        self.source = source
        self.line = line
        where = source if line is None else f"{source}:{line}"
        at = f" at {path}" if path else ""
        super().__init__(f"{where}:{at} {message}".replace(": ", ": ", 1))

    def __str__(self) -> str:
        where = self.source if self.line is None else f"{self.source}:{self.line}"
        at = f"{self.path}: " if self.path else ""
        return f"{where}: {at}{self.message}"


def _position_index(text: str) -> dict[str, int]:
    """Best-effort map from JSON path to character offset of each value.

    A ~50-line recursive-descent scan over text that ``json.loads``
    already accepted, so it only runs on the *error* path (building the
    index for a 10k-patch document costs real time; loads that validate
    cleanly never call this).  Any surprise aborts to an empty map —
    errors then simply report without a line number.
    """
    index: dict[str, int] = {}
    n = len(text)

    def skip_ws(i: int) -> int:
        while i < n and text[i] in " \t\n\r":
            i += 1
        return i

    def value(i: int, path: str) -> int:
        i = skip_ws(i)
        index[path] = i
        c = text[i]
        if c == "{":
            return obj(i, path)
        if c == "[":
            return arr(i, path)
        if c == '"':
            return scanstring(text, i + 1)[1]
        while i < n and text[i] not in ",]} \t\n\r":
            i += 1
        return i

    def obj(i: int, path: str) -> int:
        i = skip_ws(i + 1)
        if text[i] == "}":
            return i + 1
        while True:
            i = skip_ws(i)
            key, i = scanstring(text, i + 1)
            i = skip_ws(i) + 1  # ':'
            i = skip_ws(value(i, f"{path}.{key}" if path else key))
            if text[i] == ",":
                i += 1
                continue
            return i + 1  # '}'

    def arr(i: int, path: str) -> int:
        i = skip_ws(i + 1)
        if text[i] == "]":
            return i + 1
        k = 0
        while True:
            i = skip_ws(value(i, f"{path}[{k}]"))
            k += 1
            if text[i] == ",":
                i += 1
                continue
            return i + 1  # ']'

    try:
        value(0, "")
    except (IndexError, KeyError, ValueError, RecursionError):
        # The scanner's actual failure modes: running off the end of a
        # text whose grammar surprised it, a scanstring rejection, or
        # blowing the stack on pathologically deep nesting.  All must
        # degrade to "no line numbers", never crash the error reporter.
        return {}
    return index


class _Validator:
    """Shared error reporting for one document (line lookup is lazy)."""

    def __init__(self, source: str, text: Optional[str]) -> None:
        self.source = source
        self._text = text
        self._index: Optional[dict[str, int]] = None

    def fail(self, path: str, message: str) -> "SceneFormatError":
        line = None
        if self._text is not None:
            if self._index is None:
                self._index = _position_index(self._text)
            offset = self._index.get(path)
            if offset is None and path:
                # Fall back to the nearest recorded ancestor.
                parent = path
                while parent and offset is None:
                    parent = parent.rpartition(".")[0] if "[" not in parent.rpartition(".")[2] else parent[: parent.rindex("[")]
                    offset = self._index.get(parent)
            if offset is not None:
                line = self._text.count("\n", 0, offset) + 1
        return SceneFormatError(message, path=path, source=self.source, line=line)

    # -- typed getters -----------------------------------------------------

    def obj(self, value, path: str) -> dict:
        if not isinstance(value, dict):
            raise self.fail(path, f"expected an object, got {_kind(value)}")
        return value

    def require(self, mapping: dict, key: str, path: str):
        if key not in mapping:
            raise self.fail(path, f"missing required key {key!r}")
        return mapping[key]

    def no_unknown_keys(self, mapping: dict, allowed: set, path: str) -> None:
        unknown = sorted(set(mapping) - allowed)
        if unknown:
            raise self.fail(
                f"{path}.{unknown[0]}" if path else unknown[0],
                f"unknown key {unknown[0]!r}; allowed keys: {sorted(allowed)}",
            )

    def string(self, value, path: str) -> str:
        if not isinstance(value, str) or not value:
            raise self.fail(path, f"expected a non-empty string, got {_kind(value)}")
        return value

    def number(self, value, path: str) -> float:
        if isinstance(value, bool) or not isinstance(value, (int, float)):
            raise self.fail(path, f"expected a number, got {_kind(value)}")
        # json.loads reads NaN, Infinity and 1e400 as non-finite floats,
        # and integer literals past the float range as ints.
        try:
            number = float(value)
        except OverflowError:
            number = math.inf if value > 0 else -math.inf
        if not math.isfinite(number):
            raise self.fail(path, f"expected a finite number, got {_kind(number)}")
        return number

    def integer(self, value, path: str) -> int:
        if isinstance(value, bool) or not isinstance(value, int):
            raise self.fail(path, f"expected an integer, got {_kind(value)}")
        return value

    def triple(self, value, path: str) -> tuple[float, float, float]:
        if not isinstance(value, list) or len(value) != 3:
            raise self.fail(
                path, f"expected an array of 3 numbers, got {_kind(value)}"
            )
        return tuple(self.number(v, f"{path}[{i}]") for i, v in enumerate(value))

    def vec3(self, value, path: str) -> Vec3:
        return Vec3(*self.triple(value, path))

    def rgb(self, value, path: str) -> RGB:
        triple = self.triple(value, path)
        try:
            return RGB(*triple)
        except ValueError as exc:
            raise self.fail(path, str(exc)) from None


def _kind(value) -> str:
    if value is None:
        return "null"
    if isinstance(value, bool):
        return f"boolean ({value})"
    if isinstance(value, (int, float)):
        return f"number ({value!r})"
    if isinstance(value, str):
        return f"string ({value!r})"
    if isinstance(value, list):
        return f"array of {len(value)}"
    if isinstance(value, dict):
        return "object"
    return type(value).__name__


# -- reading -----------------------------------------------------------------


def _finite_patch(patch: Patch) -> bool:
    """Finite inputs can still overflow: ``origin + eu`` past the float
    range, or ``eu x ev`` and the Gram matrix of long edges.  A
    non-finite corner would make the octree root, and every box the
    flat walk prunes with, infinite or NaN."""
    values = [c for corner in patch.corners() for c in corner]
    values += [patch.area, patch._d, patch._inv_uu, patch._inv_vv, patch._det_inv]
    return all(math.isfinite(x) for x in values)


def _material_from_doc(v: _Validator, name: str, raw, path: str) -> Material:
    spec = v.obj(raw, path)
    v.no_unknown_keys(spec, {"diffuse", "specular", "gloss", "emission"}, path)
    diffuse = (
        v.rgb(spec["diffuse"], f"{path}.diffuse") if "diffuse" in spec else BLACK
    )
    emission = (
        v.rgb(spec["emission"], f"{path}.emission") if "emission" in spec else BLACK
    )
    specular = (
        v.number(spec["specular"], f"{path}.specular") if "specular" in spec else 0.0
    )
    gloss = None
    if spec.get("gloss") is not None:
        gloss = v.number(spec["gloss"], f"{path}.gloss")
    try:
        return Material(
            name=name, diffuse=diffuse, specular=specular, gloss=gloss,
            emission=emission,
        )
    except ValueError as exc:
        raise v.fail(path, str(exc)) from None


def scene_from_doc(
    doc: dict, *, source: str = "<dict>", text: Optional[str] = None
) -> Scene:
    """Build a :class:`Scene` from a parsed schema document (strict).

    The one build path shared by :func:`load_scene` (JSON) and
    :func:`load_obj` (which translates into this schema first), so both
    formats validate and construct identically.
    """
    v = _Validator(source, text)
    root = v.obj(doc, "")
    v.no_unknown_keys(
        root,
        {"format", "version", "name", "metadata", "octree", "camera",
         "materials", "patches"},
        "",
    )
    fmt = v.string(v.require(root, "format", ""), "format")
    if fmt != SCENE_FORMAT:
        raise v.fail("format", f"expected {SCENE_FORMAT!r}, got {fmt!r}")
    version = v.integer(v.require(root, "version", ""), "version")
    if version != SCENE_SCHEMA_VERSION:
        raise v.fail(
            "version",
            f"unsupported schema version {version} (this reader understands "
            f"version {SCENE_SCHEMA_VERSION})",
        )
    name = v.string(v.require(root, "name", ""), "name")

    octree = dict(_OCTREE_DEFAULTS)
    if "octree" in root:
        raw = v.obj(root["octree"], "octree")
        v.no_unknown_keys(raw, set(_OCTREE_DEFAULTS), "octree")
        for key in raw:
            value = v.integer(raw[key], f"octree.{key}")
            if value < 1:
                raise v.fail(f"octree.{key}", f"must be >= 1, got {value}")
            octree[key] = value

    camera = None
    if "camera" in root:
        raw = v.obj(root["camera"], "camera")
        v.no_unknown_keys(
            raw, {"position", "look_at", "vertical_fov_degrees"}, "camera"
        )
        camera = {
            "position": v.vec3(v.require(raw, "position", "camera"), "camera.position"),
            "look_at": v.vec3(v.require(raw, "look_at", "camera"), "camera.look_at"),
        }
        if "vertical_fov_degrees" in raw:
            fov = v.number(raw["vertical_fov_degrees"], "camera.vertical_fov_degrees")
            if not 0.0 < fov < 180.0:
                raise v.fail(
                    "camera.vertical_fov_degrees",
                    f"must be in (0, 180) degrees, got {fov}",
                )
            camera["vertical_fov_degrees"] = fov

    metadata = {}
    if "metadata" in root:
        metadata = v.obj(root["metadata"], "metadata")

    materials_raw = v.obj(v.require(root, "materials", ""), "materials")
    if not materials_raw:
        raise v.fail("materials", "a scene needs at least one material")
    materials = {
        mat_name: _material_from_doc(v, mat_name, raw, f"materials.{mat_name}")
        for mat_name, raw in materials_raw.items()
    }

    patches_raw = v.require(root, "patches", "")
    if not isinstance(patches_raw, list) or not patches_raw:
        raise v.fail(
            "patches", f"expected a non-empty array, got {_kind(patches_raw)}"
        )
    patches: list[Patch] = []
    beam_half_angles: dict[int, float] = {}
    for i, raw in enumerate(patches_raw):
        path = f"patches[{i}]"
        spec = v.obj(raw, path)
        v.no_unknown_keys(
            spec, {"name", "material", "origin", "eu", "ev", "beam_half_angle"},
            path,
        )
        mat_name = v.string(v.require(spec, "material", path), f"{path}.material")
        material = materials.get(mat_name)
        if material is None:
            raise v.fail(
                f"{path}.material",
                f"undefined material {mat_name!r}; defined: {sorted(materials)}",
            )
        origin = v.vec3(v.require(spec, "origin", path), f"{path}.origin")
        eu = v.vec3(v.require(spec, "eu", path), f"{path}.eu")
        ev = v.vec3(v.require(spec, "ev", path), f"{path}.ev")
        patch_name = ""
        if "name" in spec:
            patch_name = v.string(spec["name"], f"{path}.name")
        try:
            patch = Patch(origin, eu, ev, material, name=patch_name)
        except ValueError as exc:
            raise v.fail(path, str(exc)) from None
        if not _finite_patch(patch):
            raise v.fail(
                path,
                "corners or edges overflow: a corner, the area or the plane "
                "constants of this patch are not finite",
            )
        if "beam_half_angle" in spec:
            angle = v.number(spec["beam_half_angle"], f"{path}.beam_half_angle")
            if angle <= 0:
                raise v.fail(
                    f"{path}.beam_half_angle", f"must be positive, got {angle}"
                )
            if not material.is_emitter:
                raise v.fail(
                    f"{path}.beam_half_angle",
                    f"material {mat_name!r} is not an emitter; collimation "
                    "only applies to luminaires",
                )
            beam_half_angles[i] = angle
        patches.append(patch)

    try:
        scene = Scene(
            patches,
            name=name,
            beam_half_angles=beam_half_angles,
            leaf_capacity=octree["leaf_capacity"],
            max_depth=octree["max_depth"],
            default_camera=camera,
        )
    except ValueError as exc:
        raise v.fail("patches", str(exc)) from None
    generator = metadata.get("generator")
    if isinstance(generator, dict):
        scene.generator_metadata = dict(generator)
    return scene


def parse_scene(text: str, *, source: str = "<string>") -> Scene:
    """Parse a JSON scene document from *text* (strict, line-precise)."""
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise SceneFormatError(
            f"invalid JSON: {exc.msg}", source=source, line=exc.lineno
        ) from None
    except ValueError as exc:  # an integer literal past int's digit limit
        raise SceneFormatError(f"invalid JSON: {exc}", source=source) from None
    return scene_from_doc(doc, source=source, text=text)


def load_scene(path: Union[str, Path]) -> Scene:
    """Load a ``photon-scene`` JSON file from *path*."""
    path = Path(path)
    try:
        text = path.read_text(encoding="utf-8")
    except OSError as exc:
        raise SceneFormatError(f"cannot read scene file: {exc}", source=str(path)) from None
    return parse_scene(text, source=str(path))


def load_scene_file(path: Union[str, Path]) -> Scene:
    """Load a scene file by extension: ``.obj`` -> OBJ subset, else JSON."""
    path = Path(path)
    if path.suffix.lower() == ".obj":
        return load_obj(path)
    return load_scene(path)


# -- writing -----------------------------------------------------------------


def _rgb_list(rgb: RGB) -> list[float]:
    return [rgb.r, rgb.g, rgb.b]


def _vec_list(vec: Vec3) -> list[float]:
    return [vec.x, vec.y, vec.z]


def _material_to_doc(material: Material) -> dict:
    doc: dict = {}
    if material.diffuse != BLACK:
        doc["diffuse"] = _rgb_list(material.diffuse)
    if material.specular != 0.0:
        doc["specular"] = material.specular
    if material.gloss is not None:
        doc["gloss"] = material.gloss
    if material.emission != BLACK:
        doc["emission"] = _rgb_list(material.emission)
    return doc


def scene_to_doc(scene: Scene) -> dict:
    """Serialise *scene* into a schema document (deterministic layout).

    Materials are deduplicated by optical content: patches sharing one
    :class:`Material` value reference one entry; distinct materials that
    collide on name get a ``#2``-style suffix, so the document is
    unambiguous whatever the builders named things.  The layout is a
    pure function of the scene, which is what makes
    ``save -> load -> save`` byte-stable (the round-trip tests rely on
    that).
    """
    materials: dict[str, dict] = {}
    key_of: dict[Material, str] = {}
    for patch in scene.patches:
        material = patch.material
        if material in key_of:
            continue
        key = material.name or "material"
        serial = 1
        while key in materials:
            serial += 1
            key = f"{material.name or 'material'}#{serial}"
        materials[key] = _material_to_doc(material)
        key_of[material] = key

    beam_angles = {
        lum.patch.patch_id: lum.beam_half_angle
        for lum in scene.luminaires
        if lum.beam_half_angle is not None
    }
    patches = []
    for patch in scene.patches:
        entry: dict = {}
        if patch.name:
            entry["name"] = patch.name
        entry["material"] = key_of[patch.material]
        entry["origin"] = _vec_list(patch.p0)
        entry["eu"] = _vec_list(patch.eu)
        entry["ev"] = _vec_list(patch.ev)
        if patch.patch_id in beam_angles:
            entry["beam_half_angle"] = beam_angles[patch.patch_id]
        patches.append(entry)

    doc: dict = {
        "format": SCENE_FORMAT,
        "version": SCENE_SCHEMA_VERSION,
        "name": scene.name,
    }
    generator = getattr(scene, "generator_metadata", None)
    if generator:
        doc["metadata"] = {"generator": dict(generator)}
    octree = {
        "leaf_capacity": scene.leaf_capacity,
        "max_depth": scene.max_depth,
    }
    if octree != _OCTREE_DEFAULTS:
        doc["octree"] = octree
    registered = scene._default_camera  # raw: None when derived from bounds
    if registered is not None:
        camera = {
            "position": _vec_list(registered["position"]),
            "look_at": _vec_list(registered["look_at"]),
        }
        if "vertical_fov_degrees" in registered:
            camera["vertical_fov_degrees"] = registered["vertical_fov_degrees"]
        doc["camera"] = camera
    doc["materials"] = materials
    doc["patches"] = patches
    return doc


def scene_to_json(scene: Scene) -> str:
    """The byte-stable JSON serialisation of *scene* (ends in newline)."""
    return json.dumps(scene_to_doc(scene), indent=2) + "\n"


def save_scene(scene: Scene, path: Union[str, Path]) -> Path:
    """Write *scene* as a ``photon-scene`` JSON file; returns the path."""
    path = Path(path)
    path.write_text(scene_to_json(scene), encoding="utf-8")
    return path


# -- OBJ subset --------------------------------------------------------------


def _finite_float(text: str) -> float:
    """``float(text)``, refusing ``nan``/``inf`` and literals past the float
    range (``1e400``), which ``float`` accepts; raises ``ValueError``."""
    value = float(text)
    if not math.isfinite(value):
        raise ValueError(f"non-finite value {text!r}")
    return value


def parse_obj(
    text: str,
    *,
    source: str = "<obj>",
    name: str = "obj-scene",
    mtl_loader: Optional[Callable[[str], str]] = None,
) -> Scene:
    """Parse a Wavefront OBJ subset into a :class:`Scene`.

    Supported subset: ``v`` vertices, quad ``f`` faces (each must be a
    parallelogram — the engine's primitive), ``o``/``g`` grouping names,
    ``usemtl``/``mtllib``, comments; ``vn``/``vt``/``s`` are accepted
    and ignored.  MTL maps ``Kd`` -> diffuse, ``Ke`` -> emission,
    mean ``Ks`` -> specular with ``Ns`` -> gloss.  Everything else —
    triangles, non-parallelogram quads, unknown keywords — fails with a
    :class:`SceneFormatError` naming the source line.

    The parsed geometry is translated into the JSON schema document and
    built by :func:`scene_from_doc`, so OBJ input passes through exactly
    the same validation as native JSON scenes.
    """

    def fail(lineno: int, message: str) -> SceneFormatError:
        return SceneFormatError(message, source=source, line=lineno)

    vertices: list[tuple[float, float, float]] = []
    materials: dict[str, dict] = {}
    patches: list[dict] = []
    current_material: Optional[str] = None
    group = ""
    face_serial = 0

    for lineno, raw_line in enumerate(text.splitlines(), start=1):
        line = raw_line.split("#", 1)[0].strip()
        if not line:
            continue
        keyword, _, rest = line.partition(" ")
        fields = rest.split()
        if keyword == "v":
            if len(fields) < 3:
                raise fail(lineno, f"vertex needs 3 coordinates, got {len(fields)}")
            try:
                vertices.append(tuple(_finite_float(f) for f in fields[:3]))
            except ValueError:
                raise fail(
                    lineno, f"non-numeric or non-finite vertex coordinate in {rest!r}"
                ) from None
        elif keyword == "f":
            if len(fields) == 3:
                raise fail(
                    lineno,
                    "triangle face: the engine's primitive is the "
                    "parallelogram; export quads",
                )
            if len(fields) != 4:
                raise fail(lineno, f"face needs exactly 4 vertices, got {len(fields)}")
            corners = []
            for field in fields:
                idx_text = field.split("/", 1)[0]
                try:
                    idx = int(idx_text)
                except ValueError:
                    raise fail(lineno, f"bad vertex index {field!r}") from None
                if idx < 0:
                    idx = len(vertices) + 1 + idx
                if not 1 <= idx <= len(vertices):
                    raise fail(
                        lineno,
                        f"vertex index {idx_text} out of range "
                        f"(file defines {len(vertices)} vertices so far)",
                    )
                corners.append(vertices[idx - 1])
            c0, c1, c2, c3 = corners
            eu = tuple(a - b for a, b in zip(c1, c0))
            ev = tuple(a - b for a, b in zip(c3, c0))
            implied = tuple(o + u + w for o, u, w in zip(c0, eu, ev))
            if not all(math.isfinite(x) for x in (*eu, *ev, *implied)):
                raise fail(lineno, "face edges overflow to a non-finite value")
            scale = max(1.0, *(abs(c) for corner in corners for c in corner))
            if any(abs(a - b) > 1e-9 * scale for a, b in zip(implied, c2)):
                raise fail(
                    lineno,
                    f"face is not a parallelogram: corner 3 is {list(c2)}, "
                    f"a parallelogram implies {list(implied)}",
                )
            if current_material is None:
                materials.setdefault("default", {"diffuse": [0.5, 0.5, 0.5]})
                current_material = "default"
            face_serial += 1
            patches.append({
                "name": f"{group or 'face'}.{face_serial}",
                "material": current_material,
                "origin": list(c0),
                "eu": list(eu),
                "ev": list(ev),
            })
        elif keyword == "usemtl":
            if not fields:
                raise fail(lineno, "usemtl needs a material name")
            current_material = fields[0]
            if current_material not in materials:
                raise fail(
                    lineno,
                    f"usemtl {current_material!r} before any mtllib defined it; "
                    f"defined: {sorted(materials)}",
                )
        elif keyword == "mtllib":
            if not fields:
                raise fail(lineno, "mtllib needs a file name")
            for lib in fields:
                if mtl_loader is None:
                    raise fail(
                        lineno,
                        f"mtllib {lib!r}: no material library loader available "
                        "(load via load_obj(path) so the .mtl resolves "
                        "relative to the .obj)",
                    )
                try:
                    mtl_text = mtl_loader(lib)
                except OSError as exc:
                    raise fail(lineno, f"cannot read mtllib {lib!r}: {exc}") from None
                materials.update(_parse_mtl(mtl_text, source=lib))
        elif keyword in ("o", "g"):
            group = fields[0] if fields else ""
        elif keyword in ("vn", "vt", "s"):
            continue
        else:
            raise fail(
                lineno,
                f"unsupported OBJ keyword {keyword!r} (subset: v, f, o, g, "
                "usemtl, mtllib, vn/vt/s ignored)",
            )

    doc = {
        "format": SCENE_FORMAT,
        "version": SCENE_SCHEMA_VERSION,
        "name": name,
        "materials": materials,
        "patches": patches,
    }
    return scene_from_doc(doc, source=source)


def _parse_mtl(text: str, *, source: str) -> dict[str, dict]:
    """MTL subset -> schema material documents (Kd/Ke/Ks/Ns)."""
    materials: dict[str, dict] = {}
    current: Optional[dict] = None
    pending: dict[str, list[float]] = {}

    def finish() -> None:
        if current is None:
            return
        ks = pending.get("Ks")
        if ks and any(k > 0 for k in ks):
            current["specular"] = sum(ks) / 3.0
            ns = pending.get("Ns")
            if ns and ns[0] > 0:
                current["gloss"] = ns[0]
        pending.clear()

    for lineno, raw_line in enumerate(text.splitlines(), start=1):
        line = raw_line.split("#", 1)[0].strip()
        if not line:
            continue
        keyword, _, rest = line.partition(" ")
        fields = rest.split()
        if keyword == "newmtl":
            finish()
            if not fields:
                raise SceneFormatError(
                    "newmtl needs a name", source=source, line=lineno
                )
            current = materials.setdefault(fields[0], {})
        elif keyword in ("Kd", "Ke", "Ks", "Ns"):
            if current is None:
                raise SceneFormatError(
                    f"{keyword} before any newmtl", source=source, line=lineno
                )
            try:
                values = [_finite_float(f) for f in fields]
            except ValueError:
                raise SceneFormatError(
                    f"non-numeric or non-finite {keyword} value in {rest!r}",
                    source=source, line=lineno,
                ) from None
            if keyword == "Ns":
                pending["Ns"] = values[:1]
            elif len(values) < 3:
                raise SceneFormatError(
                    f"{keyword} needs 3 components, got {len(values)}",
                    source=source, line=lineno,
                )
            elif keyword == "Kd":
                current["diffuse"] = values[:3]
            elif keyword == "Ke":
                if any(v > 0 for v in values[:3]):
                    current["emission"] = values[:3]
            else:
                pending["Ks"] = values[:3]
        # Unknown MTL statements (Ka, d, illum, map_*) are ignored: they
        # have no counterpart in the material model.
    finish()
    return materials


def load_obj(path: Union[str, Path]) -> Scene:
    """Load an OBJ-subset file; ``mtllib`` resolves relative to *path*."""
    path = Path(path)
    try:
        text = path.read_text(encoding="utf-8")
    except OSError as exc:
        raise SceneFormatError(f"cannot read scene file: {exc}", source=str(path)) from None
    return parse_obj(
        text,
        source=str(path),
        name=path.stem,
        mtl_loader=lambda lib: (path.parent / lib).read_text(encoding="utf-8"),
    )
