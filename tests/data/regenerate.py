#!/usr/bin/env python
"""Regenerate the golden answerfiles under tests/data/.

Run from the repo root after an *intentional* physics change::

    PYTHONPATH=src python tests/data/regenerate.py

Each golden is the byte-exact ``save_answer`` output of a small fixed
simulation.  ``*.substream.answer.json`` files are engine-independent
(scalar-substream, vector, and procpool runs must all reproduce them);
``cornell-box.stream.answer.json`` pins the historical scalar
single-stream physics.  The regression tests in
``tests/core/test_golden_answers.py`` diff fresh runs against these
bytes, so *any* silent drift — RNG order, intersection tie rules, split
statistics, serialisation — fails loudly.

``images.sha256`` pins the viewing stage the same way: each substream
golden rendered at 64x48 from its scene's default camera, tone-mapped
and PPM-encoded, one ``sha256sum``-format line per image (so CI can
check a ``repro view`` output with ``sha256sum -c``).  The committed
hashes were first produced by the per-pixel scalar viewer that the
batched one replaced; ``tests/core/test_golden_images.py`` holds every
later viewer to them.
"""

from __future__ import annotations

import hashlib
from pathlib import Path

from repro.api import RenderSession
from repro.core import SimulationConfig, load_answer, save_answer
from repro.image.ppm import ppm_bytes
from repro.image.tonemap import to_uint8
from repro.paper.scalar import run_scalar
from repro.scenes import build_scene

DATA_DIR = Path(__file__).parent
GOLDEN_PHOTONS = 240
GOLDEN_SEED = 0x1234ABCD330E
SCENES = ("cornell-box", "computer-lab", "harpsichord-room")
#: Generated-corpus goldens: each spec pins the procedural generator's
#: layout *and* the engines at once (a generator change shows up as a
#: golden diff, exactly like a physics change).  Filenames replace the
#: spec's ':' with '-': gen:office-64 -> gen-office-64.substream.answer.json.
GEN_SCENES = ("gen:office-64",)
IMAGE_HASHES = DATA_DIR / "images.sha256"
IMAGE_WIDTH, IMAGE_HEIGHT = 64, 48


def golden_name(spec: str) -> str:
    """Committed answerfile name for a scene name or ``gen:`` spec."""
    return f"{spec.replace(':', '-')}.substream.answer.json"


def golden_image_name(spec: str) -> str:
    """Name of the PPM that :data:`IMAGE_HASHES` lists for *spec*."""
    return f"{spec.replace(':', '-')}.{IMAGE_WIDTH}x{IMAGE_HEIGHT}.ppm"


def golden_image_bytes(scene, forest) -> bytes:
    """*forest* viewed from *scene*'s default camera, as `repro view` writes it."""
    with RenderSession(scene) as session:
        image = session.render(forest, width=IMAGE_WIDTH, height=IMAGE_HEIGHT)
    return ppm_bytes(to_uint8(image))


def golden_config() -> SimulationConfig:
    """The exact configuration every golden is produced with."""
    return SimulationConfig(n_photons=GOLDEN_PHOTONS, seed=GOLDEN_SEED)


def main() -> None:
    image_lines = []
    for name in SCENES + GEN_SCENES:
        scene = build_scene(name)
        result = run_scalar(scene, golden_config(), rng="substream")
        out = DATA_DIR / golden_name(name)
        save_answer(result.forest, out)
        print(f"wrote {out} ({out.stat().st_size} bytes)")
        # Rendered from the file just written, exactly as `repro view` would.
        ppm = golden_image_bytes(scene, load_answer(out))
        image_lines.append(
            f"{hashlib.sha256(ppm).hexdigest()}  {golden_image_name(name)}\n"
        )
    IMAGE_HASHES.write_text("".join(image_lines))
    print(f"wrote {IMAGE_HASHES} ({len(image_lines)} images)")
    scene = build_scene("cornell-box")
    result = run_scalar(scene, golden_config(), rng="stream")
    out = DATA_DIR / "cornell-box.stream.answer.json"
    save_answer(result.forest, out)
    print(f"wrote {out} ({out.stat().st_size} bytes)")


if __name__ == "__main__":
    main()
