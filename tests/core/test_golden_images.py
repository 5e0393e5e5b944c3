"""Golden image regression: the viewing stage may not drift silently.

``tests/data/images.sha256`` lists the sha256 of each substream golden
answer rendered at 64x48 from its scene's default camera, tone-mapped
and PPM-encoded (see ``tests/data/regenerate.py``).  The hashes were
first produced by the per-pixel scalar viewer; the batched viewer that
replaced it — and every viewer after it — must land on the same bytes
through the public pipeline ``RenderSession.render`` -> ``to_uint8`` ->
``ppm_bytes``, which is also what ``repro view`` writes.
"""

from __future__ import annotations

import hashlib
import io

import pytest

from repro.cli import main as cli_main
from repro.core import load_answer
from tests.core.test_golden_answers import SCENE_FIXTURES, scene_for
from tests.data.regenerate import (
    DATA_DIR,
    IMAGE_HASHES,
    golden_image_bytes,
    golden_image_name,
    golden_name,
)


def committed_hashes() -> dict[str, str]:
    """Image name -> sha256 hex, from the ``sha256sum``-format file."""
    assert IMAGE_HASHES.exists(), "image goldens missing — run tests/data/regenerate.py"
    pairs = (line.split() for line in IMAGE_HASHES.read_text().splitlines())
    return {name: digest for digest, name in pairs}


@pytest.mark.parametrize("scene_name", sorted(SCENE_FIXTURES))
def test_session_render_matches_golden(request, scene_name):
    scene = scene_for(request, scene_name)
    forest = load_answer(DATA_DIR / golden_name(scene_name))
    got = hashlib.sha256(golden_image_bytes(scene, forest)).hexdigest()
    assert got == committed_hashes()[golden_image_name(scene_name)]


def test_every_substream_golden_has_an_image():
    answers = {
        golden_image_name(path.name.removesuffix(".substream.answer.json"))
        for path in DATA_DIR.glob("*.substream.answer.json")
    }
    assert answers == set(committed_hashes())


def test_cli_view_writes_the_golden_bytes(tmp_path):
    """`repro view` at 64x48 writes the bytes `images.sha256` pins."""
    out = tmp_path / golden_image_name("cornell-box")
    rc = cli_main(
        [
            "view", "cornell-box",
            str(DATA_DIR / golden_name("cornell-box")),
            "--out", str(out), "--width", "64", "--height", "48",
        ],
        out=io.StringIO(),
    )
    assert rc == 0
    got = hashlib.sha256(out.read_bytes()).hexdigest()
    assert got == committed_hashes()[out.name]
