"""The pointer octree is built only when the scalar tracer asks for it.

Vector serving — compile, simulate, render, save — never walks the
pointer octree, so a :class:`Scene` builds it on first use of
``scene.octree``, once, under a lock.  These tests spy on
``Octree.__init__`` to pin both halves, pin that the tree-free
``Scene.bounds()`` is the tree's root cell bit for bit, and serve a
scene whose octree parameters make the pointer tree explode.
"""

from __future__ import annotations

import json
import pickle
import threading
import time

import pytest

from repro.api import RenderSession, SceneProgram, SessionOptions, SimulateRequest
from repro.geometry import Octree, Scene
from repro.scenes import generate_scene, save_scene
from repro.scenes.loader import parse_scene


@pytest.fixture()
def octree_builds(monkeypatch):
    """Count ``Octree`` constructions (slowed down, to widen any race)."""
    built: list[Octree] = []
    real_init = Octree.__init__

    def spy(self, *args, **kwargs):
        time.sleep(0.05)
        real_init(self, *args, **kwargs)
        built.append(self)

    monkeypatch.setattr(Octree, "__init__", spy)
    return built


def test_vector_serving_never_builds_the_octree(octree_builds, tmp_path):
    scene = generate_scene("office-64")
    program = SceneProgram.compile(scene)
    with RenderSession(program) as session:
        assert session.options.engine == "vector"
        result = session.simulate(SimulateRequest(n_photons=300, seed=11))
        session.render(result, width=16, height=12)
    save_scene(scene, tmp_path / "office.json")
    assert octree_builds == []
    # The spy does see a build: the scalar tracer's first query.
    assert scene.octree is scene.octree
    assert len(octree_builds) == 1


def test_bounds_are_the_octree_root_cell(octree_builds):
    scene = generate_scene("office-8@3")
    bounds = scene.bounds()
    assert octree_builds == []
    assert scene.octree.root.bounds == bounds
    assert scene.default_camera == generate_scene("office-8@3").default_camera


def test_concurrent_scalar_sessions_build_it_once(octree_builds):
    scene = generate_scene("office-8")
    program = SceneProgram.compile(scene, eager=False)
    start = threading.Barrier(4)
    answers, errors = [], []

    def serve(seed):
        try:
            with RenderSession(program, SessionOptions(engine="scalar")) as session:
                start.wait(timeout=30)
                answers.append(session.simulate(
                    SimulateRequest(n_photons=40, seed=seed, rng_mode="substream")))
        except Exception as exc:  # surfaced below, on the main thread
            errors.append(exc)

    threads = [threading.Thread(target=serve, args=(seed,)) for seed in range(4)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout=120)
    assert errors == [] and len(answers) == 4
    assert len(octree_builds) == 1


def test_concurrent_first_uses_share_one_tree(octree_builds):
    scene = generate_scene("office-8")
    start = threading.Barrier(4)
    trees = []

    def first_use():
        start.wait(timeout=30)
        trees.append(scene.octree)

    threads = [threading.Thread(target=first_use) for _ in range(4)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout=60)
    assert len(trees) == 4 and all(tree is trees[0] for tree in trees)
    assert len(octree_builds) == 1


def test_pickle_drops_the_tree_and_the_lock():
    scene = generate_scene("office-8")
    _ = scene.octree
    clone = pickle.loads(pickle.dumps(scene))
    assert clone._octree is None
    assert clone.octree.stats.node_count == scene.octree.stats.node_count
    assert (clone.leaf_capacity, clone.max_depth) == (scene.leaf_capacity, scene.max_depth)


def test_bad_octree_parameters_still_fail_at_construction():
    doc = {
        "format": "photon-scene", "version": 1, "name": "x",
        "materials": {"lamp": {"emission": [1, 1, 1]}},
        "patches": [{"material": "lamp", "origin": [0, 0, 0],
                     "eu": [1, 0, 0], "ev": [0, 0, 1]}],
    }
    patches = parse_scene(json.dumps(doc)).patches
    with pytest.raises(ValueError, match="leaf_capacity"):
        Scene(patches, leaf_capacity=0)
    with pytest.raises(ValueError, match="max_depth"):
        Scene(patches, max_depth=-1)


#: Two coincident 1 mm quads under a lamp over a floor, with an octree
#: block asking for one patch per leaf and 22 levels: the pointer tree
#: cannot separate the quads and grows about 4x per level to the cap.
EXPLODING_OCTREE = {
    "format": "photon-scene",
    "version": 1,
    "name": "coincident-quads",
    "octree": {"leaf_capacity": 1, "max_depth": 22},
    "materials": {
        "white": {"diffuse": [0.6, 0.6, 0.6]},
        "lamp": {"emission": [5, 5, 5]},
    },
    "patches": [
        {"material": "white", "origin": [0, 0, 1], "eu": [1, 0, 0], "ev": [0, 0, -1]},
        {"material": "lamp", "origin": [0.4, 1, 0.4], "eu": [0.2, 0, 0], "ev": [0, 0, 0.2]},
        {"material": "white", "origin": [0.5, 0.5, 0.501], "eu": [0.001, 0, 0],
         "ev": [0, 0, -0.001]},
        {"material": "white", "origin": [0.5, 0.5, 0.501], "eu": [0.001, 0, 0],
         "ev": [0, 0, -0.001]},
    ],
}


def test_exploding_octree_parameters_serve_a_vector_request():
    """Parse and one vector request in well under the scalar tree's
    build time (which does not finish within a minute)."""
    t0 = time.perf_counter()
    scene = parse_scene(json.dumps(EXPLODING_OCTREE))
    with RenderSession(scene) as session:
        result = session.simulate(SimulateRequest(n_photons=2000, seed=5))
    assert time.perf_counter() - t0 < 2.0
    assert result.forest.photons_emitted == 2000
    assert scene._octree is None
    assert (scene.leaf_capacity, scene.max_depth) == (1, 22)
