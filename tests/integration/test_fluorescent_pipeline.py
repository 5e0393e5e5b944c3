"""Full-pipeline fluorescence: blue-only light yields a green answer."""

import pytest

from repro.core import FluorescenceSpec, RadianceField, SimulationConfig
from repro.geometry import Scene, Vec3, axis_rect, matte
from repro.geometry.material import Material, RGB, emitter
from repro.paper.scalar import run_scalar, run_scalar_batches


@pytest.fixture(scope="module")
def gallery() -> Scene:
    """Black-lit room: blue-only lamp over a near-black poster floor."""
    dark = matte("dark", 0.1, 0.1, 0.12)
    poster = Material(name="poster", diffuse=RGB(0.05, 0.05, 0.05))
    blue_lamp = emitter("uv", 0.0, 0.0, 10.0)
    patches = [
        axis_rect("y", 0.0, (0, 2), (0, 2), poster, name="poster-floor", flip=True),
        axis_rect("y", 2.0, (0, 2), (0, 2), dark, name="ceiling"),
        axis_rect("x", 0.0, (0, 2), (0, 2), dark, name="w0"),
        axis_rect("x", 2.0, (0, 2), (0, 2), dark, name="w1", flip=True),
        axis_rect("z", 0.0, (0, 2), (0, 2), dark, name="w2"),
        axis_rect("z", 2.0, (0, 2), (0, 2), dark, name="w3", flip=True),
        axis_rect("y", 1.98, (0.7, 1.3), (0.7, 1.3), blue_lamp, name="lamp"),
    ]
    return Scene(patches, name="gallery")


class TestFluorescentPipeline:
    def test_green_appears_only_with_fluorescence(self, gallery):
        spec = FluorescenceSpec.simple(blue_to_green=0.7)
        plain = run_scalar(gallery, SimulationConfig(n_photons=1500, seed=5))
        glowing = run_scalar(
            gallery, SimulationConfig(n_photons=1500, seed=5, fluorescence=spec)
        )
        # Without fluorescence a blue-only scene has zero green tallies.
        assert plain.forest.band_tallies[1] == 0
        assert glowing.forest.band_tallies[1] > 0
        # Red never appears (no green->red conversion configured).
        assert glowing.forest.band_tallies[0] == 0

    def test_green_radiance_on_poster(self, gallery):
        spec = FluorescenceSpec.simple(blue_to_green=0.9)
        res = run_scalar(
            gallery, SimulationConfig(n_photons=4000, seed=6, fluorescence=spec)
        )
        field = RadianceField(gallery, res.forest)
        sample = field.sample(0, 0.5, 0.5, Vec3(0, 1, 0))
        # Note: band power normalisation uses *emitted* band power; the
        # converted photons carry blue-band weight, so we assert on raw
        # counts, the physically meaningful signal here.
        assert sample.counts[1] > 0

    def test_fluorescence_conserves_accounting(self, gallery):
        spec = FluorescenceSpec.simple(blue_to_green=0.5, blue_to_red=0.2)
        res = run_scalar(
            gallery, SimulationConfig(n_photons=1000, seed=7, fluorescence=spec)
        )
        res.forest.check_invariants()
        assert (
            res.forest.total_tallies
            == res.stats.photons + res.stats.reflections
        )

    def test_batches_support_fluorescence(self, gallery):
        spec = FluorescenceSpec.simple(blue_to_green=0.7)
        config = SimulationConfig(n_photons=600, seed=8, fluorescence=spec)
        last = None
        for partial in run_scalar_batches(gallery, config, 200):
            last = partial
        assert last is not None and last.forest.band_tallies[1] > 0
