"""repro — reproduction of *Parallel Hierarchical Global Illumination* (Snell, 1997).

The package implements **Photon**, a Monte Carlo light-transport global
illumination solver with a four-dimensional adaptive histogram answer
representation, together with its shared-memory and distributed-memory
parallelizations, the cluster cost models used to reproduce the paper's
speedup studies, and the chapter-2 baseline algorithms (Whitted ray
tracing and matrix/hierarchical radiosity).

Quick start (the stable public surface is :mod:`repro.api` — a scene
compiled once, served by a persistent session)::

    from repro.api import RenderSession, SimulateRequest

    with RenderSession("cornell-box") as session:
        result = session.simulate(SimulateRequest(n_photons=20_000))
        image = session.render(result)  # the scene's registered view

See README.md for the overview and docs/ARCHITECTURE.md for the design.
The ``benchmarks/`` suite regenerates every table and figure of the
paper and asserts its shape (the rule is stated in
``benchmarks/conftest.py``).
"""

__version__ = "1.0.0"

__all__ = ["__version__"]
