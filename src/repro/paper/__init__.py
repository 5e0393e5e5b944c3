"""The paper-reproduction tier: the 1997 algorithms and platform models.

Everything here reproduces a figure, table or baseline of the paper and
nothing on the serving path imports it (``tests/api/test_public_api.py``
``TestImportFence``; the CLI imports it only inside the ``trace`` and
``scenes`` commands):

* :mod:`.scalar` — the serial Photon loop of Figure 4.1, the oracle the
  vector engine's answers are checked against (called from Python
  only; ``repro simulate`` serves a session), tracing through the
  chapter-6 pointer octree of :mod:`.octree` with the per-photon
  emission, reflection and fluorescence of :mod:`.physics`;
* :mod:`.polarization` — the chapter-6 Stokes-vector extension of that
  reflection step;
* :mod:`.histogram` — the chapter-3 one-dimensional adaptive histograms;
* :mod:`.shared` — threads over a reader/writer-locked forest (Figure 5.2);
* :mod:`.distributed` — rank-sharded forests with event forwarding
  (Figure 5.3), balanced by :mod:`.loadbalance`;
* :mod:`.geomdist` — geometry distribution with wire photons (chapter 6);
* :mod:`.mpi` — the in-process MPI substrate those drivers run on;
* :mod:`.cluster` and :mod:`.perf` — cost models of the three 1997
  platforms, the Table 5.3 batch controller (:mod:`.cluster.batch`),
  and the speedup tables and traces read off them;
* :mod:`.radiosity`, :mod:`.raytrace` and :mod:`.densityestimation` —
  the chapter-2 baselines.

The drivers trace one photon at a time, as the paper's pseudo-code
does; only :mod:`.geomdist` batches its redundant all-photon emission
(bit-exact with :func:`repro.paper.physics.emit_photon`).  The serving
engines live in :mod:`repro.core.vectorized` and :mod:`repro.parallel`.
"""
