"""``SceneProgram``: a scene compiled once, shared by every consumer.

The expensive part of serving a scene is not tracing — it is the
compilation the vector engine needs before the first photon moves: the
patch structure-of-arrays and the flat walk's tree
(:class:`~repro.core.vectorized.SceneArrays`).  A
:class:`SceneProgram` compiles it once, and it is reused by any number of
:class:`~repro.api.RenderSession` objects, engines, pools, and profile
runs in the process.

Two levels of sharing:

* **In-process** — :meth:`SceneProgram.compile` caches the program on
  the scene object itself, so every session opened on the same
  :class:`~repro.geometry.scene.Scene` object gets the same program
  (and therefore the same compiled arrays), and dropping the scene
  drops the program — nothing process-global pins compiled arrays.
* **Worker-facing** — :meth:`acquire_plane` / :meth:`release_plane`
  refcount the program's one published shared-memory segment: the
  first acquire publishes it, every concurrent
  :class:`~repro.parallel.procpool.PhotonPool` on the program attaches
  its workers to that **same** ``/dev/shm`` segment, and the last
  release unlinks it.  Independent processes publish independently.
"""

from __future__ import annotations

import threading
from typing import Optional, TYPE_CHECKING

from ..geometry.scene import Scene
from .amortize import ForestCache

if TYPE_CHECKING:  # pragma: no cover — typing only
    from ..core.vectorized import SceneArrays
    from ..parallel.shmplane import PlaneHandle, ScenePlane

__all__ = ["SceneProgram"]

_COMPILE_LOCK = threading.Lock()


class SceneProgram:
    """A scene compiled once: SoA arrays, flat octree, shared plane.

    Programs are hashable by identity (two programs are the same
    program, not merely equal) and safe to share across threads: the
    compiled arrays are immutable by contract, and the plane refcount
    is lock-protected.

    Prefer :meth:`compile` over the constructor — it deduplicates
    programs per scene process-wide, which is what makes "compile once"
    true across independently opened sessions.

    Args:
        scene: The scene to compile.
        name: Program label; defaults to ``scene.name``.
        eager: Compile the kernel arrays now (default).  Pass ``False``
            to defer until :attr:`arrays` is first read.
    """

    def __init__(
        self, scene: Scene, *, name: Optional[str] = None, eager: bool = True
    ) -> None:
        self.scene = scene
        self.name = name if name is not None else scene.name
        self._arrays: Optional["SceneArrays"] = None
        self._arrays_lock = threading.Lock()
        self._plane_lock = threading.Lock()
        self._plane: Optional["ScenePlane"] = None
        self._plane_refs = 0
        # The program-shared amortization cache (repro.api.amortize);
        # sessions opt in with SessionOptions(amortize=True).
        self._forest_cache = ForestCache()
        if eager:
            _ = self.arrays

    @classmethod
    def compile(cls, scene: Scene, *, eager: bool = True) -> "SceneProgram":
        """The program for *scene*, compiled at most once per process.

        Repeated calls with the same scene object return the same
        program, so every session and profile run in the process
        shares one set of compiled arrays.  The cache rides on the
        scene object itself (program and scene form one gc unit), so
        dropping the scene really drops the program — no process-global
        table pins compiled arrays alive.
        """
        program = getattr(scene, "_compiled_program", None)
        if program is None:
            with _COMPILE_LOCK:
                program = getattr(scene, "_compiled_program", None)
                if program is None:
                    program = cls(scene, eager=eager)
                    scene._compiled_program = program
        return program

    # -- compiled artefacts ------------------------------------------------

    @property
    def arrays(self) -> "SceneArrays":
        """The compiled kernel arrays (built on first access, then cached)."""
        if self._arrays is None:
            with self._arrays_lock:
                if self._arrays is None:
                    from ..core.vectorized import SceneArrays

                    self._arrays = SceneArrays(self.scene)
        return self._arrays

    @property
    def compiled(self) -> bool:
        """Whether the kernel arrays have been built yet."""
        return self._arrays is not None

    @property
    def patch_count(self) -> int:
        return len(self.scene.patches)

    @property
    def default_camera(self) -> dict:
        """The scene's viewing defaults (see ``Scene.default_camera``)."""
        return self.scene.default_camera

    # -- shared amortization cache -----------------------------------------

    def forest_cache(self) -> ForestCache:
        """The program's shared :class:`~repro.api.amortize.ForestCache`.

        One cache per program, shared by every session that opts in
        with ``SessionOptions(amortize=True)`` — the trace key is
        worker-count-free, so differently provisioned sessions top each
        other up.
        """
        return self._forest_cache

    def amortize_stats(self) -> dict:
        """The forest cache's counters and occupancy (the /stats stanza):
        exact hits, top-ups, camera-only serves, photons saved, early
        stops, and the number of cached forests.
        """
        snap = self._forest_cache.snapshot()
        return {
            "exact_hits": snap["exact_hits"],
            "topups": snap["topups"],
            "camera_only_hits": snap["camera_only_hits"],
            "photons_saved": snap["photons_saved"],
            "early_stops": snap["early_stops"],
            "forest_entries": snap["entries"],
        }

    # -- shared plane ------------------------------------------------------

    def acquire_plane(self) -> "PlaneHandle":
        """A handle to this program's published plane (refcounted).

        The first acquire publishes the compiled arrays
        (:func:`repro.parallel.shmplane.publish`); later acquires share
        that segment.  A publish that fails raises with no reference
        taken.  Pair every acquire with one :meth:`release_plane` —
        :class:`~repro.parallel.procpool.PhotonPool` does, on every exit
        path.
        """
        from ..parallel import shmplane

        with self._plane_lock:
            if self._plane is None:
                self._plane = shmplane.publish(self.arrays)
            self._plane_refs += 1
            return self._plane.handle

    def release_plane(self) -> None:
        """Drop one plane reference; the last one closes and unlinks the
        segment.  Releasing with no reference held does nothing."""
        with self._plane_lock:
            if self._plane_refs == 0:
                return
            self._plane_refs -= 1
            if self._plane_refs == 0:
                self._plane.close()
                self._plane.unlink()
                self._plane = None

    @property
    def plane_refs(self) -> int:
        """Live plane references (0 when nothing is published)."""
        return self._plane_refs

    def __repr__(self) -> str:  # pragma: no cover — debugging aid
        state = "compiled" if self.compiled else "lazy"
        return f"SceneProgram({self.name!r}, {self.patch_count} patches, {state})"
