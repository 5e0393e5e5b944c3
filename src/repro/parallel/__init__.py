"""The serving path's process-parallel backend and its shared-memory planes.

The paper's own parallel algorithms (Figures 5.2 and 5.3, chapter 6)
live in :mod:`repro.paper`.
"""

from .procpool import (
    PhotonPool,
    run_procpool,
    trace_events_parallel,
)
from .resultplane import (
    ResultBlockHandle,
    ResultPlane,
    ResultPlaneWarning,
    ShardResult,
)
from .shmplane import (
    PlaneHandle,
    PlaneRegistry,
    ScenePlane,
    plane_available,
    plane_registry,
)

__all__ = [
    "PhotonPool",
    "PlaneHandle",
    "PlaneRegistry",
    "ResultBlockHandle",
    "ResultPlane",
    "ResultPlaneWarning",
    "ScenePlane",
    "ShardResult",
    "plane_available",
    "plane_registry",
    "run_procpool",
    "trace_events_parallel",
]
