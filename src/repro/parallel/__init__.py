"""The serving path's process-parallel backend and its shared-memory planes.

The paper's own parallel algorithms (Figures 5.2 and 5.3, chapter 6)
live in :mod:`repro.paper`.
"""

from .procpool import PhotonPool
from .resultplane import (
    ResultBlockHandle,
    ResultPlane,
    ShardResult,
)
from .shmplane import PlaneHandle, ScenePlane, plane_available

__all__ = [
    "PhotonPool",
    "PlaneHandle",
    "ResultBlockHandle",
    "ResultPlane",
    "ScenePlane",
    "ShardResult",
    "plane_available",
]
