"""Parallel Photon: MPI-like substrate, shared- and distributed-memory drivers."""

from ..core.bintree import merge_rank_forests
from .distributed import (
    DistributedConfig,
    DistributedResult,
    RankResult,
    build_balance,
    distributed_worker,
    run_distributed,
    serial_replay,
)
from .geomdist import (
    GeomDistConfig,
    GeomDistResult,
    GeomRankResult,
    RegionGrid,
    run_geometry_distributed,
    serial_reference_tallies,
)
from .loadbalance import (
    Assignment,
    DEFAULT_PILOT_PHOTONS,
    OwnershipMap,
    UnitInfo,
    assign_units,
    load_imbalance,
    pilot_counts,
    pilot_forest,
)
from .mpi import ANY_SOURCE, CommStats, SimComm, run_parallel
from .procpool import (
    PhotonPool,
    build_forest_parallel,
    partition_patches,
    rank_share,
    run_procpool,
    trace_events_parallel,
)
from .resultplane import (
    ResultBlockHandle,
    ResultPlane,
    ResultPlaneWarning,
    ShardResult,
)
from .shared import RWLock, SharedConfig, SharedForest, SharedResult, run_shared
from .shmplane import (
    PlaneHandle,
    PlaneRegistry,
    ScenePlane,
    plane_available,
    plane_registry,
)

__all__ = [
    "ANY_SOURCE",
    "Assignment",
    "CommStats",
    "DEFAULT_PILOT_PHOTONS",
    "DistributedConfig",
    "DistributedResult",
    "GeomDistConfig",
    "GeomDistResult",
    "GeomRankResult",
    "OwnershipMap",
    "PhotonPool",
    "PlaneHandle",
    "PlaneRegistry",
    "RegionGrid",
    "ResultBlockHandle",
    "ResultPlane",
    "ResultPlaneWarning",
    "ShardResult",
    "run_geometry_distributed",
    "serial_reference_tallies",
    "RWLock",
    "RankResult",
    "ScenePlane",
    "SharedConfig",
    "SharedForest",
    "SharedResult",
    "SimComm",
    "UnitInfo",
    "assign_units",
    "build_balance",
    "build_forest_parallel",
    "distributed_worker",
    "load_imbalance",
    "merge_rank_forests",
    "partition_patches",
    "pilot_counts",
    "pilot_forest",
    "plane_available",
    "plane_registry",
    "rank_share",
    "run_distributed",
    "run_parallel",
    "run_procpool",
    "run_shared",
    "serial_replay",
    "trace_events_parallel",
]
