"""The Photon algorithm: generation, tracing, 4-D adaptive binning, viewing."""

from .answerfile import forest_from_dict, forest_to_dict, load_answer, save_answer
from .batch import AdaptiveBatchController, BatchDecision
from .binning import AXIS_NAMES, NUM_AXES, TWO_PI, BinCoords, BinNode
from .convergence import (
    ConvergenceStudy,
    ErrorSummary,
    bin_relative_error,
    decay_exponent,
    forest_error_summary,
)
from .fluorescence import FluorescenceSpec, fluorescent_reflect
from .polarization import (
    MuellerMatrix,
    PolarizedPhoton,
    StokesVector,
    depolarizer_mueller,
    fresnel_reflection_mueller,
    polarized_reflect,
    rotation_mueller,
)
from .bintree import NODE_BYTES, BinForest, BinTree, SplitPolicy
from .generation import (
    EmissionRecord,
    SUN_CIRCLE_SCALE,
    SUN_HALF_ANGLE_RADIANS,
    direction_formula,
    direction_formula_batch,
    direction_rejection,
    direction_rejection_batch,
    emit_photon,
    expected_flops_rejection,
    flops_formula,
)
from .photon import BAND_NAMES, NUM_BANDS, Photon
from .radiance import RadianceField, RadianceSample
from .reflection import ReflectionResult, local_frame_coords, reflect
from .simulator import MAX_BOUNCES, SimulationConfig, SimulationResult, TraceStats
from .vectorized import (
    EVENT_FIELDS,
    EmissionBatch,
    EventBatch,
    SceneArrays,
    VectorEngine,
    apply_events,
    photon_substream,
    substream_states,
)
from .viewing import Camera, render, render_rows

__all__ = [
    "AXIS_NAMES",
    "AdaptiveBatchController",
    "BAND_NAMES",
    "BatchDecision",
    "BinCoords",
    "BinForest",
    "BinNode",
    "BinTree",
    "Camera",
    "ConvergenceStudy",
    "ErrorSummary",
    "FluorescenceSpec",
    "MuellerMatrix",
    "PolarizedPhoton",
    "StokesVector",
    "bin_relative_error",
    "decay_exponent",
    "depolarizer_mueller",
    "fluorescent_reflect",
    "forest_error_summary",
    "fresnel_reflection_mueller",
    "polarized_reflect",
    "rotation_mueller",
    "EVENT_FIELDS",
    "EmissionBatch",
    "EmissionRecord",
    "EventBatch",
    "MAX_BOUNCES",
    "NODE_BYTES",
    "SceneArrays",
    "VectorEngine",
    "apply_events",
    "photon_substream",
    "substream_states",
    "NUM_AXES",
    "NUM_BANDS",
    "Photon",
    "RadianceField",
    "RadianceSample",
    "ReflectionResult",
    "SUN_CIRCLE_SCALE",
    "SUN_HALF_ANGLE_RADIANS",
    "SimulationConfig",
    "SimulationResult",
    "SplitPolicy",
    "TWO_PI",
    "TraceStats",
    "direction_formula",
    "direction_formula_batch",
    "direction_rejection",
    "direction_rejection_batch",
    "emit_photon",
    "expected_flops_rejection",
    "flops_formula",
    "forest_from_dict",
    "forest_to_dict",
    "load_answer",
    "local_frame_coords",
    "reflect",
    "render",
    "render_rows",
    "save_answer",
]
