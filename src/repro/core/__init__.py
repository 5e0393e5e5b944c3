"""The Photon algorithm's serving core: binning, the vector engine, viewing.

The scalar physics of Figure 4.1 (``emit_photon``, ``reflect``, the
``Photon`` record) is the paper tier's oracle and lives in
:mod:`repro.paper.physics`.
"""

from .answerfile import forest_from_dict, forest_to_dict, load_answer, save_answer
from .binning import NUM_AXES, TWO_PI, BinCoords, BinNode
from .bintree import BinForest, BinTree, SplitPolicy
from .convergence import forest_error_summary
from .fluorescence import FluorescenceSpec
from .photon import NUM_BANDS
from .radiance import RadianceField
from .simulator import MAX_BOUNCES, SimulationConfig, SimulationResult, TraceStats
from .vectorized import (
    EVENT_FIELDS,
    EventBatch,
    SceneArrays,
    VectorEngine,
    photon_substream,
)
from .viewing import Camera, render, render_rows

__all__ = [
    "BinCoords",
    "BinForest",
    "BinNode",
    "BinTree",
    "Camera",
    "EVENT_FIELDS",
    "EventBatch",
    "FluorescenceSpec",
    "MAX_BOUNCES",
    "NUM_AXES",
    "NUM_BANDS",
    "RadianceField",
    "SceneArrays",
    "SimulationConfig",
    "SimulationResult",
    "SplitPolicy",
    "TWO_PI",
    "TraceStats",
    "VectorEngine",
    "forest_error_summary",
    "forest_from_dict",
    "forest_to_dict",
    "load_answer",
    "photon_substream",
    "render",
    "render_rows",
    "save_answer",
]
