"""Task-oriented grasping from partial point clouds.

Resolves a natural-language instruction to an object part, finds that part
in a captured cloud by template matching, registers the matched template,
and transfers annotated grasps onto the observed object.
"""

from .errors import TogError
from .geometry import Aabb, PointCloud, RigidTransform
from .ontology import Instruction, OntologyGraph, ResolvedPart, default_graph, resolve
from .pipeline import PipelineConfig, PipelineResult, export_artifacts, run_pipeline
from .planning import GraspCandidate, plan
from .recognition import RecognitionResult, recognize
from .registration import RegistrationResult, register
from .templates import (
    GraspPose,
    GripperConfig,
    Template,
    build_template,
    load_db,
    save_db,
)

__version__ = "0.1.0"

__all__ = [
    "Aabb",
    "GraspCandidate",
    "GraspPose",
    "GripperConfig",
    "Instruction",
    "OntologyGraph",
    "PipelineConfig",
    "PipelineResult",
    "PointCloud",
    "RecognitionResult",
    "RegistrationResult",
    "ResolvedPart",
    "RigidTransform",
    "Template",
    "TogError",
    "__version__",
    "build_template",
    "default_graph",
    "export_artifacts",
    "load_db",
    "plan",
    "recognize",
    "register",
    "resolve",
    "run_pipeline",
    "save_db",
]
