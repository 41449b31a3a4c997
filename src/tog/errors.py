"""Exception hierarchy with machine-readable error codes.

Every failure mode the engine can report maps to one exception class with a
stable ``code`` string; the CLI surfaces codes verbatim and exits nonzero.
"""

from __future__ import annotations


class TogError(Exception):
    """Base class for all engine errors.

    :param message: human-readable description.
    :param stage: optional pipeline stage tag (e.g. "register.local").
    """

    code = "error"

    def __init__(self, message: str, stage: str | None = None):
        super().__init__(message)
        self.stage = stage

    def __str__(self) -> str:
        # built on each call, so a stage tagged after construction shows too
        message = super().__str__()
        return message if self.stage is None else f"[{self.stage}] {message}"


class EmptyCloudError(TogError):
    code = "empty-cloud"


class InsufficientPointsError(TogError):
    code = "insufficient-points"


class DegenerateClusterError(TogError):
    code = "degenerate-cluster"


class DegenerateTemplateError(TogError):
    code = "degenerate-template"


class DegeneratePartError(TogError):
    code = "degenerate-part"


class SchemaError(TogError):
    code = "schema"


class CloudParseError(TogError):
    code = "parse"


class NoGraspError(TogError):
    code = "no-grasp"


class UnresolvedPartError(TogError):
    code = "unresolved-part"


class ConclusionParseError(TogError):
    code = "parse"


class FixtureMissingError(TogError):
    code = "fixture-missing"


class OptimizationIncompleteError(TogError):
    code = "optimization-incomplete"

    def __init__(self, message: str, transcript=None, stage=None):
        super().__init__(message, stage=stage)
        self.transcript = [] if transcript is None else transcript


class RegistrationFailureError(TogError):
    code = "registration-failure"


class CoarseFailureError(TogError):
    code = "coarse-failure"


class LocalRegistrationFailureError(TogError):
    code = "local-registration-failure"

    def __init__(self, message: str, best_attempt=None, stage=None):
        super().__init__(message, stage=stage)
        self.best_attempt = best_attempt


class RecognitionFailureError(TogError):
    code = "recognition-failure"


class AdjustmentFailureError(TogError):
    code = "adjustment-failure"


class NoFeasibleGraspError(TogError):
    code = "no-feasible-grasp"


class SceneSpecError(TogError):
    code = "spec"
