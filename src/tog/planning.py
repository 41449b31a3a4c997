"""Imitative grasp planning: carry template grasps into the observed scene.

Template grasps live in the template model frame. Registration gives the
transform taking scene points into that frame, so its inverse places each
stored grasp over the matched part in the scene. `plan` takes the one
template and transform to imitate; choosing that template among the
registered ones is `pipeline.register_all`'s step. A transferred candidate
is a `GraspPose`, with its frame convention and checks, that also records
where it came from. Candidates are then vetted geometrically: the finger
sweep volumes must be clear of non-part scene points, and the jaw closing
line must actually capture part material; candidates that miss are
re-centered on the part's local bounding box before the final verdict.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

import numpy as np

from .errors import (
    AdjustmentFailureError,
    NoFeasibleGraspError,
    NoGraspError,
)
from .geometry import PointCloud, RigidTransform, knn
from .templates import GraspPose, GripperConfig


@dataclass(frozen=True, eq=False)  # GraspPose's field-wise equality
class GraspCandidate(GraspPose):
    """One executable grasp hypothesis in the output frame, with its provenance."""

    template_id: str
    part_path: str
    source_index: int
    adjustment: np.ndarray = field(default_factory=lambda: np.zeros(3))
    stick_ok_initially: bool = True

    @property
    def adjustment_norm(self) -> float:
        return float(np.linalg.norm(self.adjustment))


def transfer_grasps(
    template,
    part_path: str,
    t_total: RigidTransform,
    t0: RigidTransform | None = None,
) -> list[GraspCandidate]:
    """Map a template part's grasps into the scene (or world) frame.

    `t_total` takes scene points into the template frame; `t0`, when given,
    takes the scene frame on into a world frame.
    """
    grasps = template.part_grasps(part_path)
    if not grasps:
        raise NoGraspError(
            f"template '{template.id}' stores no grasps for part '{part_path}'"
        )
    out_frame = t_total.inverse()
    if t0 is not None:
        out_frame = t0 @ out_frame
    return [
        GraspCandidate(
            pose=out_frame @ g.pose,
            width=g.width,
            template_id=template.id,
            part_path=part_path,
            source_index=i,
        )
        for i, g in enumerate(grasps)
    ]


def _gripper_frame_points(pose: RigidTransform, points) -> np.ndarray:
    """Points as an (n, 3) array in the grasp frame."""
    return pose.inverse().apply(np.asarray(points, dtype=np.float64).reshape(-1, 3))


def check_placement(
    pose: RigidTransform,
    width: float,
    obstacle_points: np.ndarray,
    gripper: GripperConfig = GripperConfig(),
) -> bool:
    """True when both finger volumes are clear of the given points.

    Each finger sweeps a closed box just outside the jaw opening:
    x in +-[width/2, width/2 + finger_thickness], |y| <= jaw_depth/2,
    |z| <= closure_height/2, in the grasp frame.
    """
    local = _gripper_frame_points(pose, obstacle_points)
    ax = np.abs(local[:, 0])
    in_finger_x = (ax >= width / 2) & (ax <= width / 2 + gripper.finger_thickness)
    in_section = (np.abs(local[:, 1]) <= gripper.jaw_depth / 2) & (
        np.abs(local[:, 2]) <= gripper.closure_height / 2
    )
    return not np.any(in_finger_x & in_section)


def points_in_closure(
    pose: RigidTransform,
    width: float,
    points: np.ndarray,
    gripper: GripperConfig = GripperConfig(),
) -> np.ndarray:
    """Mask of points inside the closed box swept between the jaws:
    |x| <= width/2, |y| <= jaw_depth/2, |z| <= closure_height/2."""
    local = _gripper_frame_points(pose, points)
    return (
        (np.abs(local[:, 0]) <= width / 2)
        & (np.abs(local[:, 1]) <= gripper.jaw_depth / 2)
        & (np.abs(local[:, 2]) <= gripper.closure_height / 2)
    )


def check_stick(
    pose: RigidTransform,
    width: float,
    part_points: np.ndarray,
    gripper: GripperConfig = GripperConfig(),
) -> bool:
    """True when part material crosses the jaw closing line.

    The test volume is a closed cylinder of radius stick_radius around the
    closing axis, spanning the opening: |x| <= width/2, y^2 + z^2 <=
    stick_radius^2 in the grasp frame. Stricter than `points_in_closure`:
    it demands material where the fingertips actually meet.
    """
    local = _gripper_frame_points(pose, part_points)
    on_axis = np.abs(local[:, 0]) <= width / 2
    radial2 = local[:, 1] ** 2 + local[:, 2] ** 2
    return bool(np.any(on_axis & (radial2 <= gripper.stick_radius**2)))


def adjust_grasp(candidate: GraspCandidate, part: PointCloud) -> GraspCandidate:
    """Re-center a missed grasp on the part's local bounding box.

    The part point nearest the grasp center anchors a neighborhood of half
    the part (k = ceil(n/2) nearest neighbors); the candidate is translated
    so its center lands on that neighborhood's AABB center. Orientation and
    width are untouched, so the grasp keeps its approach.
    """
    if len(part) == 0:
        raise AdjustmentFailureError("cannot adjust a grasp against an empty part")
    p_ori = candidate.center
    anchor = knn(part, p_ori, 1)[0]
    k = math.ceil(len(part) / 2)
    neighborhood = part.points[knn(part, part.points[anchor], k)]
    p_new = 0.5 * (neighborhood.min(axis=0) + neighborhood.max(axis=0))
    delta = p_new - p_ori
    moved = RigidTransform(candidate.pose.rotation, candidate.pose.translation + delta)
    return replace(
        candidate,
        pose=moved,
        adjustment=candidate.adjustment + delta,
        stick_ok_initially=False,
    )


def plan(
    o_all: PointCloud,
    recognition,
    template,
    t_total: RigidTransform,
    gripper: GripperConfig = GripperConfig(),
) -> list[GraspCandidate]:
    """Produce executable grasps for the recognized part, best first.

    `template`'s grasps for the part are carried into the scene through the
    inverse of `t_total`, its registration's scene-to-template transform.
    Transferred candidates are dropped if their fingers would strike
    non-part scene points; candidates whose closing line misses the part
    are re-centered once and dropped if they still miss or newly collide.
    Survivors are ordered by (needed adjustment?, adjustment distance,
    stored order), in the scene frame.
    """
    members = np.asarray(recognition.members, dtype=np.int64)
    non_part = np.delete(np.arange(len(o_all)), members)
    obstacle_points = o_all.points[non_part]
    part = recognition.part_cloud

    candidates = transfer_grasps(template, recognition.part_path, t_total)
    kept: list[GraspCandidate] = []
    for cand in candidates:
        if not check_placement(cand.pose, cand.width, obstacle_points, gripper):
            continue
        if check_stick(cand.pose, cand.width, part.points, gripper):
            kept.append(cand)
            continue
        adjusted = adjust_grasp(cand, part)
        if not check_stick(adjusted.pose, adjusted.width, part.points, gripper):
            continue
        if not check_placement(adjusted.pose, adjusted.width, obstacle_points, gripper):
            continue
        kept.append(adjusted)

    kept.sort(
        key=lambda c: (0 if c.stick_ok_initially else 1, c.adjustment_norm, c.source_index)
    )
    if not kept:
        raise NoFeasibleGraspError(
            f"no grasp from template '{template.id}' survives placement and "
            f"closure checks on part '{recognition.part_path}'"
        )
    return kept
