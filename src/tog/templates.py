"""Grasp template library: labeled model clouds with part-wise grasp sets.

A template is one complete object model downsampled at a fixed voxel leaf,
its named parts (label-selected subsets of that same cloud, so every part
point is a model point), and a set of antipodal parallel-jaw grasps sampled
per part. Part names are dot paths ("body.outside"); an ancestor path names
the union of its descendants. Templates serialize to one JSON file each
plus a small index, and round-trip bit exactly.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from numbers import Real
from pathlib import Path

import numpy as np

from .cloud_io import cloud_from_dict, cloud_to_dict
from .errors import (
    CloudParseError,
    DegeneratePartError,
    NoGraspError,
    SceneSpecError,
    SchemaError,
)
from .geometry import (
    PointCloud,
    RigidTransform,
    estimate_normals,
    voxel_downsample,
)

SCHEMA_VERSION = 1
DEFAULT_LEAF = 0.005
MIN_PART_POINTS = 10
GRASP_TARGET = 50
FRICTION_HALF_ANGLE_DEG = 10.0
DEDUP_CENTER_DIST = 0.005
DEDUP_AXIS_ANGLE_DEG = 10.0


def _is_leaf(value) -> bool:
    """Whether `value` is a usable voxel size: a finite positive number."""
    if isinstance(value, bool) or not isinstance(value, Real):
        return False
    return 0 < value < math.inf


@dataclass(frozen=True)
class GripperConfig:
    """Parallel-jaw gripper dimensions, in meters."""

    max_opening: float = 0.08
    jaw_depth: float = 0.02
    finger_thickness: float = 0.01
    closure_height: float = 0.02
    stick_radius: float = 0.004

    def __post_init__(self):
        for name in (
            "max_opening",
            "jaw_depth",
            "finger_thickness",
            "closure_height",
            "stick_radius",
        ):
            if not getattr(self, name) > 0:
                raise ValueError(f"gripper {name} must be positive")
        if self.stick_radius >= self.max_opening / 2:
            raise ValueError("stick_radius must be smaller than half the opening")


def default_gripper() -> GripperConfig:
    return GripperConfig()


@dataclass(frozen=True)
class GraspPose:
    """A gripper pose plus the jaw opening it closes to.

    Frame convention: origin midway between the fingertip contacts, x along
    the closing line (jaw to jaw), z the approach direction, y completing a
    right-handed frame.
    """

    pose: RigidTransform
    width: float

    def __post_init__(self):
        if not isinstance(self.pose, RigidTransform):
            raise ValueError("pose must be a RigidTransform")
        if not self.width > 0:
            raise ValueError("grasp width must be positive")

    @property
    def center(self) -> np.ndarray:
        return self.pose.translation

    @property
    def closing_axis(self) -> np.ndarray:
        return self.pose.rotation[:, 0]

    @property
    def approach_axis(self) -> np.ndarray:
        return self.pose.rotation[:, 2]

    def contacts(self) -> np.ndarray:
        """(2, 3) fingertip contact points at the closed width."""
        half = 0.5 * self.width * self.closing_axis
        return np.stack([self.center - half, self.center + half])


@dataclass(frozen=True)
class Template:
    """One object model with named part clouds and per-part grasps."""

    id: str
    object_class: str
    full_cloud: PointCloud
    parts: dict
    grasps: dict
    leaf: float = DEFAULT_LEAF

    def __post_init__(self):
        if not self.id or not self.object_class:
            raise SchemaError("template id and object_class must be non-empty")
        if not self.parts:
            raise SchemaError(f"template '{self.id}' has no parts")
        stray = set(self.grasps) - set(self.parts)
        if stray:
            raise SchemaError(
                f"template '{self.id}' has grasps for unknown parts {sorted(stray)}"
            )
        if not _is_leaf(self.leaf):
            raise SchemaError(
                f"template leaf must be a positive number, got {self.leaf!r}"
            )

    def part(self, path: str) -> PointCloud:
        if path not in self.parts:
            raise SchemaError(
                f"template '{self.id}' has no part '{path}' "
                f"(available: {sorted(self.parts)})"
            )
        return self.parts[path]

    def part_grasps(self, path: str) -> tuple:
        self.part(path)
        return self.grasps.get(path, ())


def ancestor_paths(path: str) -> list[str]:
    """Proper ancestors of a dot path, shortest first."""
    segs = path.split(".")
    return [".".join(segs[:i]) for i in range(1, len(segs))]


def part_paths_from_labels(labels) -> list[str]:
    """All distinct labels plus their ancestors, sorted."""
    paths = set()
    for label in labels:
        paths.add(label)
        paths.update(ancestor_paths(label))
    return sorted(paths)


def select_part(cloud: PointCloud, path: str) -> PointCloud:
    """Points whose label is `path` or any descendant of it."""
    if cloud.labels is None:
        raise SchemaError("part selection needs a labeled cloud")
    mask = (cloud.labels == path) | np.char.startswith(
        cloud.labels.astype(str), path + "."
    )
    return cloud.select(np.flatnonzero(mask))


def _canonical_sign(v: np.ndarray) -> np.ndarray:
    for c in v:
        if abs(c) > 1e-12:
            return -v if c < 0 else v
    return v


def _orthonormal_complement(u: np.ndarray, prefer: np.ndarray) -> np.ndarray:
    v = prefer - (prefer @ u) * u
    norm = np.linalg.norm(v)
    if norm > 1e-9:
        return v / norm
    for fallback in (np.array([0.0, 0.0, 1.0]), np.array([0.0, 1.0, 0.0])):
        v = fallback - (fallback @ u) * u
        norm = np.linalg.norm(v)
        if norm > 1e-9:
            return v / norm
    raise ValueError("degenerate axis")


def _grasp_from_pair(p_a, p_b, width, centroid) -> GraspPose:
    u = _canonical_sign((p_b - p_a) / width)
    center = 0.5 * (p_a + p_b)
    approach = _orthonormal_complement(u, centroid - center)
    rotation = np.column_stack([u, np.cross(approach, u), approach])
    return GraspPose(RigidTransform(rotation, center), float(width))


def sample_antipodal_grasps(
    part: PointCloud,
    gripper: GripperConfig | None = None,
    target_count: int = GRASP_TARGET,
    friction_half_angle_deg: float = FRICTION_HALF_ANGLE_DEG,
    rng=0,
) -> tuple:
    """Sample up to `target_count` antipodal grasps on a part.

    A point pair qualifies when the jaws can reach it (separation within
    the maximum opening) and the closing line lies within the friction cone
    at both contacts, measured sign-agnostically so estimated-normal
    orientation cannot flip the verdict. Near-duplicate grasps (centers
    closer than 5 mm with closing axes within 10 degrees) are dropped.
    """
    gripper = gripper or default_gripper()
    generator = np.random.default_rng(rng)
    points = part.points
    n = len(points)
    normals = estimate_normals(part, k=15, orient_from=points.mean(axis=0))
    centroid = points.mean(axis=0)
    cos_limit = math.cos(math.radians(friction_half_angle_deg))
    cos_dup = math.cos(math.radians(DEDUP_AXIS_ANGLE_DEG))

    kept: list[GraspPose] = []
    kept_centers = np.empty((0, 3))
    kept_axes = np.empty((0, 3))

    for a in generator.permutation(n):
        partners = part.tree.query_ball_point(points[a], gripper.max_opening)
        partners = np.array(sorted(p for p in partners if p != a), dtype=np.int64)
        if partners.size == 0:
            continue
        delta = points[partners] - points[a]
        widths = np.linalg.norm(delta, axis=1)
        valid = widths > 1e-9
        if not np.any(valid):
            continue
        u = np.zeros_like(delta)
        u[valid] = delta[valid] / widths[valid, None]
        cos_a = np.abs(u @ normals[a])
        cos_b = np.abs(np.einsum("ij,ij->i", u, normals[partners]))
        valid &= (cos_a >= cos_limit) & (cos_b >= cos_limit)
        for b, width in zip(partners[valid], widths[valid]):
            grasp = _grasp_from_pair(points[a], points[b], width, centroid)
            if kept:
                near = np.linalg.norm(kept_centers - grasp.center, axis=1)
                align = np.abs(kept_axes @ grasp.closing_axis)
                if np.any((near < DEDUP_CENTER_DIST) & (align > cos_dup)):
                    continue
            kept.append(grasp)
            kept_centers = np.vstack([kept_centers, grasp.center])
            kept_axes = np.vstack([kept_axes, grasp.closing_axis])
            if len(kept) >= target_count:
                return tuple(kept)
    if not kept:
        raise NoGraspError(
            f"no antipodal grasp within a {gripper.max_opening * 1e3:.0f} mm "
            f"opening on a {n}-point part"
        )
    return tuple(kept)


def build_template(
    labeled_cloud: PointCloud,
    object_class: str,
    leaf: float = DEFAULT_LEAF,
    gripper: GripperConfig | None = None,
    graph=None,
    template_id: str | None = None,
    grasp_target: int = GRASP_TARGET,
    rng=0,
) -> Template:
    """Turn one labeled model cloud into a ready-to-match template.

    The cloud is voxel-downsampled once; each part is the exact subset of
    the downsampled cloud carrying that label (or a descendant label, for
    ancestor paths). When an ontology graph is given, every label must be a
    part path of `object_class` there. A part with no antipodal grasp, such
    as one wider than the gripper opening, gets an empty grasp set, and
    planning on it raises NoGraspError.
    """
    if not _is_leaf(leaf):
        raise SceneSpecError(f"leaf must be a positive number of meters, got {leaf!r}")
    gripper = gripper or default_gripper()
    if labeled_cloud.labels is None:
        raise SchemaError("template construction needs a labeled cloud")
    model = voxel_downsample(labeled_cloud, leaf)
    distinct = sorted(set(model.labels.tolist()))
    if graph is not None:
        if not graph.has_class(object_class):
            raise SchemaError(f"ontology has no class '{object_class}'")
        known = set(graph.part_paths(object_class))
        unknown = [label for label in distinct if label not in known]
        if unknown:
            raise SchemaError(
                f"labels {unknown} are not parts of '{object_class}' in the ontology"
            )
    paths = part_paths_from_labels(distinct)
    parts = {}
    for path in paths:
        part = select_part(model, path)
        if len(part) < MIN_PART_POINTS:
            raise DegeneratePartError(
                f"part '{path}' has {len(part)} points after downsampling "
                f"(minimum {MIN_PART_POINTS})"
            )
        parts[path] = part
    grasps = {}
    for i, path in enumerate(paths):
        try:
            grasps[path] = sample_antipodal_grasps(
                parts[path], gripper, target_count=grasp_target, rng=(rng, i)
            )
        except NoGraspError:
            grasps[path] = ()
    return Template(
        id=template_id or object_class,
        object_class=object_class,
        full_cloud=model,
        parts=parts,
        grasps=grasps,
        leaf=leaf,
    )


def scale_template(
    template: Template, factor: float, gripper: GripperConfig | None = None
) -> Template:
    """Uniformly scale a template about its full-cloud centroid.

    Grasp centers scale with the geometry; orientations are unchanged and
    widths scale too, clamped to the gripper opening when one is given.
    """
    if not factor > 0:
        raise ValueError("scale factor must be positive")
    pivot = template.full_cloud.points.mean(axis=0)

    def scale_cloud(cloud: PointCloud) -> PointCloud:
        return PointCloud(pivot + factor * (cloud.points - pivot), cloud.labels)

    def scale_grasp(g: GraspPose) -> GraspPose:
        center = pivot + factor * (g.center - pivot)
        width = factor * g.width
        if gripper is not None:
            width = min(width, gripper.max_opening)
        return GraspPose(RigidTransform(g.pose.rotation, center), width)

    return Template(
        id=f"{template.id}-x{factor:g}",
        object_class=template.object_class,
        full_cloud=scale_cloud(template.full_cloud),
        parts={path: scale_cloud(c) for path, c in template.parts.items()},
        grasps={
            path: tuple(scale_grasp(g) for g in gs)
            for path, gs in template.grasps.items()
        },
        leaf=template.leaf * factor,
    )


def template_to_dict(template: Template) -> dict:
    return {
        "schema_version": SCHEMA_VERSION,
        "id": template.id,
        "object_class": template.object_class,
        "leaf": template.leaf,
        "full_cloud": cloud_to_dict(template.full_cloud),
        "parts": {path: cloud_to_dict(c) for path, c in template.parts.items()},
        "grasps": {
            path: [
                {"pose": g.pose.matrix.tolist(), "width": g.width} for g in gs
            ]
            for path, gs in template.grasps.items()
        },
    }


def template_from_dict(data: dict) -> Template:
    if not isinstance(data, dict):
        raise SchemaError("template JSON must be an object")
    missing = {"id", "object_class", "full_cloud", "parts", "grasps"} - set(data)
    if missing:
        raise SchemaError(f"template JSON missing keys {sorted(missing)}")
    version = data.get("schema_version", SCHEMA_VERSION)
    if version != SCHEMA_VERSION:
        raise SchemaError(f"unsupported template schema_version {version}")
    try:
        grasps = {
            path: tuple(
                GraspPose(RigidTransform.from_matrix(np.array(g["pose"])), g["width"])
                for g in gs
            )
            for path, gs in data["grasps"].items()
        }
    except (KeyError, TypeError, ValueError) as exc:
        raise SchemaError(f"malformed grasp entry: {exc}") from exc
    return Template(
        id=data["id"],
        object_class=data["object_class"],
        full_cloud=cloud_from_dict(data["full_cloud"]),
        parts={path: cloud_from_dict(c) for path, c in data["parts"].items()},
        grasps=grasps,
        leaf=data.get("leaf", DEFAULT_LEAF),
    )


def save_template(template: Template, path) -> None:
    Path(path).write_text(json.dumps(template_to_dict(template), sort_keys=True))


def load_template(path) -> Template:
    try:
        data = json.loads(Path(path).read_text())
    except json.JSONDecodeError as exc:
        raise CloudParseError(f"{path}: invalid template JSON ({exc})") from exc
    return template_from_dict(data)


def save_db(templates, directory) -> Path:
    """Write `<id>.template.json` per template plus a `db.json` index."""
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    if isinstance(templates, dict):
        templates = list(templates.values())
    entries = []
    for template in sorted(templates, key=lambda t: t.id):
        filename = f"{template.id}.template.json"
        save_template(template, directory / filename)
        entries.append(
            {
                "id": template.id,
                "object_class": template.object_class,
                "file": filename,
            }
        )
    index = {"schema_version": SCHEMA_VERSION, "templates": entries}
    (directory / "db.json").write_text(json.dumps(index, indent=2, sort_keys=True))
    return directory


def load_db(directory) -> dict:
    """Load a template database as an id-keyed dict, in index order."""
    directory = Path(directory)
    index_path = directory / "db.json"
    if not index_path.exists():
        raise SchemaError(f"{directory}: no db.json index")
    try:
        index = json.loads(index_path.read_text())
    except json.JSONDecodeError as exc:
        raise SchemaError(f"{index_path}: invalid index JSON ({exc})") from exc
    if index.get("schema_version") != SCHEMA_VERSION:
        raise SchemaError(f"{index_path}: unsupported schema_version")
    out = {}
    for entry in index.get("templates", []):
        template = load_template(directory / entry["file"])
        if template.id != entry["id"]:
            raise SchemaError(
                f"{entry['file']}: id '{template.id}' does not match index "
                f"entry '{entry['id']}'"
            )
        out[template.id] = template
    if not out:
        raise SchemaError(f"{directory}: template database is empty")
    return out
