"""Grasp template library: labeled model clouds with part-wise grasp sets.

A template is one complete labeled object model downsampled at a fixed
voxel leaf and a set of antipodal parallel-jaw grasps sampled per part.
Its named parts are derived from the model's labels when it is
constructed: each is the label subset of the model, so every part point is
a model point. Part names are dot paths ("body.outside"); an ancestor path
names the union of its descendants. A template file stores the labeled
model once, and its parts are derived from its labels on load; a small
index lists the files. Templates round-trip bit exactly.

A process loads each template file once: `load_template` returns the
`Template` it built before while the file's path and full text match (at
most `TEMPLATE_CACHE_SIZE` kept, least recently used out), and raises on
every call for a file it cannot read or parse, as errors are not cached.
Shared templates are read-only (`parts`, `grasps` and every array), so the
descriptors, kd-trees and distance fields registration caches on their
clouds, values of the points alone, serve every later scene.
"""

from __future__ import annotations

import json
import math
from collections.abc import Mapping
from dataclasses import dataclass, field, fields, replace
from functools import lru_cache
from numbers import Real
from pathlib import Path
from types import MappingProxyType

import numpy as np

from .cloud_io import cloud_from_dict, cloud_to_dict, parse_json, read_json, read_text
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

SCHEMA_VERSION = 2
DB_SCHEMA_VERSION = 1
DEFAULT_LEAF = 0.005
MIN_PART_POINTS = 10
GRASP_TARGET = 50
FRICTION_HALF_ANGLE_DEG = 10.0
DEDUP_CENTER_DIST = 0.005
DEDUP_AXIS_ANGLE_DEG = 10.0
TEMPLATE_CACHE_SIZE = 32


def _is_positive(value) -> bool:
    """Whether `value` is a finite positive number, and not a bool."""
    if isinstance(value, bool) or not isinstance(value, Real):
        return False
    return 0 < value < math.inf


def check_leaf(leaf):
    """``leaf`` itself if it is a usable voxel size, else a `SceneSpecError`."""
    if not _is_positive(leaf):
        raise SceneSpecError(f"leaf must be a positive number of meters, got {leaf!r}")
    return leaf


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
            value = getattr(self, name)
            if not _is_positive(value):
                raise ValueError(f"gripper {name} must be a positive finite number, got {value!r}")
        if self.stick_radius >= self.max_opening / 2:
            raise ValueError("stick_radius must be smaller than half the opening")


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

    def __eq__(self, other):  # every field equal; arrays and poses compare exactly
        return type(other) is type(self) and all(
            np.array_equal(getattr(self, f.name), getattr(other, f.name)) for f in fields(self)
        )

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
    """One labeled object model with per-part grasps.

    `parts` maps every label path and ancestor path of `full_cloud` to its
    label subset (`select_part`), in sorted path order. A model without
    labels raises SchemaError; a part below MIN_PART_POINTS points raises
    DegeneratePartError. `parts` and `grasps` are stored as read-only
    mappings, since a loaded template is shared (see `load_template`).
    """

    id: str
    object_class: str
    full_cloud: PointCloud
    grasps: Mapping
    leaf: float = DEFAULT_LEAF
    parts: Mapping = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if not self.id or not self.object_class:
            raise SchemaError("template id and object_class must be non-empty")
        if not _is_positive(self.leaf):
            raise SchemaError(
                f"template leaf must be a positive number, got {self.leaf!r}"
            )
        if self.full_cloud.labels is None:
            raise SchemaError(f"template '{self.id}' needs a labeled model cloud")
        parts = {}
        for path in part_paths_from_labels(set(self.full_cloud.labels.tolist())):
            part = select_part(self.full_cloud, path)
            if len(part) < MIN_PART_POINTS:
                raise DegeneratePartError(
                    f"part '{path}' of template '{self.id}' has {len(part)} points "
                    f"(minimum {MIN_PART_POINTS})"
                )
            parts[path] = part
        if not parts:
            raise SchemaError(f"template '{self.id}' has no parts")
        object.__setattr__(self, "parts", MappingProxyType(parts))
        object.__setattr__(self, "grasps", MappingProxyType(dict(self.grasps)))
        stray = set(self.grasps) - set(self.parts)
        if stray:
            raise SchemaError(
                f"template '{self.id}' has grasps for unknown parts {sorted(stray)}"
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


def part_mask(labels, path: str) -> np.ndarray:
    """Mask of the labels that are `path` or any descendant of it."""
    labels = np.asarray(labels).astype(str)
    return (labels == path) | np.char.startswith(labels, path + ".")


def select_part(cloud: PointCloud, path: str) -> PointCloud:
    """Points whose label is `path` or any descendant of it."""
    if cloud.labels is None:
        raise SchemaError("part selection needs a labeled cloud")
    return cloud.select(np.flatnonzero(part_mask(cloud.labels, path)))


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
    gripper: GripperConfig = GripperConfig(),
    target_count: int = GRASP_TARGET,
    rng=0,
) -> tuple:
    """Sample up to `target_count` antipodal grasps on a part.

    A point pair qualifies when the jaws can reach it (separation within
    the maximum opening) and the closing line lies within the friction cone
    at both contacts, measured sign-agnostically so estimated-normal
    orientation cannot flip the verdict. Near-duplicate grasps (centers
    closer than 5 mm with closing axes within 10 degrees) are dropped.
    """
    generator = np.random.default_rng(rng)
    points = part.points
    n = len(points)
    normals = estimate_normals(part)
    centroid = points.mean(axis=0)
    cos_limit = math.cos(math.radians(FRICTION_HALF_ANGLE_DEG))
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
    gripper: GripperConfig = GripperConfig(),
    graph=None,
    template_id: str | None = None,
    rng=0,
) -> Template:
    """Turn one labeled model cloud into a ready-to-match template.

    The cloud is voxel-downsampled once and becomes the template's model,
    whose labels give its parts (see `Template`). When an ontology graph is
    given, every label must be a part path of `object_class` there. A part
    with no antipodal grasp, such as one wider than the gripper opening,
    gets an empty grasp set, and planning on it raises NoGraspError.
    """
    check_leaf(leaf)
    model = voxel_downsample(labeled_cloud, leaf)
    template = Template(template_id or object_class, object_class, model, {}, leaf)
    if graph is not None:
        if not graph.has_class(object_class):
            raise SchemaError(f"ontology has no class '{object_class}'")
        known = set(graph.part_paths(object_class))
        unknown = sorted(set(model.labels.tolist()) - known)
        if unknown:
            raise SchemaError(
                f"labels {unknown} are not parts of '{object_class}' in the ontology"
            )
    grasps = {}
    for i, (path, part) in enumerate(template.parts.items()):
        try:
            grasps[path] = sample_antipodal_grasps(part, gripper, rng=(rng, i))
        except NoGraspError:
            grasps[path] = ()
    return replace(template, grasps=grasps)


def template_to_dict(template: Template) -> dict:
    return {
        "schema_version": SCHEMA_VERSION,
        "id": template.id,
        "object_class": template.object_class,
        "leaf": template.leaf,
        "full_cloud": cloud_to_dict(template.full_cloud),
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
    required = {"schema_version", "id", "object_class", "leaf", "full_cloud", "grasps"}
    missing = required - set(data)
    if missing:
        raise SchemaError(f"template JSON missing keys {sorted(missing)}")
    for key in ("id", "object_class"):
        if not isinstance(data[key], str) or not data[key]:
            raise SchemaError(f"template JSON '{key}' must be a non-empty string")
    if not isinstance(data["grasps"], dict):
        raise SchemaError("template JSON 'grasps' must be an object")
    version = data["schema_version"]
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
        grasps=grasps,
        leaf=data["leaf"],
    )


def save_template(template: Template, path) -> None:
    Path(path).write_text(json.dumps(template_to_dict(template), sort_keys=True))


def load_template(path) -> Template:
    """The template in the file at `path`, shared while the file's text is unchanged.

    The key is the path as given plus the file's full text, so any change
    to the file yields a fresh template; an unreadable or malformed file
    raises its error on every call.
    """
    return _template_from_text(path, read_text(path, CloudParseError))


@lru_cache(maxsize=TEMPLATE_CACHE_SIZE)
def _template_from_text(path, text: str) -> Template:
    return template_from_dict(parse_json(text, CloudParseError, path))


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
    index = {"schema_version": DB_SCHEMA_VERSION, "templates": entries}
    (directory / "db.json").write_text(json.dumps(index, indent=2, sort_keys=True))
    return directory


def load_db(directory) -> dict:
    """Load a template database as an id-keyed dict, in index order.

    The index is read and every entry checked on each call: ids must be
    unique, and each entry's id and object_class must match its file's.
    The templates themselves come from `load_template`, so a process that
    loads an unchanged database again gets the same `Template` objects.
    """
    directory = Path(directory)
    index_path = directory / "db.json"
    if not index_path.exists():
        raise SchemaError(f"{directory}: no db.json index")
    index = read_json(index_path, SchemaError)
    if not isinstance(index, dict):
        raise SchemaError(f"{index_path}: index must be a JSON object")
    if index.get("schema_version") != DB_SCHEMA_VERSION:
        raise SchemaError(f"{index_path}: unsupported schema_version")
    entries = index.get("templates", [])
    if not isinstance(entries, list):
        raise SchemaError(f"{index_path}: 'templates' must be a list")
    out = {}
    for i, entry in enumerate(entries):
        if not (
            isinstance(entry, dict)
            and all(isinstance(entry.get(key), str) for key in ("id", "object_class", "file"))
        ):
            raise SchemaError(
                f"{index_path}: template entry {i} needs string 'id', 'object_class' and 'file'"
            )
        if entry["id"] in out:
            raise SchemaError(f"{index_path}: template id '{entry['id']}' is listed twice")
        template = load_template(directory / entry["file"])
        for key in ("id", "object_class"):
            if getattr(template, key) != entry[key]:
                raise SchemaError(
                    f"{entry['file']}: {key} '{getattr(template, key)}' does not match "
                    f"index entry '{entry[key]}'"
                )
        out[template.id] = template
    if not out:
        raise SchemaError(f"{directory}: template database is empty")
    return out
