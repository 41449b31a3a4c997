"""Synthetic desk-scale benchmark for the full perception-to-grasp chain.

Analytic object generators (mug, bottle, closed scissors, slab) sample
labeled surface points with counts proportional to patch area. Each trial
poses an object, takes a partial view from a virtual camera by spherical
flipping, optionally degrades it (corner occlusion, Gaussian jitter,
neighborhood smoothing), then runs recognition, registration, and planning
and scores the outcome against the ground-truth labels. Per-trial random
streams are derived from (master seed, condition index, trial index), so
any single trial can be replayed in isolation. `make_scene` is the one
recipe of a trial's scene. Trials run the pipeline's stages through
`pipeline.stage`, `select_templates` and `register_all`, so they measure
the shipped code and tag each failure with its stage.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field, fields
from numbers import Integral, Real
from typing import Callable

import numpy as np
from scipy.spatial import ConvexHull, QhullError
from scipy.spatial.transform import Rotation

from .errors import SceneSpecError, TogError
from .geometry import PointCloud, RigidTransform, aabb, apply_transform, knn_indices_batch
from .pipeline import (
    check_integer_setting,
    check_unique,
    register_all,
    select_templates,
    stage,
)
from .planning import check_placement, check_stick, plan, points_in_closure
from .recognition import recognize
from .templates import DEFAULT_LEAF, GripperConfig, build_template
from .templates import part_mask as truth_mask

HPR_RADIUS_FACTOR = 100.0
IOU_RECOGNIZED = 0.5
MIN_PART_VISIBILITY = 0.25
MAX_CAMERA_TRIES = 32
CAMERA_DISTANCE_FACTOR = 1.6


# ---------------------------------------------------------------------------
# surface samplers (area-uniform on each analytic patch)


def _unit_angles(rng, count):
    return rng.uniform(0.0, 2.0 * np.pi, count)


def _cylinder_side(rng, count, radius, z_lo, z_hi, center):
    theta = _unit_angles(rng, count)
    z = rng.uniform(z_lo, z_hi, count)
    pts = np.stack([radius * np.cos(theta), radius * np.sin(theta), z], axis=1)
    return pts + center


def _disk(rng, count, r_inner, r_outer, z, center):
    theta = _unit_angles(rng, count)
    r = np.sqrt(rng.uniform(r_inner**2, r_outer**2, count))
    pts = np.stack([r * np.cos(theta), r * np.sin(theta), np.full(count, z)], axis=1)
    return pts + center


def _torus_arc(rng, count, main_radius, tube_radius, arc_rad, center, tilt=None):
    phi = rng.uniform(-arc_rad / 2, arc_rad / 2, count)
    # area element scales with (R + r cos psi): rejection-sample psi
    psi = np.empty(count)
    filled = 0
    while filled < count:
        cand = rng.uniform(0.0, 2.0 * np.pi, 2 * (count - filled))
        accept = rng.uniform(0.0, 1.0, cand.size) <= (
            (main_radius + tube_radius * np.cos(cand)) / (main_radius + tube_radius)
        )
        take = cand[accept][: count - filled]
        psi[filled : filled + take.size] = take
        filled += take.size
    ring = main_radius + tube_radius * np.cos(psi)
    pts = np.stack(
        [ring * np.cos(phi), tube_radius * np.sin(psi), ring * np.sin(phi)], axis=1
    )
    if tilt is not None:
        pts = pts @ np.asarray(tilt).T
    return pts + center


def _box_face(rng, count, axis, sign, half, center, rotation=None):
    u_axes = [i for i in range(3) if i != axis]
    pts = np.zeros((count, 3))
    pts[:, axis] = sign * half[axis]
    for u in u_axes:
        pts[:, u] = rng.uniform(-half[u], half[u], count)
    if rotation is not None:
        pts = pts @ np.asarray(rotation).T
    return pts + center


def _box_patches(label, half, center, rotation=None):
    """The six faces of a box as patches, face pairs along x, then y, then z."""
    patches = []
    for axis in range(3):
        for sign in (-1.0, 1.0):
            u, v = [i for i in range(3) if i != axis]
            patches.append(
                (
                    label,
                    4.0 * half[u] * half[v],
                    lambda g, c, axis=axis, sign=sign: _box_face(
                        g, c, axis, sign, half, center, rotation
                    ),
                )
            )
    return patches


def _apportion(areas, n):
    """Largest-remainder apportionment of n samples over patch areas."""
    shares = np.asarray(areas, dtype=np.float64)
    shares = shares / shares.sum() * n
    counts = np.floor(shares).astype(int)
    remainder = n - counts.sum()
    order = np.argsort(-(shares - counts), kind="stable")
    counts[order[:remainder]] += 1
    return counts


def _build_from_patches(patches, n, rng, scale):
    """patches: list of (label, area, sampler(rng, count) -> (count, 3))."""
    counts = _apportion([p[1] for p in patches], n)
    chunks, labels = [], []
    for (label, _area, sampler), count in zip(patches, counts):
        if count == 0:
            continue
        chunks.append(sampler(rng, count))
        labels += [label] * count
    points = np.vstack(chunks) * scale
    return PointCloud(points, labels)


MUG_DIMS = {
    "r_out": 0.035,
    "r_in": 0.030,
    "height": 0.095,
    "handle_offset": 0.052,
    "handle_radius": 0.024,
    "tube_radius": 0.009,
    "arc_deg": 250.0,
}
BOTTLE_DIMS = {
    "r_body": 0.032,
    "h_body": 0.15,
    "r_cap": 0.013,
    "h_cap": 0.03,
}
SCISSOR_DIMS = {
    "blade_halfwidth": 0.006,
    "blade_halflength": 0.05,
    "blade_halfthickness": 0.0015,
    "ring_radius": 0.016,
    "ring_tube": 0.0045,
    "open_deg": 5.0,
}
SLAB_DIMS = {
    "half_x": 0.06,
    "half_y": 0.04,
    "half_z": 0.01,
}


def _merge_dims(defaults: dict, dims: dict | None) -> dict:
    if not dims:
        return dict(defaults)
    unknown = set(dims) - set(defaults)
    if unknown:
        raise SceneSpecError(f"unknown shape dims {sorted(unknown)}")
    return {**defaults, **dims}


def make_mug(n: int, rng, scale: float = 1.0, dims: dict | None = None) -> PointCloud:
    """Cylindrical cup with an open top and a side handle."""
    d = _merge_dims(MUG_DIMS, dims)
    r_out, height = d["r_out"], d["height"]
    r_in = min(d["r_in"], r_out - 0.003)
    handle_center = np.array([d["handle_offset"], 0.0, 0.0])
    hr, tr, arc = d["handle_radius"], d["tube_radius"], np.radians(d["arc_deg"])
    patches = [
        (
            "body.outside",
            2 * np.pi * r_out * height,
            lambda g, c: _cylinder_side(g, c, r_out, -height / 2, height / 2, np.zeros(3)),
        ),
        (
            "body.outside",
            np.pi * r_out**2,
            lambda g, c: _disk(g, c, 0.0, r_out, -height / 2, np.zeros(3)),
        ),
        (
            "body.inside",
            2 * np.pi * r_in * (height - 0.005),
            lambda g, c: _cylinder_side(
                g, c, r_in, -height / 2 + 0.005, height / 2, np.zeros(3)
            ),
        ),
        (
            "body.inside",
            np.pi * r_in**2,
            lambda g, c: _disk(g, c, 0.0, r_in, -height / 2 + 0.005, np.zeros(3)),
        ),
        (
            "handle",
            arc * tr * 2 * np.pi * hr,
            lambda g, c: _torus_arc(g, c, hr, tr, arc, handle_center),
        ),
    ]
    return _build_from_patches(patches, n, rng, scale)


def make_bottle(n: int, rng, scale: float = 1.0, dims: dict | None = None) -> PointCloud:
    """Cylindrical bottle with a narrow cap on top."""
    d = _merge_dims(BOTTLE_DIMS, dims)
    r_body, h_body = d["r_body"], d["h_body"]
    h_cap = d["h_cap"]
    r_cap = min(d["r_cap"], 0.8 * r_body)
    cap_base = h_body / 2
    patches = [
        (
            "body",
            2 * np.pi * r_body * h_body,
            lambda g, c: _cylinder_side(g, c, r_body, -h_body / 2, h_body / 2, np.zeros(3)),
        ),
        (
            "body",
            np.pi * r_body**2,
            lambda g, c: _disk(g, c, 0.0, r_body, -h_body / 2, np.zeros(3)),
        ),
        (
            "body",
            np.pi * (r_body**2 - r_cap**2),
            lambda g, c: _disk(g, c, r_cap, r_body, h_body / 2, np.zeros(3)),
        ),
        (
            "cap",
            2 * np.pi * r_cap * h_cap,
            lambda g, c: _cylinder_side(
                g, c, r_cap, cap_base, cap_base + h_cap, np.zeros(3)
            ),
        ),
        (
            "cap",
            np.pi * r_cap**2,
            lambda g, c: _disk(g, c, 0.0, r_cap, cap_base + h_cap, np.zeros(3)),
        ),
    ]
    return _build_from_patches(patches, n, rng, scale)


def make_scissor(n: int, rng, scale: float = 1.0, dims: dict | None = None) -> PointCloud:
    """Closed scissors: two crossed thin blades plus two ring handles."""
    d = _merge_dims(SCISSOR_DIMS, dims)
    blade_half = np.array(
        [d["blade_halfwidth"], d["blade_halflength"], d["blade_halfthickness"]]
    )
    ring_main, ring_tube = d["ring_radius"], d["ring_tube"]
    patches = []
    for side in (-1.0, 1.0):
        rot = Rotation.from_euler("z", side * d["open_deg"], degrees=True).as_matrix()
        blade_center = rot @ np.array(
            [0.0, d["blade_halflength"] + 0.005, 0.0]
        ) + [0.0, 0.0, side * 0.002]
        patches += _box_patches("blade", blade_half, blade_center, rotation=rot)
        ring_center = rot @ np.array(
            [0.0, -(ring_main + 0.006), 0.0]
        ) + [0.0, 0.0, side * 0.002]
        tilt = Rotation.from_euler("x", 90.0, degrees=True).as_matrix()
        patches.append(
            (
                "handle",
                2 * np.pi * ring_tube * 2 * np.pi * ring_main,
                lambda g, c, rc=ring_center, tilt=tilt: _torus_arc(
                    g, c, ring_main, ring_tube, 2 * np.pi, rc, tilt=tilt
                ),
            )
        )
    return _build_from_patches(patches, n, rng, scale)


def make_slab(n: int, rng, scale: float = 1.0, dims: dict | None = None) -> PointCloud:
    """A simple rectangular slab; every face carries the same label."""
    d = _merge_dims(SLAB_DIMS, dims)
    half = np.array([d["half_x"], d["half_y"], d["half_z"]])
    return _build_from_patches(_box_patches("face", half, np.zeros(3)), n, rng, scale)


SHAPES: dict[str, tuple[Callable, dict]] = {
    "mug": (make_mug, MUG_DIMS),
    "bottle": (make_bottle, BOTTLE_DIMS),
    "scissor": (make_scissor, SCISSOR_DIMS),
    "slab": (make_slab, SLAB_DIMS),
}  # object class -> (generator, default shape dims)


def generate_object(
    object_class: str, n: int, rng, scale: float = 1.0, dims: dict | None = None
) -> PointCloud:
    if object_class not in SHAPES:
        raise SceneSpecError(
            f"no generator for object class '{object_class}' "
            f"(available: {sorted(SHAPES)})"
        )
    if n < 10:
        raise SceneSpecError("objects need at least 10 sampled points")
    return SHAPES[object_class][0](n, rng, scale, dims=dims)


def perturbed_dims(object_class: str, rng, fraction: float = 0.2) -> dict:
    """Every shape dimension scaled by an independent uniform +-fraction."""
    if object_class not in SHAPES:
        raise SceneSpecError(f"no shape dims for class '{object_class}'")
    return {
        key: value * rng.uniform(1.0 - fraction, 1.0 + fraction)
        for key, value in SHAPES[object_class][1].items()
    }


# ---------------------------------------------------------------------------
# view synthesis and degradation


def partial_view(cloud: PointCloud, camera):
    """Points visible from `camera` by spherical-flip hidden point removal.

    Each point is reflected about a sphere centered on the camera; the
    points whose reflections reach the convex hull are the visible ones.
    The camera must sit outside the cloud's bounding box.
    """
    camera = np.asarray(camera, dtype=np.float64)
    box = aabb(cloud)
    if bool(box.contains(camera[None, :])[0]):
        raise SceneSpecError("camera must be outside the scene bounding box")
    rel = cloud.points - camera
    norms = np.linalg.norm(rel, axis=1)
    radius = HPR_RADIUS_FACTOR * max(box.diagonal, 1e-9)
    flipped = rel * ((2.0 * radius / norms - 1.0))[:, None]
    try:
        hull = ConvexHull(np.vstack([flipped, np.zeros(3)]))
    except QhullError as exc:
        raise SceneSpecError(f"hidden point removal failed: {exc}") from exc
    visible = np.array(sorted(v for v in hull.vertices if v < len(cloud)))
    if visible.size == 0:
        raise SceneSpecError("no points visible from the camera")
    return cloud.select(visible), visible


def perturb(
    cloud: PointCloud,
    rng,
    occlusion: float = 0.0,
    noise_sigma: float = 0.0,
    smooth_k: int = 0,
) -> PointCloud:
    """Degrade a view: corner occlusion, Gaussian jitter, then smoothing.

    `occlusion` removes that fraction of points nearest a random bounding
    box corner (in extent-normalized Chebyshev distance, so the removed
    region is box shaped). `noise_sigma` jitters every coordinate.
    `smooth_k` >= 2 replaces each point with the mean of its k nearest
    neighbors, which blurs fine structure without moving the surface.
    """
    if not 0.0 <= occlusion < 1.0:
        raise SceneSpecError("occlusion fraction must be in [0, 1)")
    out = cloud
    if occlusion > 0.0 and len(out) > 0:
        lo = out.points.min(axis=0)
        hi = out.points.max(axis=0)
        extent = np.maximum(hi - lo, 1e-9)
        corner_bits = rng.integers(0, 2, size=3)
        corner = np.where(corner_bits == 1, hi, lo)
        scaled = np.abs(out.points - corner) / extent
        cheb = scaled.max(axis=1)
        n_drop = int(round(occlusion * len(out)))
        keep = np.sort(np.argsort(cheb, kind="stable")[n_drop:])
        out = out.select(keep)
    if noise_sigma > 0.0 and len(out) > 0:
        jittered = out.points + rng.normal(0.0, noise_sigma, size=(len(out), 3))
        out = PointCloud(jittered, out.labels)
    if smooth_k >= 2 and len(out) >= smooth_k:
        idx = knn_indices_batch(out, out.points, smooth_k)
        out = PointCloud(out.points[idx].mean(axis=1), out.labels)
    return out


# ---------------------------------------------------------------------------
# scoring


def iou_3d(member_indices, labels, part_path: str) -> float:
    """Index-set intersection over union against the labeled truth part."""
    truth = set(np.flatnonzero(truth_mask(labels, part_path)).tolist())
    pred = set(int(i) for i in member_indices)
    if not truth and not pred:
        return 1.0
    return len(truth & pred) / len(truth | pred)


def grasp_success(
    candidate, scene: PointCloud, part_path: str, gripper: GripperConfig
) -> bool:
    """A grasp succeeds when it closes on the truth part and only on it.

    Three conditions, all against ground-truth labels: material of the
    truth part crosses the closing line, no non-part point sits between
    the jaws, and the finger volumes are clear of non-part points.
    """
    truth = truth_mask(scene.labels, part_path)
    truth_points = scene.points[truth]
    other_points = scene.points[~truth]
    if not check_stick(candidate.pose, candidate.width, truth_points, gripper):
        return False
    if np.any(points_in_closure(candidate.pose, candidate.width, other_points, gripper)):
        return False
    return check_placement(candidate.pose, candidate.width, other_points, gripper)


# ---------------------------------------------------------------------------
# trial orchestration


@dataclass(frozen=True)
class Condition:
    """One benchmark setting, run for several independent trials.

    `n_points` is the size of the cloud recognition sees. With
    `partial=True` the object is sampled more densely, a single viewpoint
    is taken, and the view is thinned back to `n_points`. `dims_fraction`
    perturbs every generator shape dimension by that uniform fraction, so
    scenes are shape variants of the templates rather than copies. A field
    of the wrong type or out of range raises SceneSpecError.
    """

    name: str
    object_class: str
    part_path: str
    n_points: int = 1500
    partial: bool = True
    dims_fraction: float = 0.0
    occlusion: float = 0.0
    noise_sigma: float = 0.0
    smooth_k: int = 0
    scale: float = 1.0
    template_ids: tuple = ()
    min_part_visibility: float = MIN_PART_VISIBILITY

    def __post_init__(self):
        # conditions arrive from JSON files, so check each field's type and
        # range here, before a trial uses it
        kinds = {"str": str, "int": Integral, "float": Real, "bool": bool, "tuple": tuple}
        for f in fields(self):
            value, kind = getattr(self, f.name), kinds[f.type]
            if isinstance(value, bool) != (kind is bool) or not isinstance(value, kind):
                raise SceneSpecError(f"condition {f.name} must be {f.type}, got {value!r}")
        if not all(isinstance(tid, str) for tid in self.template_ids):
            raise SceneSpecError(
                f"condition template_ids must be strings, got {self.template_ids!r}"
            )
        ranges = (
            ("n_points", self.n_points >= 10, "at least 10"),
            ("dims_fraction", 0 <= self.dims_fraction < 1, "in [0, 1)"),
            ("occlusion", 0 <= self.occlusion < 1, "in [0, 1)"),
            ("noise_sigma", self.noise_sigma >= 0, "non-negative"),
            ("smooth_k", self.smooth_k >= 0, "non-negative"),
            ("scale", self.scale > 0, "positive"),
            ("min_part_visibility", 0 < self.min_part_visibility <= 1, "in (0, 1]"),
        )
        for name, ok, rule in ranges:
            if not ok:
                raise SceneSpecError(
                    f"condition {name} must be {rule}, got {getattr(self, name)!r}"
                )


@dataclass
class TrialReport:
    condition: str
    trial_index: int
    recognized: bool = False
    iou: float = 0.0
    planned: bool = False
    selected_ok: bool = False
    any_ok: bool = False
    n_candidates: int = 0
    recognition_seconds: float = 0.0
    total_seconds: float = 0.0
    error: str | None = None
    registration_errors: dict = field(default_factory=dict)  # template id -> "code: message"

    def __post_init__(self):
        if self.selected_ok and not self.planned:
            raise ValueError("a grasp cannot succeed without a plan")
        if self.planned and not self.recognized:
            raise ValueError("planning requires a recognized part")


@dataclass
class ConditionMetrics:
    """Aggregate rates over one condition's trials."""

    n_trials: int
    pra: float  # part recognition accuracy: IoU >= 0.5
    pr: float  # planning rate: a candidate list was produced
    gsa: float  # grasp success accuracy: the selected grasp succeeds
    gsr: float  # grasp success rate: some candidate succeeds
    pgsr: float  # pipeline grasp success rate (= gsa over all trials)
    sr: float  # success among planned trials
    mean_recognition_seconds: float
    mean_total_seconds: float

    @classmethod
    def from_trials(cls, trials) -> "ConditionMetrics":
        n = len(trials)
        if n == 0:
            raise SceneSpecError("cannot aggregate zero trials")
        planned = sum(t.planned for t in trials)
        ok = sum(t.selected_ok for t in trials)
        return cls(
            n_trials=n,
            pra=sum(t.recognized for t in trials) / n,
            pr=planned / n,
            gsa=ok / n,
            gsr=sum(t.any_ok for t in trials) / n,
            pgsr=ok / n,
            sr=ok / planned if planned else 0.0,
            mean_recognition_seconds=float(
                np.mean([t.recognition_seconds for t in trials])
            ),
            mean_total_seconds=float(np.mean([t.total_seconds for t in trials])),
        )


# the size factor of each template `build_class_templates` builds, in order
_TEMPLATE_SCALES = (1.0, 0.93, 1.08, 0.88, 1.15, 0.8, 1.25, 0.75, 1.3, 0.7)
MAX_TEMPLATES_PER_CLASS = len(_TEMPLATE_SCALES)


def class_template_ids(object_class: str, count: int) -> list[str]:
    """The ids `build_class_templates` gives its `count` templates, in order."""
    return [f"{object_class}-{i}" for i in range(count)]


def build_class_templates(
    object_class: str,
    count: int = 3,
    leaf: float = DEFAULT_LEAF,
    gripper: GripperConfig = GripperConfig(),
    rng_seed: int = 0,
    n_points: int = 6000,
    graph=None,
) -> dict:
    """Build `count` templates of one class at slightly varied sizes."""
    if count > MAX_TEMPLATES_PER_CLASS:
        raise SceneSpecError(f"at most {MAX_TEMPLATES_PER_CLASS} templates per class")
    out = {}
    for i, template_id in enumerate(class_template_ids(object_class, count)):
        rng = np.random.default_rng((rng_seed, i))
        cloud = generate_object(object_class, n_points, rng, scale=_TEMPLATE_SCALES[i])
        template = build_template(
            cloud,
            object_class,
            leaf=leaf,
            gripper=gripper,
            graph=graph,
            template_id=template_id,
            rng=(rng_seed, i),
        )
        out[template.id] = template
    return out


def random_pose(rng, max_translation: float = 0.05) -> RigidTransform:
    """A uniformly random full rotation plus a modest translation."""
    rotation = Rotation.random(random_state=rng).as_matrix()
    translation = rng.uniform(-max_translation, max_translation, 3)
    return RigidTransform(rotation, translation)


def desk_pose(rng, max_tilt_deg: float = 8.0, max_translation: float = 0.05) -> RigidTransform:
    """An upright desk pose: free yaw, mild tilt, modest translation.

    Objects standing on a surface rotate freely about the vertical but tilt
    only slightly; the relative-position metric keys on axis-aligned
    bounding boxes, so scenes posed this way stay comparable to templates.
    """
    yaw = rng.uniform(0.0, 360.0)
    tilt = rng.uniform(-max_tilt_deg, max_tilt_deg, 2)
    rotation = Rotation.from_euler("zxy", [yaw, tilt[0], tilt[1]], degrees=True)
    translation = rng.uniform(-max_translation, max_translation, 3)
    return RigidTransform(rotation.as_matrix(), translation)


def camera_with_part_visible(
    scene: PointCloud,
    part_path: str,
    rng,
    min_visibility: float = MIN_PART_VISIBILITY,
):
    """Sample viewpoints until the truth part stays sufficiently visible.

    Returns (partial cloud, camera, retained fraction of the part). A part
    can be fully self-occluded from most directions, so viewpoints are
    rejected until the partial view keeps at least `min_visibility` of the
    part's points.
    """
    box = aabb(scene)
    center = box.center
    distance = CAMERA_DISTANCE_FACTOR * max(box.diagonal, 1e-6)
    truth_total = int(truth_mask(scene.labels, part_path).sum())
    if truth_total == 0:
        raise SceneSpecError(f"scene has no points labeled '{part_path}'")
    best = None
    for _ in range(MAX_CAMERA_TRIES):
        direction = rng.normal(size=3)
        direction /= np.linalg.norm(direction)
        camera = center + distance * direction
        view, visible = partial_view(scene, camera)
        retained = int(truth_mask(view.labels, part_path).sum()) / truth_total
        if best is None or retained > best[2]:
            best = (view, camera, retained)
        if retained >= min_visibility:
            return view, camera, retained
    if best is None or best[2] <= 0.0:
        raise SceneSpecError(
            f"part '{part_path}' is never visible within {MAX_CAMERA_TRIES} viewpoints"
        )
    return best


def make_scene(condition: Condition, rng) -> PointCloud:
    """The labeled scene of one trial of `condition`, drawn from `rng`.

    Shape variant (with `dims_fraction`), object sample, desk pose, then
    with `partial` a viewpoint keeping `min_part_visibility` of the part and
    a thinning to `n_points`, then `perturb`. The draws come in that order,
    so a seeded rng always yields the same scene.
    """
    dims = None
    if condition.dims_fraction > 0:
        dims = perturbed_dims(condition.object_class, rng, condition.dims_fraction)
    sample_n = condition.n_points * (4 if condition.partial else 1)
    full = generate_object(condition.object_class, sample_n, rng, condition.scale, dims=dims)
    view = apply_transform(full, desk_pose(rng))
    if condition.partial:
        view, _camera, _retained = camera_with_part_visible(
            view, condition.part_path, rng, min_visibility=condition.min_part_visibility
        )
        if len(view) > condition.n_points:
            keep = rng.choice(len(view), condition.n_points, replace=False)
            view = view.select(np.sort(keep))
    return perturb(view, rng, condition.occlusion, condition.noise_sigma, condition.smooth_k)


def run_trial(
    condition: Condition,
    templates: dict,
    rng,
    gripper: GripperConfig = GripperConfig(),
    trial_index: int = 0,
) -> TrialReport:
    """One generate-degrade-recognize-register-plan-score round trip.

    The scene is `make_scene`'s, and the stages run as in `run_pipeline`
    (setup, recognize, register, plan). Pipeline failures are recorded on
    the report as "code: [stage] message", never raised: a benchmark
    measures failure rates.
    """
    report = TrialReport(condition=condition.name, trial_index=trial_index)
    timings: dict[str, float] = {}
    t_start = time.perf_counter()
    try:
        with stage("setup"):
            scene = make_scene(condition, rng)

        with stage("recognize", timings):
            if condition.template_ids:
                missing = [tid for tid in condition.template_ids if tid not in templates]
                if missing:
                    raise SceneSpecError(f"template ids {missing} are not in the bank")
                selected = {tid: templates[tid] for tid in condition.template_ids}
            else:
                selected = select_templates(
                    templates, condition.object_class, condition.part_path
                )
            recognition = recognize(scene, list(selected.values()), condition.part_path)
        report.recognition_seconds = timings["recognize_seconds"]
        report.iou = iou_3d(recognition.members, scene.labels, condition.part_path)
        report.recognized = report.iou >= IOU_RECOGNIZED
        if not report.recognized:
            return report

        with stage("register"):
            registrations, errors = register_all(scene, recognition, selected, trial_index)
        report.registration_errors = errors
        with stage("plan"):
            candidates = plan(scene, recognition, registrations, selected, gripper=gripper)
        report.planned = True
        report.n_candidates = len(candidates)
        report.selected_ok = grasp_success(
            candidates[0], scene, condition.part_path, gripper
        )
        report.any_ok = report.selected_ok or any(
            grasp_success(c, scene, condition.part_path, gripper)
            for c in candidates[1:]
        )
    except TogError as exc:
        report.error = f"{exc.code}: {exc}"
    finally:
        report.total_seconds = time.perf_counter() - t_start
    return report


@dataclass
class BenchReport:
    trials: list
    per_condition: dict

    def to_dict(self) -> dict:
        return {
            "schema_version": 1,
            "conditions": {
                name: vars(metrics) for name, metrics in self.per_condition.items()
            },
            "trials": [vars(t) for t in self.trials],
        }


def run_suite(
    conditions,
    templates: dict,
    trials_per_condition: int = 10,
    master_seed: int = 0,
    gripper: GripperConfig = GripperConfig(),
) -> BenchReport:
    """Run every condition for `trials_per_condition` independent trials.

    Conditions are reported by name, so a repeated name is a SceneSpecError.
    """
    check_integer_setting("trials_per_condition", trials_per_condition, 1)
    check_integer_setting("master_seed", master_seed, 0)
    conditions = list(conditions)
    check_unique("condition names", [condition.name for condition in conditions])
    all_trials = []
    per_condition = {}
    for c_idx, condition in enumerate(conditions):
        rows = []
        for t_idx in range(trials_per_condition):
            rng = np.random.default_rng(
                np.random.SeedSequence((master_seed, c_idx, t_idx))
            )
            rows.append(
                run_trial(condition, templates, rng, gripper=gripper, trial_index=t_idx)
            )
        per_condition[condition.name] = ConditionMetrics.from_trials(rows)
        all_trials.extend(rows)
    return BenchReport(trials=all_trials, per_condition=per_condition)


def recognition_runtime_trend(
    scene: PointCloud, templates_in_order, part_path: str, template_counts=(1, 3, 5, 10)
):
    """Recognition wall time as the template count grows; one (k, s) pair each."""
    ordered = list(templates_in_order)
    if max(template_counts) > len(ordered):
        raise SceneSpecError(
            f"need {max(template_counts)} templates, got {len(ordered)}"
        )
    out = []
    for k in template_counts:
        start = time.perf_counter()
        recognize(scene, ordered[:k], part_path)
        out.append((k, time.perf_counter() - start))
    return out
