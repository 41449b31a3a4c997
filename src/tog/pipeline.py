"""End-to-end orchestration: one instruction and one scene in, grasps out.

`run_pipeline` chains resolve -> recognize -> register -> plan and gathers a
provenance report (what was resolved, which template won, every transform,
score, and stage timing). `export_artifacts` writes the intermediate and
final geometry as PLY snapshots any external viewer can open.

The CLI and the benchmark run the same stage code. `stage` names and times
each stage (setup, resolve, recognize, register, plan) and tags the engine
errors escaping it, so every failure reaches the caller with its stage.
`select_templates`, `register_all` (seeds, failure capture, the winner and
the stop), `skipped_templates`, `resolution_payload`, `recognition_payload`,
`registration_payload` and `cluster_cloud` are the one implementation of
their step.

The winner, the template whose grasps `plan` imitates, is the first of the
highest registration fitness. `register_all` picks it as it registers and
stops at the first template that fits every observed point (fitness 1.0):
fitness never exceeds 1, so no later template could win. So the winner, its
transforms and the grasps are those of registering every template; the
report lists the templates never tried under `registrations_skipped`.
"""

from __future__ import annotations

import time
from collections import Counter
from contextlib import contextmanager
from dataclasses import dataclass
from numbers import Integral
from os import PathLike
from pathlib import Path

import numpy as np

from .cloud_io import load_cloud, save_ply
from .errors import (
    NoFeasibleGraspError,
    NoGraspError,
    RegistrationFailureError,
    SceneSpecError,
    TogError,
)
from .geometry import PointCloud, apply_transform
from .ontology import (
    ChatClient,
    Instruction,
    OntologyGraph,
    ResolvedPart,
    default_graph,
    resolve,
)
from .planning import GraspCandidate, plan
from .recognition import RecognitionResult, recognize
from .registration import RegistrationResult, register
from .templates import GripperConfig, Template, load_db

REPORT_SCHEMA_VERSION = 1
TRIAD_AXIS_LENGTH = 0.02
TRIAD_POINTS_PER_AXIS = 8


def check_integer_setting(name: str, value, low: int) -> None:
    """SceneSpecError unless `value` is an integer (not a bool) >= `low`."""
    if isinstance(value, bool) or not isinstance(value, Integral):
        raise SceneSpecError(f"{name} must be an integer, got {value!r}")
    if value < low:
        raise SceneSpecError(f"{name} must be at least {low}, got {value}")


def check_unique(what: str, names) -> None:
    """SceneSpecError naming every entry of `names` that occurs more than once."""
    repeated = sorted(name for name, n in Counter(names).items() if n > 1)
    if repeated:
        raise SceneSpecError(f"{what} {repeated} are given more than once")


@dataclass(frozen=True)
class PipelineConfig:
    """The validated settings of a run, shared by the API and every CLI command.

    `run_pipeline` needs `db_path`; `ontology_path` of None selects the
    built-in graph. `template_cap` bounds the candidates: how many templates
    of the resolved class are matched (database index order). They register
    in that order until one fits every observed point, and the first of the
    highest fitness wins (`register_all`).
    There is no leaf: each template registers at its own `Template.leaf`. A
    bad type or range raises SceneSpecError.
    """

    db_path: str | None = None
    ontology_path: str | None = None
    gripper: GripperConfig = GripperConfig()
    template_cap: int = 3
    rng_seed: int = 0

    def __post_init__(self):
        for name in ("db_path", "ontology_path"):
            value = getattr(self, name)
            if value is not None and not isinstance(value, (str, PathLike)):
                raise SceneSpecError(f"{name} must be a path, got {value!r}")
        if not isinstance(self.gripper, GripperConfig):
            raise SceneSpecError(f"gripper must be a GripperConfig, got {self.gripper!r}")
        check_integer_setting("template_cap", self.template_cap, 1)
        check_integer_setting("rng_seed", self.rng_seed, 0)

    def graph(self) -> OntologyGraph:
        """The ontology at `ontology_path`, else the built-in graph."""
        if self.ontology_path:
            return OntologyGraph.load(self.ontology_path)
        return default_graph()


@dataclass
class PipelineResult:
    resolved: ResolvedPart
    recognition: RecognitionResult
    registrations: dict[str, RegistrationResult]
    winning_template: str | None
    candidates: list[GraspCandidate]
    scene: PointCloud
    templates: dict[str, Template]
    report: dict


@contextmanager
def stage(name: str, timings: dict[str, float] | None = None):
    """Run the enclosed code as the stage `name`: tag its errors, time it.

    A TogError without a stage escaping the block gets `name` as its stage.
    When the block completes and `timings` is given, its wall time goes to
    `timings[name + "_seconds"]`.
    """
    start = time.perf_counter()
    try:
        yield
    except TogError as exc:
        if exc.stage is None:
            exc.stage = name
        raise
    if timings is not None:
        timings[f"{name}_seconds"] = time.perf_counter() - start


def select_templates(
    db: dict, object_class: str | None, part_path: str, cap: int | None = None
) -> dict[str, Template]:
    """Templates to match, in database order, at most `cap` of them.

    Every template carrying `part_path`, of class `object_class` if one is
    given. Raises SceneSpecError when none qualifies.
    """
    chosen = {
        tid: t
        for tid, t in db.items()
        if part_path in t.parts and (not object_class or t.object_class == object_class)
    }
    if not chosen:
        of_class = f" of class '{object_class}'" if object_class else ""
        raise SceneSpecError(
            f"database has no templates{of_class} with part '{part_path}'"
        )
    return dict(list(chosen.items())[:cap])


def register_all(
    scene, recognition, templates: dict, seed_base: int, strict=True
) -> tuple[dict[str, RegistrationResult], dict[str, str], str | None]:
    """Register the templates to the recognized part and pick the winner.

    Templates register in order, each at its own `leaf`, the i-th with seed
    `seed_base * 1000 + i`. The winner is the first template of the highest
    final fitness. The loop stops after the first registration of fitness
    1.0, so the rest are not tried (`skipped_templates` names them). Returns
    the registrations, per failed template its "code: message", and the
    winner's id, None when nothing registered. With `strict`, raises
    RegistrationFailureError naming each failure when none succeeds.
    """
    registrations: dict[str, RegistrationResult] = {}
    errors: dict[str, str] = {}
    winner = None
    for i, (tid, template) in enumerate(templates.items()):
        try:
            reg = register(scene, recognition, template, seed_base * 1000 + i)
        except TogError as exc:
            errors[tid] = f"{exc.code}: {exc}"
            continue
        registrations[tid] = reg
        if winner is None or reg.fitness > registrations[winner].fitness:
            winner = tid
        if reg.fitness == 1.0:  # fitness never exceeds 1: no later template wins
            break
    if winner is None and strict:
        raise RegistrationFailureError(f"every template registration failed: {errors}")
    return registrations, errors, winner


def skipped_templates(templates: dict, registrations: dict, errors: dict) -> list[str]:
    """Ids of `templates`, in order, that `register_all` did not try."""
    return [tid for tid in templates if tid not in registrations and tid not in errors]


def resolution_payload(resolved: ResolvedPart) -> dict:
    """JSON form of what the instruction resolved to."""
    return {
        "object_class": resolved.object_class,
        "part_path": resolved.part_path,
        "mapped_from": resolved.mapped_from,
    }


def recognition_payload(recognition: RecognitionResult) -> dict:
    """JSON form of a recognition's winner and scores."""
    return {
        "seed_index": int(recognition.seed_index),
        "mean_score": float(recognition.mean_score),
        "winning_template_for_cluster": recognition.winning_template_for_cluster,
        "per_template_scores": {
            tid: float(s) for tid, s in recognition.per_template_scores.items()
        },
    }


def registration_payload(reg: RegistrationResult) -> dict:
    """JSON form of one registration: quality and every transform."""
    return {
        "fitness": float(reg.fitness),
        "rmse": float(reg.rmse),
        "correspondence_count": int(reg.correspondence_count),
        "t_total": reg.t_total.matrix.tolist(),
        "t_loc": reg.t_loc.matrix.tolist(),
        "t_opt": reg.t_opt.matrix.tolist(),
        "t_icp": reg.t_icp.matrix.tolist(),
    }


def cluster_cloud(scene: PointCloud, recognition: RecognitionResult) -> PointCloud:
    """The scene with the recognized cluster labeled "cluster", the rest "rest"."""
    inside = np.isin(np.arange(len(scene)), recognition.members)
    return PointCloud(scene.points, np.where(inside, "cluster", "rest"))


def _grasp_payload(candidate: GraspCandidate) -> dict:
    return {
        "pose": candidate.pose.matrix.tolist(),
        "width": candidate.width,
        "template_id": candidate.template_id,
        "part_path": candidate.part_path,
        "source_index": candidate.source_index,
        "adjustment": candidate.adjustment.tolist(),
        "stick_ok_initially": candidate.stick_ok_initially,
    }


def run_pipeline(
    config: PipelineConfig,
    instruction_text: str,
    scene_cloud_path,
    client: ChatClient,
    novel_extension: bool = False,
    target_class_hint: str | None = None,
    include_timings: bool = True,
    strict: bool = True,
) -> PipelineResult:
    """Resolve the instruction, find the part, align templates, plan grasps.

    The matched templates register in database order until one fits every
    observed point, and `register_all` names the winner, whose template and
    transform `plan` imitates. The report's `registrations` and
    `registration_errors` hold the templates tried, `registrations_skipped`
    the rest, and the winner and grasps are those of trying them all.

    Any stage failure propagates as the stage's own error with its `stage`
    attribute set, so callers can report where the chain broke. With
    `strict=False` the chain tolerates an empty outcome past recognition
    (no registration, no stored grasp for the part, or no feasible grasp)
    and reports what it has, which suits snapshot export. With
    `include_timings` the report's `timings` holds the wall seconds of each
    stage (`setup_seconds`, `resolve_seconds`, `recognize_seconds`,
    `register_seconds`, `plan_seconds`) and of the whole run
    (`total_seconds`). Repeated calls in one process reuse the database's
    templates while their files are unchanged (`load_template`), and with
    them the descriptors and distance fields registration built on them.
    """
    t_start = time.perf_counter()
    timings: dict[str, float] = {}

    with stage("setup", timings):
        if not config.db_path:
            raise SceneSpecError("no template database given (db_path is unset)")
        graph = config.graph()
        db = load_db(config.db_path)
        scene = load_cloud(scene_cloud_path)

    with stage("resolve", timings):
        resolved = resolve(
            graph,
            Instruction(instruction_text, target_class_hint=target_class_hint),
            client,
            novel_extension=novel_extension,
        )

    with stage("recognize", timings):
        selected = select_templates(
            db, resolved.object_class, resolved.part_path, config.template_cap
        )
        recognition = recognize(scene, list(selected.values()), resolved.part_path)

    with stage("register", timings):
        registrations, errors, winning = register_all(
            scene, recognition, selected, config.rng_seed, strict=strict
        )

    with stage("plan", timings):
        candidates: list[GraspCandidate] = []
        if winning is not None:
            try:
                candidates = plan(
                    scene, recognition, selected[winning],
                    registrations[winning].t_total, gripper=config.gripper,
                )
            except (NoGraspError, NoFeasibleGraspError):
                if strict:
                    raise

    timings["total_seconds"] = time.perf_counter() - t_start
    report = {
        "schema_version": REPORT_SCHEMA_VERSION,
        "instruction": instruction_text,
        "resolved": resolution_payload(resolved),
        "recognition": {
            **recognition_payload(recognition),
            "cluster_points": int(len(recognition.members)),
        },
        "registrations": {
            tid: registration_payload(reg) for tid, reg in registrations.items()
        },
        "registration_errors": errors,
        "registrations_skipped": skipped_templates(selected, registrations, errors),
        "winning_template": winning,
        "grasps": [_grasp_payload(c) for c in candidates],
    }
    if include_timings:
        report["timings"] = timings
    return PipelineResult(
        resolved=resolved,
        recognition=recognition,
        registrations=registrations,
        winning_template=winning,
        candidates=candidates,
        scene=scene,
        templates=selected,
        report=report,
    )


# ---------------------------------------------------------------------------
# PLY snapshot export


def _triad_cloud(candidates) -> PointCloud:
    """Sample each grasp frame as labeled points along its three axes."""
    pts, labels = [], []
    steps = np.linspace(0.0, TRIAD_AXIS_LENGTH, TRIAD_POINTS_PER_AXIS + 1)[1:]
    for rank, candidate in enumerate(candidates):
        origin = candidate.pose.translation
        rotation = candidate.pose.rotation
        pts.append(origin)
        labels.append(f"grasp-{rank}-origin")
        for axis, name in enumerate("xyz"):
            direction = rotation[:, axis]
            for s in steps:
                pts.append(origin + s * direction)
                labels.append(f"grasp-{rank}-{name}")
    return PointCloud(np.asarray(pts), labels)


def export_artifacts(result: PipelineResult, out_dir) -> list[Path]:
    """Write viewer-ready PLY snapshots; returns the files written.

    Always: the scene and the scene with the recognized cluster labeled.
    When a registration exists: the scene overlaid with the winning template
    mapped into the scene frame. When grasps exist: every grasp frame as an
    oriented triad of labeled axis points.
    """
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    written: list[Path] = []

    def write(name: str, cloud: PointCloud) -> None:
        path = out_dir / name
        save_ply(cloud, path)
        written.append(path)

    write("scene.ply", result.scene)
    write("cluster.ply", cluster_cloud(result.scene, result.recognition))
    if result.winning_template is not None:
        reg = result.registrations[result.winning_template]
        template_cloud = result.templates[result.winning_template].full_cloud
        aligned = apply_transform(template_cloud, reg.t_total.inverse())
        overlay = PointCloud(
            np.vstack([result.scene.points, aligned.points]),
            ["scene"] * len(result.scene) + ["template"] * len(aligned),
        )
        write("overlay.ply", overlay)
    if result.candidates:
        write("grasps.ply", _triad_cloud(result.candidates))
    return written
