"""Workload definitions, seeded scene generation and benchmark set-up.

Every scene comes from `SeedSequence((seed, workload.index, scene))` through
the public `tog.bench` generators, so a (workload, seed, scene count) triple
always yields the same bytes on disk. Scenes are written as unlabelled ASCII
PLY, as a sensor would deliver them; the truth labels stay in memory for
scoring.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np
from numpy.random import SeedSequence, default_rng

from tog import bench
from tog.cloud_io import save_ply
from tog.geometry import PointCloud, apply_transform
from tog.ontology import FixtureChatClient, Instruction, default_graph, render_prompt
from tog.templates import save_db

TEMPLATES_PER_BANK = 3
MIN_SCENES = 2


@dataclass(frozen=True)
class Workload:
    """One fixed scene recipe, run closed-loop by a single client.

    `scene_seconds` is the measured per-scene wall time on a 2-core x86
    host; it only sizes the scene set so that one pass lasts about the
    requested run time. The set is fixed by (seed, run seconds), never by
    the clock, so quality numbers repeat exactly.
    """

    name: str
    index: int
    object_class: str
    part_path: str
    instruction: str
    n_points: int
    partial: bool
    dims_fraction: float
    scene_seconds: float
    why: str

    def scene_count(self, seconds: float) -> int:
        return max(MIN_SCENES, round(seconds / self.scene_seconds))


# bottle-cap-partial runs on request but is not listed in BENCHMARK.json: a
# scene costs either one RANSAC attempt per template or up to twenty, so over
# five seeds the median of a 20 s run (6 scenes) spread by 0.64 of itself
# (quartile distance over median), far past any usable regression bound.
WORKLOADS = (
    Workload(
        name="mug-handle-partial",
        index=0,
        object_class="mug",
        part_path="handle",
        instruction="pick up the mug by its handle",
        n_points=1500,
        partial=True,
        dims_fraction=0.0,
        scene_seconds=2.8,
        why=(
            "1500-point single-view mugs in desk poses: the 512-rotation "
            "grid (optimize_rotation) dominates, and handle IoU stays low"
        ),
    ),
    Workload(
        name="bottle-cap-partial",
        index=1,
        object_class="bottle",
        part_path="cap",
        instruction="open the bottle by its cap",
        n_points=1500,
        partial=True,
        dims_fraction=0.2,
        scene_seconds=3.4,
        why=(
            "1500-point views of +-20% bottle variants: the local RANSAC "
            "retry loop (coarse_align, fpfh) dominates instead of the grid"
        ),
    ),
    Workload(
        name="bottle-body-full",
        index=2,
        object_class="bottle",
        part_path="body",
        instruction="grasp the bottle body",
        n_points=2000,
        partial=False,
        dims_fraction=0.0,
        scene_seconds=9.5,
        why=(
            "2000-point full-surface bottles: recognition's n x k clusters "
            "take the largest share of time and of peak memory"
        ),
    ),
)

BY_NAME = {w.name: w for w in WORKLOADS}


def make_scene(workload: Workload, seed: int, scene: int) -> PointCloud:
    """The labelled scene cloud for one (workload, seed, scene) triple."""
    rng = default_rng(SeedSequence((seed, workload.index, scene)))
    dims = (
        bench.perturbed_dims(workload.object_class, rng, workload.dims_fraction)
        if workload.dims_fraction > 0
        else None
    )
    n = workload.n_points
    full = bench.generate_object(
        workload.object_class, 4 * n if workload.partial else n, rng, dims=dims
    )
    posed = apply_transform(full, bench.desk_pose(rng))
    if not workload.partial:
        return posed
    view, _camera, _retained = bench.camera_with_part_visible(
        posed, workload.part_path, rng
    )
    if len(view) > n:
        view = view.select(np.sort(rng.choice(len(view), n, replace=False)))
    return view


def chat_reply(workload: Workload) -> str:
    return (
        f'The given command is "{workload.instruction}".\n'
        f"Step 1: the task needs the {workload.object_class}'s "
        f"{workload.part_path}.\n"
        f"Conclusion: {workload.part_path}"
    )


@dataclass
class Inputs:
    """What set-up leaves on disk, plus the truth labels kept for scoring."""

    db_path: Path
    fixtures: Path
    scene_paths: list
    labels: list


def set_up(workload: Workload, seed: int, n_scenes: int, directory, recorder=None) -> Inputs:
    """Build and save the template bank, record the chat fixture, write scenes.

    With a recorder, `save_db` runs inside a `templates.save_db` span; the
    caller patches the layers it wants traced.
    """
    directory = Path(directory)
    bank = bench.build_class_templates(workload.object_class, count=TEMPLATES_PER_BANK)
    db_path = directory / "db"
    if recorder is None:
        save_db(bank, db_path)
    else:
        with recorder.span("templates.save_db"):
            save_db(bank, db_path)
    fixtures = directory / "fixtures"
    prompt = render_prompt(default_graph(), Instruction(workload.instruction))
    FixtureChatClient(fixtures).record(prompt, chat_reply(workload))
    scene_paths, labels = [], []
    for i in range(n_scenes):
        scene = make_scene(workload, seed, i)
        path = directory / f"scene-{i:03d}.ply"
        save_ply(PointCloud(scene.points), path)
        scene_paths.append(path)
        labels.append(np.asarray(scene.labels))
    return Inputs(db_path, fixtures, scene_paths, labels)
