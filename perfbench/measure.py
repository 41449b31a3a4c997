"""One benchmark run: set-up, warm-up, the closed loop over scenes, scoring.

The loop calls `tog.pipeline.run_pipeline` once per scene with tracing off;
a traced run then repeats each scene with the layer entry points patched and
requires the same report. Every returned report is checked for structure and
scored against the truth labels kept at set-up.
"""

from __future__ import annotations

import json
import os
import platform
import resource
import shutil
import statistics
import time
from dataclasses import dataclass
from pathlib import Path

import numpy
import scipy

from perfbench.metrics import latency_summary, layer_metrics, self_time_shares
from perfbench.tracing import SpanRecorder
from perfbench.workloads import set_up
from tog import bench, pipeline, planning, registration
from tog.errors import TogError
from tog.geometry import PointCloud
from tog.ontology import FixtureChatClient
from tog.pipeline import PipelineConfig

SETUP_REPEATS = 3
TEMPLATE_CAP = 3
RNG_SEED = 0
# The end-to-end metrics BENCHMARK.json bounds. latency_tail_s and the success
# rates are printed and stored too, but with 3-11 scenes a run the tail is the
# maximum or a sub-median order statistic and a rate can read 0 or move by a
# whole scene from seed to seed, so neither holds a regression bound.
END_TO_END_UNITS = {
    "latency_p50_s": "s",
    "scenes_per_s": "1/s",
    "fitness_mean": "ratio",
    "peak_rss_mb": "MB",
    "setup_s": "s",
}
# per-layer quality metrics: metric name -> key of `_quality`
QUALITY_LAYERS = {
    "pipeline.failure_rate": "failure_rate",
    "recognition.part_iou_mean": "part_iou_mean",
    "recognition.recognition_rate": "recognition_rate",
    "planning.grasp_success_rate": "grasp_success_rate",
}


class GateFailure(Exception):
    """The program's output failed a correctness check; names the scene."""


@dataclass
class Outcome:
    """One `run_pipeline` call: wall time, comparable report, quality."""

    seconds: float
    key: str
    error: str | None = None
    iou: float | None = None
    grasp_ok: bool = False
    fitness: float | None = None


def _environment(workload, seed, n_scenes, seconds, trace, git_commit) -> dict:
    return {
        "workload": workload.name,
        "seed": seed,
        "scenes": n_scenes,
        "seconds": seconds,
        "trace": trace,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "git_commit": git_commit,
    }


def _instrument(recorder: SpanRecorder) -> None:
    """Patch the public layer entry points that the pipeline calls."""

    def count_recognize(span, args, kwargs, result):
        if result is not None:
            span.counts["seeds"] = len(result.seed_scores)
            span.counts["cluster_points"] = len(result.members)

    def count_icp(span, args, kwargs, result):
        if result is not None:
            span.counts["iterations"] = len(result.rmse_history)

    def count_transfer(span, args, kwargs, result):
        if result is not None:
            span.counts["grasps"] = len(result)

    def count_plan(span, args, kwargs, result):
        span.counts["kept"] = len(result) if result is not None else 0

    layers = (
        (pipeline, "load_db", "templates.load_db", None),
        (pipeline, "load_cloud", "cloud_io.load_cloud", None),
        (pipeline, "resolve", "ontology.resolve", None),
        (pipeline, "recognize", "recognition.recognize", count_recognize),
        (pipeline, "register", "registration.register", None),
        (pipeline, "plan", "planning.plan", count_plan),
        (registration, "register_local", "registration.register_local", None),
        (registration, "coarse_align", "registration.coarse_align", None),
        (registration, "fpfh", "registration.fpfh", None),
        (registration, "icp", "registration.icp", count_icp),
        (registration, "optimize_rotation", "registration.optimize_rotation", None),
        (planning, "transfer_grasps", "planning.transfer_grasps", count_transfer),
        (planning, "adjust_grasp", "planning.adjust_grasp", None),
        (bench, "build_template", "templates.build_template", None),
    )
    for module, attr, name, count in layers:
        recorder.patch(module, attr, name, count)


def _call(workload, inputs, scene: int, recorder: SpanRecorder | None = None) -> Outcome:
    """Run the pipeline on one scene and score it against the kept labels."""
    config = PipelineConfig(
        db_path=str(inputs.db_path), template_cap=TEMPLATE_CAP, rng_seed=RNG_SEED
    )
    client = FixtureChatClient(inputs.fixtures)
    path = inputs.scene_paths[scene]
    start = time.perf_counter()
    try:
        if recorder is None:
            result = pipeline.run_pipeline(
                config, workload.instruction, path, client, include_timings=False
            )
        else:
            recorder.scene = scene
            try:
                with recorder.span("pipeline.run_pipeline"):
                    result = pipeline.run_pipeline(
                        config, workload.instruction, path, client, include_timings=False
                    )
            finally:
                recorder.scene = None
    except TogError as exc:
        seconds = time.perf_counter() - start
        error = f"{type(exc).__name__}[{exc.code}, stage={exc.stage}]: {exc}"
        return Outcome(seconds, key=error, error=error)
    except Exception as exc:
        raise GateFailure(
            f"scene {scene}: run_pipeline raised {type(exc).__name__}: {exc}"
        ) from exc
    seconds = time.perf_counter() - start

    report = result.report
    _check_report(workload, scene, report, len(result.scene))
    labels = inputs.labels[scene]
    truth_scene = PointCloud(result.scene.points, labels)
    return Outcome(
        seconds,
        key=json.dumps(report, sort_keys=True),
        iou=bench.iou_3d(result.recognition.members, labels, workload.part_path),
        grasp_ok=bench.grasp_success(
            result.candidates[0], truth_scene, workload.part_path, config.gripper
        ),
        fitness=result.registrations[result.winning_template].fitness,
    )


def _check_report(workload, scene: int, report: dict, n_points: int) -> None:
    """Structural checks on a returned report."""
    problems = []
    if report["resolved"]["object_class"] != workload.object_class:
        problems.append(f"resolved class {report['resolved']['object_class']!r}")
    if report["resolved"]["part_path"] != workload.part_path:
        problems.append(f"resolved part {report['resolved']['part_path']!r}")
    if not 3 <= report["recognition"]["cluster_points"] <= n_points:
        problems.append(f"cluster of {report['recognition']['cluster_points']} points")
    if report["winning_template"] not in report["registrations"]:
        problems.append("winning template has no registration")
    if not report["grasps"]:
        problems.append("no grasps returned without an error")
    if "timings" in report:
        problems.append("timings present with include_timings=False")
    if problems:
        raise GateFailure(f"scene {scene}: " + "; ".join(problems))


def _set_up(workload, seed, n_scenes, work, recorder):
    """Set up SETUP_REPEATS times; returns (inputs, median seconds).

    Every repeat must write byte-identical scenes, since they come from the
    same seed.
    """
    times, inputs, first = [], None, None
    for repeat in range(SETUP_REPEATS):
        directory = work / f"setup-{repeat}"
        start = time.perf_counter()
        inputs = set_up(workload, seed, n_scenes, directory, recorder)
        times.append(time.perf_counter() - start)
        written = [path.read_bytes() for path in inputs.scene_paths]
        if first is None:
            first = written
        elif written != first:
            raise GateFailure(f"set-up {repeat} wrote different scenes for seed {seed}")
    return inputs, statistics.median(times)


def _quality(outcomes: list[Outcome]) -> dict:
    n = len(outcomes)
    returned = [o for o in outcomes if o.error is None]
    return {
        "failure_rate": (n - len(returned)) / n,
        "part_iou_mean": statistics.fmean(o.iou for o in returned) if returned else 0.0,
        "recognition_rate": sum(o.iou is not None and o.iou >= 0.5 for o in outcomes) / n,
        "grasp_success_rate": sum(o.grasp_ok for o in outcomes) / n,
        "fitness_mean": statistics.fmean(o.fitness for o in returned) if returned else 0.0,
    }


def run_one(workload, seed: int, seconds: int, trace: bool, out_dir: Path, git_commit: str) -> dict:
    """Set up, warm up and measure one workload; returns the result record.

    Scratch inputs live under `out_dir/work` and are removed afterwards;
    a traced run writes its spans to `out_dir`.
    """
    n_scenes = workload.scene_count(seconds)
    env = _environment(workload, seed, n_scenes, seconds, int(trace), git_commit)
    work = out_dir / "work" / f"{workload.name}-{seed}-{os.getpid()}"
    recorder = SpanRecorder() if trace else None
    try:
        if recorder is not None:
            _instrument(recorder)
        try:
            inputs, setup_s = _set_up(workload, seed, n_scenes, work, recorder)
        finally:
            if recorder is not None:
                recorder.restore()

        # untimed warm-up on scene 0; its report must match the timed one
        warm = _call(workload, inputs, 0)
        untraced, traced = [], []
        for scene in range(n_scenes):
            outcome = _call(workload, inputs, scene)
            untraced.append(outcome)
            if recorder is not None:
                _instrument(recorder)
                try:
                    traced.append(_call(workload, inputs, scene, recorder))
                finally:
                    recorder.restore()
                if traced[-1].key != outcome.key:
                    raise GateFailure(
                        f"scene {scene}: traced report differs from the untraced one"
                    )
        if warm.key != untraced[0].key:
            raise GateFailure("scene 0: warm-up report differs from the timed one")
    finally:
        shutil.rmtree(work, ignore_errors=True)

    latency = latency_summary([o.seconds for o in untraced])
    quality = _quality(untraced)
    values = {
        "latency_p50_s": latency["p50"],
        "scenes_per_s": n_scenes / sum(o.seconds for o in untraced),
        "fitness_mean": quality["fitness_mean"],
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "setup_s": setup_s,
    }
    end_to_end = {name: (values[name], unit) for name, unit in END_TO_END_UNITS.items()}
    record = {
        "env": env,
        "attempted": n_scenes,
        "failed": sum(o.error is not None for o in untraced),
        "errors": {i: o.error for i, o in enumerate(untraced) if o.error is not None},
        "warmup_s": warm.seconds,
        "scene_seconds": [o.seconds for o in untraced],
        "latency": latency,
        "quality": quality,
        "end_to_end": end_to_end,
    }
    if recorder is not None:
        layers = layer_metrics(recorder.spans, SETUP_REPEATS)
        layers["trace.overhead_s"] = (
            statistics.fmean(t.seconds - u.seconds for t, u in zip(traced, untraced)),
            "s",
        )
        for metric, key in QUALITY_LAYERS.items():
            layers[metric] = (quality[key], "ratio")
        record["per_layer"] = layers
        record["self_time_shares"] = self_time_shares(layers)
        recorder.dump(out_dir / f"spans-{workload.name}-seed{seed}.jsonl")
    return record
