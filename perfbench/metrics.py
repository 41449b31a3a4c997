"""Latency statistics and per-layer metrics computed from recorded spans."""

from __future__ import annotations

import statistics

from perfbench.tracing import Span, self_times

TAIL_BEYOND = 10

# span name -> metric name; each is self time per scene, in seconds
SELF_TIME_METRICS = {
    "cloud_io.load_cloud": "cloud_io.load_cloud_s",
    "templates.load_db": "templates.load_db_s",
    "ontology.resolve": "ontology.resolve_s",
    "recognition.recognize": "recognition.recognize_s",
    "registration.register_local": "registration.register_local_s",
    "registration.coarse_align": "registration.coarse_align_s",
    "registration.fpfh": "registration.fpfh_s",
    "registration.optimize_rotation": "registration.optimize_rotation_s",
    "planning.plan": "planning.plan_s",
    "planning.transfer_grasps": "planning.transfer_grasps_s",
    "planning.adjust_grasp": "planning.adjust_grasp_s",
}
SETUP_METRICS = {
    "templates.build_template": "templates.build_template_s",
    "templates.save_db": "templates.save_db_s",
}
ROOT_SPAN = "pipeline.run_pipeline"


def tail_percentile(n: int) -> tuple[float, int]:
    """(percentile, sorted index) of the tail statistic for n samples.

    The highest percentile with at least ten samples beyond it: the sample
    at sorted index n - 11, which is the percentile 100 * (n - 11) / (n - 1)
    under linear interpolation. With fewer than 11 samples no percentile has
    ten beyond it, so the maximum (p100) stands in.
    """
    if n < 1:
        raise ValueError("no samples")
    if n <= TAIL_BEYOND:
        return 100.0, n - 1
    index = n - TAIL_BEYOND - 1
    return 100.0 * index / (n - 1), index


def latency_summary(samples: list[float]) -> dict:
    ordered = sorted(samples)
    percentile, index = tail_percentile(len(ordered))
    return {
        "p50": statistics.median(ordered),
        "tail": ordered[index],
        "max": ordered[-1],
        "tail_percentile": percentile,
        "samples": len(ordered),
    }


def _classify(spans: list[Span], record: Span) -> str:
    """Split ICP by caller: local (part-to-part) or final (whole cloud)."""
    if record.name != "registration.icp":
        return record.name
    parent = spans[record.parent].name if record.parent is not None else None
    if parent == "registration.register_local":
        return "registration.icp_local"
    return "registration.icp_final"


def layer_metrics(spans: list[Span], n_setups: int) -> dict:
    """Per-scene self times and counters, plus per-set-up build costs.

    Scene spans carry a scene id; set-up spans carry None. Values are
    (value, unit) pairs.
    """
    selfs = self_times(spans)
    n_scenes = max(len({s.scene for s in spans if s.scene is not None}), 1)
    sums: dict[tuple[str, str], float] = {}

    def add(key, value):
        sums[key] = sums.get(key, 0.0) + value

    for record, own in zip(spans, selfs):
        kind = _classify(spans, record)
        if record.scene is None:
            add(("setup", kind), own)
            continue
        add(("self", kind), own)
        add(("total", kind), record.duration)
        add(("calls", kind), 1)
        if record.error is not None:
            add(("errors", kind), 1)
        for counter, value in record.counts.items():
            add((counter, kind), value)

    def total(what, span_name):
        return sums.get((what, span_name), 0.0)

    def per_scene(what, span_name, unit):
        return total(what, span_name) / n_scenes, unit

    def ratio(numerator, denominator):
        return (numerator / denominator if denominator else 0.0), "ratio"

    out = {
        "pipeline.run_pipeline_s": per_scene("total", ROOT_SPAN, "s"),
        "pipeline.self_s": per_scene("self", ROOT_SPAN, "s"),
    }
    for span_name, metric in SELF_TIME_METRICS.items():
        out[metric] = per_scene("self", span_name, "s")
    for span_name, metric in SETUP_METRICS.items():
        out[metric] = total("setup", span_name) / max(n_setups, 1), "s"

    recognize, local = "recognition.recognize", "registration.register_local"
    coarse, register = "registration.coarse_align", "registration.register"
    out["recognition.seeds"] = per_scene("seeds", recognize, "count")
    out["recognition.cluster_points"] = per_scene("cluster_points", recognize, "count")
    out["registration.register_s"] = per_scene("total", register, "s")
    out["registration.icp_local_s"] = per_scene("self", "registration.icp_local", "s")
    out["registration.icp_final_s"] = per_scene("self", "registration.icp_final", "s")
    out["registration.local_attempts"] = per_scene("calls", coarse, "count")
    out["registration.coarse_failures"] = per_scene("errors", coarse, "count")
    out["registration.local_success_ratio"] = ratio(
        total("calls", local) - total("errors", local), total("calls", coarse)
    )
    for kind in ("local", "final"):
        out[f"registration.icp_iterations_{kind}"] = per_scene(
            "iterations", f"registration.icp_{kind}", "count"
        )
    out["registration.calls"] = per_scene("calls", register, "count")
    out["registration.failures"] = per_scene("errors", register, "count")

    out["planning.grasps_transferred"] = per_scene("grasps", "planning.transfer_grasps", "count")
    out["planning.grasps_kept"] = per_scene("kept", "planning.plan", "count")
    out["planning.keep_ratio"] = ratio(
        total("kept", "planning.plan"), total("grasps", "planning.transfer_grasps")
    )
    out["planning.adjustments"] = per_scene("calls", "planning.adjust_grasp", "count")
    return out


def self_time_shares(metrics: dict) -> list[tuple[str, float]]:
    """Per-scene self-time metrics as shares of the traced scene time, largest first."""
    total = metrics["pipeline.run_pipeline_s"][0]
    names = [
        "pipeline.self_s",
        *SELF_TIME_METRICS.values(),
        "registration.icp_local_s",
        "registration.icp_final_s",
    ]
    shares = [(name, metrics[name][0] / total if total > 0 else 0.0) for name in names]
    return sorted(shares, key=lambda item: -item[1])
