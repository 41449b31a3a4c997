"""Tests of the benchmark's own logic; run with `python3 -m pytest perfbench`."""

from __future__ import annotations

import json
import statistics
import sys
from types import SimpleNamespace

import pytest

from perfbench.metrics import latency_summary, layer_metrics, tail_percentile
from perfbench.run import ROOT, SRC
from perfbench.tracing import Span, SpanRecorder, self_times

if str(SRC) not in sys.path:
    sys.path.insert(0, str(SRC))

from perfbench.measure import END_TO_END_UNITS, QUALITY_LAYERS  # noqa: E402
from perfbench.workloads import BY_NAME, set_up  # noqa: E402


def test_self_time_subtracts_nested_children():
    spans = [
        Span("root", 0.0, 10.0, None, 0),
        Span("a", 1.0, 4.0, 0, 0),
        Span("a.inner", 2.0, 3.0, 1, 0),
        Span("b", 5.0, 9.0, 0, 0),
        Span("b.x", 5.5, 6.5, 3, 0),
        Span("b.y", 6.0, 7.0, 3, 0),  # overlaps b.x: the union counts once
    ]
    assert self_times(spans) == pytest.approx([3.0, 2.0, 1.0, 2.5, 1.0, 1.0])


def test_recorder_nests_counts_and_restores():
    module = SimpleNamespace()

    def outer(x):
        return module.inner(x) + 1

    def inner(x):
        if x < 0:
            raise ValueError("negative")
        return [x] * x

    module.outer, module.inner = outer, inner
    recorder = SpanRecorder()
    recorder.patch(module, "outer", "layer.outer")
    recorder.patch(
        module, "inner", "layer.inner",
        lambda span, args, kwargs, result: span.counts.update(
            items=len(result) if result is not None else -1
        ),
    )
    with pytest.raises(TypeError):  # list + int
        module.outer(2)
    recorder.scene = 7
    with pytest.raises(ValueError):
        module.inner(-1)
    recorder.restore()
    assert module.outer is outer and module.inner is inner

    names = [(s.name, s.parent, s.scene, s.error, s.counts) for s in recorder.spans]
    assert names == [
        ("layer.outer", None, None, "TypeError", {}),
        ("layer.inner", 0, None, None, {"items": 2}),
        ("layer.inner", None, 7, "ValueError", {"items": -1}),
    ]


@pytest.mark.parametrize(
    "n, percentile, index",
    [(1, 100.0, 0), (10, 100.0, 9), (11, 0.0, 0), (21, 50.0, 10), (101, 90.0, 90)],
)
def test_tail_percentile_keeps_ten_samples_beyond(n, percentile, index):
    assert tail_percentile(n) == (pytest.approx(percentile), index)
    if n > 10:
        assert n - 1 - index == 10


def test_latency_summary_states_percentile_and_count():
    samples = [float(i) for i in range(101, 0, -1)]
    summary = latency_summary(samples)
    assert summary["samples"] == 101
    assert summary["tail_percentile"] == pytest.approx(90.0)
    inclusive = statistics.quantiles(samples, n=100, method="inclusive")
    assert summary["tail"] == pytest.approx(inclusive[89])
    assert summary["p50"] == 51.0
    small = latency_summary([3.0, 1.0, 2.0])
    assert (small["tail"], small["tail_percentile"], small["samples"]) == (3.0, 100.0, 3)


def test_layer_metrics_split_icp_by_caller():
    spans = [
        Span("pipeline.run_pipeline", 0.0, 10.0, None, 0),
        Span("registration.register", 1.0, 9.0, 0, 0),
        Span("registration.register_local", 1.0, 4.0, 1, 0),
        Span("registration.coarse_align", 1.0, 2.0, 2, 0, error="CoarseFailureError"),
        Span("registration.coarse_align", 2.0, 3.0, 2, 0),
        Span("registration.icp", 3.0, 3.5, 2, 0, counts={"iterations": 4}),
        Span("registration.icp", 8.0, 9.0, 1, 0, counts={"iterations": 7}),
        Span("templates.build_template", 0.0, 2.0, None, None),
    ]
    m = layer_metrics(spans, n_setups=2)
    assert m["registration.icp_local_s"][0] == pytest.approx(0.5)
    assert m["registration.icp_final_s"][0] == pytest.approx(1.0)
    assert m["registration.icp_iterations_local"][0] == 4
    assert m["registration.icp_iterations_final"][0] == 7
    assert m["registration.local_attempts"][0] == 2
    assert m["registration.coarse_failures"][0] == 1
    assert m["registration.local_success_ratio"][0] == pytest.approx(0.5)
    assert m["registration.register_local_s"][0] == pytest.approx(0.5)
    assert m["registration.register_s"][0] == pytest.approx(8.0)
    assert m["pipeline.self_s"][0] == pytest.approx(2.0)
    assert m["templates.build_template_s"][0] == pytest.approx(1.0)


def _written(inputs):
    files = sorted(inputs.fixtures.iterdir())
    return (
        [p.read_bytes() for p in inputs.scene_paths],
        [(p.name, p.read_bytes()) for p in files],
    )


def test_scenes_and_fixtures_repeat_per_seed(tmp_path):
    workload = BY_NAME["mug-handle-partial"]
    first = _written(set_up(workload, 3, 2, tmp_path / "a"))
    again = _written(set_up(workload, 3, 2, tmp_path / "b"))
    other = _written(set_up(workload, 4, 2, tmp_path / "c"))
    assert first == again
    assert first[0][0] != other[0][0] and first[0][1] != other[0][1]
    # the fixture answers the workload's one instruction, whatever the seed
    assert first[1] == other[1]
    assert b"label" not in first[0][0]


def test_benchmark_json_names_the_emitted_metrics():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == END_TO_END_UNITS
    layers = layer_metrics([Span("pipeline.run_pipeline", 0.0, 1.0, None, 0)], 1)
    emitted = {name: unit for name, (_value, unit) in layers.items()}
    emitted["trace.overhead_s"] = "s"
    emitted.update({name: "ratio" for name in QUALITY_LAYERS})
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == emitted
