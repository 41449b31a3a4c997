"""The alternating-pairs summary, on canned benchmark result lines."""

import json

import ab_pairs
import pytest


def result_line(latency, rate, failed=0):
    metrics = {"latency_p50_s": {"value": latency, "unit": "s"},
               "scenes_per_s": {"value": rate, "unit": "1/s"}}
    return json.dumps({"correct": True, "attempted": 11, "failed": failed, "metrics": metrics})


END_TO_END = [
    {"name": "latency_p50_s", "unit": "s", "better": "lower", "bound": 0.25},
    {"name": "scenes_per_s", "unit": "1/s", "better": "higher", "bound": 0.25},
]


def test_summary_counts_wins_by_direction():
    outputs = [
        (result_line(0.20, 5.0), result_line(0.19, 5.0)),  # lower latency wins; same rate ties
        (result_line(0.21, 4.8), result_line(0.22, 4.9)),
        (result_line(0.22, 4.6), result_line(0.18, 5.2, failed=1)),
        (result_line(0.23, 4.4), result_line(0.23, 4.3)),
    ]
    pairs = [
        (ab_pairs.read_result(f"# human lines\n{p}\n"), ab_pairs.read_result(c))
        for p, c in outputs
    ]
    assert ab_pairs.summarize(END_TO_END, pairs) == [
        "latency_p50_s (s, lower is better): parent 0.215 [0.2075, 0.2225], "
        "change 0.205 [0.1875, 0.2225], change better in 2/4",
        "scenes_per_s (1/s, higher is better): parent 4.7 [4.55, 4.85], "
        "change 4.95 [4.75, 5.05], change better in 2/4",
        "parent attempted/failed: 11/0 in 4",
        "change attempted/failed: 11/0 in 3, 11/1 in 1",
    ]


def test_summary_reads_the_benchmarks_metrics():
    end_to_end = json.loads((ab_pairs.ROOT / "BENCHMARK.json").read_text())["end_to_end"]
    metrics = {m["name"]: {"value": 1.0, "unit": m["unit"]} for m in end_to_end}
    line = json.dumps({"correct": True, "attempted": 3, "failed": 0, "metrics": metrics})
    result = ab_pairs.read_result(line)
    lines = ab_pairs.summarize(end_to_end, [(result, result)])
    assert len(lines) == len(end_to_end) + 2
    assert all(line.endswith("change better in 0/1") for line in lines[: len(end_to_end)])


@pytest.mark.parametrize(
    "output",
    ["", "perfbench: correctness gate failed", json.dumps({"correct": False}), "[1, 2]"],
)
def test_a_run_without_a_correct_result_stops(output):
    with pytest.raises(ab_pairs.RunFailed) as caught:
        ab_pairs.read_result(f"setup\n{output}")
    assert str(caught.value) == f"setup\n{output}"
