"""Closed-loop benchmark of `tog.pipeline.run_pipeline` on seeded scenes.

Usage, from the repository root:

    python3 perfbench/run.py --workload mug-handle-partial --seed 1 \\
        --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 30 --trace 1

One client calls the shipped entry point once per scene, in a fixed order,
with `template_cap=3` and `rng_seed=0`. The scene set is drawn from the seed
and sized so one pass lasts about `--seconds`. With `--trace 0` the run
reports end-to-end metrics; with `--trace 1` every scene is run untraced and
then traced, the two reports must match, and the run reports per-layer
metrics from the spans. The last line of standard output is one JSON object
with `correct`, `attempted`, `failed` and `metrics`. Spans and a full result
record are written under `.perfbench/` at the repository root.

The program is imported from `src/` next to this directory; without it the
benchmark exits with code 2 and prints no result.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".perfbench"
EXIT_INCORRECT = 1
EXIT_NO_PROGRAM = 2


def _import_program() -> bool:
    """Put this checkout's `src/` and root first on the path and import `tog`.

    False when the checkout has no program, or `tog` came from elsewhere.
    """
    if not (SRC / "tog" / "__init__.py").is_file():
        print(f"perfbench: no program at {SRC / 'tog'}", file=sys.stderr)
        return False
    for path in (ROOT, SRC):
        if str(path) not in sys.path:
            sys.path.insert(0, str(path))
    import tog

    if Path(tog.__file__).resolve().parent != (SRC / "tog").resolve():
        print(f"perfbench: imported tog from {tog.__file__}, not {SRC}", file=sys.stderr)
        return False
    return True


def _git_commit() -> str:
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return "unknown"
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[5:]
    loose = ROOT / ".git" / name
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    return "unknown"


def _print_human(workload, record: dict) -> None:
    print(f"# {workload.name}: {workload.why}")
    print("env " + json.dumps(record["env"], sort_keys=True))
    print(f"warm-up call = {record['warmup_s']:.6g} s (untimed)")
    for scene, error in record["errors"].items():
        print(f"scene {scene} raised {error}")
    for name, (value, unit) in record["end_to_end"].items():
        print(f"{name} = {value:.6g} {unit}")
    latency = record["latency"]
    if latency["samples"] <= 10:
        caveat = " (fewer than 11 scenes: the maximum)"
    elif latency["tail_percentile"] < 50:
        caveat = " (fewer than 21 scenes: below the median)"
    else:
        caveat = ""
    print(
        f"latency_tail_s = {latency['tail']:.6g} s, "
        f"p{latency['tail_percentile']:.1f} of {latency['samples']} scenes{caveat}; "
        f"slowest scene {latency['max']:.6g} s"
    )
    for name, value in record["quality"].items():
        if name != "fitness_mean":
            print(f"{name} = {value:.6g} ratio")
    for name, share in record.get("self_time_shares", []):
        print(f"self-time share {name} = {share:.1%}")
    for name, (value, unit) in record.get("per_layer", {}).items():
        print(f"{name} = {value:.6g} {unit}")


def _result_line(attempted: int, failed: int, metrics: dict) -> str:
    """The last output line; only printed once the correctness gate passed."""
    return json.dumps(
        {
            "correct": True,
            "attempted": attempted,
            "failed": failed,
            "metrics": {
                name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()
            },
        }
    )


def _run_all(args, names) -> int:
    """Each workload in a fresh process, so peak memory is its own."""
    status = 0
    for name in names:
        child = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", name,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace)],
            check=False,
        )
        status = status or child.returncode
    return status


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, help="a workload name, or all")
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds < 1:
        parser.error("--seed must be >= 0 and --seconds >= 1")
    if not _import_program():
        return EXIT_NO_PROGRAM
    from perfbench.measure import GateFailure, run_one
    from perfbench.workloads import BY_NAME

    if args.workload == "all":
        return _run_all(args, list(BY_NAME))
    if args.workload not in BY_NAME:
        parser.error(f"--workload must be one of {sorted(BY_NAME)} or all")
    workload = BY_NAME[args.workload]
    try:
        record = run_one(
            workload, args.seed, args.seconds, bool(args.trace), OUT_DIR, _git_commit()
        )
    except GateFailure as exc:
        print(f"perfbench: correctness gate failed on {workload.name}: {exc}", file=sys.stderr)
        return EXIT_INCORRECT
    _print_human(workload, record)
    OUT_DIR.mkdir(exist_ok=True)
    (OUT_DIR / f"result-{workload.name}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=1, sort_keys=True)
    )
    metrics = record["per_layer"] if args.trace else record["end_to_end"]
    print(_result_line(record["attempted"], record["failed"], metrics))
    return 0


if __name__ == "__main__":
    sys.exit(main())
