"""Alternating benchmark pairs for two checkouts, a parent and a change.

Run from anywhere:

    python tests/ab_pairs.py PARENT CHANGE --workload NAME [--seed 1] [--pairs 10]

Each pair runs ``python3 perfbench/run.py --workload NAME --seed S --seconds 30
--trace 0`` once in each checkout, the parent first in even pairs and the
change first in odd ones, and reads each run's last output line as its result.
A run whose last line is not a ``"correct": true`` result stops the script
with that run's output. Then, for each end-to-end metric that
``BENCHMARK.json`` (next to this folder) lists, it prints each side's median
and quartiles and how many pairs the change won by the metric's ``better``
direction, ties counting for neither; last, each side's attempted/failed
counts over its runs.
"""

import argparse
import json
import subprocess
import sys
from collections import Counter
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
RUN_SECONDS = 30


class RunFailed(Exception):
    """A benchmark run that printed no correct result; the message is its output."""


def read_result(output: str) -> dict:
    """The result object on the last line of a run's standard output."""
    lines = output.strip().splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, ValueError):
        raise RunFailed(output) from None
    if not isinstance(result, dict) or result.get("correct") is not True:
        raise RunFailed(output)
    return result


def run(checkout: Path, workload: str, seed: int) -> dict:
    """One benchmark run in ``checkout``, read by `read_result`."""
    done = subprocess.run(
        ["python3", "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(RUN_SECONDS), "--trace", "0"],
        cwd=checkout,
        capture_output=True,
        text=True,
        check=False,
    )
    try:
        return read_result(done.stdout)
    except RunFailed:
        raise RunFailed(f"{checkout} exited {done.returncode}:\n{done.stdout}{done.stderr}") from None


def _quartiles(values) -> str:
    low, mid, high = np.percentile(values, [25, 50, 75])
    return f"{mid:.6g} [{low:.6g}, {high:.6g}]"


def summarize(end_to_end: list, pairs: list) -> list[str]:
    """The report lines for ``pairs`` of (parent, change) results."""
    lines = []
    for metric in end_to_end:
        name = metric["name"]
        parent = [p["metrics"][name]["value"] for p, _ in pairs]
        change = [c["metrics"][name]["value"] for _, c in pairs]
        sign = 1 if metric["better"] == "higher" else -1
        won = sum(sign * (c - p) > 0 for p, c in zip(parent, change))
        lines.append(
            f"{name} ({metric['unit']}, {metric['better']} is better): parent "
            f"{_quartiles(parent)}, change {_quartiles(change)}, "
            f"change better in {won}/{len(pairs)}"
        )
    for side, results in (("parent", [p for p, _ in pairs]), ("change", [c for _, c in pairs])):
        counts = Counter(f"{r['attempted']}/{r['failed']}" for r in results)
        runs = ", ".join(f"{key} in {n}" for key, n in sorted(counts.items()))
        lines.append(f"{side} attempted/failed: {runs}")
    return lines


if __name__ == "__main__":
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent", type=Path)
    parser.add_argument("change", type=Path)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--pairs", type=int, default=10)
    args = parser.parse_args()
    end_to_end = json.loads((ROOT / "BENCHMARK.json").read_text())["end_to_end"]
    pairs = []
    try:
        for i in range(args.pairs):
            order = (args.parent, args.change) if i % 2 == 0 else (args.change, args.parent)
            first, second = (run(checkout, args.workload, args.seed) for checkout in order)
            pairs.append((first, second) if i % 2 == 0 else (second, first))
            print(f"pair {i + 1}/{args.pairs} done", file=sys.stderr, flush=True)
    except RunFailed as exc:
        sys.exit(str(exc))
    print("\n".join(summarize(end_to_end, pairs)))
