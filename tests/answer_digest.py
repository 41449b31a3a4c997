"""Digest the pipeline's answers on the benchmark scenes, to show a change keeps them.

Each perfbench scene is run through `tog.pipeline.run_pipeline` as the
benchmark runs it (its three-template bank, `template_cap=3`, `rng_seed=0`,
no timings), in a temporary directory. Run from anywhere:

    python tests/answer_digest.py [--workload NAME ...] [--seed N ...] [--scenes N]

prints one line per scene: ``workload/seed/scene``, then either the sha256
of the report (JSON, sorted keys) followed by the bytes of the recognition's
`seed_scores`, or the ``code: message`` of the error the pipeline raised.
The defaults are every workload, seeds 1-3, and each workload's scene count
of a 30 s benchmark run. Two checkouts give the same answers where they
print the same lines.
"""

import argparse
import hashlib
import json
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
for path in (ROOT / "src", ROOT):
    if str(path) not in sys.path:
        sys.path.insert(0, str(path))

from perfbench.measure import RNG_SEED, TEMPLATE_CAP  # noqa: E402
from perfbench.workloads import BY_NAME, WORKLOADS, set_up  # noqa: E402
from tog.errors import TogError  # noqa: E402
from tog.ontology import FixtureChatClient  # noqa: E402
from tog.pipeline import PipelineConfig, run_pipeline  # noqa: E402

RUN_SECONDS = 30


def answer(workload, inputs, scene: int) -> str:
    """The digest of one scene's report and seed scores, or its error's ``code: message``."""
    config = PipelineConfig(
        db_path=str(inputs.db_path), template_cap=TEMPLATE_CAP, rng_seed=RNG_SEED
    )
    try:
        result = run_pipeline(
            config,
            workload.instruction,
            inputs.scene_paths[scene],
            FixtureChatClient(inputs.fixtures),
            include_timings=False,
        )
    except TogError as exc:
        return f"{exc.code}: {exc}"
    digest = hashlib.sha256(json.dumps(result.report, sort_keys=True).encode())
    digest.update(result.recognition.seed_scores.tobytes())
    return digest.hexdigest()


def digest_lines(workloads, seeds, scenes: int | None = None):
    """One ``workload/seed/scene answer`` line per scene; ``scenes`` per seed, or a 30 s run's."""
    for workload in workloads:
        count = scenes or workload.scene_count(RUN_SECONDS)
        for seed in seeds:
            with tempfile.TemporaryDirectory() as directory:
                inputs = set_up(workload, seed, count, directory)
                for scene in range(count):
                    yield f"{workload.name}/{seed}/{scene} {answer(workload, inputs, scene)}"


if __name__ == "__main__":
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", action="append", choices=sorted(BY_NAME))
    parser.add_argument("--seed", action="append", type=int)
    parser.add_argument("--scenes", type=int)
    args = parser.parse_args()
    workloads = [BY_NAME[name] for name in args.workload] if args.workload else WORKLOADS
    for line in digest_lines(workloads, args.seed or [1, 2, 3], args.scenes):
        print(line, flush=True)
