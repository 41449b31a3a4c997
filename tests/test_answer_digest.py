"""The committed answers check on one benchmark scene."""

import subprocess
import sys
from dataclasses import replace

import answer_digest
from perfbench.workloads import BY_NAME, set_up

MUG = BY_NAME["mug-handle-partial"]


def test_one_mug_scene_digests_the_same_twice(tmp_path):
    inputs = set_up(MUG, 1, 1, tmp_path)
    digest = answer_digest.answer(MUG, inputs, 0)
    assert len(digest) == 64 and int(digest, 16) >= 0  # a sha256, not an error
    out = subprocess.run(
        [sys.executable, answer_digest.__file__, "--workload", MUG.name, "--seed", "1",
         "--scenes", "1"],
        capture_output=True,
        text=True,
        check=True,
    ).stdout
    assert out.splitlines() == [f"{MUG.name}/1/0 {digest}"]

    missing = replace(inputs, scene_paths=[tmp_path / "missing.ply"])
    assert answer_digest.answer(MUG, missing, 0).startswith("parse: [setup] ")
