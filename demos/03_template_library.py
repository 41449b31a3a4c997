"""Building, annotating, and storing grasp templates.

A template is one labeled model cloud, voxel-downsampled once, and a set
of antipodal parallel-jaw grasps sampled per part. Its parts are derived
from the model's labels: each is the label subset of the model. A template
database is a directory with one file per template, which stores the
labeled model once and its grasps, plus an index; the parts are derived
again on load. This demo builds a small mixed database, saves it, loads it
back, and inspects what survived the round trip.
"""

import tempfile
from pathlib import Path

import numpy as np

from tog.bench import build_class_templates, generate_object
from tog.ontology import default_graph
from tog.templates import (
    FRICTION_HALF_ANGLE_DEG,
    GripperConfig,
    build_template,
    load_db,
    sample_antipodal_grasps,
    save_db,
)


def main():
    gripper = GripperConfig()
    print(
        f"gripper: max opening {gripper.max_opening * 1000:.0f} mm, "
        f"finger depth {gripper.jaw_depth * 1000:.0f} mm, "
        f"friction half-angle {FRICTION_HALF_ANGLE_DEG:.0f} deg"
    )
    print()

    # Three bottles at slightly different scales, straight from the bench
    # generators. Each template carries its class, parts, and grasps.
    bank = build_class_templates("bottle", count=3, n_points=4000)
    for template in bank.values():
        parts = {path: len(part) for path, part in template.parts.items()}
        grasps = {path: len(g) for path, g in template.grasps.items()}
        print(f"{template.id}: {len(template.full_cloud)} points")
        print(f"  parts  {parts}")
        print(f"  grasps {grasps}")
    print()

    # The same machinery accepts any labeled cloud. The ontology graph is
    # optional but catches label typos against the class's part tree.
    rng = np.random.default_rng(3)
    mug_cloud = generate_object("mug", 5000, rng)
    mug = build_template(
        mug_cloud, "mug", graph=default_graph(), template_id="mug-demo"
    )
    print(f"built {mug.id} with parts {sorted(mug.parts)}")

    # Antipodal sampling alone: opposing surface points whose closing line
    # stays inside both friction cones and within the jaw opening.
    handle_grasps = sample_antipodal_grasps(
        mug.parts["handle"], gripper, target_count=8, rng=11
    )
    widths = sorted(round(g.width * 1000, 1) for g in handle_grasps)
    print(f"sampled {len(handle_grasps)} handle grasps, widths {widths} mm")
    print()

    with tempfile.TemporaryDirectory() as tmp:
        db_dir = Path(tmp) / "db"
        index = save_db({**bank, mug.id: mug}, db_dir)
        listing = sorted(p.name for p in db_dir.iterdir())
        print(f"saved {index}: {listing}")

        again = load_db(db_dir)
        same = sorted(again) == sorted([*bank, mug.id])
        first = next(iter(again.values()))
        print(f"reloaded {len(again)} templates, ids match={same}")
        parts = {path: len(part) for path, part in first.parts.items()}
        print(f"spot check {first.id}: {len(first.full_cloud)} points survive")
        print(f"  parts derived from its labels {parts}")


if __name__ == "__main__":
    main()
