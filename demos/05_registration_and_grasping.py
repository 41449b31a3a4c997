"""Aligning a matched template and carrying its grasps onto the scene.

Registration runs local to global: a RANSAC + ICP alignment of the
recognized part pair (t_loc), a rotation sweep about the part's reference
point that settles the rest of the object (t_opt), and a final whole-cloud
ICP polish (t_icp). Templates register in order until one fits every
scene point, since no later one could beat that fit, and the first of the
highest fitness wins (`register_all` names it). Grasps annotated on the
winning template then map into the scene through the inverse of its total
transform (`plan`), get checked for finger collisions and closing-line
contact, and are re-centered once when the closing line misses the part.

The scene is a bottle whose true pose is known, so every stage can be
graded against ground truth.
"""

import numpy as np
from numpy.random import SeedSequence, default_rng

from tog.bench import build_class_templates, desk_pose, generate_object, grasp_success
from tog.geometry import apply_transform
from tog.pipeline import register_all, skipped_templates
from tog.planning import plan
from tog.recognition import recognize
from tog.templates import GripperConfig


def main():
    rng = default_rng(SeedSequence(5))
    bank = build_class_templates("bottle", count=3, n_points=4000)
    templates = list(bank.values())
    gripper = GripperConfig()

    true_pose = desk_pose(rng)
    scene = apply_transform(generate_object("bottle", 1500, rng), true_pose)
    print(f"scene: {len(scene)} points, hidden pose known for grading")

    rec = recognize(scene, templates, "cap")
    print(f"recognized cap cluster: {len(rec.members)} points")

    registrations, errors, best_id = register_all(scene, rec, bank, seed_base=0)
    for tid, reg in registrations.items():
        print(
            f"{tid}: fitness {reg.fitness:.2f}, rmse {reg.rmse * 1000:.1f} mm, "
            f"{reg.correspondence_count} correspondences"
        )
    for tid, error in errors.items():
        print(f"{tid}: failed ({error})")
    print(f"not tried: {skipped_templates(bank, registrations, errors) or 'none'}")

    best = registrations[best_id]
    stages = {
        "t_loc": best.t_loc,
        "t_opt": best.t_opt,
        "t_icp": best.t_icp,
        "t_total": best.t_total,
    }
    angles = {
        name: f"{np.degrees(t.rotation_angle()):.1f} deg"
        for name, t in stages.items()
    }
    print(f"stage rotation angles for {best_id}: {angles}")

    # Grade the final alignment: scene points mapped into the template
    # frame should land on the template surface.
    tpl = bank[best_id]
    moved = best.t_total.apply(scene.points)
    residual = np.median(tpl.full_cloud.tree.query(moved)[0])
    print(f"median scene-to-template residual: {residual * 1000:.2f} mm")

    candidates = plan(scene, rec, tpl, best.t_total, gripper=gripper)
    print(f"\nplanned {len(candidates)} vetted grasps, best first")
    for cand in candidates[:5]:
        moved_note = (
            f"re-centered {cand.adjustment_norm * 1000:.1f} mm"
            if not cand.stick_ok_initially
            else "no adjustment needed"
        )
        print(
            f"  {cand.template_id}[{cand.source_index}] width "
            f"{cand.width * 1000:.1f} mm, center {np.round(cand.center, 3)}, "
            f"{moved_note}"
        )

    chosen = candidates[0]
    ok = grasp_success(chosen, scene, "cap", gripper)
    print(f"\nexecuted best grasp on the cap: success={ok}")


if __name__ == "__main__":
    main()
