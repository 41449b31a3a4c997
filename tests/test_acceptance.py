"""Acceptance gate: one test per shipped guarantee, one verdict line each.

Every test prints ``[acceptance] criterion NN <label>: PASS/FAIL (<detail>)``
and then asserts, so the pytest -v report carries exactly one pass/fail line
per criterion. Statistical tests fix their seeds; wall-clock budgets are
asserted inside each test body (template banks are shared fixtures and are
excluded from the budgets).
"""

import itertools
import math
import time
from types import SimpleNamespace

import numpy as np
import pytest
from numpy.random import SeedSequence, default_rng

import oracles
from tog.bench import (
    Condition,
    build_class_templates,
    camera_with_part_visible,
    desk_pose,
    generate_object,
    grasp_success,
    iou_3d,
    make_scene,
    perturbed_dims,
    random_pose,
    recognition_runtime_trend,
    run_suite,
    truth_mask,
)
from tog.errors import TogError
from tog.geometry import PointCloud, RigidTransform, apply_transform
from tog.ontology import (
    FixtureChatClient,
    Instruction,
    default_graph,
    render_prompt,
    resolve,
)
from tog.planning import (
    GraspCandidate,
    adjust_grasp,
    check_placement,
    check_stick,
    plan,
    transfer_grasps,
)
from tog.recognition import (
    cluster_size_from_counts,
    d_ccd,
    d_pca,
    d_ppd,
    part_reference_index,
    recognize,
)
from tog.registration import (
    RegistrationResult,
    coarse_align,
    icp,
    register,
    rotation_candidates,
)
from tog.templates import GripperConfig

LEAF = 0.005


def _verdict(num: int, label: str, ok: bool, detail: str) -> None:
    status = "PASS" if ok else "FAIL"
    print(f"[acceptance] criterion {num:02d} {label}: {status} ({detail})")
    assert ok, f"criterion {num:02d} {label}: {detail}"


@pytest.fixture(scope="module")
def mug_bank():
    return build_class_templates("mug", count=3, n_points=4000)


@pytest.fixture(scope="module")
def bottle_bank():
    return build_class_templates("bottle", count=3, n_points=4000)


@pytest.fixture(scope="module")
def scissor_bank():
    return build_class_templates("scissor", count=3, n_points=4000)


@pytest.fixture(scope="module")
def mug_bank_ten():
    return build_class_templates("mug", count=10, n_points=4000)


# --------------------------------------------------------------------------
# criterion 1: the three part metrics vanish on congruent pairs and ignore
# pose and uniform scale


def _octahedral_rotations():
    """All 24 proper rotations that permute the coordinate axes."""
    mats = []
    for perm in itertools.permutations(range(3)):
        base = np.zeros((3, 3))
        for row, col in enumerate(perm):
            base[row, col] = 1.0
        for signs in itertools.product((1.0, -1.0), repeat=3):
            mat = np.array(signs)[:, None] * base
            if np.linalg.det(mat) > 0.5:
                mats.append(mat)
    return mats


def _random_rotation(rng):
    mat, _ = np.linalg.qr(rng.normal(size=(3, 3)))
    if np.linalg.det(mat) < 0.0:
        mat[:, 0] = -mat[:, 0]
    return mat


def test_criterion_01_metrics_vanish_on_congruent_pairs_and_ignore_pose():
    t0 = time.perf_counter()
    rng = default_rng(SeedSequence(101))
    octa = _octahedral_rotations()
    worst = 0.0
    cases = 0
    for _ in range(200):
        n_all = int(rng.integers(40, 160))
        n_part = int(rng.integers(8, 31))
        whole_a = rng.uniform(-0.1, 0.1, (n_all, 3))
        anchor = int(rng.integers(n_all))
        part_idx = oracles.knn_linear(whole_a, whole_a[anchor], n_part)
        part_a = whole_a[part_idx]

        scale = rng.uniform(0.3, 3.0)
        shift = rng.uniform(-0.5, 0.5, 3)
        rot_free = _random_rotation(rng)
        # placement compares offsets in axis-aligned-box units, so its
        # congruences are the box-preserving rotations
        rot_axis = octa[int(rng.integers(len(octa)))]

        part_free = scale * part_a @ rot_free.T + shift
        whole_axis = scale * whole_a @ rot_axis.T + shift
        part_axis = whole_axis[part_idx]

        pc_part_a = PointCloud(part_a)
        ref = part_reference_index(pc_part_a)

        # congruent observed/template pairs score exactly zero
        worst = max(worst, abs(d_pca(PointCloud(part_free), pc_part_a)))
        worst = max(
            worst, abs(d_ppd(PointCloud(part_free), part_free[ref], pc_part_a))
        )
        worst = max(
            worst,
            abs(
                d_ccd(
                    PointCloud(whole_axis),
                    PointCloud(part_axis),
                    PointCloud(whole_a),
                    pc_part_a,
                )
            ),
        )

        # against an unrelated template the scores ignore the pose change
        n_all_b = int(rng.integers(40, 160))
        whole_b = rng.uniform(-0.1, 0.1, (n_all_b, 3))
        anchor_b = int(rng.integers(n_all_b))
        n_part_b = int(rng.integers(8, 31))
        part_b = whole_b[oracles.knn_linear(whole_b, whole_b[anchor_b], n_part_b)]
        pc_part_b = PointCloud(part_b)
        idx_seed = int(rng.integers(n_part))

        worst = max(
            worst,
            abs(d_pca(PointCloud(part_free), pc_part_b) - d_pca(PointCloud(part_a), pc_part_b)),
        )
        worst = max(
            worst,
            abs(
                d_ppd(PointCloud(part_free), part_free[idx_seed], pc_part_b)
                - d_ppd(PointCloud(part_a), part_a[idx_seed], pc_part_b)
            ),
        )
        worst = max(
            worst,
            abs(
                d_ccd(PointCloud(whole_axis), PointCloud(part_axis), PointCloud(whole_b), pc_part_b)
                - d_ccd(PointCloud(whole_a), PointCloud(part_a), PointCloud(whole_b), pc_part_b)
            ),
        )
        cases += 6
    elapsed = time.perf_counter() - t0
    ok = worst <= 1e-6 and cases >= 1000 and elapsed < 10.0
    _verdict(
        1,
        "part metric congruence/invariance",
        ok,
        f"{cases} cases, worst deviation {worst:.2e}, {elapsed:.1f}s",
    )


# --------------------------------------------------------------------------
# criterion 2: cluster sizing equals exact rational round-half-up


def test_criterion_02_cluster_size_matches_exact_arithmetic():
    t0 = time.perf_counter()
    rng = default_rng(SeedSequence(202))
    cases = [
        (50, 1, 5000),  # tiny ratio clamps up to the floor of 3
        (3, 1, 1),  # result capped at n_obj
        (12, 9000, 3000),  # ratio above one clamps down to n_obj
        (9, 1, 2),  # 4.5 rounds half up to 5
        (7, 1, 2),  # 3.5 rounds half up to 4
        (3, 3, 3),
        (4, 5000, 5000),
    ]
    while len(cases) < 100:
        n_all = int(rng.integers(1, 4000))
        n_part = int(rng.integers(1, n_all + 1))
        n_obj = int(rng.integers(3, 5000))
        cases.append((n_obj, n_part, n_all))
    mismatches = [
        c for c in cases if cluster_size_from_counts(*c) != oracles.cluster_size(*c)
    ]
    elapsed = time.perf_counter() - t0
    ok = len(cases) == 100 and not mismatches and elapsed < 1.0
    _verdict(
        2,
        "cluster sizing",
        ok,
        f"{len(cases)} triples, {len(mismatches)} mismatches, {elapsed * 1000:.0f}ms",
    )


# --------------------------------------------------------------------------
# criterion 3: the winning seed equals brute-force per-seed mean score


def _stub_template(tid, whole_pts, part_pts):
    return SimpleNamespace(
        id=tid,
        full_cloud=PointCloud(whole_pts),
        parts={"part": PointCloud(part_pts)},
    )


def test_criterion_03_winning_seed_matches_exhaustive_search():
    t0 = time.perf_counter()
    classes = ("mug", "bottle", "scissor")
    instances = 0
    for inst in range(20):
        rng = default_rng(SeedSequence((303, inst)))
        n_obj = 300 if inst < 2 else int(rng.integers(80, 281))
        if inst % 2:
            obj_pts = rng.uniform(-0.08, 0.08, (n_obj, 3))
        else:
            obj_pts = generate_object(classes[inst % 3], n_obj, rng).points
        templates, plain = [], []
        for j in range(1 + inst % 3):
            m = int(rng.integers(60, 221))
            if (inst + j) % 2:
                whole = rng.uniform(-0.07, 0.07, (m, 3))
            else:
                whole = generate_object(classes[j], m, rng).points
            anchor = int(rng.integers(m))
            size = int(rng.integers(20, max(21, m // 2 + 1)))
            part = whole[oracles.knn_linear(whole, whole[anchor], size)]
            templates.append(_stub_template(f"t{j}", whole, part))
            plain.append({"whole": whole, "part": part})
        rec = recognize(PointCloud(obj_pts), templates, "part")
        best, scores = oracles.recognize_exhaustive(obj_pts, plain)
        assert rec.seed_index == best
        assert np.array_equal(np.isnan(rec.seed_scores), np.isnan(scores))
        valid = ~np.isnan(scores)
        assert valid.any()
        assert float(np.max(np.abs(rec.seed_scores[valid] - scores[valid]))) <= 1e-8
        instances += 1
    elapsed = time.perf_counter() - t0
    ok = instances == 20 and elapsed < 30.0
    _verdict(
        3,
        "seed selection vs exhaustive",
        ok,
        f"{instances} instances agree, {elapsed:.1f}s",
    )


# --------------------------------------------------------------------------
# criterion 4: posed template parts are found with IoU >= 0.5


def test_criterion_04_posed_template_parts_are_recognized(
    mug_bank, bottle_bank, scissor_bank
):
    t0 = time.perf_counter()
    cases = (
        ("mug", "handle", mug_bank, 14),
        ("bottle", "cap", bottle_bank, 13),
        ("scissor", "blade", scissor_bank, 13),
    )
    wins = total = 0
    for cls_idx, (_, part, bank, n_trials) in enumerate(cases):
        tlist = list(bank.values())
        for s in range(n_trials):
            rng = default_rng(SeedSequence((901, cls_idx, s)))
            tpl = tlist[s % len(tlist)]
            posed = apply_transform(tpl.full_cloud, desk_pose(rng))
            rec = recognize(posed, tlist, part)
            wins += int(iou_3d(rec.members, posed.labels, part) >= 0.5)
            total += 1
    elapsed = time.perf_counter() - t0
    ok = total == 40 and wins >= 38 and elapsed < 120.0
    _verdict(
        4,
        "self-match recognition",
        ok,
        f"{wins}/{total} trials at IoU >= 0.5 (need 38), {elapsed:.1f}s",
    )


# --------------------------------------------------------------------------
# criterion 5: shape variants (+-20% dims) in partial views, IoU >= 0.5


@pytest.mark.slow
def test_criterion_05_shape_variants_recognized_in_partial_views(
    bottle_bank, scissor_bank
):
    t0 = time.perf_counter()
    conditions = (
        ("bottle", "body", bottle_bank),
        ("scissor", "handle", scissor_bank),
        ("bottle", "cap", bottle_bank),
    )
    wins = total = 0
    for c_idx, (cls, part, bank) in enumerate(conditions):
        tlist = list(bank.values())
        # 1500 of 6000 sampled points, half the part visible, +-20% shape variants
        condition = Condition(
            name=f"{cls}-{part}", object_class=cls, part_path=part,
            dims_fraction=0.2, min_part_visibility=0.5,
        )
        for s in range(20):
            partial = make_scene(condition, default_rng(SeedSequence((407, c_idx, s))))
            rec = recognize(partial, tlist, part)
            wins += int(iou_3d(rec.members, partial.labels, part) >= 0.5)
            total += 1
    elapsed = time.perf_counter() - t0
    ok = total == 60 and wins >= 45 and elapsed < 300.0
    _verdict(
        5,
        "variant recognition in partial views",
        ok,
        f"{wins}/{total} trials at IoU >= 0.5 (need 45), {elapsed:.1f}s",
    )


# --------------------------------------------------------------------------
# criterion 6: registration recovers known poses from partial scans


def test_criterion_06_registration_recovers_known_poses(mug_bank):
    t0 = time.perf_counter()
    triples, mats = rotation_candidates()
    assert len(triples) == 512 and len(mats) == 512
    tlist = list(mug_bank.values())
    wins = 0
    for s in range(20):
        rng = default_rng(SeedSequence((606, s)))
        tpl = tlist[s % len(tlist)]
        posed = apply_transform(tpl.full_cloud, random_pose(rng))
        partial, _, _ = camera_with_part_visible(
            posed, "handle", rng, min_visibility=0.5
        )
        members = np.flatnonzero(truth_mask(partial.labels, "handle"))
        part_cloud = PointCloud(
            partial.points[members], labels=np.asarray(partial.labels)[members]
        )
        stub = SimpleNamespace(
            part_cloud=part_cloud,
            seed=part_cloud.points[part_reference_index(part_cloud)],
            members=members,
            part_path="handle",
        )
        reg = register(partial, stub, tpl, seed=s)
        moved = reg.t_total.apply(partial.points)
        residual = float(np.median(tpl.full_cloud.tree.query(moved)[0]))
        wins += int(residual < 0.005)
    elapsed = time.perf_counter() - t0
    ok = wins >= 16 and elapsed < 180.0
    _verdict(
        6,
        "pose recovery",
        ok,
        f"{wins}/20 scans with median residual < 5mm (need 16), "
        f"rotation grid 512, {elapsed:.1f}s",
    )


# --------------------------------------------------------------------------
# criterion 7: on offset-handle scenes the part-locked pipeline beats direct
# global registration, and grasp adjustment rescues initial misses


def _offset_handle_scene(rng):
    """A scissor whose ring pair sits 3-4.5 cm off its usual mount.

    A whole-cloud fit favours the blades (the larger fraction), which maps
    the template handle into the vacated ring region, so grasps transferred
    without part recognition mostly close on air.
    """
    dims = perturbed_dims("scissor", rng, 0.10)
    cloud = generate_object("scissor", 1200, rng, dims=dims)
    pts = cloud.points.copy()
    rings = truth_mask(cloud.labels, "handle")
    pts[rings, 0] += rng.uniform(0.03, 0.045)
    return PointCloud(desk_pose(rng).apply(pts), labels=np.asarray(cloud.labels))


def _first_feasible(candidates, scene_points, gripper):
    """Commit to the first candidate that passes the observable checks."""
    for cand in candidates:
        if check_stick(cand.pose, cand.width, scene_points, gripper) and check_placement(
            cand.pose, cand.width, scene_points, gripper
        ):
            return cand
    return None


def test_criterion_07_pipeline_beats_direct_registration(scissor_bank):
    t0 = time.perf_counter()
    tlist = list(scissor_bank.values())
    gripper = GripperConfig()
    pipe_wins = base_wins = stick_initial = total_plans = 0
    for i in range(20):
        rng = default_rng(SeedSequence((1717, i)))
        scene = _offset_handle_scene(rng)

        try:
            rec = recognize(scene, tlist, "handle")
            regs = {
                t.id: register(scene, rec, t, seed=i * 100 + j)
                for j, t in enumerate(tlist)
            }
            plans = plan(scene, rec, regs, scissor_bank)
        except TogError:
            plans = []
        if plans:
            stick_initial += sum(1 for c in plans if c.stick_ok_initially)
            total_plans += len(plans)
            pipe_wins += int(grasp_success(plans[0], scene, "handle", gripper))

        best = None
        for j, t in enumerate(tlist):
            init = coarse_align(scene, t.full_cloud, LEAF, rng=(999, i, j))
            res = icp(scene, t.full_cloud, init=init, max_corr_dist=3 * LEAF)
            if best is None or res.fitness > best[0].fitness:
                best = (res, t)
        cands = transfer_grasps(best[1], "handle", best[0].transform)
        committed = _first_feasible(cands, scene.points, gripper)
        base_wins += int(
            committed is not None
            and grasp_success(committed, scene, "handle", gripper)
        )
    elapsed = time.perf_counter() - t0
    ok = (
        pipe_wins > base_wins
        and stick_initial < total_plans
        and elapsed < 300.0
    )
    _verdict(
        7,
        "pipeline vs direct registration",
        ok,
        f"pipeline {pipe_wins}/20 vs baseline {base_wins}/20, "
        f"stick passes {stick_initial} before vs {total_plans} after adjustment, "
        f"{elapsed:.1f}s",
    )


# --------------------------------------------------------------------------
# criterion 8: exact grasp transfer, half-part re-centering, vetted outputs


def test_criterion_08_transfer_exactness_and_recentering(
    mug_bank, bottle_bank, scissor_bank
):
    t0 = time.perf_counter()
    rng = default_rng(SeedSequence(808))
    ident = RigidTransform.identity()

    # identity registration: grasps pass through t0 exactly
    tpl = next(iter(mug_bank.values()))
    stored = tpl.part_grasps("handle")
    assert stored
    worst = 0.0
    for _ in range(25):
        out = random_pose(rng, max_translation=0.3)
        cands = transfer_grasps(tpl, "handle", ident, t0=out)
        for g, c in zip(stored, cands):
            exp_rot = out.rotation @ g.pose.rotation
            exp_tr = out.rotation @ g.pose.translation + out.translation
            worst = max(worst, float(np.max(np.abs(c.pose.rotation - exp_rot))))
            worst = max(worst, float(np.max(np.abs(c.pose.translation - exp_tr))))
            assert c.width == g.width
    for g, c in zip(stored, transfer_grasps(tpl, "handle", ident)):
        worst = max(worst, float(np.max(np.abs(c.pose.rotation - g.pose.rotation))))
        worst = max(
            worst, float(np.max(np.abs(c.pose.translation - g.pose.translation)))
        )

    # re-centering uses exactly ceil(n/2) neighbors of the anchor
    for n_pts in (3, 4, 5, 7, 9, 12, 15, 16, 17, 30):
        line = np.zeros((n_pts, 3))
        line[:, 0] = np.arange(n_pts) * 0.01
        part = PointCloud(line)
        cand = GraspCandidate(
            pose=RigidTransform(np.eye(3), np.array([-0.001, 0.0, 0.0])),
            width=0.02,
            template_id="stub",
            part_path="part",
            source_index=0,
        )
        adjusted = adjust_grasp(cand, part)
        k = math.ceil(n_pts / 2)
        expected = np.array([(k - 1) * 0.01 / 2.0, 0.0, 0.0])
        assert float(np.max(np.abs(adjusted.pose.translation - expected))) <= 1e-12
        if n_pts % 2:
            floor_center = np.array([(n_pts // 2 - 1) * 0.01 / 2.0, 0.0, 0.0])
            assert float(np.max(np.abs(adjusted.pose.translation - floor_center))) > 1e-6
        assert not adjusted.stick_ok_initially
        assert np.allclose(adjusted.adjustment, expected - cand.pose.translation)

    # every candidate the planner returns passes both geometric checks
    for bank, part_path in (
        (mug_bank, "handle"),
        (bottle_bank, "cap"),
        (scissor_bank, "handle"),
    ):
        tpl = next(iter(bank.values()))
        scene = tpl.full_cloud
        members = np.flatnonzero(truth_mask(scene.labels, part_path))
        part_cloud = PointCloud(
            scene.points[members], labels=np.asarray(scene.labels)[members]
        )
        stub = SimpleNamespace(
            part_cloud=part_cloud,
            seed=part_cloud.points[0],
            members=members,
            part_path=part_path,
        )
        regs = {
            tpl.id: RegistrationResult(
                ident, ident, ident, ident, 1.0, 0.0, len(scene), tpl.id
            )
        }
        plans = plan(scene, stub, regs, {tpl.id: tpl})
        assert plans
        obstacles = np.delete(scene.points, members, axis=0)
        for c in plans:
            assert check_stick(c.pose, c.width, part_cloud.points)
            assert check_placement(c.pose, c.width, obstacles)

    elapsed = time.perf_counter() - t0
    ok = worst <= 1e-9 and elapsed < 10.0
    _verdict(
        8,
        "grasp transfer and adjustment",
        ok,
        f"worst transfer deviation {worst:.2e}, ceil(n/2) re-centering holds, "
        f"planner outputs vetted, {elapsed:.1f}s",
    )


# --------------------------------------------------------------------------
# criterion 9: success degrades gracefully under occlusion, noise, scaling


@pytest.mark.slow
def test_criterion_09_benchmark_degrades_gracefully():
    t0 = time.perf_counter()
    templates = build_class_templates("bottle", count=3)
    base = dict(
        object_class="bottle",
        part_path="body",
        partial=False,
        n_points=1000,
        template_ids=("bottle-0", "bottle-2"),
    )
    conditions = [
        Condition(name="clean", scale=0.97, **base),
        Condition(name="occlusion", occlusion=0.15, scale=0.97, **base),
        Condition(name="noise", noise_sigma=0.001, scale=0.97, **base),
        Condition(name="scaling", scale=0.95, **base),
    ]
    report = run_suite(conditions, templates, trials_per_condition=45, master_seed=20)
    clean = report.per_condition["clean"].pgsr
    gaps = {
        name: clean - report.per_condition[name].pgsr
        for name in ("occlusion", "noise", "scaling")
    }
    elapsed = time.perf_counter() - t0
    ok = (
        all(-1e-9 <= gap <= 0.15 + 1e-9 for gap in gaps.values())
        and elapsed < 600.0
    )
    detail = ", ".join(
        f"{name} {report.per_condition[name].pgsr:.3f}" for name in report.per_condition
    )
    _verdict(9, "graceful degradation", ok, f"pgsr {detail}, {elapsed:.1f}s")


# --------------------------------------------------------------------------
# criterion 10: canned instruction fixtures resolve deterministically


CANNED_RESOLUTIONS = (
    (
        "Pour the water out of the mug.",
        "mug",
        "handle",
        False,
        "The given command is to pour the water out of the mug.\n"
        "Step 1: Identify the type of task: pouring, so the mug is tilted while held.\n"
        "Step 2: Apply task constraints: the grip must stay firm and clear of the rim the water leaves.\n"
        "Analyzing the object parts: the side loop gives a secure grip away from the opening.\n"
        "Best choice for the robot: the handle.\n"
        "Conclusion: The robot should grasp the handle of the mug.",
    ),
    (
        "Hold the coffee-filled mug steady.",
        "mug",
        "body.outside",
        False,
        "The given command is to hold the coffee-filled mug steady.\n"
        "Step 1: Identify the type of task: steady holding, so a wrap-around grip is best.\n"
        "Step 2: Apply task constraints: the grip must not enter the liquid.\n"
        "Analyzing the object parts: the outer wall gives the widest, most stable contact.\n"
        "Best choice for the robot: the outside of the body.\n"
        "Conclusion: The robot should grasp the body (outside) of the mug.",
    ),
    (
        "Shake the bottle before I drink it.",
        "bottle",
        "body",
        False,
        "The given command is to shake the bottle before it is drunk.\n"
        "Step 1: Identify the type of task: shaking, which needs a firm full grip.\n"
        "Step 2: Apply task constraints: the closure must stay untouched so it stays sealed.\n"
        "Analyzing the object parts: the wide middle section tolerates vigorous motion.\n"
        "Best choice for the robot: the body.\n"
        "Conclusion: The robot should grasp the body of the bottle.",
    ),
    (
        "Open the bottle for me.",
        "bottle",
        "cap",
        False,
        "The given command is to open the bottle.\n"
        "Step 1: Identify the type of task: opening, so the closure must be twisted off.\n"
        "Step 2: Apply task constraints: the robot must act on the part that comes off.\n"
        "Analyzing the object parts: only the top closure can be turned.\n"
        "Best choice for the robot: the cap.\n"
        "Conclusion: The robot should grasp the cap of the bottle.",
    ),
    (
        "Cut the paper with the scissors.",
        "scissor",
        "handle",
        False,
        "The given command is to cut the paper with the scissors.\n"
        "Step 1: Identify the type of task: cutting, so the tool is operated by its rings.\n"
        "Step 2: Apply task constraints: fingers belong in the rings, never on the cutting edges.\n"
        "Analyzing the object parts: the rings drive the cutting motion.\n"
        "Best choice for the robot: the handle.\n"
        "Conclusion: The robot should grasp the handle of the scissors.",
    ),
    (
        "Hand the scissors to me.",
        "scissor",
        "blade",
        False,
        "The given command is to hand the scissors over.\n"
        "Step 1: Identify the type of task: a handover, so the receiver takes the safe end.\n"
        "Step 2: Apply task constraints: the receiver must be offered the rings, not the edges.\n"
        "Analyzing the object parts: holding the flat cutting side leaves the rings free for the receiver.\n"
        "Best choice for the robot: the blade.\n"
        "Conclusion: The robot should grasp the blade of the scissors.",
    ),
    (
        "Empty the bowl into the sink.",
        "mug",
        "body.outside",
        True,
        "The given command is to empty the bowl into the sink.\n"
        "Step 1: Identify the type of task: emptying, so the container is tilted over the sink.\n"
        "Step 2: Find the closest object in the ontology: a bowl is an open container, like a mug.\n"
        "So, we map: Bowl ≈ Mug\n"
        "Step 3: Apply task constraints: the grip must stay dry and keep the opening clear.\n"
        "Analyzing the object parts: a bowl offers no side loop, so the outer wall is the only stable grip.\n"
        "Best choice for the robot: the outside of the body.\n"
        "Conclusion: The robot should grasp the body (outside).",
    ),
)


def test_criterion_10_instruction_fixtures_resolve_deterministically(tmp_path):
    t0 = time.perf_counter()
    graph = default_graph()
    client = FixtureChatClient(tmp_path / "chat_fixtures")
    for text, _, _, novel, reply in CANNED_RESOLUTIONS:
        client.record(render_prompt(graph, Instruction(text), novel), reply)

    runs = []
    for _ in range(3):
        outcome = []
        for text, cls, path, novel, _ in CANNED_RESOLUTIONS:
            res = resolve(graph, Instruction(text), client, novel_extension=novel)
            assert res.object_class == cls
            assert res.part_path == path
            if novel:
                assert res.mapped_from == "bowl"
            else:
                assert res.mapped_from is None
            outcome.append(res)
        runs.append(outcome)
    assert runs[1] == runs[0] and runs[2] == runs[0]
    elapsed = time.perf_counter() - t0
    ok = len(runs[0]) == 7 and elapsed < 5.0
    _verdict(
        10,
        "instruction resolution",
        ok,
        f"7/7 fixtures resolved, 3 identical reruns, {elapsed * 1000:.0f}ms",
    )


# --------------------------------------------------------------------------
# criterion 11: matching time grows with the template count


def test_criterion_11_matching_time_grows_with_template_count(mug_bank_ten):
    rng = default_rng(SeedSequence(1101))
    scene = apply_transform(generate_object("mug", 1500, rng), desk_pose(rng))
    ordered = list(mug_bank_ten.values())
    counts = (1, 3, 5, 10)
    best = {c: float("inf") for c in counts}
    for _ in range(3):
        for count, seconds in recognition_runtime_trend(scene, ordered, "handle", counts):
            best[count] = min(best[count], seconds)
    increasing = all(best[a] < best[b] for a, b in zip(counts, counts[1:]))
    ok = increasing and best[3] <= 2.0
    times = ", ".join(f"{c}: {best[c] * 1000:.0f}ms" for c in counts)
    _verdict(11, "matching runtime trend", ok, times)
