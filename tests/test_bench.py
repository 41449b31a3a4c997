"""Benchmark-harness tests: generators, view synthesis, scoring, trials."""

import hashlib
import sys
from pathlib import Path

import numpy as np
import pytest

import oracles
from tog.bench import (
    BOTTLE_DIMS,
    MUG_DIMS,
    SLAB_DIMS,
    BenchReport,
    Condition,
    ConditionMetrics,
    TrialReport,
    build_class_templates,
    camera_with_part_visible,
    desk_pose,
    generate_object,
    grasp_success,
    iou_3d,
    make_bottle,
    make_mug,
    make_scene,
    make_scissor,
    make_slab,
    partial_view,
    perturb,
    perturbed_dims,
    random_pose,
    recognition_runtime_trend,
    run_suite,
    run_trial,
    truth_mask,
)
from tog.errors import CoarseFailureError, SceneSpecError
from tog.geometry import PointCloud, apply_transform
from tog.planning import GraspCandidate
from tog.templates import GripperConfig, build_template
from tog.geometry import RigidTransform

ROOT = Path(__file__).resolve().parent.parent
if str(ROOT) not in sys.path:
    sys.path.insert(0, str(ROOT))

from perfbench.workloads import WORKLOADS  # noqa: E402
from perfbench.workloads import make_scene as perfbench_scene  # noqa: E402


GRIPPER = GripperConfig(
    max_opening=0.08,
    jaw_depth=0.02,
    finger_thickness=0.01,
    closure_height=0.02,
    stick_radius=0.004,
)


def pose_at(center, rotation=None):
    rot = np.eye(3) if rotation is None else np.asarray(rotation, dtype=np.float64)
    return RigidTransform(rot, np.asarray(center, dtype=np.float64))


def label_counts(cloud):
    values, counts = np.unique(np.asarray(cloud.labels), return_counts=True)
    return dict(zip(values.tolist(), counts.tolist()))


class TestGenerators:
    def test_mug_labels_and_count(self):
        cloud = make_mug(2000, np.random.default_rng(0))
        assert len(cloud) == 2000
        assert set(cloud.labels) == {"body.outside", "body.inside", "handle"}

    def test_mug_label_shares_track_patch_areas(self):
        d = MUG_DIMS
        r_in = min(d["r_in"], d["r_out"] - 0.003)
        areas = {
            "body.outside": 2 * np.pi * d["r_out"] * d["height"]
            + np.pi * d["r_out"] ** 2,
            "body.inside": 2 * np.pi * r_in * (d["height"] - 0.005)
            + np.pi * r_in**2,
            "handle": np.radians(d["arc_deg"])
            * d["tube_radius"]
            * 2
            * np.pi
            * d["handle_radius"],
        }
        total = sum(areas.values())
        n = 3000
        counts = label_counts(make_mug(n, np.random.default_rng(1)))
        for label, area in areas.items():
            # largest-remainder apportionment puts each patch within one
            # sample of its exact share; labels aggregate two patches
            assert abs(counts[label] - n * area / total) <= 2.0

    def test_mug_outside_points_on_shell_or_bottom(self):
        d = MUG_DIMS
        cloud = make_mug(2500, np.random.default_rng(2))
        mask = np.asarray(cloud.labels) == "body.outside"
        pts = cloud.points[mask]
        radial = np.hypot(pts[:, 0], pts[:, 1])
        on_side = np.abs(radial - d["r_out"]) < 1e-9
        on_bottom = np.abs(pts[:, 2] + d["height"] / 2) < 1e-9
        assert np.all(on_side | on_bottom)

    def test_bottle_cap_sits_above_body(self):
        d = BOTTLE_DIMS
        cloud = make_bottle(2000, np.random.default_rng(3))
        assert set(cloud.labels) == {"body", "cap"}
        labels = np.asarray(cloud.labels)
        cap = cloud.points[labels == "cap"]
        body = cloud.points[labels == "body"]
        assert cap[:, 2].min() >= d["h_body"] / 2 - 1e-9
        assert body[:, 2].max() <= d["h_body"] / 2 + 1e-9
        cap_side = cap[np.abs(cap[:, 2] - (d["h_body"] / 2 + d["h_cap"])) > 1e-9]
        assert np.allclose(np.hypot(cap_side[:, 0], cap_side[:, 1]), d["r_cap"])

    def test_scissor_has_blades_and_rings(self):
        cloud = make_scissor(2000, np.random.default_rng(4))
        assert set(cloud.labels) == {"blade", "handle"}
        labels = np.asarray(cloud.labels)
        blades = cloud.points[labels == "blade"]
        rings = cloud.points[labels == "handle"]
        # blades extend forward (+y), rings backward (-y)
        assert blades[:, 1].mean() > 0 > rings[:, 1].mean()
        assert np.ptp(blades[:, 2]) < 0.02

    def test_slab_points_on_box_surface(self):
        d = SLAB_DIMS
        cloud = make_slab(600, np.random.default_rng(5))
        assert set(cloud.labels) == {"face"}
        half = np.array([d["half_x"], d["half_y"], d["half_z"]])
        frac = np.abs(cloud.points) / half
        assert np.all(np.abs(frac.max(axis=1) - 1.0) < 1e-9)
        assert np.all(frac <= 1.0 + 1e-9)

    def test_scale_multiplies_points(self):
        base = generate_object("mug", 500, np.random.default_rng(7))
        doubled = generate_object("mug", 500, np.random.default_rng(7), scale=2.0)
        assert np.allclose(doubled.points, 2.0 * base.points)
        assert list(doubled.labels) == list(base.labels)

    def test_generation_deterministic(self):
        a = generate_object("scissor", 800, np.random.default_rng(8))
        b = generate_object("scissor", 800, np.random.default_rng(8))
        assert np.array_equal(a.points, b.points)

    def test_dims_override_changes_shape(self):
        tall = make_bottle(500, np.random.default_rng(9), dims={"h_body": 0.3})
        assert tall.points[:, 2].max() > 0.16

    def test_unknown_dim_key_rejected(self):
        with pytest.raises(SceneSpecError):
            make_mug(100, np.random.default_rng(0), dims={"wingspan": 1.0})

    def test_unknown_class_rejected(self):
        with pytest.raises(SceneSpecError):
            generate_object("teapot", 100, np.random.default_rng(0))

    def test_too_few_points_rejected(self):
        with pytest.raises(SceneSpecError):
            generate_object("mug", 5, np.random.default_rng(0))

    def test_perturbed_dims_within_fraction(self):
        rng = np.random.default_rng(10)
        for _ in range(20):
            dims = perturbed_dims("bottle", rng, fraction=0.2)
            assert set(dims) == set(BOTTLE_DIMS)
            for key, value in dims.items():
                ratio = value / BOTTLE_DIMS[key]
                assert 0.8 - 1e-12 <= ratio <= 1.2 + 1e-12

    def test_perturbed_dims_unknown_class(self):
        with pytest.raises(SceneSpecError):
            perturbed_dims("teapot", np.random.default_rng(0))


class TestPoses:
    def test_random_pose_is_rotation(self):
        pose = random_pose(np.random.default_rng(0))
        r = pose.rotation
        assert np.allclose(r @ r.T, np.eye(3), atol=1e-12)
        assert np.isclose(np.linalg.det(r), 1.0)

    def test_desk_pose_keeps_vertical_nearly_vertical(self):
        rng = np.random.default_rng(1)
        for _ in range(50):
            pose = desk_pose(rng, max_tilt_deg=8.0)
            tilted_z = pose.rotation @ np.array([0.0, 0.0, 1.0])
            angle = np.degrees(np.arccos(np.clip(tilted_z[2], -1.0, 1.0)))
            assert angle <= 8.0 * np.sqrt(2.0) + 1e-6
            assert np.all(np.abs(pose.translation) <= 0.05)


class TestPartialView:
    def test_sphere_view_keeps_near_hemisphere(self):
        rng = np.random.default_rng(0)
        raw = rng.normal(size=(3000, 3))
        pts = 0.05 * raw / np.linalg.norm(raw, axis=1, keepdims=True)
        cloud = PointCloud(pts)
        view, visible = partial_view(cloud, camera=[0.4, 0.0, 0.0])
        frac = len(view) / len(cloud)
        assert 0.35 <= frac <= 0.65
        # visible points face the camera on average
        assert view.points[:, 0].mean() > 0.0
        assert np.array_equal(visible, np.sort(visible))

    def test_labels_follow_selection(self):
        cloud = make_mug(1500, np.random.default_rng(1))
        view, visible = partial_view(cloud, camera=[0.0, 0.4, 0.1])
        assert list(view.labels) == [cloud.labels[i] for i in visible]

    def test_camera_inside_box_rejected(self):
        cloud = make_mug(600, np.random.default_rng(2))
        with pytest.raises(SceneSpecError):
            partial_view(cloud, camera=[0.0, 0.0, 0.0])


class TestPerturb:
    def test_noop_returns_same_geometry(self):
        cloud = make_mug(400, np.random.default_rng(0))
        out = perturb(cloud, np.random.default_rng(1))
        assert np.array_equal(out.points, cloud.points)
        assert list(out.labels) == list(cloud.labels)

    def test_occlusion_drops_exact_count_near_one_corner(self):
        cloud = make_mug(1000, np.random.default_rng(2))
        out = perturb(cloud, np.random.default_rng(3), occlusion=0.25)
        assert len(out) == 1000 - 250
        # recover the kept row indices (points are unchanged)
        kept = []
        used = set()
        lookup = {}
        for i, p in enumerate(cloud.points):
            lookup.setdefault(tuple(p), i)
        for p in out.points:
            kept.append(lookup[tuple(p)])
        kept = np.array(kept)
        dropped = np.setdiff1d(np.arange(1000), kept)
        lo, hi = cloud.points.min(axis=0), cloud.points.max(axis=0)
        extent = hi - lo
        hit = False
        for bits in range(8):
            corner = np.where(
                [(bits >> a) & 1 for a in range(3)], hi, lo
            )
            cheb = (np.abs(cloud.points - corner) / extent).max(axis=1)
            if cheb[dropped].max() <= cheb[kept].min() + 1e-12:
                hit = True
        assert hit, "dropped set is not the closest block to any corner"

    def test_occlusion_preserves_labels(self):
        cloud = make_bottle(800, np.random.default_rng(4))
        out = perturb(cloud, np.random.default_rng(5), occlusion=0.1)
        lookup = {tuple(p): l for p, l in zip(cloud.points, cloud.labels)}
        assert all(lookup[tuple(p)] == l for p, l in zip(out.points, out.labels))

    def test_noise_displacement_scale(self):
        cloud = make_mug(2000, np.random.default_rng(6))
        sigma = 0.002
        out = perturb(cloud, np.random.default_rng(7), noise_sigma=sigma)
        disp = out.points - cloud.points
        assert 0.8 * sigma < disp.std() < 1.2 * sigma

    def test_smoothing_matches_knn_mean_oracle(self):
        rng = np.random.default_rng(8)
        pts = rng.uniform(-0.05, 0.05, size=(40, 3))
        cloud = PointCloud(pts)
        out = perturb(cloud, np.random.default_rng(9), smooth_k=3)
        for i in range(len(pts)):
            nbrs = oracles.knn_linear(pts, pts[i], 3)
            assert np.allclose(out.points[i], pts[nbrs].mean(axis=0), atol=1e-12)

    def test_bad_occlusion_fraction(self):
        cloud = make_mug(100, np.random.default_rng(10))
        with pytest.raises(SceneSpecError):
            perturb(cloud, np.random.default_rng(0), occlusion=1.0)
        with pytest.raises(SceneSpecError):
            perturb(cloud, np.random.default_rng(0), occlusion=-0.1)


class TestScoring:
    def test_truth_mask_includes_subparts_only(self):
        labels = ["body", "body.inside", "body.outside", "bodyguard", "handle"]
        mask = truth_mask(labels, "body")
        assert mask.tolist() == [True, True, True, False, False]

    def test_iou_matches_oracle(self):
        rng = np.random.default_rng(0)
        labels = np.where(rng.uniform(size=200) < 0.3, "part", "rest")
        truth_idx = np.flatnonzero(labels == "part")
        for _ in range(20):
            members = rng.choice(200, size=rng.integers(1, 80), replace=False)
            assert iou_3d(members, labels, "part") == pytest.approx(
                oracles.iou_labels(members, truth_idx, 200)
            )

    def test_grasp_on_part_succeeds(self):
        rng = np.random.default_rng(1)
        bar = rng.uniform(-1, 1, size=(120, 3)) * [0.002, 0.015, 0.002]
        far = rng.uniform(-1, 1, size=(40, 3)) * 0.01 + [0.0, 0.09, 0.0]
        scene = PointCloud(
            np.vstack([bar, far]), ["part"] * 120 + ["rest"] * 40
        )
        cand = GraspCandidate(
            pose=pose_at([0, 0, 0]),
            width=0.02,
            template_id="t",
            part_path="part",
            source_index=0,
        )
        assert grasp_success(cand, scene, "part", GRIPPER)

    def test_grasp_missing_part_fails(self):
        rng = np.random.default_rng(2)
        bar = rng.uniform(-1, 1, size=(120, 3)) * [0.002, 0.015, 0.002]
        scene = PointCloud(bar, ["part"] * 120)
        cand = GraspCandidate(
            pose=pose_at([0.0, 0.08, 0.0]),
            width=0.02,
            template_id="t",
            part_path="part",
            source_index=0,
        )
        assert not grasp_success(cand, scene, "part", GRIPPER)

    def test_foreign_point_in_closure_fails(self):
        rng = np.random.default_rng(3)
        bar = rng.uniform(-1, 1, size=(120, 3)) * [0.002, 0.015, 0.002]
        intruder = np.array([[0.006, 0.0, 0.0]])
        scene = PointCloud(
            np.vstack([bar, intruder]), ["part"] * 120 + ["rest"]
        )
        cand = GraspCandidate(
            pose=pose_at([0, 0, 0]),
            width=0.02,
            template_id="t",
            part_path="part",
            source_index=0,
        )
        assert not grasp_success(cand, scene, "part", GRIPPER)

    def test_foreign_point_in_finger_fails(self):
        rng = np.random.default_rng(4)
        bar = rng.uniform(-1, 1, size=(120, 3)) * [0.002, 0.015, 0.002]
        wall = np.array([[0.013, 0.0, 0.0]])  # inside right finger box
        scene = PointCloud(np.vstack([bar, wall]), ["part"] * 120 + ["rest"])
        cand = GraspCandidate(
            pose=pose_at([0, 0, 0]),
            width=0.02,
            template_id="t",
            part_path="part",
            source_index=0,
        )
        assert not grasp_success(cand, scene, "part", GRIPPER)


class TestReports:
    def test_trial_report_invariants(self):
        with pytest.raises(ValueError):
            TrialReport(condition="c", trial_index=0, selected_ok=True)
        with pytest.raises(ValueError):
            TrialReport(condition="c", trial_index=0, planned=True)

    def test_condition_metrics_rates(self):
        trials = [
            TrialReport("c", 0, recognized=True, planned=True, selected_ok=True,
                        any_ok=True, iou=0.9),
            TrialReport("c", 1, recognized=True, planned=True, selected_ok=False,
                        any_ok=True, iou=0.8),
            TrialReport("c", 2, recognized=True, planned=False),
            TrialReport("c", 3, recognized=False),
        ]
        m = ConditionMetrics.from_trials(trials)
        assert m.n_trials == 4
        assert m.pra == pytest.approx(0.75)
        assert m.pr == pytest.approx(0.5)
        assert m.gsa == pytest.approx(0.25)
        assert m.pgsr == pytest.approx(0.25)
        assert m.gsr == pytest.approx(0.5)
        assert m.sr == pytest.approx(0.5)

    def test_condition_metrics_empty(self):
        with pytest.raises(SceneSpecError):
            ConditionMetrics.from_trials([])

    def test_bench_report_serializable(self):
        trials = [TrialReport("c", 0, recognized=True)]
        report = BenchReport(
            trials=trials,
            per_condition={"c": ConditionMetrics.from_trials(trials)},
        )
        payload = report.to_dict()
        assert payload["schema_version"] == 1
        assert payload["conditions"]["c"]["pra"] == 1.0
        assert payload["trials"][0]["condition"] == "c"


@pytest.fixture(scope="module")
def mug_templates():
    return build_class_templates("mug", count=3, rng_seed=0, n_points=4000)


class TestTemplateFactory:
    def test_ids_classes_and_sizes(self, mug_templates):
        assert sorted(mug_templates) == ["mug-0", "mug-1", "mug-2"]
        sizes = {}
        for tid, t in mug_templates.items():
            assert t.object_class == "mug"
            assert set(t.parts) >= {"handle", "body.outside", "body.inside", "body"}
            box = t.full_cloud.points.max(axis=0) - t.full_cloud.points.min(axis=0)
            sizes[tid] = np.linalg.norm(box)
        assert sizes["mug-1"] / sizes["mug-0"] == pytest.approx(0.93, rel=0.05)
        assert sizes["mug-2"] / sizes["mug-0"] == pytest.approx(1.08, rel=0.05)

    def test_too_many_templates(self):
        with pytest.raises(SceneSpecError):
            build_class_templates("mug", count=11)


class TestCameraSearch:
    def test_part_visibility_floor(self):
        scene = apply_transform(
            make_mug(3000, np.random.default_rng(0)),
            desk_pose(np.random.default_rng(1)),
        )
        view, camera, retained = camera_with_part_visible(
            scene, "handle", np.random.default_rng(2), min_visibility=0.5
        )
        assert retained >= 0.5
        visible_part = truth_mask(view.labels, "handle").sum()
        total_part = truth_mask(scene.labels, "handle").sum()
        assert visible_part / total_part == pytest.approx(retained)

    def test_missing_part_label(self):
        scene = make_mug(500, np.random.default_rng(3))
        with pytest.raises(SceneSpecError):
            camera_with_part_visible(scene, "spout", np.random.default_rng(0))


def scene_digest(cloud) -> str:
    """SHA-256 of a scene's points (as `save_ply` writes them) and labels."""
    rows = (
        f"{x:.9g} {y:.9g} {z:.9g} {label}"
        for (x, y, z), label in zip(cloud.points.tolist(), cloud.labels.tolist())
    )
    return hashlib.sha256("\n".join(rows).encode()).hexdigest()


class TestSceneRecipe:
    """`make_scene` draws every trial scene; its rng order must not drift."""

    CASES = {
        "partial-variant": (
            Condition(name="partial-variant", object_class="scissor", part_path="handle",
                      n_points=600, dims_fraction=0.2, min_part_visibility=0.5),
            (41, 0),
            "6eb6476b2e4d21e10a082cb40da3c09628b91d3890e89fc3c69e04f5a17f696c",
        ),
        "partial-scaled": (
            Condition(name="partial-scaled", object_class="bottle", part_path="cap",
                      n_points=900, dims_fraction=0.1, scale=1.1),
            (41, 1),
            "344b02f7071262484744f8d23cf5112e625178ea61ad1dccc283dae9d587e6f1",
        ),
        "degraded-full": (
            Condition(name="degraded-full", object_class="mug", part_path="handle",
                      n_points=800, partial=False, occlusion=0.2, noise_sigma=0.0005,
                      smooth_k=5),
            (41, 2),
            "3444837168ec193122009469a9696d992a3fdf9825bf5e7d6188610e258a3a09",
        ),
    }

    @pytest.mark.parametrize("case", sorted(CASES))
    def test_scene_bytes_are_pinned(self, case):
        condition, seed, digest = self.CASES[case]
        scene = make_scene(condition, np.random.default_rng(np.random.SeedSequence(seed)))
        assert len(scene) <= condition.n_points
        assert scene_digest(scene) == digest

    def test_perfbench_scenes_match(self):
        # perfbench still keeps its own copy of the recipe; it must draw alike
        for workload in WORKLOADS:
            condition = Condition(
                name=workload.name, object_class=workload.object_class,
                part_path=workload.part_path, n_points=workload.n_points,
                partial=workload.partial, dims_fraction=workload.dims_fraction,
            )
            rng = np.random.default_rng(np.random.SeedSequence((1, workload.index, 0)))
            ours = make_scene(condition, rng)
            theirs = perfbench_scene(workload, 1, 0)
            assert np.array_equal(ours.points, theirs.points), workload.name
            assert np.array_equal(ours.labels, theirs.labels), workload.name


class TestTrials:
    @pytest.mark.parametrize(
        "field, value",
        [("n_points", "x"), ("n_points", True), ("partial", 1), ("scale", "1"),
         ("template_ids", 5), ("template_ids", ("mug-0", 3))],
    )
    def test_condition_field_types_checked(self, field, value):
        with pytest.raises(SceneSpecError, match=field):
            Condition(name="c", object_class="mug", part_path="handle", **{field: value})

    @pytest.mark.parametrize(
        "field, value",
        [("dims_fraction", 1.5), ("dims_fraction", 1.0), ("dims_fraction", -0.1),
         ("scale", 0.0), ("scale", -1.0), ("noise_sigma", -0.001), ("smooth_k", -1),
         ("min_part_visibility", 0.0), ("min_part_visibility", 1.5),
         ("n_points", 9), ("occlusion", 1.0), ("occlusion", -0.2),
         ("scale", float("nan"))],
    )
    def test_condition_field_ranges_checked(self, field, value):
        with pytest.raises(SceneSpecError, match=f"condition {field} must be"):
            Condition(name="c", object_class="mug", part_path="handle", **{field: value})

    def test_condition_range_edges_accepted(self):
        condition = Condition(
            name="c", object_class="mug", part_path="handle", n_points=10,
            dims_fraction=0.0, occlusion=0.0, noise_sigma=0.0, smooth_k=0,
            min_part_visibility=1.0,
        )
        assert condition.n_points == 10

    def test_condition_accepts_numpy_numbers(self):
        condition = Condition(
            name="c", object_class="mug", part_path="handle",
            n_points=np.int64(900), scale=np.float32(0.9), noise_sigma=0,
        )
        assert condition.n_points == 900

    def test_full_cloud_trial_recognizes_and_plans(self, mug_templates):
        condition = Condition(
            name="smoke",
            object_class="mug",
            part_path="handle",
            partial=False,
            n_points=1500,
        )
        report = run_trial(
            condition, mug_templates, np.random.default_rng(12), trial_index=0
        )
        assert report.error is None
        assert report.recognized and report.iou >= 0.5
        assert report.planned and report.n_candidates >= 1

    def test_trial_records_stage_errors(self, mug_templates):
        condition = Condition(name="bad", object_class="teapot", part_path="lid")
        report = run_trial(condition, mug_templates, np.random.default_rng(0))
        assert report.error is not None and report.error.startswith("spec")
        assert not report.recognized and not report.planned

    def test_trial_records_unknown_template_ids(self, mug_templates):
        condition = Condition(
            name="ghost", object_class="mug", part_path="handle",
            template_ids=("nope", *mug_templates),
        )
        report = run_trial(condition, mug_templates, np.random.default_rng(0))
        assert report.error == "spec: [recognize] template ids ['nope'] are not in the bank"
        assert not report.recognized and not report.planned

    @pytest.mark.parametrize("explicit", [False, True], ids=["by-class", "by-id"])
    def test_template_without_the_part_is_left_out(self, mug_templates, explicit):
        mug = make_mug(4000, np.random.default_rng(7))
        body = mug.select(np.flatnonzero(mug.labels != "handle"))
        bank = {"mug-body": build_template(body, "mug", template_id="mug-body")}
        bank["mug-0"] = mug_templates["mug-0"]
        condition = Condition(
            name="mixed", object_class="mug", part_path="handle", partial=False,
            n_points=1500, template_ids=tuple(bank) if explicit else (),
        )
        report = run_trial(condition, bank, np.random.default_rng(12))
        assert report.error is None
        assert report.recognized and report.planned
        if explicit:
            # named explicitly, the handle-less template is tried and its failure kept
            assert list(report.registration_errors) == ["mug-body"]
            assert report.registration_errors["mug-body"].startswith("schema: ")
        else:
            assert report.registration_errors == {}

    def test_trial_names_every_registration_failure(self, mug_templates, monkeypatch):
        def failing_register(*args, **kwargs):
            raise CoarseFailureError("no hypothesis", stage="coarse")

        monkeypatch.setattr("tog.pipeline.register", failing_register)
        condition = Condition(
            name="noreg", object_class="mug", part_path="handle", partial=False,
            n_points=1200,
        )
        report = run_trial(condition, mug_templates, np.random.default_rng(5))
        assert report.recognized and not report.planned
        assert report.error.startswith("spec: [register] every template registration failed")
        for tid in mug_templates:
            assert f"'{tid}': 'coarse-failure: [coarse] no hypothesis'" in report.error

    def test_trial_deterministic(self, mug_templates):
        condition = Condition(
            name="det",
            object_class="mug",
            part_path="handle",
            partial=False,
            n_points=1200,
        )
        reports = [
            run_trial(condition, mug_templates, np.random.default_rng(5))
            for _ in range(2)
        ]
        keys = ("recognized", "iou", "planned", "selected_ok", "any_ok",
                "n_candidates", "error")
        a, b = (tuple(getattr(r, k) for k in keys) for r in reports)
        assert a == b

    def test_suite_shape_and_determinism(self, mug_templates):
        conditions = [
            Condition(name="a", object_class="mug", part_path="handle",
                      partial=False, n_points=900),
            Condition(name="b", object_class="mug", part_path="body.outside",
                      partial=False, n_points=900),
        ]
        keys = ("condition", "trial_index", "recognized", "iou", "planned",
                "selected_ok", "any_ok", "n_candidates", "error")

        def signature(report):
            return [tuple(getattr(t, k) for k in keys) for t in report.trials]

        first = run_suite(conditions, mug_templates, trials_per_condition=2,
                          master_seed=3)
        second = run_suite(conditions, mug_templates, trials_per_condition=2,
                           master_seed=3)
        assert len(first.trials) == 4
        assert set(first.per_condition) == {"a", "b"}
        assert signature(first) == signature(second)

    def test_suite_rejects_repeated_condition_names(self, mug_templates, monkeypatch):
        monkeypatch.setattr(
            "tog.bench.run_trial", lambda *a, **kw: pytest.fail("a trial ran")
        )
        conditions = [
            Condition(name=name, object_class="mug", part_path="handle")
            for name in ("same", "other", "same")
        ]
        with pytest.raises(SceneSpecError, match=r"condition names \['same'\]"):
            run_suite(conditions, mug_templates, trials_per_condition=1)

    def test_suite_needs_trials(self, mug_templates):
        with pytest.raises(SceneSpecError):
            run_suite([], mug_templates, trials_per_condition=0)

    @pytest.mark.parametrize("trials", [True, 1.5, "2"])
    def test_suite_trials_must_be_an_integer(self, mug_templates, trials):
        with pytest.raises(SceneSpecError, match="trials_per_condition"):
            run_suite([], mug_templates, trials_per_condition=trials)

    @pytest.mark.parametrize("seed", [-1, 1.5, True, "3"])
    def test_suite_rejects_bad_master_seed(self, mug_templates, seed):
        with pytest.raises(SceneSpecError, match="master_seed"):
            run_suite([], mug_templates, master_seed=seed)


class TestRuntimeTrend:
    def test_pairs_and_counts(self, mug_templates):
        scene = make_mug(800, np.random.default_rng(0))
        ordered = list(mug_templates.values())
        out = recognition_runtime_trend(
            scene, ordered, "handle", template_counts=(1, 2, 3)
        )
        assert [k for k, _ in out] == [1, 2, 3]
        assert all(seconds > 0 for _, seconds in out)

    def test_requires_enough_templates(self, mug_templates):
        scene = make_mug(400, np.random.default_rng(1))
        with pytest.raises(SceneSpecError):
            recognition_runtime_trend(
                scene, list(mug_templates.values()), "handle",
                template_counts=(1, 5),
            )
