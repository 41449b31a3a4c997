import math
from dataclasses import replace
from types import SimpleNamespace

import numpy as np
import pytest
from scipy.spatial.transform import Rotation

from tog.errors import (
    AdjustmentFailureError,
    NoFeasibleGraspError,
    NoGraspError,
)
from tog.geometry import PointCloud, RigidTransform
from tog.planning import (
    GraspCandidate,
    adjust_grasp,
    check_placement,
    check_stick,
    plan,
    points_in_closure,
    transfer_grasps,
)
from tog.templates import GraspPose, GripperConfig, Template

from oracles import aabb_center, knn_linear

GRIPPER = GripperConfig(
    max_opening=0.08,
    jaw_depth=0.02,
    finger_thickness=0.01,
    closure_height=0.02,
    stick_radius=0.004,
)


def pose_at(center, rotation=None):
    return RigidTransform(np.eye(3) if rotation is None else rotation, center)


def bar_cloud(n=40, length=0.06, radius=0.003):
    """Thin solid bar along y, centered at the origin, labeled "face"."""
    rng = np.random.default_rng(11)
    ys = np.linspace(-length / 2, length / 2, n)
    offsets = rng.uniform(-radius, radius, size=(n, 2))
    pts = np.stack([offsets[:, 0], ys, offsets[:, 1]], axis=1)
    return PointCloud(pts, ["face"] * n)


def bar_template(grasp_centers, widths=None, object_class="slab"):
    part = bar_cloud()
    widths = widths or [0.04] * len(grasp_centers)
    grasps = tuple(
        GraspPose(pose_at(np.asarray(c, dtype=float)), w)
        for c, w in zip(grasp_centers, widths)
    )
    return Template(
        id="bar-0",
        object_class=object_class,
        full_cloud=part,
        grasps={"face": grasps},
    )


def recognition_stub(scene, members, part_path="face"):
    members = np.asarray(members, dtype=np.int64)
    return SimpleNamespace(
        part_cloud=scene.select(members), members=members, part_path=part_path
    )


class TestTransfer:
    def test_identity_registration_keeps_poses(self):
        template = bar_template([[0.0, 0.0, 0.0], [0.0, 0.01, 0.0]])
        out = transfer_grasps(template, "face", RigidTransform.identity())
        assert len(out) == 2
        for i, cand in enumerate(out):
            stored = template.grasps["face"][i]
            assert np.allclose(cand.pose.matrix, stored.pose.matrix)
            assert cand.width == stored.width
            assert cand.template_id == "bar-0"
            assert cand.part_path == "face"
            assert cand.source_index == i

    def test_inverse_of_scene_to_template(self):
        template = bar_template([[0.01, -0.02, 0.03]])
        rot = Rotation.from_euler("xyz", [20, -35, 140], degrees=True).as_matrix()
        t_total = RigidTransform(rot, [0.2, -0.1, 0.4])
        out = transfer_grasps(template, "face", t_total)
        expected = t_total.inverse() @ template.grasps["face"][0].pose
        assert np.allclose(out[0].pose.matrix, expected.matrix, atol=1e-12)

    def test_world_frame_composition(self):
        template = bar_template([[0.0, 0.0, 0.0]])
        rot = Rotation.from_euler("z", 90, degrees=True).as_matrix()
        t_total = RigidTransform(rot, [0.05, 0.0, 0.0])
        t0 = RigidTransform(np.eye(3), [1.0, 2.0, 3.0])
        out = transfer_grasps(template, "face", t_total, t0=t0)
        expected = t0 @ t_total.inverse() @ template.grasps["face"][0].pose
        assert np.allclose(out[0].pose.matrix, expected.matrix, atol=1e-12)

    def test_no_grasps_raises(self):
        part = bar_cloud()
        template = Template(
            id="empty",
            object_class="slab",
            full_cloud=part,
            grasps={"face": ()},
        )
        with pytest.raises(NoGraspError):
            transfer_grasps(template, "face", RigidTransform.identity())


class TestPlacement:
    def test_clear_scene_passes(self):
        assert check_placement(pose_at([0, 0, 0]), 0.04, np.empty((0, 3)), GRIPPER)
        far = np.array([[1.0, 1.0, 1.0]])
        assert check_placement(pose_at([0, 0, 0]), 0.04, far, GRIPPER)

    def test_point_inside_finger_fails(self):
        # right finger box spans x in [0.02, 0.03] for width 0.04
        inside = np.array([[0.025, 0.0, 0.0]])
        assert not check_placement(pose_at([0, 0, 0]), 0.04, inside, GRIPPER)
        mirrored = np.array([[-0.025, 0.0, 0.0]])
        assert not check_placement(pose_at([0, 0, 0]), 0.04, mirrored, GRIPPER)

    def test_boundary_counts_as_collision(self):
        on_face = np.array([[0.02, 0.01, 0.01]])
        assert not check_placement(pose_at([0, 0, 0]), 0.04, on_face, GRIPPER)

    def test_between_jaws_is_not_a_finger_hit(self):
        between = np.array([[0.0, 0.0, 0.0], [0.019, 0.0, 0.0]])
        assert check_placement(pose_at([0, 0, 0]), 0.04, between, GRIPPER)

    def test_beyond_finger_tip_passes(self):
        outside = np.array([[0.031, 0.0, 0.0], [0.025, 0.02, 0.0]])
        assert check_placement(pose_at([0, 0, 0]), 0.04, outside, GRIPPER)

    def test_respects_pose(self):
        rot = Rotation.from_euler("z", 90, degrees=True).as_matrix()
        pose = RigidTransform(rot, [0.1, 0.0, 0.0])
        # closing axis now along world y; finger sits near y = +-0.025
        hit = np.array([[0.1, 0.025, 0.0]])
        assert not check_placement(pose, 0.04, hit, GRIPPER)
        miss = np.array([[0.125, 0.0, 0.0]])
        assert check_placement(pose, 0.04, miss, GRIPPER)


class TestClosureAndStick:
    def test_closure_mask(self):
        pts = np.array(
            [
                [0.0, 0.0, 0.0],
                [0.019, 0.009, 0.009],
                [0.021, 0.0, 0.0],
                [0.0, 0.011, 0.0],
            ]
        )
        mask = points_in_closure(pose_at([0, 0, 0]), 0.04, pts, GRIPPER)
        assert mask.tolist() == [True, True, False, False]

    def test_stick_requires_axis_material(self):
        pose = pose_at([0, 0, 0])
        on_axis = np.array([[0.01, 0.002, 0.002]])
        assert check_stick(pose, 0.04, on_axis, GRIPPER)
        off_axis = np.array([[0.01, 0.005, 0.0]])
        assert not check_stick(pose, 0.04, off_axis, GRIPPER)
        past_jaw = np.array([[0.021, 0.0, 0.0]])
        assert not check_stick(pose, 0.04, past_jaw, GRIPPER)

    def test_stick_radius_boundary_closed(self):
        pose = pose_at([0, 0, 0])
        on_surface = np.array([[0.0, GRIPPER.stick_radius, 0.0]])
        assert check_stick(pose, 0.04, on_surface, GRIPPER)

    def test_empty_part_fails_stick(self):
        assert not check_stick(pose_at([0, 0, 0]), 0.04, np.empty((0, 3)), GRIPPER)

    @pytest.mark.parametrize("empty", [np.empty((0, 3)), [], np.empty(0)])
    def test_empty_point_sets(self, empty):
        pose = pose_at([0, 0, 0])
        assert check_placement(pose, 0.04, empty, GRIPPER) is True
        mask = points_in_closure(pose, 0.04, empty, GRIPPER)
        assert mask.dtype == bool and mask.shape == (0,)
        assert check_stick(pose, 0.04, empty, GRIPPER) is False


class TestGraspCandidate:
    def make(self, width):
        return GraspCandidate(
            pose=pose_at([0.01, 0.0, 0.0]),
            width=width,
            template_id="t",
            part_path="face",
            source_index=0,
        )

    def test_is_a_grasp_pose(self):
        cand = self.make(0.04)
        assert isinstance(cand, GraspPose)
        assert np.array_equal(cand.contacts(), GraspPose(cand.pose, 0.04).contacts())
        assert np.array_equal(cand.closing_axis, [1.0, 0.0, 0.0])

    @pytest.mark.parametrize("width", [0.0, -0.01, float("nan")])
    def test_rejects_non_positive_width(self, width):
        with pytest.raises(ValueError, match="width must be positive"):
            self.make(width)

    def test_equality_compares_fields_exactly(self):
        assert self.make(0.04) == self.make(0.04)
        assert self.make(0.04) != self.make(0.05)
        moved = replace(self.make(0.04), adjustment=np.array([0.0, 0.0, 1e-12]))
        assert (moved == self.make(0.04)) is False
        assert self.make(0.04) != GraspPose(self.make(0.04).pose, 0.04)


class TestAdjust:
    def test_translates_to_local_box_center(self):
        part = bar_cloud()
        cand = GraspCandidate(
            pose=pose_at([0.02, 0.01, 0.0]),
            width=0.04,
            template_id="t",
            part_path="face",
            source_index=0,
        )
        adjusted = adjust_grasp(cand, part)
        anchor = knn_linear(part.points, cand.center, 1)[0]
        k = math.ceil(len(part) / 2)
        nbrs = part.points[knn_linear(part.points, part.points[anchor], k)]
        expected_center = aabb_center(nbrs)
        assert np.allclose(adjusted.center, expected_center, atol=1e-12)
        assert np.allclose(
            adjusted.adjustment, expected_center - cand.center, atol=1e-12
        )
        assert np.array_equal(adjusted.pose.rotation, cand.pose.rotation)
        assert adjusted.width == cand.width
        assert not adjusted.stick_ok_initially

    def test_empty_part_raises(self):
        cand = GraspCandidate(
            pose=pose_at([0, 0, 0]),
            width=0.04,
            template_id="t",
            part_path="face",
            source_index=0,
        )
        with pytest.raises(AdjustmentFailureError):
            adjust_grasp(cand, PointCloud(np.empty((0, 3))))


def make_plan_scene():
    """Scene = bar part (recognized) + an obstacle wall at x = 0.035."""
    part_pts = bar_cloud().points
    wall = np.stack(
        [
            np.full(25, 0.035),
            np.tile(np.linspace(-0.008, 0.008, 5), 5),
            np.repeat(np.linspace(-0.008, 0.008, 5), 5),
        ],
        axis=1,
    )
    scene = PointCloud(np.vstack([part_pts, wall]))
    members = np.arange(len(part_pts))
    return scene, members


class TestPlan:
    def test_orders_and_filters(self):
        scene, members = make_plan_scene()
        template = bar_template(
            [
                [0.0, 0.0, 0.0],  # on the bar: stick passes untouched
                [0.0, 0.01, 0.02],  # off axis: needs adjustment
                [0.0, 0.02, 0.0],  # on the bar, near the wall but clear
            ]
        )
        recognition = recognition_stub(scene, members)
        out = plan(scene, recognition, template, RigidTransform.identity(), gripper=GRIPPER)
        assert [c.source_index for c in out] == [0, 2, 1]
        assert [c.stick_ok_initially for c in out] == [True, True, False]
        assert out[2].adjustment_norm > 0
        for cand in out:
            non_part = np.delete(np.arange(len(scene)), members)
            assert check_placement(
                cand.pose, cand.width, scene.points[non_part], GRIPPER
            )
            assert check_stick(
                cand.pose, cand.width, recognition.part_cloud.points, GRIPPER
            )

    def test_colliding_grasp_dropped(self):
        scene, members = make_plan_scene()
        # wall sits at x = 0.035; width 0.05 puts fingers at [0.025, 0.035]
        template = bar_template([[0.0, 0.0, 0.0]], widths=[0.05])
        recognition = recognition_stub(scene, members)
        with pytest.raises(NoFeasibleGraspError):
            plan(scene, recognition, template, RigidTransform.identity(), gripper=GRIPPER)

    def test_unadjustable_grasp_dropped(self):
        # part is a thin ring: the translation-only adjustment centers the
        # grasp inside the ring, where no material reaches the closing line
        theta = np.linspace(0, 2 * np.pi, 36, endpoint=False)
        ring = np.stack(
            [np.zeros(36), 0.015 * np.sin(theta), 0.015 * np.cos(theta)], axis=1
        )
        scene = PointCloud(ring)
        members = np.arange(len(ring))
        grasps = (GraspPose(pose_at([0.3, 0.3, 0.3]), 0.004),)
        template = Template(
            id="ring-0",
            object_class="slab",
            full_cloud=PointCloud(ring, ["face"] * len(ring)),
            grasps={"face": grasps},
        )
        recognition = recognition_stub(scene, members)
        with pytest.raises(NoFeasibleGraspError):
            plan(scene, recognition, template, RigidTransform.identity(), gripper=GRIPPER)

    def test_deterministic(self):
        scene, members = make_plan_scene()
        template = bar_template(
            [[0.0, 0.0, 0.0], [0.0, 0.01, 0.02], [0.0, 0.02, 0.0]]
        )
        recognition = recognition_stub(scene, members)
        a = plan(scene, recognition, template, RigidTransform.identity(), gripper=GRIPPER)
        b = plan(scene, recognition, template, RigidTransform.identity(), gripper=GRIPPER)
        assert [c.source_index for c in a] == [c.source_index for c in b]
        for ca, cb in zip(a, b):
            assert np.array_equal(ca.pose.matrix, cb.pose.matrix)
