import json
import math

import numpy as np
import pytest

from tog.errors import (
    CloudParseError,
    DegeneratePartError,
    NoGraspError,
    SchemaError,
)
from tog.geometry import PointCloud, RigidTransform, aabb
from tog.ontology import default_graph
from tog.planning import transfer_grasps
from tog.templates import (
    GraspPose,
    GripperConfig,
    Template,
    ancestor_paths,
    build_template,
    default_gripper,
    load_db,
    load_template,
    part_paths_from_labels,
    sample_antipodal_grasps,
    save_db,
    save_template,
    scale_template,
    select_part,
    template_from_dict,
    template_to_dict,
)

from oracles import antipodal_ok


def grid_cylinder(radius, height, spacing, center=(0.0, 0.0, 0.0)):
    n_theta = max(8, int(round(2 * np.pi * radius / spacing)))
    n_z = max(2, int(round(height / spacing)) + 1)
    thetas = np.arange(n_theta) * (2 * np.pi / n_theta)
    zs = np.linspace(-height / 2, height / 2, n_z)
    tt, zz = np.meshgrid(thetas, zs)
    pts = np.stack(
        [radius * np.cos(tt).ravel(), radius * np.sin(tt).ravel(), zz.ravel()],
        axis=1,
    )
    return pts + np.asarray(center)


def grid_torus_arc(
    center, main_radius, tube_radius, spacing, arc_deg=240.0, tilt=None
):
    n_phi = max(8, int(round(math.radians(arc_deg) * main_radius / spacing)))
    n_psi = max(8, int(round(2 * np.pi * tube_radius / spacing)))
    phis = np.radians(np.linspace(-arc_deg / 2, arc_deg / 2, n_phi))
    psis = np.arange(n_psi) * (2 * np.pi / n_psi)
    pp, ss = np.meshgrid(phis, psis)
    r = main_radius + tube_radius * np.cos(ss)
    pts = np.stack(
        [r * np.cos(pp), tube_radius * np.sin(ss), r * np.sin(pp)], axis=-1
    ).reshape(-1, 3)
    if tilt is not None:
        pts = pts @ tilt.T
    return pts + np.asarray(center)


def labeled_mug(spacing=0.0025):
    outside = grid_cylinder(0.035, 0.09, spacing)
    inside = grid_cylinder(0.031, 0.085, spacing)
    handle = grid_torus_arc(
        center=(0.05, 0.0, 0.0),
        main_radius=0.024,
        tube_radius=0.009,
        spacing=max(spacing, 0.002),
        arc_deg=260.0,
    )
    points = np.vstack([outside, inside, handle])
    labels = (
        ["body.outside"] * len(outside)
        + ["body.inside"] * len(inside)
        + ["handle"] * len(handle)
    )
    return PointCloud(points, labels)


def parallel_patches(gap=0.03, spacing=0.002, side=0.02):
    xs = np.arange(-side / 2, side / 2 + spacing / 2, spacing)
    xx, yy = np.meshgrid(xs, xs)
    lower = np.stack([xx.ravel(), yy.ravel(), np.zeros(xx.size)], axis=1)
    upper = lower + [0.0, 0.0, gap]
    points = np.vstack([lower, upper])
    return PointCloud(points, ["face"] * len(points))


def sphere_cloud(radius=0.06, spacing=0.005):
    n_lat = max(4, int(round(np.pi * radius / spacing)))
    pts = []
    for i in range(1, n_lat):
        lat = np.pi * i / n_lat
        ring_r = radius * np.sin(lat)
        n_lon = max(6, int(round(2 * np.pi * ring_r / spacing)))
        lons = np.arange(n_lon) * (2 * np.pi / n_lon)
        pts.append(
            np.stack(
                [
                    ring_r * np.cos(lons),
                    ring_r * np.sin(lons),
                    np.full(n_lon, radius * np.cos(lat)),
                ],
                axis=1,
            )
        )
    return PointCloud(np.vstack(pts))


@pytest.fixture(scope="module")
def mug_template():
    return build_template(
        labeled_mug(), "mug", leaf=0.005, graph=default_graph(), template_id="mug-0"
    )


class TestGripperConfig:
    def test_defaults_valid(self):
        g = default_gripper()
        assert g.max_opening > 0 and g.stick_radius < g.max_opening / 2

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"max_opening": 0.0},
            {"jaw_depth": -0.01},
            {"finger_thickness": 0.0},
            {"closure_height": -1.0},
            {"stick_radius": 0.0},
        ],
    )
    def test_rejects_nonpositive(self, kwargs):
        with pytest.raises(ValueError):
            GripperConfig(**kwargs)

    def test_rejects_wide_stick(self):
        with pytest.raises(ValueError):
            GripperConfig(max_opening=0.05, stick_radius=0.03)


class TestGraspPose:
    def test_axes_and_contacts(self):
        pose = RigidTransform(np.eye(3), [0.1, 0.2, 0.3])
        g = GraspPose(pose, 0.04)
        assert np.allclose(g.center, [0.1, 0.2, 0.3])
        assert np.allclose(g.closing_axis, [1, 0, 0])
        assert np.allclose(g.approach_axis, [0, 0, 1])
        contacts = g.contacts()
        assert np.allclose(contacts[0], [0.08, 0.2, 0.3])
        assert np.allclose(contacts[1], [0.12, 0.2, 0.3])

    def test_rejects_bad_width(self):
        with pytest.raises(ValueError):
            GraspPose(RigidTransform.identity(), 0.0)

    def test_rejects_non_transform(self):
        with pytest.raises(ValueError):
            GraspPose(np.eye(4), 0.04)


class TestPartPaths:
    def test_ancestors(self):
        assert ancestor_paths("body.outside.rim") == ["body", "body.outside"]
        assert ancestor_paths("handle") == []

    def test_paths_from_labels(self):
        labels = ["body.inside", "body.outside", "handle"]
        assert part_paths_from_labels(labels) == [
            "body",
            "body.inside",
            "body.outside",
            "handle",
        ]

    def test_select_part_aggregates_descendants(self):
        cloud = labeled_mug()
        body = select_part(cloud, "body")
        inside = select_part(cloud, "body.inside")
        outside = select_part(cloud, "body.outside")
        assert len(body) == len(inside) + len(outside)
        rows = set(map(tuple, body.points))
        assert set(map(tuple, inside.points)) <= rows
        assert set(map(tuple, outside.points)) <= rows

    def test_select_part_requires_labels(self):
        with pytest.raises(SchemaError):
            select_part(PointCloud(np.zeros((4, 3))), "body")


class TestSampling:
    def test_reaches_target_on_handle(self, mug_template):
        assert len(mug_template.grasps["handle"]) >= 50
        assert len(mug_template.grasps["body"]) >= 50

    def test_grasps_satisfy_first_principles(self, mug_template):
        gripper = default_gripper()
        for path in ("handle", "body.outside"):
            part = mug_template.parts[path]
            for g in mug_template.grasps[path][:15]:
                contacts = g.contacts()
                assert antipodal_ok(
                    part.points,
                    contacts[0],
                    contacts[1],
                    gripper.max_opening,
                    10.0,
                    contact_tol=1e-9,
                    angle_margin_deg=0.05,
                ), f"grasp on {path} fails the antipodal check"

    def test_widths_within_opening(self, mug_template):
        gripper = default_gripper()
        for grasps in mug_template.grasps.values():
            for g in grasps:
                assert 0 < g.width <= gripper.max_opening * (1 + 1e-12)

    def test_no_near_duplicates(self, mug_template):
        grasps = mug_template.grasps["handle"]
        centers = np.array([g.center for g in grasps])
        axes = np.array([g.closing_axis for g in grasps])
        cos_dup = math.cos(math.radians(10.0))
        for i in range(len(grasps)):
            d = np.linalg.norm(centers - centers[i], axis=1)
            align = np.abs(axes @ axes[i])
            clash = (d < 0.005) & (align > cos_dup)
            clash[i] = False
            assert not np.any(clash)

    def test_rotations_are_proper(self, mug_template):
        for grasps in mug_template.grasps.values():
            for g in grasps[:10]:
                r = g.pose.rotation
                assert np.allclose(r @ r.T, np.eye(3), atol=1e-9)
                assert np.linalg.det(r) > 0

    def test_parallel_patches_width(self):
        part = parallel_patches(gap=0.03)
        grasps = sample_antipodal_grasps(part, target_count=20)
        assert len(grasps) >= 5
        for g in grasps:
            assert g.width == pytest.approx(0.03, rel=0.02)
            assert abs(g.closing_axis @ np.array([0.0, 0.0, 1.0])) > math.cos(
                math.radians(10.5)
            )

    def test_oversized_sphere_has_no_grasp(self):
        with pytest.raises(NoGraspError):
            sample_antipodal_grasps(sphere_cloud(radius=0.06), target_count=5)

    def test_deterministic(self):
        part = parallel_patches()
        a = sample_antipodal_grasps(part, target_count=10, rng=7)
        b = sample_antipodal_grasps(part, target_count=10, rng=7)
        assert len(a) == len(b)
        for ga, gb in zip(a, b):
            assert np.array_equal(ga.pose.matrix, gb.pose.matrix)
            assert ga.width == gb.width


class TestBuildTemplate:
    def test_part_inventory(self, mug_template):
        assert sorted(mug_template.parts) == [
            "body",
            "body.inside",
            "body.outside",
            "handle",
        ]
        assert mug_template.object_class == "mug"
        assert mug_template.id == "mug-0"

    def test_parts_are_exact_subsets(self, mug_template):
        full_rows = set(map(tuple, mug_template.full_cloud.points))
        for part in mug_template.parts.values():
            assert set(map(tuple, part.points)) <= full_rows

    def test_aggregate_is_union(self, mug_template):
        body = set(map(tuple, mug_template.parts["body"].points))
        inside = set(map(tuple, mug_template.parts["body.inside"].points))
        outside = set(map(tuple, mug_template.parts["body.outside"].points))
        assert body == inside | outside

    def test_every_part_has_grasps(self, mug_template):
        for path in mug_template.parts:
            assert len(mug_template.grasps[path]) > 0

    def test_requires_labels(self):
        with pytest.raises(SchemaError):
            build_template(PointCloud(np.random.default_rng(0).normal(size=(50, 3))), "mug")

    def test_unknown_label_rejected_with_graph(self):
        pts = grid_cylinder(0.03, 0.05, 0.004)
        cloud = PointCloud(pts, ["spout"] * len(pts))
        with pytest.raises(SchemaError):
            build_template(cloud, "mug", graph=default_graph())

    def test_unknown_class_rejected_with_graph(self):
        pts = grid_cylinder(0.03, 0.05, 0.004)
        cloud = PointCloud(pts, ["body"] * len(pts))
        with pytest.raises(SchemaError):
            build_template(cloud, "teapot", graph=default_graph())

    def test_no_graph_skips_label_validation(self):
        pts = grid_cylinder(0.03, 0.05, 0.004)
        cloud = PointCloud(pts, ["anything"] * len(pts))
        t = build_template(cloud, "mug")
        assert list(t.parts) == ["anything"]
        assert len(t.full_cloud) == len(t.parts["anything"])

    def test_tiny_part_rejected(self):
        pts = grid_cylinder(0.03, 0.05, 0.004)
        extra = np.array([[0.2, 0.2, 0.2], [0.21, 0.2, 0.2]])
        cloud = PointCloud(
            np.vstack([pts, extra]), ["body"] * len(pts) + ["cap"] * 2
        )
        with pytest.raises(DegeneratePartError):
            build_template(cloud, "bottle")

    def test_part_wider_than_gripper_keeps_no_grasps(self):
        body = sphere_cloud(radius=0.06).points
        handle = grid_cylinder(0.015, 0.03, 0.004, center=(0.2, 0.0, 0.0))
        cloud = PointCloud(
            np.vstack([body, handle]), ["body"] * len(body) + ["handle"] * len(handle)
        )
        t = build_template(cloud, "mug")
        assert t.grasps["body"] == ()
        assert len(t.grasps["handle"]) > 0
        assert template_from_dict(template_to_dict(t)).grasps["body"] == ()
        with pytest.raises(NoGraspError):
            transfer_grasps(t, "body", RigidTransform.identity())

    def test_build_deterministic(self):
        cloud = labeled_mug(spacing=0.004)
        a = build_template(cloud, "mug", rng=3)
        b = build_template(cloud, "mug", rng=3)
        for path in a.grasps:
            assert len(a.grasps[path]) == len(b.grasps[path])
            for ga, gb in zip(a.grasps[path], b.grasps[path]):
                assert np.array_equal(ga.pose.matrix, gb.pose.matrix)


class TestScale:
    def test_geometry_scales_about_centroid(self, mug_template):
        scaled = scale_template(mug_template, 1.2)
        assert scaled.id == "mug-0-x1.2"
        d0 = aabb(mug_template.full_cloud).diagonal
        d1 = aabb(scaled.full_cloud).diagonal
        assert d1 == pytest.approx(1.2 * d0, rel=1e-9)
        c0 = mug_template.full_cloud.points.mean(axis=0)
        c1 = scaled.full_cloud.points.mean(axis=0)
        assert np.allclose(c0, c1, atol=1e-12)

    def test_widths_scale_and_clamp(self, mug_template):
        gripper = default_gripper()
        scaled = scale_template(mug_template, 1.5, gripper=gripper)
        for path, grasps in scaled.grasps.items():
            for g, orig in zip(grasps, mug_template.grasps[path]):
                assert g.width == pytest.approx(
                    min(1.5 * orig.width, gripper.max_opening)
                )
                assert np.array_equal(g.pose.rotation, orig.pose.rotation)

    def test_part_counts_preserved(self, mug_template):
        scaled = scale_template(mug_template, 0.8)
        for path in mug_template.parts:
            assert len(scaled.parts[path]) == len(mug_template.parts[path])

    def test_rejects_bad_factor(self, mug_template):
        with pytest.raises(ValueError):
            scale_template(mug_template, 0.0)


class TestSerialization:
    def test_dict_round_trip_bit_exact(self, mug_template):
        again = template_from_dict(
            json.loads(json.dumps(template_to_dict(mug_template)))
        )
        assert again.id == mug_template.id
        assert again.leaf == mug_template.leaf
        assert np.array_equal(again.full_cloud.points, mug_template.full_cloud.points)
        assert np.array_equal(again.full_cloud.labels, mug_template.full_cloud.labels)
        for path in mug_template.parts:
            assert np.array_equal(
                again.parts[path].points, mug_template.parts[path].points
            )
            for ga, gb in zip(again.grasps[path], mug_template.grasps[path]):
                assert np.array_equal(ga.pose.matrix, gb.pose.matrix)
                assert ga.width == gb.width

    def test_db_round_trip(self, mug_template, tmp_path):
        scaled = scale_template(mug_template, 1.1)
        patches = build_template(parallel_patches(), "slab", template_id="slab-0")
        save_db([mug_template, scaled, patches], tmp_path / "db")
        assert (tmp_path / "db" / "db.json").exists()
        assert (tmp_path / "db" / "mug-0.template.json").exists()
        loaded = load_db(tmp_path / "db")
        assert set(loaded) == {"mug-0", "mug-0-x1.1", "slab-0"}
        assert np.array_equal(
            loaded["mug-0"].full_cloud.points, mug_template.full_cloud.points
        )

    def test_index_is_sorted_json(self, mug_template, tmp_path):
        save_db([mug_template], tmp_path / "db")
        index = json.loads((tmp_path / "db" / "db.json").read_text())
        assert index["schema_version"] == 1
        assert index["templates"][0]["id"] == "mug-0"
        assert index["templates"][0]["file"] == "mug-0.template.json"

    def test_load_missing_index(self, tmp_path):
        with pytest.raises(SchemaError):
            load_db(tmp_path)

    def test_load_rejects_id_mismatch(self, mug_template, tmp_path):
        save_db([mug_template], tmp_path / "db")
        index_path = tmp_path / "db" / "db.json"
        index = json.loads(index_path.read_text())
        index["templates"][0]["id"] = "other"
        index_path.write_text(json.dumps(index))
        with pytest.raises(SchemaError):
            load_db(tmp_path / "db")

    def test_load_rejects_corrupt_template(self, mug_template, tmp_path):
        save_db([mug_template], tmp_path / "db")
        (tmp_path / "db" / "mug-0.template.json").write_text("{broken")
        with pytest.raises(CloudParseError):
            load_db(tmp_path / "db")

    def test_rejects_wrong_schema_version(self, mug_template):
        data = template_to_dict(mug_template)
        data["schema_version"] = 99
        with pytest.raises(SchemaError):
            template_from_dict(data)

    def test_rejects_missing_keys(self):
        with pytest.raises(SchemaError):
            template_from_dict({"id": "x"})

    @pytest.mark.parametrize("leaf", ["abc", None, float("inf"), 0.0, True])
    def test_rejects_leaf_that_is_not_a_positive_number(self, mug_template, leaf):
        data = template_to_dict(mug_template)
        data["leaf"] = leaf
        with pytest.raises(SchemaError, match="leaf"):
            template_from_dict(data)

    def test_template_validates_grasp_keys(self, mug_template):
        with pytest.raises(SchemaError):
            Template(
                id="bad",
                object_class="mug",
                full_cloud=mug_template.full_cloud,
                parts=dict(mug_template.parts),
                grasps={"nonexistent": ()},
            )

    def test_part_accessor(self, mug_template):
        assert mug_template.part("handle") is mug_template.parts["handle"]
        with pytest.raises(SchemaError):
            mug_template.part("wing")
        assert mug_template.part_grasps("handle") == mug_template.grasps["handle"]
