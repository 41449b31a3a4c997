import hashlib
import json
import math
import os
from dataclasses import replace

import numpy as np
import pytest

from tog.bench import build_class_templates
from tog.cloud_io import cloud_to_dict
from tog.errors import (
    CloudParseError,
    DegeneratePartError,
    NoGraspError,
    SchemaError,
)
from tog.geometry import PointCloud, RigidTransform
from tog.ontology import default_graph
from tog.planning import transfer_grasps
from tog.templates import (
    GraspPose,
    GripperConfig,
    Template,
    _template_from_text,
    ancestor_paths,
    build_template,
    load_db,
    load_template,
    part_paths_from_labels,
    sample_antipodal_grasps,
    save_db,
    select_part,
    template_from_dict,
    template_to_dict,
)

from oracles import antipodal_grasps_reference, antipodal_ok


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
        g = GripperConfig()
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

    def test_equal_poses_compare_equal(self):
        a = GraspPose(RigidTransform(np.eye(3), [0.1, 0.0, 0.3]), 0.04)
        b = GraspPose(RigidTransform(np.eye(3), [0.1, -0.0, 0.3]), 0.04)
        assert a == b and hash(a) == hash(b)
        assert a != GraspPose(RigidTransform(np.eye(3), [0.1, 1e-15, 0.3]), 0.04)
        assert a != GraspPose(a.pose, 0.05)


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
        gripper = GripperConfig()
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
        gripper = GripperConfig()
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


class TestSamplerReference:
    """The sampler returns `oracles.antipodal_grasps_reference`'s grasps, in order."""

    @staticmethod
    def assert_same(part, **kwargs):
        try:
            expected = antipodal_grasps_reference(part, **kwargs)
        except NoGraspError as exc:
            with pytest.raises(NoGraspError) as info:
                sample_antipodal_grasps(part, **kwargs)
            assert str(info.value) == str(exc)
            return ()
        got = sample_antipodal_grasps(part, **kwargs)
        assert got == expected
        return got

    @pytest.mark.parametrize("object_class", ["bottle", "mug", "scissor", "slab"])
    def test_every_part_of_the_class_templates(self, object_class):
        for t, template in enumerate(build_class_templates(object_class).values()):
            # build_class_templates seeds template t with (0, t), and build_template part p
            # with ((0, t), p)
            for p, (path, part) in enumerate(template.parts.items()):
                try:
                    expected = antipodal_grasps_reference(part, rng=((0, t), p))
                except NoGraspError:
                    expected = ()
                assert template.grasps[path] == expected, (template.id, path)

    @pytest.mark.parametrize("target_count, rng", [(1, 0), (20, 3), (200, 5)])
    def test_parallel_patches(self, target_count, rng):
        grasps = self.assert_same(parallel_patches(), target_count=target_count, rng=rng)
        assert 0 < len(grasps) <= target_count

    def test_pairs_at_the_full_opening(self):
        # each point's opposite partner lies exactly max_opening away, on the ball's rim
        grasps = self.assert_same(parallel_patches(gap=0.08), target_count=20)
        assert grasps and all(g.width == 0.08 for g in grasps)

    def test_repeated_points(self):
        # every point twice: each point's copy is a zero-width partner
        part = PointCloud(np.repeat(parallel_patches().points, 2, axis=0))
        assert self.assert_same(part, target_count=30, rng=1)

    def test_oversized_sphere(self):
        assert self.assert_same(sphere_cloud(radius=0.06), target_count=5) == ()


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


class TestTemplateBuildBytes:
    """The saved template database of one mug is pinned, so template-build work cannot drift."""

    DIGEST = "da03e654ed00083fa9e8efc4d6279e336e0f8fb08a7280a5280e39568019ca8f"

    def test_saved_mug_database_bytes_are_pinned(self, tmp_path):
        save_db(build_class_templates("mug", count=1), tmp_path)
        digest = hashlib.sha256()
        for path in sorted(tmp_path.iterdir()):
            digest.update(path.name.encode())
            digest.update(path.read_bytes())
        assert digest.hexdigest() == self.DIGEST


class TestSerialization:
    def test_dict_round_trip_bit_exact(self, mug_template):
        data = template_to_dict(mug_template)
        assert data["schema_version"] == 2
        assert "parts" not in data
        again = template_from_dict(json.loads(json.dumps(data)))
        assert again.id == mug_template.id
        assert again.leaf == mug_template.leaf
        assert np.array_equal(again.full_cloud.points, mug_template.full_cloud.points)
        assert np.array_equal(again.full_cloud.labels, mug_template.full_cloud.labels)
        assert list(again.parts) == list(mug_template.parts)
        for path, part in mug_template.parts.items():
            assert again.parts[path].points.dtype == part.points.dtype
            assert np.array_equal(again.parts[path].points, part.points)
            assert np.array_equal(again.parts[path].labels, part.labels)
            for ga, gb in zip(again.grasps[path], mug_template.grasps[path]):
                assert np.array_equal(ga.pose.matrix, gb.pose.matrix)
                assert ga.width == gb.width

    def test_version_1_file_rejected(self, mug_template, tmp_path):
        data = template_to_dict(mug_template)
        data["schema_version"] = 1
        data["parts"] = {
            path: cloud_to_dict(part) for path, part in mug_template.parts.items()
        }
        path = tmp_path / "mug-0.template.json"
        path.write_text(json.dumps(data))
        with pytest.raises(SchemaError, match="unsupported template schema_version 1"):
            load_template(path)

    def test_unlabeled_model_rejected(self, mug_template):
        with pytest.raises(SchemaError, match="labeled model"):
            Template(
                id="bare",
                object_class="mug",
                full_cloud=PointCloud(mug_template.full_cloud.points),
                grasps={},
            )

    def test_db_round_trip(self, mug_template, tmp_path):
        copy = replace(mug_template, id="mug-1")
        patches = build_template(parallel_patches(), "slab", template_id="slab-0")
        save_db([mug_template, copy, patches], tmp_path / "db")
        assert (tmp_path / "db" / "db.json").exists()
        assert (tmp_path / "db" / "mug-0.template.json").exists()
        loaded = load_db(tmp_path / "db")
        assert set(loaded) == {"mug-0", "mug-1", "slab-0"}
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

    @pytest.mark.parametrize(
        "corrupt, error",
        [
            ("template_not_utf8", CloudParseError),
            ("template_missing", CloudParseError),
            ("model_without_labels", SchemaError),
            ("index_not_utf8", SchemaError),
            ("index_is_list", SchemaError),
            ("entry_without_file", SchemaError),
            ("entry_not_object", SchemaError),
            ("templates_not_list", SchemaError),
        ],
    )
    def test_corrupt_database_raises_tog_error(
        self, mug_template, tmp_path, corrupt, error
    ):
        db = save_db([mug_template], tmp_path / "db")
        index_path = db / "db.json"
        index = json.loads(index_path.read_text())
        if corrupt == "template_not_utf8":
            (db / "mug-0.template.json").write_bytes(b'{"id": "\xff\xfe"}')
        elif corrupt == "template_missing":
            (db / "mug-0.template.json").unlink()
        elif corrupt == "model_without_labels":
            data = json.loads((db / "mug-0.template.json").read_text())
            del data["full_cloud"]["labels"]
            (db / "mug-0.template.json").write_text(json.dumps(data))
        elif corrupt == "index_not_utf8":
            index_path.write_bytes(b"\xff\xfe{}")
        elif corrupt == "index_is_list":
            index_path.write_text(json.dumps([index]))
        elif corrupt == "entry_without_file":
            del index["templates"][0]["file"]
            index_path.write_text(json.dumps(index))
        elif corrupt == "entry_not_object":
            index["templates"] = ["mug-0.template.json"]
            index_path.write_text(json.dumps(index))
        else:
            index["templates"] = {"mug-0": "mug-0.template.json"}
            index_path.write_text(json.dumps(index))
        with pytest.raises(error):
            load_db(db)

    def test_rejects_wrong_schema_version(self, mug_template):
        data = template_to_dict(mug_template)
        data["schema_version"] = 99
        with pytest.raises(SchemaError):
            template_from_dict(data)

    def test_rejects_missing_keys(self):
        with pytest.raises(SchemaError):
            template_from_dict({"id": "x"})

    @pytest.mark.parametrize("key", ["leaf", "schema_version"])
    def test_rejects_missing_leaf_and_schema_version(self, mug_template, key):
        # a template built at another leaf must not load at the default one
        data = template_to_dict(replace(mug_template, leaf=0.007))
        assert template_from_dict(data).leaf == 0.007
        del data[key]
        with pytest.raises(SchemaError, match=rf"template JSON missing keys \['{key}'\]"):
            template_from_dict(data)

    @pytest.mark.parametrize(
        "mutation",
        [
            {"id": 5, "object_class": [1]},
            {"id": 5},
            {"object_class": [1]},
            {"id": ""},
            {"object_class": None},
        ],
    )
    def test_rejects_id_and_class_that_are_not_non_empty_strings(self, mug_template, mutation):
        data = template_to_dict(mug_template)
        data.update(mutation)
        with pytest.raises(SchemaError, match="must be a non-empty string"):
            template_from_dict(data)

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
                grasps={"nonexistent": ()},
            )

    def test_part_accessor(self, mug_template):
        assert mug_template.part("handle") is mug_template.parts["handle"]
        with pytest.raises(SchemaError):
            mug_template.part("wing")
        assert mug_template.part_grasps("handle") == mug_template.grasps["handle"]


class TestReadOnlyTemplate:
    def test_parts_and_grasps_refuse_item_assignment(self, mug_template):
        with pytest.raises(TypeError):
            mug_template.parts["handle"] = mug_template.parts["body"]
        with pytest.raises(TypeError):
            mug_template.grasps["handle"] = ()
        with pytest.raises(TypeError):
            del mug_template.grasps["body"]

    def test_given_grasps_are_copied(self, mug_template):
        grasps = dict(mug_template.grasps)
        t = replace(mug_template, grasps=grasps)
        grasps["handle"] = ()
        assert t.grasps["handle"] == mug_template.grasps["handle"]

    def test_replace_dict_and_equality_as_before(self, mug_template):
        fewer = replace(mug_template, grasps={"handle": mug_template.grasps["handle"][:3]})
        assert dict(fewer.grasps) == {"handle": mug_template.grasps["handle"][:3]}
        with pytest.raises(TypeError):
            fewer.grasps["body"] = ()
        assert fewer != mug_template
        assert replace(mug_template, grasps=dict(mug_template.grasps)) == mug_template
        data = template_to_dict(fewer)
        assert type(data["grasps"]) is dict
        assert list(data["grasps"]) == ["handle"]
        assert json.loads(json.dumps(data)) == data


class TestTemplateReuse:
    def test_unchanged_database_gives_the_same_templates(self, mug_template, tmp_path):
        save_db([mug_template, replace(mug_template, id="mug-1")], tmp_path / "db")
        first = load_db(tmp_path / "db")
        again = load_db(tmp_path / "db")
        assert list(again) == ["mug-0", "mug-1"]
        assert all(again[tid] is first[tid] for tid in first)

    def test_rewritten_file_of_the_same_length_gives_a_fresh_template(
        self, mug_template, tmp_path
    ):
        db = save_db([mug_template, replace(mug_template, id="mug-1")], tmp_path / "db")
        first = load_db(db)
        path = db / "mug-0.template.json"
        text = path.read_text()
        stat = path.stat()
        assert text.count('"leaf": 0.005') == 1
        path.write_text(text.replace('"leaf": 0.005', '"leaf": 0.006'))
        os.utime(path, ns=(stat.st_atime_ns, stat.st_mtime_ns))
        assert path.stat().st_size == stat.st_size
        again = load_db(db)
        assert again["mug-0"] is not first["mug-0"]
        assert again["mug-0"].leaf == 0.006 and first["mug-0"].leaf == 0.005
        assert again["mug-1"] is first["mug-1"]

    @pytest.mark.parametrize("corrupt", ["not_json", "missing"])
    def test_errors_are_raised_on_every_call(self, mug_template, tmp_path, corrupt):
        db = save_db([mug_template], tmp_path / "db")
        path = db / "mug-0.template.json"
        text = path.read_text()
        good = load_template(path)
        if corrupt == "not_json":
            path.write_text("{broken")
        else:
            path.unlink()
        for _ in range(3):
            with pytest.raises(CloudParseError, match="mug-0.template.json"):
                load_template(path)
            with pytest.raises(CloudParseError, match="mug-0.template.json"):
                load_db(db)
        path.write_text(text)
        assert load_template(path) is good

    def test_schema_errors_are_raised_on_every_call(self, mug_template, tmp_path):
        path = tmp_path / "mug-0.template.json"
        data = template_to_dict(mug_template)
        del data["full_cloud"]["labels"]
        path.write_text(json.dumps(data))
        misses = _template_from_text.cache_info().misses
        for _ in range(3):
            with pytest.raises(SchemaError, match="labeled model"):
                load_template(path)
        assert _template_from_text.cache_info().misses == misses + 3

    def test_repeated_id_rejected(self, mug_template, tmp_path):
        db = save_db([mug_template, replace(mug_template, id="mug-1")], tmp_path / "db")
        index_path = db / "db.json"
        index = json.loads(index_path.read_text())
        index["templates"].append(dict(index["templates"][0]))
        index_path.write_text(json.dumps(index))
        with pytest.raises(SchemaError, match="'mug-0' is listed twice"):
            load_db(db)

    @pytest.mark.parametrize("object_class", ["bottle", None, 3])
    def test_index_class_must_match_the_file(self, mug_template, tmp_path, object_class):
        db = save_db([mug_template], tmp_path / "db")
        index_path = db / "db.json"
        index = json.loads(index_path.read_text())
        if object_class is None:
            del index["templates"][0]["object_class"]
        else:
            index["templates"][0]["object_class"] = object_class
        index_path.write_text(json.dumps(index))
        with pytest.raises(SchemaError, match="object_class"):
            load_db(db)
