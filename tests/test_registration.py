"""Registration-stage tests: ICP, coarse RANSAC, rotation grid, full stack."""

import itertools
from types import SimpleNamespace

import numpy as np
import pytest
from scipy.spatial.transform import Rotation

import oracles
from tog import registration
from tog.errors import (
    CoarseFailureError,
    InsufficientPointsError,
    LocalRegistrationFailureError,
    RegistrationFailureError,
)
from tog.geometry import PointCloud, RigidTransform, rotation_between
from tog.recognition import RecognitionResult
from tog.registration import (
    best_registration,
    coarse_align,
    fpfh,
    icp,
    optimize_rotation,
    register,
    register_local,
    rotation_candidates,
)


def torus_arc(rng, n=400, major=0.02, minor=0.006, sweep=1.6 * np.pi):
    u = rng.uniform(0, 2 * np.pi, n)
    v = rng.uniform(0, sweep, n)
    return np.stack(
        [
            (major + minor * np.cos(v)) * np.cos(u),
            (major + minor * np.cos(v)) * np.sin(u),
            minor * np.sin(v),
        ],
        axis=1,
    )


def cylinder(rng, n=400, radius=0.04, height=0.1):
    theta = rng.uniform(0, 2 * np.pi, n)
    z = rng.uniform(0, height, n)
    return np.stack([radius * np.cos(theta), radius * np.sin(theta), z], axis=1)


def random_pose(rng, scale=0.1):
    return RigidTransform(
        Rotation.from_rotvec(rng.uniform(-np.pi, np.pi, 3) * 0.5).as_matrix(),
        rng.uniform(-scale, scale, 3),
    )


class TestIcp:
    def test_self_registration_identity(self):
        rng = np.random.default_rng(0)
        cloud = PointCloud(rng.uniform(-0.05, 0.05, (150, 3)))
        res = icp(cloud, cloud, max_corr_dist=0.01)
        assert res.fitness == 1.0
        assert res.rmse < 1e-12
        assert res.transform.rotation_angle() < 1e-12
        assert np.linalg.norm(res.transform.translation) < 1e-12

    def test_recovers_known_transform_from_close_init(self):
        rng = np.random.default_rng(1)
        pts = rng.uniform(-0.05, 0.05, (300, 3))
        t_true = RigidTransform(
            Rotation.from_rotvec([0.15, -0.1, 0.2]).as_matrix(), [0.01, -0.008, 0.012]
        )
        res = icp(PointCloud(pts), PointCloud(t_true.apply(pts)), max_corr_dist=0.02)
        assert np.linalg.norm(res.transform.translation - t_true.translation) < 1e-3
        assert np.degrees(rotation_between(res.transform.rotation, t_true.rotation)) < 0.5

    def test_disjoint_clouds_fail(self):
        rng = np.random.default_rng(2)
        a = PointCloud(rng.uniform(0, 0.01, (30, 3)))
        b = PointCloud(rng.uniform(0, 0.01, (30, 3)) + 5.0)
        with pytest.raises(RegistrationFailureError):
            icp(a, b, max_corr_dist=0.01)

    def test_rmse_history_monotone_nonincreasing(self):
        rng = np.random.default_rng(3)
        pts = rng.uniform(-0.05, 0.05, (250, 3))
        t_true = random_pose(rng, scale=0.01)
        res = icp(PointCloud(pts), PointCloud(t_true.apply(pts)), max_corr_dist=0.03)
        hist = res.rmse_history
        assert all(b <= a + 1e-15 for a, b in zip(hist, hist[1:]))

    def test_input_validation(self):
        cloud = PointCloud([[0, 0, 0], [1, 0, 0]])
        big = PointCloud(np.random.default_rng(4).normal(size=(10, 3)))
        with pytest.raises(InsufficientPointsError):
            icp(cloud, big)
        with pytest.raises(ValueError):
            icp(big, big, max_corr_dist=0.0)

    def test_iterable_unpacking(self):
        rng = np.random.default_rng(5)
        cloud = PointCloud(rng.uniform(-0.05, 0.05, (50, 3)))
        transform, fitness, rmse = icp(cloud, cloud, max_corr_dist=0.01)
        assert fitness == 1.0 and rmse < 1e-12
        assert isinstance(transform, RigidTransform)


class TestFpfh:
    def test_cached_per_cloud_and_read_only(self):
        rng = np.random.default_rng(11)
        cloud = PointCloud(torus_arc(rng, n=300))
        first = fpfh(cloud, 0.025)
        assert fpfh(cloud, 0.025) is first
        assert not first.flags.writeable
        assert first.shape == (300, 33)
        # a fresh cloud over the same points computes the same features
        assert np.array_equal(fpfh(PointCloud(cloud.points), 0.025), first)
        assert fpfh(cloud, 0.02) is not first


class TestCoarseAlign:
    def test_recovered_pose_reaches_high_fitness_after_icp(self):
        rng = np.random.default_rng(6)
        pts = torus_arc(rng, n=350)
        t_true = random_pose(rng)
        source = PointCloud(pts)
        target = PointCloud(t_true.apply(pts))
        init = coarse_align(source, target, leaf=0.005, rng=0)
        res = icp(source, target, init=init, max_corr_dist=0.0075)
        assert res.fitness >= 0.9

    def test_repeated_point_degenerate(self):
        cloud = PointCloud(np.zeros((20, 3)))
        rng = np.random.default_rng(7)
        target = PointCloud(rng.uniform(-0.05, 0.05, (50, 3)))
        with pytest.raises(CoarseFailureError):
            coarse_align(cloud, target, leaf=0.005, rng=0)

    def test_symmetric_cylinder_accepted_on_residual(self):
        # any rotation about the axis is as good: check residual, not pose
        rng = np.random.default_rng(8)
        pts = cylinder(rng, n=350)
        spin = RigidTransform(Rotation.from_euler("z", 113, degrees=True).as_matrix(), np.zeros(3))
        source = PointCloud(pts)
        target = PointCloud(spin.apply(pts))
        init = coarse_align(source, target, leaf=0.005, rng=0)
        res = icp(source, target, init=init, max_corr_dist=0.0075)
        assert res.rmse < 0.005

    def test_seeded_determinism(self):
        rng = np.random.default_rng(9)
        pts = torus_arc(rng, n=250)
        t_true = random_pose(rng)
        source = PointCloud(pts)
        target = PointCloud(t_true.apply(pts))
        a = coarse_align(source, target, leaf=0.005, rng=42)
        b = coarse_align(source, target, leaf=0.005, rng=42)
        assert np.array_equal(a.matrix, b.matrix)

    def test_too_few_points(self):
        small = PointCloud(np.random.default_rng(10).normal(size=(5, 3)))
        with pytest.raises(InsufficientPointsError):
            coarse_align(small, small, leaf=0.005)


class TestRegisterLocal:
    def test_congruent_accepts_with_full_correspondence(self):
        rng = np.random.default_rng(11)
        pts = torus_arc(rng, n=300)
        res = register_local(PointCloud(pts), PointCloud(pts), leaf=0.005, seed=0)
        assert res.correspondences == 300

    def test_partial_part_still_accepted(self):
        rng = np.random.default_rng(12)
        pts = torus_arc(rng, n=400)
        half = pts[pts[:, 0] >= 0]
        t_true = random_pose(rng)
        res = register_local(
            PointCloud(t_true.apply(half)), PointCloud(pts), leaf=0.005, seed=0
        )
        assert res.correspondences > len(half) / 2

    def test_mismatched_part_fails_and_carries_best_attempt(self):
        rng = np.random.default_rng(13)
        body = cylinder(rng, n=160, radius=0.05, height=0.12)
        handle = torus_arc(rng, n=100, major=0.015, minor=0.004)
        with pytest.raises(LocalRegistrationFailureError) as err:
            register_local(PointCloud(body), PointCloud(handle), leaf=0.005, seed=0)
        # diagnostics may be None only if every attempt errored outright
        assert hasattr(err.value, "best_attempt")


class TestOptimizeRotation:
    def test_grid_has_512_candidates_including_identity(self):
        triples, mats = rotation_candidates()
        assert triples.shape == (512, 3)
        assert mats.shape == (512, 3, 3)
        identity_rows = np.all(triples == 0.0, axis=1)
        assert identity_rows.sum() == 1
        assert np.allclose(mats[identity_rows][0], np.eye(3))

    def test_already_aligned_returns_identity(self):
        rng = np.random.default_rng(14)
        o_all = PointCloud(rng.uniform(-0.05, 0.05, (200, 3)))
        t_loc = random_pose(rng)
        m_all = PointCloud(t_loc.apply(o_all.points))
        t_opt = optimize_rotation(o_all, o_all.points[0], m_all, t_loc)
        assert t_opt.rotation_angle() < 1e-12
        assert np.linalg.norm(t_opt.translation) < 1e-12

    def test_recovers_grid_aligned_rotation(self):
        rng = np.random.default_rng(15)
        o_all = PointCloud(rng.uniform(-0.05, 0.05, (200, 3)))
        seed_pt = o_all.points[3]
        true_rot = Rotation.from_euler("z", 90, degrees=True).as_matrix()
        m_pts = (o_all.points - seed_pt) @ true_rot.T + seed_pt
        t_opt = optimize_rotation(o_all, seed_pt, PointCloud(m_pts), RigidTransform.identity())
        assert np.abs(t_opt.apply(o_all.points) - m_pts).max() < 1e-9

    def test_never_worse_than_identity_candidate(self):
        rng = np.random.default_rng(16)
        o_all = PointCloud(rng.uniform(-0.05, 0.05, (150, 3)))
        m_all = PointCloud(rng.uniform(-0.05, 0.05, (150, 3)))
        t_loc = random_pose(rng)
        seed_pt = o_all.points[0]
        t_opt = optimize_rotation(o_all, seed_pt, m_all, t_loc)

        def objective(t):
            moved = t.apply(t_loc.apply(o_all.points))
            d, _ = m_all.tree.query(moved)
            return d.mean()

        assert objective(t_opt) <= objective(RigidTransform.identity()) + 1e-12

    def test_grid_holds_208_distinct_rotations(self):
        _, mats = rotation_candidates()
        keys = [tuple(np.round(m, 9).ravel() + 0.0) for m in mats]
        classes: dict = {}
        for i, key in enumerate(keys):
            classes.setdefault(key, []).append(i)
        sizes = sorted(len(members) for members in classes.values())
        assert len(classes) == 208
        assert sizes == [2] * 192 + [8] * 16
        for members in classes.values():
            assert np.abs(mats[members] - mats[members[0]]).max() < 1e-15
        # the module's partition and representatives are the same
        cls, first = registration._GRID_CLASS, registration._GRID_FIRST
        for members in classes.values():
            assert len(set(cls[members].tolist())) == 1
            assert first[cls[members[0]]] == members[0]

    @staticmethod
    def assert_matches_oracle(o_pts, seed, m_pts, t_loc):
        t_opt = optimize_rotation(PointCloud(o_pts), seed, PointCloud(m_pts), t_loc)
        rot, trans = oracles.rotation_grid_search(o_pts, seed, m_pts, t_loc)
        assert t_opt.rotation.tobytes() == rot.tobytes()
        assert t_opt.translation.tobytes() == trans.tobytes()
        return t_opt

    def test_bitwise_equal_to_full_grid_on_random_clouds(self):
        rng = np.random.default_rng(17)
        _, mats = rotation_candidates()
        for case in range(40):
            o_pts = rng.uniform(-0.05, 0.05, (int(rng.integers(20, 200)), 3))
            if case % 2:
                # template is a grid rotation of the observation, slightly noisy
                seed = o_pts[int(rng.integers(len(o_pts)))]
                rot = mats[int(rng.integers(len(mats)))]
                m_pts = (o_pts - seed) @ rot.T + seed + rng.normal(0, 1e-4, o_pts.shape)
                t_loc = RigidTransform.identity()
            else:
                seed = rng.uniform(-0.05, 0.05, 3)
                m_pts = rng.uniform(-0.05, 0.05, (int(rng.integers(20, 200)), 3))
                t_loc = random_pose(rng)
            self.assert_matches_oracle(o_pts, seed, m_pts, t_loc)

    def test_bitwise_equal_to_full_grid_on_symmetric_clouds(self):
        # rings sampled every 45 degrees about z, and a cubic lattice: many
        # grid rotations map these onto themselves, so classes tie
        angles = np.deg2rad(np.arange(0, 360, 45))
        ring = np.stack([np.cos(angles), np.sin(angles), np.zeros(8)], axis=1)
        cylinder_pts = np.vstack([0.04 * ring + [0, 0, h] for h in (-0.03, 0.0, 0.03)])
        lattice = 0.01 * np.array(
            list(itertools.product((-1.0, 0.0, 1.0), repeat=3))
        )
        shift = RigidTransform(np.eye(3), [0.3, -0.2, 0.1])
        for pts in (cylinder_pts, lattice):
            t_opt = self.assert_matches_oracle(pts, np.zeros(3), pts, RigidTransform.identity())
            assert t_opt.rotation_angle() < 1e-12
            self.assert_matches_oracle(pts, np.zeros(3), shift.apply(pts), shift)

    def test_bitwise_equal_to_full_grid_when_every_point_is_the_seed(self):
        rng = np.random.default_rng(19)
        spot = np.full((30, 3), 0.02)
        m_pts = rng.uniform(-0.05, 0.05, (100, 3))
        for t_loc in (RigidTransform.identity(), random_pose(rng)):
            t_opt = self.assert_matches_oracle(spot, spot[0], m_pts, t_loc)
            # all 512 entries tie, so the first zero-angle (identity) entry wins
            assert np.abs(t_opt.rotation - np.eye(3)).max() < 1e-15


def make_mug_stub(rng, n_body=500, n_handle=260):
    body = cylinder(rng, n=n_body, radius=0.04, height=0.1)
    handle = torus_arc(rng, n=n_handle, major=0.022, minor=0.006)
    handle = handle @ Rotation.from_euler("x", 90, degrees=True).as_matrix().T
    handle = handle + [0.058, 0.0, 0.05]
    full = np.vstack([body, handle])
    return SimpleNamespace(
        id="mug0",
        full_cloud=PointCloud(full),
        parts={"handle": PointCloud(handle), "body": PointCloud(body)},
    )


def recognition_for(template, part_path, observed: PointCloud, members):
    members = np.asarray(members, dtype=np.intp)
    return RecognitionResult(
        part_cloud=observed.select(members),
        seed=observed.points[members[0]].copy(),
        seed_index=int(members[0]),
        members=members,
        part_path=part_path,
        per_template_scores={template.id: 0.0},
        winning_template_for_cluster=template.id,
        mean_score=0.0,
    )


class TestRegister:
    def test_self_registration_quality(self):
        rng = np.random.default_rng(17)
        tpl = make_mug_stub(rng)
        o_all = tpl.full_cloud
        handle_members = np.arange(500, 500 + 260)
        rec = recognition_for(tpl, "handle", o_all, handle_members)
        res = register(o_all, rec, tpl, leaf=0.005, seed=0)
        assert res.fitness >= 0.95
        moved = res.t_total.apply(o_all.points)
        d, _ = tpl.full_cloud.tree.query(moved)
        assert np.median(d) < 0.0025  # half the leaf

    def test_composition_identity(self):
        rng = np.random.default_rng(18)
        tpl = make_mug_stub(rng)
        pose = random_pose(rng)
        o_pts = pose.apply(tpl.full_cloud.points)
        o_all = PointCloud(o_pts)
        handle_members = np.arange(500, 500 + 260)
        rec = recognition_for(tpl, "handle", o_all, handle_members)
        res = register(o_all, rec, tpl, leaf=0.005, seed=0)
        p = rng.uniform(-0.1, 0.1, (40, 3))
        staged = res.t_icp.apply(res.t_opt.apply(res.t_loc.apply(p)))
        assert np.abs(res.t_total.apply(p) - staged).max() < 1e-9

    def test_posed_copy_registers_below_half_leaf(self):
        rng = np.random.default_rng(19)
        tpl = make_mug_stub(rng)
        pose = random_pose(rng)
        o_all = PointCloud(pose.apply(tpl.full_cloud.points))
        rec = recognition_for(tpl, "handle", o_all, np.arange(500, 760))
        res = register(o_all, rec, tpl, leaf=0.005, seed=0)
        moved = res.t_total.apply(o_all.points)
        d, _ = tpl.full_cloud.tree.query(moved)
        assert np.median(d) < 0.0025
        assert res.template_id == "mug0"


class TestBestRegistration:
    def test_argmax_fitness_first_on_ties(self):
        mk = lambda f: SimpleNamespace(fitness=f)
        regs = {"a": mk(0.7), "b": mk(0.9), "c": mk(0.9)}
        assert best_registration(regs) == "b"
        with pytest.raises(RegistrationFailureError):
            best_registration({})
