"""Registration-stage tests: ICP, coarse RANSAC, rotation grid, full stack."""

import dataclasses
import itertools
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from scipy.spatial import cKDTree
from scipy.spatial.transform import Rotation

import oracles
from tog import bench, registration
from tog.errors import (
    CoarseFailureError,
    InsufficientPointsError,
    LocalRegistrationFailureError,
    RegistrationFailureError,
    TogError,
)
from tog.geometry import PointCloud, RigidTransform, apply_transform, fit_rigid
from tog.recognition import RecognitionResult, recognize
from tog.registration import (
    coarse_align,
    fpfh,
    icp,
    optimize_rotation,
    register,
    register_local,
    rotation_candidates,
)
from tog.templates import Template, load_db, save_db

ROOT = Path(__file__).resolve().parent.parent
if str(ROOT) not in sys.path:
    sys.path.insert(0, str(ROOT))  # for perfbench's scene recipes


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


def _posed_pair(points, pose):
    return PointCloud(points), PointCloud(pose.apply(points))


def _random_pair():
    rng = np.random.default_rng(30)
    return _posed_pair(rng.uniform(-0.05, 0.05, (300, 3)), random_pose(rng))


def _symmetric_cylinder_pair():
    # the cylinder of TestCoarseAlign.test_symmetric_cylinder_accepted_on_residual
    pts = cylinder(np.random.default_rng(8), n=350)
    spin = RigidTransform(Rotation.from_euler("z", 113, degrees=True).as_matrix(), np.zeros(3))
    return _posed_pair(pts, spin)


def _repeated_points_pair():
    rng = np.random.default_rng(31)
    pts = np.repeat(torus_arc(rng, n=150), 2, axis=0)
    return _posed_pair(pts, random_pose(rng))


def _single_point_pair():
    target = np.random.default_rng(7).uniform(-0.05, 0.05, (50, 3))
    return PointCloud(np.zeros((20, 3))), PointCloud(target)


def _ten_point_pair():
    rng = np.random.default_rng(32)
    return _posed_pair(rng.uniform(-0.01, 0.01, (10, 3)), random_pose(rng, scale=0.01))


EXACTNESS_CLOUDS = {
    "random": _random_pair,
    "symmetric-cylinder": _symmetric_cylinder_pair,
    "repeated-points": _repeated_points_pair,
    "single-point": _single_point_pair,
    "ten-points": _ten_point_pair,
}


class CountingTree:
    """A kd-tree proxy that counts the points it is asked to query."""

    def __init__(self, tree):
        self.tree, self.points, self.calls = tree, 0, 0

    def query(self, x, *args, **kwargs):
        self.points += len(x)
        self.calls += 1
        return self.tree.query(x, *args, **kwargs)


def nudge(pose, degrees=4.0, shift=0.003):
    """`pose` followed by a small fixed rotation and translation."""
    turn = Rotation.from_rotvec(np.deg2rad(degrees) * np.array([0.6, -0.48, 0.64])).as_matrix()
    return RigidTransform(turn, [shift, -shift, 0.5 * shift]) @ pose


def assert_icp_matches_oracle(source, target, **kwargs):
    """`icp` is bitwise `oracles.icp_requery`, or raises its error; returns the result."""
    try:
        expected = oracles.icp_requery(source, PointCloud(target.points), **kwargs)
    except RegistrationFailureError as exc:
        with pytest.raises(RegistrationFailureError) as info:
            icp(source, target, **kwargs)
        assert str(info.value) == str(exc)
        return None
    got = icp(source, target, **kwargs)
    assert got.transform.rotation.tobytes() == expected.transform.rotation.tobytes()
    assert got.transform.translation.tobytes() == expected.transform.translation.tobytes()
    assert np.array(got.rmse_history).tobytes() == np.array(expected.rmse_history).tobytes()
    assert got.rmse == expected.rmse
    assert (got.correspondences, got.fitness) == (expected.correspondences, expected.fitness)
    return got


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
        assert np.degrees((res.transform.inverse() @ t_true).rotation_angle()) < 0.5

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
        with pytest.raises(ValueError, match="must be positive"):
            icp(big, big, max_corr_dist=float("nan"))

    @pytest.mark.parametrize("max_corr_dist", [0.0075, 0.03])
    @pytest.mark.parametrize("name", sorted(EXACTNESS_CLOUDS))
    def test_bitwise_equal_to_requery_oracle(self, name, max_corr_dist):
        source, target = EXACTNESS_CLOUDS[name]()
        # from the identity, and from near the pose that maps source onto target
        paired = len(source) == len(target)
        true_pose = fit_rigid(source.points, target.points) if paired else RigidTransform.identity()
        for init in (None, nudge(true_pose)):
            assert_icp_matches_oracle(
                source, PointCloud(target.points), init=init, max_corr_dist=max_corr_dist
            )

    def test_bitwise_equal_where_nearest_distances_tie(self):
        # every target point appears twice, so each nearest distance ties
        rng = np.random.default_rng(33)
        pts = torus_arc(rng, n=200)
        target = PointCloud(np.vstack([pts, pts[::-1], pts[:50]]))
        pose = random_pose(rng, scale=0.005)
        res = assert_icp_matches_oracle(PointCloud(pose.apply(pts)), target, max_corr_dist=0.02)
        assert res.fitness == 1.0
        # cell centres of a dyadic lattice are exactly as far from 8 distinct
        # lattice points, where a k = 2 query can order the tie unlike k = 1
        step = 2.0**-6
        lattice = step * np.array(list(itertools.product(range(5), repeat=3)), dtype=float)
        centres = lattice[(lattice < 4 * step).all(axis=1)] + step / 2
        tree = PointCloud(lattice).tree
        assert (tree.query(centres)[1] != tree.query(centres, k=2)[1][:, 0]).any()
        assert_icp_matches_oracle(PointCloud(centres), PointCloud(lattice), max_corr_dist=step)

    def test_bitwise_equal_when_points_cross_the_rejection_distance(self):
        # a 3 cm cube of points, shifted 4 mm along x, with probes beside its
        # x faces: as ICP undoes the shift, the probes beyond +x come within
        # reach of the cube and those beyond -x leave it
        rng = np.random.default_rng(34)
        cube = rng.uniform(0.0, 0.03, (3000, 3))
        side = rng.uniform(0.01, 0.02, (10, 2))
        probes = np.vstack(
            [
                np.column_stack([np.full(10, 0.03 + 0.0055), side]),
                np.column_stack([np.full(10, -0.0085), side]),
            ]
        )
        shift = np.array([0.004, 0.0, 0.0])
        source = PointCloud(np.vstack([cube + shift, probes + shift]))
        target = PointCloud(cube)
        res = assert_icp_matches_oracle(source, target, max_corr_dist=0.0075)
        before = target.tree.query(source.points[-20:])[0] <= 0.0075
        after = target.tree.query(res.transform.apply(source.points[-20:]))[0] <= 0.0075
        assert not before[:10].any() and after[:10].all()
        assert before[10:].all() and not after[10:].any()

    def test_bitwise_equal_far_from_the_origin(self):
        # at +100 m the coordinate scale, not the distances, sets eps
        source, target = _random_pair()
        shift = np.array([100.0, 100.0, 100.0])
        far_source, far_target = PointCloud(source.points + shift), PointCloud(target.points + shift)
        true_pose = fit_rigid(far_source.points, far_target.points)
        for init in (None, nudge(true_pose)):
            assert_icp_matches_oracle(far_source, far_target, init=init, max_corr_dist=0.03)

    def test_bitwise_equal_from_a_large_motion_init(self):
        # a half turn and 30 cm away, with a reach wide enough to pull it back
        source, target = _symmetric_cylinder_pair()
        init = RigidTransform(Rotation.from_rotvec([0.0, 3.0, 0.5]).as_matrix(), [0.3, -0.1, 0.2])
        res = assert_icp_matches_oracle(source, target, init=init, max_corr_dist=0.5)
        assert len(res.rmse_history) > 5

    def test_converging_icp_queries_under_half_its_points(self):
        # two independent samples of one mug, 2 degrees and 2 mm apart: ICP
        # creeps over many passes, and most correspondences hold between them
        source = bench.generate_object("mug", 2000, np.random.default_rng(5))
        target = PointCloud(bench.generate_object("mug", 2000, np.random.default_rng(6)).points)
        counter = CountingTree(target.tree)
        target._tree = counter
        init = nudge(RigidTransform.identity(), degrees=2.0, shift=0.002)
        res = assert_icp_matches_oracle(
            PointCloud(source.points), target, init=init, max_corr_dist=0.015
        )
        passes = len(res.rmse_history)
        assert passes > 10
        assert counter.points < 0.5 * len(source) * passes


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

    @pytest.mark.parametrize("radius", [0.01, 0.025])
    @pytest.mark.parametrize("name", sorted(EXACTNESS_CLOUDS))
    def test_bitwise_equal_to_add_at_oracle(self, name, radius):
        source, _ = EXACTNESS_CLOUDS[name]()
        assert np.array_equal(fpfh(source, radius), oracles.fpfh_add_at(source, radius))

    def test_plane_products_are_numpys(self):
        # the features are bitwise the np.cross / np.einsum form only if
        # these are: on x86-64 einsum sums three terms x, z, then y
        rng = np.random.default_rng(35)
        a, b = rng.normal(size=(2, 10_000, 3))
        assert np.array_equal(registration._cross(a.T, b.T).T, np.cross(a, b))
        assert np.array_equal(registration._dot(a.T, b.T), np.einsum("ij,ij->i", a, b))

    @pytest.mark.parametrize("block", [7, 64])
    def test_bitwise_equal_across_pair_blocks(self, monkeypatch, block):
        # small blocks put pairs of one point on both sides of a block edge
        monkeypatch.setattr(registration, "_PAIR_BLOCK", block)
        for name in ("random", "repeated-points", "ten-points"):
            source, _ = EXACTNESS_CLOUDS[name]()
            for radius in (0.01, 0.025):
                got = fpfh(PointCloud(source.points), radius)
                assert np.array_equal(got, oracles.fpfh_add_at(source, radius))

    def test_peak_memory_below_half_the_oracle(self):
        pts = cylinder(np.random.default_rng(12), n=2000)
        peaks = []
        for compute in (fpfh, oracles.fpfh_add_at):
            cloud = PointCloud(pts)
            tracemalloc.start()
            try:
                compute(cloud, 0.025)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert peaks[0] < 0.5 * peaks[1]

    def test_peak_memory_below_a_quarter_of_the_oracle(self):
        # pair features are held a block at a time, and only their bins kept
        pts = cylinder(np.random.default_rng(12), n=2000)
        peaks = []
        for compute in (fpfh, oracles.fpfh_add_at):
            cloud = PointCloud(pts)
            tracemalloc.start()
            try:
                compute(cloud, 0.025)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert peaks[0] < 0.25 * peaks[1]


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

    @pytest.mark.parametrize("rng", [0, 1, (7, 3)], ids=str)
    @pytest.mark.parametrize("name", sorted(EXACTNESS_CLOUDS))
    def test_bitwise_equal_to_dense_oracle(self, name, rng):
        source, target = EXACTNESS_CLOUDS[name]()
        try:
            expected = oracles.coarse_align_dense(source, target, leaf=0.005, rng=rng)
        except CoarseFailureError as exc:
            with pytest.raises(CoarseFailureError) as info:
                coarse_align(source, target, leaf=0.005, rng=rng)
            assert str(info.value) == str(exc)
            return
        got = coarse_align(source, target, leaf=0.005, rng=rng)
        assert np.array_equal(got.rotation, expected[0])
        assert np.array_equal(got.translation, expected[1])

    def test_descriptor_pairs_computed_once_per_target(self, monkeypatch):
        trees, features = [], []

        def counting_tree(data):
            trees.append(len(data))
            return cKDTree(data)

        def counting_fpfh(cloud, radius):
            features.append(cloud)
            return fpfh(cloud, radius)

        monkeypatch.setattr(registration, "cKDTree", counting_tree)
        monkeypatch.setattr(registration, "fpfh", counting_fpfh)
        source, target = _random_pair()
        other = PointCloud(target.points)
        for rng in range(3):
            registration.coarse_align(source, target, leaf=0.005, rng=rng)
        assert len(trees) == 1
        registration.coarse_align(source, other, leaf=0.005, rng=0)
        registration.coarse_align(source, target, leaf=0.004, rng=0)
        assert len(trees) == 3
        # every attempt still asks for both clouds' descriptors
        assert features == [source, target] * 3 + [source, other, source, target]


def _noisy_torus_pair():
    pts = torus_arc(np.random.default_rng(6), n=350)
    pose = RigidTransform(Rotation.from_rotvec([0.3, -0.2, 0.5]).as_matrix(), [0.01, 0.02, -0.01])
    noise = np.random.default_rng(10).normal(scale=0.002, size=pts.shape)
    return PointCloud(pts), PointCloud(pose.apply(pts) + noise)


def _unrelated_pair():
    return (
        PointCloud(np.random.default_rng(40).uniform(-0.05, 0.05, (300, 3))),
        PointCloud(np.random.default_rng(41).uniform(-0.05, 0.05, (300, 3))),
    )


def _mostly_coincident_pair():
    pts = np.vstack([np.zeros((97, 3)), np.random.default_rng(42).uniform(-0.02, 0.02, (3, 3))])
    return _posed_pair(pts, random_pose(np.random.default_rng(43)))


class TestCoarseAlignGroups:
    """Batches scored a group at a time give the one-batch-at-a-time answer."""

    @staticmethod
    def run(source, target, rng, monkeypatch):
        """Oracle and package results, the oracle's batch trace and the package's draws."""
        draws = []
        make = np.random.default_rng

        class Counting:
            def __init__(self, seed):
                self.gen = make(seed)

            def integers(self, *args, **kwargs):
                out = self.gen.integers(*args, **kwargs)
                draws.append(len(out))
                return out

        def package():
            found = coarse_align(source, target, 0.005, rng)
            return found.rotation, found.translation

        monkeypatch.setattr(np.random, "default_rng", Counting)
        results, trace = [], []
        for align in (
            lambda: oracles.coarse_align_dense(source, target, 0.005, rng, trace=trace),
            package,
        ):
            draws.clear()
            try:
                results.append(align())
            except CoarseFailureError as exc:
                results.append(str(exc))
        assert [batch[0] for batch in trace] == draws[: len(trace)]
        return results, trace, list(draws)

    def assert_same(self, results):
        expected, got = results
        if isinstance(expected, str):
            assert got == expected
        else:
            assert got[0].tobytes() == expected[0].tobytes()
            assert got[1].tobytes() == expected[1].tobytes()

    @pytest.mark.parametrize("cap", [1, 3, 5, 8])
    @pytest.mark.parametrize("rng, stop", [(2, 8), (3, 4)])
    def test_stop_inside_a_group(self, monkeypatch, cap, rng, stop):
        # the sequential rule stops after batch 8 (or 4), inside a group of
        # several batches, except at cap 1 and, for rng 2, at cap 8, where it
        # ends a group; the draws after it are discarded, though with rng 3
        # the next batch holds a better hypothesis
        monkeypatch.setattr(registration, "_GROUP_BATCHES", cap)
        results, trace, draws = self.run(*_noisy_torus_pair(), rng, monkeypatch)
        self.assert_same(results)
        assert len(trace) == stop
        if cap == 1 or (rng, cap) == (2, 8):  # the stop ends a group
            assert len(draws) == stop
        else:
            assert len(draws) > stop
        # batches with and without gate survivors
        assert {survivors > 0 for _, survivors in trace} == {True, False}

    def test_run_to_the_cap(self, monkeypatch):
        results, trace, draws = self.run(*_unrelated_pair(), 0, monkeypatch)
        self.assert_same(results)
        assert not isinstance(results[0], str)
        assert sum(batch[0] for batch in trace) == registration.MAX_RANSAC_HYPOTHESES
        assert trace[-1][0] == 672 and draws == [batch[0] for batch in trace]
        assert {survivors > 0 for _, survivors in trace} == {True, False}

    def test_no_survivors_in_any_batch(self, monkeypatch):
        results, trace, _ = self.run(*_mostly_coincident_pair(), 0, monkeypatch)
        self.assert_same(results)
        assert "no 3-point hypothesis reached 3 inliers" in results[0]
        assert len(trace) == 98 and not any(survivors for _, survivors in trace)

    def test_pairs_at_the_inlier_distance(self, monkeypatch):
        # a lattice at 1.5 leaf spacing matched to itself, with every third
        # source point paired with its neighbour one spacing away: under a
        # right hypothesis those pairs sit at the inlier distance, to rounding
        grid = np.stack(np.meshgrid(np.arange(6), np.arange(6), np.arange(3), indexing="ij"), -1)
        pts = grid.reshape(-1, 3) * (1.5 * 0.005)
        source, target = PointCloud(pts), PointCloud(pts)
        partner = np.arange(len(pts))
        partner[::3] += 1  # (a, b, 0) -> (a, b, 1)
        one_hot = np.eye(len(pts))

        def descriptors(cloud, radius):
            return one_hot[partner] if cloud is source else one_hot

        monkeypatch.setattr(registration, "fpfh", descriptors)
        monkeypatch.setattr(oracles, "fpfh_add_at", descriptors)
        exact_rows = []

        def counting(rot, *args):
            exact_rows.append(len(rot))
            return oracles.dense_inlier_counts(rot, *args)

        monkeypatch.setattr(registration, "_inlier_counts", counting)
        for rng in range(3):
            results, _, _ = self.run(source, target, rng, monkeypatch)
            self.assert_same(results)
        assert sum(exact_rows) > 0  # some hypotheses had bounds that differ


class TestInlierBound:
    """The bounded inlier count against dense counts, with pair distances at the threshold."""

    LEAF = 0.005

    @staticmethod
    def pairs(distances_flipped):
        # source (0, 1, z) pairs with target (d, +-1, z); the identity moves it
        # to distance exactly d when the sign is +, the half turn about z
        # when it is -, and both computations of that distance are exact
        src, tgt = [], []
        for k, (d, flipped) in enumerate(distances_flipped):
            src.append([0.0, 1.0, 0.01 * k])
            tgt.append([d, -1.0 if flipped else 1.0, 0.01 * k])
        return np.array(src), np.array(tgt)

    def check(self, distances_flipped, expected):
        thr = 1.5 * self.LEAF
        src, tgt = self.pairs(distances_flipped)
        rot = np.stack([np.diag([-1.0, -1.0, 1.0]), np.eye(3)])
        trans = np.zeros((2, 3))
        dense = oracles.dense_inlier_counts(rot, trans, src, tgt, thr)
        assert dense.tolist() == expected
        counter = registration._inlier_counter(src, tgt, thr)
        assert counter(rot, trans).tolist() == expected

    @pytest.mark.parametrize("ulps, inlier", [(-1, True), (0, True), (1, False)])
    def test_single_pair_at_the_threshold(self, ulps, inlier):
        thr = 1.5 * self.LEAF
        d = {-1: np.nextafter(thr, 0.0), 0: thr, 1: np.nextafter(thr, 1.0)}[ulps]
        self.check([(d, False)], [0, int(inlier)])

    def test_one_ulp_decides_the_winner(self):
        thr = 1.5 * self.LEAF
        below, above = np.nextafter(thr, 0.0), np.nextafter(thr, 1.0)
        # the half turn holds 3 pairs one ulp outside and 1 one ulp inside,
        # the identity 2 pairs exactly at the threshold
        self.check([(above, True)] * 3 + [(below, True)] + [(thr, False)] * 2, [1, 2])
        # one ulp inward, the half turn's 4 pairs win
        self.check([(below, True)] * 4 + [(thr, False)] * 2, [4, 2])

    def test_pairs_at_the_threshold_outweigh_clear_inliers(self):
        # the matmul form rounds squared distances by far more than an ulp of
        # thr^2, so it alone would miss some of the half turn's 10 inliers
        thr = 1.5 * self.LEAF
        self.check([(np.nextafter(thr, 0.0), True)] * 10 + [(thr / 2, False)] * 9, [10, 9])
        self.check([(thr, True)] * 10 + [(thr / 2, False)] * 9, [10, 9])


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

    def test_mismatched_part_fails_after_every_attempt(self):
        rng = np.random.default_rng(13)
        body = cylinder(rng, n=160, radius=0.05, height=0.12)
        handle = torus_arc(rng, n=100, major=0.015, minor=0.004)
        with pytest.raises(
            LocalRegistrationFailureError,
            match="no attempt exceeded 80 correspondences in 20 tries",
        ):
            register_local(PointCloud(body), PointCloud(handle), leaf=0.005, seed=0)


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

    def test_bitwise_equal_to_full_grid_for_any_point_count(self):
        # fewer points than chunks, and counts that leave the strided chunks uneven
        rng = np.random.default_rng(20)
        _, mats = rotation_candidates()
        for n in (1, 2, 5, 15, 16, 17, 31, 33, 161):
            o_pts = rng.uniform(-0.05, 0.05, (n, 3))
            seed = o_pts[int(rng.integers(n))]
            rot = mats[int(rng.integers(len(mats)))]
            m_pts = (o_pts - seed) @ rot.T + seed + rng.normal(0, 1e-4, o_pts.shape)
            self.assert_matches_oracle(o_pts, seed, m_pts, RigidTransform.identity())
            m_pts = rng.uniform(-0.05, 0.05, (int(rng.integers(10, 80)), 3))
            self.assert_matches_oracle(o_pts, seed, m_pts, random_pose(rng))

    def test_bitwise_equal_to_full_grid_far_from_the_origin(self):
        # at 1e3 m the coordinate scale, not the objective, sets the tolerance
        rng = np.random.default_rng(21)
        _, mats = rotation_candidates()
        offset = np.array([1e3, -1e3, 0.5e3])
        for case in range(6):
            o_pts = rng.uniform(-0.05, 0.05, (200, 3)) + offset
            seed = o_pts[int(rng.integers(len(o_pts)))]
            rot = mats[int(rng.integers(len(mats)))]
            m_pts = (o_pts - seed) @ rot.T + seed + rng.normal(0, 1e-4, o_pts.shape)
            t_loc = RigidTransform.identity()
            if case % 2:
                t_loc = RigidTransform(np.eye(3), -offset)
                m_pts = m_pts - offset
            self.assert_matches_oracle(o_pts, seed, m_pts, t_loc)

    def test_bitwise_equal_when_the_first_chunk_leader_loses(self):
        # the template holds a noisy copy of the cloud under one grid rotation,
        # and an exact copy of chunk 0 (points 0::16) under another: the second
        # leads on chunk 0, the first wins on all points
        rng = np.random.default_rng(22)
        o_pts = rng.uniform(-0.05, 0.05, (320, 3))
        seed = o_pts[5]
        cls, first = registration._GRID_CLASS, registration._GRID_FIRST
        win_rot = registration._GRID_MATS[first[cls[100]]]
        lead_rot = registration._GRID_MATS[first[cls[300]]]
        m_pts = np.vstack(
            [
                (o_pts - seed) @ win_rot.T + seed + rng.normal(0, 1e-3, o_pts.shape),
                (o_pts[::16] - seed) @ lead_rot.T + seed,
            ]
        )
        tree = PointCloud(m_pts).tree
        reps = registration._GRID_MATS[first]
        chunk0 = [tree.query((o_pts[::16] - seed) @ r.T + seed)[0].sum() for r in reps]
        assert np.argmin(chunk0) == cls[300]
        t_opt = self.assert_matches_oracle(o_pts, seed, m_pts, RigidTransform.identity())
        assert np.abs(t_opt.rotation - win_rot).max() < 1e-12

    def test_bitwise_equal_on_a_partial_mug_view(self):
        rng = np.random.default_rng(23)
        pose = bench.desk_pose(rng)
        posed = apply_transform(bench.generate_object("mug", 6000, rng), pose)
        view, _, _ = bench.camera_with_part_visible(posed, "handle", rng)
        view = view.select(np.sort(rng.choice(len(view), 1500, replace=False)))
        assert len(view) == 1500
        template = bench.generate_object("mug", 2000, rng)
        handle = np.flatnonzero(bench.truth_mask(view.labels, "handle"))
        seed = view.points[handle[0]]
        nudge = RigidTransform(Rotation.from_euler("z", 20, degrees=True).as_matrix(), [0.01, 0, 0])
        for t_loc in (pose.inverse(), nudge @ pose.inverse()):
            self.assert_matches_oracle(view.points, seed, template.points, t_loc)

    @staticmethod
    def degenerate_template(kind, rng):
        """A template with zero extent on one axis or more."""
        if kind == "one point":
            return rng.uniform(-0.05, 0.05, (1, 3))
        if kind == "all equal":
            return np.tile(rng.uniform(-0.05, 0.05, 3), (40, 1))
        if kind == "collinear":
            start = rng.uniform(-0.05, 0.05, 3)
            return start + np.outer(rng.uniform(0, 0.1, 60), [1.0, -2.0, 0.5])
        pts = rng.uniform(-0.05, 0.05, (150, 3))  # planar
        pts[:, 2] = 0.01
        return pts

    @pytest.mark.parametrize("kind", ["one point", "all equal", "collinear", "planar", "solid"])
    @pytest.mark.parametrize("offset", [0.0, 1e3])
    def test_field_bound_never_exceeds_the_nearest_distance(self, kind, offset):
        rng = np.random.default_rng(25)
        shift = np.array([offset, -offset, 0.5 * offset])
        if kind == "solid":
            m_pts = np.vstack([cylinder(rng, 300), torus_arc(rng, 200) + [0.05, 0, 0.05]])
        else:
            m_pts = self.degenerate_template(kind, rng)
        m_pts = m_pts + shift
        lo, hi = m_pts.min(axis=0), m_pts.max(axis=0)
        pad = np.maximum(hi - lo, 0.01)
        queries = np.vstack(
            [
                m_pts,  # on the template, so on occupied cells
                rng.uniform(lo, hi, (300, 3)),  # inside the grid
                rng.uniform(lo - pad, hi + pad, (300, 3)),  # mostly around it
                rng.uniform(lo - 1.0, hi + 1.0, (100, 3)),  # far outside
            ]
        )
        field = registration._distance_field(PointCloud(m_pts))
        tree = cKDTree(m_pts)
        scale = 1.0 + np.abs(queries).max()
        # each point as given, then every grid rotation about a template point
        bound = registration._field_bounds(np.eye(3)[None], queries, np.zeros(3), field)[0]
        assert (bound <= tree.query(queries)[0]).all()
        pivot = m_pts[0]
        mats = registration._GRID_MATS[registration._GRID_FIRST]
        bounds = registration._field_bounds(mats, queries - pivot, pivot, field)
        exact = tree.query(np.einsum("mij,nj->mni", mats, queries - pivot) + pivot)[0]
        assert (bounds <= exact + 1e-12 * scale).all()
        assert (bounds > 0).any()
        # and the bound per rotation from point groups, on clouds near and far
        for pts in (queries[len(m_pts) :], m_pts + 0.01):
            exact = tree.query(np.einsum("mij,nj->mni", mats, pts - pivot) + pivot)[0]
            grouped = registration._group_bounds(mats, pts - pivot, pivot, field)
            assert (grouped <= exact.sum(axis=1) + len(pts) * 1e-12 * scale).all()
            assert (grouped > 0).any()

    def test_group_bound_holds_when_a_group_spans_a_gap(self):
        # two tight clusters 6 mm apart share one 1/18-of-a-metre group, whose
        # centroid lies 3 mm from either; only the group radius keeps the bound
        rng = np.random.default_rng(27)
        m_pts = np.vstack([rng.normal(0, 1e-5, (20, 3)) + [x, 0, 0] for x in (-0.003, 0.003)])
        o_pts = np.vstack([m_pts, [[1.0, 0.0, 0.0]]])
        field = registration._distance_field(PointCloud(m_pts))
        mats = registration._GRID_MATS[registration._GRID_FIRST]
        exact = cKDTree(m_pts).query(np.einsum("mij,nj->mni", mats, o_pts - m_pts[0]) + m_pts[0])[0]
        grouped = registration._group_bounds(mats, o_pts - m_pts[0], m_pts[0], field)
        assert (grouped <= exact.sum(axis=1) + 1e-12 * len(o_pts)).all()
        self.assert_matches_oracle(o_pts, m_pts[0], m_pts, RigidTransform.identity())

    @pytest.mark.parametrize("kind", ["one point", "all equal", "collinear", "planar"])
    def test_bitwise_equal_to_full_grid_on_degenerate_templates(self, kind):
        rng = np.random.default_rng(26)
        for case in range(3):
            m_pts = self.degenerate_template(kind, rng)
            o_pts = rng.uniform(-0.05, 0.05, (int(rng.integers(1, 120)), 3))
            seed = o_pts[0] if case else m_pts[0]
            t_loc = random_pose(rng) if case == 2 else RigidTransform.identity()
            self.assert_matches_oracle(o_pts, seed, m_pts, t_loc)
            self.assert_matches_oracle(m_pts, m_pts[-1], m_pts, RigidTransform.identity())

    def test_bound_prunes_most_point_queries(self):
        rng = np.random.default_rng(24)
        o_pts = rng.uniform(-0.05, 0.05, (400, 3))
        rot = Rotation.from_euler("xyz", [0, 90, 45], degrees=True).as_matrix()
        m_all = PointCloud((o_pts - o_pts[0]) @ rot.T + o_pts[0])
        counter = CountingTree(m_all.tree)
        m_all._tree = counter
        t_opt = optimize_rotation(PointCloud(o_pts), o_pts[0], m_all, RigidTransform.identity())
        assert np.abs(t_opt.rotation - rot).max() < 1e-12
        # the field bounds leave only the leader: one query finishes it, one
        # re-scores the other seven grid entries of its rotation (y = 90 degrees)
        assert counter.calls == 2
        assert counter.points == 8 * len(o_pts)


def make_mug_template(rng, n_body=500, n_handle=260, leaf=0.005):
    body = cylinder(rng, n=n_body, radius=0.04, height=0.1)
    handle = torus_arc(rng, n=n_handle, major=0.022, minor=0.006)
    handle = handle @ Rotation.from_euler("x", 90, degrees=True).as_matrix().T
    handle = handle + [0.058, 0.0, 0.05]
    full = np.vstack([body, handle])
    labels = ["body"] * len(body) + ["handle"] * len(handle)
    return Template(
        id="mug0", object_class="mug", full_cloud=PointCloud(full, labels), grasps={}, leaf=leaf
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
        tpl = make_mug_template(rng)
        o_all = tpl.full_cloud
        handle_members = np.arange(500, 500 + 260)
        rec = recognition_for(tpl, "handle", o_all, handle_members)
        res = register(o_all, rec, tpl, seed=0)
        assert res.fitness >= 0.95
        moved = res.t_total.apply(o_all.points)
        d, _ = tpl.full_cloud.tree.query(moved)
        assert np.median(d) < 0.0025  # half the leaf

    def test_composition_identity(self):
        rng = np.random.default_rng(18)
        tpl = make_mug_template(rng)
        pose = random_pose(rng)
        o_pts = pose.apply(tpl.full_cloud.points)
        o_all = PointCloud(o_pts)
        handle_members = np.arange(500, 500 + 260)
        rec = recognition_for(tpl, "handle", o_all, handle_members)
        res = register(o_all, rec, tpl, seed=0)
        p = rng.uniform(-0.1, 0.1, (40, 3))
        staged = res.t_icp.apply(res.t_opt.apply(res.t_loc.apply(p)))
        assert np.abs(res.t_total.apply(p) - staged).max() < 1e-9

    def test_posed_copy_registers_below_half_leaf(self):
        rng = np.random.default_rng(19)
        tpl = make_mug_template(rng)
        pose = random_pose(rng)
        o_all = PointCloud(pose.apply(tpl.full_cloud.points))
        rec = recognition_for(tpl, "handle", o_all, np.arange(500, 760))
        res = register(o_all, rec, tpl, seed=0)
        moved = res.t_total.apply(o_all.points)
        d, _ = tpl.full_cloud.tree.query(moved)
        assert np.median(d) < 0.0025
        assert res.template_id == "mug0"

    def test_registers_at_the_template_leaf(self):
        rng = np.random.default_rng(19)
        tpl = make_mug_template(rng, leaf=0.006)
        body = tpl.full_cloud.points[:500]
        # 16.5 mm off the body, away from the handle: outside the final ICP's
        # reach at leaf 0.005 (15 mm), inside it at 0.006 (18 mm)
        off = body[body[:, 0] < 0][:40] * [1 + 0.0165 / 0.04, 1 + 0.0165 / 0.04, 1]
        o_all = PointCloud(random_pose(rng).apply(np.vstack([tpl.full_cloud.points, off])))
        rec = recognition_for(tpl, "handle", o_all, np.arange(500, 760))
        res = register(o_all, rec, tpl, seed=0)
        # the three stages chained by hand at the template's leaf
        t_loc = register_local(rec.part_cloud, tpl.part("handle"), 0.006, seed=0).transform
        t_opt = optimize_rotation(o_all, rec.seed, tpl.full_cloud, t_loc)
        final = icp(o_all, tpl.full_cloud, init=t_opt @ t_loc, max_corr_dist=3 * 0.006)
        assert res.t_loc.matrix.tobytes() == t_loc.matrix.tobytes()
        assert res.t_total.matrix.tobytes() == final.transform.matrix.tobytes()
        assert (res.fitness, res.rmse) == (final.fitness, final.rmse)


class TestRegisterOnBenchmarkScenes:
    """`register` on a benchmark scene is bitwise what the oracle kernels give."""

    @pytest.mark.parametrize(
        "workload, index",
        [("mug-handle-partial", 0), ("bottle-body-full", 0), ("bottle-cap-partial", 1)],
    )
    def test_bitwise_equal_with_oracle_kernels(self, workload, index, monkeypatch, tmp_path):
        from perfbench.workloads import BY_NAME, make_scene

        spec = BY_NAME[workload]
        scene = make_scene(spec, 1, index).points
        save_db(bench.build_class_templates(spec.object_class, count=3), tmp_path / "db")
        recognition = recognize(
            PointCloud(scene), list(load_db(tmp_path / "db").values()), spec.part_path
        )

        def register_each():
            # fresh clouds and templates, so no descriptor is cached across runs
            templates = load_db(tmp_path / "db")
            rec = dataclasses.replace(
                recognition, part_cloud=PointCloud(recognition.part_cloud.points)
            )
            out = {}
            for i, (tid, template) in enumerate(templates.items()):
                try:
                    out[tid] = register(PointCloud(scene), rec, template, seed=i)
                except TogError as exc:
                    out[tid] = f"{exc.code}: {exc}"
            return out

        fast = register_each()
        assert any(isinstance(r, registration.RegistrationResult) for r in fast.values())
        if workload == "bottle-cap-partial":  # one template retries 20 times, and fails
            assert any(str(r).startswith("local-registration-failure") for r in fast.values())
        monkeypatch.setattr(registration, "icp", oracles.icp_requery)
        monkeypatch.setattr(registration, "fpfh", oracles.fpfh_add_at)
        monkeypatch.setattr(
            registration,
            "coarse_align",
            lambda *args, **kwargs: RigidTransform(*oracles.coarse_align_dense(*args, **kwargs)),
        )
        assert register_each() == fast
