"""Cluster-metric and part-recognition tests against brute-force oracles."""

import itertools
import sys
import threading
from functools import partial
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from tog import recognition
from tog.errors import (
    DegenerateClusterError,
    DegenerateTemplateError,
    EmptyCloudError,
    InsufficientPointsError,
    RecognitionFailureError,
    SchemaError,
)
from tog.bench import Condition, build_class_templates, make_scene
from tog.geometry import PointCloud, aabb, knn, knn_boundary_ties, squared_distances
from tog.recognition import (
    cluster_size_from_counts,
    d_ccd,
    d_pca,
    d_ppd,
    part_reference_index,
    recognize,
)


def stub_template(tid, whole_pts, part_pts):
    return SimpleNamespace(
        id=tid,
        full_cloud=PointCloud(whole_pts),
        parts={"part": PointCloud(part_pts)},
    )


def random_rotation(rng):
    q = rng.normal(size=4)
    q /= np.linalg.norm(q)
    w, x, y, z = q
    return np.array(
        [
            [1 - 2 * (y * y + z * z), 2 * (x * y - w * z), 2 * (x * z + w * y)],
            [2 * (x * y + w * z), 1 - 2 * (x * x + z * z), 2 * (y * z - w * x)],
            [2 * (x * z - w * y), 2 * (y * z + w * x), 1 - 2 * (x * x + y * y)],
        ]
    )


class TestClusterSize:
    def test_direct_formula_cases(self):
        assert cluster_size_from_counts(1000, 200, 800) == 250
        # part = whole: ratio 1 covers the full observed cloud
        assert cluster_size_from_counts(700, 800, 800) == 700
        # tiny ratio clamps up to the PCA floor
        assert cluster_size_from_counts(100, 1, 1000) == 3

    @given(
        st.integers(3, 5000), st.integers(1, 3000), st.integers(1, 3000)
    )
    @settings(max_examples=200, deadline=None)
    def test_matches_rational_oracle(self, n_obj, n_part, n_all):
        n_part = min(n_part, n_all)
        assert cluster_size_from_counts(n_obj, n_part, n_all) == oracles.cluster_size(
            n_obj, n_part, n_all
        )

    def test_error_cases(self):
        with pytest.raises(DegenerateTemplateError):
            cluster_size_from_counts(100, 10, 0)
        with pytest.raises(DegenerateTemplateError):
            cluster_size_from_counts(100, 0, 10)
        with pytest.raises(InsufficientPointsError):
            cluster_size_from_counts(2, 10, 10)


class TestDPca:
    def test_rigid_copy_is_zero(self):
        rng = np.random.default_rng(1)
        pts = rng.normal(size=(40, 3))
        moved = pts @ random_rotation(rng).T + [0.3, -0.1, 0.2]
        assert d_pca(PointCloud(moved), PointCloud(pts)) < 1e-9

    def test_isotropic_vs_linear(self):
        corners = np.array(
            [[x, y, z] for x in (0, 1) for y in (0, 1) for z in (0, 1)], float
        )
        line = np.stack([np.linspace(0, 1, 10), np.zeros(10), np.zeros(10)], axis=1)
        # unit spectra (1,1,1)/sqrt(3) vs (1,0,0)
        expected = np.sqrt(2.0 - 2.0 / np.sqrt(3.0))
        assert np.isclose(d_pca(PointCloud(corners), PointCloud(line)), expected, atol=1e-12)

    def test_scale_invariant(self):
        rng = np.random.default_rng(2)
        a = rng.normal(size=(30, 3))
        b = rng.normal(size=(25, 3))
        base = d_pca(PointCloud(a), PointCloud(b))
        assert np.isclose(d_pca(PointCloud(a * 7.3), PointCloud(b)), base, atol=1e-9)

    def test_too_few_points(self):
        other = PointCloud(np.random.default_rng(3).normal(size=(5, 3)))
        pair = PointCloud([[0, 0, 0], [1, 1, 1]])
        for args in ((pair, other), (other, pair)):
            with pytest.raises(InsufficientPointsError):
                d_pca(*args)

    def test_coincident_points_degenerate(self):
        blob = PointCloud(np.zeros((5, 3)))
        other = PointCloud(np.random.default_rng(3).normal(size=(5, 3)))
        with pytest.raises(DegenerateClusterError):
            d_pca(blob, other)

    def test_matches_oracle(self):
        rng = np.random.default_rng(4)
        a = rng.normal(size=(50, 3)) * [2, 1, 0.3]
        b = rng.normal(size=(60, 3)) * [1, 1, 1]
        expected = oracles.shape_distance(oracles.pca_sigma(a), oracles.pca_sigma(b))
        assert np.isclose(d_pca(PointCloud(a), PointCloud(b)), expected, atol=1e-8)


class TestDPpd:
    def test_congruent_with_matched_reference_is_zero(self):
        rng = np.random.default_rng(5)
        m = rng.normal(size=(30, 3))
        ref_idx = oracles.nearest_to_aabb_center(m)
        rot = random_rotation(rng)
        o = m @ rot.T + [0.1, 0.2, -0.3]
        seed = o[ref_idx]
        assert d_ppd(PointCloud(o), seed, PointCloud(m)) < 1e-9

    def test_scaled_copies_zero(self):
        rng = np.random.default_rng(6)
        m = rng.normal(size=(25, 3))
        ref_idx = oracles.nearest_to_aabb_center(m)
        o = m * 3.7
        assert d_ppd(PointCloud(o), o[ref_idx], PointCloud(m)) < 1e-9

    def test_l_shape_vs_line_matches_oracle(self):
        xs = np.linspace(0, 1, 8)
        line = np.stack([xs, np.zeros(8), np.zeros(8)], axis=1)
        arm1 = np.stack([np.linspace(0, 1, 4), np.zeros(4), np.zeros(4)], axis=1)
        arm2 = np.stack([np.zeros(4), np.linspace(0.25, 1, 4), np.zeros(4)], axis=1)
        l_shape = np.vstack([arm1, arm2])
        seed_idx = 0
        got = d_ppd(PointCloud(l_shape), l_shape[seed_idx], PointCloud(line))
        ref = oracles.nearest_to_aabb_center(line)
        expected = abs(
            oracles.spread_statistic(l_shape, seed_idx)
            - oracles.spread_statistic(line, ref)
        )
        assert got > 0
        assert np.isclose(got, expected, atol=1e-12)

    def test_equidistant_cluster_degenerate(self):
        # all non-seed points at the same distance from the seed
        o = np.array([[0, 0, 0], [1, 1, 0], [1, -1, 0], [-1, 1, 0], [-1, -1, 0]], float)
        m = np.random.default_rng(7).normal(size=(10, 3))
        with pytest.raises(DegenerateClusterError):
            d_ppd(PointCloud(o), o[0], PointCloud(m))

    def test_seed_copy_keeps_its_zero_distance(self):
        # a copy of the seed is another point: only the seed's own entry goes
        rng = np.random.default_rng(8)
        o = rng.normal(size=(12, 3))
        o[7] = o[3]
        m = rng.normal(size=(20, 3))
        expected = abs(
            oracles.spread_statistic(o, 3)
            - oracles.spread_statistic(m, oracles.nearest_to_aabb_center(m))
        )
        assert np.isclose(d_ppd(PointCloud(o), o[3], PointCloud(m)), expected, atol=1e-12)

    def test_seed_off_the_part_leaves_out_no_point(self):
        rng = np.random.default_rng(9)
        o = rng.normal(size=(12, 3))
        m = rng.normal(size=(20, 3))
        seed = np.array([5.0, 0.0, 0.0])
        expected = abs(
            oracles.spread_statistic(np.vstack([seed, o]), 0)
            - oracles.spread_statistic(m, oracles.nearest_to_aabb_center(m))
        )
        assert np.isclose(d_ppd(PointCloud(o), seed, PointCloud(m)), expected, atol=1e-12)

    def test_reference_point_selection(self):
        pts = np.array([[0, 0, 0], [1, 0, 0], [0.4, 0.1, 0], [0, 1, 0], [1, 1, 0]], float)
        # box center (0.5, 0.5, 0); nearest point is (0.4, 0.1, 0)
        assert part_reference_index(PointCloud(pts)) == 2


class TestDCcd:
    def test_centered_parts_zero(self):
        rng = np.random.default_rng(8)
        o_all = rng.uniform(-1, 1, size=(100, 3))
        m_all = rng.uniform(-2, 2, size=(80, 3))
        # symmetric sub-boxes centered like their wholes
        o_part = o_all[np.abs(o_all).max(axis=1) < 0.4]
        o_part = np.vstack([o_part, -o_part])
        m_part = m_all[np.abs(m_all).max(axis=1) < 0.8]
        m_part = np.vstack([m_part, -m_part])
        got = d_ccd(
            PointCloud(np.vstack([o_all, -o_all])),
            PointCloud(o_part),
            PointCloud(np.vstack([m_all, -m_all])),
            PointCloud(m_part),
        )
        assert got < 1e-9

    def test_identical_copy_zero(self):
        rng = np.random.default_rng(9)
        whole = rng.normal(size=(60, 3))
        part = whole[:15]
        assert d_ccd(PointCloud(whole), PointCloud(part), PointCloud(whole), PointCloud(part)) == 0.0

    def test_rim_vs_center_hand_enumerated(self):
        whole = np.array(
            [[x, y, 0.0] for x in np.linspace(0, 1, 5) for y in np.linspace(0, 1, 5)]
        )
        part_rim = np.array([[0.0, 0.0, 0.0], [0.25, 0.0, 0.0], [0.0, 0.25, 0.0]])
        part_center = np.array([[0.5, 0.5, 0.0], [0.25, 0.5, 0.0], [0.75, 0.5, 0.0]])
        got = d_ccd(
            PointCloud(whole), PointCloud(part_rim), PointCloud(whole), PointCloud(part_center)
        )
        expected = abs(
            oracles.centrality_statistic(part_rim, whole)
            - oracles.centrality_statistic(part_center, whole)
        )
        assert got > 0
        assert np.isclose(got, expected, atol=1e-12)

    def test_empty_part(self):
        whole = PointCloud(np.random.default_rng(11).normal(size=(5, 3)))
        with pytest.raises(EmptyCloudError):
            d_ccd(whole, PointCloud(np.empty((0, 3))), whole, whole)

    def test_single_point_whole_degenerate(self):
        single = PointCloud([[0, 0, 0]])
        other = PointCloud(np.random.default_rng(10).normal(size=(5, 3)))
        with pytest.raises(DegenerateClusterError):
            d_ccd(single, single, other, other)


class TestMetricInvariances:
    @given(st.integers(0, 10_000))
    @settings(max_examples=40, deadline=None)
    def test_rigid_invariance_pca_ppd(self, seed):
        rng = np.random.default_rng(seed)
        o = rng.normal(size=(30, 3))
        m = rng.normal(size=(25, 3))
        rot = random_rotation(rng)
        shift = rng.normal(size=3)
        o2 = o @ rot.T + shift
        s_idx = int(rng.integers(0, 30))
        assert np.isclose(
            d_pca(PointCloud(o), PointCloud(m)), d_pca(PointCloud(o2), PointCloud(m)), atol=1e-6
        )
        assert np.isclose(
            d_ppd(PointCloud(o), o[s_idx], PointCloud(m)),
            d_ppd(PointCloud(o2), o2[s_idx], PointCloud(m)),
            atol=1e-6,
        )

    @given(st.integers(0, 10_000))
    @settings(max_examples=40, deadline=None)
    def test_scale_invariance_all_metrics(self, seed):
        rng = np.random.default_rng(seed)
        whole = rng.normal(size=(50, 3))
        part = whole[:12]
        m_whole = rng.normal(size=(40, 3))
        m_part = m_whole[:10]
        f = float(rng.uniform(0.2, 5.0))
        base = (
            d_pca(PointCloud(part), PointCloud(m_part)),
            d_ppd(PointCloud(part), part[0], PointCloud(m_part)),
            d_ccd(PointCloud(whole), PointCloud(part), PointCloud(m_whole), PointCloud(m_part)),
        )
        scaled = (
            d_pca(PointCloud(part * f), PointCloud(m_part)),
            d_ppd(PointCloud(part * f), part[0] * f, PointCloud(m_part)),
            d_ccd(
                PointCloud(whole * f),
                PointCloud(part * f),
                PointCloud(m_whole),
                PointCloud(m_part),
            ),
        )
        assert np.allclose(base, scaled, atol=1e-6)

    @given(st.integers(0, 10_000))
    @settings(max_examples=40, deadline=None)
    def test_ccd_invariant_under_box_preserving_motions(self, seed):
        # axis-aligned rotations and translations keep box geometry exact
        rng = np.random.default_rng(seed)
        whole = rng.normal(size=(50, 3))
        part = whole[:12]
        m_whole = rng.normal(size=(40, 3))
        m_part = m_whole[:10]
        perm = rng.permutation(3)
        signs = rng.choice([-1.0, 1.0], size=3)
        rot = np.zeros((3, 3))
        rot[np.arange(3), perm] = signs
        if np.linalg.det(rot) < 0:
            rot[:, perm[0]] *= -1
        shift = rng.normal(size=3)
        base = d_ccd(
            PointCloud(whole), PointCloud(part), PointCloud(m_whole), PointCloud(m_part)
        )
        moved = d_ccd(
            PointCloud(whole @ rot.T + shift),
            PointCloud(part @ rot.T + shift),
            PointCloud(m_whole),
            PointCloud(m_part),
        )
        assert np.isclose(base, moved, atol=1e-6)

    def test_ccd_not_invariant_under_generic_rotation(self):
        # boxes are axis-aligned, so a 45-degree rotation changes the score;
        # this pins the contract rather than an accident
        whole = np.array([[0, 0, 0], [1, 0, 0], [0, 1, 0], [0, 0, 1.0]])
        part = np.array([[0, 0, 0], [1, 0, 0], [0.5, 0, 0]])
        c, s = np.cos(np.pi / 4), np.sin(np.pi / 4)
        rot = np.array([[c, -s, 0], [s, c, 0], [0, 0, 1.0]])
        m_whole, m_part = whole, part
        base = d_ccd(PointCloud(whole), PointCloud(part), PointCloud(m_whole), PointCloud(m_part))
        rotated = d_ccd(
            PointCloud(whole @ rot.T),
            PointCloud(part @ rot.T),
            PointCloud(m_whole),
            PointCloud(m_part),
        )
        assert abs(base - rotated) > 1e-3


class TestTemplateStats:
    @pytest.mark.parametrize("object_class", ["mug", "bottle", "scissor"])
    def test_part_scores_zero_against_itself(self, object_class):
        # template parts and scene clusters share one statistics routine, so
        # a part gathered at its reference point matches its own statistics
        bank = build_class_templates(object_class, count=1, n_points=1500)
        tpl = next(iter(bank.values()))
        whole_box = aabb(tpl.full_cloud)
        for path, part in tpl.parts.items():
            stats = recognition._template_stats(tpl.full_cloud, tpl, path)
            gathered = recognition._gather_about(part.points, part_reference_index(part))
            cluster = recognition._cluster_stats(*gathered, [len(part)], whole_box)[0]
            assert recognition._score(cluster, stats).tolist() == [0.0], path


def gather(points, seeds, idx):
    """The (3, m, k) coordinate planes of m clusters' members ``idx`` and their
    (m, k) distances to each row's seed, as the recognition routes read them."""
    dist = [np.sqrt(squared_distances(points[row], seed[None])[0]) for row, seed in zip(idx, seeds)]
    return np.take(points.T, idx, axis=1), np.array(dist)


def gathered(stack):
    """(m, k, 3) clusters, column 0 the seed, as `gather` gives them, nearer others first."""
    stack = np.asarray(stack, dtype=np.float64)
    dist = np.linalg.norm(stack - stack[:, :1], axis=2)
    order = np.hstack([np.zeros((len(stack), 1), int), 1 + np.argsort(dist[:, 1:], axis=1)])
    stack = np.take_along_axis(stack, order[:, :, None], axis=1)
    idx = np.arange(stack.shape[0] * stack.shape[1]).reshape(stack.shape[:2])
    return gather(stack.reshape(-1, 3), stack[:, 0], idx)


def cluster_stack(shape, rng, m=60, k=200):
    """m clusters of one shape, far from the origin, as an (m, k, 3) stack."""
    offset = rng.normal(scale=10.0, size=(m, 1, 3))
    if shape == "three-point":
        return rng.normal(size=(m, 3, 3)) + offset
    if shape == "coincident":
        return np.broadcast_to(offset, (m, k, 3)).copy()
    if shape == "equidistant":  # the seed, and the others at unit distance along the axes
        return np.round(offset) + np.vstack([np.zeros(3), np.eye(3), -np.eye(3)])
    if shape == "repeated":  # each point twice, the seed's copy included
        return np.repeat(cluster_stack("random", rng, m, k // 2), 2, axis=1)
    dims = {"random": 3, "planar": 2, "collinear": 1}[shape]
    axes = np.linalg.qr(rng.normal(size=(m, 3, 3)))[0][:, :, :dims]
    coeffs = rng.normal(size=(m, k, dims)) * [3.0, 1.0, 0.2][:dims]
    return coeffs @ axes.transpose(0, 2, 1) + offset


class TestClusterStats:
    """The running-sum statistics against the earlier QR and two-pass route."""

    BOX = aabb(PointCloud([[-20.0, -30.0, -40.0], [25.0, 35.0, 45.0]]))

    @pytest.mark.parametrize(
        "shape",
        ["random", "planar", "collinear", "three-point", "coincident", "equidistant", "repeated"],
    )
    def test_matches_qr_route(self, shape):
        coords, dist = gathered(cluster_stack(shape, np.random.default_rng(1)))
        k = dist.shape[1]
        got = recognition._cluster_stats(coords, dist, [k], self.BOX)[0]
        want = oracles.cluster_stats_qr(coords, dist, self.BOX)
        if shape == "coincident":
            # shifted to the seed, coincident points are exactly zero; centered
            # on their rounded mean, they keep a spectrum of rounding noise
            assert np.isnan(got[0]).all()
            got, want = got[1:], want[1:]
        for g, w in zip(got, want):
            assert np.array_equal(np.isnan(g), np.isnan(w))
            assert np.all(np.abs(g - w)[~np.isnan(w)] <= 1e-12)
        assert np.array_equal(got[-1], want[-1])  # box extremes are exact
        if shape in ("coincident", "equidistant"):
            assert np.isnan(got[-2]).all()

    @pytest.mark.parametrize("shape", ["planar", "collinear", "three-point"])
    def test_flat_clusters_keep_a_zero_smallest_value(self, shape):
        # sqrt of a scatter eigenvalue near zero carries an error near
        # sqrt(eps) of the largest; these rows must take the QR route
        coords, dist = gathered(cluster_stack(shape, np.random.default_rng(2), m=200))
        sigma_unit = recognition._cluster_stats(coords, dist, [dist.shape[1]], self.BOX)[0][0]
        assert np.all(sigma_unit[:, 2] <= 1e-15 * sigma_unit[:, 0])

    def test_flat_mug_cluster_keeps_a_zero_smallest_value(self):
        # a 173-point cluster on a partial benchmark mug that lies in one
        # plane; its smallest value read from the sums alone is about 1e-8
        from perfbench.workloads import BY_NAME, make_scene

        scene = PointCloud(make_scene(BY_NAME["mug-handle-partial"], 1, 1).points)
        idx = np.array([knn(scene, scene.points[1144], 173)])
        coords, dist = gather(scene.points, scene.points[[1144]], idx)
        sigma_unit = recognition._cluster_stats(coords, dist, [173], aabb(scene))[0][0]
        assert sigma_unit[0, 2] <= 1e-15 * sigma_unit[0, 0]

    def test_every_size_from_one_pass(self):
        # each k's statistics from one walk over the partitioned prefix equal
        # the QR route on that k's members alone
        rng = np.random.default_rng(3)
        pts = rng.uniform(-1, 1, size=(400, 3))
        pts[:100, 2] = 0.25  # a planar patch
        pts[100:140, 1:] = 0.5  # a line
        seeds = pts[::7]
        ks = [3, 4, 37, 38, 150, 399]
        kth = sorted({0, 1} | {k - 1 for k in ks} | {k for k in ks if k < len(pts)})
        d2 = ((pts[None] - seeds[:, None]) ** 2).sum(axis=2)
        idx = np.argpartition(d2, kth, axis=1)[:, : ks[-1]]
        coords, dist = gather(pts, seeds, idx)
        whole = aabb(PointCloud(pts))
        for k, got in zip(ks, recognition._cluster_stats(coords, dist, ks, whole)):
            want = oracles.cluster_stats_qr(coords[:, :, :k], dist[:, :k], whole)
            for g, w in zip(got, want):
                assert np.array_equal(np.isnan(g), np.isnan(w)), k
                assert np.all(np.abs(g - w)[~np.isnan(w)] <= 1e-12), k
            assert np.array_equal(got[2], want[2])


class TestRecognize:
    def test_single_template_part_equals_whole(self):
        rng = np.random.default_rng(12)
        pts = rng.normal(size=(40, 3))
        tpl = stub_template("t", pts, pts)
        o_all = PointCloud(rng.normal(size=(35, 3)))
        res = recognize(o_all, [tpl], "part")
        assert len(res.part_cloud) == 35
        assert set(res.members.tolist()) == set(range(35))

    @pytest.mark.parametrize("seed", [0, 1, 2, 3, 4])
    def test_matches_exhaustive_oracle(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(40, 90))
        o_pts = rng.uniform(-1, 1, size=(n, 3))
        templates = []
        oracle_templates = []
        for j in range(int(rng.integers(1, 4))):
            whole = rng.uniform(-1, 1, size=(int(rng.integers(30, 60)), 3))
            n_part = int(rng.integers(8, 20))
            part = whole[:n_part]
            templates.append(stub_template(f"t{j}", whole, part))
            oracle_templates.append({"whole": whole, "part": part})
        got = recognize(PointCloud(o_pts), templates, "part")
        best, scores = oracles.recognize_exhaustive(o_pts, oracle_templates)
        assert got.seed_index == best
        assert np.isclose(got.mean_score, np.nanmin(scores), atol=1e-9)

    def test_tie_breaks_to_smallest_seed_index(self):
        # two bitwise-identical clusters separated along x: scores tie
        # exactly, so the winner must come from the first cluster
        base = np.array([[0, 0, 0], [1, 0, 0], [0, 2, 0], [0, 0, 3]], float)
        pts = np.vstack([base, base + [8.0, 0.0, 0.0]])
        tpl_whole = np.vstack([base, base + [0, 8.0, 0]])
        tpl = stub_template("t", tpl_whole, base)  # ratio 1/2 -> k = 4
        res = recognize(PointCloud(pts), [tpl], "part")
        assert res.seed_index < 4
        mirror = res.seed_index + 4
        assert res.seed_scores[res.seed_index] == res.seed_scores[mirror]

    def test_per_template_scores_and_winner_fields(self):
        rng = np.random.default_rng(13)
        o_pts = rng.uniform(-1, 1, size=(50, 3))
        t1 = stub_template("a", rng.uniform(-1, 1, (40, 3)), rng.uniform(-1, 1, (10, 3)))
        t2 = stub_template("b", rng.uniform(-1, 1, (40, 3)), rng.uniform(-1, 1, (14, 3)))
        res = recognize(PointCloud(o_pts), [t1, t2], "part")
        assert set(res.per_template_scores) == {"a", "b"}
        assert res.winning_template_for_cluster in {"a", "b"}
        assert np.isclose(
            res.mean_score,
            np.mean([res.per_template_scores["a"], res.per_template_scores["b"]]),
            atol=1e-12,
        )
        assert np.allclose(res.seed, o_pts[res.seed_index])

    def test_no_carrier_template(self):
        rng = np.random.default_rng(14)
        tpl = stub_template("t", rng.normal(size=(30, 3)), rng.normal(size=(10, 3)))
        with pytest.raises(SchemaError):
            recognize(PointCloud(rng.normal(size=(20, 3))), [tpl], "other")

    def test_degenerate_template_rejected(self):
        rng = np.random.default_rng(15)
        tpl = stub_template("t", rng.normal(size=(30, 3)), np.zeros((10, 3)))
        with pytest.raises(DegenerateTemplateError):
            recognize(PointCloud(rng.normal(size=(20, 3))), [tpl], "part")

    def test_all_seeds_degenerate(self):
        # square vertices: every seed's two nearest neighbors sit at exactly
        # sqrt(2), so every dispersion term degenerates
        pts = np.array(
            [[1, 0, 0], [-1, 0, 0], [0, 1, 0], [0, -1, 0]], float
        )
        rng = np.random.default_rng(16)
        whole = rng.normal(size=(100, 3))
        tpl = stub_template("t", whole, whole[:3])  # k clamps to 3
        with pytest.raises((RecognitionFailureError, DegenerateClusterError)):
            recognize(PointCloud(pts), [tpl], "part")

    def test_deterministic_across_runs(self):
        rng = np.random.default_rng(17)
        o_pts = rng.uniform(-1, 1, size=(80, 3))
        tpl = stub_template("t", rng.uniform(-1, 1, (50, 3)), rng.uniform(-1, 1, (12, 3)))
        r1 = recognize(PointCloud(o_pts), [tpl], "part")
        r2 = recognize(PointCloud(o_pts), [tpl], "part")
        assert r1.seed_index == r2.seed_index
        assert np.array_equal(r1.members, r2.members)
        assert r1.mean_score == r2.mean_score


def assert_matches_oracle(o_pts, wholes_parts):
    """recognize() on stub templates agrees seed-for-seed with the oracle."""
    templates = [stub_template(f"t{j}", w, p) for j, (w, p) in enumerate(wholes_parts)]
    got = recognize(PointCloud(o_pts), templates, "part")
    _, scores = oracles.recognize_exhaustive(
        o_pts, [{"whole": w, "part": p} for w, p in wholes_parts]
    )
    nan = np.isnan(scores)
    assert np.array_equal(np.isnan(got.seed_scores), nan)
    assert np.max(np.abs(got.seed_scores[~nan] - scores[~nan])) <= 1e-8
    # symmetric seeds tie to within rounding, so pin the winner's score,
    # not its index
    assert abs(scores[got.seed_index] - np.nanmin(scores)) <= 1e-12
    return got


class TestSharedNeighborQuery:
    """All templates read their clusters from one query per block of seeds."""

    def test_repeated_points(self):
        rng = np.random.default_rng(0)
        pts = rng.uniform(-1, 1, size=(60, 3))
        pts[[5, 12, 20, 33, 41, 50, 58]] = pts[5]  # one point, seven times
        whole = rng.uniform(-1, 1, size=(100, 3))
        got = assert_matches_oracle(pts, [(whole, whole[:5])])  # k = 3
        assert cluster_size_from_counts(60, 5, 100) == 3
        assert np.isnan(got.seed_scores[[5, 12, 20, 33, 41, 50, 58]]).all()

    def test_integer_lattice_ties_repaired_per_k(self):
        # every distance on an integer lattice repeats, so many rows tie at
        # the kth neighbor, at different rows for each k
        grid = np.stack(
            np.meshgrid(np.arange(6), np.arange(5), np.arange(3), indexing="ij"), -1
        ).reshape(-1, 3).astype(float)
        rng = np.random.default_rng(1)
        whole = rng.uniform(-1, 1, size=(90, 3))
        ks = [cluster_size_from_counts(90, 8, 90), cluster_size_from_counts(90, 21, 90)]
        assert ks == [8, 21]
        assert_matches_oracle(grid, [(whole, whole[:8]), (whole, whole[:21])])

    def test_planar_collinear_and_coincident_regions(self):
        # flat clusters take the QR route for their spectra, coincident ones
        # are NaN, and k = 3 clusters are 3-point clusters
        rng = np.random.default_rng(8)
        pts = rng.uniform(-1, 1, size=(160, 3))
        pts[:50, 2] = 0.3  # a planar patch
        pts[50:80, :2] = [0.2, -0.4]  # a line along z
        pts[80:92] = pts[80]  # twelve coincident points
        whole = rng.uniform(-1, 1, size=(160, 3))
        parts = [whole[:3], whole[:16], whole[:40]]
        assert [cluster_size_from_counts(160, len(p), 160) for p in parts] == [3, 16, 40]
        got = assert_matches_oracle(pts, [(whole, p) for p in parts])
        assert np.isnan(got.seed_scores[80:92]).all()

    def test_templates_sharing_one_k(self):
        rng = np.random.default_rng(9)
        pts = rng.uniform(-1, 1, size=(120, 3))
        whole = rng.uniform(-1, 1, size=(60, 3))
        parts = [whole[:12], whole[20:32], whole[40:52]]
        assert cluster_size_from_counts(120, 12, 60) == 24
        got = assert_matches_oracle(pts, [(whole, p) for p in parts])
        assert len(set(got.per_template_scores.values())) == 3

    def test_whole_cloud_template_next_to_small_k(self):
        rng = np.random.default_rng(2)
        o_pts = rng.uniform(-1, 1, size=(50, 3))
        whole = rng.uniform(-1, 1, size=(40, 3))
        got = assert_matches_oracle(o_pts, [(whole, whole), (whole, whole[:6])])
        assert len(got.members) in (50, cluster_size_from_counts(50, 6, 40))

    def test_cloud_spanning_two_blocks(self):
        rng = np.random.default_rng(3)
        o_pts = rng.uniform(-1, 1, size=(700, 3))
        whole = rng.uniform(-1, 1, size=(100, 3))
        # a block holds at most _BLOCK_ENTRIES // n seeds (one CPU), so
        # 700 seeds take more than one block at any CPU count
        assert 700 > recognition._BLOCK_ENTRIES // 700
        assert_matches_oracle(o_pts, [(whole, whole[:60]), (whole, whole[:10])])

    def test_seed_scores_bitwise_equal_for_any_cpu_count(self, monkeypatch):
        rng = np.random.default_rng(4)
        pts = rng.uniform(-1, 1, size=(700, 3))
        pts[::50] = pts[7]  # fourteen copies: rows tied at the kth neighbor in many blocks
        whole = rng.uniform(-1, 1, size=(100, 3))
        templates = [
            stub_template("a", whole, whole[:60]),
            stub_template("b", whole, whole[:10]),
        ]
        assert 700 > recognition._BLOCK_ENTRIES // 700  # several blocks at every count
        runs = []
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)  # switch threads as often as possible
        try:
            for cpus in (1, 2, 7):
                monkeypatch.setattr(
                    recognition.os, "sched_getaffinity", lambda pid, c=cpus: set(range(c))
                )
                # a fresh cloud each time, so no cached state carries over
                runs.append(recognize(PointCloud(pts), templates, "part").seed_scores)
        finally:
            sys.setswitchinterval(interval)
        for scores in runs[1:]:
            assert np.array_equal(scores, runs[0], equal_nan=True)

    @pytest.mark.parametrize("cpu_count", [None, 3])
    def test_cpu_count_where_affinity_is_missing(self, monkeypatch, cpu_count):
        # os.sched_getaffinity exists on Linux only; elsewhere os.cpu_count
        # (None when unknown, then one worker) sizes the pool
        rng = np.random.default_rng(7)
        pts = rng.uniform(-1, 1, size=(700, 3))
        whole = rng.uniform(-1, 1, size=(100, 3))
        templates = [stub_template("a", whole, whole[:60])]
        expected = recognize(PointCloud(pts), templates, "part").seed_scores
        monkeypatch.delattr(recognition.os, "sched_getaffinity")
        monkeypatch.setattr(recognition.os, "cpu_count", lambda: cpu_count)
        got = recognize(PointCloud(pts), templates, "part").seed_scores
        assert np.array_equal(got, expected, equal_nan=True)

    def test_repeated_points_across_a_block_boundary(self, monkeypatch):
        monkeypatch.setattr(recognition.os, "sched_getaffinity", lambda pid: {0})
        block = recognition._BLOCK_ENTRIES // 700  # seeds per block on one CPU
        rng = np.random.default_rng(5)
        pts = rng.uniform(-1, 1, size=(700, 3))
        pts[[block - 2, block - 1, block, block + 1, 3, 690]] = pts[block - 1]
        pts[[block - 3, block + 2]] = pts[block + 2]
        whole = rng.uniform(-1, 1, size=(700, 3))
        got = assert_matches_oracle(pts, [(whole, whole[:3]), (whole, whole[:12])])  # k = 3, 12
        assert np.isnan(got.seed_scores[[block - 2, block - 1, block, block + 1]]).all()

    def test_no_pool_thread_outlives_the_call(self, monkeypatch):
        monkeypatch.setattr(recognition.os, "sched_getaffinity", lambda pid: {0, 1})
        rng = np.random.default_rng(6)
        whole = rng.uniform(-1, 1, size=(100, 3))
        before = threading.active_count()
        o_all = PointCloud(rng.uniform(-1, 1, size=(700, 3)))
        recognize(o_all, [stub_template("t", whole, whole[:20])], "part")
        assert threading.active_count() == before


@pytest.fixture
def routes(monkeypatch):
    """Counts of the blocks each route scores."""
    calls = {"near": 0, "far": 0}

    def counted(name, route):
        def wrapped(*args, **kwargs):
            calls[name] += 1
            return route(*args, **kwargs)

        return wrapped

    monkeypatch.setattr(recognition, "_near_block", counted("near", recognition._near_block))
    monkeypatch.setattr(recognition, "_far_block", counted("far", recognition._far_block))
    return calls


class TestFarSide:
    """Clusters of most of the cloud, read as the whole cloud minus the far side."""

    @pytest.mark.parametrize("fraction", [0.6, 0.92, 1.0])
    def test_part_fraction(self, routes, fraction):
        rng = np.random.default_rng(20)
        pts = rng.uniform(-1, 1, size=(150, 3)) * [2.0, 1.0, 0.5]
        whole = rng.uniform(-1, 1, size=(100, 3))
        k = cluster_size_from_counts(150, round(100 * fraction), 100)
        assert k == round(150 * fraction)  # 90, 138 and 150: an empty far side
        assert_matches_oracle(pts, [(whole, whole[: round(100 * fraction)])])
        assert routes == {"near": 0, "far": 1}

    @pytest.mark.parametrize(
        "fractions, route", [((0.3, 0.6), "near"), ((0.4, 0.7), "far")]
    )
    def test_ks_straddling_half(self, routes, fractions, route):
        # ks 48, 96 (near: 96 < 160 - 48) and 64, 112 (far: 112 >= 160 - 64)
        rng = np.random.default_rng(21)
        pts = rng.uniform(-1, 1, size=(160, 3))
        whole = rng.uniform(-1, 1, size=(100, 3))
        assert_matches_oracle(pts, [(whole, whole[: round(100 * f)]) for f in fractions])
        assert routes[route] == 1 and sum(routes.values()) == 1

    def test_integer_lattice_ties_at_the_far_boundary(self, routes):
        grid = np.stack(
            np.meshgrid(np.arange(6), np.arange(5), np.arange(3), indexing="ij"), -1
        ).reshape(-1, 3).astype(float)
        d = np.sort(np.linalg.norm(grid[:, None] - grid[None], axis=2), axis=1)
        for k in (50, 70):
            assert knn_boundary_ties(d[:, k - 1], d[:, k]).sum() > 10
        whole = np.random.default_rng(22).uniform(-1, 1, size=(90, 3))
        assert_matches_oracle(grid, [(whole, whole[:50]), (whole, whole[:70])])
        assert routes == {"near": 0, "far": 1}

    def test_repeated_points(self, routes):
        rng = np.random.default_rng(23)
        pts = np.repeat(rng.uniform(-1, 1, size=(40, 3)), 3, axis=0)  # each point thrice
        whole = rng.uniform(-1, 1, size=(100, 3))
        assert_matches_oracle(pts, [(whole, whole[:75])])  # k = 90 of 120
        assert routes == {"near": 0, "far": 1}

    def test_cloud_far_from_the_origin(self, routes):
        rng = np.random.default_rng(24)
        pts = rng.uniform(-1, 1, size=(150, 3)) * [0.2, 0.1, 0.05] + [1000.0, -1000.0, 1000.0]
        whole = rng.uniform(-1, 1, size=(100, 3))
        assert_matches_oracle(pts, [(whole, whole[:80]), (whole, whole[:90])])
        assert routes == {"near": 0, "far": 1}

    def test_planar_slab_takes_the_near_fallback(self, routes, monkeypatch):
        # every cluster is flat, so no row's spectrum can be certified from
        # the subtracted sums; each goes through `_cluster_stats`
        rng = np.random.default_rng(25)
        pts = rng.uniform(-1, 1, size=(150, 3)) * [3.0, 1.0, 0.0] @ random_rotation(rng).T
        whole = rng.uniform(-1, 1, size=(100, 3))
        gathered_rows = []
        cluster_stats = recognition._cluster_stats

        def counted(coords, *rest):
            gathered_rows.append(coords.shape[1])
            return cluster_stats(coords, *rest)

        monkeypatch.setattr(recognition, "_cluster_stats", counted)
        assert_matches_oracle(pts, [(whole, whole[:80])])
        assert routes == {"near": 0, "far": 1}
        assert sum(gathered_rows) >= 150

    def test_equidistant_cluster_keeps_its_nan(self, routes):
        # the origin and the 30 integer points at distance 3 from it: the
        # origin's 31 members are all at one distance, so its spread is NaN,
        # which the subtracted distance sums alone would miss
        shell = np.array(
            [v for v in itertools.product(range(-3, 4), repeat=3) if np.dot(v, v) == 9], float
        )
        assert len(shell) == 30
        rng = np.random.default_rng(27)
        pts = np.vstack([np.zeros(3), shell, rng.uniform(5, 8, size=(14, 3))])
        whole = rng.uniform(-1, 1, size=(45, 3))
        got = assert_matches_oracle(pts, [(whole, whole[:31])])
        assert np.isnan(got.seed_scores[0]) and routes == {"near": 0, "far": 1}

    def test_one_seed_last_block(self, routes, monkeypatch):
        monkeypatch.setattr(recognition.os, "sched_getaffinity", lambda pid: {0})
        monkeypatch.setattr(recognition, "_BLOCK_ENTRIES", 10 * 121)  # 10 seeds a block
        rng = np.random.default_rng(26)
        pts = rng.uniform(-1, 1, size=(121, 3))
        whole = rng.uniform(-1, 1, size=(100, 3))
        assert_matches_oracle(pts, [(whole, whole[:80])])
        assert routes == {"near": 0, "far": 13}

    def test_routes_agree_on_a_bottle_body(self):
        condition = Condition("body", "bottle", "body", n_points=2000, partial=False)
        o_all = make_scene(condition, np.random.default_rng(np.random.SeedSequence((2, 0))))
        o_all = PointCloud(o_all.points)
        bank = build_class_templates("bottle", count=3, n_points=2000)
        stats = [recognition._template_stats(o_all, t, "body") for t in bank.values()]
        n, ks = len(o_all), sorted(s.k for s in stats)
        assert ks[-1] >= n - ks[0]  # the rule picks the far route
        far = partial(recognition._far_block, whole=recognition._whole_sums(o_all.points))
        scores = {}
        for name, route in (("near", recognition._near_block), ("far", far)):
            scores[name] = np.vstack(
                [
                    recognition._block_scores(
                        o_all, stats, np.arange(i, min(i + 250, n)), route,
                        recognition._scene(o_all, stats),
                    )
                    for i in range(0, n, 250)
                ]
            )
        nan = np.isnan(scores["near"])
        assert np.array_equal(np.isnan(scores["far"]), nan) and not nan.all()
        assert np.max(np.abs(scores["far"] - scores["near"])[~nan]) <= 1e-12
        winners = {}
        for name, matrix in scores.items():
            seed_scores = matrix.mean(axis=1)
            winner = int(np.nanargmin(seed_scores))
            k = stats[int(np.argmin(matrix[winner]))].k
            winners[name] = (winner, knn(o_all, o_all.points[winner], k))
        assert winners["far"] == winners["near"]


def _bench_case(condition, seed, object_class, n_points=None):
    scene = make_scene(condition, np.random.default_rng(np.random.SeedSequence(seed)))
    o_all = PointCloud(scene.points)
    sizes = {} if n_points is None else {"n_points": n_points}
    bank = build_class_templates(object_class, count=3, **sizes)
    ks = [recognition._template_stats(o_all, t, condition.part_path).k for t in bank.values()]
    return o_all.points, ks


def _lattice_case():
    grid = np.stack(
        np.meshgrid(np.arange(6), np.arange(5), np.arange(3), indexing="ij"), -1
    ).reshape(-1, 3).astype(float)
    d = np.sort(np.linalg.norm(grid[:, None] - grid[None], axis=2), axis=1)
    for k in (10, 50, 70):
        assert knn_boundary_ties(d[:, k - 1], d[:, k]).sum() > 10
    return grid, [10, 50, 70]


def _repeated_case():
    rng = np.random.default_rng(28)
    pts = rng.uniform(-1, 1, size=(60, 3))
    return np.vstack([pts, np.repeat(pts[:1], 30, axis=0)]), [10, 20]  # 31 copies > k_max + 1


class TestSelection:
    """Each route's `_select` leaves every order statistic where the route reads it."""

    CASES = {
        "bottle-body": lambda: _bench_case(
            Condition("body", "bottle", "body", n_points=2000, partial=False),
            (2, 0),
            "bottle",
            2000,
        ),
        "mug-view": lambda: _bench_case(
            Condition("mug-handle-partial", "mug", "handle", n_points=1500), (1, 0, 0), "mug"
        ),
        "lattice": _lattice_case,
        "repeated-point": _repeated_case,
    }

    @pytest.mark.parametrize("case", sorted(CASES))
    def test_order_statistics_in_place(self, case, monkeypatch):
        points, ks = self.CASES[case]()
        n = len(points)
        scene = recognition._scene(PointCloud(points), [SimpleNamespace(k=k) for k in ks])
        if case == "bottle-body":
            assert max(ks) >= n - min(ks)  # the far route's scenes
        if case == "mug-view":
            assert max(ks) < n - min(ks)  # the near route's
        selections, nearest = [], []
        select, certified_spread = recognition._select, recognition._certified_spread

        def recorded_select(*args):
            idx, side_d2 = select(*args)
            selections.append((idx.copy(), side_d2.copy()))  # the near route takes roots in place
            return idx, side_d2

        def recorded_spread(mean, var, nearest_other, *rest):
            nearest.append(nearest_other)
            return certified_spread(mean, var, nearest_other, *rest)

        monkeypatch.setattr(recognition, "_select", recorded_select)
        monkeypatch.setattr(recognition, "_certified_spread", recorded_spread)
        routes = {
            "near": recognition._near_block,
            "far": partial(recognition._far_block, whole=recognition._whole_sums(points)),
        }
        for start in range(0, n, 250):
            own = np.arange(start, min(start + 250, n))
            d2 = squared_distances(points, points[own])
            ordered = np.sort(d2, axis=1)
            for name, route in routes.items():
                selections.clear()
                nearest.clear()
                side_dist, side_start, _ = route(points, own, d2, scene)
                [(idx, side_d2)] = selections
                assert np.array_equal(side_d2, np.take_along_axis(d2, idx, axis=1))
                assert np.array_equal(side_dist, np.sqrt(side_d2))  # what the tie test reads
                if name == "near":
                    assert side_start == 0
                    assert np.array_equal(side_d2[:, 0], np.zeros(len(own)))
                    assert np.array_equal(side_d2[:, 1], ordered[:, 1])
                else:
                    assert side_start == min(ks) - 1
                # both routes hand the nearest other distance of every row,
                # the second order statistic, to the spread
                whole_block = [v for v in nearest if v.shape == (len(own),)]
                assert len(whole_block) >= len(set(ks))
                for nearest_other in whole_block:
                    assert np.array_equal(nearest_other, np.sqrt(ordered[:, 1]))
                for k in sorted(set(ks)):
                    at = [k - 1, k] if k < n else [k - 1]
                    assert np.array_equal(side_d2[:, np.subtract(at, side_start)], ordered[:, at])
                    if name == "near":  # the k nearest before column k
                        members = np.zeros(d2.shape, bool)
                        np.put_along_axis(members, idx[:, :k], True, axis=1)
                    else:  # all but the far side from column k on
                        members = np.ones(d2.shape, bool)
                        np.put_along_axis(members, idx[:, k - side_start :], False, axis=1)
                    untied = ordered[:, k - 1] < ordered[:, k] if k < n else np.ones(len(own), bool)
                    nearest_k = d2 <= ordered[:, k - 1 : k]
                    assert np.array_equal(members[untied], nearest_k[untied]), (name, k)

    def test_far_block_leaves_d2_as_it_was(self):
        # `_block_scores` repairs tied rows from d2 after the route has run
        points, ks = _repeated_case()
        scene = recognition._scene(PointCloud(points), [SimpleNamespace(k=k) for k in ks])
        d2 = squared_distances(points, points)
        before = d2.copy()
        own = np.arange(len(points))
        recognition._far_block(points, own, d2, scene, recognition._whole_sums(points))
        assert np.array_equal(d2, before)


class TestNoKdTree:
    """Recognition reads every neighbour, tie repairs included, from its own d2."""

    CASES = {
        "bottle-body": lambda: _bench_case(
            Condition("body", "bottle", "body", n_points=300, partial=False),
            (2, 0),
            "bottle",
            300,
        ),
        "mug-view": lambda: _bench_case(
            Condition("mug-handle-partial", "mug", "handle", n_points=300), (1, 0, 0), "mug"
        ),
        "lattice": _lattice_case,
    }

    @pytest.mark.parametrize("case", sorted(CASES))
    def test_recognize_without_a_kd_tree(self, case, routes, monkeypatch):
        points, ks = self.CASES[case]()
        n = len(points)

        def no_tree(cloud):
            raise AssertionError("recognition queried a kd-tree")

        monkeypatch.setattr(PointCloud, "tree", property(no_tree))
        whole = np.random.default_rng(29).uniform(-1, 1, size=(n, 3))
        assert_matches_oracle(points, [(whole, whole[:k]) for k in ks])  # the same ks
        route = "far" if case == "bottle-body" else "near"
        assert routes[route] > 0 and sum(routes.values()) == routes[route]
