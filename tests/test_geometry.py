"""Point-cloud primitive tests, pinned against independent oracles."""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import oracles
from tog.errors import EmptyCloudError, InsufficientPointsError
from tog.geometry import (
    Aabb,
    PointCloud,
    RigidTransform,
    aabb,
    apply_transform,
    estimate_normals,
    fit_rigid,
    knn,
    knn_indices_batch,
    singular_values_batch,
    voxel_downsample,
)


def random_rotation(rng) -> np.ndarray:
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


def random_transform(rng) -> RigidTransform:
    return RigidTransform(random_rotation(rng), rng.normal(scale=0.3, size=3))


class TestPointCloud:
    def test_points_are_read_only(self):
        cloud = PointCloud([[0, 0, 0], [1, 1, 1]])
        with pytest.raises(ValueError):
            cloud.points[0, 0] = 5.0

    def test_labels_aligned(self):
        cloud = PointCloud([[0, 0, 0], [1, 1, 1]], labels=["a", "b"])
        assert list(cloud.labels) == ["a", "b"]
        with pytest.raises(ValueError):
            PointCloud([[0, 0, 0]], labels=["a", "b"])

    def test_rejects_non_finite(self):
        with pytest.raises(ValueError):
            PointCloud([[0, 0, np.nan]])

    def test_empty_cloud_has_no_tree(self):
        cloud = PointCloud(np.empty((0, 3)))
        assert len(cloud) == 0
        with pytest.raises(EmptyCloudError):
            cloud.tree

    def test_select_carries_labels(self):
        cloud = PointCloud([[0, 0, 0], [1, 0, 0], [2, 0, 0]], labels=["a", "b", "c"])
        sub = cloud.select([2, 0])
        assert list(sub.labels) == ["c", "a"]
        assert np.allclose(sub.points[0], [2, 0, 0])


class TestRigidTransform:
    def test_rejects_reflection(self):
        refl = np.diag([1.0, 1.0, -1.0])
        with pytest.raises(ValueError):
            RigidTransform(refl, np.zeros(3))

    def test_rejects_non_orthonormal(self):
        with pytest.raises(ValueError):
            RigidTransform(np.eye(3) * 1.01, np.zeros(3))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_rejects_non_finite_rotation(self, bad):
        r = np.eye(3)
        r[0, 1] = bad
        with pytest.raises(ValueError), np.errstate(invalid="ignore"):
            RigidTransform(r, np.zeros(3))

    @pytest.mark.parametrize(
        "r",
        [
            np.array([[1.0, 0.5e-8, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0]]),
            np.array([[1.0, 2e-8, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0]]),
            np.diag([1.0 + 4e-6, 1.0 / (1.0 + 4e-6), 1.0]),
            np.diag([1.0 + 6e-6, 1.0 / (1.0 + 6e-6), 1.0]),
        ],
        ids=["shear-inside", "shear-outside", "stretch-inside", "stretch-outside"],
    )
    def test_orthonormality_tolerance_is_allclose(self, r):
        # each determinant is 1 within 1e-8, so only the r.T @ r test decides
        assert abs(np.linalg.det(r) - 1.0) <= 1e-8
        if np.allclose(r.T @ r, np.eye(3), atol=1e-8):
            RigidTransform(r, np.zeros(3))
        else:
            with pytest.raises(ValueError, match="orthonormal"):
                RigidTransform(r, np.zeros(3))

    def test_matrix_round_trip(self):
        rng = np.random.default_rng(0)
        t = random_transform(rng)
        back = RigidTransform.from_matrix(t.matrix)
        assert np.allclose(back.rotation, t.rotation, atol=1e-12)
        assert np.allclose(back.translation, t.translation, atol=1e-12)

    @given(st.integers(0, 10_000))
    @settings(max_examples=30, deadline=None)
    def test_compose_matches_matrix_product(self, seed):
        rng = np.random.default_rng(seed)
        a, b = random_transform(rng), random_transform(rng)
        assert np.allclose((a @ b).matrix, a.matrix @ b.matrix, atol=1e-12)

    @given(st.integers(0, 10_000))
    @settings(max_examples=30, deadline=None)
    def test_inverse_round_trip(self, seed):
        rng = np.random.default_rng(seed)
        t = random_transform(rng)
        p = rng.normal(size=(20, 3))
        assert np.allclose(t.inverse().apply(t.apply(p)), p, atol=1e-9)
        assert np.allclose((t @ t.inverse()).matrix, np.eye(4), atol=1e-9)

    @given(st.integers(0, 10_000))
    @settings(max_examples=30, deadline=None)
    def test_compose_application_order(self, seed):
        # (a @ b)(p) applies b first, then a
        rng = np.random.default_rng(seed)
        a, b = random_transform(rng), random_transform(rng)
        p = rng.normal(size=(5, 3))
        assert np.allclose((a @ b).apply(p), a.apply(b.apply(p)), atol=1e-9)

    def test_rotation_angle(self):
        quarter = RigidTransform(
            np.array([[0.0, -1.0, 0.0], [1.0, 0.0, 0.0], [0.0, 0.0, 1.0]]),
            np.zeros(3),
        )
        assert np.isclose(quarter.rotation_angle(), np.pi / 2)
        assert RigidTransform.identity().rotation_angle() == 0.0


class TestAabb:
    def test_center_and_diagonal(self):
        box = Aabb([0, 0, 0], [2, 4, 4])
        assert np.allclose(box.center, [1, 2, 2])
        assert np.isclose(box.diagonal, 6.0)
        assert np.isclose(box.half_diagonal, 3.0)

    def test_contains_boundary_closed(self):
        box = Aabb([0, 0, 0], [1, 1, 1])
        inside = box.contains([[0, 0, 0], [1, 1, 1], [0.5, 0.5, 0.5], [1.0001, 0, 0]])
        assert inside.tolist() == [True, True, True, False]

    def test_min_le_max_enforced(self):
        with pytest.raises(ValueError):
            Aabb([1, 0, 0], [0, 1, 1])

    def test_aabb_of_cloud(self):
        cloud = PointCloud([[0, -1, 2], [3, 5, -4]])
        box = aabb(cloud)
        assert np.allclose(box.min, [0, -1, -4])
        assert np.allclose(box.max, [3, 5, 2])


class TestVoxelDownsample:
    def test_grid_10mm_cube_at_5mm_leaf(self):
        # 10x10x10 points at 1mm spacing: leaf 5mm splits each axis into
        # cells [0,5)mm and [5,10)mm, so exactly 8 voxels of 125 points
        # whose centroids sit at 2mm / 7mm per axis
        g = np.arange(10) * 0.001
        pts = np.stack(np.meshgrid(g, g, g, indexing="ij"), axis=-1).reshape(-1, 3)
        down = voxel_downsample(PointCloud(pts), 0.005)
        assert len(down) == 8
        expected = {
            (x, y, z)
            for x in (0.002, 0.007)
            for y in (0.002, 0.007)
            for z in (0.002, 0.007)
        }
        got = {tuple(np.round(p, 9)) for p in down.points}
        assert got == expected

    def test_matches_dict_oracle(self):
        rng = np.random.default_rng(7)
        pts = rng.uniform(-0.1, 0.1, size=(500, 3))
        leaf = 0.017
        down = voxel_downsample(PointCloud(pts), leaf)
        ref = oracles.voxel_centroids(pts, leaf)
        assert len(down) == len(ref)
        ref_sorted = [c for _, (c, _) in sorted(ref.items())]
        assert np.allclose(down.points, ref_sorted, atol=1e-12)

    def test_idempotent(self):
        rng = np.random.default_rng(8)
        pts = rng.uniform(0, 0.2, size=(400, 3))
        once = voxel_downsample(PointCloud(pts), 0.01)
        twice = voxel_downsample(once, 0.01)
        assert np.array_equal(once.points, twice.points)

    def test_label_majority_with_lexicographic_tie(self):
        pts = [[0.001, 0, 0], [0.002, 0, 0], [0.003, 0, 0], [0.004, 0, 0]]
        labels = ["b", "b", "a", "a"]  # tie -> "a"
        down = voxel_downsample(PointCloud(pts, labels), 0.01)
        assert len(down) == 1
        assert down.labels[0] == "a"
        labels2 = ["b", "b", "b", "a"]  # majority -> "b"
        down2 = voxel_downsample(PointCloud(pts, labels2), 0.01)
        assert down2.labels[0] == "b"

    def test_empty_and_bad_leaf(self):
        with pytest.raises(EmptyCloudError):
            voxel_downsample(PointCloud(np.empty((0, 3))), 0.01)
        with pytest.raises(ValueError):
            voxel_downsample(PointCloud([[0, 0, 0]]), 0.0)


class TestKnn:
    @given(st.integers(0, 10_000))
    @settings(max_examples=50, deadline=None)
    def test_matches_linear_scan(self, seed):
        rng = np.random.default_rng(seed)
        pts = rng.uniform(-1, 1, size=(60, 3))
        cloud = PointCloud(pts)
        q = rng.uniform(-1, 1, size=3)
        k = int(rng.integers(1, 61))
        assert knn(cloud, q, k) == oracles.knn_linear(pts, q, k)

    def test_exact_tie_breaks_to_smaller_index(self):
        # four points equidistant from the origin
        pts = [[1, 0, 0], [0, 1, 0], [-1, 0, 0], [0, -1, 0], [5, 5, 5]]
        cloud = PointCloud(pts)
        assert knn(cloud, [0, 0, 0], 2) == [0, 1]
        assert knn(cloud, [0, 0, 0], 4) == [0, 1, 2, 3]

    def test_duplicate_points_tie(self):
        pts = [[0.5, 0.5, 0.5]] * 4 + [[2, 2, 2]]
        cloud = PointCloud(pts)
        assert knn(cloud, [0.5, 0.5, 0.5], 3) == [0, 1, 2]

    @pytest.mark.parametrize(
        "pts, query",
        [
            ([[1, 0, 0], [0, 1, 0], [-1, 0, 0], [0, -1, 0], [0, 0, 1], [5, 5, 5]],
             [0, 0, 0]),
            ([[2, 2, 2], [0.5, 0.5, 0.5], [2, 2, 2], [0.5, 0.5, 0.5], [0.5, 0.5, 0.5]],
             [0.5, 0.5, 0.5]),
            ([[0.1, 0.2, 0.3]] * 6, [0, 0, 0]),
            ([[1, 2, 3]], [0, 0, 0]),
        ],
        ids=["equidistant", "duplicates", "all-equal", "single-point"],
    )
    def test_k_equal_to_n_matches_linear_scan(self, pts, query):
        pts = np.asarray(pts, dtype=np.float64)
        n = len(pts)
        assert knn(PointCloud(pts), query, n) == oracles.knn_linear(pts, query, n)

    def test_k_bounds(self):
        cloud = PointCloud([[0, 0, 0], [1, 1, 1]])
        with pytest.raises(InsufficientPointsError):
            knn(cloud, [0, 0, 0], 3)
        with pytest.raises(InsufficientPointsError):
            knn(cloud, [0, 0, 0], 0)

    @given(st.integers(0, 10_000))
    @settings(max_examples=25, deadline=None)
    def test_batch_member_sets_match_single(self, seed):
        rng = np.random.default_rng(seed)
        pts = rng.uniform(-1, 1, size=(50, 3))
        cloud = PointCloud(pts)
        k = int(rng.integers(1, 51))
        batch = knn_indices_batch(cloud, pts, k)
        for i in range(len(pts)):
            assert set(batch[i].tolist()) == set(knn(cloud, pts[i], k))

    def test_batch_repairs_tied_rows(self):
        # queries sit exactly between equidistant points
        pts = np.array(
            [[1, 0, 0], [0, 1, 0], [-1, 0, 0], [0, -1, 0], [3, 3, 3]], float
        )
        cloud = PointCloud(pts)
        batch = knn_indices_batch(cloud, np.zeros((4, 3)), 2)
        for row in batch:
            assert row.tolist() == [0, 1]


def planes(stack) -> np.ndarray:
    """An (m, k, 3) stack of clusters as the (3, m, k) planes the spectra take."""
    return np.asarray(stack, dtype=np.float64).transpose(2, 0, 1)


class TestPca:
    def test_cube_corners_isotropic(self):
        corners = np.array(
            [[x, y, z] for x in (0, 1) for y in (0, 1) for z in (0, 1)], float
        )
        sig = singular_values_batch(planes(corners[None]))[0]
        assert np.allclose(sig, np.sqrt(2.0), atol=1e-12)

    @given(st.integers(0, 10_000))
    @settings(max_examples=40, deadline=None)
    # the draws in 0-10,000 where the square roots of the scatter eigenvalues
    # (oracles.pca_sigma) miss the SVD's smallest value by more than 1e-8;
    # draw 469 is 3 points, which have a zero singular value
    @example(469)
    @example(2857)
    @example(2959)
    @example(3887)
    @example(4358)
    @example(4662)
    @example(5350)
    @example(5405)
    @example(5681)
    @example(6654)
    @example(7715)
    @example(8887)
    def test_matches_eig_oracle_and_descending(self, seed):
        rng = np.random.default_rng(seed)
        pts = rng.normal(size=(rng.integers(3, 80), 3)) * [3.0, 1.0, 0.2]
        sig = singular_values_batch(planes(pts[None]))[0]
        assert np.all(np.diff(sig) <= 1e-12)
        assert np.allclose(sig, oracles.pca_sigma_accurate(pts), atol=1e-8)

    @given(st.integers(0, 10_000))
    @settings(max_examples=30, deadline=None)
    def test_rotation_and_translation_invariant(self, seed):
        rng = np.random.default_rng(seed)
        pts = rng.normal(size=(30, 3))
        t = random_transform(rng)
        a, b = singular_values_batch(planes(np.stack([pts, t.apply(pts)])))
        assert np.allclose(a, b, atol=1e-9)

    def test_planar_clusters_have_zero_smallest_value(self):
        # 3 points, or any number in one plane, span at most a plane: the
        # smallest singular value is zero to rounding of the largest
        rng = np.random.default_rng(0)
        triangles = rng.normal(size=(200, 3, 3))
        axes = np.linalg.qr(rng.normal(size=(200, 3, 3)))[0][:, :, :2]
        flat = rng.normal(size=(200, 40, 2)) * [2.0, 0.5] @ axes.transpose(0, 2, 1)
        for stack in (triangles, flat):
            sig = singular_values_batch(planes(stack))
            assert np.all(sig[:, 2] <= 1e-15 * sig[:, 0])

    @pytest.mark.parametrize("shape", ["random", "planar", "collinear", "three-point"])
    def test_matches_svd_of_centered_points(self, shape):
        # QR-then-SVD of the planes against the SVD of the centered (k, 3)
        # points, to 1e-12 of each cluster's largest value
        rng = np.random.default_rng(1)
        m, k = 60, 500
        offset = rng.normal(scale=10.0, size=(m, 1, 3))
        if shape == "three-point":
            stack = rng.normal(size=(m, 3, 3)) + offset
        else:
            dims = {"random": 3, "planar": 2, "collinear": 1}[shape]
            axes = np.linalg.qr(rng.normal(size=(m, 3, 3)))[0][:, :, :dims]
            coeffs = rng.normal(size=(m, k, dims)) * [3.0, 1.0, 0.2][:dims]
            stack = coeffs @ axes.transpose(0, 2, 1) + offset
        expected = oracles.svd_spectra(stack)
        got = singular_values_batch(planes(stack))
        assert got.shape == expected.shape
        assert np.all(np.abs(got - expected) <= 1e-12 * expected[:, :1])


class TestTransformsOnClouds:
    def test_apply_transform_preserves_labels(self):
        cloud = PointCloud([[0, 0, 0], [1, 0, 0]], labels=["a", "b"])
        rng = np.random.default_rng(3)
        t = random_transform(rng)
        moved = apply_transform(cloud, t)
        assert list(moved.labels) == ["a", "b"]
        assert np.allclose(moved.points, t.apply(cloud.points))


class TestNormals:
    def test_plane_normals_axis_aligned(self):
        rng = np.random.default_rng(11)
        pts = np.zeros((200, 3))
        pts[:, :2] = rng.uniform(-0.1, 0.1, size=(200, 2))
        normals = estimate_normals(PointCloud(pts))
        assert np.allclose(np.abs(normals[:, 2]), 1.0, atol=1e-9)
        assert np.allclose(np.linalg.norm(normals, axis=1), 1.0, atol=1e-12)

    def test_orientation_away_from_reference(self):
        rng = np.random.default_rng(12)
        # points on a sphere: normals should point radially outward
        raw = rng.normal(size=(300, 3))
        pts = raw / np.linalg.norm(raw, axis=1, keepdims=True) * 0.05
        normals = estimate_normals(PointCloud(pts))
        dots = np.einsum("ij,ij->i", normals, pts / np.linalg.norm(pts, axis=1, keepdims=True))
        assert np.all(dots > 0.9)


class TestFitRigid:
    @given(st.integers(0, 10_000))
    @settings(max_examples=40, deadline=None)
    def test_recovers_known_transform(self, seed):
        rng = np.random.default_rng(seed)
        src = rng.normal(size=(25, 3))
        t = random_transform(rng)
        est = fit_rigid(src, t.apply(src))
        assert np.allclose(est.matrix, t.matrix, atol=1e-9)

    def test_proper_rotation_on_noisy_pairs(self):
        rng = np.random.default_rng(9)
        src = rng.normal(size=(40, 3))
        tgt = src[::-1] + rng.normal(scale=0.5, size=(40, 3))
        est = fit_rigid(src, tgt)
        assert np.isclose(np.linalg.det(est.rotation), 1.0, atol=1e-9)
