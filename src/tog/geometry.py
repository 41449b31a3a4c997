"""Point-cloud primitives shared by the whole engine.

Clouds are immutable after construction (their backing arrays are marked
read-only; the kd-tree and other derived data are built once, lazily);
every operation here is a pure function, so recognition and registration
can fan out over threads without locking. Units are meters throughout.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.spatial import cKDTree

from .errors import EmptyCloudError, InsufficientPointsError

_ORTHONORMAL_TOL = 1e-9
_EYE3 = np.eye(3)


class PointCloud:
    """An ordered set of 3D points with optional per-point part labels.

    :param points: (n, 3) array-like of xyz coordinates in meters.
    :param labels: optional sequence of n part-name strings, aligned
        index-for-index with ``points``.
    """

    __slots__ = ("points", "labels", "_tree", "_derived")

    def __init__(self, points, labels=None):
        pts = np.asarray(points, dtype=np.float64)
        if pts.size == 0:
            pts = pts.reshape(0, 3)
        if pts.ndim != 2 or pts.shape[1] != 3:
            raise ValueError(f"points must be (n, 3), got {pts.shape}")
        if not np.isfinite(pts).all():
            raise ValueError("points must be finite")
        pts = np.ascontiguousarray(pts)
        pts.setflags(write=False)
        self.points = pts
        if labels is not None:
            lab = np.asarray(labels, dtype=np.str_)
            if lab.shape != (len(pts),):
                raise ValueError(
                    f"labels length {lab.shape} does not match {len(pts)} points"
                )
            lab.setflags(write=False)
            self.labels = lab
        else:
            self.labels = None
        self._tree = None
        self._derived = {}

    def __len__(self) -> int:
        return len(self.points)

    def __repr__(self) -> str:
        tag = " labeled" if self.labels is not None else ""
        return f"PointCloud({len(self)} points{tag})"

    @property
    def tree(self) -> cKDTree:
        """kd-tree over the points, built on first use and cached."""
        if self._tree is None:
            if len(self) == 0:
                raise EmptyCloudError("cannot build a kd-tree over an empty cloud")
            self._tree = cKDTree(self.points)
        return self._tree

    def derived(self, key, compute):
        """`compute()` cached under `key`, for values of the points alone."""
        if key not in self._derived:
            self._derived[key] = compute()
        return self._derived[key]

    def select(self, indices) -> "PointCloud":
        """Sub-cloud at the given indices (labels follow along)."""
        idx = np.asarray(indices, dtype=np.intp)
        lab = self.labels[idx] if self.labels is not None else None
        return PointCloud(self.points[idx], lab)


@dataclass(frozen=True)
class Aabb:
    """Axis-aligned bounding box with componentwise min <= max."""

    min: np.ndarray
    max: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "min", np.asarray(self.min, dtype=np.float64))
        object.__setattr__(self, "max", np.asarray(self.max, dtype=np.float64))
        if np.any(self.min > self.max):
            raise ValueError("Aabb requires min <= max componentwise")

    @property
    def center(self) -> np.ndarray:
        return 0.5 * (self.min + self.max)

    @property
    def diagonal(self) -> float:
        return float(np.linalg.norm(self.max - self.min))

    @property
    def half_diagonal(self) -> float:
        return 0.5 * self.diagonal

    def contains(self, points) -> np.ndarray:
        """Closed-box membership mask (boundary counts as inside)."""
        p = np.atleast_2d(np.asarray(points, dtype=np.float64))
        return np.all((p >= self.min) & (p <= self.max), axis=1)


class RigidTransform:
    """SE(3) pose: p' = R @ p + t, acting on column points from the left.

    The rotation must be right-handed orthonormal; this is checked at
    construction so downstream compositions can trust the invariant.
    """

    __slots__ = ("rotation", "translation")

    def __init__(self, rotation, translation):
        r = np.asarray(rotation, dtype=np.float64)
        t = np.asarray(translation, dtype=np.float64).reshape(3)
        if r.shape != (3, 3):
            raise ValueError(f"rotation must be 3x3, got {r.shape}")
        if abs(np.linalg.det(r) - 1.0) > _ORTHONORMAL_TOL * 10:
            raise ValueError("rotation determinant must be +1")
        # np.allclose's test (default rtol), without its overhead; false for NaN and inf
        if not (np.abs(r.T @ r - _EYE3) <= _ORTHONORMAL_TOL * 10 + 1e-5 * _EYE3).all():
            raise ValueError("rotation must be orthonormal")
        r = np.ascontiguousarray(r)
        r.setflags(write=False)
        t.setflags(write=False)
        self.rotation = r
        self.translation = t

    @classmethod
    def identity(cls) -> "RigidTransform":
        return cls(np.eye(3), np.zeros(3))

    @classmethod
    def from_matrix(cls, mat) -> "RigidTransform":
        m = np.asarray(mat, dtype=np.float64)
        if m.shape != (4, 4):
            raise ValueError(f"expected 4x4 matrix, got {m.shape}")
        return cls(m[:3, :3], m[:3, 3])

    @property
    def matrix(self) -> np.ndarray:
        m = np.eye(4)
        m[:3, :3] = self.rotation
        m[:3, 3] = self.translation
        return m

    def apply(self, points) -> np.ndarray:
        """Transform an (n, 3) array (or a single point) of coordinates."""
        p = np.asarray(points, dtype=np.float64)
        return p @ self.rotation.T + self.translation

    def inverse(self) -> "RigidTransform":
        rt = self.rotation.T
        return RigidTransform(rt, -rt @ self.translation)

    def compose(self, other: "RigidTransform") -> "RigidTransform":
        """self after other: (self @ other)(p) = self(other(p))."""
        return RigidTransform(
            self.rotation @ other.rotation,
            self.rotation @ other.translation + self.translation,
        )

    def __matmul__(self, other: "RigidTransform") -> "RigidTransform":
        return self.compose(other)

    def __eq__(self, other):
        return isinstance(other, RigidTransform) and np.array_equal(self.matrix, other.matrix)

    def __hash__(self):
        return hash(tuple(self.matrix.ravel().tolist()))

    def rotation_angle(self) -> float:
        """Magnitude of the rotation, in radians."""
        c = np.clip((np.trace(self.rotation) - 1.0) / 2.0, -1.0, 1.0)
        return float(np.arccos(c))

    def __repr__(self) -> str:
        return f"RigidTransform(angle={np.degrees(self.rotation_angle()):.1f}deg, t={self.translation})"


def aabb(cloud: PointCloud) -> Aabb:
    """Componentwise min/max box of all points."""
    if len(cloud) == 0:
        raise EmptyCloudError("aabb of an empty cloud")
    return Aabb(cloud.points.min(axis=0), cloud.points.max(axis=0))


def apply_transform(cloud: PointCloud, t: RigidTransform) -> PointCloud:
    """Rigidly move a cloud; labels are preserved."""
    return PointCloud(t.apply(cloud.points), cloud.labels)


def voxel_downsample(cloud: PointCloud, leaf: float) -> PointCloud:
    """Voxel-grid filter: one centroid per occupied cubic voxel of size ``leaf``.

    Labels, when present, propagate by majority vote within each voxel
    (lexicographically smallest label wins ties). Output order follows the
    lexicographic order of voxel keys, which makes the filter deterministic
    and idempotent at a fixed leaf size.
    """
    if leaf <= 0:
        raise ValueError("leaf must be positive")
    if len(cloud) == 0:
        raise EmptyCloudError("cannot downsample an empty cloud")
    keys = np.floor(cloud.points / leaf).astype(np.int64)
    uniq, inverse = np.unique(keys, axis=0, return_inverse=True)
    n_vox = len(uniq)
    sums = np.zeros((n_vox, 3))
    np.add.at(sums, inverse, cloud.points)
    counts = np.bincount(inverse, minlength=n_vox).astype(np.float64)
    centroids = sums / counts[:, None]

    labels = None
    if cloud.labels is not None:
        label_names, label_ids = np.unique(cloud.labels, return_inverse=True)
        # per-voxel histogram over label ids; argmax returns the smallest
        # label id on ties, i.e. the lexicographically smallest name
        hist = np.zeros((n_vox, len(label_names)), dtype=np.int64)
        np.add.at(hist, (inverse, label_ids), 1)
        labels = label_names[hist.argmax(axis=1)]
    return PointCloud(centroids, labels)


def knn(cloud: PointCloud, query, k: int) -> list[int]:
    """Indices of the k nearest cloud points to ``query``.

    Sorted ascending by distance; exact distance ties break toward the
    smaller index so results are reproducible across platforms.
    """
    n = len(cloud)
    if n == 0:
        raise EmptyCloudError("knn on an empty cloud")
    if k < 1 or k > n:
        raise InsufficientPointsError(f"k={k} outside [1, {n}]")
    q = np.asarray(query, dtype=np.float64).reshape(3)
    d, _ = cloud.tree.query(q, k=k)
    kth = float(np.atleast_1d(d)[-1])
    # re-rank every candidate within the kth radius in numpy so the
    # (distance, index) order is exact, not subject to tree internals
    cand = cloud.tree.query_ball_point(q, kth * (1 + 1e-12) + 1e-300)
    cand = np.asarray(cand, dtype=np.intp)
    diff = cloud.points[cand] - q
    d2 = np.einsum("ij,ij->i", diff, diff)
    order = np.lexsort((cand, d2))
    return cand[order[:k]].tolist()


def knn_boundary_ties(d_kth: np.ndarray, d_next: np.ndarray) -> np.ndarray:
    """Mask of query rows whose kth and (k+1)th neighbor distances tie.

    A gap of at most 1e-9 relative (absolute below distance 1) counts as a
    tie: which of the tied points a kd-tree query or a partition keeps is not
    defined, so those rows must be re-ranked through `knn` for its member set.
    """
    return d_next - d_kth <= 1e-9 * np.maximum(d_next, 1.0)


def knn_indices_batch(cloud: PointCloud, queries: np.ndarray, k: int) -> np.ndarray:
    """(m, k) nearest-neighbor index matrix for many queries at once.

    Rows whose kth neighbor is distance-tied with the (k+1)th
    (`knn_boundary_ties`) are repaired through the exact single-query path,
    so member *sets* match `knn`.
    """
    n = len(cloud)
    if k < 1 or k > n:
        raise InsufficientPointsError(f"k={k} outside [1, {n}]")
    queries = np.asarray(queries, dtype=np.float64)
    if k == n:
        idx = np.empty((len(queries), k), dtype=np.intp)
        for i, q in enumerate(queries):
            idx[i] = knn(cloud, q, k)
        return idx
    d, idx = cloud.tree.query(queries, k=k + 1)
    ambiguous = np.nonzero(knn_boundary_ties(d[:, k - 1], d[:, k]))[0]
    idx = idx[:, :k]
    for row in ambiguous:
        idx[row] = knn(cloud, queries[row], k)
    return idx.astype(np.intp)


def singular_values_batch(planes: np.ndarray) -> np.ndarray:
    """Per-cluster PCA spectra of m clusters given as (3, m, k) coordinate planes.

    Returns (m, min(k, 3)) singular values of each mean-centered cluster,
    descending per row. Each centered (k, 3) cluster, whose columns are
    its contiguous plane rows, is reduced by a batched Householder QR to its
    R factor, whose singular values are the cluster's (Chan 1982). QR and
    SVD are backward stable and no scatter matrix is formed, so a planar or
    3-point cluster's smallest value stays within rounding of zero relative
    to the largest.
    """
    centered = planes - planes.mean(axis=2, keepdims=True)
    r = np.linalg.qr(centered.transpose(1, 2, 0), mode="r")
    return np.linalg.svd(r, compute_uv=False)


def estimate_normals(cloud: PointCloud) -> np.ndarray:
    """Unit surface normals by PCA over each point's 15 nearest neighbors.

    A cloud of fewer than 15 points uses all of them. Normals are flipped to
    point away from the cloud's centroid, outward on a convex part.

    :return: (n, 3) array of unit normals.
    """
    n = len(cloud)
    if n < 3:
        raise InsufficientPointsError("normal estimation needs >= 3 points")
    idx = knn_indices_batch(cloud, cloud.points, min(15, n))
    nbrs = cloud.points[idx]
    centered = nbrs - nbrs.mean(axis=1, keepdims=True)
    scatter = np.einsum("mki,mkj->mij", centered, centered)
    _, vecs = np.linalg.eigh(scatter)
    normals = vecs[:, :, 0]  # eigenvector of the smallest eigenvalue
    norms = np.linalg.norm(normals, axis=1, keepdims=True)
    normals = np.divide(normals, norms, out=np.zeros_like(normals), where=norms > 0)
    outward = cloud.points - cloud.points.mean(axis=0)
    flip = np.einsum("ij,ij->i", normals, outward) < 0
    normals[flip] *= -1
    return normals


def fit_rigid(source: np.ndarray, target: np.ndarray) -> RigidTransform:
    """Least-squares rigid transform mapping paired source onto target points.

    Kabsch via SVD of the cross-covariance; reflections are corrected so the
    result is a proper rotation.
    """
    src = np.asarray(source, dtype=np.float64)
    tgt = np.asarray(target, dtype=np.float64)
    if src.shape != tgt.shape or src.ndim != 2 or len(src) < 3:
        raise ValueError("fit_rigid needs matching (n>=3, 3) point sets")
    sc = src.mean(axis=0)
    tc = tgt.mean(axis=0)
    h = (src - sc).T @ (tgt - tc)
    u, _, vt = np.linalg.svd(h)
    d = np.sign(np.linalg.det(vt.T @ u.T))
    r = vt.T @ np.diag([1.0, 1.0, d]) @ u.T
    return RigidTransform(r, tc - r @ sc)
