"""Independent reference implementations used to derive expected test values.

Everything here is deliberately written the slow, obvious way (linear scans,
per-item loops, dict bucketing) and shares no code with the package under
test, so agreement is meaningful.
"""

from __future__ import annotations

import itertools
import math
from fractions import Fraction

import numpy as np
from scipy.spatial import cKDTree
from scipy.spatial.transform import Rotation


def knn_linear(points: np.ndarray, query, k: int) -> list[int]:
    """k nearest indices by full linear scan, ties to the smaller index."""
    q = np.asarray(query, dtype=np.float64)
    d2 = [float(np.dot(p - q, p - q)) for p in points]
    order = sorted(range(len(points)), key=lambda i: (d2[i], i))
    return order[:k]


def pca_sigma(points: np.ndarray) -> np.ndarray:
    """Singular values of the centered matrix via covariance eigenvalues."""
    pts = np.asarray(points, dtype=np.float64)
    centered = pts - pts.mean(axis=0)
    scatter = centered.T @ centered
    eigvals = sorted(np.linalg.eigvalsh(scatter), reverse=True)
    return np.sqrt(np.clip(eigvals, 0.0, None))


def pca_sigma_accurate(points: np.ndarray) -> np.ndarray:
    """Singular values of the centered matrix C as |C v| per eigenvector v.

    The square root of a small scatter eigenvalue carries an absolute error
    near sqrt(eps) times the largest singular value; measuring C along the
    eigenvector instead keeps the error near eps times it.
    """
    pts = np.asarray(points, dtype=np.float64)
    centered = pts - pts.mean(axis=0)
    _, vecs = np.linalg.eigh(centered.T @ centered)
    return np.sort(np.linalg.norm(centered @ vecs, axis=0))[::-1]


def voxel_centroids(points: np.ndarray, leaf: float) -> dict:
    """Map from integer voxel key to (centroid, count), dict bucketing."""
    buckets: dict = {}
    for p in np.asarray(points, dtype=np.float64):
        key = tuple(int(math.floor(c / leaf)) for c in p)
        buckets.setdefault(key, []).append(p)
    return {
        key: (np.mean(vals, axis=0), len(vals)) for key, vals in buckets.items()
    }


def cluster_size(n_obj_all: int, n_tpl_part: int, n_tpl_all: int) -> int:
    """Scene-proportional cluster size via exact rational arithmetic.

    Round half up (exactly, no floating point), then clamp to
    [3, n_obj_all].
    """
    raw = Fraction(n_obj_all * n_tpl_part, n_tpl_all) + Fraction(1, 2)
    k = math.floor(raw)
    return min(max(k, 3), n_obj_all)


def shape_distance(sigma_obj, sigma_tpl) -> float:
    """Distance between unit-normalized PCA spectra."""
    a = np.asarray(sigma_obj, dtype=np.float64)
    b = np.asarray(sigma_tpl, dtype=np.float64)
    return float(np.linalg.norm(a / np.linalg.norm(a) - b / np.linalg.norm(b)))


def spread_statistic(points: np.ndarray, ref_index: int) -> float:
    """Normalized spread of distances from the point at ``ref_index``.

    Population std of the distances divided by the largest absolute
    deviation from their mean; the reference's own zero distance is
    excluded by index.
    """
    pts = np.asarray(points, dtype=np.float64)
    ref = pts[ref_index]
    dists = [
        float(np.linalg.norm(p - ref)) for i, p in enumerate(pts) if i != ref_index
    ]
    arr = np.asarray(dists)
    dev = np.abs(arr - arr.mean())
    return float(arr.std() / dev.max())


def spread_distance(obj_points, obj_ref_index, tpl_points, tpl_ref_index) -> float:
    return abs(
        spread_statistic(obj_points, obj_ref_index)
        - spread_statistic(tpl_points, tpl_ref_index)
    )


def aabb_center(points: np.ndarray) -> np.ndarray:
    pts = np.asarray(points, dtype=np.float64)
    return 0.5 * (pts.min(axis=0) + pts.max(axis=0))


def centrality_statistic(part_points, whole_points) -> float:
    """Part-center offset over half the whole-cloud AABB diagonal."""
    part_c = aabb_center(part_points)
    whole_c = aabb_center(whole_points)
    whole = np.asarray(whole_points, dtype=np.float64)
    half_diag = 0.5 * float(np.linalg.norm(whole.max(axis=0) - whole.min(axis=0)))
    return float(np.linalg.norm(part_c - whole_c) / half_diag)


def centrality_distance(obj_part, obj_all, tpl_part, tpl_all) -> float:
    return abs(
        centrality_statistic(obj_part, obj_all)
        - centrality_statistic(tpl_part, tpl_all)
    )


def nearest_to_aabb_center(points: np.ndarray) -> int:
    """Index of the cloud point nearest its own AABB center (ties: smaller)."""
    pts = np.asarray(points, dtype=np.float64)
    c = aabb_center(pts)
    return knn_linear(pts, c, 1)[0]


def recognize_exhaustive(obj_points: np.ndarray, templates: list[dict]):
    """Reference part recognition: per-seed mean score over all templates.

    Each template dict needs keys ``part`` (k, 3), ``whole`` (m, 3). Returns
    (best_seed_index, scores array with NaN for invalid seeds).
    """
    n = len(obj_points)
    scores = np.full(n, np.nan)
    per_template = []
    for tpl in templates:
        k = cluster_size(n, len(tpl["part"]), len(tpl["whole"]))
        tpl_sigma = pca_sigma_accurate(tpl["part"])
        tpl_spread = spread_statistic(tpl["part"], nearest_to_aabb_center(tpl["part"]))
        per_template.append((k, tpl_sigma, tpl_spread, tpl))
    for seed in range(n):
        vals = []
        ok = True
        for k, tpl_sigma, tpl_spread, tpl in per_template:
            members = knn_linear(obj_points, obj_points[seed], k)
            cluster = obj_points[members]
            sig = pca_sigma_accurate(cluster)
            if np.linalg.norm(sig) == 0 or np.linalg.norm(tpl_sigma) == 0:
                ok = False
                break
            d1 = shape_distance(sig, tpl_sigma)
            obj_dists = np.linalg.norm(cluster - obj_points[seed], axis=1)
            obj_dists = obj_dists[np.asarray(members) != seed]
            dev = np.abs(obj_dists - obj_dists.mean())
            if dev.max() == 0:
                ok = False
                break
            s_obj = float(obj_dists.std() / dev.max())
            d2 = abs(s_obj - tpl_spread)
            d3 = centrality_distance(cluster, obj_points, tpl["part"], tpl["whole"])
            vals.append(d1 + d2 + d3)
        if ok and vals:
            scores[seed] = float(np.mean(vals))
    if np.all(np.isnan(scores)):
        return None, scores
    best = int(np.nanargmin(scores))
    return best, scores


def iou_labels(pred_idx, truth_idx, n_total: int) -> float:
    """Intersection-over-union of two index sets over the same cloud."""
    a = set(int(i) for i in pred_idx)
    b = set(int(i) for i in truth_idx)
    if not a and not b:
        return 1.0
    return len(a & b) / len(a | b)


def normal_at(points: np.ndarray, index: int, k: int = 15) -> np.ndarray:
    """Unit surface normal at one point: smallest principal axis of its
    k-neighborhood, computed the slow way (full SVD of the centered block)."""
    pts = np.asarray(points, dtype=np.float64)
    nbrs = pts[knn_linear(pts, pts[index], min(k, len(pts)))]
    centered = nbrs - nbrs.mean(axis=0)
    _, _, vt = np.linalg.svd(centered, full_matrices=False)
    n = vt[-1]
    return n / np.linalg.norm(n)


def antipodal_ok(
    points: np.ndarray,
    contact_a,
    contact_b,
    max_opening: float,
    half_angle_deg: float,
    contact_tol: float = 1e-6,
    angle_margin_deg: float = 1e-6,
) -> bool:
    """Check a finished grasp against first principles.

    Both contacts must coincide with actual part points, their separation
    must fit inside the jaw opening, and the closing line must lie within
    the (orientation-agnostic) friction cone at both contacts.
    """
    pts = np.asarray(points, dtype=np.float64)
    ia = knn_linear(pts, contact_a, 1)[0]
    ib = knn_linear(pts, contact_b, 1)[0]
    if np.linalg.norm(pts[ia] - contact_a) > contact_tol:
        return False
    if np.linalg.norm(pts[ib] - contact_b) > contact_tol:
        return False
    u = pts[ib] - pts[ia]
    width = np.linalg.norm(u)
    if width <= 0 or width > max_opening * (1 + 1e-9):
        return False
    u = u / width
    limit = half_angle_deg + angle_margin_deg
    for idx in (ia, ib):
        n = normal_at(pts, idx)
        angle = math.degrees(math.acos(min(1.0, abs(float(n @ u)))))
        if angle > limit:
            return False
    return True


def rotation_grid_search(o_points: np.ndarray, seed, m_points: np.ndarray, t_loc):
    """Full 512-entry rotation grid search about the locally aligned seed.

    Every Euler triple over {-180..135 step 45} per axis (extrinsic x, y, z)
    is scored by the mean nearest-neighbor distance from the rotated
    observed points to the template points; the lowest wins, ties to the
    smallest rotation angle, then grid order. Returns (rotation, translation).
    """
    def move(p):
        return np.asarray(p, dtype=np.float64) @ t_loc.rotation.T + t_loc.translation

    degrees = range(-180, 180, 45)
    triples = np.array(list(itertools.product(degrees, repeat=3)), dtype=np.float64)
    mats = Rotation.from_euler("xyz", triples, degrees=True).as_matrix()
    pivot = move(np.asarray(seed, dtype=np.float64).reshape(3))
    base = move(o_points) - pivot
    rotated = np.einsum("mij,nj->mni", mats, base) + pivot
    d, _ = cKDTree(m_points).query(rotated.reshape(-1, 3), workers=-1)
    objectives = d.reshape(len(mats), -1).mean(axis=1)
    traces = np.einsum("mii->m", mats)
    angles = np.arccos(np.clip((traces - 1.0) / 2.0, -1.0, 1.0))
    order = np.lexsort((np.arange(len(mats)), angles, objectives))
    best = mats[order[0]]
    return best, pivot - best @ pivot
