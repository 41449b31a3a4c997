"""Independent reference implementations used to derive expected test values.

Everything here is deliberately written the slow, obvious way (linear scans,
per-item loops, dict bucketing) and shares no code with the package under
test, so agreement is meaningful. The registration references
(`icp_requery`, `pair_features`, `fpfh_add_at`, `coarse_align_dense`) are
the package's earlier code, which the faster one must reproduce bit for bit;
they take the normals, the rigid fit and the result types, which did not
change, from the package.
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


def svd_spectra(member_points: np.ndarray) -> np.ndarray:
    """(m, min(k, 3)) singular values of each centered cluster of an (m, k, 3) stack.

    The package's earlier spectra: one batched SVD of the centered points.
    """
    centered = member_points - member_points.mean(axis=1, keepdims=True)
    return np.linalg.svd(centered, compute_uv=False)


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


def icp_requery(source, target, init=None, max_corr_dist: float = 0.01):
    """ICP querying every source point's nearest target point on every pass.

    Returns the package's `IcpResult`.
    """
    from tog.errors import InsufficientPointsError, RegistrationFailureError
    from tog.geometry import RigidTransform, fit_rigid
    from tog.registration import IcpResult

    if len(source) < 3 or len(target) < 3:
        raise InsufficientPointsError("icp needs >= 3 points on both sides")
    if not max_corr_dist > 0:
        raise ValueError("max_corr_dist must be positive")
    current = init if init is not None else RigidTransform.identity()
    src = source.points
    history = []
    accepted = None  # (transform, count, rmse) of the best accepted iterate
    for _ in range(51):
        d, j = target.tree.query(current.apply(src), workers=-1)
        inlier = d <= max_corr_dist
        count = int(inlier.sum())
        if count < 3:
            raise RegistrationFailureError(
                f"only {count} correspondences within {max_corr_dist:.4g} m", stage="icp"
            )
        rmse = float(np.sqrt(np.mean(d[inlier] ** 2)))
        if accepted is not None and rmse > accepted[2]:
            current, count, rmse = accepted
            break
        history.append(rmse)
        converged = accepted is not None and abs(accepted[2] - rmse) <= (
            1e-6 * max(accepted[2], 1e-12)
        )
        accepted = (current, count, rmse)
        if converged or len(history) > 50:
            break
        current = fit_rigid(src[inlier], target.points[j[inlier]])
    return IcpResult(current, float(count / len(source)), float(rmse), count, tuple(history))


def pair_features(points, normals, i_idx, j_idx):
    """Darboux-frame angle features for directed point pairs (i -> j)."""
    d = points[j_idx] - points[i_idx]
    dist = np.linalg.norm(d, axis=1)
    ok = dist > 1e-12
    d_hat = np.zeros_like(d)
    d_hat[ok] = d[ok] / dist[ok, None]
    u = normals[i_idx]
    v = np.cross(d_hat, u)
    v_norm = np.linalg.norm(v, axis=1)
    ok &= v_norm > 1e-12
    v[ok] = v[ok] / v_norm[ok, None]
    w = np.cross(u, v)
    n_j = normals[j_idx]
    alpha = np.einsum("ij,ij->i", v, n_j)
    phi = np.einsum("ij,ij->i", u, d_hat)
    theta = np.arctan2(np.einsum("ij,ij->i", w, n_j), np.einsum("ij,ij->i", u, n_j))
    return alpha, phi, theta, dist, ok


def fpfh_add_at(cloud, radius: float) -> np.ndarray:
    """FPFH accumulated with `np.add.at` over explicit per-pair arrays."""
    from tog.geometry import estimate_normals
    from tog.registration import FPFH_BINS

    n = len(cloud)
    normals = estimate_normals(cloud)
    neighborhoods = cloud.tree.query_ball_point(cloud.points, radius, workers=-1)
    i_idx = np.concatenate(
        [np.full(len(nb), i, dtype=np.intp) for i, nb in enumerate(neighborhoods)]
    )
    j_idx = np.concatenate([np.asarray(nb, dtype=np.intp) for nb in neighborhoods])
    keep = i_idx != j_idx
    i_idx, j_idx = i_idx[keep], j_idx[keep]
    order = np.lexsort((j_idx, i_idx))
    i_idx, j_idx = i_idx[order], j_idx[order]

    def block(values, lo, hi, rows):
        bins = np.clip(((values - lo) / (hi - lo) * FPFH_BINS).astype(np.intp), 0, FPFH_BINS - 1)
        hist = np.zeros((n, FPFH_BINS))
        np.add.at(hist, (rows, bins), 1.0)
        return hist

    spfh = np.zeros((n, 3 * FPFH_BINS))
    if len(i_idx):
        alpha, phi, theta, dist, ok = pair_features(cloud.points, normals, i_idx, j_idx)
        i_ok, j_ok, dist = i_idx[ok], j_idx[ok], dist[ok]
        spfh[:, 0:FPFH_BINS] = block(alpha[ok], -1.0, 1.0, i_ok)
        spfh[:, FPFH_BINS : 2 * FPFH_BINS] = block(phi[ok], -1.0, 1.0, i_ok)
        spfh[:, 2 * FPFH_BINS :] = block(theta[ok], -np.pi, np.pi, i_ok)
        counts = np.bincount(i_ok, minlength=n).astype(np.float64)
        np.divide(spfh, counts[:, None], out=spfh, where=counts[:, None] > 0)
        feat = np.zeros_like(spfh)
        w = 1.0 / np.maximum(dist, 1e-9)
        np.add.at(feat, i_ok, spfh[j_ok] * w[:, None])
        has = counts > 0
        feat[has] /= counts[has, None]
        spfh = spfh + feat
    out = spfh.reshape(n, 3, FPFH_BINS)
    sums = out.sum(axis=2, keepdims=True)
    out = np.divide(out, sums, out=np.zeros_like(out), where=sums > 0)
    return out.reshape(n, 3 * FPFH_BINS)


def dense_inlier_counts(rot, trans, src_pts, tgt_pts, inlier_dist) -> np.ndarray:
    """Per hypothesis, the pairs within inlier_dist after moving every source point."""
    moved = np.einsum("mij,nj->mni", rot, src_pts) + trans[:, None, :]
    dists = np.linalg.norm(moved - tgt_pts[None, :, :], axis=2)
    return (dists <= inlier_dist).sum(axis=1)


def coarse_align_dense(source, target, leaf: float = 0.005, rng=0):
    """Descriptor RANSAC counting every hypothesis's inliers densely.

    Returns (rotation, translation), or raises the package's
    `CoarseFailureError` when no hypothesis reaches 3 inliers.
    """
    from tog.errors import CoarseFailureError

    rng = np.random.default_rng(rng)
    radius = 5.0 * leaf
    inlier_dist = 1.5 * leaf
    _, j = cKDTree(fpfh_add_at(target, radius)).query(fpfh_add_at(source, radius), workers=-1)
    src_pts = source.points
    tgt_pts = target.points[j]
    n_pairs = len(src_pts)
    best = None
    tried = 0
    needed = 100_000
    while tried < min(needed, 100_000):
        m = min(1024, 100_000 - tried)
        sel = rng.integers(0, n_pairs, size=(m, 3))
        tried += m
        distinct = (
            (sel[:, 0] != sel[:, 1]) & (sel[:, 0] != sel[:, 2]) & (sel[:, 1] != sel[:, 2])
        )
        sel = sel[distinct]
        if not len(sel):
            continue
        s3 = src_pts[sel]
        t3 = tgt_pts[sel]
        s_edges = np.linalg.norm(s3 - np.roll(s3, 1, axis=1), axis=2)
        t_edges = np.linalg.norm(t3 - np.roll(t3, 1, axis=1), axis=2)
        good = (
            (s_edges > 1e-9).all(axis=1)
            & (t_edges > 1e-9).all(axis=1)
            & (t_edges >= 0.9 * s_edges).all(axis=1)
            & (s_edges >= 0.9 * t_edges).all(axis=1)
        )
        if not good.any():
            continue
        s3, t3 = s3[good], t3[good]
        sc = s3.mean(axis=1, keepdims=True)
        tc = t3.mean(axis=1, keepdims=True)
        h = np.einsum("mki,mkj->mij", s3 - sc, t3 - tc)
        u, _, vt = np.linalg.svd(h)
        det = np.linalg.det(np.einsum("mij,mjk->mik", vt.transpose(0, 2, 1), u.transpose(0, 2, 1)))
        flip = np.broadcast_to(np.eye(3), u.shape).copy()
        flip[:, 2, 2] = np.sign(det)
        rot = np.einsum("mij,mjk,mkl->mil", vt.transpose(0, 2, 1), flip, u.transpose(0, 2, 1))
        trans = tc[:, 0, :] - np.einsum("mij,mj->mi", rot, sc[:, 0, :])
        counts = dense_inlier_counts(rot, trans, src_pts, tgt_pts, inlier_dist)
        top = int(np.argmax(counts))
        if counts[top] >= 3 and (best is None or counts[top] > best[0]):
            best = (int(counts[top]), rot[top], trans[top])
            ratio = best[0] / n_pairs
            if 0 < ratio < 1:
                needed = int(
                    min(100_000, np.ceil(np.log(1 - 0.999) / np.log(1 - ratio**3)))
                )
            else:
                needed = tried
    if best is None:
        raise CoarseFailureError("no 3-point hypothesis reached 3 inliers", stage="coarse")
    return best[1], best[2]
