"""Aligning the observed object to a template, part first.

The observed cloud is registered in three stages: the recognized part is
aligned to the template part (descriptor RANSAC plus ICP, retried until
enough correspondences hold), the whole cloud is then rotated about the
aligned seed over a fixed grid to resolve part-level ambiguity, and a final
whole-cloud ICP refines the pose. The total transform maps observed
(camera-frame) points into the template frame.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np
from scipy.spatial import cKDTree
from scipy.spatial.transform import Rotation

from .errors import (
    CoarseFailureError,
    InsufficientPointsError,
    LocalRegistrationFailureError,
    RegistrationFailureError,
)
from .geometry import PointCloud, RigidTransform, estimate_normals, fit_rigid

MAX_ICP_ITERATIONS = 50
ICP_RELATIVE_TOLERANCE = 1e-6
MAX_RANSAC_HYPOTHESES = 100_000
RANSAC_CONFIDENCE = 0.999
EDGE_RATIO = 0.9
LOCAL_ATTEMPTS = 20
FPFH_BINS = 11


@dataclass(frozen=True)
class IcpResult:
    """Absolute source-to-target transform with its final-pass statistics."""

    transform: RigidTransform
    fitness: float
    rmse: float
    correspondences: int
    rmse_history: tuple

    def __iter__(self):
        return iter((self.transform, self.fitness, self.rmse))


def _correspondence_pass(
    source_pts: np.ndarray, target: PointCloud, t: RigidTransform, max_dist: float
):
    moved = t.apply(source_pts)
    d, j = target.tree.query(moved, workers=-1)
    inlier = d <= max_dist
    count = int(inlier.sum())
    if count < 3:
        raise RegistrationFailureError(
            f"only {count} correspondences within {max_dist:.4g} m", stage="icp"
        )
    rmse = float(np.sqrt(np.mean(d[inlier] ** 2)))
    return inlier, j, count, rmse


def icp(
    source: PointCloud,
    target: PointCloud,
    init: RigidTransform | None = None,
    max_corr_dist: float = 0.01,
) -> IcpResult:
    """Point-to-point ICP with correspondence rejection beyond max_corr_dist.

    Each iteration refits the absolute transform from the original source
    points (no incremental drift). If rejection makes the trimmed RMSE rise,
    the previous transform is kept and iteration stops, so the recorded RMSE
    history is non-increasing. Stops on relative RMSE change below 1e-6 or
    after 50 iterations. Fitness is the inlier fraction of the source.
    """
    if len(source) < 3 or len(target) < 3:
        raise InsufficientPointsError("icp needs >= 3 points on both sides")
    if max_corr_dist <= 0:
        raise ValueError("max_corr_dist must be positive")
    current = init if init is not None else RigidTransform.identity()
    src = source.points
    history: list[float] = []
    accepted = None  # (transform, count, rmse) of the best accepted iterate
    for _ in range(MAX_ICP_ITERATIONS + 1):
        inlier, j, count, rmse = _correspondence_pass(src, target, current, max_corr_dist)
        if accepted is not None and rmse > accepted[2]:
            # trimmed objective worsened after rejection churn: keep previous
            current, count, rmse = accepted
            break
        history.append(rmse)
        converged = accepted is not None and abs(accepted[2] - rmse) <= (
            ICP_RELATIVE_TOLERANCE * max(accepted[2], 1e-12)
        )
        accepted = (current, count, rmse)
        if converged or len(history) > MAX_ICP_ITERATIONS:
            break
        current = fit_rigid(src[inlier], target.points[j[inlier]])
    fitness = count / len(source)
    return IcpResult(current, float(fitness), float(rmse), count, tuple(history))


def _pair_features(points, normals, i_idx, j_idx):
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


def _histogram_block(values, lo, hi, rows, n_points):
    bins = np.clip(((values - lo) / (hi - lo) * FPFH_BINS).astype(np.intp), 0, FPFH_BINS - 1)
    hist = np.zeros((n_points, FPFH_BINS))
    np.add.at(hist, (rows, bins), 1.0)
    return hist


def fpfh(cloud: PointCloud, radius: float, normals: np.ndarray | None = None) -> np.ndarray:
    """Fast point feature histograms (33 dims: 3 angle blocks of 11 bins).

    Simplified-histogram features per point are accumulated from its radius
    neighborhood, then blended with distance-weighted neighbor histograms
    and block-normalized to unit sum. Without `normals` the read-only result
    is cached on the cloud, so registration retries compute it once.
    """
    if normals is None:
        return cloud.derived(("fpfh", radius), lambda: _fpfh(cloud, radius, None))
    return _fpfh(cloud, radius, normals)


def _fpfh(cloud: PointCloud, radius: float, normals: np.ndarray | None) -> np.ndarray:
    n = len(cloud)
    if n < 3:
        raise InsufficientPointsError("descriptors need >= 3 points")
    if normals is None:
        normals = estimate_normals(cloud, k=min(15, n), orient_from=cloud.points.mean(axis=0))
    neighborhoods = cloud.tree.query_ball_point(cloud.points, radius, workers=-1)
    i_idx = np.concatenate(
        [np.full(len(nb), i, dtype=np.intp) for i, nb in enumerate(neighborhoods)]
    )
    j_idx = np.concatenate([np.asarray(nb, dtype=np.intp) for nb in neighborhoods])
    keep = i_idx != j_idx
    i_idx, j_idx = i_idx[keep], j_idx[keep]
    order = np.lexsort((j_idx, i_idx))  # deterministic accumulation order
    i_idx, j_idx = i_idx[order], j_idx[order]

    spfh = np.zeros((n, 3 * FPFH_BINS))
    if len(i_idx):
        alpha, phi, theta, dist, ok = _pair_features(cloud.points, normals, i_idx, j_idx)
        i_ok, j_ok, dist = i_idx[ok], j_idx[ok], dist[ok]
        spfh[:, 0:FPFH_BINS] = _histogram_block(alpha[ok], -1.0, 1.0, i_ok, n)
        spfh[:, FPFH_BINS : 2 * FPFH_BINS] = _histogram_block(phi[ok], -1.0, 1.0, i_ok, n)
        spfh[:, 2 * FPFH_BINS :] = _histogram_block(theta[ok], -np.pi, np.pi, i_ok, n)
        counts = np.bincount(i_ok, minlength=n).astype(np.float64)
        np.divide(spfh, counts[:, None], out=spfh, where=counts[:, None] > 0)

        # blend in neighbor histograms, weighted by inverse distance
        feat = np.zeros_like(spfh)
        w = 1.0 / np.maximum(dist, 1e-9)
        np.add.at(feat, i_ok, spfh[j_ok] * w[:, None])
        has = counts > 0
        feat[has] /= counts[has, None]
        spfh = spfh + feat

    out = spfh.reshape(n, 3, FPFH_BINS)
    sums = out.sum(axis=2, keepdims=True)
    out = np.divide(out, sums, out=np.zeros_like(out), where=sums > 0)
    out.setflags(write=False)
    return out.reshape(n, 3 * FPFH_BINS)


def _nearest_descriptor_pairs(src_feat: np.ndarray, tgt_feat: np.ndarray) -> np.ndarray:
    tree = cKDTree(tgt_feat)
    _, j = tree.query(src_feat, workers=-1)
    return np.stack([np.arange(len(src_feat)), j], axis=1)


def coarse_align(
    source: PointCloud,
    target: PointCloud,
    leaf: float = 0.005,
    rng=0,
) -> RigidTransform:
    """Descriptor-driven RANSAC alignment of source onto target.

    Histograms at 5x leaf radius pair each source point with its nearest
    target descriptor; 3-point hypotheses must pass a 0.9 edge-length ratio
    gate, and inliers are correspondence pairs within 1.5x leaf after the
    hypothesis transform. Sampling is driven entirely by ``rng``, so a fixed
    seed reproduces the same alignment.
    """
    if len(source) < 10 or len(target) < 10:
        raise InsufficientPointsError("coarse alignment needs >= 10 points per cloud")
    rng = np.random.default_rng(rng)
    radius = 5.0 * leaf
    inlier_dist = 1.5 * leaf
    pairs = _nearest_descriptor_pairs(fpfh(source, radius), fpfh(target, radius))
    src_pts = source.points[pairs[:, 0]]
    tgt_pts = target.points[pairs[:, 1]]
    n_pairs = len(pairs)

    best = None  # (count, transform)
    tried = 0
    needed = MAX_RANSAC_HYPOTHESES
    batch = 1024
    while tried < min(needed, MAX_RANSAC_HYPOTHESES):
        m = min(batch, MAX_RANSAC_HYPOTHESES - tried)
        sel = rng.integers(0, n_pairs, size=(m, 3))
        tried += m
        distinct = (
            (sel[:, 0] != sel[:, 1]) & (sel[:, 0] != sel[:, 2]) & (sel[:, 1] != sel[:, 2])
        )
        sel = sel[distinct]
        if not len(sel):
            continue
        s3 = src_pts[sel]  # (m, 3, 3)
        t3 = tgt_pts[sel]
        s_edges = np.linalg.norm(s3 - np.roll(s3, 1, axis=1), axis=2)
        t_edges = np.linalg.norm(t3 - np.roll(t3, 1, axis=1), axis=2)
        good = (
            (s_edges > 1e-9).all(axis=1)
            & (t_edges > 1e-9).all(axis=1)
            & (t_edges >= EDGE_RATIO * s_edges).all(axis=1)
            & (s_edges >= EDGE_RATIO * t_edges).all(axis=1)
        )
        if not good.any():
            continue
        s3, t3 = s3[good], t3[good]
        # batched Kabsch over all surviving 3-point hypotheses
        sc = s3.mean(axis=1, keepdims=True)
        tc = t3.mean(axis=1, keepdims=True)
        h = np.einsum("mki,mkj->mij", s3 - sc, t3 - tc)
        u, _, vt = np.linalg.svd(h)
        det = np.linalg.det(np.einsum("mij,mjk->mik", vt.transpose(0, 2, 1), u.transpose(0, 2, 1)))
        flip = np.broadcast_to(np.eye(3), u.shape).copy()
        flip[:, 2, 2] = np.sign(det)
        rot = np.einsum("mij,mjk,mkl->mil", vt.transpose(0, 2, 1), flip, u.transpose(0, 2, 1))
        trans = tc[:, 0, :] - np.einsum("mij,mj->mi", rot, sc[:, 0, :])
        moved = np.einsum("mij,nj->mni", rot, src_pts) + trans[:, None, :]
        dists = np.linalg.norm(moved - tgt_pts[None, :, :], axis=2)
        counts = (dists <= inlier_dist).sum(axis=1)
        top = int(np.argmax(counts))
        if counts[top] >= 3 and (best is None or counts[top] > best[0]):
            best = (int(counts[top]), RigidTransform(rot[top], trans[top]))
            ratio = best[0] / n_pairs
            if 0 < ratio < 1:
                needed = int(
                    min(
                        MAX_RANSAC_HYPOTHESES,
                        np.ceil(np.log(1 - RANSAC_CONFIDENCE) / np.log(1 - ratio**3)),
                    )
                )
            else:
                needed = tried
    if best is None:
        raise CoarseFailureError(
            "no 3-point hypothesis reached 3 inliers", stage="coarse"
        )
    return best[1]


def register_local(
    o_part: PointCloud, m_part: PointCloud, leaf: float = 0.005, seed: int = 0
) -> IcpResult:
    """Part-to-part alignment, retried until over half the points correspond.

    Each attempt runs coarse RANSAC with a fresh derived RNG stream followed
    by ICP at 1.5x leaf. Raises after 20 attempts, carrying the best attempt
    seen for diagnostics.
    """
    best: IcpResult | None = None
    failure = None
    for attempt in range(LOCAL_ATTEMPTS):
        try:
            init = coarse_align(o_part, m_part, leaf, rng=(seed, attempt))
            result = icp(o_part, m_part, init=init, max_corr_dist=1.5 * leaf)
        except (CoarseFailureError, RegistrationFailureError) as exc:
            failure = exc
            continue
        if result.correspondences > len(o_part) / 2:
            return result
        if best is None or result.correspondences > best.correspondences:
            best = result
    raise LocalRegistrationFailureError(
        f"no attempt exceeded {len(o_part) // 2} correspondences "
        f"in {LOCAL_ATTEMPTS} tries" + (f" (last error: {failure})" if failure else ""),
        best_attempt=best,
        stage="local",
    )


_GRID_DEGREES = tuple(range(-180, 180, 45))  # 8 values per axis, 512 triples


def rotation_candidates():
    """The fixed rotation grid: (angles_deg (512, 3), matrices (512, 3, 3)).

    Euler triples over {-180..135 step 45} per axis, composed extrinsically
    about x, then y, then z.
    """
    triples = np.array(list(itertools.product(_GRID_DEGREES, repeat=3)), dtype=np.float64)
    mats = Rotation.from_euler("xyz", triples, degrees=True).as_matrix()
    return triples, mats


def _grid_classes():
    """Grid matrices and angles, each entry's class and each class's first entry.

    Two entries share a class when their matrices agree after rounding to
    1e-9; members of a class differ by rounding error only.
    """
    _, mats = rotation_candidates()
    angles = np.arccos(np.clip((np.einsum("mii->m", mats) - 1.0) / 2.0, -1.0, 1.0))
    keys = np.rint(mats.reshape(len(mats), 9) * 1e9).astype(np.int64)
    _, first, cls = np.unique(keys, axis=0, return_index=True, return_inverse=True)
    mats.setflags(write=False)
    return mats, angles, cls.reshape(-1), first


_GRID_MATS, _GRID_ANGLES, _GRID_CLASS, _GRID_FIRST = _grid_classes()


def _mean_nn_distance(mats, base, pivot, target: PointCloud) -> np.ndarray:
    rotated = np.einsum("mij,nj->mni", mats, base) + pivot
    d, _ = target.tree.query(rotated.reshape(-1, 3), workers=-1)
    return d.reshape(len(mats), -1).mean(axis=1)


def optimize_rotation(
    o_all: PointCloud,
    seed,
    m_all: PointCloud,
    t_loc: RigidTransform,
) -> RigidTransform:
    """Grid search over the rotations of `rotation_candidates` about the seed.

    Objective: mean nearest-neighbor distance from the rotated observed
    cloud to the template (one-directional, since the observation is
    partial). The winner is the grid entry with the lowest objective, ties
    going to the smallest rotation angle, then to grid order.

    The 512 Euler triples hold only 208 distinct rotations (192 written
    twice, 16 eight times), whose copies differ by rounding error. So the
    objective is computed once per distinct rotation, on its first grid
    entry; then every entry of each rotation scoring within 1e-9 (relative
    to the coordinate and objective scale) of the best is scored itself and
    ranked by the order above. The distance is 1-Lipschitz, so that set
    holds the full grid's winner, and the result is bitwise the one a
    search over all 512 entries returns.
    """
    pivot = t_loc.apply(np.asarray(seed, dtype=np.float64).reshape(3))
    base = t_loc.apply(o_all.points) - pivot
    per_class = _mean_nn_distance(_GRID_MATS[_GRID_FIRST], base, pivot, m_all)
    best = per_class.min()
    tol = 1e-9 * (1.0 + np.abs(base).max() + np.abs(pivot).max() + best)
    near = np.flatnonzero(np.isin(_GRID_CLASS, np.flatnonzero(per_class <= best + tol)))
    objectives = _mean_nn_distance(_GRID_MATS[near], base, pivot, m_all)
    win = near[np.lexsort((near, _GRID_ANGLES[near], objectives))[0]]
    rot = _GRID_MATS[win]
    return RigidTransform(rot, pivot - rot @ pivot)


@dataclass(frozen=True)
class RegistrationResult:
    """Staged transforms (all left-acting) and final-ICP quality statistics."""

    t_loc: RigidTransform
    t_opt: RigidTransform
    t_icp: RigidTransform
    t_total: RigidTransform
    fitness: float
    rmse: float
    correspondence_count: int
    template_id: str


def register(
    o_all: PointCloud,
    recognition,
    template,
    leaf: float = 0.005,
    seed: int = 0,
) -> RegistrationResult:
    """Full observed-to-template alignment through all three stages."""
    m_part = template.parts[recognition.part_path]
    local = register_local(recognition.part_cloud, m_part, leaf, seed=seed)
    t_loc = local.transform
    t_opt = optimize_rotation(o_all, recognition.seed, template.full_cloud, t_loc)
    final = icp(
        o_all, template.full_cloud, init=t_opt @ t_loc, max_corr_dist=3.0 * leaf
    )
    t_total = final.transform
    t_icp = t_total @ (t_opt @ t_loc).inverse()
    return RegistrationResult(
        t_loc=t_loc,
        t_opt=t_opt,
        t_icp=t_icp,
        t_total=t_total,
        fitness=final.fitness,
        rmse=final.rmse,
        correspondence_count=final.correspondences,
        template_id=template.id,
    )


def best_registration(registrations: dict) -> str:
    """Template id with the highest final fitness (first wins ties)."""
    if not registrations:
        raise RegistrationFailureError("no successful registrations")
    best_id, best_fit = None, -1.0
    for tid, reg in registrations.items():
        if reg.fitness > best_fit:
            best_id, best_fit = tid, reg.fitness
    return best_id
