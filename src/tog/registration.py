"""Aligning the observed object to a template, part first.

The observed cloud is registered in three stages: the recognized part is
aligned to the template part (descriptor RANSAC plus ICP, retried until
enough correspondences hold; pairs are found once per part pair, and inliers
measured exactly only where a matmul bound is in doubt), the whole cloud is
then rotated about the aligned seed over a fixed grid to resolve part-level
ambiguity (an exact search that bounds every rotation from a distance field
over the template and finishes only the rotations that can still win), and a
final whole-cloud ICP refines the pose. The total transform maps observed
(camera-frame) points into the template frame.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np
from scipy import ndimage
from scipy.sparse import csr_matrix
from scipy.spatial import cKDTree
from scipy.spatial.transform import Rotation

from .errors import (
    CoarseFailureError,
    EmptyCloudError,
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
_PAIR_BLOCK = 2**16  # point pairs whose angle features are held at once


@dataclass(frozen=True)
class IcpResult:
    """Absolute source-to-target transform with its final-pass statistics."""

    transform: RigidTransform
    fitness: float
    rmse: float
    correspondences: int
    rmse_history: tuple


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


def fpfh(cloud: PointCloud, radius: float) -> np.ndarray:
    """Fast point feature histograms (33 dims: 3 angle blocks of 11 bins).

    Normals are estimated from 15 neighbors and oriented away from the
    centroid. Simplified-histogram features per point are accumulated from
    its radius neighborhood, then blended with distance-weighted neighbor
    histograms and block-normalized to unit sum. The read-only result is
    cached on the cloud per radius, so registration retries compute it once.
    """
    return cloud.derived(("fpfh", radius), lambda: _fpfh(cloud, radius))


def _fpfh(cloud: PointCloud, radius: float) -> np.ndarray:
    n = len(cloud)
    if n < 3:
        raise InsufficientPointsError("descriptors need >= 3 points")
    normals = estimate_normals(cloud, k=min(15, n), orient_from=cloud.points.mean(axis=0))
    pairs = cloud.tree.query_pairs(radius, output_type="ndarray")
    i_idx = np.concatenate([pairs[:, 0], pairs[:, 1]])
    j_idx = np.concatenate([pairs[:, 1], pairs[:, 0]])
    order = np.lexsort((j_idx, i_idx))  # deterministic accumulation order
    i_idx, j_idx = i_idx[order], j_idx[order]

    spfh = np.zeros((n, 3 * FPFH_BINS))
    if len(i_idx):
        lo = np.array([[-1.0], [-1.0], [-np.pi]])  # alpha, phi and theta span [lo, -lo]
        bins = np.empty((3, len(i_idx)), dtype=np.uint8)
        dist, ok = np.empty(len(i_idx)), np.empty(len(i_idx), dtype=bool)
        for start in range(0, len(i_idx), _PAIR_BLOCK):
            part = slice(start, start + _PAIR_BLOCK)
            *angles, dist[part], ok[part] = _pair_features(
                cloud.points, normals, i_idx[part], j_idx[part]
            )
            scaled = (np.stack(angles) - lo) / (-2 * lo) * FPFH_BINS
            bins[:, part] = np.clip(scaled.astype(np.intp), 0, FPFH_BINS - 1)
        i_ok, j_ok, dist = i_idx[ok], j_idx[ok], dist[ok]
        for c, col in enumerate(bins[:, ok]):
            hist = np.bincount(i_ok * FPFH_BINS + col, minlength=n * FPFH_BINS)
            spfh[:, c * FPFH_BINS : (c + 1) * FPFH_BINS] = hist.reshape(n, FPFH_BINS)
        counts = np.bincount(i_ok, minlength=n).astype(np.float64)
        np.divide(spfh, counts[:, None], out=spfh, where=counts[:, None] > 0)

        # blend in neighbor histograms by inverse distance; each row sums in j order
        w = 1.0 / np.maximum(dist, 1e-9)
        feat = csr_matrix((w, j_ok, np.searchsorted(i_ok, np.arange(n + 1))), shape=(n, n)) @ spfh
        has = counts > 0
        feat[has] /= counts[has, None]
        spfh = spfh + feat

    out = spfh.reshape(n, 3, FPFH_BINS)
    sums = out.sum(axis=2, keepdims=True)
    out = np.divide(out, sums, out=np.zeros_like(out), where=sums > 0)
    out.setflags(write=False)
    return out.reshape(n, 3 * FPFH_BINS)


def _inlier_counts(rot, trans, src_pts, tgt_pts, inlier_dist) -> np.ndarray:
    """Per hypothesis, the pairs whose moved source lies within inlier_dist."""
    moved = np.einsum("mij,nj->mni", rot, src_pts) + trans[:, None, :]
    return (np.linalg.norm(moved - tgt_pts[None], axis=2) <= inlier_dist).sum(axis=1)


def _inlier_counter(src_pts, tgt_pts, inlier_dist):
    """Batch (rot, trans) -> (index, count) of its first hypothesis with the most inliers.

    A squared distance is [vec R, R^T t, t] @ coef + offset + |t|^2. With c the largest
    |coordinate|, a Kabsch fit has |t| <= 2 sqrt(3) c, so its terms sum in magnitude to at
    most 48 c^2 < 6 scale^2 and round off far inside margin.
    """
    qs = np.einsum("ni,nj->ijn", tgt_pts, src_pts).reshape(9, -1)
    coef = np.vstack([-2.0 * qs, 2.0 * src_pts.T, -2.0 * tgt_pts.T])
    offset = (src_pts**2).sum(axis=1) + (tgt_pts**2).sum(axis=1)
    scale = 1.0 + inlier_dist + 3.0 * max(np.abs(src_pts).max(), np.abs(tgt_pts).max())
    margin, thr2 = 1e-9 * scale**2, inlier_dist**2

    def best(rot, trans):
        d2 = np.hstack([rot.reshape(-1, 9), np.einsum("mji,mj->mi", rot, trans), trans]) @ coef
        d2 += offset
        d2 += (trans**2).sum(axis=1)[:, None]
        upper = (d2 <= thr2 + margin).sum(axis=1)
        doubt = np.flatnonzero(upper >= (d2 <= thr2 - margin).sum(axis=1).max())
        exact = _inlier_counts(rot[doubt], trans[doubt], src_pts, tgt_pts, inlier_dist)
        top = int(np.argmax(exact))
        return int(doubt[top]), int(exact[top])
    return best


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
    seed reproduces the same alignment. Descriptor pairs are cached on the
    source per radius and target, so retries skip the descriptor search.
    Each batch's inliers are bounded from one matmul of squared distances and
    measured exactly only for the hypotheses the bound leaves able to win.
    """
    if len(source) < 10 or len(target) < 10:
        raise InsufficientPointsError("coarse alignment needs >= 10 points per cloud")
    rng = np.random.default_rng(rng)
    radius = 5.0 * leaf
    inlier_dist = 1.5 * leaf
    src_feat, tgt_feat = fpfh(source, radius), fpfh(target, radius)
    nearest = source.derived(
        ("fpfh-pairs", radius, target), lambda: cKDTree(tgt_feat).query(src_feat, workers=-1)[1]
    )
    src_pts, tgt_pts = source.points, target.points[nearest]
    n_pairs = len(nearest)
    best_of = _inlier_counter(src_pts, tgt_pts, inlier_dist)

    best = None  # (count, transform)
    tried = 0
    needed = MAX_RANSAC_HYPOTHESES
    batch = 1024
    while tried < min(needed, MAX_RANSAC_HYPOTHESES):
        m = min(batch, MAX_RANSAC_HYPOTHESES - tried)
        sel = rng.integers(0, n_pairs, size=(m, 3))
        tried += m
        prev = sel[:, [2, 0, 1]]  # edge i joins vertex i to vertex i - 1
        # edge lengths summed x², y², z² in order: np.linalg.norm(..., axis=2) bit for bit
        s_edges = np.sqrt(sum((plane[sel] - plane[prev]) ** 2 for plane in src_pts.T))
        t_edges = np.sqrt(sum((plane[sel] - plane[prev]) ** 2 for plane in tgt_pts.T))
        # a repeated index gives a zero edge, which the 1e-9 gates reject
        good = (
            (s_edges > 1e-9)
            & (t_edges > 1e-9)
            & (t_edges >= EDGE_RATIO * s_edges)
            & (s_edges >= EDGE_RATIO * t_edges)
        ).all(axis=1)
        if not good.any():
            continue
        sel = sel[good]
        s3, t3 = src_pts[sel], tgt_pts[sel]  # (m, 3, 3)
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
        top, count = best_of(rot, trans)
        if count >= 3 and (best is None or count > best[0]):
            best = (count, RigidTransform(rot[top], trans[top]))
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


_CHUNKS = 16  # strided point chunks of the progressive-bound rotation search
_FIELD_CELLS = 52  # distance-field cells along the template's longest side
_GROUP_CELLS = 18  # point-group cells along the observed cloud's longest side
_BOUND_ENTRIES = 2**13  # rotated points whose field bounds are held at once


class _DistanceField(NamedTuple):
    """Lower bounds on the distance from a cloud's voxel centres to the cloud.

    Cell (i, j, k) starts at lo + (i, j, k) * spacing. It holds the Euclidean
    distance transform of the empty cells (its centre to the nearest
    occupied cell's centre) less half a cell diagonal, so no point of the
    cloud is nearer its centre than that. `lo` and `hi` are the cloud's
    bounding box.
    """

    values: np.ndarray
    spacing: float
    lo: np.ndarray
    hi: np.ndarray


def _distance_field(cloud: PointCloud) -> _DistanceField:
    """The cloud's field, in cells 1/52 of its longest side across."""
    if len(cloud) == 0:
        raise EmptyCloudError("cannot build a distance field over an empty cloud")
    pts = cloud.points
    lo, hi = pts.min(axis=0), pts.max(axis=0)
    spacing = float((hi - lo).max()) / _FIELD_CELLS or 1.0
    empty = np.ones(((hi - lo) / spacing).astype(np.intp) + 1, dtype=bool)
    empty[tuple(((pts - lo) / spacing).astype(np.intp).T)] = False
    edt = ndimage.distance_transform_edt(empty, sampling=spacing)
    return _DistanceField(edt - 0.5 * np.sqrt(3.0) * spacing, spacing, lo, hi)


def _field_bounds(mats, pts, pivot, field: _DistanceField, out=None) -> np.ndarray:
    """(len(mats), len(pts)) lower bounds on the rotated points' distances, into `out` if given.

    For any cell c, a point p is at least values[c] - |p - centre(c)| from
    the cloud (the triangle inequality), and at least its distance to the
    cloud's box. c is p's own cell or, off the grid, the nearest edge cell.
    Rotations are taken a block at a time, so temporaries stay small.
    """
    out = np.empty((len(mats), len(pts))) if out is None else out
    lo, hi = field.lo[:, None], field.hi[:, None]
    top = np.array(field.values.shape)[:, None] - 1
    step = max(1, _BOUND_ENTRIES // len(pts))
    for start in range(0, len(mats), step):
        block = slice(start, start + step)
        planes = (mats[block].reshape(-1, 3) @ pts.T).reshape(-1, 3, len(pts))
        planes += pivot[:, None]
        cell = np.clip(np.floor((planes - lo) / field.spacing), 0, top)
        offset = planes - (lo + (cell + 0.5) * field.spacing)
        idx = cell.astype(np.intp)
        near = field.values[idx[:, 0], idx[:, 1], idx[:, 2]]
        near -= np.sqrt((offset**2).sum(axis=1))
        outside = planes - np.clip(planes, lo, hi)
        out[block] = np.maximum(near, np.sqrt((outside**2).sum(axis=1)))
    return out


def _group_bounds(mats, pts, pivot, field: _DistanceField) -> np.ndarray:
    """(len(mats),) lower bounds on the sums of the rotated points' distances.

    The points are grouped into cells 1/18 of their longest side across. A
    rotation keeps a group within its radius r of its rotated centroid q,
    and the distance is 1-Lipschitz, so count * max(bound(q) - r, 0) bounds
    the group's sum.
    """
    lo = pts.min(axis=0)
    size = float((pts.max(axis=0) - lo).max()) / _GROUP_CELLS or 1.0
    cell = ((pts - lo) / size).astype(np.intp) @ (_GROUP_CELLS + 1) ** np.arange(3)
    _, group, count = np.unique(cell, return_inverse=True, return_counts=True)
    centroid = np.stack([np.bincount(group, weights=plane) for plane in pts.T], axis=1)
    centroid /= count[:, None]
    radius = np.zeros(len(count))
    np.maximum.at(radius, group, np.linalg.norm(pts - centroid[group], axis=1))
    bounds = _field_bounds(mats, centroid, pivot, field) - radius
    return (count * np.maximum(bounds, 0.0)).sum(axis=1)


def _nn_distances(mats, base, pivot, target: PointCloud) -> np.ndarray:
    """(len(mats), len(base)) distances from each rotated point to the target."""
    rotated = np.einsum("mij,nj->mni", mats, base) + pivot
    d, _ = target.tree.query(rotated.reshape(-1, 3), workers=-1)
    return d.reshape(len(mats), len(base))


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
    entry; then every entry of each rotation scoring within `tol` = 1e-9
    (relative to the coordinate and objective scale) of the best is scored
    itself and ranked by the order above. The distance is 1-Lipschitz, so
    that set holds the full grid's winner, and the result is bitwise the one
    a search over all 512 entries returns.

    The 208 objectives are bounded before they are computed, from a
    distance field over the template (`_DistanceField`: the distance
    transform of chamfer matching, Borgefors 1988), built once per template
    cloud and cached on it. The search runs in four steps:

    1. Every rotation is bounded from groups of the observed points
       (`_group_bounds`).
    2. The rotation with the smallest group bound is scored on all points,
       and its objective is `upper`. A rotation whose bound sum exceeds
       n * (upper + 2 * tol(upper)) is dropped.
    3. Every other rotation gets a bound per point (`_field_bounds`), and is
       then scored on 16 strided chunks of the points in turn (chunk c is
       points c::16). Its exact distances on the chunks scored so far plus
       its point bounds on the rest are its running bound, dropped as in
       step 2.
    4. The rotations left have been scored on every point and give the set
       above. Since best <= upper, a dropped rotation's objective exceeds
       best + tol by at least tol(upper), so it could never join that set.

    Rounding: every bound sum has n * 1e-9 * scale taken off before it is
    compared, where `scale` is 1 plus the largest coordinates of the points
    about the seed, of the seed and of the template. Computed exactly, no
    bound exceeds the distance the objective measures; in floats it can
    only by rounding. The bounds rotate points with one matrix product and
    the objective with an einsum, so the two differ by a few ulps of scale.
    A template point on a cell face may be binned one cell over, a few ulps
    outside the half diagonal. The cell centres, the transform's float64
    square roots, the norms and the group radii add a few ulps of scale
    each. All of that, and the rounding of the sums, stays far below
    1e-9 * scale per point. Each finished rotation's distances fill its
    row in original point order, and its objective is that row's mean,
    bitwise what scoring all its points at once gives. So the set, and the
    result, are the same as without bounds.
    """
    pivot = t_loc.apply(np.asarray(seed, dtype=np.float64).reshape(3))
    base = t_loc.apply(o_all.points) - pivot
    n = len(base)
    field = m_all.derived("distance-field", lambda: _distance_field(m_all))
    reach = np.abs([field.lo, field.hi]).max()
    scale = 1.0 + np.abs(base).max() + np.abs(pivot).max() + reach
    margin = n * 1e-9 * scale
    mats = _GRID_MATS[_GRID_FIRST]
    grouped = _group_bounds(mats, base, pivot, field) - margin
    lead = int(np.argmin(grouped))
    lead_dist = _nn_distances(mats[lead : lead + 1], base, pivot, m_all)[0]
    upper = lead_dist.mean()
    bound = n * (upper + 2e-9 * (scale + upper))
    live = np.flatnonzero(grouped <= bound)
    rows = np.append(lead, live[live != lead])  # the rotation of each row of dist
    dist = np.empty((len(rows), n))
    dist[0] = lead_dist
    _field_bounds(mats[rows[1:]], base, pivot, field, dist[1:])
    partial = dist.sum(axis=1) - margin
    live = np.flatnonzero(partial[1:] <= bound) + 1
    for c in range(min(_CHUNKS, n)):
        if not len(live):
            break
        chunk = slice(c, None, _CHUNKS)
        d = _nn_distances(mats[rows[live]], base[chunk], pivot, m_all)
        partial[live] += (d - dist[live, chunk]).sum(axis=1)
        dist[live, chunk] = d
        live = live[partial[live] <= bound]
    done = np.append(live, 0)
    per_class = dist[done].mean(axis=1)
    best = per_class.min()
    tol = 1e-9 * (scale + best)
    near = np.flatnonzero(np.isin(_GRID_CLASS, rows[done][per_class <= best + tol]))
    objectives = _nn_distances(_GRID_MATS[near], base, pivot, m_all).mean(axis=1)
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
    m_part = template.part(recognition.part_path)
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
