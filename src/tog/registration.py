"""Aligning the observed object to a template, part first.

The observed cloud is registered in three stages: the recognized part is
aligned to the template part (descriptor RANSAC plus ICP, retried until
enough correspondences hold; pairs are found once per part pair, and inliers
counted pair by pair only where a matmul bound is in doubt), the whole cloud is
then rotated about the aligned seed over a fixed grid to resolve part-level
ambiguity (an exact search that bounds every rotation from a distance field
over the template and finishes only the rotations that can still win), and a
final whole-cloud ICP refines the pose. The total transform maps observed
(camera-frame) points into the template frame.

The kernels skip repeated work and stay exact. ICP keeps a point's nearest
neighbour while a triangle-inequality certificate (nearest, second nearest,
drift since the last query, and a rounding margin) says it cannot have
changed, and queries only the rest. FPFH computes each unordered point
pair's offset once and takes the reverse pair's as its exact negation.
RANSAC draws each 1024-hypothesis batch by its own `rng.integers` call, but
gates (edge by edge, each edge only where the earlier ones held), fits and
counts a group of up to 8 batches at once (breadth-first, as preemptive
RANSAC scores hypotheses: Nister 2003), each starting before the hypotheses
still needed. A gated-out hypothesis counts -1, so it never wins. The
one-batch-at-a-time rule is then replayed over the group's own draws in
order, and the draws past its stopping point are discarded. Each fit is
computed per matrix (batched SVD, determinant and three-term products), so
grouping does not change it. Inliers are bounded from one matmul of squared
pair distances, whose terms sum in magnitude to under 6 scale^2 (scale = 1
plus the inlier distance plus 3 times the largest coordinate): in any
summation order it errs by under 17 u 6 scale^2 (u = 2^-53), far inside
the margin 1e-9 scale^2, and so does the dense norm test. So pairs within
thr^2 - margin are inliers and pairs past thr^2 + margin are not, a
hypothesis with no pair between the two has its count exactly, and pairs
are counted one by one only for the hypotheses whose bounds differ. None
of this moves a bit of any result. The 3-D kd-tree queries here run on the
calling thread: at a few thousand points, starting worker threads per call
cost more than they saved. The one exception is the 33-dimensional
descriptor pairing, at about 5 us a point against about 0.5 us for a 3-D
query: it runs on every core, and as each point is answered alone, its
pairs are the same.
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
from .geometry import PointCloud, RigidTransform, estimate_normals, fit_rigid, norms

MAX_ICP_ITERATIONS = 50
ICP_RELATIVE_TOLERANCE = 1e-6
MAX_RANSAC_HYPOTHESES = 100_000
RANSAC_CONFIDENCE = 0.999
EDGE_RATIO = 0.9
LOCAL_ATTEMPTS = 20
FPFH_BINS = 11
_PAIR_BLOCK = 2**16  # point pairs whose angle features are held at once
_BATCH = 1024  # RANSAC hypotheses per draw
_GROUP_BATCHES = 8  # RANSAC batches gated, fitted and counted at once
_HYPOTHESIS_PAIRS = 2**16  # hypothesis-pair distances held at once


@dataclass(frozen=True)
class IcpResult:
    """Absolute source-to-target transform with its final-pass statistics."""

    transform: RigidTransform
    fitness: float
    rmse: float
    correspondences: int
    rmse_history: tuple


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

    A point's nearest neighbour is kept from pass to pass while a
    certificate says it cannot have changed (cached nearest-neighbour
    search for ICP: Greenspan & Godin 2001; Nüchter et al. 2007). When a
    point is queried (k = 2) at its anchor position a, it stores its nearest
    target point j and the distances d1 <= d2 to its nearest and second
    nearest. On a later pass it has drifted by delta = |p - a|. By the
    triangle inequality, j is still its strictly nearest target point while
    d1 + 2 delta + eps < d2. No target point is within max_corr_dist while
    d1 - delta > max_corr_dist + eps. Every other point is queried again
    and re-anchored. Where d1 == d2 the index comes from a k = 1 query, so
    ties break as the kd-tree breaks them. Each distance is then recomputed
    from j by `geometry.norms`, which sums as the kd-tree does, so inliers,
    RMSE and fit are bitwise those of querying every point on every pass.

    Rounding: eps = 1e-9 * scale, where scale is 1 plus the largest
    |coordinate| of the target and of every moved point so far (anchors
    included). Every distance involved is at most 2 sqrt(3) scale. Each
    computed d1, d2, delta and kd-tree distance is within a few ulps of its
    exact value, about 1e-15 scale. So a kept j is exactly nearer than any
    other target point by far more than the kd-tree's rounding, and a
    rejected point's computed distance to any target point, j included,
    exceeds max_corr_dist.
    """
    if len(source) < 3 or len(target) < 3:
        raise InsufficientPointsError("icp needs >= 3 points on both sides")
    if not max_corr_dist > 0:  # NaN included
        raise ValueError("max_corr_dist must be positive")
    current = init if init is not None else RigidTransform.identity()
    src, tgt = source.points, target.points
    anchor = np.zeros_like(src)
    d12 = np.full((len(src), 2), np.nan)  # NaN certifies nothing, so pass one queries all
    near = np.zeros(len(src), dtype=np.intp)
    scale = 1.0 + np.abs(tgt).max()
    history: list[float] = []
    accepted = None  # (transform, count, rmse) of the best accepted iterate
    for _ in range(MAX_ICP_ITERATIONS + 1):
        moved = current.apply(src)
        scale = max(scale, 1.0 + np.abs(moved).max())
        eps = 1e-9 * scale
        drift = norms((moved - anchor).T)
        kept = d12[:, 0] + 2 * drift + eps < d12[:, 1]
        rejected = d12[:, 0] - drift > max_corr_dist + eps
        stale = np.flatnonzero(~(kept | rejected))
        if len(stale):
            anchor[stale] = moved[stale]
            d12[stale], pair = target.tree.query(moved[stale], k=2)
            near[stale] = pair[:, 0]
            tied = stale[d12[stale, 0] == d12[stale, 1]]
            if len(tied):
                near[tied] = target.tree.query(moved[tied])[1]
        d = norms((moved - tgt[near]).T)
        inlier = d <= max_corr_dist
        count = int(inlier.sum())
        if count < 3:
            raise RegistrationFailureError(
                f"only {count} correspondences within {max_corr_dist:.4g} m", stage="icp"
            )
        rmse = float(np.sqrt(np.mean(d[inlier] ** 2)))
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
        current = fit_rigid(src[inlier], tgt[near[inlier]])
    fitness = count / len(source)
    return IcpResult(current, float(fitness), float(rmse), count, tuple(history))


def _cross(a, b):
    """Cross products of (3, m) coordinate planes, as np.cross forms them."""
    return np.stack(
        [a[1] * b[2] - a[2] * b[1], a[2] * b[0] - a[0] * b[2], a[0] * b[1] - a[1] * b[0]]
    )


def _dot(a, b):
    """Dot products of (3, m) coordinate planes, summed x, z, then y as np.einsum sums them."""
    return (a[0] * b[0] + a[2] * b[2]) + a[1] * b[1]


def _pair_bins(d_hat, u, n_other):
    """Angle-feature bins (3, m) and valid mask of directed pairs, as coordinate planes.

    `d_hat` is the unit offset from each pair's first point to its second,
    `u` the first point's normal and `n_other` the second's (Darboux frame).
    """
    v = _cross(d_hat, u)
    v_norm = norms(v)
    ok = v_norm > 1e-12
    np.divide(v, v_norm, out=v, where=ok)
    w = _cross(u, v)
    bins = np.empty((3, len(ok)), dtype=np.uint8)
    # alpha and phi span [-1, 1], theta [-pi, pi]
    angles = (_dot(v, n_other), _dot(u, d_hat), np.arctan2(_dot(w, n_other), _dot(u, n_other)))
    for row, angle, lo in zip(bins, angles, (-1.0, -1.0, -np.pi)):
        row[:] = np.clip(((angle - lo) / (-2 * lo) * FPFH_BINS).astype(np.intp), 0, FPFH_BINS - 1)
    return bins, ok


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
    normals = estimate_normals(cloud)
    normals, pts = np.ascontiguousarray(normals.T), np.ascontiguousarray(cloud.points.T)
    first, second = cloud.tree.query_pairs(radius, output_type="ndarray").T
    m = len(first)

    spfh = np.zeros((n, 3 * FPFH_BINS))
    if m:
        # each unordered pair's offset, length and direction are computed once;
        # the reverse pair's are their exact negations, fl(a - b) = -fl(b - a)
        bins = np.empty((3, 2, m), dtype=np.uint8)  # angle, direction, pair
        ok, dist = np.empty((2, m), dtype=bool), np.empty(m)
        for start in range(0, m, _PAIR_BLOCK):
            part = slice(start, start + _PAIR_BLOCK)
            i, j = first[part], second[part]
            d = np.take(pts, j, axis=1) - np.take(pts, i, axis=1)
            dist[part] = norms(d)
            # a coincident pair keeps a zero direction, which `_pair_bins` rejects
            d_hat = np.divide(d, dist[part], out=np.zeros_like(d), where=dist[part] > 1e-12)
            n_i, n_j = np.take(normals, i, axis=1), np.take(normals, j, axis=1)
            bins[:, 0, part], ok[0, part] = _pair_bins(d_hat, n_i, n_j)
            bins[:, 1, part], ok[1, part] = _pair_bins(-d_hat, n_j, n_i)
        keep = ok.reshape(-1)  # directed pairs i -> j, then j -> i
        i_ok = np.concatenate([first, second])[keep]
        j_ok = np.concatenate([second, first])[keep]
        for c, col in enumerate(bins.reshape(3, -1)[:, keep]):
            hist = np.bincount(i_ok * FPFH_BINS + col, minlength=n * FPFH_BINS)
            spfh[:, c * FPFH_BINS : (c + 1) * FPFH_BINS] = hist.reshape(n, FPFH_BINS)
        counts = np.bincount(i_ok, minlength=n).astype(np.float64)
        np.divide(spfh, counts[:, None], out=spfh, where=counts[:, None] > 0)

        # blend in neighbor histograms by inverse distance; each row sums in j order
        order = np.argsort(i_ok * n + j_ok)  # the keys are unique: np.lexsort's order
        i_ok, j_ok = i_ok[order], j_ok[order]
        dist = np.concatenate([dist, dist])[keep][order]
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
    """(rot, trans) -> every hypothesis's exact inlier count.

    A squared distance is [vec R, R^T t, t, 1, |t|^2] @ coef. With c the largest
    |coordinate|, a Kabsch fit has |t| <= 2 sqrt(3) c, so its terms sum in magnitude to at
    most 48 c^2 < 6 scale^2 and round off far inside margin. Pairs within thr^2 - margin
    are inliers and pairs past thr^2 + margin are not, so a hypothesis whose two bounds
    agree has that count, and the others are counted pair by pair.
    """
    qs = np.einsum("ni,nj->ijn", tgt_pts, src_pts).reshape(9, -1)
    offset = (src_pts**2).sum(axis=1) + (tgt_pts**2).sum(axis=1)
    coef = np.vstack([-2.0 * qs, 2.0 * src_pts.T, -2.0 * tgt_pts.T, offset, np.ones_like(offset)])
    scale = 1.0 + inlier_dist + 3.0 * max(np.abs(src_pts).max(), np.abs(tgt_pts).max())
    margin, thr2 = 1e-9 * scale**2, inlier_dist**2
    rows = max(1, _HYPOTHESIS_PAIRS // len(offset))

    def counts(rot, trans):
        value = np.empty(len(rot), dtype=np.intp)
        for start in range(0, len(rot), rows):
            r, t = rot[start : start + rows], trans[start : start + rows]
            terms = [r.reshape(-1, 9), np.einsum("mji,mj->mi", r, t), t, np.ones((len(r), 1))]
            d2 = np.hstack(terms + [(t**2).sum(axis=1)[:, None]]) @ coef
            low = np.count_nonzero(d2 <= thr2 - margin, axis=1)
            doubt = np.flatnonzero(np.count_nonzero(d2 <= thr2 + margin, axis=1) > low)
            low[doubt] = _inlier_counts(r[doubt], t[doubt], src_pts, tgt_pts, inlier_dist)
            value[start : start + rows] = low
        return value
    return counts


def coarse_align(
    source: PointCloud,
    target: PointCloud,
    leaf: float,
    rng=0,
) -> RigidTransform:
    """Descriptor-driven RANSAC alignment of source onto target.

    Histograms at 5x leaf radius pair each source point with its nearest
    target descriptor; 3-point hypotheses must pass a 0.9 edge-length ratio
    gate, and inliers are correspondence pairs within 1.5x leaf after the
    hypothesis transform. Sampling is driven entirely by ``rng``, so a fixed
    seed reproduces the same alignment (a Generator passed in may be left
    past the draws the result used). Descriptor pairs are cached on the
    source per radius and target, so retries skip the descriptor search.

    Hypotheses are drawn in batches of 1024, up to `MAX_RANSAC_HYPOTHESES`.
    A batch's first hypothesis with the most inliers replaces the best so far
    when it has strictly more (and at least 3), and each replacement lowers
    the hypotheses needed to the RANSAC confidence estimate, or to those
    tried when every pair is an inlier; the search stops once that many have
    been tried. A group of up to `_GROUP_BATCHES` batches, each starting
    before the hypotheses needed, is drawn, gated and counted at once, a
    gated-out hypothesis counting -1. The rule is then replayed over the
    group's draws batch by batch, so the draws past its stop are discarded.
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
    count_of = _inlier_counter(src_pts, tgt_pts, inlier_dist)
    ends_at = np.vstack([src_pts.T, tgt_pts.T])  # each pair's two points, as coordinate planes

    best = None  # (count, transform)
    tried, needed = 0, MAX_RANSAC_HYPOTHESES
    while tried < needed:
        starts = range(tried, needed, _BATCH)[:_GROUP_BATCHES]
        sizes = [min(_BATCH, MAX_RANSAC_HYPOTHESES - start) for start in starts]
        sel = np.concatenate([rng.integers(0, n_pairs, size=(m, 3)) for m in sizes])
        keep = np.arange(len(sel))
        for i in range(3):  # edge i joins vertex i to vertex i - 1, gated where the others held
            d = np.take(ends_at, sel[keep, i], axis=1) - np.take(ends_at, sel[keep, i - 1], axis=1)
            s_edge, t_edge = norms(d[:3]), norms(d[3:])
            # a repeated index gives a zero edge, which the 1e-9 gates reject
            keep = keep[
                (s_edge > 1e-9)
                & (t_edge > 1e-9)
                & (t_edge >= EDGE_RATIO * s_edge)
                & (s_edge >= EDGE_RATIO * t_edge)
            ]
        counts = np.full(len(sel), -1)  # a gated-out hypothesis never wins its batch
        if len(keep):
            s3, t3 = src_pts[sel[keep]], tgt_pts[sel[keep]]  # (m, 3, 3)
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
            counts[keep] = count_of(rot, trans)
        for lo, m in zip(range(0, len(sel), _BATCH), sizes):  # replay batch by batch
            top = lo + int(np.argmax(counts[lo : lo + m]))
            count = int(counts[top])
            tried += m
            if count >= 3 and (best is None or count > best[0]):
                fit = np.searchsorted(keep, top)
                best = (count, RigidTransform(rot[fit], trans[fit]))
                ratio = count / n_pairs
                if ratio < 1:
                    estimate = np.ceil(np.log(1 - RANSAC_CONFIDENCE) / np.log(1 - ratio**3))
                    needed = int(min(MAX_RANSAC_HYPOTHESES, estimate))
                else:
                    needed = tried
            if tried >= needed:
                break
    if best is None:
        raise CoarseFailureError(
            "no 3-point hypothesis reached 3 inliers", stage="coarse"
        )
    return best[1]


def register_local(
    o_part: PointCloud, m_part: PointCloud, leaf: float, seed: int = 0
) -> IcpResult:
    """Part-to-part alignment, retried until over half the points correspond.

    Each attempt runs coarse RANSAC with a fresh derived RNG stream followed
    by ICP at 1.5x leaf. Raises LocalRegistrationFailureError after 20 attempts.
    """
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
    raise LocalRegistrationFailureError(
        f"no attempt exceeded {len(o_part) // 2} correspondences "
        f"in {LOCAL_ATTEMPTS} tries" + (f" (last error: {failure})" if failure else ""),
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
    field = _DistanceField(edt - 0.5 * np.sqrt(3.0) * spacing, spacing, lo, hi)
    for values in (field.values, lo, hi):
        values.setflags(write=False)  # cached on the cloud, shared by later calls
    return field


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
    d, _ = target.tree.query(rotated.reshape(-1, 3))
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
    # each finished row of dist scored its class's first entry; score the rest
    score = np.full(len(_GRID_MATS), np.nan)
    score[_GRID_FIRST[rows[done]]] = per_class
    fresh = near[np.isnan(score[near])]
    score[fresh] = _nn_distances(_GRID_MATS[fresh], base, pivot, m_all).mean(axis=1)
    win = near[np.lexsort((near, _GRID_ANGLES[near], score[near]))[0]]
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


def register(o_all: PointCloud, recognition, template, seed: int = 0) -> RegistrationResult:
    """Full observed-to-template alignment through all three stages, at the template's leaf."""
    leaf = template.leaf
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
