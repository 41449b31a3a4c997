"""Finding a named functional part inside an observed partial cloud.

Every observed point seeds a candidate cluster (its k nearest neighbors,
with k scaled from the template's part-to-whole point ratio). Each cluster
is scored against each template part by three normalized dissimilarities:

* shape: distance between unit-normalized PCA spectra,
* dispersion: difference of normalized point-distance spreads around the
  seed (observed) and around the template part's center point (template),
* placement: difference of part-center offsets relative to the whole
  object, in units of the whole's half bounding-box diagonal.

The seed with the lowest mean combined score across templates wins.

Scene clusters, template parts (gathered about their reference point,
nearer points first) and the public `d_pca`, `d_ppd` and `d_ccd` take the
three statistics from one batched routine, `_cluster_stats`, so a template
part scored as a cluster against itself comes out exactly 0. It reads each
cluster as three coordinate planes (one contiguous row per axis), shifted
to the cluster's seed (column 0), and walks the distinct cluster sizes in
ascending order. Each segment of columns adds to running sums of the
shifted coordinates, their six products, the distances and their squares,
and to per-axis running minima and maxima (shifted sums combined across
segments: Chan, Golub & LeVeque 1983). At each k the statistics are read
off the sums: the scatter S2 - S1 S1^T / k gives the spectrum by a batched
3x3 `eigvalsh`; the distance sums give the spread's mean and std, and its
largest deviation comes from the nearest other member (column 1) and the
farthest (column k - 1); the box comes from the running extremes, exactly.

Rounding: summing k terms in any order errs by at most k u / (1 - k u)
times the sum of their magnitudes (Higham 2002, 4.2; u = 2^-53). With T
the sum of squared shifted lengths, every scatter entry is then within
(3 k + 6) u T of the exact scatter of the shifted points, and, granting
`eigvalsh` a backward error below 64 u T, each eigenvalue lam is within
delta = (10 k + 100) u T (Weyl). A singular value read as sqrt(lam) is off
by at most delta / sqrt(lam) + u sqrt(lam), and the unit spectrum by twice
the norm of those errors over the spectrum's norm. (Shifting rounds each
coordinate by at most u times its length, which moves the spectrum by at
most u sqrt(T), far inside that bound.) The spread's variance is within
(4 k + 16) u times the mean squared distance, and its mean within
(k + 4) u times itself. Where the bound cannot hold a row's unit spectrum
or spread to `_STATS_TOL` (1e-10), that statistic is recomputed by the QR
route (`singular_values_batch`) or by the two-pass mean and deviations.
Planar, collinear and 3-point clusters, whose smallest sqrt(lam) may be
off by about sqrt(u) of the largest, always fail the bound, so they keep a
smallest value within rounding of zero; equidistant and coincident
clusters fail it too, and keep the two-pass NaN decisions.

Blocks of seeds are scored on a thread pool, shared by every template:
per block, one exact (block, n) matrix d2 of `geometry.squared_distances`,
the rule `knn` sorts by, and every distance of the block is read from it
(template parts take theirs the same way). In each row of a selection
from it, each template's k nearest points are the prefix ``[:, :k]``,
unordered, and columns k - 1 and k hold the kth and (k+1)th distances. The statistics are
read from the smaller side of that partition, a choice that depends only on
the templates' ks and n, and each route selects no more than it reads:
`_select` does one `np.argpartition` of the full rows at a single kth, then
one of the columns on its side alone at the kth values it needs, and
returns the side's indices and d2, from which the route reads every order
statistic (numpy's selection is introselect: Musser 1997):

* near route (`_near_block`), where k_max < n - k_min: `_select` at kth
  k_max keeps the k_max + 1 nearest and partitions them at kth 0, 1, every
  k - 1 and k, so column 0 is at distance 0 (the seed, or an exact copy of
  it) and the dispersion term reads ``[:, 1:k]``. The coordinates of the
  largest prefix, the square roots of its d2 and one pass of
  `_cluster_stats` over them give the statistics at every template's k;
* far route (`_far_block`), otherwise: `_select` at kth k_min - 1 keeps the
  n - k_min + 1 columns after the k_min - 1 nearest and partitions them at
  every k - 1 and k. A cluster is the whole cloud minus its far side
  ``[:, k:]``. Sums over disjoint sets combine exactly in arithmetic, so
  each k's member sums are whole-cloud totals minus the sums of the far
  columns, gathered once for k_min and walked from the far end. The
  coordinates are centred once per scene on their mean (the scatter does
  not depend on the origin, and the centred sum of squares G is the
  smallest of any origin); the distance totals are the row sums of sqrt(d2)
  and d2. A member's box minimum along an axis is the first point, in the
  cloud's order along that axis, that is no far point, and it lies among
  the first n - k + 1 entries (there are n - k far points); the maximum is
  the same on the reversed order. The nearest other member's distance
  (column 1 on the near route) is the row minimum of d2 with the seed's own
  column masked, which is the second order statistic; column k - 1's, and
  the far columns', are read from the selection.

Far-route rounding: each whole or far sum of coordinate products errs by at
most n u G, so a member sum by (2 n + 1) u G, and a member coordinate sum
by 2 n u sqrt(n G); with |member coordinate sum| <= sqrt(k G), every entry of
the member scatter is within (6 n + 4) sqrt(n / k) u G, and each eigenvalue
within delta = (20 n + 100) sqrt(n / k) u G (three times the entry bound,
plus the same 64 u G granted to `eigvalsh`). With A1 and A2 the whole plus
far sums of the distances and of the squared distances (each term within
4 u and 5 u of itself), the spread's mean is within e = (n + 5) u A1 /
(k - 1), its variance within (n + 9) u A2 / (k - 1) + (2 mean + 3 e) e, and
its largest deviation within e + 4 u times column k - 1's distance, plus
its own rounding. Rows these bounds cannot hold to `_STATS_TOL` (flat,
equidistant or coincident clusters, and small k where the subtraction
cancels) take the near route for that k: `_cluster_stats` of their members,
the prefix ``[:, :k]`` of a full partition of their own rows (kth 0, 1,
every k - 1 and k), with its own bound and fallbacks.

On either route, a row whose kth and (k+1)th distances (columns k - 1 and
k of the selection) tie takes as members the first k of a stable sort of
its own d2, which is `knn`'s rule (sorted, so its columns are in the same
places), is gathered the same way and scored by the same `_cluster_stats`,
so every member set equals `knn`'s. No step queries a kd-tree.
"""

from __future__ import annotations

import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from functools import partial
from typing import TYPE_CHECKING

import numpy as np

from .errors import (
    DegenerateClusterError,
    DegenerateTemplateError,
    EmptyCloudError,
    InsufficientPointsError,
    RecognitionFailureError,
    SchemaError,
)
from .geometry import (
    PointCloud,
    aabb,
    knn,
    knn_boundary_ties,
    singular_values_batch,
    squared_distances,
)

if TYPE_CHECKING:
    from .templates import Template


def cluster_size_from_counts(n_obj_all: int, n_tpl_part: int, n_tpl_all: int) -> int:
    """Cluster size from raw point counts: round half up, clamp to [3, n_obj].

    Exact integer arithmetic; (2ab + c) // 2c == floor(ab/c + 1/2).
    """
    if n_tpl_all <= 0:
        raise DegenerateTemplateError("template whole cloud is empty")
    if n_tpl_part <= 0:
        raise DegenerateTemplateError("template part cloud is empty")
    if n_obj_all < 3:
        raise InsufficientPointsError(
            f"observed cloud has {n_obj_all} points, need >= 3"
        )
    k = (2 * n_obj_all * n_tpl_part + n_tpl_all) // (2 * n_tpl_all)
    return min(max(k, 3), n_obj_all)


def d_pca(o_part: PointCloud, m_part: PointCloud) -> float:
    """Shape dissimilarity: distance between unit-normalized PCA spectra."""
    spectra = []
    for cloud in (o_part, m_part):
        if len(cloud) < 3:
            raise InsufficientPointsError(f"PCA needs at least 3 points, got {len(cloud)}")
        spectra.append(_stats_about(cloud, 0, cloud)[0])
    if np.isnan(spectra).any():
        raise DegenerateClusterError("all points coincident, PCA spectrum is zero")
    return float(np.linalg.norm(spectra[0] - spectra[1]))


def part_reference_index(m_part: PointCloud) -> int:
    """Index of the part point nearest the part's own box center."""
    return knn(m_part, aabb(m_part).center, 1)[0]


def d_ppd(o_part: PointCloud, seed, m_part: PointCloud) -> float:
    """Dispersion dissimilarity around seed (observed) vs center (template).

    Distances run from the reference to all *other* points: the first
    point at the seed's exact coordinates (the seed itself, or a copy of
    it) is left out, which leaves the same distances as leaving out the
    seed by index. A seed that is no point of ``o_part`` leaves out none.
    """
    seed = np.asarray(seed, dtype=np.float64).reshape(3)
    own = np.flatnonzero(np.all(o_part.points == seed, axis=1))
    if not len(own):  # the seed counts as one more point, at distance 0
        o_part, own = PointCloud(np.vstack([seed, o_part.points])), [0]
    spreads = (
        _stats_about(o_part, own[0], o_part)[1],
        _stats_about(m_part, part_reference_index(m_part), m_part)[1],
    )
    if np.isnan(spreads).any():
        raise DegenerateClusterError(
            "a distance spread needs two other points, not all equidistant"
        )
    return float(abs(spreads[0] - spreads[1]))


def d_ccd(o_all: PointCloud, o_part: PointCloud, m_all: PointCloud, m_part: PointCloud) -> float:
    """Placement dissimilarity: relative part-center offsets within wholes.

    Built on axis-aligned boxes, so it is exactly invariant under
    translation, uniform scaling, and axis-permuting rotations, but not
    under arbitrary rotation of one cloud.
    """
    ratios = (_stats_about(o_part, 0, o_all)[2], _stats_about(m_part, 0, m_all)[2])
    if np.isnan(ratios).any():
        raise DegenerateClusterError("whole cloud has zero bounding-box diagonal")
    return float(abs(ratios[0] - ratios[1]))


@dataclass
class RecognitionResult:
    """The winning cluster and its per-template scores."""

    part_cloud: PointCloud
    seed: np.ndarray
    seed_index: int
    members: np.ndarray
    part_path: str
    per_template_scores: dict[str, float]
    winning_template_for_cluster: str
    mean_score: float
    seed_scores: np.ndarray = field(repr=False, default=None)


# seeds per block are sized so the (seeds, n) distance blocks of all pool
# workers together hold about this many entries
_BLOCK_ENTRIES = 2**18


@dataclass(frozen=True)
class _TemplateStats:
    template: "Template"
    k: int
    sigma_unit: np.ndarray
    spread: float
    center_ratio: float


def _template_stats(o_all: PointCloud, template: "Template", part_path: str) -> _TemplateStats:
    m_part = template.parts[part_path]
    k = cluster_size_from_counts(len(o_all), len(m_part), len(template.full_cloud))
    if len(m_part) < 3:
        raise DegenerateTemplateError(
            f"template '{template.id}' part '{part_path}' has {len(m_part)} points, need >= 3"
        )
    stats = _stats_about(m_part, part_reference_index(m_part), template.full_cloud)
    if np.isnan(np.hstack(stats)).any():
        raise DegenerateTemplateError(
            f"template '{template.id}' part '{part_path}' is degenerate: coincident"
            " points, all at one distance from its reference, or a whole with no extent"
        )
    return _TemplateStats(template, k, *stats)


def _gather_about(points: np.ndarray, ref: int):
    """All points as one cluster about point ``ref``, nearer points first.

    Returns its coordinates as (3, 1, n) planes and its (1, n) distances to
    ``ref``, the two arrays `_cluster_stats` takes.
    """
    order = np.r_[ref, np.delete(np.arange(len(points)), ref)]
    dist = np.sqrt(squared_distances(points, points[[ref]])[:, order])
    nearer = np.r_[0, 1 + np.argsort(dist[0, 1:], kind="stable")]
    # the fancy index leaves the planes strided, and `_cluster_stats` sums
    # them in that memory order: a contiguous copy would move the spectra
    return np.take(points.T, order[None], axis=1)[:, :, nearer], dist[:, nearer]


# the six distinct entries of a symmetric 3x3 matrix, and where each of its
# nine entries is read from
_PAIRS = np.array([[0, 0, 0, 1, 1, 2], [0, 1, 2, 1, 2, 2]])
_SYMMETRIC = np.array([[0, 1, 2], [1, 3, 4], [2, 4, 5]])
_U = np.finfo(np.float64).eps / 2  # unit roundoff
# the largest error a statistic read off the running sums may carry into a
# score term; rows the bound cannot hold to it are recomputed
_STATS_TOL = 1e-10


def _unit(sigma: np.ndarray) -> np.ndarray:
    norm = np.linalg.norm(sigma, axis=1)
    return sigma / np.where(norm > 0, norm, np.nan)[:, None]


def _certified_sigma(k: int, s1: np.ndarray, s2: np.ndarray, delta: np.ndarray):
    """(m, 3) singular values of the first k members from their sums, and the rows in doubt.

    ``delta`` bounds each eigenvalue's error (the module docstring's bound of
    the route that took the sums); a row is in doubt where it cannot hold
    the unit spectrum to `_STATS_TOL`.
    """
    scatter = s2 - s1[_PAIRS[0]] * (s1[_PAIRS[1]] / k)
    lam = np.linalg.eigvalsh(scatter[_SYMMETRIC].transpose(2, 0, 1))[:, ::-1]
    sigma = np.sqrt(np.maximum(lam, 0.0))
    err = np.divide(delta[:, None], sigma, out=np.full_like(sigma, np.inf), where=lam > 0)
    err += _U * sigma
    doubt = ~(2 * np.linalg.norm(err, axis=1) <= _STATS_TOL * np.linalg.norm(sigma, axis=1))
    return sigma, doubt


def _spectra(rel: np.ndarray, k: int, s1: np.ndarray, s2: np.ndarray) -> np.ndarray:
    """(m, 3) unit PCA spectra of the first k seed-relative members, from their sums."""
    if k < 3:  # at most a line: the QR route, which also gives the (m, k) shape
        return _unit(singular_values_batch(rel[:, :, :k]))
    delta = (10 * k + 100) * _U * (s2[0] + s2[3] + s2[5])
    sigma, doubt = _certified_sigma(k, s1, s2, delta)
    if doubt.any():
        sigma[doubt] = singular_values_batch(rel[:, doubt, :k])
    return _unit(sigma)


def _two_pass_spread(dist: np.ndarray) -> np.ndarray:
    # a lone point has no others: its own zero distance leaves a NaN spread
    others = dist[:, 1:] if dist.shape[1] > 1 else dist
    mean = others.mean(axis=1)
    std = others.std(axis=1)
    max_dev = np.abs(others - mean[:, None]).max(axis=1)
    return std / np.where(max_dev > 0, max_dev, np.nan)


def _certified_spread(mean, var, nearest, farthest, var_err, dev_err):
    """(m,) spreads from the mean and variance of the distances, and the rows in doubt.

    ``nearest`` and ``farthest`` are the distances of columns 1 and k - 1;
    ``var_err`` bounds the variance's error and ``dev_err`` that of the
    largest deviation before its own rounding (the module docstring's
    bounds of the route that took the sums).
    """
    std = np.sqrt(np.maximum(var, 0.0))
    max_dev = np.maximum(farthest - mean, mean - nearest)
    with np.errstate(divide="ignore", invalid="ignore"):
        spread = std / max_dev
        std_err = var_err / std + _U * std
        dev_err = dev_err + 2 * _U * max_dev
        doubt = ~(std_err / std + dev_err / max_dev <= _STATS_TOL / 2)
    return spread, doubt


def _spread(dist: np.ndarray, k: int, d1: np.ndarray, d2: np.ndarray) -> np.ndarray:
    """(m,) distance spreads of the first k members, from the sums of their distances."""
    if k < 3:  # fewer than two others: a NaN spread
        return _two_pass_spread(dist[:, :k])
    m = k - 1
    mean = d1 / m
    spread, doubt = _certified_spread(
        mean,
        d2 / m - mean**2,
        dist[:, 1],
        dist[:, k - 1],
        (4 * k + 16) * _U * (d2 / m),
        (k + 4) * _U * mean,
    )
    if doubt.any():
        spread[doubt] = _two_pass_spread(dist[doubt, :k])
    return spread


def _cluster_stats(coords: np.ndarray, dist: np.ndarray, ks, whole_box) -> list:
    """The three part statistics of m clusters at each size in ``ks``, NaN = degenerate.

    The arguments are the members' (3, m, k) coordinate planes and their
    (m, k) distances to column 0 (square roots of `squared_distances`), the
    distinct cluster sizes in ascending order and the box of the whole
    cloud. For every k, the first k columns hold the members: column 0 the
    seed or reference point (or a copy), column 1 the nearest other member
    and column k - 1 the farthest, as `np.argpartition` with kth 0, 1 and
    k - 1 leaves them. Returns one (sigma_unit, spread, ratios) per k: the
    (m, 3) unit PCA spectra, the (m,) spreads of the distances from column
    0 to the other members, std over largest deviation from their mean, and
    the (m,) offsets of the cluster box centers from the whole's, over its
    half diagonal.
    """
    m = coords.shape[1]
    rel = coords - coords[:, :, :1]
    s1, s2 = np.zeros((3, m)), np.zeros((6, m))
    d1, d2 = np.zeros(m), np.zeros(m)
    low, high = np.full((3, m), np.inf), np.full((3, m), -np.inf)
    out, done = [], 0
    for k in ks:
        seg = slice(done, k)
        part, d = rel[:, :, seg], dist[:, seg]
        s1 += part.sum(axis=2)
        for row, a, b in zip(s2, *_PAIRS):
            row += np.einsum("ij,ij->i", part[a], part[b])
        d1 += d.sum(axis=1)
        d2 += np.einsum("ij,ij->i", d, d)
        np.minimum(low, coords[:, :, seg].min(axis=2), out=low)
        np.maximum(high, coords[:, :, seg].max(axis=2), out=high)
        done = k
        ratios = _box_ratios(low, high, whole_box)
        out.append((_spectra(rel, k, s1, s2), _spread(dist, k, d1, d2), ratios))
    return out


def _box_ratios(low: np.ndarray, high: np.ndarray, whole_box) -> np.ndarray:
    """(m,) offsets of the (3, m) boxes' centers from the whole's, over its half diagonal."""
    centers = 0.5 * (low + high).T
    offsets = np.linalg.norm(centers - whole_box.center, axis=1)
    return offsets / (whole_box.half_diagonal or np.nan)  # NaN: whole of no extent


def _stats_about(part: PointCloud, ref: int, whole: PointCloud) -> list:
    """`_cluster_stats` of all of ``part`` as one cluster about its point ``ref``."""
    if len(part) == 0:
        raise EmptyCloudError("part statistics of an empty cloud")
    stats = _cluster_stats(*_gather_about(part.points, ref), [len(part)], aabb(whole))[0]
    return [stat[0] for stat in stats]


def _score(cluster: tuple, stats: _TemplateStats) -> np.ndarray:
    """Combined scores of m clusters' `_cluster_stats` against one template, NaN = degenerate."""
    sigma_unit, spread, ratios = cluster
    return (
        np.linalg.norm(sigma_unit - stats.sigma_unit, axis=1)
        + np.abs(spread - stats.spread)
        + np.abs(ratios - stats.center_ratio)
    )


def _restate(stats: tuple, points, d2, rows, members, whole_box) -> None:
    """Overwrite ``rows`` of one k's statistics with `_cluster_stats` of their ``members``.

    ``members`` holds the rows' (m, k) point indices, the seed (or a copy)
    first; their distances are the square roots of the block's d2.
    """
    coords = np.take(points.T, members, axis=1)
    dist = np.sqrt(np.take_along_axis(d2[rows], members, axis=1))
    fixed = _cluster_stats(coords, dist, [members.shape[1]], whole_box)
    for stat, fix in zip(stats, fixed[0]):
        stat[rows] = fix


def _select(d2: np.ndarray, split: int, side: slice, kth: np.ndarray):
    """(m, side) point indices and their d2, in a route's order.

    One single-kth `np.argpartition` of the full rows at ``split`` keeps
    only the ``side`` columns, which are then partitioned by their d2 at
    ``kth`` (full-row column numbers, shifted here to the side's start). So
    every column in ``kth`` is at its order statistic, with the nearer ones
    before it. The side is copied out at once, so the full rows' index
    array is freed before anything else is allocated.
    """
    idx = np.argpartition(d2, split, axis=1)[:, side].copy()
    side_d2 = np.take_along_axis(d2, idx, axis=1)
    order = np.argpartition(side_d2, kth - side.start, axis=1)
    return np.take_along_axis(idx, order, axis=1), np.take_along_axis(side_d2, order, axis=1)


def _near_block(points, own, d2, scene) -> tuple:
    """The near route of a block: its selection's distances and start, and `_cluster_stats` at every k.

    `_select` at kth k_max keeps the k_max + 1 nearest and partitions them
    at ``scene``'s kth (0, 1, every k - 1 and k): column 0 is at distance 0
    (the seed or a copy), column 1 at the nearest other point, and columns
    k - 1 and k at the kth and (k+1)th distances, the k nearest before
    column k. The selection's d2 become its distances in place, and one
    pass of `_cluster_stats` over the largest prefix, its coordinates
    gathered, gives the statistics at every k.
    """
    whole_box, ks, kth = scene
    idx, dist = _select(d2, min(ks[-1], d2.shape[1] - 1), slice(0, ks[-1] + 1), kth)
    np.sqrt(dist, out=dist)
    coords = np.take(points.T, idx[:, : ks[-1]], axis=1)
    return dist, 0, _cluster_stats(coords, dist[:, : ks[-1]], ks, whole_box)


def _whole_sums(points: np.ndarray):
    """The far route's per-scene sums: see `_far_block`."""
    centered = np.ascontiguousarray((points - points.mean(axis=0)).T)
    s2 = np.array([centered[a] @ centered[b] for a, b in zip(*_PAIRS)])
    orders = np.argsort(points, axis=0, kind="stable").T
    return centered, centered.sum(axis=1), s2, orders, np.take_along_axis(points.T, orders, 1)


def _far_block(points, own, d2, scene, whole) -> tuple:
    """The far route of a block: its selection's distances and start, and `_cluster_stats` at every k.

    `_select` at kth k_min - 1 keeps the n - k_min + 1 columns after the
    k_min - 1 nearest and partitions them at ``scene``'s kth from k_min - 1
    on (every k - 1 and k, as every k is at least 3), so columns k - 1 and k
    are at the kth and (k+1)th distances and the far side ``[:, k:]``
    follows, for every k. ``whole`` is `_whole_sums(points)`: the points
    centred once on their mean as (3, n) planes, their sums S1 and the six
    product sums S2, and each axis's point order with its sorted
    coordinates. The far columns of the smallest k are gathered once and
    summed from the far end, so each k's member sums are the totals minus
    its far sums; the far columns' d2 and distances and column k - 1's, the
    kth, are read from the selection. The nearest other distance is the row minimum of d2 with the
    seed's own column (``own``, exactly 0) masked, the second order
    statistic bit for bit; d2 is left as it was. Rows the module
    docstring's bound cannot certify take `_cluster_stats` on the members
    ``[:, :k]`` of a full partition of their own rows at ``scene``'s kth,
    which puts the seed (or a copy) first and the nearest other point second.
    """
    n = len(points)
    whole_box, ks, kth = scene
    centered, s1_all, s2_all, orders, sorted_coords = whole
    idx, side_d2 = _select(d2, ks[0] - 1, slice(ks[0] - 1, None), kth[2:])
    rows = np.arange(len(own))
    d2[rows, own] = np.inf
    nearest = np.sqrt(d2.min(axis=1))
    d2[rows, own] = 0.0
    d1_all, d2_all = np.sqrt(d2).sum(axis=1), d2.sum(axis=1)
    coords = np.take(centered, idx[:, 1:], axis=1)
    side_dist = np.sqrt(side_d2)
    far_d2, far_dist = side_d2[:, 1:], side_dist[:, 1:]
    scale = s2_all[0] + s2_all[3] + s2_all[5]  # G: squared centred lengths
    # a member's box extremes lie among the first n - k + 1 points of each
    # axis order, from either end; a point is a member iff its d2 is at most
    # the kth (a row tied at the boundary is repaired by the caller)
    span = n - ks[0] + 1
    cand = [d2[:, orders[:, :span]], d2[:, orders[:, ::-1][:, :span]]]
    s1, s2 = np.zeros((3, len(own))), np.zeros((6, len(own)))
    f1, f2 = np.zeros(len(own)), np.zeros(len(own))
    out, done = [], far_d2.shape[1]
    for k in reversed(ks):
        seg = slice(k - ks[0], done)
        part = coords[:, :, seg]
        s1 += part.sum(axis=2)
        for row, a, b in zip(s2, *_PAIRS):
            row += np.einsum("ij,ij->i", part[a], part[b])
        f1 += far_dist[:, seg].sum(axis=1)
        f2 += far_d2[:, seg].sum(axis=1)
        done = k - ks[0]
        delta = (20 * n + 100) * np.sqrt(n / k) * _U * scale
        sigma, doubt = _certified_sigma(
            k, s1_all[:, None] - s1, s2_all[:, None] - s2, np.full(len(own), delta)
        )
        m = k - 1
        mean = (d1_all - f1) / m
        mean_err = (n + 5) * _U * (d1_all + f1) / m
        kth_d2, farthest = side_d2[:, k - ks[0]], side_dist[:, k - ks[0]]
        spread, doubt_spread = _certified_spread(
            mean,
            (d2_all - f2) / m - mean**2,
            nearest,
            farthest,
            (n + 9) * _U * (d2_all + f2) / m + (2 * mean + 3 * mean_err) * mean_err,
            mean_err + 4 * _U * farthest,
        )
        first = [np.argmax(c[:, :, : n - k + 1] <= kth_d2[:, None, None], axis=2) for c in cand]
        low = sorted_coords[np.arange(3), first[0]].T
        high = sorted_coords[np.arange(3), n - 1 - first[1]].T
        stats = (_unit(sigma), spread, _box_ratios(low, high, whole_box))
        redo = np.flatnonzero(doubt | doubt_spread)
        if len(redo):
            members = np.argpartition(d2[redo], kth, axis=1)[:, :k]
            _restate(stats, points, d2, redo, members, whole_box)
        out.append(stats)
    return side_dist, ks[0] - 1, out[::-1]


def _scene(o_all: PointCloud, stats: list[_TemplateStats]) -> tuple:
    """What every block of a scene shares: the whole cloud's box, the distinct
    ks in ascending order and the kth values of a full selection (0, 1, every
    k - 1 and every k < n)."""
    ks = sorted({s.k for s in stats})
    kth = sorted({0, 1} | {k - 1 for k in ks} | {k for k in ks if k < len(o_all)})
    return aabb(o_all), ks, np.array(kth)


def _block_scores(o_all: PointCloud, stats: list[_TemplateStats], own, route, scene) -> np.ndarray:
    """(m, templates) combined scores of the seeds at indices ``own``, by `_near_block` or `_far_block`.

    One exact (m, n) matrix d2 of `squared_distances`, `knn`'s rule, serves
    every template; the route selects each k's members from it and returns
    its selection's distances and start with the statistics. Rows whose kth and (k+1)th distances, read
    from that selection, tie take as members the first k of a stable sort
    of their own d2, which is `knn`'s rule, and are scored by
    `_cluster_stats`. ``scene`` is `_scene(o_all, stats)`.
    """
    points = o_all.points
    n = len(points)
    whole_box, ks, _ = scene
    d2 = squared_distances(points, points[own])
    side_dist, start, by_k = route(points, own, d2, scene)
    by_k = dict(zip(ks, by_k))
    for k in ks:
        if k < n:
            gap = side_dist[:, k - 1 - start : k + 1 - start]
            tied = np.flatnonzero(knn_boundary_ties(gap[:, 0], gap[:, 1]))
            if len(tied):
                exact = np.argsort(d2[tied], axis=1, kind="stable")[:, :k]
                _restate(by_k[k], points, d2, tied, exact, whole_box)
    return np.column_stack([_score(by_k[s.k], s) for s in stats])


def _score_all_seeds(o_all: PointCloud, stats: list[_TemplateStats]) -> np.ndarray:
    """(n, templates) combined score of every seed, NaN = degenerate.

    Blocks of seeds run on one thread per CPU, each through `_block_scores`
    with the scene's constants (`_scene`), computed once here. Every block
    takes the route that reads fewer columns, which depends only on the
    templates' ks and n: `_near_block` (the k_max nearest columns) when
    k_max < n - k_min, else `_far_block` (the n - k_min farthest columns).
    The blocks share no lazily built state: every neighbour, the tie repairs'
    included, comes from a block's own d2, and no kd-tree is queried.
    """
    points = o_all.points
    n = len(points)
    whole_box, ks, _ = scene = _scene(o_all, stats)
    if whole_box.half_diagonal <= 0:
        raise DegenerateClusterError("observed cloud has zero bounding-box diagonal")
    if not np.isfinite(n * whole_box.diagonal * whole_box.diagonal):  # bounds every sum the blocks form
        raise DegenerateClusterError("observed cloud is too large for its sums to stay finite")
    route = _near_block
    if ks[-1] >= n - ks[0]:
        route = partial(_far_block, whole=_whole_sums(points))
    try:
        cpus = len(os.sched_getaffinity(0))
    except AttributeError:  # os.sched_getaffinity is Linux-only
        cpus = os.cpu_count() or 1
    block = max(1, _BLOCK_ENTRIES // (cpus * n))
    starts = range(0, n, block)
    scores = np.empty((n, len(stats)))

    def score_block(start):
        own = np.arange(start, min(start + block, n))
        scores[own] = _block_scores(o_all, stats, own, route, scene)

    with ThreadPoolExecutor(min(cpus, len(starts))) as pool:
        list(pool.map(score_block, starts))
    return scores


def recognize(
    o_all: PointCloud, templates: list["Template"], part_path: str
) -> RecognitionResult:
    """Locate the part in the observed cloud by template cluster matching.

    Every observed point is a seed; the seed minimizing the mean combined
    score across templates wins (ties: smallest index). The returned
    cluster uses the neighborhood size of the template that scored best at
    the winning seed.
    """
    if len(o_all) < 3:
        raise InsufficientPointsError(
            f"observed cloud has {len(o_all)} points, need >= 3"
        )
    carriers = [t for t in templates if part_path in t.parts]
    if not carriers:
        raise SchemaError(f"no template carries part '{part_path}'")
    stats = [_template_stats(o_all, t, part_path) for t in carriers]
    score_matrix = _score_all_seeds(o_all, stats)

    seed_scores = score_matrix.mean(axis=1)  # NaN if any template degenerate
    if np.all(np.isnan(seed_scores)):
        raise RecognitionFailureError("every seed produced a degenerate cluster")
    winner = int(np.argmin(np.where(np.isnan(seed_scores), np.inf, seed_scores)))

    row = score_matrix[winner]
    best_t = int(np.argmin(row))
    members = np.asarray(
        knn(o_all, o_all.points[winner], stats[best_t].k), dtype=np.intp
    )
    return RecognitionResult(
        part_cloud=o_all.select(members),
        seed=o_all.points[winner].copy(),
        seed_index=winner,
        members=members,
        part_path=part_path,
        per_template_scores={
            s.template.id: float(row[j]) for j, s in enumerate(stats)
        },
        winning_template_for_cluster=stats[best_t].template.id,
        mean_score=float(seed_scores[winner]),
        seed_scores=seed_scores,
    )
