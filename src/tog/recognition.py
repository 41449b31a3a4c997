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
per block, one exact (block, n) squared-distance matrix (summed one axis at
a time, as `_gather` sums it) and one `np.argpartition` (kth 0, 1, every
template's k - 1 and k) put each template's k nearest points, unordered, in
the prefix ``[:, :k]`` of each row, with column 0 at distance 0 (the seed,
or an exact copy of it), so the dispersion term reads ``[:, 1:k]``. One
`_gather` of the largest prefix and one pass of running sums over it give
the statistics at every template's k. A row whose kth and (k+1)th distances
(columns k-1 and k) tie takes its members from `knn` instead (sorted, so
its columns are in the same places), is gathered the same way and scored
by the same `_cluster_stats`, so every member set equals `knn`'s.
"""

from __future__ import annotations

import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
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


def _gather(points: np.ndarray, seeds: np.ndarray, idx: np.ndarray):
    """Coordinate planes and member-to-seed distances of m clusters.

    ``idx`` is (m, k) member indices, column 0 at its row's seed or a copy
    of it (template parts start at their reference point). Returns the
    members as (3, m, k), one plane per axis, gathered straight from the
    points with no (m, k, 3) copy, and the (m, k) distances to the seed.
    """
    coords = np.take(points.T, idx, axis=1)
    # minima, maxima and distances run along contiguous rows; summing x², y²,
    # z² in that order gives np.linalg.norm(points[idx] - seed, axis=2) bit for bit
    dist = np.zeros(coords.shape[1:])
    for plane, seed_coord in zip(coords, seeds.T):
        dist += (plane - seed_coord[:, None]) ** 2
    np.sqrt(dist, out=dist)
    return coords, dist


def _gather_about(points: np.ndarray, ref: int):
    """`_gather` of all points as one cluster about point ``ref``, nearer points first."""
    order = np.r_[ref, np.delete(np.arange(len(points)), ref)]
    coords, dist = _gather(points, points[[ref]], order[None])
    nearer = np.r_[0, 1 + np.argsort(dist[0, 1:], kind="stable")]
    return coords[:, :, nearer], dist[:, nearer]


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


def _spectra(rel: np.ndarray, k: int, s1: np.ndarray, s2: np.ndarray) -> np.ndarray:
    """(m, 3) unit PCA spectra of the first k seed-relative members, from their sums."""
    if k < 3:  # at most a line: the QR route, which also gives the (m, k) shape
        return _unit(singular_values_batch(rel[:, :, :k]))
    scatter = s2 - s1[_PAIRS[0]] * (s1[_PAIRS[1]] / k)
    lam = np.linalg.eigvalsh(scatter[_SYMMETRIC].transpose(2, 0, 1))[:, ::-1]
    sigma = np.sqrt(np.maximum(lam, 0.0))
    # the module docstring's bound on each singular value
    delta = (10 * k + 100) * _U * (s2[0] + s2[3] + s2[5])
    err = np.divide(delta[:, None], sigma, out=np.full_like(sigma, np.inf), where=lam > 0)
    err += _U * sigma
    doubt = ~(2 * np.linalg.norm(err, axis=1) <= _STATS_TOL * np.linalg.norm(sigma, axis=1))
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


def _spread(dist: np.ndarray, k: int, d1: np.ndarray, d2: np.ndarray) -> np.ndarray:
    """(m,) distance spreads of the first k members, from the sums of their distances."""
    if k < 3:  # fewer than two others: a NaN spread
        return _two_pass_spread(dist[:, :k])
    m = k - 1
    mean = d1 / m
    std = np.sqrt(np.maximum(d2 / m - mean**2, 0.0))
    max_dev = np.maximum(dist[:, k - 1] - mean, mean - dist[:, 1])
    with np.errstate(divide="ignore", invalid="ignore"):
        spread = std / max_dev
        # the module docstring's bounds on std and on the largest deviation
        std_err = (4 * k + 16) * _U * (d2 / m) / std + _U * std
        dev_err = (k + 4) * _U * mean + 2 * _U * max_dev
        doubt = ~(std_err / std + dev_err / max_dev <= _STATS_TOL / 2)
    if doubt.any():
        spread[doubt] = _two_pass_spread(dist[doubt, :k])
    return spread


def _cluster_stats(coords: np.ndarray, dist: np.ndarray, ks, whole_box) -> list:
    """The three part statistics of m clusters at each size in ``ks``, NaN = degenerate.

    The arguments are `_gather`'s two arrays, the distinct cluster sizes in
    ascending order and the box of the whole cloud. For every k, the first
    k columns hold the members: column 0 the seed or reference point (or a
    copy), column 1 the nearest other member and column k - 1 the farthest,
    as `np.argpartition` with kth 0, 1 and k - 1 leaves them. Returns one
    (sigma_unit, spread, ratios) per k: the (m, 3) unit PCA spectra, the
    (m,) spreads of the distances from column 0 to the other members, std
    over largest deviation from their mean, and the (m,) offsets of the
    cluster box centers from the whole's, over its half diagonal.
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
        centers = 0.5 * (low + high).T
        offsets = np.linalg.norm(centers - whole_box.center, axis=1)
        ratios = offsets / (whole_box.half_diagonal or np.nan)  # NaN: whole of no extent
        out.append((_spectra(rel, k, s1, s2), _spread(dist, k, d1, d2), ratios))
    return out


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


def _score_all_seeds(o_all: PointCloud, stats: list[_TemplateStats]) -> np.ndarray:
    """(n, templates) combined score of every seed, NaN = degenerate.

    One distance block and partition per block of seeds, on one thread per
    CPU, serve every template: the statistics of every template's k are read
    off one pass of running sums over the block's gathered prefix, and the
    rows tied at a template's kth neighbor are re-gathered from `knn`'s members.
    """
    points = o_all.points
    n = len(points)
    whole_box = aabb(o_all)
    if whole_box.half_diagonal <= 0:
        raise DegenerateClusterError("observed cloud has zero bounding-box diagonal")
    ks = sorted({s.k for s in stats})
    kq = min(ks[-1] + 1, n)  # the largest k, and one more for the tie check
    kth = sorted({0, 1} | {k - 1 for k in ks} | {k for k in ks if k < n})
    try:
        cpus = len(os.sched_getaffinity(0))
    except AttributeError:  # os.sched_getaffinity is Linux-only
        cpus = os.cpu_count() or 1
    block = max(1, _BLOCK_ENTRIES // (cpus * n))
    starts = range(0, n, block)
    scores = np.empty((n, len(stats)))

    def score_block(start):
        seeds = points[start : start + block]
        d2 = sum((plane - seed_coord[:, None]) ** 2 for plane, seed_coord in zip(points.T, seeds.T))
        idx = np.argpartition(d2, kth, axis=1)
        coords, dist = _gather(points, seeds, idx[:, :kq])
        by_k = dict(zip(ks, _cluster_stats(coords, dist, ks, whole_box)))
        for j, s in enumerate(stats):
            k = s.k
            out = scores[start : start + len(seeds), j]
            out[:] = _score(by_k[k], s)
            if k < kq:
                tied = np.nonzero(knn_boundary_ties(dist[:, k - 1], dist[:, k]))[0]
                if len(tied):
                    exact = np.array([knn(o_all, seeds[row], k) for row in tied])
                    gathered = _gather(points, seeds[tied], exact)
                    out[tied] = _score(_cluster_stats(*gathered, [k], whole_box)[0], s)

    o_all.tree  # built here, so the tie repairs in the pool do not race to build it
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
