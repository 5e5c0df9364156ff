"""Distortion and rate-distortion metrics: D1/D2 PSNR, Chamfer distance, BD-Rate.

PSNR conventions follow the MPEG pc_error tool family: symmetric max over the
two directed MSEs, 10·log₁₀(peak²/MSE) (or 3·peak² under the alternate flag),
+∞ when the MSE is exactly zero. Nearest neighbors come from a k-d tree and
match brute force exactly (ties broken toward the smaller distance either way).
"""

from __future__ import annotations

import csv
import json
import math
from dataclasses import asdict, dataclass, field

import numpy as np
from scipy.spatial import cKDTree

from . import kernel
from .errors import MetricError, check_finite_positive
from .pcio import PointCloud
from .threads import on_two_threads

R_SQUARED = "r_squared"
THREE_R_SQUARED = "three_r_squared"
MEAN_L2 = "mean_l2"
MEAN_SQUARED = "mean_squared"


@dataclass(frozen=True)
class MetricConfig:
    peak: float = 59.70  # KITTI convention; Ford uses 30000
    psnr_convention: str = R_SQUARED
    knn_k: int = 12
    cd_convention: str = MEAN_L2

    def __post_init__(self):
        check_finite_positive("peak", self.peak, MetricError)
        if self.knn_k < 3:
            raise MetricError("knn_k must be ≥ 3")
        if self.psnr_convention not in (R_SQUARED, THREE_R_SQUARED):
            raise MetricError(f"unknown PSNR convention '{self.psnr_convention}'")
        if self.cd_convention not in (MEAN_L2, MEAN_SQUARED):
            raise MetricError(f"unknown CD convention '{self.cd_convention}'")


def _points(cloud) -> np.ndarray:
    pts = cloud.points if isinstance(cloud, PointCloud) else np.ascontiguousarray(cloud, dtype=np.float64)
    if pts.ndim != 2 or pts.shape[1] != 3 or len(pts) == 0:
        raise MetricError("need a non-empty (N, 3) cloud")
    return pts


def nn_distances(query: np.ndarray, ref: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Euclidean distance and index of each query point's nearest ref point."""
    return _nearest(cKDTree(ref), query)


def _nearest(tree: cKDTree, query: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    return tree.query(query, k=1, workers=-1)


def _psnr(mse: float, cfg: MetricConfig) -> float:
    if mse == 0.0:
        return math.inf
    num = cfg.peak**2 if cfg.psnr_convention == R_SQUARED else 3.0 * cfg.peak**2
    return 10.0 * math.log10(num / mse)


def _d1_mse(d_ab: np.ndarray, d_ba: np.ndarray) -> float:
    return max(float(np.mean(d_ab**2)), float(np.mean(d_ba**2)))


def d1_psnr(ref, rec, cfg: MetricConfig = MetricConfig()) -> float:
    """Point-to-point PSNR over the symmetric max of directed MSEs."""
    a, b = _points(ref), _points(rec)
    d_ab, _ = nn_distances(a, b)
    d_ba, _ = nn_distances(b, a)
    return _psnr(_d1_mse(d_ab, d_ba), cfg)


# Reference rows per normal-fit block: its k-NN indices and covariances, and
# the numpy twin's (rows, k, 3) gather, stay a few MB whatever the cloud's size.
_BLOCK_ROWS = 32768


def _neighbours(tree: cKDTree, query: np.ndarray, k: int) -> np.ndarray:
    """(len(query), k_eff) indices of each query point's k nearest points in ``tree``, on the calling thread."""
    k_eff = min(k, tree.n)
    _, idx = tree.query(query, k=k_eff, workers=1)
    return idx[:, None] if k_eff == 1 else idx


def _fit_normals(points: np.ndarray, idx: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Plane normals of the neighbourhoods ``points[idx]``: each covariance's eigenvector of least eigenvalue."""
    evals, evecs = np.linalg.eigh(kernel.neighbour_covariances(points, idx))
    normals = evecs[..., 0]
    degenerate = evals[..., 1] <= 1e-12 * np.maximum(evals[..., 2], 1e-300)
    return normals, degenerate


def _normals(tree: cKDTree, points: np.ndarray, k: int) -> tuple[np.ndarray, np.ndarray]:
    """:func:`estimate_normals` of ``points``, the cloud ``tree`` was built on.

    Each block of :data:`_BLOCK_ROWS` rows is queried and fitted on
    its own and written into the result, the even blocks on the calling
    thread and the odd ones on a helper (:func:`threads.on_two_threads`). The
    arithmetic of each row is that of one fit over all rows, so the result is
    the same bit for bit.
    """
    normals = np.empty((len(points), 3))
    degenerate = np.empty(len(points), dtype=bool)
    blocks = -(-len(points) // _BLOCK_ROWS)

    def fit(block: int) -> None:
        rows = slice(block * _BLOCK_ROWS, (block + 1) * _BLOCK_ROWS)
        normals[rows], degenerate[rows] = _fit_normals(points, _neighbours(tree, points[rows], k))

    on_two_threads(fit, blocks, range(1, blocks, 2))
    return normals, degenerate


def estimate_normals(points: np.ndarray, k: int) -> tuple[np.ndarray, np.ndarray]:
    """Unoriented plane normals per point; flags neighborhoods of rank < 2."""
    return _normals(cKDTree(points), points, k)


def _plane_mse(err: np.ndarray, normals: np.ndarray, degenerate: np.ndarray) -> float:
    proj = np.einsum("ij,ij->i", err, normals)
    sq = proj**2
    if degenerate.any():
        # rank-deficient fit: fall back to the raw error magnitude
        sq = np.where(degenerate, np.einsum("ij,ij->i", err, err), sq)
    return float(np.mean(sq))


@dataclass(frozen=True)
class D2Detail:
    db: float
    mse_rec_to_ref: float
    mse_ref_to_rec: float
    degenerate_normals: int


def _check_knn(a: np.ndarray, cfg: MetricConfig) -> None:
    if len(a) < cfg.knn_k:
        raise MetricError(f"reference needs ≥ {cfg.knn_k} points for normal estimation")


def _d2(a, b, normals, degenerate, i_ab, i_ba, cfg: MetricConfig) -> D2Detail:
    """D2 from ref normals and both nearest-neighbour index arrays."""
    mse_rec = _plane_mse(b - a[i_ba], normals[i_ba], degenerate[i_ba])  # rec → nearest ref
    mse_ref = _plane_mse(a - b[i_ab], normals, degenerate)  # ref → nearest rec, on the ref normal
    return D2Detail(
        _psnr(max(mse_rec, mse_ref), cfg), mse_rec, mse_ref, int(degenerate.sum())
    )


def d2_details(ref, rec, cfg: MetricConfig = MetricConfig()) -> D2Detail:
    a, b = _points(ref), _points(rec)
    _check_knn(a, cfg)
    normals, degenerate = estimate_normals(a, cfg.knn_k)
    _, i_ba = nn_distances(b, a)
    _, i_ab = nn_distances(a, b)
    return _d2(a, b, normals, degenerate, i_ab, i_ba, cfg)


def d2_psnr(ref, rec, cfg: MetricConfig = MetricConfig()) -> float:
    """Point-to-plane PSNR; errors are projected onto reference normals."""
    return d2_details(ref, rec, cfg).db


def _chamfer(d_ab: np.ndarray, d_ba: np.ndarray, cfg: MetricConfig) -> float:
    if cfg.cd_convention == MEAN_SQUARED:
        return 0.5 * (float(np.mean(d_ab**2)) + float(np.mean(d_ba**2)))
    return 0.5 * (float(np.mean(d_ab)) + float(np.mean(d_ba)))


def chamfer(ref, rec, cfg: MetricConfig = MetricConfig()) -> float:
    a, b = _points(ref), _points(rec)
    d_ab, _ = nn_distances(a, b)
    d_ba, _ = nn_distances(b, a)
    return _chamfer(d_ab, d_ba, cfg)


# ---------------------------------------------------------------------------
# BD-Rate
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class RDCurve:
    """Rate-distortion samples: (bpp, distortion) pairs."""

    points: tuple

    def __post_init__(self):
        pts = tuple((float(r), float(d)) for r, d in self.points)
        for r, d in pts:
            check_finite_positive("RD rate", r, MetricError)
            if not d > -math.inf:  # +∞ is the PSNR of a zero MSE; NaN and −∞ are no distortion
                raise MetricError(f"RD distortion must be finite or +inf, got {d}")
        object.__setattr__(self, "points", pts)

    def arrays(self) -> tuple[np.ndarray, np.ndarray]:
        a = np.asarray(self.points, dtype=np.float64)
        return a[:, 0], a[:, 1]


def _finite_rd(curve) -> tuple[np.ndarray, np.ndarray]:
    if not isinstance(curve, RDCurve):
        curve = RDCurve(tuple(curve))
    rate, dist = curve.arrays()
    keep = np.isfinite(dist)  # +∞ PSNR points (zero MSE) cannot enter the fit
    rate, dist = rate[keep], dist[keep]
    if len(rate) < 4:
        raise MetricError("BD-Rate needs ≥ 4 finite RD points per curve")
    return rate, dist


def bd_rate(anchor, test) -> float:
    """Average rate delta (%) of test vs anchor over the common distortion range.

    Classic Bjøntegaard: cubic fit of log₁₀(rate) against distortion,
    integrated over [max of minima, min of maxima].
    """
    ra, da = _finite_rd(anchor)
    rt, dt = _finite_rd(test)
    lo = max(da.min(), dt.min())
    hi = min(da.max(), dt.max())
    if not lo < hi:
        raise MetricError("disjoint ranges: RD curves share no distortion interval")
    pa = np.polyfit(da, np.log10(ra), 3)
    pt = np.polyfit(dt, np.log10(rt), 3)
    ia = np.polyint(pa)
    it = np.polyint(pt)
    avg = ((np.polyval(it, hi) - np.polyval(it, lo)) - (np.polyval(ia, hi) - np.polyval(ia, lo))) / (
        hi - lo
    )
    return float((10.0**avg - 1.0) * 100.0)


# ---------------------------------------------------------------------------
# Reports
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class MetricReport:
    d1_db: float
    d2_db: float
    cd: float
    rate_bpp: float | None = None
    degenerate_normals: int = 0
    config: MetricConfig = field(default_factory=MetricConfig)

    def to_dict(self) -> dict:
        out = {
            "rate_bpp": self.rate_bpp,
            "d1_db": self.d1_db,
            "d2_db": self.d2_db,
            "cd": self.cd,
            "degenerate_normals": self.degenerate_normals,
        }
        out.update({f"config_{k}": v for k, v in asdict(self.config).items()})
        return out


def compute_report(ref, rec, cfg: MetricConfig = MetricConfig(), rate_bpp: float | None = None) -> MetricReport:
    """D1, D2 and Chamfer from two k-d trees and three queries.

    The tree on ``ref`` serves the rec → ref query and the normals' k-NN
    queries, and lives until the normals are fitted, block by block
    (:func:`_normals`); the tree on ``rec`` is built only after it is
    dropped, for the ref → rec query. The values equal those of
    :func:`d1_psnr`, :func:`d2_details` and :func:`chamfer` bit for bit.
    A given ``rate_bpp`` must be finite and positive.
    """
    if rate_bpp is not None:
        check_finite_positive("rate_bpp", rate_bpp, MetricError)
    a, b = _points(ref), _points(rec)
    _check_knn(a, cfg)
    tree = cKDTree(a)
    d_ba, i_ba = _nearest(tree, b)
    normals, degenerate = _normals(tree, a, cfg.knn_k)
    del tree
    d_ab, i_ab = _nearest(cKDTree(b), a)
    detail = _d2(a, b, normals, degenerate, i_ab, i_ba, cfg)
    return MetricReport(
        _psnr(_d1_mse(d_ab, d_ba), cfg), detail.db, _chamfer(d_ab, d_ba, cfg),
        rate_bpp, detail.degenerate_normals, cfg,
    )


def _jsonable(v):
    if isinstance(v, float) and math.isinf(v):
        return "inf"
    return v


def report_to_json(report: MetricReport, path) -> None:
    with open(path, "w") as fh:
        json.dump({k: _jsonable(v) for k, v in report.to_dict().items()}, fh, indent=2, sort_keys=True)
        fh.write("\n")


def report_to_csv(report: MetricReport, path) -> None:
    row = report.to_dict()
    fmt = lambda v: ("%.6g" % v) if isinstance(v, float) and math.isfinite(v) else str(v)
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(row.keys())
        w.writerow(fmt(v) for v in row.values())
