"""Closed-form reconstruction-error bounds and their empirical verification.

The angle-based lattices trade radial resolution against an angular cell size
that grows linearly with radius. The worst-case displacement of a point from
its voxel center has a closed form in each system:

* cartesian: half a cell diagonal, √3·q/2, independent of position.
* spherical (small-angle form): (√5·π·q / 2ρ_max)·ρ — the angular terms
  dominate and scale with the radius ρ.
* radial part n of a multi-level lattice (step q/2ⁿ, outer edge t_{n+1}·ρ_max):
  evaluating the spherical form at the part's midpoint radius gives
  √5·π·q·(t_n + t_{n+1}) / 2^(n+2); at the outer edge, √5·π·q·t_{n+1} / 2^(n+1).

The linearized spherical forms drop the radial q/2 term, so no lattice with
radial step q meets them near a part's inner radius. `combined_bound_sph`
keeps that term, and `empirical_error` rates spherical lattices against it:
per point for one part, and at each part's outer radius (step q/2ⁿ) for
several.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass

import numpy as np

from .codec import CodecConfig, pipeline_reconstruct
from .coords import CARTESIAN, SPHERICAL, radial_coord
from .errors import ConfigError, check_finite_positive
from .octree import MultiLevelConfig
from .pcio import PointCloud, write_ply

_SQRT3 = math.sqrt(3.0)
_SQRT5 = math.sqrt(5.0)

#: fraction of ρ_max below which points are left out of one-part utilization
INNER_EXCLUSION = 0.05

#: multiplicative allowance on the small-angle bounds in empirical checks
SMALL_ANGLE_SLACK = 1.01

_DEFAULT_THRESHOLDS = MultiLevelConfig().thresholds


def bound_cart(q: float) -> float:
    """Half cell diagonal of a cubic lattice with step q."""
    return _SQRT3 * q / 2.0


def bound_sph(rho, q: float, rho_max: float):
    """Small-angle worst-case error at radius rho on a spherical lattice."""
    check_finite_positive("rho_max", rho_max)
    return (_SQRT5 * math.pi * q / (2.0 * rho_max)) * np.asarray(rho, dtype=np.float64)


def combined_bound_sph(rho, q: float, rho_max: float):
    """Spherical bound with the radial half-step kept: hypot(q/2, angular)."""
    return np.hypot(q / 2.0, bound_sph(rho, q, rho_max))


def bound_part(q: float, n: int, thresholds=_DEFAULT_THRESHOLDS) -> float:
    """Midpoint-radius bound for radial part n (effective step q/2ⁿ)."""
    return _SQRT5 * math.pi * q * (thresholds[n] + thresholds[n + 1]) / (1 << (n + 2))


def part_edge_bound(q: float, n: int, thresholds=_DEFAULT_THRESHOLDS) -> float:
    """Worst case over part n, attained at its outer radius t_{n+1}·ρ_max."""
    return _SQRT5 * math.pi * q * thresholds[n + 1] / (1 << (n + 1))


def crossover_radii(multipliers=(1, 2, 4), rho_max: float = 1.0) -> np.ndarray:
    """Radii where k× the cartesian bound meets the spherical one: k·√3/(√5π)·ρ_max.

    Inside the k=1 crossover an angle-based lattice is tighter than a cubic
    one at the same step; radial part n with step q/2ⁿ pushes its crossover
    out by k = 2ⁿ, doubling the reach of part n−1.
    """
    check_finite_positive("rho_max", rho_max)
    base = _SQRT3 / (_SQRT5 * math.pi)
    return base * rho_max * np.asarray(multipliers, dtype=np.float64)


# ---------------------------------------------------------------------------
# Empirical verification
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class PartErrorStats:
    part: int
    count: int
    max_error: float
    mean_error: float
    bound_mid: float | None
    bound_edge: float | None
    utilization: float | None  # max_error / bound_edge


@dataclass(frozen=True)
class ErrorReport:
    system: str
    q: float
    pairing: str  # "pipeline": each point against its own voxel centre
    max_error: float
    mean_error: float
    bound: float | None
    utilization: float | None
    excluded: int = 0  # inner-radius points left out of utilization
    per_part: tuple[PartErrorStats, ...] | None = None
    per_point: np.ndarray | None = None


def _exact_edge_bound(q: float, n: int, thresholds, rho_max: float) -> float:
    """Exact bound of part n (step q/2ⁿ) at its outer radius t_{n+1}·ρ_max."""
    return float(combined_bound_sph(thresholds[n + 1] * rho_max, q / (1 << n), rho_max))


def _part_stats(err, part_idx, q, thresholds, n_parts, rho_max, spherical) -> tuple[PartErrorStats, ...]:
    stats = []
    for n in range(n_parts):
        sel = err[part_idx == n]
        mid = bound_part(q, n, thresholds) if spherical else None
        edge = _exact_edge_bound(q, n, thresholds, rho_max) if spherical else None
        if len(sel) == 0:
            stats.append(PartErrorStats(n, 0, 0.0, 0.0, mid, edge, None))
            continue
        mx = float(sel.max())
        util = mx / edge if edge else None
        stats.append(PartErrorStats(n, int(len(sel)), mx, float(sel.mean()), mid, edge, util))
    return tuple(stats)


def empirical_error(
    cloud: PointCloud,
    cfg: CodecConfig,
    keep_per_point: bool = False,
    reconstruction: tuple | None = None,
) -> ErrorReport:
    """Per-point reconstruction error against the applicable bound.

    Points are re-quantized in place, so each original is paired with its own
    voxel center, the pairing the bounds are stated over. `reconstruction` is
    ``pipeline_reconstruct(cloud, cfg)``, for a caller that has computed it
    already.
    """
    if reconstruction is None:
        reconstruction = pipeline_reconstruct(cloud, cfg)
    recon, part_idx, steps = reconstruction
    err = np.linalg.norm(cloud.points - recon, axis=1)

    q = steps.q_primary
    n_parts = cfg.parts.n_parts
    spherical = cfg.system == SPHERICAL
    excluded = 0
    per_part = (
        _part_stats(err, part_idx, q, cfg.parts.thresholds, n_parts, steps.rho_max, spherical)
        if n_parts > 1
        else None
    )

    if cfg.system == CARTESIAN:
        bound = bound_cart(q)
        util = float(err.max()) / bound
    elif spherical and n_parts == 1:
        rho = radial_coord(cloud.points, SPHERICAL)
        eligible = rho >= INNER_EXCLUSION * steps.rho_max
        excluded = int(len(rho) - eligible.sum())
        b = combined_bound_sph(rho, q, steps.rho_max)
        bound = float(b.max()) if len(b) else None
        util = float((err[eligible] / b[eligible]).max()) if eligible.any() else None
    elif spherical:
        bound = max(p.bound_edge for p in per_part)
        util = max((p.utilization for p in per_part if p.count), default=None)
    else:  # cylindrical: no closed form in scope
        bound = None
        util = None

    return ErrorReport(
        cfg.system,
        q,
        "pipeline",
        float(err.max()),
        float(err.mean()),
        bound,
        util,
        excluded,
        per_part,
        err if keep_per_point else None,
    )


def error_colormap_export(
    points, errors, ply_path, csv_path, bins: int = 10
) -> tuple[np.ndarray, np.ndarray]:
    """Write a per-point error PLY plus a purple-to-red histogram CSV.

    Returns (counts, edges). A zero-error cloud lands in a single bin at 0.
    """
    pts = points.points if isinstance(points, PointCloud) else np.asarray(points, dtype=np.float64)
    errors = np.asarray(errors, dtype=np.float64)
    if errors.shape != (len(pts),):
        raise ConfigError("one error per point required")
    if bins < 1:
        raise ConfigError(f"bins must be at least 1, got {bins}")
    write_ply(PointCloud(pts, attr=errors, attr_name="error"), ply_path)

    emax = float(errors.max()) if len(errors) else 0.0
    if emax <= 0.0:
        counts = np.array([len(errors)], dtype=np.int64)
        edges = np.array([0.0, 0.0])
    else:
        counts, edges = np.histogram(errors, bins=bins, range=(0.0, emax))
    nbins = len(counts)
    with open(csv_path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["bin", "lo", "hi", "count", "hue_deg"])
        for i in range(nbins):
            hue = 270.0 * (1.0 - i / (nbins - 1)) if nbins > 1 else 270.0
            w.writerow(
                [i, "%.9g" % edges[i], "%.9g" % edges[i + 1], int(counts[i]), "%.6g" % hue]
            )
    return counts, edges
