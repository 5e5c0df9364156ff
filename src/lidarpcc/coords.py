"""Cartesian/cylindrical/spherical transforms and lattice quantization.

Conventions: θ = atan2(y, x) mapped into [0, 2π); φ = arccos(z/ρ) ∈ [0, π];
the origin maps to (ρ, θ, φ) = (0, 0, 0). Radial and Cartesian axes use the
primary step q; angles use q_θ = 2π/(b−1) and q_φ = π/(b−1) where
b = ⌈ρ_max/q⌉ radial bins. Every system applies the header's origin by one
rule: indices are round-to-nearest of (coordinate − origin)/step, and
reconstruct at index·step + origin, so each axis is off by at most half a step.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError
from .pcio import PointCloud

CARTESIAN = "cartesian"
CYLINDRICAL = "cylindrical"
SPHERICAL = "spherical"
SYSTEMS = (CARTESIAN, CYLINDRICAL, SPHERICAL)


def _wrap_theta(theta: np.ndarray) -> np.ndarray:
    """atan2 output → [0, 2π); adding 2π to a tiny negative rounds to 2π itself."""
    theta = np.where(theta < 0, theta + 2.0 * np.pi, theta)
    return np.where(theta >= 2.0 * np.pi, 0.0, theta)


def _sph_columns(p: np.ndarray) -> tuple:
    """ρ, θ and φ of (..., 3) xyz, one array each."""
    p = np.asarray(p, dtype=np.float64)
    x, y, z = p[..., 0], p[..., 1], p[..., 2]
    rho = radial_coord(p, SPHERICAL)
    theta = _wrap_theta(np.arctan2(y, x))
    with np.errstate(invalid="ignore", divide="ignore"):
        phi = np.arccos(np.clip(np.where(rho > 0, z / rho, 1.0), -1.0, 1.0))
    zero = rho == 0
    return rho, np.where(zero, 0.0, theta), np.where(zero, 0.0, phi)


def cart_to_sph(p: np.ndarray) -> np.ndarray:
    """(..., 3) xyz → (..., 3) of (ρ, θ∈[0,2π), φ∈[0,π])."""
    return np.stack(_sph_columns(p), axis=-1)


def sph_to_cart(s: np.ndarray) -> np.ndarray:
    s = np.asarray(s, dtype=np.float64)
    rho, theta, phi = s[..., 0], s[..., 1], s[..., 2]
    sin_phi = np.sin(phi)
    return np.stack(
        [rho * sin_phi * np.cos(theta), rho * sin_phi * np.sin(theta), rho * np.cos(phi)],
        axis=-1,
    )


def _cyl_columns(p: np.ndarray) -> tuple:
    """ρ, θ and z of (..., 3) xyz, one array each."""
    p = np.asarray(p, dtype=np.float64)
    x, y, z = p[..., 0], p[..., 1], p[..., 2]
    rho = radial_coord(p, CYLINDRICAL)
    theta = _wrap_theta(np.arctan2(y, x))
    return rho, np.where(rho == 0, 0.0, theta), z


def cart_to_cyl(p: np.ndarray) -> np.ndarray:
    """(..., 3) xyz → (..., 3) of (ρ, θ∈[0,2π), z)."""
    return np.stack(_cyl_columns(p), axis=-1)


def cyl_to_cart(c: np.ndarray) -> np.ndarray:
    c = np.asarray(c, dtype=np.float64)
    rho, theta, z = c[..., 0], c[..., 1], c[..., 2]
    return np.stack([rho * np.cos(theta), rho * np.sin(theta), z], axis=-1)


def radial_coord(points: np.ndarray, system: str) -> np.ndarray:
    """The radius that scales angular steps: cylinder ρ, else spherical ρ.

    The one radius formula: the part split, the measured ρ_max and the
    quantizer's ρ index all read these bits.
    """
    p = np.asarray(points, dtype=np.float64)
    x, y, z = p[..., 0], p[..., 1], p[..., 2]
    if system == CYLINDRICAL:
        return np.hypot(x, y)
    return np.sqrt(x * x + y * y + z * z)


@dataclass(frozen=True)
class QuantSteps:
    """Per-axis quantization steps plus the octree depth that hosts the indices."""

    system: str
    q_primary: float
    q_theta: float
    q_phi: float
    bins: int
    depth: int
    rho_max: float
    origin_offset: tuple[float, float, float] = (0.0, 0.0, 0.0)

    def step_vector(self) -> np.ndarray:
        if self.system == SPHERICAL:
            return np.array([self.q_primary, self.q_theta, self.q_phi])
        if self.system == CYLINDRICAL:
            return np.array([self.q_primary, self.q_theta, self.q_primary])
        return np.array([self.q_primary] * 3)

    def offset_vector(self) -> np.ndarray:
        return np.asarray(self.origin_offset, dtype=np.float64)


@dataclass(frozen=True)
class QuantizedCloud:
    indices: np.ndarray  # (M, 3) int64, deduplicated, lexicographically sorted
    steps: QuantSteps
    original_count: int

    def __post_init__(self):
        idx = np.ascontiguousarray(np.asarray(self.indices, dtype=np.int64))
        if idx.ndim != 2 or idx.shape[1] != 3:
            raise ValueError(f"indices must be (M, 3), got {idx.shape}")
        hi = (1 << self.steps.depth) - 1
        if len(idx) and (idx.min() < 0 or idx.max() > hi):
            raise ValueError(f"indices outside [0, {hi}]")
        idx.flags.writeable = False
        object.__setattr__(self, "indices", idx)


def lattice_steps(system: str, q: float, rho_max: float, depth: int, origin) -> QuantSteps:
    """The lattice a header's fields define (FORMAT.md §Quantization lattice).

    The angle systems take b = ⌈ρ_max/q⌉ radial bins, q_θ = 2π/(b−1) and
    q_φ = π/(b−1); Cartesian ignores ρ_max.
    """
    if system == CARTESIAN:
        return QuantSteps(system, q, 0.0, 0.0, 1 << depth, depth, 0.0, tuple(origin))
    bins = math.ceil(rho_max / q) if rho_max > 0 else 0
    if bins < 2:
        raise ConfigError(f"quantization step too coarse: q={q} gives {bins} radial bin(s)")
    q_phi = np.pi / (bins - 1) if system == SPHERICAL else 0.0
    return QuantSteps(system, q, 2.0 * np.pi / (bins - 1), q_phi, bins, depth, rho_max, tuple(origin))


_LINE = 256  # rows reduced side by side: numpy's axis-0 reduction is fast along a long row, slow along three values


def column_extremes(points: np.ndarray, reduce) -> np.ndarray:
    """``reduce(points, axis=0)`` bit for bit for ``np.min`` or ``np.max``, many times faster, in one pass.

    The rows are reduced :data:`_LINE` at a time side by side, then the
    partial extremes with the last rows. Of a ±0 extreme the axis-0 reduction
    keeps the column's last zero, so that zero is read back.
    """
    whole = len(points) // _LINE * _LINE
    heads = [reduce(points[:whole].reshape(-1, 3 * _LINE), axis=0).reshape(-1, 3)] if whole else []
    values = reduce(np.concatenate(heads + [points[whole:]]), axis=0)
    return np.array([col[np.flatnonzero(col == 0)[-1]] if v == 0 else v for v, col in zip(values, points.T)])


def bounding_box(points: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``points.min(axis=0), points.max(axis=0)`` bit for bit, by :func:`column_extremes`."""
    return column_extremes(points, np.min), column_extremes(points, np.max)


def derive_steps(system: str, q: float, cloud: PointCloud, rho_max: float | None = None) -> QuantSteps:
    """Measure a cloud's header fields and return their :func:`lattice_steps`.

    Cartesian measures the :func:`bounding_box` for :func:`box_steps`, the
    angle systems ``rho_max`` unless given, the largest radius in the system,
    for :func:`angle_steps`: the rules the codec passes its own measurement.
    """
    if system not in SYSTEMS:
        raise ConfigError(f"unknown coordinate system '{system}'")
    if not (q > 0 and math.isfinite(q)):
        raise ConfigError(f"quantization step must be positive, got {q}")
    if len(cloud) == 0:
        raise ConfigError("cannot derive steps from an empty cloud")
    if system == CARTESIAN:
        return box_steps(q, *bounding_box(cloud.points))
    if rho_max is None:
        rho_max = float(radial_coord(cloud.points, system).max())
    return angle_steps(system, q, rho_max, cloud.points)


def box_steps(q: float, lo: np.ndarray, hi: np.ndarray) -> QuantSteps:
    """The Cartesian lattice of the box ``lo``..``hi``: origin ``lo``, depth the bit length of the largest index."""
    with np.errstate(over="ignore"):  # a q too small for the extent is refused by _index_depth, by name
        top = np.round((hi - lo) / q).max()
    return lattice_steps(CARTESIAN, q, 0.0, _index_depth(q, top), lo)


def angle_steps(system: str, q: float, rho_max: float, points: np.ndarray) -> QuantSteps:
    """The angle system's lattice within ``rho_max``; a cylinder's z spans its points from the lowest."""
    if not math.isfinite(rho_max):
        raise ConfigError(f"rho_max must be finite, got {rho_max}")
    top, z_min = np.round(rho_max / q), 0.0  # the largest radial index; an angle index is at most bins − 1
    if system == CYLINDRICAL:
        z_min = float(points[:, 2].min())
        top = max(top, np.round((points[:, 2].max() - z_min) / q))
    return lattice_steps(system, q, rho_max, _index_depth(q, top), (0.0, 0.0, z_min))


def _index_depth(q: float, top: float) -> int:
    """Bit length of the largest index ``top``, at least 1; refused by the name q when ``top`` overflows float64."""
    if not math.isfinite(top):
        raise ConfigError(f"q={q} is too small: the cloud's largest lattice index overflows float64")
    return max(1, int(top).bit_length())


# Origins, steps and index·step are applied one column at a time: broadcasting
# a 3-vector over an (N, 3) array runs numpy's inner loop N times over 3
# elements. Each element sees the same IEEE operation either way, so the bits
# are those of ``coords - origin[None, :]``, ``coords / step[None, :]`` and
# ``idx * step[None, :] + origin[None, :]``.


def _system_columns(points: np.ndarray, system: str) -> tuple:
    """The system's coordinates of Cartesian points, one array per axis, before the origin is subtracted."""
    if system == SPHERICAL:
        return _sph_columns(points)
    if system == CYLINDRICAL:
        return _cyl_columns(points)
    return tuple(np.asarray(points, dtype=np.float64).T)


def system_to_cart(coords: np.ndarray, system: str) -> np.ndarray:
    """The system's (N, 3) coordinate triples → Cartesian points: the inverse of :func:`_system_columns`."""
    return {SPHERICAL: sph_to_cart, CYLINDRICAL: cyl_to_cart}.get(system, np.asarray)(coords)


def transform_points(points: np.ndarray, steps: QuantSteps) -> np.ndarray:
    """Cartesian points → the system's coordinate triples less the origin: what the lattice divides by its steps."""
    columns = _system_columns(points, steps.system)
    return np.stack([column - origin for column, origin in zip(columns, steps.offset_vector())], axis=-1)


def radius_past_lattice(rho_max: float, radii: np.ndarray) -> ConfigError:
    """The refusal of a radius past ``rho_max``: past the radial split, or its index past the 2^D lattice."""
    return ConfigError(f"rho_max={rho_max} smaller than cloud max radius {radii.max(initial=0.0):.6g}")


def _lattice_indices(points: np.ndarray, steps: QuantSteps) -> np.ndarray:
    """Per-point index triples: transform, subtract the origin, divide by the step, round, clip into the 2^D cube.

    Ratios are rounded and clipped in float64 before the cast to int64, so an
    index past int64's range clips too. :func:`derive_steps` sizes the cube to
    hold every index of a cloud within ``rho_max``; a radius whose index lands
    beyond it is refused, not clipped to the outermost radial bin.
    """
    columns = _system_columns(points, steps.system)
    hi = (1 << steps.depth) - 1
    idx = np.empty((len(columns[0]), 3), dtype=np.int64)
    for k, (column, origin, step) in enumerate(zip(columns, steps.offset_vector(), steps.step_vector())):
        ratio = column - origin
        np.round(np.divide(ratio, step, out=ratio), out=ratio)
        if k == 0 and steps.system != CARTESIAN and ratio.max(initial=0) > hi:
            raise radius_past_lattice(steps.rho_max, columns[0])
        idx[:, k] = np.clip(ratio, 0, hi, out=ratio)
    return idx


def lattice_points(idx: np.ndarray, steps: QuantSteps) -> np.ndarray:
    """Cartesian voxel centres of (N, 3) index triples: index·step + origin per axis, then :func:`system_to_cart`."""
    axes = enumerate(zip(steps.step_vector(), steps.offset_vector()))
    return system_to_cart(np.stack([idx[:, k] * step + origin for k, (step, origin) in axes], axis=-1), steps.system)


def quantize(cloud: PointCloud, steps: QuantSteps) -> QuantizedCloud:
    """Round each transformed coordinate to its lattice and merge duplicates."""
    d = steps.depth
    if 3 * d > 63:
        raise ConfigError(f"depth {d} exceeds the 21 levels an int64 index key holds")
    idx = _lattice_indices(cloud.points, steps)
    # sorted x‖y‖z keys order rows as np.unique(axis=0) would; keys are ≥ 0, so a prepended −1 keeps the first
    key = np.sort(idx[:, 0] << 2 * d | idx[:, 1] << d | idx[:, 2])
    key = key[np.diff(key, prepend=-1) != 0]
    mask = (1 << d) - 1
    idx = np.stack([key >> 2 * d, key >> d & mask, key & mask], axis=1)
    return QuantizedCloud(idx, steps, len(cloud))


def dequantize(qc: QuantizedCloud) -> PointCloud:
    """Map index triples back to Cartesian voxel centers."""
    return PointCloud(lattice_points(qc.indices, qc.steps))


def reconstruct_points(points: np.ndarray, steps: QuantSteps) -> np.ndarray:
    """Per-point quantize→dequantize, preserving order (no merge).

    Used by the error-analysis pipeline, which needs the original↔reconstruction
    pairing that the deduplicating codec path discards.
    """
    return lattice_points(_lattice_indices(points, steps), steps)
