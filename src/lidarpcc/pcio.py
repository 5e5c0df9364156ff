"""Point-cloud ingest and export: KITTI .bin, ASCII/binary PLY, synthetic LiDAR sweeps.

Coordinates are always float64 ``(N, 3)`` arrays; an optional per-point scalar
(intensity or any other attribute) rides along unchanged. Readers never reorder
points.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, FormatError

_KITTI_RECORD_BYTES = 16  # four little-endian float32 per return: x, y, z, intensity


@dataclass(frozen=True)
class PointCloud:
    """Immutable container for point positions plus one optional scalar."""

    points: np.ndarray
    attr: np.ndarray | None = None
    attr_name: str = "intensity"

    def __post_init__(self):
        pts = np.ascontiguousarray(np.asarray(self.points, dtype=np.float64))
        if pts.ndim != 2 or pts.shape[1] != 3:
            raise ValueError(f"points must be (N, 3), got {pts.shape}")
        if not np.isfinite(pts).all():
            raise ValueError("points contain non-finite coordinates")
        pts.flags.writeable = False
        object.__setattr__(self, "points", pts)
        if self.attr is not None:
            attr = np.ascontiguousarray(np.asarray(self.attr, dtype=np.float64))
            if attr.shape != (len(pts),):
                raise ValueError("attr length must match point count")
            attr.flags.writeable = False
            object.__setattr__(self, "attr", attr)

    def __len__(self):
        return len(self.points)


@dataclass(frozen=True)
class SynthParams:
    """Knobs for the synthetic spinning-LiDAR generator."""

    beams: int = 64
    points_per_ring: int = 1800
    rho_max: float = 400.0
    noise_sigma: float = 0.0
    dropout: float = 0.0
    seed: int = 0
    elevation_deg: tuple[float, float] = (-25.0, 3.0)
    range_min: float = 2.0
    fixed_range: float | None = None  # overrides the seeded range profile


def read_kitti_bin(path) -> PointCloud:
    """Read a KITTI velodyne ``.bin`` file (x, y, z, intensity float32 records)."""
    raw = np.fromfile(path, dtype=np.uint8)
    if raw.size % _KITTI_RECORD_BYTES != 0:
        offset = (raw.size // _KITTI_RECORD_BYTES) * _KITTI_RECORD_BYTES
        raise FormatError(
            f"{path}: truncated KITTI record at byte offset {offset} "
            f"(file size {raw.size} is not a multiple of {_KITTI_RECORD_BYTES})"
        )
    rec = raw.view("<f4").reshape(-1, 4)
    bad = ~np.isfinite(rec).all(axis=1)
    if bad.any():
        raise FormatError(f"{path}: non-finite value in record {int(np.flatnonzero(bad)[0])}")
    return PointCloud(rec[:, :3].astype(np.float64), rec[:, 3].astype(np.float64))


def write_kitti_bin(cloud: PointCloud, path) -> None:
    """Write a cloud as KITTI records; missing attr is stored as zeros."""
    rec = np.zeros((len(cloud), 4), dtype="<f4")
    rec[:, :3] = cloud.points
    if cloud.attr is not None:
        rec[:, 3] = cloud.attr
    rec.tofile(path)


# ---------------------------------------------------------------------------
# PLY
# ---------------------------------------------------------------------------

_PLY_SCALAR_TYPES = {
    "char": "i1", "int8": "i1",
    "uchar": "u1", "uint8": "u1",
    "short": "i2", "int16": "i2",
    "ushort": "u2", "uint16": "u2",
    "int": "i4", "int32": "i4",
    "uint": "u4", "uint32": "u4",
    "float": "f4", "float32": "f4",
    "double": "f8", "float64": "f8",
}
_PLY_FLOAT_TYPES = {"float", "float32", "double", "float64"}


def _parse_ply_header(fh, path):
    """Return (fmt, elements) where elements is a list of (name, count, props)."""
    magic = fh.readline().strip()
    if magic != b"ply":
        raise FormatError(f"{path}: not a PLY file (missing 'ply' magic)")
    fmt = None
    elements = []
    while True:
        line = fh.readline()
        if not line:
            raise FormatError(f"{path}: PLY header ended before end_header")
        words = line.decode("ascii", errors="replace").split()
        if not words or words[0] == "comment" or words[0] == "obj_info":
            continue
        if words[0] == "format":
            if words[1] not in ("ascii", "binary_little_endian"):
                raise FormatError(f"{path}: unsupported PLY format '{words[1]}'")
            fmt = words[1]
        elif words[0] == "element":
            elements.append((words[1], int(words[2]), []))
        elif words[0] == "property":
            if not elements:
                raise FormatError(f"{path}: property before any element")
            if words[1] == "list":
                elements[-1][2].append(("list", words[-1], words[2], words[3]))
            else:
                elements[-1][2].append(("scalar", words[2], words[1]))
        elif words[0] == "end_header":
            break
    if fmt is None:
        raise FormatError(f"{path}: PLY header missing format line")
    return fmt, elements


def read_ply(path) -> PointCloud:
    """Read vertex positions (x, y, z float/double) plus at most one extra scalar.

    Non-vertex elements are skipped with a warning; list properties on the
    vertex element are rejected.
    """
    with open(path, "rb") as fh:
        fmt, elements = _parse_ply_header(fh, path)
        cloud = None
        for name, count, props in elements:
            if name != "vertex":
                warnings.warn(f"{path}: ignoring PLY element '{name}' ({count} entries)")
                _skip_ply_element(fh, fmt, count, props, path, name)
                continue
            if any(p[0] == "list" for p in props):
                raise FormatError(f"{path}: list property on vertex element is unsupported")
            names = [p[1] for p in props]
            types = [p[2] for p in props]
            for axis in ("x", "y", "z"):
                if axis not in names:
                    raise FormatError(f"{path}: vertex element lacks property '{axis}'")
                if types[names.index(axis)] not in _PLY_FLOAT_TYPES:
                    raise FormatError(f"{path}: vertex property '{axis}' must be float or double")
            try:
                dtype = np.dtype([(n, "<" + _PLY_SCALAR_TYPES[t]) for n, t in zip(names, types)])
            except KeyError as exc:
                raise FormatError(f"{path}: unknown PLY property type {exc}") from None
            if fmt == "ascii":
                rows = _read_ascii_rows(fh, count, len(props), path)
                data = np.zeros(count, dtype=dtype)
                for j, n in enumerate(names):
                    data[n] = rows[:, j]
            else:
                buf = fh.read(dtype.itemsize * count)
                if len(buf) != dtype.itemsize * count:
                    raise FormatError(f"{path}: vertex data truncated")
                data = np.frombuffer(buf, dtype=dtype)
            pts = np.stack([data["x"], data["y"], data["z"]], axis=1).astype(np.float64)
            extra = [n for n in names if n not in ("x", "y", "z")]
            attr = None
            attr_name = "intensity"
            if extra:
                if len(extra) > 1:
                    warnings.warn(f"{path}: multiple extra scalars {extra}; keeping '{extra[0]}'")
                attr = data[extra[0]].astype(np.float64)
                attr_name = extra[0]
            try:
                cloud = PointCloud(pts, attr, attr_name)
            except ValueError as exc:
                raise FormatError(f"{path}: {exc}") from None
        if cloud is None:
            raise FormatError(f"{path}: no vertex element")
        return cloud


def _read_ascii_rows(fh, count, ncols, path):
    rows = np.empty((count, ncols), dtype=np.float64)
    for i in range(count):
        line = fh.readline()
        if not line:
            raise FormatError(f"{path}: vertex data truncated at row {i}")
        vals = line.split()
        if len(vals) != ncols:
            raise FormatError(f"{path}: expected {ncols} values in vertex row {i}")
        rows[i] = [float(v) for v in vals]
    return rows


def _skip_ply_element(fh, fmt, count, props, path, name):
    if fmt == "ascii":
        for _ in range(count):  # list rows are still one line each
            if not fh.readline():
                raise FormatError(f"{path}: element '{name}' truncated")
        return
    if any(p[0] == "list" for p in props):
        # Variable-size binary element: cannot seek past it reliably.
        raise FormatError(f"{path}: binary element '{name}' with list properties precedes vertex data")
    row = sum(np.dtype(_PLY_SCALAR_TYPES[p[2]]).itemsize for p in props)
    fh.seek(row * count, 1)


def write_ply(cloud: PointCloud, path, fmt: str = "binary") -> None:
    """Write x, y, z (double) and the attr scalar if present.

    ``fmt`` is 'ascii' or 'binary' (binary_little_endian). Binary round-trips
    coordinates bit-exactly; ASCII keeps 9 significant digits.
    """
    if fmt not in ("ascii", "binary"):
        raise ValueError(f"unknown PLY format '{fmt}'")
    names = ["x", "y", "z"] + ([cloud.attr_name] if cloud.attr is not None else [])
    header = ["ply"]
    header.append("format ascii 1.0" if fmt == "ascii" else "format binary_little_endian 1.0")
    header.append(f"element vertex {len(cloud)}")
    header += [f"property double {n}" for n in names]
    header.append("end_header")
    cols = [cloud.points[:, 0], cloud.points[:, 1], cloud.points[:, 2]]
    if cloud.attr is not None:
        cols.append(cloud.attr)
    with open(path, "wb") as fh:
        fh.write(("\n".join(header) + "\n").encode("ascii"))
        if fmt == "ascii":
            body = "\n".join(" ".join("%.9g" % v for v in row) for row in zip(*cols))
            fh.write((body + "\n").encode("ascii") if body else b"")
        else:
            data = np.empty(len(cloud), dtype=[(n, "<f8") for n in names])
            for n, c in zip(names, cols):
                data[n] = c
            fh.write(data.tobytes())


# ---------------------------------------------------------------------------
# Synthetic LiDAR
# ---------------------------------------------------------------------------


def synth_lidar(params: SynthParams) -> PointCloud:
    """Deterministic spinning-LiDAR cloud: `beams` rings, full azimuth sweep.

    Beam elevations are evenly spaced over ``elevation_deg``. Per-beam range
    profiles are smooth seeded functions of azimuth spanning (range_min,
    rho_max]; range noise is Gaussian truncated at ±3σ, so every return keeps
    ρ ≤ rho_max + 3·noise_sigma. Dropout removes returns independently.
    """
    if params.beams < 1 or params.points_per_ring < 1:
        raise ConfigError("beams and points_per_ring must be ≥ 1")
    if not 0.0 <= params.dropout < 1.0:
        raise ConfigError("dropout must be in [0, 1)")
    if not 0 < params.rho_max < np.inf:
        raise ConfigError("rho_max must be finite and positive")
    if not 0 <= params.noise_sigma < np.inf:
        raise ConfigError("noise_sigma must be finite and ≥ 0")
    if params.fixed_range is not None and not 0 < params.fixed_range < np.inf:
        raise ConfigError("fixed_range must be finite and positive")
    rng = np.random.default_rng(params.seed)
    lo, hi = np.deg2rad(params.elevation_deg)
    elev = np.linspace(lo, hi, params.beams)
    az = 2.0 * np.pi * np.arange(params.points_per_ring) / params.points_per_ring

    if params.fixed_range is not None:
        ranges = np.full((params.beams, params.points_per_ring), float(params.fixed_range))
    else:
        # Smooth per-beam profile: a low-order random Fourier series in azimuth,
        # rescaled into (range_min, rho_max].
        harmonics = np.arange(1, 6)
        amp = rng.normal(size=(params.beams, harmonics.size))
        phase = rng.uniform(0, 2 * np.pi, size=(params.beams, harmonics.size))
        arg = harmonics[None, :, None] * az[None, None, :] + phase[:, :, None]
        prof = np.einsum("bh,bhp->bp", amp, np.cos(arg))
        # normalize each beam to [0, 1]
        pmin = prof.min(axis=1, keepdims=True)
        span = np.maximum(prof.max(axis=1, keepdims=True) - pmin, 1e-12)
        unit = (prof - pmin) / span
        ranges = params.range_min + (params.rho_max - params.range_min) * unit

    if params.noise_sigma > 0:
        noise = rng.normal(0.0, params.noise_sigma, size=ranges.shape)
        ranges = ranges + np.clip(noise, -3 * params.noise_sigma, 3 * params.noise_sigma)
        ranges = np.maximum(ranges, 1e-6)

    cos_e = np.cos(elev)[:, None]
    x = ranges * cos_e * np.cos(az)[None, :]
    y = ranges * cos_e * np.sin(az)[None, :]
    z = ranges * np.sin(elev)[:, None]
    pts = np.stack([x.ravel(), y.ravel(), z.ravel()], axis=1)
    ring = np.repeat(np.arange(params.beams, dtype=np.float64), params.points_per_ring)

    if params.dropout > 0:
        keep = rng.random(len(pts)) >= params.dropout
        pts, ring = pts[keep], ring[keep]
    return PointCloud(pts, ring, attr_name="ring")
