"""End-to-end codec: partition → quantize → octree → range-code, and back.

Container layout (all little-endian, see FORMAT.md):

    magic 'SCP1' | version u8 | system u8 | depth u8 | n_parts u8
    q f64 | rho_max f64 | origin_offset 3×f64 | thresholds n_parts×f32
    per part: symbol_count u64 | empty u8 | payload_len u64 | payload
    original_count u64

The encoder and ``pipeline_reconstruct`` share one front end, which measures
the cloud once and derives q, the lattice and each point's part from its values.
Every part is an independent octree stream with a fresh adaptive model, so
parts decode in isolation, and one call codes its parts on two threads: its
own and a helper that it starts and joins, so no thread outlives the call.
An encode whose points all fall in one part (every Cartesian one) leaves no
part for the helper, so it cuts that part's rows in two halves instead: each
thread computes its half's leaf codes and makes them sorted and unique
(``kernel.unique_codes``: a bitmap of the lattice's leaves, or a sort), and
the two sorted runs are merged once by that call too. A Cartesian box is
measured on two threads too
(``coords.bounding_box``), its minima on the calling thread and its maxima on
a helper of its own.
rho_max, q, the origin and the header depth fully determine the
quantization lattice; decoding is deterministic with no side state.
"""

from __future__ import annotations

import math
import struct
import sys
from dataclasses import dataclass

import numpy as np

from . import kernel
from .coords import (
    CARTESIAN,
    CYLINDRICAL,
    SPHERICAL,
    SYSTEMS,
    QuantSteps,
    angle_steps,
    bounding_box,
    box_steps,
    lattice_steps,
    radial_coord,
    radius_past_lattice,
    reconstruct_points,
)
from .errors import ConfigError, CorruptStreamError, FormatError, check_finite_positive
from .octree import (
    MAX_DEPTH,
    MultiLevelConfig,
    part_assignment,
    part_steps,
)
from .pcio import PointCloud
from .threads import on_two_threads

MAGIC = b"SCP1"
VERSION = 1
KITTI_RANGE = 400.0
CONVENTIONS = ("kitti", "ford", "raw")

_SYSTEM_CODE = {CARTESIAN: 0, CYLINDRICAL: 1, SPHERICAL: 2}
_SYSTEM_NAME = {v: k for k, v in _SYSTEM_CODE.items()}


@dataclass(frozen=True)
class CodecConfig:
    """What to code with; a config that constructs is one :func:`resolve_step` can resolve.

    Every rule on the fields alone lives here and is checked when the config is
    built: the system, convention and depth; depth or q, not both; a depth for
    ``kitti`` and ``ford``, q or depth for ``raw``; a given q and rho_max
    finite and positive, for every system; one part for cartesian, which is
    also its default layout (the angle systems' is ``MultiLevelConfig()``). What
    depends on the cloud is refused later, by the encoder's front end from its
    one measurement of the cloud: a span no step can be derived from
    (:func:`_step`), a lattice the header cannot hold (``coords.box_steps``,
    ``coords.angle_steps`` and the header check) and a radius past the split.
    """

    system: str = SPHERICAL
    depth: int | None = None
    q: float | None = None
    convention: str = "raw"
    parts: MultiLevelConfig | None = None  # None → one part for cartesian, else MultiLevelConfig()
    rho_max: float | None = None  # None → measured from the cloud

    def __post_init__(self):
        if self.system not in SYSTEMS:
            raise ConfigError(f"unknown coordinate system '{self.system}'")
        if self.parts is None:
            default = MultiLevelConfig(1, (0.0, 1.0)) if self.system == CARTESIAN else MultiLevelConfig()
            object.__setattr__(self, "parts", default)
        if self.convention not in CONVENTIONS:
            raise ConfigError(f"unknown convention '{self.convention}'")
        if self.depth is not None and self.depth < 1:
            raise ConfigError(f"depth must be at least 1, got {self.depth}")
        if self.system == CARTESIAN and self.parts.n_parts != 1:
            raise ConfigError("multi-level parts require an angle-based system; use parts=1 for cartesian")
        if self.depth is not None and self.q is not None:
            raise ConfigError("give either depth or q, not both")
        if self.convention in ("kitti", "ford") and self.depth is None:
            raise ConfigError(f"convention '{self.convention}' needs a depth")
        if self.depth is None and self.q is None:
            raise ConfigError("raw convention needs q or depth")
        for name, value in (("q", self.q), ("rho_max", self.rho_max)):
            if value is not None:
                check_finite_positive(name, value)


def _depth_steps(depth: int) -> float:
    """2^depth − 1 as a float64 divisor; past float64's range it rounds to inf, and a span over it to 0."""
    return float((1 << depth) - 1) if depth < sys.float_info.max_exp else math.inf


def convention_step(convention: str, depth: int) -> float:
    """Dataset-convention step: kitti 400/(2^D−1) meters, ford 2^(18−D) mm."""
    if convention == "kitti":
        return KITTI_RANGE / _depth_steps(depth)
    if convention == "ford":
        return float(2 ** (18 - depth))
    raise ConfigError(f"convention '{convention}' does not define a step from depth alone")


def resolve_step(cfg: CodecConfig, cloud: PointCloud) -> tuple[float, float | None]:
    """Return (q, rho_max) honoring the convention; rho_max None means measured.

    Only ``raw`` with a depth measures the cloud for the encoder's :func:`_step`:
    its extent, or an angle system's rho_max unless given; an empty one is refused.
    """
    span = cfg.rho_max
    if cfg.q is None and cfg.convention == "raw":
        if len(cloud) == 0:
            raise ConfigError("cannot quantize an empty cloud")
        if cfg.system == CARTESIAN:
            lo, hi = bounding_box(cloud.points)
            span = float((hi - lo).max())
        elif span is None:
            span = float(radial_coord(cloud.points, cfg.system).max())
    return _step(cfg, span), cfg.rho_max


def _step(cfg: CodecConfig, span: float | None) -> float:
    """The given q, the convention's step, or for ``raw`` with a depth ``span`` over 2^D − 1 steps.

    ``span`` is the cloud's largest extent, or an angle system's rho_max. A zero
    span is refused, and a step that is not finite and positive (a span so
    small, or a depth so large, that it underflows to 0) by the depth's name.
    """
    if cfg.q is not None:
        return float(cfg.q)
    if cfg.convention != "raw":
        step = convention_step(cfg.convention, cfg.depth)
    elif span <= 0:
        raise ConfigError("cannot derive a step for a degenerate (single-voxel) cloud" if cfg.system == CARTESIAN
                          else "cannot derive a step: all points at the origin")
    else:
        step = span / _depth_steps(cfg.depth)
    if not 0 < step < math.inf:
        raise ConfigError(f"depth={cfg.depth} gives a step of {step}, which is not finite and positive")
    return step


def _header_fault(system: str, depth: int, q: float, rho_max: float, origin, thresholds) -> str | None:
    """Which FORMAT.md header invariant the fields break, or None if they hold all."""
    if depth + len(thresholds) - 1 > MAX_DEPTH:
        return f"depth {depth} with {len(thresholds)} parts exceeds {MAX_DEPTH} octree levels"
    if not (math.isfinite(q) and q > 0):
        return f"step q={q} is not finite and positive"
    if not math.isfinite(rho_max) or (system != CARTESIAN and rho_max <= 0):
        return f"rho_max={rho_max} is not finite{'' if system == CARTESIAN else ' and positive'}"
    if not all(math.isfinite(v) for v in origin):
        return f"origin {tuple(origin)} is not finite"
    # every part's largest index reconstructs below q·2^D from the origin
    if not math.isfinite(max(abs(v) for v in origin) + q * (1 << depth)):
        return f"q·2^depth = {q:.6g}·2^{depth} from origin {tuple(origin)} overflows float64"
    t = tuple(thresholds)
    if t[0] != 0.0 or not all(a < b for a, b in zip(t, t[1:] + (1.0,))):
        return f"thresholds {t} are not 0 = t_0 < ... < t_(N-1) < 1"
    if system != CARTESIAN and rho_max / q > 1 << depth:
        return f"rho_max/q = {rho_max / q:.6g} radial bins exceed the depth-{depth} lattice"
    if system != CARTESIAN and math.ceil(rho_max / q) < 2:
        return f"rho_max/q = {rho_max / q:.6g} gives fewer than 2 radial bins"
    return None


# Every symbol costs the coder at least −log₂(65027/65281) ≈ 0.005624 bits: a
# context's top frequency is at most T − 254 (the other 254 are ≥ 1) and its
# total T at most 65281, so coding a symbol multiplies the range by at most
# 65027/65281. The range starts below 2^32 and ends at or above 2^24 once
# renormalized, and each payload byte read after the 5-byte preload multiplies
# it by 2^8. So n symbols read from B bytes satisfy n·0.005624 < 8·(B − 4): at
# most about 1,422 symbols per payload byte.
_MIN_SYMBOL_BITS = math.log2(65281 / 65027)


def _symbol_count_fault(count: int, depth: int, payload_len: int) -> str | None:
    """Why a part's symbol count cannot be right, or None; checked before any decoder runs."""
    capacity = ((1 << 3 * depth) - 1) // 7  # nodes of a full octree with depth levels
    if count > capacity:
        return f"symbol count {count} exceeds the depth-{depth} octree's {capacity} nodes"
    limit = int(8 * max(payload_len - 4, 0) / _MIN_SYMBOL_BITS) + 1  # +1: float rounding
    if count > limit:
        return f"symbol count {count} exceeds the {limit} symbols {payload_len} payload bytes can code"
    return None


@dataclass(frozen=True)
class PartRecord:
    symbol_count: int
    empty: bool
    payload: bytes


@dataclass(frozen=True)
class Container:
    system: str
    depth: int
    q: float
    rho_max: float
    origin_offset: tuple
    thresholds: tuple  # t_0..t_{N−1}; the closing 1.0 is implicit
    parts: tuple
    original_count: int

    @property
    def n_parts(self) -> int:
        return len(self.parts)

    def base_steps(self) -> QuantSteps:
        """Recover the encoder's QuantSteps from header fields alone."""
        return lattice_steps(self.system, self.q, self.rho_max, self.depth, self.origin_offset)

    def to_bytes(self) -> bytes:
        head = bytearray()
        head += MAGIC
        head += struct.pack(
            "<BBBB", VERSION, _SYSTEM_CODE[self.system], self.depth, self.n_parts
        )
        head += struct.pack("<dd", self.q, self.rho_max)
        head += struct.pack("<3d", *self.origin_offset)
        head += struct.pack(f"<{self.n_parts}f", *self.thresholds)
        for p in self.parts:
            head += struct.pack("<QBQ", p.symbol_count, 1 if p.empty else 0, len(p.payload))
            head += p.payload
        head += struct.pack("<Q", self.original_count)
        return bytes(head)

    @property
    def nbytes(self) -> int:
        """``len(self.to_bytes())`` without packing: header, thresholds, each part's record and payload, count."""
        return 48 + 4 * self.n_parts + sum(17 + len(p.payload) for p in self.parts) + 8

    @classmethod
    def from_bytes(cls, blob: bytes) -> "Container":
        if len(blob) < 4 or blob[:4] != MAGIC:
            raise FormatError("not a point-cloud container (bad magic)")
        if len(blob) < 48:
            raise CorruptStreamError("container header truncated")
        version, system_code, depth, n_parts = struct.unpack_from("<BBBB", blob, 4)
        if version != VERSION:
            raise FormatError(f"unsupported container version {version}")
        if system_code not in _SYSTEM_NAME:
            raise FormatError(f"unknown coordinate-system code {system_code}")
        if n_parts < 1 or depth < 1:
            raise CorruptStreamError(f"invalid header: depth={depth}, n_parts={n_parts}")
        q, rho_max = struct.unpack_from("<dd", blob, 8)
        origin = struct.unpack_from("<3d", blob, 24)
        off = 48
        if len(blob) < off + 4 * n_parts:
            raise CorruptStreamError("container truncated in thresholds")
        thresholds = struct.unpack_from(f"<{n_parts}f", blob, off)
        off += 4 * n_parts
        fault = _header_fault(_SYSTEM_NAME[system_code], depth, q, rho_max, origin, thresholds)
        if fault:
            raise CorruptStreamError(f"invalid header: {fault}")
        parts = []
        for n in range(n_parts):
            if len(blob) < off + 17:
                raise CorruptStreamError(f"container truncated in part {n} record")
            count, empty, plen = struct.unpack_from("<QBQ", blob, off)
            off += 17
            if len(blob) < off + plen:
                raise CorruptStreamError(f"container truncated in part {n} payload")
            payload = blob[off : off + plen]
            off += plen
            if empty and (count or plen):
                raise CorruptStreamError(f"part {n} flagged empty but carries data")
            parts.append(PartRecord(count, bool(empty), payload))
        if len(blob) < off + 8:
            raise CorruptStreamError("container missing point-count trailer")
        (original_count,) = struct.unpack_from("<Q", blob, off)
        off += 8
        if original_count == 0:
            raise CorruptStreamError("point-count trailer is 0, but every container codes at least one point")
        if off != len(blob):
            raise CorruptStreamError(f"{len(blob) - off} trailing bytes after container end")
        return cls(
            _SYSTEM_NAME[system_code], depth, q, rho_max, origin, thresholds,
            tuple(parts), original_count,
        )


def _header_lattice(cloud: PointCloud, cfg: CodecConfig) -> tuple[QuantSteps, tuple, np.ndarray | None]:
    """The header's base steps and f32 thresholds, refused unless they decode, and each point's part (None for one).

    It measures the cloud once: Cartesian, its box (``coords.bounding_box``,
    on two threads); an angle system, its radii, only for rho_max or several
    parts. The step, lattice and split follow from those values.
    """
    if len(cloud) == 0:
        raise ConfigError("cannot quantize an empty cloud")
    radii = None
    if cfg.system == CARTESIAN:
        lo, hi = bounding_box(cloud.points)
        steps = box_steps(_step(cfg, float((hi - lo).max())), lo, hi)
    else:
        if cfg.rho_max is None or cfg.parts.n_parts > 1:
            radii = radial_coord(cloud.points, cfg.system)
        rho_max = float(radii.max()) if cfg.rho_max is None else cfg.rho_max
        steps = angle_steps(cfg.system, _step(cfg, rho_max), rho_max, cloud.points)
    # as the header stores them; the split keeps the config's float64 edges
    thresholds = tuple(np.asarray(cfg.parts.thresholds[: cfg.parts.n_parts], dtype=np.float32).tolist())
    fault = _header_fault(cfg.system, steps.depth, steps.q_primary, steps.rho_max, steps.origin_offset, thresholds)
    if fault:
        raise ConfigError(f"configuration gives an undecodable header: {fault}")
    return steps, thresholds, part_assignment(radii, cfg.parts, steps.rho_max) if cfg.parts.n_parts > 1 else None


def _two_threads() -> bool:
    """Whether parts, or a lone part's rows, are coded on two threads: kernel calls release the GIL, the Python coder's do not."""
    return kernel.coder_name() == "c"  # loads the kernel, so it is asked before any helper starts


def _code_parts(work, sizes) -> list:
    """``[work(n) for n in range(len(sizes))]``, the parts of size > 0 coded on two threads.

    The calling thread codes the largest part while the helper thread of
    :func:`threads.on_two_threads` codes the rest, largest first. The parts
    run serially on the Python coder, and when at most one part has work:
    the encoder then cuts a lone part's rows in two instead
    (:func:`_part_leaves`). Results and the error raised are those of the
    serial loop.
    """
    busy = sorted((n for n, size in enumerate(sizes) if size), key=lambda n: -sizes[n])
    serial = len(busy) < 2 or not _two_threads()
    return on_two_threads(work, len(sizes), () if serial else busy[1:])


def _part_leaves(points: np.ndarray, steps: QuantSteps, cut: bool) -> np.ndarray:
    """A part's sorted, unique leaf Morton codes: ``np.sort(_interleave(quantize(...).indices, depth))``.

    Each step that drops repeats is :func:`kernel.unique_codes`, whose one
    rule picks the kernel's bitmap or numpy's sort. Given ``cut`` (the
    encoder's choice for a lone busy part on the C coder) and two rows, the
    rows are cut in two halves: the calling thread and a helper each compute
    one half's codes (:func:`kernel.lattice_codes`) and drop their repeats,
    and the two sorted runs are merged once. A point's code depends on its row
    alone, so the halves give the whole part's codes; a radius past the
    lattice in either half is refused by the largest radius of all the part's
    rows, as the whole part is.
    """

    def leaves(rows: np.ndarray) -> np.ndarray:
        return kernel.unique_codes(kernel.lattice_codes(rows, steps), steps.depth)

    if not cut or len(points) < 2:
        return leaves(points)
    halves = points[: len(points) // 2], points[len(points) // 2 :]
    try:
        runs = on_two_threads(lambda i: leaves(halves[i]), 2, [1])
    except ConfigError:  # the one ConfigError of the lattice: a radius past it
        raise radius_past_lattice(steps.rho_max, radial_coord(points, steps.system)) from None
    return kernel.unique_codes(np.concatenate(runs), steps.depth, kind="stable")  # timsort merges two sorted runs


def encode_cloud(cloud: PointCloud, cfg: CodecConfig) -> Container:
    """Quantize each radial part to its sorted, unique leaf Morton codes, code its octree, and pack the container.

    Busy parts are coded on two threads (:func:`_code_parts`); a lone busy
    part's rows are cut in two instead (:func:`_part_leaves`).
    """
    steps, thresholds, part = _header_lattice(cloud, cfg)
    sizes = [len(cloud)] if part is None else np.bincount(part, minlength=cfg.parts.n_parts).tolist()
    cut = sum(size > 0 for size in sizes) == 1 and _two_threads()  # a lone busy part: its rows on two threads

    def code(n: int) -> PartRecord:
        if not sizes[n]:
            return PartRecord(0, True, b"")
        st = part_steps(steps, n)
        leaves = _part_leaves(cloud.points if part is None else cloud.points[part == n], st, cut)
        count, payload = kernel.encode_part(leaves, st.depth)
        return PartRecord(count, False, payload)

    return Container(
        cfg.system,
        steps.depth,
        steps.q_primary,
        steps.rho_max,
        steps.origin_offset,
        thresholds,
        tuple(_code_parts(code, sizes)),
        len(cloud),
    )


def decode_cloud(container: Container) -> PointCloud:
    """Voxel centers of every non-empty part, in part order."""
    steps = container.base_steps()

    def decode(n: int) -> np.ndarray | None:
        part = container.parts[n]
        if part.empty:
            return None
        if part.symbol_count == 0:
            raise CorruptStreamError(f"part {n}: zero symbols but not flagged empty")
        st = part_steps(steps, n)
        fault = _symbol_count_fault(part.symbol_count, st.depth, len(part.payload))
        if fault:
            raise CorruptStreamError(f"part {n}: {fault}")
        try:
            codes = kernel.decode_part(part.payload, st.depth, part.symbol_count)
        except CorruptStreamError as exc:
            raise CorruptStreamError(f"part {n}: {exc}") from None
        return kernel.leaf_points(codes, st)

    sizes = [0 if part.empty else part.symbol_count for part in container.parts]
    chunks = [points for points in _code_parts(decode, sizes) if points is not None]
    if not chunks:
        raise CorruptStreamError("container has no non-empty parts")
    return PointCloud(np.concatenate(chunks, axis=0))


def measure_bpp(container: Container) -> float:
    """Bits per original point, container header included."""
    if container.original_count <= 0:
        raise ValueError("original point count must be positive")
    return 8.0 * container.nbytes / container.original_count


def pipeline_reconstruct(cloud: PointCloud, cfg: CodecConfig) -> tuple[np.ndarray, np.ndarray, QuantSteps]:
    """Per-point reconstructions keeping the original↔voxel-center pairing.

    Returns (reconstructed points, part index per point, base steps). This is
    the pairing the closed-form error bounds are stated over; the container
    path loses it by merging duplicate voxels. It shares :func:`encode_cloud`'s
    front end (:func:`_header_lattice`), so it refuses the same input.
    """
    steps, _, part_idx = _header_lattice(cloud, cfg)
    if part_idx is None:
        return reconstruct_points(cloud.points, steps), np.zeros(len(cloud), dtype=np.int64), steps
    recon = np.empty_like(cloud.points)
    for n in range(cfg.parts.n_parts):
        mask = part_idx == n
        if mask.any():
            recon[mask] = reconstruct_points(cloud.points[mask], part_steps(steps, n))
    return recon, part_idx, steps
