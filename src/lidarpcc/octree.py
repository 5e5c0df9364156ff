"""Octree construction over quantized index triples and breadth-first occupancy streams.

Child octant convention: at level ℓ the octant of a child is
``c = 4·b_x + 2·b_y + b_z`` where ``b_k`` is bit ``depth−ℓ`` of index
coordinate k; the parent's occupancy byte has bit ``c`` (value 2^c) set iff
that sub-voxel holds at least one index. Streams serialize levels 1..depth
breadth-first, nodes in parent order then ascending child octant.

The multi-level radial partition lives here too: part n of the cloud covers
ρ ∈ [t_n·ρ_max, t_{n+1}·ρ_max) and is coded as an independent octree with all
quantization steps divided by 2^n (n extra levels).
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Iterator, NamedTuple

import numpy as np

from .coords import QuantizedCloud, QuantSteps, radial_coord, radius_past_lattice, SPHERICAL
from .errors import ConfigError, CorruptStreamError
from .pcio import PointCloud

MAX_DEPTH = 20  # 3·depth bits of a Morton code must fit in int64

# octants present in a given occupancy byte, ascending
_OCTANTS_OF = tuple(tuple(c for c in range(8) if s >> c & 1) for s in range(256))


class NodeContext(NamedTuple):
    """Causal description of a node, available to the decoder before its symbol."""

    octant: int  # position within the parent, 1..8 (root: 1); the model reads it
    level: int  # 1..depth; the model reads min(level, 16)
    ancestors: tuple  # ((parent byte, parent octant),), root ((0, 0),); the model reads the byte
    position: tuple | None = None  # no model reads it; the cursor leaves it unset


@dataclass(frozen=True)
class OctreeLevel:
    cells: np.ndarray  # (n,) int64 Morton prefixes (3·(level−1) bits), ascending
    symbols: np.ndarray  # (n,) uint8 occupancy bytes, 1..255


@dataclass(frozen=True)
class Octree:
    depth: int
    levels: tuple  # OctreeLevel per level 1..depth

    @property
    def node_count(self) -> int:
        return sum(len(lv.symbols) for lv in self.levels)

    def all_symbols(self) -> np.ndarray:
        return np.concatenate([lv.symbols for lv in self.levels])

    def __eq__(self, other):
        if not isinstance(other, Octree) or self.depth != other.depth:
            return NotImplemented if not isinstance(other, Octree) else False
        return all(
            np.array_equal(a.cells, b.cells) and np.array_equal(a.symbols, b.symbols)
            for a, b in zip(self.levels, other.levels)
        )


# _SPREAD[b] moves bit i of the byte b to bit 3·i
_SPREAD = np.zeros(256, dtype=np.int64)
for _bit in range(8):
    _SPREAD |= ((np.arange(256) >> _bit) & 1) << (3 * _bit)
# masks that gather every third bit of a Morton code into the low 21 bits
_COMPACT = ((2, 0x10C30C30C30C30C3), (4, 0x100F00F00F00F00F), (8, 0x1F0000FF0000FF),
            (16, 0x1F00000000FFFF), (32, 0x1FFFFF))


def _interleave(indices: np.ndarray, depth: int) -> np.ndarray:
    """Index triples → Morton codes, x highest within each 3-bit group.

    Only the low ``depth`` bits of each index count; each coordinate takes
    one ``_SPREAD`` lookup per byte.
    """
    idx = np.asarray(indices, dtype=np.int64) & ((1 << depth) - 1)
    code = np.zeros(len(idx), dtype=np.int64)
    for shift in range(0, depth, 8):
        byte = (idx >> shift) & 255
        code |= (_SPREAD[byte[:, 0]] << 2 | _SPREAD[byte[:, 1]] << 1 | _SPREAD[byte[:, 2]]) << (3 * shift)
    return code


def _deinterleave(codes: np.ndarray, depth: int) -> np.ndarray:
    """Morton codes → (n, 3) index triples; inverse of :func:`_interleave`."""
    codes = np.asarray(codes, dtype=np.int64) & ((1 << 3 * depth) - 1)
    out = (codes[:, None] >> np.array([2, 1, 0])) & 0x1249249249249249
    for shift, mask in _COMPACT:
        out = (out | out >> shift) & mask
    return out


def _expand_cells(cells: np.ndarray, symbols: np.ndarray) -> np.ndarray:
    """Child cell codes of each (cell, occupancy) pair, breadth-first order."""
    grid = (cells[:, None] << 3) | np.arange(8, dtype=np.int64)
    occupied = ((symbols[:, None] >> np.arange(8, dtype=np.uint8)) & 1).astype(bool)
    return grid[occupied]  # row-major: nodes in order, octants ascending


def build(qc: QuantizedCloud) -> Octree:
    """Top-down octree over the index set; breadth-first deterministic."""
    depth = qc.steps.depth
    if depth < 1 or depth > MAX_DEPTH:
        raise ConfigError(f"octree depth {depth} outside [1, {MAX_DEPTH}]")
    if len(qc.indices) == 0:
        raise ValueError("cannot build an octree over an empty index set")
    return Octree(depth, _levels(np.sort(_interleave(qc.indices, depth)), depth))


def _levels(u: np.ndarray, depth: int) -> tuple:
    """Levels 1..depth of the octree over sorted leaf Morton codes ``u``; ``reduceat`` merges a repeated leaf.

    :func:`build` and ``kernel._encode_per_node``, the Python twin of
    ``part_kernel.c``'s ``encode_part``, share this loop.
    """
    levels = []
    for _ in range(depth):  # bottom-up: u holds the occupied children of this level's nodes
        parents = u >> 3
        starts = np.flatnonzero(np.r_[True, parents[1:] != parents[:-1]])
        cells = parents[starts]
        bits = np.left_shift(np.uint8(1), (u & 7).astype(np.uint8))
        symbols = np.bitwise_or.reduceat(bits, starts)
        levels.append(OctreeLevel(cells, symbols))
        u = cells
    return tuple(reversed(levels))


def leaf_indices(tree: Octree) -> np.ndarray:
    """(M, 3) int64 leaf index triples in breadth-first (Morton) order."""
    last = tree.levels[-1]
    return _deinterleave(_expand_cells(last.cells, last.symbols), tree.depth)


def rebuild(symbols, depth: int) -> Octree:
    """Inverse of serialization: consume breadth-first symbols, validate shape."""
    symbols = np.asarray(symbols, dtype=np.uint8)
    levels = []
    cells = np.zeros(1, dtype=np.int64)
    pos = 0
    for lvl in range(1, depth + 1):
        n = len(cells)
        if pos + n > len(symbols):
            raise CorruptStreamError(
                f"occupancy stream exhausted at node {len(symbols)} (level {lvl} needs {n} nodes)"
            )
        syms = symbols[pos : pos + n]
        if (syms == 0).any():
            bad = pos + int(np.flatnonzero(syms == 0)[0])
            raise CorruptStreamError(f"zero occupancy byte at node {bad}")
        levels.append(OctreeLevel(cells, syms))
        pos += n
        if lvl < depth:
            cells = _expand_cells(cells, syms)
    if pos != len(symbols):
        raise CorruptStreamError(f"{len(symbols) - pos} leftover symbols after node {pos}")
    return Octree(depth, tuple(levels))


class ContextCursor:
    """Causal walk over a breadth-first occupancy stream.

    ``next_context()`` describes the node about to be coded; ``push(symbol)``
    commits its occupancy byte and schedules its children. The encoder and the
    decoder drive the same cursor, so both sides compute identical contexts.
    The model keys on the parent's byte, the node's octant and its level; the
    parent's octant rides along in ``ancestors[0][1]``, as ``NodeContext``
    documents, and no model reads it.

    ``kernel._decode_per_node`` drives it when the compiled part kernel, which
    derives the same contexts from the parent bytes, is not in use.
    """

    def __init__(self, depth: int):
        self.depth = depth
        # queue entries: (level, octant, ancestors)
        self._queue = deque([(1, 1, ((0, 0),))])

    def pending(self) -> int:
        return len(self._queue)

    def next_context(self) -> NodeContext:
        level, octant, anc = self._queue[0]
        return NodeContext(octant, level, anc)

    def push(self, symbol: int) -> None:
        level, octant, _ = self._queue.popleft()
        if level >= self.depth:
            return  # children are leaves, not coded
        child_anc = ((symbol, octant),)
        level += 1
        self._queue.extend((level, c + 1, child_anc) for c in _OCTANTS_OF[symbol])


def occupancy_stream(tree: Octree) -> Iterator[tuple[int, NodeContext]]:
    """Yield (symbol, context) pairs in coding order.

    ``kernel._encode_per_node``, the Python coder, codes this stream when the
    compiled part kernel is not in use.
    """
    cursor = ContextCursor(tree.depth)
    for lv in tree.levels:
        for sym in lv.symbols:
            s = int(sym)
            yield s, cursor.next_context()
            cursor.push(s)


# ---------------------------------------------------------------------------
# Multi-level radial partition
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class MultiLevelConfig:
    """N radial bands; band n is octree-coded with n extra levels (steps /2^n)."""

    n_parts: int = 3
    thresholds: tuple = (0.0, 0.25, 0.5, 1.0)  # t_0..t_N as fractions of rho_max

    def __post_init__(self):
        t = tuple(float(v) for v in self.thresholds)
        object.__setattr__(self, "thresholds", t)
        if self.n_parts < 1:
            raise ConfigError("n_parts must be ≥ 1")
        if len(t) != self.n_parts + 1:
            raise ConfigError(f"need {self.n_parts + 1} thresholds for {self.n_parts} parts, got {len(t)}")
        if t[0] != 0.0 or t[-1] != 1.0:
            raise ConfigError("thresholds must start at 0 and end at 1")
        if any(a >= b for a, b in zip(t, t[1:])):
            raise ConfigError("thresholds must be strictly increasing")


def partition_multilevel(
    cloud: PointCloud, cfg: MultiLevelConfig, rho_max: float, system: str = SPHERICAL
) -> list[PointCloud]:
    """Split a cloud into the parts of :func:`part_assignment` of its ``system`` radii; one part is the cloud itself."""
    if cfg.n_parts == 1:
        return [cloud]
    part = part_assignment(radial_coord(cloud.points, system), cfg, rho_max)
    out = []
    for n in range(cfg.n_parts):
        mask = part == n
        attr = cloud.attr[mask] if cloud.attr is not None else None
        out.append(PointCloud(cloud.points[mask], attr, cloud.attr_name))
    return out


def part_assignment(radii: np.ndarray, cfg: MultiLevelConfig, rho_max: float) -> np.ndarray:
    """Part index per radius: half-open radial bands, the last closed at ρ_max.

    One part takes every radius; several refuse one beyond ``rho_max``.
    """
    if cfg.n_parts == 1:
        return np.zeros(len(radii), dtype=np.int64)
    if radii.max(initial=0.0) > rho_max:
        raise radius_past_lattice(rho_max, radii)
    edges = np.asarray(cfg.thresholds) * rho_max
    return np.clip(np.searchsorted(edges, radii, side="right") - 1, 0, cfg.n_parts - 1)


def part_steps(base: QuantSteps, n: int) -> QuantSteps:
    """Steps for part n: every step halved n times, n extra octree levels."""
    if n < 0:
        raise ValueError("part index must be ≥ 0")
    if n == 0:
        return base
    f = float(1 << n)
    return QuantSteps(
        base.system,
        base.q_primary / f,
        base.q_theta / f,
        base.q_phi / f,
        base.bins << n,
        base.depth + n,
        base.rho_max,
        base.origin_offset,
    )
