"""The compiled kernel, ``part_kernel.c`` built on first use and called through ctypes, or its Python twins.

Per part the codec calls :func:`lattice_codes` (points to leaf Morton codes),
:func:`unique_codes` (those codes sorted and without repeats, by the kernel's
bitmap of the lattice's leaves when it is no larger than the codes), then
:func:`encode_part` (leaf codes to symbol count and payload), or on decode
:func:`decode_part` (payload to leaf codes) and :func:`leaf_points` (leaf
codes to voxel centres). The lattice calls subtract the header's origin and
add it back, in every system. The metrics call one function more,
:func:`neighbour_covariances`, the covariance of each reference point's
neighbourhood for the D2 normals. This module alone chooses the
implementation. :func:`load` compiles the C source with the system ``cc`` into
a per-user cache the first time a call asks for it; without a compiler, or
without a cache directory private to the user, it returns None and every call
runs its Python twin: ``coords``' numpy lattice chain, numpy's sort and
neighbour compare (``_sort_unique``, also the kernel path's deduplication on
lattices larger than their codes), the numpy de-interleave and
``coords.lattice_points``, the per-node coder (``_encode_per_node``, which
builds the octree with ``octree._levels``, and ``_decode_per_node``), and the
numpy gather, centre and ``einsum`` (``_gathered_covariances``). The twins
give the same bits and raise the same errors; the coder runs 100 to 300 times
slower per symbol, the covariances 15 to 20 times slower (README, *Speed*).
Kernel calls release the GIL, so parts, a lone part's halves and the normal
fit's blocks run on two threads.
"""

from __future__ import annotations

import contextlib
import ctypes
import functools
import hashlib
import os
import platform
import shutil
import stat
import subprocess
import tempfile
from pathlib import Path

import numpy as np

from . import coords, entropy
from .errors import CorruptStreamError
from .octree import (
    MAX_DEPTH,
    ContextCursor,
    Octree,
    _deinterleave,
    _expand_cells,
    _interleave,
    _levels,
    occupancy_stream,
    rebuild,
)

SOURCE = Path(__file__).with_name("part_kernel.c")
# no FMA, so index·step + offset rounds twice; the kernel uses no math.h function, so no -lm
CFLAGS = ("-O2", "-ffp-contract=off", "-shared", "-fPIC")

# error codes of part_kernel.c
(_EXHAUSTED, _DESYNC, _COUNT_INSIDE, _COUNT_EXCEEDS, _NOMEM, _CAPACITY, _SHAPE, _LEAVES, _RADIUS,
 _INDEX) = range(-1, -11, -1)
_NOT_LEAVES = "{} leaf codes are not a non-empty, sorted, unique set below 8^{}"  # _LEAVES, on either coder
_NOT_NEIGHBOURS = "neighbour indices must lie in [0, {})"  # _INDEX, on either coder

_u8p = ctypes.POINTER(ctypes.c_uint8)
_i64p = ctypes.POINTER(ctypes.c_int64)
_u64p = ctypes.POINTER(ctypes.c_uint64)
_f64p = ctypes.POINTER(ctypes.c_double)
_SIGNATURES = {
    "lattice_codes": [_f64p, _f64p, _f64p, ctypes.c_int64, ctypes.c_int64, _f64p, _f64p, ctypes.c_int,
                      ctypes.c_int, _i64p],
    "unique_codes": [_i64p, ctypes.c_int64, ctypes.c_int, _u64p, ctypes.c_int64, _i64p],
    "encode_part": [_i64p, ctypes.c_int64, ctypes.c_int, _i64p, _u8p, ctypes.c_int64, _u8p, ctypes.c_int64,
                    _i64p],
    "decode_part": [_u8p, ctypes.c_int64, ctypes.c_int, ctypes.c_int64, _u8p, _i64p],
    "leaf_codes": [_u8p, ctypes.c_int, _i64p, ctypes.c_int64],
    "code_points": [_i64p, ctypes.c_int64, _f64p, _f64p, _f64p],
    "neighbour_covariances": [_f64p, ctypes.c_int64, _i64p, ctypes.c_int64, ctypes.c_int64, _f64p],
}


def cache_dir() -> Path:
    """The per-user directory the built library lives in."""
    return Path.home() / ".cache" / "lidarpcc"


def _private(path: Path) -> bool:
    """True when ``path`` belongs to this user and no one else may write to it."""
    st = path.stat()
    return st.st_uid == os.getuid() and not st.st_mode & (stat.S_IWGRP | stat.S_IWOTH)


def _compile(cc: str, source: bytes, target: Path) -> bool:
    """Build the shared library at ``target`` in a private temp dir beside it, so readers never see half a file."""
    with tempfile.TemporaryDirectory(dir=target.parent) as tmp:
        src, lib = Path(tmp) / "part_kernel.c", Path(tmp) / "part_kernel.so"
        src.write_bytes(source)
        done = subprocess.run([cc, str(src), *CFLAGS, "-o", str(lib)], capture_output=True, timeout=120)
        if done.returncode != 0:
            return False
        lib.chmod(0o700)
        os.replace(lib, target)
    return True


def _prune(cache: Path, keep: Path) -> None:
    """Remove the libraries of other source or flag versions from ``cache``, those private to this user."""
    for old in cache.glob("part_kernel-*.so"):
        with contextlib.suppress(OSError):  # one another process removed, or one this user may not remove
            if old != keep and _private(old):
                old.unlink()


def open_kernel(cache: Path | None = None) -> ctypes.CDLL | None:
    """Load the library built from the current source in ``cache``, building it there first if missing.

    ``cache`` defaults to :func:`cache_dir`. The file name keys the source,
    the flags, the machine and the compiler. A build removes the libraries of
    other keys from ``cache``, those private to this user; loading a library
    already built removes nothing. Returns None, and the codec keeps to the
    Python coder, when there is no compiler or home directory, the source is
    missing, the build fails, or ``cache`` or the library in it is not private
    to this user: a file someone else could have written is never loaded.
    """
    cc = shutil.which("cc")
    if cc is None:
        return None
    try:
        source = SOURCE.read_bytes()
        key = hashlib.sha256(b"\0".join(
            [source, " ".join(CFLAGS).encode(), platform.machine().encode(), cc.encode()]
        )).hexdigest()[:16]
        cache = cache_dir() if cache is None else Path(cache)
        cache.mkdir(mode=0o700, parents=True, exist_ok=True)
        if not _private(cache):
            return None
        path = cache / f"part_kernel-{key}.so"
        if not path.exists():
            if not _compile(cc, source, path):
                return None
            _prune(cache, path)
        if not _private(path):
            return None
        lib = ctypes.CDLL(str(path))
    except (OSError, RuntimeError, subprocess.SubprocessError):
        return None  # no home, unwritable cache, failed build or unloadable file
    for name, argtypes in _SIGNATURES.items():
        fn = getattr(lib, name)
        fn.argtypes = argtypes
        fn.restype = ctypes.c_int64
    return lib


@functools.cache
def load() -> ctypes.CDLL | None:
    """The compiled kernel, built once per source version; None when it cannot be built."""
    return open_kernel()


def coder_name() -> str:
    """Which coder the codec runs: ``"c"`` for the kernel, ``"python"`` for the fallback."""
    return "python" if load() is None else "c"


def _ptr(array: np.ndarray, kind):
    return array.ctypes.data_as(kind)


def _check_depth(depth: int) -> None:
    if not 1 <= depth <= MAX_DEPTH:
        raise ValueError(f"octree depth {depth} outside [1, {MAX_DEPTH}]")


def _rows(points) -> np.ndarray:
    """``points`` as a C-contiguous (N, 3) float64 array, the layout the kernel reads."""
    points = np.ascontiguousarray(points, dtype=np.float64)
    if points.ndim != 2 or points.shape[1] != 3:
        raise ValueError(f"points must be (N, 3), got {points.shape}")
    return points


def lattice_codes(points: np.ndarray, steps: coords.QuantSteps) -> np.ndarray:
    """Leaf Morton code of each of the (N, 3) ``points`` on the lattice of ``steps``, in point order.

    The codes equal ``_interleave(coords._lattice_indices(points, steps), depth)``,
    and an angle-system radius past the lattice raises its ConfigError, word
    for word. The angle systems' coordinates come from numpy's trig either way;
    the kernel takes over the origin, divide, round, clip and interleave for
    every system, and reads Cartesian points in place.
    """
    _check_depth(steps.depth)
    points = _rows(points)
    lib = load()
    if lib is None:
        return _interleave(coords._lattice_indices(points, steps), steps.depth)
    columns, stride = list(points.T), 3  # Cartesian points read in place, one row of three apart
    if steps.system != coords.CARTESIAN:
        columns, stride = [np.ascontiguousarray(c) for c in coords._system_columns(points, steps.system)], 1
    offset = steps.offset_vector()
    step = np.ascontiguousarray(steps.step_vector(), dtype=np.float64)  # a QuantSteps may hold integer steps
    codes = np.empty(len(points), dtype=np.int64)
    done = lib.lattice_codes(*(_ptr(column, _f64p) for column in columns), stride, len(points), _ptr(offset, _f64p),
                             _ptr(step, _f64p), steps.depth, steps.system != coords.CARTESIAN, _ptr(codes, _i64p))
    if done == _RADIUS:
        raise coords.radius_past_lattice(steps.rho_max, columns[0])
    if done != len(points):
        raise RuntimeError(f"part kernel failed with code {done}")
    return codes


def unique_codes(codes: np.ndarray, depth: int, kind: str | None = None) -> np.ndarray:
    """``np.unique(codes)`` of a part's leaf Morton ``codes``, each in [0, 8^depth); ``codes`` is reused as scratch.

    The one rule of the deduplication: the kernel's bitmap of 8^depth bits
    (:func:`_bitmap_unique`) when the kernel loads and the bitmap is no larger
    than the codes, 8^depth ≤ 64·len(codes); otherwise numpy's sort and a
    neighbour compare (:func:`_sort_unique`), the no-compiler twin and the path
    of every deeper lattice. ``kind`` is the sort's: "stable" merges sorted runs
    in one pass. A code outside [0, 8^depth) raises ValueError on either path.
    """
    _check_depth(depth)
    codes = np.ascontiguousarray(codes, dtype=np.int64)
    lib = load()
    if lib is not None and 8**depth <= 64 * len(codes):
        return _bitmap_unique(codes, depth, lib)
    return _sort_unique(codes, depth, kind)


def _bitmap_unique(codes: np.ndarray, depth: int, lib: ctypes.CDLL) -> np.ndarray:
    """Each code sets its bit of an 8^depth-bit map, read back in order into the front of ``codes``."""
    bits = np.empty(-(-(8**depth) // 64), dtype=np.uint64)
    count = lib.unique_codes(_ptr(codes, _i64p), len(codes), depth, _ptr(bits, _u64p), len(bits), _ptr(codes, _i64p))
    if count == _LEAVES:
        raise ValueError(_NOT_LEAVES.format(len(codes), depth))
    if count < 0:
        raise RuntimeError(f"part kernel failed with code {count}")
    return codes[:count]


def _sort_unique(codes: np.ndarray, depth: int, kind: str | None) -> np.ndarray:
    """``codes`` sorted in place, then without their repeats, by a neighbour compare."""
    codes.sort(kind=kind)
    if len(codes) and (codes[0] < 0 or codes[-1] >> 3 * depth):
        raise ValueError(_NOT_LEAVES.format(len(codes), depth))
    keep = np.empty(len(codes), dtype=bool)
    keep[:1] = True
    np.not_equal(codes[1:], codes[:-1], out=keep[1:])
    return codes[keep]


def encode_part(codes: np.ndarray, depth: int) -> tuple[int, bytes]:
    """Symbol count and payload of the depth-``depth`` octree over a part's leaf Morton codes.

    ``codes`` are sorted, unique and below 8^depth, as ``codec._part_leaves``
    gives them; ValueError otherwise. The count and payload equal those of
    ``build(...)`` coded by ``occupancy_stream`` and ``entropy.encode``.
    """
    if codes.dtype != np.int64:
        raise TypeError(f"leaf codes must be int64, not {codes.dtype}")
    _check_depth(depth)
    lib = load()
    if lib is None:
        return _encode_per_node(codes, depth)
    codes = np.ascontiguousarray(codes)
    n = len(codes)
    cap = sum(min(n, 8 ** level) for level in range(depth))  # level ℓ + 1 holds at most 8^ℓ nodes
    cells, symbols = np.empty(n, dtype=np.int64), np.empty(cap, dtype=np.uint8)
    # a symbol renormalizes at most twice (its range stays ≥ 2^24/2^16), and
    # every shift emits at most one byte, flush included
    out, count = np.empty(2 * cap + 5, dtype=np.uint8), np.zeros(1, dtype=np.int64)
    size = lib.encode_part(_ptr(codes, _i64p), n, depth, _ptr(cells, _i64p), _ptr(symbols, _u8p), cap,
                           _ptr(out, _u8p), len(out), _ptr(count, _i64p))
    if size == _LEAVES:
        raise ValueError(_NOT_LEAVES.format(n, depth))
    if size == _NOMEM:
        raise MemoryError("part kernel could not allocate its context tables")
    if size < 0:
        raise RuntimeError(f"part kernel failed with code {size}")
    return int(count[0]), out[:size].tobytes()


def decode_part(payload: bytes, depth: int, symbol_count: int) -> np.ndarray:
    """Leaf Morton codes of one part's payload, breadth-first; :class:`CorruptStreamError` if it is corrupt.

    ``symbol_count`` sizes the symbol buffer, so the caller bounds it first.
    """
    lib = load()
    if lib is None:
        return _decode_per_node(payload, depth, symbol_count)
    data = np.frombuffer(payload, dtype=np.uint8)
    symbols = np.empty(symbol_count, dtype=np.uint8)
    info = np.zeros(2, dtype=np.int64)
    leaves = lib.decode_part(_ptr(data, _u8p), len(data), depth, symbol_count,
                             _ptr(symbols, _u8p), _ptr(info, _i64p))
    if leaves == _EXHAUSTED:
        raise CorruptStreamError(f"range-coded payload exhausted at byte {info[0]}")
    if leaves == _DESYNC:
        raise CorruptStreamError("range decoder desynchronized")
    if leaves == _COUNT_INSIDE:
        raise CorruptStreamError(f"symbol count {symbol_count} ends inside level {info[0]} ({info[1]} nodes)")
    if leaves == _COUNT_EXCEEDS:
        raise CorruptStreamError(f"symbol count {symbol_count} exceeds the tree's {info[0]} nodes")
    if leaves == _NOMEM:
        raise MemoryError("part kernel could not allocate its context tables")
    if leaves < 0:
        raise RuntimeError(f"part kernel failed with code {leaves}")
    codes = np.empty(leaves, dtype=np.int64)
    done = lib.leaf_codes(_ptr(symbols, _u8p), depth, _ptr(codes, _i64p), leaves)
    if done != leaves:
        raise RuntimeError(f"part kernel expanded {done} of {leaves} leaves")
    return codes


def leaf_points(codes: np.ndarray, steps: coords.QuantSteps) -> np.ndarray:
    """Cartesian voxel centres of a part's leaf Morton codes, (N, 3) float64, in code order.

    The points equal ``coords.lattice_points(_deinterleave(codes, depth), steps)``
    bit for bit. The kernel de-interleaves and writes index·step + origin; the
    angle systems' trig stays numpy's (``coords.system_to_cart``).
    """
    lib = load()
    if lib is None:
        return coords.lattice_points(_deinterleave(codes, steps.depth), steps)
    codes = np.ascontiguousarray(codes, dtype=np.int64)
    offset = steps.offset_vector()
    step = np.ascontiguousarray(steps.step_vector(), dtype=np.float64)
    out = np.empty((len(codes), 3))
    done = lib.code_points(_ptr(codes, _i64p), len(codes), _ptr(step, _f64p), _ptr(offset, _f64p), _ptr(out, _f64p))
    if done != len(codes):
        raise RuntimeError(f"part kernel failed with code {done}")
    return coords.system_to_cart(out, steps.system)


def neighbour_covariances(points: np.ndarray, idx: np.ndarray) -> np.ndarray:
    """The (rows, 3, 3) covariance of each neighbourhood ``points[idx[r]]`` of the (rows, k) indices ``idx``.

    The covariances equal :func:`_gathered_covariances`' bit for bit: the
    kernel reads the (N, 3) points in place, sums in numpy's order and makes
    no (rows, k, 3) gather. An index outside [0, N) raises IndexError, on the
    kernel before any point is read; so does a negative one, which numpy's
    indexing would take from the end.
    """
    points = _rows(points)
    idx = np.asarray(idx)
    if idx.ndim != 2 or idx.shape[1] < 1 or not np.issubdtype(idx.dtype, np.integer):
        raise ValueError(f"neighbour indices must be (rows, k >= 1) integers, got {idx.dtype} {idx.shape}")
    idx = np.ascontiguousarray(idx, dtype=np.int64)
    lib = load()
    if lib is None:
        return _gathered_covariances(points, idx)
    cov = np.empty((len(idx), 3, 3))
    done = lib.neighbour_covariances(_ptr(points, _f64p), len(points), _ptr(idx, _i64p), *idx.shape,
                                     _ptr(cov, _f64p))
    if done == _INDEX:
        raise IndexError(_NOT_NEIGHBOURS.format(len(points)))
    if done != len(idx):
        raise RuntimeError(f"part kernel failed with code {done}")
    return cov


def _gathered_covariances(points: np.ndarray, idx: np.ndarray) -> np.ndarray:
    """The numpy covariances: the (rows, k, 3) gather, centred in place, then ``einsum`` and a divide by k."""
    if idx.size and not (idx.min() >= 0 and idx.max() < len(points)):
        raise IndexError(_NOT_NEIGHBOURS.format(len(points)))
    nbh = points[idx]
    nbh -= nbh.mean(axis=1, keepdims=True)
    cov = np.einsum("nki,nkj->nij", nbh, nbh)
    cov /= idx.shape[1]
    return cov


def _encode_per_node(codes: np.ndarray, depth: int) -> tuple[int, bytes]:
    """The Python coder: the leaves checked, then the ``occupancy_stream`` contexts of their octree range-coded symbol by symbol."""
    if not len(codes) or codes[0] < 0 or codes[-1] >> 3 * depth or (codes[1:] <= codes[:-1]).any():
        raise ValueError(_NOT_LEAVES.format(len(codes), depth))
    tree = Octree(depth, _levels(codes, depth))
    return tree.node_count, entropy.encode(occupancy_stream(tree), entropy.AdaptiveContextModel()).data


def _decode_per_node(payload: bytes, depth: int, symbol_count: int) -> np.ndarray:
    """The Python decoder, node by node; a level larger than the symbols left is refused before it is decoded."""
    dec = entropy._RangeDecoder(payload)
    model = entropy.AdaptiveContextModel()
    cursor = ContextCursor(depth)
    out = bytearray()
    for lvl in range(1, depth + 1):
        nodes = cursor.pending()
        if nodes > symbol_count - len(out):
            raise CorruptStreamError(f"symbol count {symbol_count} ends inside level {lvl} ({nodes} nodes)")
        out += bytes(entropy._decode_next(dec, model, cursor) for _ in range(nodes))
    if len(out) != symbol_count:
        raise CorruptStreamError(f"symbol count {symbol_count} exceeds the tree's {len(out)} nodes")
    last = rebuild(np.frombuffer(out, dtype=np.uint8), depth).levels[-1]
    return _expand_cells(last.cells, last.symbols)
