"""Occupancy-symbol probability models and a bit-exact 32-bit range coder.

Coder layout (documented in FORMAT.md): 32-bit range register renormalized a
byte at a time when it drops below 2^24; the low accumulator propagates carries
through a cache byte plus a pending-0xFF run; flushing performs five extra
shifts, so an empty stream costs exactly 5 bytes and the first payload byte is
always zero (the decoder skips it and preloads the next four).

Probabilities are coded as integer frequency tables over symbols 1..255 with
every frequency ≥ 1 and total ≤ 2^16 − 255, so cumulative values always fit in
16 bits. A model is any object with ``coding_table(ctx)``, the length-256
cumulative table FORMAT.md specifies, ``update(ctx, symbol)`` and ``predict(ctx)``.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass

import numpy as np

from .errors import CorruptStreamError

_TOP = 1 << 24
_MASK32 = 0xFFFFFFFF
_FREQ_TOTAL_CAP = (1 << 16) - 255  # max total of a frequency table (with smoothing)
_COUNT_CAP = _FREQ_TOTAL_CAP - 255  # max raw-count total before halving
_SMOOTH = np.arange(1, 256, dtype=np.int64)  # Laplace +1 folded into cumulative tables


@dataclass(frozen=True)
class Bitstream:
    data: bytes
    bit_len: int

    def __post_init__(self):
        if self.bit_len > 8 * len(self.data):
            raise ValueError("bit_len exceeds payload size")


class UniformModel:
    """Fixed 1/255 model; costs exactly log₂255 bits/symbol with this coder."""

    _CUM = np.concatenate([[0], np.cumsum(np.full(255, 256, dtype=np.int64))])
    _PMF = np.full(255, 1.0 / 255.0)

    def predict(self, ctx) -> np.ndarray:
        return self._PMF

    def update(self, ctx, symbol: int) -> None:
        pass

    def coding_table(self, ctx) -> np.ndarray:
        return self._CUM


class AdaptiveContextModel:
    """Laplace-smoothed frequency tables keyed by (parent byte, octant, capped level).

    p(s | ctx) = (count(s) + α) / (total + 255α) with α = 1. Counts halve once a
    context's smoothed total would exceed 2^16 − 255, keeping tables 16-bit.
    The key reads only the parent byte ``ctx.ancestors[0][0]``, ``ctx.octant``
    and ``ctx.level``, the key of FORMAT.md §Probability model.

    This is the reference path and the codec's Python coder: the compiled
    part kernel keeps the same model per context, and the tests hold it byte
    for byte to this class.
    """

    LEVEL_CAP = 16

    def __init__(self):
        self._tables: dict[tuple, list] = {}  # key -> [counts(255), total]

    @classmethod
    def context_key(cls, ctx) -> tuple:
        return (ctx.ancestors[0][0], ctx.octant, min(ctx.level, cls.LEVEL_CAP))

    def _entry(self, ctx) -> list:
        key = self.context_key(ctx)
        entry = self._tables.get(key)
        if entry is None:
            entry = [np.zeros(255, dtype=np.int64), 0]
            self._tables[key] = entry
        return entry

    def predict(self, ctx) -> np.ndarray:
        counts, total = self._entry(ctx)
        return (counts + 1.0) / (total + 255.0)

    def update(self, ctx, symbol: int) -> None:
        entry = self._entry(ctx)
        counts = entry[0]
        counts[symbol - 1] += 1
        entry[1] += 1
        if entry[1] > _COUNT_CAP:
            counts >>= 1
            entry[1] = int(counts.sum())

    def coding_table(self, ctx) -> np.ndarray:
        """Length-256 cumulative frequencies: cum[0]=0, cum[s] covers symbols 1..s."""
        cum = np.empty(256, dtype=np.int64)
        cum[0] = 0
        np.cumsum(self._entry(ctx)[0], out=cum[1:])
        cum[1:] += _SMOOTH
        return cum

    def state_digest(self) -> str:
        """Hash of the counts; encoder and decoder agree after every symbol."""
        h = hashlib.sha256()
        for key in sorted(self._tables):
            h.update(repr(key).encode())
            h.update(self._tables[key][0].tobytes())
        return h.hexdigest()


class _RangeEncoder:
    def __init__(self):
        self._low = 0
        self._range = _MASK32
        self._cache = 0
        self._cache_size = 1
        self._out = bytearray()

    def encode(self, cum_low: int, freq: int, total: int) -> None:
        r = self._range // total
        self._low += r * cum_low
        self._range = r * freq
        while self._range < _TOP:
            self._shift_low()
            self._range = (self._range << 8) & _MASK32

    def _shift_low(self) -> None:
        low = self._low
        if low < 0xFF000000 or low > _MASK32:
            carry = low >> 32
            out = self._out
            out.append((self._cache + carry) & 0xFF)
            pad = (0xFF + carry) & 0xFF
            for _ in range(self._cache_size - 1):
                out.append(pad)
            self._cache = (low >> 24) & 0xFF
            self._cache_size = 0
        self._cache_size += 1
        self._low = (low << 8) & _MASK32

    def finish(self) -> bytes:
        for _ in range(5):
            self._shift_low()
        return bytes(self._out)


class _RangeDecoder:
    def __init__(self, data: bytes):
        self._data = data
        self._pos = 0
        self._range = _MASK32
        self._code = 0
        self._r = 1
        self._read_byte()  # encoder's initial cache byte, always zero
        for _ in range(4):
            self._code = (self._code << 8) | self._read_byte()

    def _read_byte(self) -> int:
        if self._pos >= len(self._data):
            raise CorruptStreamError(f"range-coded payload exhausted at byte {self._pos}")
        b = self._data[self._pos]
        self._pos += 1
        return b

    def decode_target(self, total: int) -> int:
        self._r = self._range // total
        v = self._code // self._r
        if v >= total:
            raise CorruptStreamError("range decoder desynchronized")
        return v

    def consume(self, cum_low: int, freq: int) -> None:
        r = self._r
        self._code -= r * cum_low
        self._range = r * freq
        while self._range < _TOP:
            self._code = ((self._code << 8) | self._read_byte()) & _MASK32
            self._range = (self._range << 8) & _MASK32


class _ListCursor:
    """Adapts a pre-computed context sequence to the cursor protocol."""

    def __init__(self, contexts):
        self._it = iter(contexts)

    def next_context(self):
        return next(self._it)

    def push(self, symbol: int) -> None:
        pass


def encode(stream, model) -> Bitstream:
    """Range-code (symbol, context) pairs; the model adapts after each symbol."""
    enc = _RangeEncoder()
    for sym, ctx in stream:
        sym = int(sym)
        if not 1 <= sym <= 255:
            raise ValueError(f"occupancy symbol {sym} outside [1, 255]")
        cum = model.coding_table(ctx)
        lo = int(cum[sym - 1])
        enc.encode(lo, int(cum[sym]) - lo, int(cum[255]))
        model.update(ctx, sym)
    data = enc.finish()
    return Bitstream(data, 8 * len(data))


def decode(bs: Bitstream, model, contexts, count: int) -> np.ndarray:
    """Exact inverse of :func:`encode`.

    ``contexts`` either follows the cursor protocol (next_context()/push(sym),
    letting contexts depend on already-decoded symbols) or is a plain iterable
    of contexts.
    """
    cursor = contexts if hasattr(contexts, "next_context") else _ListCursor(contexts)
    dec = _RangeDecoder(bs.data)
    out = np.empty(count, dtype=np.uint8)
    for i in range(count):
        out[i] = _decode_next(dec, model, cursor)
    return out


def _decode_next(dec: _RangeDecoder, model, cursor) -> int:
    """Decode the symbol of the cursor's next context, then advance model and cursor."""
    ctx = cursor.next_context()
    cum = model.coding_table(ctx)
    v = dec.decode_target(int(cum[255]))
    sym = int(np.searchsorted(cum, v, side="right"))
    lo = int(cum[sym - 1])
    dec.consume(lo, int(cum[sym]) - lo)
    model.update(ctx, sym)
    cursor.push(sym)
    return sym


def cross_entropy(stream, model) -> float:
    """−Σ log₂ p(symbolᵢ | ctxᵢ) in bits, updating the model exactly as encode does."""
    bits = 0.0
    for sym, ctx in stream:
        bits -= math.log2(float(model.predict(ctx)[int(sym) - 1]))
        model.update(ctx, int(sym))
    return bits
