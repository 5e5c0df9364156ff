"""Adaptive-context range coding: round trips, optimality, and corruption handling."""

import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from lidarpcc.entropy import (
    _COUNT_CAP,
    _FREQ_TOTAL_CAP,
    AdaptiveContextModel,
    Bitstream,
    UniformModel,
    cross_entropy,
    decode,
    encode,
)
from lidarpcc.errors import CorruptStreamError
from lidarpcc.octree import NodeContext

symbols_lists = st.lists(st.integers(1, 255), min_size=0, max_size=300)


def _ctx(i: int) -> NodeContext:
    """Deterministic context pattern exercising many (parent, octant, level) keys."""
    return NodeContext(
        octant=(i * 7) % 8 + 1,
        level=(i * 3) % 16 + 1,
        ancestors=(((i * 31) % 256, (i * 5) % 8 + 1), (0, 0), (0, 0)),
        position=(0.5, 0.25, 0.75),
    )


def _pairs(symbols):
    return [(s, _ctx(i)) for i, s in enumerate(symbols)]


@given(symbols_lists)
def test_uniform_round_trip(symbols):
    bs = encode(_pairs(symbols), UniformModel())
    out = decode(bs, UniformModel(), [_ctx(i) for i in range(len(symbols))], len(symbols))
    assert out.tolist() == symbols


@given(symbols_lists)
def test_adaptive_round_trip(symbols):
    bs = encode(_pairs(symbols), AdaptiveContextModel())
    enc_model = AdaptiveContextModel()
    for s, c in _pairs(symbols):
        enc_model.update(c, s)
    dec_model = AdaptiveContextModel()
    out = decode(bs, dec_model, [_ctx(i) for i in range(len(symbols))], len(symbols))
    assert out.tolist() == symbols
    # model state is a pure function of the decoded stream
    assert dec_model.state_digest() == enc_model.state_digest()


def test_empty_stream_is_five_flush_bytes():
    bs = encode([], UniformModel())
    assert len(bs.data) == 5
    assert decode(bs, UniformModel(), [], 0).size == 0


def test_uniform_model_costs_log2_255_bits():
    rng = np.random.default_rng(0)
    symbols = rng.integers(1, 256, size=20000).tolist()
    bs = encode(_pairs(symbols), UniformModel())
    per_symbol = bs.bit_len / len(symbols)
    assert per_symbol == pytest.approx(math.log2(255), rel=0.005)


def test_adaptive_beats_uniform_on_skewed_stream():
    rng = np.random.default_rng(1)
    symbols = np.where(rng.random(5000) < 0.9, 7, rng.integers(1, 256, 5000)).tolist()
    pairs = [(s, _ctx(0)) for s in symbols]  # one context → the table really adapts
    flat = encode(pairs, UniformModel()).bit_len
    learned = encode(pairs, AdaptiveContextModel()).bit_len
    assert learned < 0.35 * flat


def test_encoded_length_tracks_cross_entropy():
    rng = np.random.default_rng(2)
    # mixture: some contexts heavily skewed, some flat
    symbols = np.where(rng.random(12000) < 0.7, rng.integers(1, 9, 12000),
                       rng.integers(1, 256, 12000)).tolist()
    ce = cross_entropy(_pairs(symbols), AdaptiveContextModel())
    bits = encode(_pairs(symbols), AdaptiveContextModel()).bit_len
    assert bits <= ce * 1.01 + 64
    assert bits >= ce  # coding below the model's own entropy would be a bug


def test_encode_rejects_out_of_range_symbols():
    with pytest.raises(ValueError):
        encode([(0, _ctx(0))], UniformModel())
    with pytest.raises(ValueError):
        encode([(256, _ctx(0))], UniformModel())


def test_truncated_payload_raises():
    symbols = list(range(1, 200))
    bs = encode(_pairs(symbols), UniformModel())
    clipped = Bitstream(bs.data[:10], 80)
    with pytest.raises(CorruptStreamError):
        decode(clipped, UniformModel(), [_ctx(i) for i in range(len(symbols))], len(symbols))


def test_overlong_count_raises():
    symbols = [4, 200, 13]
    bs = encode(_pairs(symbols), UniformModel())
    with pytest.raises(CorruptStreamError):
        decode(bs, UniformModel(), [_ctx(i) for i in range(50)], 50)


def test_bitstream_validates_bit_len():
    with pytest.raises(ValueError):
        Bitstream(b"ab", 17)


# ---------------------------------------------------------------------------
# models
# ---------------------------------------------------------------------------


def test_fresh_adaptive_model_is_uniform():
    model = AdaptiveContextModel()
    p = model.predict(_ctx(0))
    np.testing.assert_allclose(p, 1.0 / 255.0)
    assert p.sum() == pytest.approx(1.0)


def test_adaptive_update_oracle():
    model = AdaptiveContextModel()
    ctx = _ctx(0)
    model.update(ctx, 5)
    model.update(ctx, 5)
    model.update(ctx, 9)
    p = model.predict(ctx)
    assert p[4] == pytest.approx(3.0 / 258.0)
    assert p[8] == pytest.approx(2.0 / 258.0)
    assert p[0] == pytest.approx(1.0 / 258.0)
    cum = model.coding_table(ctx)
    counts = np.zeros(255, dtype=np.int64)
    counts[4], counts[8] = 2, 1
    expect = np.concatenate([[0], np.cumsum(counts + 1)])
    np.testing.assert_array_equal(cum, expect)


def test_adaptive_keys_are_independent():
    model = AdaptiveContextModel()
    a, b = _ctx(0), _ctx(1)
    assert AdaptiveContextModel.context_key(a) != AdaptiveContextModel.context_key(b)
    for _ in range(50):
        model.update(a, 3)
    assert model.predict(b)[2] == pytest.approx(1.0 / 255.0)
    assert model.predict(a)[2] > 0.15


def test_level_cap_shares_deep_contexts():
    deep1 = NodeContext(1, 17, ((9, 1), (0, 0), (0, 0)), (0.5, 0.5, 0.5))
    deep2 = NodeContext(1, 30, ((9, 1), (0, 0), (0, 0)), (0.5, 0.5, 0.5))
    assert AdaptiveContextModel.context_key(deep1) == AdaptiveContextModel.context_key(deep2)


def test_count_rescale_keeps_tables_16bit():
    model = AdaptiveContextModel()
    ctx = _ctx(0)
    for _ in range(_COUNT_CAP + 10):
        model.update(ctx, 3)
    counts, total = model._tables[AdaptiveContextModel.context_key(ctx)]
    assert total == int(counts.sum())
    assert total <= _COUNT_CAP
    assert model.coding_table(ctx)[255] <= _FREQ_TOTAL_CAP
    # the hot symbol keeps nearly all the mass through the halving
    assert model.predict(ctx)[2] > 0.99


def test_rescaled_model_still_round_trips():
    rng = np.random.default_rng(4)
    ctx = _ctx(0)
    model = AdaptiveContextModel()
    for _ in range(_COUNT_CAP - 50):
        model.update(ctx, 3)
    symbols = rng.integers(1, 256, size=400).tolist()
    pairs = [(s, ctx) for s in symbols]
    bs = encode(pairs, _clone(model))
    out = decode(bs, _clone(model), [ctx] * len(symbols), len(symbols))
    assert out.tolist() == symbols


def _clone(model: AdaptiveContextModel) -> AdaptiveContextModel:
    other = AdaptiveContextModel()
    for key, (counts, total) in model._tables.items():
        other._tables[key] = [counts.copy(), total]
    return other
