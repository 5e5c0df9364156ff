"""The codec's level-by-level coding path against the per-node reference path.

The reference path is ``occupancy_stream`` + ``ContextCursor`` contexts coded
symbol by symbol through ``entropy.encode``/``entropy.decode`` with an
``AdaptiveContextModel``. The codec must produce the same payload bytes, decode
the same symbols, and reject the same corrupt inputs.
"""

import numpy as np
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from lidarpcc import entropy
from lidarpcc.codec import CodecConfig, decode_symbols, encode_cloud, encode_tree, resolve_step
from lidarpcc.coords import (
    CARTESIAN,
    SYSTEMS,
    QuantizedCloud,
    QuantSteps,
    derive_steps,
    quantize,
    radial_coord,
)
from lidarpcc.errors import CorruptStreamError
from lidarpcc.octree import (
    ContextCursor,
    MultiLevelConfig,
    build,
    level_contexts,
    occupancy_stream,
    part_steps,
    partition_multilevel,
)
from lidarpcc.pcio import PointCloud

ONE_PART = MultiLevelConfig(1, (0.0, 1.0))


def _reference_symbols(payload: bytes, depth: int, count: int) -> np.ndarray:
    """Per-node decode with the cursor, checked as the codec checked it before."""
    cursor = ContextCursor(depth)
    bs = entropy.Bitstream(payload, 8 * len(payload))
    try:
        symbols = entropy.decode(bs, entropy.AdaptiveContextModel(), cursor, count)
    except IndexError:  # the cursor ran out of nodes: count exceeds the tree
        raise CorruptStreamError("symbol count exceeds tree size") from None
    if cursor.pending():
        raise CorruptStreamError(f"{cursor.pending()} nodes left undecoded")
    return symbols


def _outcome(decoder, payload, depth, count):
    try:
        return decoder(payload, depth, count).tolist()
    except CorruptStreamError:
        return "corrupt"


@st.composite
def coded_clouds(draw):
    system = draw(st.sampled_from(SYSTEMS))
    parts = ONE_PART if system == CARTESIAN else draw(st.sampled_from([ONE_PART, MultiLevelConfig()]))
    depth = draw(st.integers(1, 14))
    n = draw(st.integers(2, 60))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    scale = draw(st.sampled_from([1.0, 30.0]))
    pts = rng.uniform(-scale, scale, size=(n, 3))
    if system == CARTESIAN:
        return PointCloud(pts), CodecConfig(system=system, depth=depth, parts=parts)
    # 2^depth radial bins; depth=1 through the raw convention would give one bin
    q = radial_coord(pts, system).max() / ((1 << depth) - 0.5)
    return PointCloud(pts), CodecConfig(system=system, q=q, parts=parts)


@settings(max_examples=40, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(coded_clouds(), st.data())
def test_codec_matches_reference_path(case, data):
    cloud, cfg = case
    container = encode_cloud(cloud, cfg)
    q, rho = resolve_step(cfg, cloud)
    steps = derive_steps(cfg.system, q, cloud, rho)
    parts = partition_multilevel(cloud, cfg.parts, steps.rho_max, cfg.system)
    for n, (part, record) in enumerate(zip(parts, container.parts)):
        if len(part) == 0:
            assert record.empty
            continue
        depth = part_steps(steps, n).depth
        tree = build(quantize(part, part_steps(steps, n)))
        stream = list(occupancy_stream(tree))
        assert record.payload == entropy.encode(stream, entropy.AdaptiveContextModel()).data

        key, context_id = entropy.AdaptiveContextModel.context_key, entropy.AdaptiveContextModel.context_id
        syms = [None] + [lv.symbols for lv in tree.levels[:-1]]
        ids = np.concatenate([level_contexts(p, lvl) for lvl, p in enumerate(syms, start=1)])
        assert ids.tolist() == [int(context_id(*key(ctx))) for _, ctx in stream]

        payload, count = record.payload, record.symbol_count
        want = _reference_symbols(payload, depth, count)
        np.testing.assert_array_equal(decode_symbols(payload, depth, count), want)

        flipped = bytearray(payload)
        bit = data.draw(st.integers(0, 8 * len(payload) - 1), label="bit")
        flipped[bit // 8] ^= 1 << (bit % 8)
        cut = data.draw(st.integers(0, len(payload) - 1), label="cut")
        k = data.draw(st.integers(1, 9), label="k")
        for bad_payload, bad_count in (
            (bytes(flipped), count),
            (payload[:cut], count),
            (payload, count + k),
            (payload, max(count - k, 0)),
        ):
            assert _outcome(decode_symbols, bad_payload, depth, bad_count) == _outcome(
                _reference_symbols, bad_payload, depth, bad_count
            )


def test_deep_levels_share_capped_contexts():
    # levels past AdaptiveContextModel.LEVEL_CAP (16) share their contexts;
    # the hypothesis cases above stop at part depth 16
    rng = np.random.default_rng(21)
    depth = 19
    indices = rng.integers(0, 1 << depth, size=(40, 3))
    steps = QuantSteps(CARTESIAN, 1.0, 0.0, 0.0, 1 << depth, depth, 0.0)
    tree = build(QuantizedCloud(indices, steps, len(indices)))
    stream = list(occupancy_stream(tree))
    key, context_id = entropy.AdaptiveContextModel.context_key, entropy.AdaptiveContextModel.context_id
    syms = [None] + [lv.symbols for lv in tree.levels[:-1]]
    ids = np.concatenate([level_contexts(p, lvl) for lvl, p in enumerate(syms, start=1)])
    assert ids.tolist() == [int(context_id(*key(ctx))) for _, ctx in stream]
    assert encode_tree(tree) == entropy.encode(stream, entropy.AdaptiveContextModel()).data
