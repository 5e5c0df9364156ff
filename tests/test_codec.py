"""Container format and end-to-end encode/decode behavior."""

import dataclasses
import math
import multiprocessing
import sys
import threading

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from lidarpcc import codec, coords, entropy, kernel
from lidarpcc.analysis import combined_bound_sph
from lidarpcc.codec import (
    CONVENTIONS,
    CodecConfig,
    Container,
    convention_step,
    decode_cloud,
    encode_cloud,
    measure_bpp,
    pipeline_reconstruct,
    resolve_step,
)
from lidarpcc.coords import (
    CARTESIAN,
    CYLINDRICAL,
    SPHERICAL,
    SYSTEMS,
    cart_to_cyl,
    cart_to_sph,
    cyl_to_cart,
    dequantize,
    derive_steps,
    lattice_steps,
    quantize,
    reconstruct_points,
    sph_to_cart,
)
from lidarpcc.errors import ConfigError, CorruptStreamError, FormatError
from lidarpcc.octree import (
    MultiLevelConfig,
    NodeContext,
    _deinterleave,
    _interleave,
    part_steps,
    partition_multilevel,
)
from lidarpcc.pcio import PointCloud, SynthParams, synth_lidar

ONE_PART = MultiLevelConfig(1, (0.0, 1.0))


def _cloud(n=400, seed=0, scale=50.0):
    rng = np.random.default_rng(seed)
    return PointCloud(rng.uniform(-scale, scale, size=(n, 3)))


def _expected_centers(cloud, cfg):
    """Oracle: voxel centers via direct quantization, bypassing the bitstream."""
    q, rho_override = resolve_step(cfg, cloud)
    steps = derive_steps(cfg.system, q, cloud, rho_override)
    parts = partition_multilevel(cloud, cfg.parts, steps.rho_max, cfg.system)
    chunks = [
        dequantize(quantize(p, part_steps(steps, n))).points
        for n, p in enumerate(parts)
        if len(p)
    ]
    return np.concatenate(chunks, axis=0)


@pytest.mark.parametrize(
    "cfg",
    [
        CodecConfig(system=CARTESIAN, q=0.5, parts=ONE_PART),
        CodecConfig(system=CYLINDRICAL, q=0.5, parts=ONE_PART),
        CodecConfig(system=SPHERICAL, q=0.5, parts=ONE_PART),
        CodecConfig(system=SPHERICAL, q=0.5),
        CodecConfig(system=SPHERICAL, depth=9, convention="kitti"),
        CodecConfig(system=CYLINDRICAL, q=0.3, parts=MultiLevelConfig(2, (0.0, 0.5, 1.0))),
    ],
)
def test_round_trip_recovers_voxel_centers(cfg):
    cloud = _cloud()
    container = encode_cloud(cloud, cfg)
    rec = decode_cloud(Container.from_bytes(container.to_bytes()))
    expect = _expected_centers(cloud, cfg)
    assert rec.points.shape == expect.shape
    got = np.array(sorted(map(tuple, rec.points.tolist())))
    want = np.array(sorted(map(tuple, expect.tolist())))
    np.testing.assert_allclose(got, want, rtol=1e-9, atol=1e-12)


def test_header_survives_serialization():
    cloud = _cloud()
    cfg = CodecConfig(system=SPHERICAL, q=0.4, rho_max=120.0)
    c1 = encode_cloud(cloud, cfg)
    c2 = Container.from_bytes(c1.to_bytes())
    assert c2.system == SPHERICAL
    assert c2.q == 0.4
    assert c2.rho_max == 120.0
    assert c2.depth == c1.depth
    assert c2.thresholds == c1.thresholds
    assert c2.original_count == len(cloud)
    assert c2.to_bytes() == c1.to_bytes()
    # the encoder's thresholds are the f32 values its header stores; 0.3 parsed back as 0.30000001192092896
    layout = MultiLevelConfig(3, (0.0, 0.3, 0.7, 1.0))
    for cfg in (cfg, CodecConfig(system=SPHERICAL, q=0.4, parts=layout),
                CodecConfig(system=CYLINDRICAL, q=0.4, parts=layout), CodecConfig(system=CARTESIAN, q=0.4)):
        c = encode_cloud(cloud, cfg)
        assert Container.from_bytes(c.to_bytes()) == c
        assert c.nbytes == len(c.to_bytes())


def test_encoding_is_deterministic():
    cloud = _cloud()
    cfg = CodecConfig(system=SPHERICAL, q=0.5)
    assert encode_cloud(cloud, cfg).to_bytes() == encode_cloud(cloud, cfg).to_bytes()


def test_decode_reencode_is_idempotent_single_part():
    # voxel centers re-encoded on the same lattice land on the same indices;
    # q and rho_max from the header pin the lattice exactly
    cloud = _cloud()
    cfg = CodecConfig(system=SPHERICAL, q=0.5, parts=ONE_PART)
    c1 = encode_cloud(cloud, cfg)
    rec = decode_cloud(c1)
    cfg2 = CodecConfig(system=SPHERICAL, q=c1.q, rho_max=c1.rho_max, parts=ONE_PART)
    rec2 = decode_cloud(encode_cloud(rec, cfg2))
    got = np.array(sorted(map(tuple, rec2.points.tolist())))
    want = np.array(sorted(map(tuple, rec.points.tolist())))
    np.testing.assert_allclose(got, want, rtol=0, atol=0)


def test_depth_holds_the_radial_index_of_rho_max():
    # ρ_max/q = 4096 needs 13 bits; ⌈log₂ 4096⌉ = 12 clipped a point at
    # 511.99 m to the 511.875 m bin, 0.115 m inside its radius
    q = 0.125
    point = np.array([[511.99, 0.0, 0.0]])
    container = encode_cloud(PointCloud(point), CodecConfig(system=SPHERICAL, q=q, rho_max=512.0, parts=ONE_PART))
    assert container.depth == 13
    rec = decode_cloud(container).points
    assert abs(np.linalg.norm(rec) - 511.99) <= q / 2
    assert np.linalg.norm(rec - point) <= combined_bound_sph(511.99, q, 512.0)
    # the 64-beam sweep's ρ_max/q = 4095.0000000000005 keeps depth 12; ties round to even
    for ratio, depth in ((4095.0000000000005, 12), (4095.4, 12), (4095.5, 13), (4096.0, 13),
                         (2047.49, 11), (2048.0, 12), (1.4, 1), (1.5, 2), (2.5, 2)):
        for system in (SPHERICAL, CYLINDRICAL):
            assert derive_steps(system, q, PointCloud(point / 1e3), ratio * q).depth == depth, ratio


@pytest.mark.parametrize("system", SYSTEMS)
def test_decoder_rebuilds_the_encoders_steps(system):
    # the header alone reproduces the lattice; Cartesian bins were the lattice
    # size (201 here) on the encoder side and 2^depth (256) on the decoder's
    cloud = _cloud()
    cfg = CodecConfig(system=system, q=0.5, parts=ONE_PART if system == CARTESIAN else MultiLevelConfig())
    q, rho_override = resolve_step(cfg, cloud)
    steps = derive_steps(system, q, cloud, rho_override)
    assert Container.from_bytes(encode_cloud(cloud, cfg).to_bytes()).base_steps() == steps


def test_multi_part_reencode_guards_rho_max():
    # radial indices may round up to bins·q > rho_max, so re-partitioning the
    # decoded centers against the original rho_max is rejected, not mis-binned
    cloud = _cloud(seed=0)
    c1 = encode_cloud(cloud, CodecConfig(system=SPHERICAL, q=0.5))
    rec = decode_cloud(c1)
    assert np.linalg.norm(rec.points, axis=1).max() > c1.rho_max
    with pytest.raises(ConfigError, match="rho_max"):
        encode_cloud(rec, CodecConfig(system=SPHERICAL, q=c1.q, rho_max=c1.rho_max))


def test_empty_parts_are_flagged_not_coded():
    # all points inside 0.25·rho_max → parts 1 and 2 empty (rho_max pinned)
    rng = np.random.default_rng(2)
    pts = rng.uniform(-1.0, 1.0, size=(50, 3))
    cloud = PointCloud(pts)
    cfg = CodecConfig(system=SPHERICAL, q=0.05, rho_max=100.0)
    container = encode_cloud(cloud, cfg)
    assert [p.empty for p in container.parts] == [False, True, True]
    assert container.parts[1].payload == b""
    rec = decode_cloud(Container.from_bytes(container.to_bytes()))
    assert len(rec) == len(_expected_centers(cloud, cfg))


def test_original_count_feeds_bpp():
    cloud = _cloud(n=128)
    container = encode_cloud(cloud, CodecConfig(system=SPHERICAL, q=0.5))
    assert measure_bpp(container) == pytest.approx(8.0 * container.nbytes / 128)
    assert measure_bpp(dataclasses.replace(container, original_count=256)) == pytest.approx(
        4.0 * container.nbytes / 128
    )


# ---------------------------------------------------------------------------
# conventions / config validation
# ---------------------------------------------------------------------------


def test_convention_steps():
    assert convention_step("kitti", 12) == pytest.approx(400.0 / 4095.0)
    assert convention_step("ford", 16) == 4.0
    with pytest.raises(ConfigError):
        convention_step("raw", 12)


def test_resolve_step_rules():
    cloud = _cloud()
    with pytest.raises(ConfigError, match="not both"):
        resolve_step(CodecConfig(depth=10, q=0.5), cloud)
    with pytest.raises(ConfigError, match="needs a depth"):
        resolve_step(CodecConfig(convention="kitti"), cloud)
    with pytest.raises(ConfigError, match="needs q or depth"):
        resolve_step(CodecConfig(), cloud)
    q, _ = resolve_step(CodecConfig(depth=10), cloud)
    rho = np.linalg.norm(cloud.points, axis=1).max()
    assert q == pytest.approx(rho / 1023.0)
    assert resolve_step(CodecConfig(depth=1, rho_max=5e-324), cloud) == (5e-324, 5e-324)
    with pytest.raises(ConfigError, match="^depth=2 gives a step of 0.0, which is not finite and positive$"):
        resolve_step(CodecConfig(depth=2, rho_max=5e-324), cloud)


@pytest.mark.parametrize("system", SYSTEMS)
def test_an_empty_cloud_is_refused_by_name(system):
    # raw + depth measures the cloud for its step: resolve_step refuses it as the encoder does
    empty = PointCloud(np.empty((0, 3)))
    for cfg in (CodecConfig(system=system, depth=10), CodecConfig(system=system, q=0.5)):
        for call in (encode_cloud, pipeline_reconstruct):
            with pytest.raises(ConfigError, match="^cannot quantize an empty cloud$"):
                call(empty, cfg)
    with pytest.raises(ConfigError, match="^cannot quantize an empty cloud$"):
        resolve_step(CodecConfig(system=system, depth=10), empty)


class _Measured(Exception):
    """Stops an encode once its front end has measured the cloud, before any part is quantized."""


def _front_end_measures(cloud, cfg) -> tuple[int, int, int]:
    """How many whole-cloud radius arrays, and how many rows of box minima and of maxima, an encode measures before its parts."""
    radii, rows = [], {np.min: 0, np.max: 0}
    radial_coord, column_extremes = codec.radial_coord, coords.column_extremes

    def radius(points, system):
        radii.append(len(points))
        return radial_coord(points, system)

    def extremes(points, reduce):
        rows[reduce] += len(points)
        return column_extremes(points, reduce)

    def stop(*args):
        raise _Measured

    with pytest.MonkeyPatch.context() as mp:
        for module in ("coords", "codec", "octree"):
            mp.setattr(f"lidarpcc.{module}.radial_coord", radius)
        mp.setattr(coords, "column_extremes", extremes)
        mp.setattr(codec, "_part_leaves", stop)
        with pytest.raises(_Measured):
            encode_cloud(cloud, cfg)
    return radii.count(len(cloud)), rows[np.min], rows[np.max]


def test_the_encoder_measures_the_cloud_once():
    # one radius array feeds rho_max and the split; the box, the step and the origin
    cloud = _cloud(n=3000)
    assert _front_end_measures(cloud, CodecConfig(system=SPHERICAL, q=0.5)) == (1, 0, 0)
    assert _front_end_measures(cloud, CodecConfig(system=CYLINDRICAL, depth=12, convention="kitti")) == (1, 0, 0)
    assert _front_end_measures(cloud, CodecConfig(system=CARTESIAN, depth=10)) == (0, len(cloud), len(cloud))
    assert _front_end_measures(cloud, CodecConfig(system=SPHERICAL, q=0.5, rho_max=90.0, parts=ONE_PART)) == (0, 0, 0)


def test_depth_below_one_is_refused():
    # depth 0 would divide by zero in the kitti and raw steps, and -1 shift by a negative count
    for convention in CONVENTIONS:
        for depth in (0, -1):
            with pytest.raises(ConfigError, match=f"^depth must be at least 1, got {depth}$"):
                CodecConfig(system=SPHERICAL, depth=depth, convention=convention)


def test_cartesian_rejects_multi_part():
    # the default layout follows the system, and the config shows it; an explicit several-part cartesian is refused
    assert dataclasses.asdict(CodecConfig(system=CARTESIAN, q=0.5))["parts"] == {"n_parts": 1, "thresholds": (0.0, 1.0)}
    for system in (CYLINDRICAL, SPHERICAL):
        assert CodecConfig(system=system, q=0.5).parts == MultiLevelConfig()
    with pytest.raises(ConfigError, match="^multi-level parts require an angle-based system; use parts=1 for cartesian$"):
        CodecConfig(system=CARTESIAN, q=0.5, parts=MultiLevelConfig())


_EDGE_FLOATS = st.sampled_from([0.0, -0.0, -3.0, math.nan, math.inf, -math.inf])


@settings(max_examples=300, deadline=None)
@given(
    system=st.sampled_from(SYSTEMS),
    convention=st.sampled_from(CONVENTIONS),
    depth=st.none() | st.integers(-2, 64),
    q=st.none() | _EDGE_FLOATS | st.floats(),
    rho_max=st.none() | _EDGE_FLOATS | st.floats(),
    parts=st.sampled_from([None, ONE_PART, MultiLevelConfig()]),
)
@example(system="spherical", convention="raw", depth=10, q=None, rho_max=5e-324, parts=None)
def test_a_config_that_constructs_resolves(system, convention, depth, q, rho_max, parts):
    try:
        cfg = CodecConfig(system=system, depth=depth, q=q, convention=convention, parts=parts, rho_max=rho_max)
    except ConfigError:
        return
    assert (q is None) != (depth is None) and (q is None or 0 < q < math.inf)
    assert rho_max is None or 0 < rho_max < math.inf
    try:
        step, rho = resolve_step(cfg, _cloud())
    except ConfigError as exc:  # raw: a given rho_max over 2^D − 1 steps can round to a step of 0
        assert str(exc) == f"depth={depth} gives a step of 0.0, which is not finite and positive"
        assert rho_max / ((1 << depth) - 1) == 0
        return
    assert 0 < step < math.inf
    assert rho == rho_max


def test_config_refuses_a_range_by_name():
    for name in ("q", "rho_max"):
        for value in (0.0, -3.0, math.nan, math.inf, -math.inf):
            for system in SYSTEMS:
                fields = {"depth": None, "q": 0.5} if name == "q" else {"depth": 10}
                with pytest.raises(ConfigError, match=f"^{name} must be finite and positive, got {value}$"):
                    CodecConfig(system=system, parts=ONE_PART, **{**fields, name: value})


def test_encode_rejects_empty_cloud():
    with pytest.raises(ConfigError):
        encode_cloud(PointCloud(np.empty((0, 3))), CodecConfig(q=0.5))


# ---------------------------------------------------------------------------
# corruption
# ---------------------------------------------------------------------------


def _blob():
    return encode_cloud(_cloud(n=200), CodecConfig(system=SPHERICAL, q=0.5)).to_bytes()


def test_bad_magic_and_version():
    blob = _blob()
    with pytest.raises(FormatError, match="magic"):
        Container.from_bytes(b"XXXX" + blob[4:])
    with pytest.raises(FormatError, match="version"):
        Container.from_bytes(blob[:4] + b"\x09" + blob[5:])


def test_truncation_raises_corrupt():
    blob = _blob()
    for cut in (3, 10, len(blob) // 2, len(blob) - 1):
        with pytest.raises((CorruptStreamError, FormatError)):
            Container.from_bytes(blob[:cut])


def test_trailing_garbage_raises():
    with pytest.raises(CorruptStreamError, match="trailing"):
        Container.from_bytes(_blob() + b"\x00")


def test_tampered_payload_raises():
    blob = bytearray(_blob())
    container = Container.from_bytes(bytes(blob))
    # smash a run of payload bytes in the largest part
    largest = max(container.parts, key=lambda p: len(p.payload))
    at = blob.rindex(largest.payload[-40:])
    for i in range(at, at + 30):
        blob[i] ^= 0xA5
    with pytest.raises(CorruptStreamError):
        decode_cloud(Container.from_bytes(bytes(blob)))


def test_symbol_count_mismatch_raises():
    cloud = _cloud(n=200)
    container = encode_cloud(cloud, CodecConfig(system=SPHERICAL, q=0.5, parts=ONE_PART))
    part = container.parts[0]
    for wrong in (part.symbol_count // 2, part.symbol_count + 40):
        bad = Container(
            container.system,
            container.depth,
            container.q,
            container.rho_max,
            container.origin_offset,
            container.thresholds,
            (type(part)(wrong, False, part.payload),),
            container.original_count,
        )
        with pytest.raises(CorruptStreamError):
            decode_cloud(bad)


_KITTI11 = CodecConfig(system="spherical", depth=11, convention="kitti")


@pytest.mark.parametrize("python_coder", [False, True])
def test_decode_raises_the_first_failing_part_in_part_order(monkeypatch, python_coder):
    # part 0's payload is cut short, so its decoder runs out of bytes; part 2,
    # the largest part and so the calling thread's, has a symbol count that
    # fails the check made before any decoder runs. The serial loop stops at part 0.
    if python_coder:
        monkeypatch.setattr(kernel, "load", lambda: None)
    cloud = synth_lidar(SynthParams(beams=8, points_per_ring=128, seed=2))
    good = encode_cloud(cloud, _KITTI11)
    p0, p1, p2 = good.parts
    assert not (p0.empty or p1.empty or p2.empty)
    points = decode_cloud(good).points
    steps = good.base_steps()
    cut = p0.payload[: len(p0.payload) // 2]
    with pytest.raises(CorruptStreamError) as first:
        kernel.decode_part(cut, part_steps(steps, 0).depth, p0.symbol_count)
    huge = 1 << 62
    assert codec._symbol_count_fault(huge, part_steps(steps, 2).depth, len(p2.payload))
    bad = dataclasses.replace(good, parts=(dataclasses.replace(p0, payload=cut), p1,
                                           dataclasses.replace(p2, symbol_count=huge)))
    for _ in range(3):
        with pytest.raises(CorruptStreamError) as raised:
            decode_cloud(bad)
        assert str(raised.value) == f"part 0: {first.value}"
    # the failed call leaves nothing behind that changes the next one
    np.testing.assert_array_equal(decode_cloud(good).points, points)


def _round_trip(cloud, cfg):
    blob = encode_cloud(cloud, cfg).to_bytes()
    return blob, decode_cloud(Container.from_bytes(blob)).points.tobytes()


@pytest.mark.parametrize("python_coder", [False, True])
def test_no_thread_outlives_a_call(monkeypatch, python_coder):
    if python_coder:
        monkeypatch.setattr(kernel, "load", lambda: None)
    cloud = synth_lidar(SynthParams(beams=8, points_per_ring=128, seed=2))
    container = encode_cloud(cloud, _KITTI11)
    assert len(container.parts) == 3 and not any(p.empty for p in container.parts)
    decode_cloud(container)
    assert [t.name for t in threading.enumerate() if t.name.startswith("lidarpcc-")] == []


def _thread_starts(monkeypatch, call, *args) -> int:
    """How many threads ``call(*args)`` starts."""
    starts = []
    start = threading.Thread.start

    def counted(thread):
        starts.append(thread.name)
        start(thread)

    monkeypatch.setattr(threading.Thread, "start", counted)
    call(*args)
    monkeypatch.setattr(threading.Thread, "start", start)
    return len(starts)


@pytest.mark.parametrize("python_coder", [False, True])
def test_encode_starts_a_helper_per_stage_and_none_nested(monkeypatch, python_coder):
    # a Cartesian box (numpy, so on either coder) and a lone busy part's rows each start one
    # helper; three busy parts share one and none of them cuts its rows, so no helper starts inside it
    if python_coder:
        monkeypatch.setattr(kernel, "load", lambda: None)
    helpers = 0 if kernel.coder_name() == "python" else 1
    sweep = synth_lidar(SynthParams(beams=8, points_per_ring=128, seed=2))
    three = encode_cloud(sweep, _KITTI11)
    assert len(three.parts) == 3 and not any(p.empty for p in three.parts)
    for cloud, cfg, box in (
        (sweep, CodecConfig(system=CARTESIAN, depth=10, convention="kitti"), 1),  # the box, then the rows
        (sweep, CodecConfig(system=CARTESIAN, depth=10, convention="raw"), 1),  # one box gives step and origin
        (sweep, CodecConfig(system=SPHERICAL, depth=10, convention="kitti", parts=ONE_PART), 0),
        (sweep, _KITTI11, 0),
    ):
        assert _thread_starts(monkeypatch, encode_cloud, cloud, cfg) == box + helpers, cfg
    # one row has no halves, and an angle system with one busy part of three cuts that part
    assert _thread_starts(monkeypatch, encode_cloud, PointCloud(np.ones((1, 3))), CodecConfig(q=0.5)) == 0
    near = PointCloud(sweep.points[np.linalg.norm(sweep.points, axis=1) < 8.0])
    lone = CodecConfig(system=SPHERICAL, q=0.5, rho_max=80.0)
    assert [p.empty for p in encode_cloud(near, lone).parts] == [False, True, True]
    assert _thread_starts(monkeypatch, encode_cloud, near, lone) == helpers


@pytest.mark.parametrize("far", [0, -1])
def test_a_refused_radius_names_the_whole_part_in_either_half(far):
    # the rows are cut in two; the refusal names the largest radius of them all, whichever half holds it
    points = _cloud(n=101, scale=5.0).points.copy()
    points[far], points[-1 - far] = (30.0, -40.0, 0.0), (0.0, 0.0, 40.0)  # ρ = 50 and 40, both past the lattice
    cfg = CodecConfig(system=SPHERICAL, q=0.5, rho_max=10.0, parts=ONE_PART)
    with pytest.raises(ConfigError, match=r"^rho_max=10\.0 smaller than cloud max radius 50$"):
        encode_cloud(PointCloud(points), cfg)


def test_a_forked_child_codes_parts_like_its_parent():
    # the parent codes its parts on a helper thread before it forks; the child starts its own
    cloud = synth_lidar(SynthParams(beams=8, points_per_ring=128, seed=2))
    blob, points = _round_trip(cloud, _KITTI11)
    with multiprocessing.get_context("fork").Pool(1) as pool:
        child = pool.apply_async(_round_trip, (cloud, _KITTI11)).get(timeout=60)
    assert child == (blob, points)


def test_threads_coding_at_once_get_the_serial_results():
    clouds = [synth_lidar(SynthParams(beams=8, points_per_ring=128, seed=s)) for s in range(3)]
    cfgs = [_KITTI11, CodecConfig(system="cylindrical", depth=10, convention="kitti"),
            CodecConfig(system="spherical", q=0.4)]
    serial = [_round_trip(cloud, cfg) for cloud, cfg in zip(clouds, cfgs)]
    start = threading.Barrier(len(clouds))
    results = [[] for _ in clouds]

    def run(k):
        start.wait()
        for _ in range(4):
            results[k].append(_round_trip(clouds[k], cfgs[k]))

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        threads = [threading.Thread(target=run, args=(k,)) for k in range(len(clouds))]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert results == [[expected] * 4 for expected in serial]


def _decoders_must_not_run(monkeypatch):
    def refuse(*args):
        raise AssertionError("a decoder ran on an unchecked symbol count")

    monkeypatch.setattr(kernel, "decode_part", refuse)  # either coder runs behind it


def test_huge_symbol_count_raises_corrupt(monkeypatch):
    # the count is checked before either decoder sizes anything by it, so 2**62 is no MemoryError
    container = encode_cloud(_cloud(n=200), CodecConfig(system=SPHERICAL, q=0.5, parts=ONE_PART))
    part = container.parts[0]
    depth = container.depth
    # past the payload bound but inside the depth-D octree's (8^D − 1)/7 nodes
    beyond_payload = int(8 * (len(part.payload) - 4) / codec._MIN_SYMBOL_BITS) + 2
    assert beyond_payload < (8**depth - 1) // 7
    _decoders_must_not_run(monkeypatch)
    for count, reason in ((2**62, "octree's"), (beyond_payload, "payload bytes can code")):
        bad = dataclasses.replace(container, parts=(dataclasses.replace(part, symbol_count=count),))
        with pytest.raises(CorruptStreamError, match=f"part 0: symbol count {count} exceeds .*{reason}"):
            decode_cloud(Container.from_bytes(bad.to_bytes()))


def test_payload_bound_admits_the_cheapest_stream():
    # one context coding one symbol over and over: the cheapest symbols the model allows
    n = 200_000
    ctx = NodeContext(1, 1, ((0, 0),) * 3, (0.5, 0.5, 0.5))
    payload = entropy.encode(((7, ctx) for _ in range(n)), entropy.AdaptiveContextModel()).data
    assert codec._symbol_count_fault(n, 20, len(payload)) is None
    # the bound is within a factor 4 of it: count halving and the range // total
    # truncation keep each real symbol above the minimum cost
    assert codec._symbol_count_fault(4 * n, 20, len(payload)) is not None


# ---------------------------------------------------------------------------
# header invariants
# ---------------------------------------------------------------------------

NAN, INF = math.nan, math.inf


# ---------------------------------------------------------------------------
# the header's origin: subtracted before indexing, added back after index·step, in every system
# ---------------------------------------------------------------------------

_ORIGIN = (5.0, 0.25, -0.125)  # non-zero on every axis: ρ or x, θ or y, φ or z


def _header_steps(system) -> np.ndarray:
    """Per-axis steps of q = 0.5, rho_max = 20 by FORMAT.md's formulas: b = 40 radial bins."""
    q_angle = 2 * math.pi / 39
    return np.array({CARTESIAN: [0.5, 0.5, 0.5], CYLINDRICAL: [0.5, q_angle, 0.5],
                     SPHERICAL: [0.5, q_angle, math.pi / 39]}[system])


def _cartesian(system, coords) -> np.ndarray:
    return {CARTESIAN: lambda c: c, CYLINDRICAL: cyl_to_cart, SPHERICAL: sph_to_cart}[system](coords)


@pytest.mark.parametrize("system", SYSTEMS)
def test_the_decoder_adds_the_header_origin_in_every_system(system):
    # a spherical header's origin was ignored: a radial origin of 5 moved no decoded radius
    codes = np.unique(_interleave(np.random.default_rng(3).integers(0, 40, size=(300, 3)), 6))
    count, payload = kernel.encode_part(codes, 6)
    container = Container(system, 6, 0.5, 20.0, _ORIGIN, (0.0,), (codec.PartRecord(count, False, payload),), 300)
    got = decode_cloud(Container.from_bytes(container.to_bytes())).points
    want = _cartesian(system, np.asarray(_ORIGIN) + _deinterleave(codes, 6) * _header_steps(system))
    np.testing.assert_array_equal(got.view(np.uint64), want.view(np.uint64))


@pytest.mark.parametrize("system", SYSTEMS)
def test_the_lattice_subtracts_the_origin_in_every_system(system):
    # quantize and the leaf codes ignored the origin of a spherical QuantSteps
    steps = lattice_steps(system, 0.5, 20.0, 6, _ORIGIN)
    pts = np.random.default_rng(4).uniform(-11.0, 11.0, size=(500, 3))
    coords = {CARTESIAN: pts, CYLINDRICAL: cart_to_cyl(pts), SPHERICAL: cart_to_sph(pts)}[system]
    idx = np.clip(np.round((coords - np.asarray(_ORIGIN)) / _header_steps(system)), 0, 63).astype(np.int64)
    assert quantize(PointCloud(pts), steps).indices.tolist() == np.unique(idx, axis=0).tolist()
    np.testing.assert_array_equal(kernel.lattice_codes(pts, steps), _interleave(idx, 6))
    want = _cartesian(system, np.asarray(_ORIGIN) + idx * _header_steps(system))
    np.testing.assert_array_equal(reconstruct_points(pts, steps).view(np.uint64), want.view(np.uint64))


def _rewritten(system=SPHERICAL, **fields) -> bytes:
    """A real container of ``system`` with header fields replaced, serialized."""
    parts = ONE_PART if system == CARTESIAN else MultiLevelConfig()
    container = encode_cloud(_cloud(n=200), CodecConfig(system=system, q=0.5, parts=parts))
    return dataclasses.replace(container, **fields).to_bytes()


@pytest.mark.parametrize("q", [NAN, INF, -INF, 0.0, -0.5])
def test_header_rejects_bad_q(q):
    with pytest.raises(CorruptStreamError, match="step q"):
        Container.from_bytes(_rewritten(q=q))


@pytest.mark.parametrize(
    "system, rho_max",
    [(SPHERICAL, NAN), (SPHERICAL, INF), (SPHERICAL, 0.0), (SPHERICAL, -1.0),
     (CYLINDRICAL, -INF), (CYLINDRICAL, 0.0), (CARTESIAN, NAN), (CARTESIAN, INF)],
)
def test_header_rejects_bad_rho_max(system, rho_max):
    with pytest.raises(CorruptStreamError, match="rho_max"):
        Container.from_bytes(_rewritten(system, rho_max=rho_max))


@pytest.mark.parametrize("origin", [(NAN, 0.0, 0.0), (0.0, INF, 0.0), (0.0, 0.0, -INF)])
@pytest.mark.parametrize("system", SYSTEMS)
def test_header_rejects_bad_origin(system, origin):
    with pytest.raises(CorruptStreamError, match="origin"):
        Container.from_bytes(_rewritten(system, origin_offset=origin))


@pytest.mark.parametrize(
    "thresholds",
    [(0.1, 0.25, 0.5), (0.0, 0.5, 0.25), (0.0, 0.25, 0.25), (0.0, 0.5, 1.0),
     (0.0, 0.5, 1.5), (0.0, NAN, 0.5), (-1e-3, 0.25, 0.5)],
)
def test_header_rejects_bad_thresholds(thresholds):
    with pytest.raises(CorruptStreamError, match="thresholds"):
        Container.from_bytes(_rewritten(thresholds=thresholds))


@pytest.mark.parametrize(
    "system, fields",
    # decoded before as non-finite voxel centers, a ValueError from PointCloud
    [(CARTESIAN, {"q": 1e307}), (CARTESIAN, {"q": 1e306, "origin_offset": (0.0, 1e308, 0.0)}),
     (CYLINDRICAL, {"q": 1e306, "rho_max": 1.5e306}), (SPHERICAL, {"q": 1e306, "rho_max": 1.5e306})],
)
def test_header_rejects_a_lattice_beyond_float_range(system, fields):
    with pytest.raises(CorruptStreamError, match="overflows float64"):
        Container.from_bytes(_rewritten(system, **fields))


@pytest.mark.parametrize("system, depth", [(SPHERICAL, 19), (SPHERICAL, 255), (CARTESIAN, 21)])
def test_header_rejects_depth_beyond_morton_range(system, depth):
    # the deepest part has depth D + N − 1; 3 parts at D = 18 is the deepest allowed
    with pytest.raises(CorruptStreamError, match="octree levels"):
        Container.from_bytes(_rewritten(system, depth=depth))


@pytest.mark.parametrize(
    "system, fields",
    # q = 1e-310 is subnormal: rho_max / q overflows to inf, which made base_steps raise OverflowError;
    # rho_max = q leaves one radial bin, too few for the angle steps 2π/(b−1) and π/(b−1)
    [(SPHERICAL, {"depth": 2}), (CYLINDRICAL, {"depth": 2}), (SPHERICAL, {"q": 1e-310}),
     (SPHERICAL, {"rho_max": 0.5}), (CYLINDRICAL, {"rho_max": 0.5})],
)
def test_header_rejects_more_radial_bins_than_the_lattice(system, fields):
    assert Container.from_bytes(_rewritten(system)).rho_max / 0.5 > 1 << 2
    with pytest.raises(CorruptStreamError, match="radial bins"):
        Container.from_bytes(_rewritten(system, **fields))


def test_encoder_refuses_an_undecodable_header():
    # base depth 19 (300,000 radial bins) and 3 parts: the points all fall in
    # part 0, so no octree of depth 20 or 21 is built to reject the depth
    cloud = PointCloud(np.full((4, 3), 0.1))
    cfg = CodecConfig(system=SPHERICAL, q=1.0 / 300_000, rho_max=1.0)
    with pytest.raises(ConfigError, match="octree levels"):
        encode_cloud(cloud, cfg)
    # thresholds that are distinct in f64 but equal once stored as f32
    close = MultiLevelConfig(3, (0.0, 0.5, 0.5 + 1e-12, 1.0))
    with pytest.raises(ConfigError, match="thresholds"):
        encode_cloud(_cloud(), CodecConfig(system=SPHERICAL, q=0.5, parts=close))


@st.composite
def _configs(draw):
    system = draw(st.sampled_from(SYSTEMS))
    n = draw(st.integers(1, 80))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    cloud = PointCloud(rng.uniform(-1.0, 1.0, size=(n, 3)) * draw(st.sampled_from([0.01, 1.0, 300.0])))
    parts = ONE_PART if system == CARTESIAN else draw(
        st.sampled_from([ONE_PART, MultiLevelConfig(), MultiLevelConfig(2, (0.0, 0.3, 1.0))])
    )
    how = draw(st.sampled_from(["kitti", "ford", "raw-depth", "raw-q"]))
    depth = draw(st.integers(1, 20 - parts.n_parts + 1))
    if how == "raw-q":
        extent = float(np.abs(cloud.points).max())
        return cloud, CodecConfig(system=system, q=extent / draw(st.floats(1.0, 2000.0)), parts=parts)
    convention = "raw" if how == "raw-depth" else how
    return cloud, CodecConfig(system=system, depth=depth, convention=convention, parts=parts)


@settings(max_examples=60, deadline=None)
@given(_configs())
def test_every_header_the_encoder_writes_decodes(case):
    cloud, cfg = case
    try:
        container = encode_cloud(cloud, cfg)
    except ConfigError:
        return  # a configuration the encoder refuses writes no header
    blob = container.to_bytes()
    assert Container.from_bytes(blob).to_bytes() == blob


# ---------------------------------------------------------------------------
# pipeline pairing
# ---------------------------------------------------------------------------


def test_pipeline_reconstruct_is_row_aligned():
    cloud = synth_lidar(SynthParams(beams=4, points_per_ring=60, rho_max=40.0, seed=3))
    cfg = CodecConfig(system=SPHERICAL, q=0.2)
    recon, part_idx, steps = pipeline_reconstruct(cloud, cfg)
    assert recon.shape == cloud.points.shape
    assert part_idx.shape == (len(cloud),)
    assert set(np.unique(part_idx)) <= {0, 1, 2}
    # each reconstruction matches the per-part direct quantization of its row
    from lidarpcc.coords import reconstruct_points

    for n in range(3):
        mask = part_idx == n
        if mask.any():
            expect = reconstruct_points(cloud.points[mask], part_steps(steps, n))
            np.testing.assert_allclose(recon[mask], expect, atol=0)


def test_pipeline_multilevel_errors_shrink_with_part_level():
    # same radius coded in part 0 vs part 2 → part 2 max error ≈ 4× smaller
    rng = np.random.default_rng(4)
    base = rng.uniform(-1.0, 1.0, (3000, 3))
    shell = base / np.linalg.norm(base, axis=1, keepdims=True) * rng.uniform(59, 60, (3000, 1))
    cloud = PointCloud(shell)

    one = CodecConfig(system=SPHERICAL, q=0.4, rho_max=60.0, parts=ONE_PART)
    three = CodecConfig(system=SPHERICAL, q=0.4, rho_max=60.0)
    err_one = np.linalg.norm(pipeline_reconstruct(cloud, one)[0] - shell, axis=1).max()
    err_three = np.linalg.norm(pipeline_reconstruct(cloud, three)[0] - shell, axis=1).max()
    assert err_one / err_three == pytest.approx(4.0, rel=0.25)
