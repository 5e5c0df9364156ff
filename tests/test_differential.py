"""The compiled part kernel against the per-node Python coder.

The Python coder is the reference path: ``kernel.encode_part`` (a part's
sorted leaf codes to its symbol count and payload) and ``kernel.decode_part``
(payload to leaf codes) run it when ``kernel.load`` finds no kernel, building
the octree with numpy and coding the ``occupancy_stream``/``ContextCursor``
contexts symbol by symbol through ``entropy`` with an
``AdaptiveContextModel``. :func:`on_both_coders` runs a call on the Python
coder and, whenever the kernel loads (not under ``--coder python``), on the
kernel too: it must write the same payload bytes, decode the same leaf codes,
and reject the same corrupt inputs with the same messages, word for word. The
encoder's leaf codes, from ``kernel.lattice_codes`` on either side, are held
to ``quantize``'s numpy chain the same way, and the decoder's voxel centres,
from ``kernel.leaf_points``, to ``coords.lattice_points`` bit for bit. The
encoder's front end, which ``pipeline_reconstruct`` shares, is held to the
public ``resolve_step``, ``derive_steps`` and ``part_assignment``: the same
header fields and parts, or the same refusal. The metrics' one kernel call,
``kernel.neighbour_covariances``, is held to its numpy gather, centre and
``einsum`` bit for bit.
"""

import dataclasses
import functools
import struct
from datetime import timedelta

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st
from test_conformance import CASES as CONFORMANCE

from lidarpcc import kernel
from lidarpcc.codec import (
    MAGIC,
    CodecConfig,
    Container,
    _header_lattice,
    _part_leaves,
    decode_cloud,
    encode_cloud,
    pipeline_reconstruct,
    resolve_step,
)
from lidarpcc.coords import (
    CARTESIAN,
    CYLINDRICAL,
    SPHERICAL,
    SYSTEMS,
    QuantizedCloud,
    QuantSteps,
    derive_steps,
    lattice_points,
    lattice_steps,
    quantize,
    radial_coord,
)
from lidarpcc.entropy import AdaptiveContextModel, encode
from lidarpcc.errors import ConfigError, CorruptStreamError, FormatError
from lidarpcc.octree import (
    MultiLevelConfig,
    _deinterleave,
    _interleave,
    build,
    leaf_indices,
    occupancy_stream,
    part_assignment,
    part_steps,
    partition_multilevel,
)
from lidarpcc.pcio import PointCloud

ONE_PART = MultiLevelConfig(1, (0.0, 1.0))


def _outcome(call, *args):
    try:
        out = call(*args)
    except (FormatError, CorruptStreamError) as exc:
        return f"{type(exc).__name__}: {exc}"
    return out.tolist() if isinstance(out, np.ndarray) else out


def on_both_coders(call, *args):
    """``call(*args)`` on the Python coder, its error as a string; the kernel, when it loads, must agree."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(kernel, "load", lambda: None)
        python = _outcome(call, *args)
    if kernel.load() is not None:
        assert _outcome(call, *args) == python
    return python


def _leaf_codes(tree) -> list:
    return _interleave(leaf_indices(tree), tree.depth).tolist()


def _sorted_codes(qc) -> np.ndarray:
    return np.sort(_interleave(qc.indices, qc.steps.depth))


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
        qc = quantize(part, part_steps(steps, n))
        tree = build(qc)
        payload, count = record.payload, record.symbol_count
        assert count == tree.node_count
        assert on_both_coders(kernel.encode_part, _sorted_codes(qc), depth) == (count, payload)
        assert on_both_coders(kernel.decode_part, payload, depth, count) == _leaf_codes(tree)

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
            outcome = on_both_coders(kernel.decode_part, bad_payload, depth, bad_count)
            if bad_payload == payload:
                wrong = "exceeds the tree's" if bad_count > count else "ends inside level"
                assert outcome.startswith(f"CorruptStreamError: symbol count {bad_count} {wrong}")


@st.composite
def lattices(draw):
    """Points and the steps of one part's lattice, with ±0s, exact half-step ties, clipped and refused indices."""
    system = draw(st.sampled_from(SYSTEMS), label="system")
    depth = draw(st.sampled_from([1, 2, 3, 7, 12, 20]), label="depth")
    q = draw(st.sampled_from([0.5, 0.1, 3.0]), label="q")
    hi = (1 << depth) - 1
    # 2 to 2^depth radial bins; a ρ past (bins − ½)·q is refused, which the largest coordinates reach
    bins = draw(st.integers(2, hi + 1), label="bins")
    top = hi + 2 if system == CARTESIAN else bins // 2 + 1
    tie = st.integers(-2 * top, 2 * top).map(lambda k: k * q / 2)  # k·q/2: odd k is a tie
    value = st.sampled_from([0.0, -0.0]) | tie | st.floats(-top * q, top * q, allow_nan=False)
    rows = draw(st.lists(st.tuples(value, value, value), min_size=1, max_size=30), label="points")
    if draw(st.booleans(), label="outlier"):  # an index past int64, which clips (Cartesian) or is refused
        rows.insert(draw(st.integers(0, len(rows))), draw(st.permutations([1e20, -1e20, 0.0])))
    origin = draw(st.sampled_from([(0.0, 0.0, 0.0), (-0.0, 0.0, -0.0), (-0.0, -0.0, -0.0)])
                  | st.tuples(*[st.floats(-hi * q, hi * q, allow_nan=False)] * 3), label="origin")
    if system == CARTESIAN:
        steps = QuantSteps(CARTESIAN, q, 0.0, 0.0, 1 << depth, depth, 0.0, origin)
    else:
        origin = (0.0, 0.0, origin[2]) if system == CYLINDRICAL else origin
        steps = lattice_steps(system, q, bins * q, depth, origin)
    return np.array(rows), steps


def _or_refusal(call, *args):
    """``call(*args)``, or the message of the ConfigError that refuses a radius past the lattice."""
    try:
        return call(*args)
    except ConfigError as exc:
        return f"ConfigError: {exc}"


@settings(max_examples=300, deadline=None)
@given(lattices())
def test_lattice_codes_match_the_quantize_chain(case):
    # the codec's leaf codes, the kernel's lattice and Morton codes then sort and
    # dedup, are the reference chain's bit for bit, refusals word for word
    points, steps = case
    outcome = on_both_coders(_or_refusal, _part_leaves, points, steps, False)
    assert outcome == _outcome(_or_refusal, lambda: _sorted_codes(quantize(PointCloud(points), steps)))
    if isinstance(outcome, str):
        assert outcome.startswith(f"ConfigError: rho_max={steps.rho_max} smaller than cloud max radius ")


@st.composite
def front_end_cases(draw):
    """A config and a cloud with points exactly on each part edge t_n·ρ_max and ±0 coordinates, or one refused."""
    system = draw(st.sampled_from(SYSTEMS), label="system")
    parts = ONE_PART if system == CARTESIAN else draw(st.sampled_from([ONE_PART, MultiLevelConfig()]), label="parts")
    radius = draw(st.sampled_from([1.0, 30.0, 123.456]), label="radius")
    step = draw(st.sampled_from(["raw + depth", "raw + q", "kitti"]), label="step")
    convention, depth, q = ("kitti", 12, None) if step == "kitti" else ("raw", 10, None)
    if step == "raw + q":
        depth, q = None, radius / draw(st.sampled_from([3.0, 100.0, 2000.0]), label="bins")
    share = draw(st.sampled_from([None, 0.5, 1.0, 1.5]), label="rho_max")  # measured, or given as a share of the radius
    rho_max = None if share is None else share * radius
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1), label="seed"))
    rows = [rng.uniform(-radius / 2, radius / 2, size=3) for _ in range(draw(st.integers(0, 20), label="n"))]
    # the cloud's radius, then each edge t_n·ρ_max, on the x or y axis with ±0 off it
    for r in (radius, *(t * (rho_max or radius) for t in MultiLevelConfig().thresholds[1:])):
        row = rng.choice([0.0, -0.0], size=3)
        row[draw(st.integers(0, 1), label="axis")] = r * draw(st.sampled_from([1.0, -1.0]), label="sign")
        rows.insert(draw(st.integers(0, len(rows)), label="at"), row)
    pts = np.array(rows)
    shape = draw(st.sampled_from(["spread", "spread", "one voxel", "origin", "overflow"]), label="shape")
    if shape == "one voxel":  # refused under raw + depth as a degenerate Cartesian cloud
        pts = np.repeat(pts[:1], len(pts), axis=0)
    elif shape == "origin":  # refused by the angle systems without a given rho_max
        pts = rng.choice([0.0, -0.0], size=pts.shape)
    elif shape == "overflow":  # a radius, and a Cartesian extent, that overflows to inf
        pts[rng.choice(len(pts), 2, replace=False)] = [[1.7e308, 1.7e308, 0.0], [-1.7e308, -1.7e308, -0.0]]
    cfg = CodecConfig(system=system, depth=depth, q=q, convention=convention, parts=parts, rho_max=rho_max)
    return PointCloud(pts), cfg


def _header(depth: int, q: float, rho_max: float, origin) -> bytes:
    """The header fields a cloud's lattice fixes, packed as the container packs them."""
    return struct.pack("<Bdd3d", depth, q, rho_max, *origin)


def _encoded_header(cloud, cfg) -> bytes:
    container = encode_cloud(cloud, cfg)
    return _header(container.depth, container.q, container.rho_max, container.origin_offset)


def _reconstructed(cloud, cfg) -> tuple:
    recon, part, steps = pipeline_reconstruct(cloud, cfg)
    return recon.tobytes(), _header(steps.depth, steps.q_primary, steps.rho_max, steps.origin_offset), part.tolist()


def _public_chain(cloud, cfg) -> tuple:
    """The header and parts by the public rules: resolve_step, derive_steps, part_assignment, each part's quantize."""
    q, rho_max = resolve_step(cfg, cloud)
    steps = derive_steps(cfg.system, q, cloud, rho_max)
    part = part_assignment(radial_coord(cloud.points, cfg.system), cfg.parts, steps.rho_max)
    for n in range(cfg.parts.n_parts):
        quantize(PointCloud(cloud.points[part == n]), part_steps(steps, n))  # refuses a radius past the lattice
    return _header(steps.depth, steps.q_primary, steps.rho_max, steps.origin_offset), part.tolist()


def _front_end_outcome(cloud, cfg):
    """The public chain's header and parts, or refusal, which ``encode_cloud`` and ``pipeline_reconstruct`` share."""
    with np.errstate(over="ignore"):
        expected = _or_refusal(_public_chain, cloud, cfg)
        encoded = on_both_coders(_or_refusal, _encoded_header, cloud, cfg)
        reconstructed = on_both_coders(_or_refusal, _reconstructed, cloud, cfg)
    if isinstance(expected, str):
        assert encoded == reconstructed == expected
    else:
        assert encoded == expected[0]
        assert reconstructed[1:] == expected
    return expected


@settings(max_examples=200, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(front_end_cases())
def test_encoder_and_pipeline_follow_the_public_lattice_rules(case):
    # the header fields bit for bit (±0 origins included), the part of every point on
    # an edge, and the first refusal word for word, whichever way the cloud is coded
    _front_end_outcome(*case)


def test_front_end_cases_reach_every_refusal():
    spread = np.array([[30.0, -0.0, 0.0], [-0.0, 7.5, 0.0], [1.0, 2.0, 3.0]])
    far = np.array([[1.7e308, 1.7e308, 0.0], [-1.7e308, -1.7e308, -0.0]])
    origin = np.array([[0.0, -0.0, 0.0], [-0.0, 0.0, -0.0]])
    cases = [  # the radial split's refusal and the lattice's, one text
        ("rho_max=15.0 smaller than cloud max radius 30", spread, dict(q=0.5, rho_max=15.0)),
        ("rho_max=15.0 smaller than cloud max radius 30", spread, dict(q=0.5, rho_max=15.0, parts=ONE_PART)),
        ("cannot derive a step for a degenerate (single-voxel) cloud", spread[[2, 2]], dict(system=CARTESIAN, depth=9)),
        ("cannot derive a step: all points at the origin", origin, dict(depth=10)),
        ("rho_max must be finite, got inf", far, dict(system=CYLINDRICAL, q=0.5)),
        ("depth=10 gives a step of inf, which is not finite and positive", far, dict(depth=10)),
    ]
    for message, pts, fields in cases:
        assert _front_end_outcome(PointCloud(pts), CodecConfig(**fields)) == f"ConfigError: {message}"


@st.composite
def cut_lattices(draw):
    """:func:`lattices`, as drawn, or doubled so every voxel lies on both sides of the cut, or in one voxel."""
    points, steps = draw(lattices())
    shape = draw(st.sampled_from(["as drawn", "straddling", "one voxel"]), label="shape")
    if shape == "straddling":  # the cut at n // 2 falls after the drawn rows, and the copies follow it shuffled
        order = draw(st.permutations(range(len(points))), label="order")
        odd = points[:1] if draw(st.booleans(), label="odd") else points[:0]
        points = np.concatenate([points, points[order], odd])
    elif shape == "one voxel":
        points = np.repeat(points[:1], draw(st.integers(1, 9), label="rows"), axis=0)
    return points, steps


def _cut_leaves(points, steps):
    """The codec's leaf codes with the rows cut in two halves on two threads, as a lone part's, on either coder."""
    return _part_leaves(points, steps, True)


@settings(max_examples=300, deadline=None)
@given(cut_lattices())
def test_cut_rows_give_the_quantize_chains_leaves(case):
    # each half filled, sorted and deduplicated on its own thread, then merged: the reference
    # chain's leaves bit for bit, and its refusal word for word, naming the radius of all the rows
    points, steps = case
    outcome = on_both_coders(_or_refusal, _cut_leaves, points, steps)
    assert outcome == _outcome(_or_refusal, lambda: _sorted_codes(quantize(PointCloud(points), steps)))


@pytest.mark.parametrize("name", ["near-ties-spherical", "near-ties-cylindrical"])
def test_halves_give_the_whole_parts_leaves_at_near_ties(name):
    # these angles lie within a few ulp of a half-step tie, so the last bit of numpy's trig picks
    # their index: each half's trig must give the bits the whole part's gives, at any cut
    points, cfg = CONFORMANCE[name][:2]
    cloud = PointCloud(points())
    steps = _header_lattice(cloud, dataclasses.replace(cfg, parts=ONE_PART))[0]
    whole = on_both_coders(_part_leaves, cloud.points, steps, False)
    assert on_both_coders(_part_leaves, cloud.points, steps, True) == whole

    def halves(cut: int) -> np.ndarray:
        return np.concatenate([kernel.lattice_codes(rows, steps) for rows in np.split(cloud.points, [cut])])

    codes = on_both_coders(kernel.lattice_codes, cloud.points, steps)
    for cut in [*range(1, 40), len(cloud) // 2, len(cloud) // 2 + 1, len(cloud) - 7]:
        assert on_both_coders(halves, cut) == codes, cut


@st.composite
def part_leaves(draw):
    """Leaf codes of one part, 0 and 8^depth − 1 among them, and its steps: any system, depth and part, ±0 and 1e15 origins."""
    system = draw(st.sampled_from(SYSTEMS), label="system")
    depth = draw(st.integers(1, 20), label="depth")
    n = draw(st.integers(0, min(2, depth - 1)), label="part")
    q = draw(st.sampled_from([0.5, 0.1, 3.0, 1e-3]), label="q")
    coordinate = (st.sampled_from([0.0, -0.0, 1e15, -1e15, 1e15 + 0.125, -(2.0**50) - 0.5])
                  | st.floats(-1e15, 1e15, allow_nan=False))
    origin = draw(st.tuples(coordinate, coordinate, coordinate), label="origin")
    base = depth - n
    if system == CARTESIAN:
        steps = QuantSteps(CARTESIAN, q, 0.0, 0.0, 1 << base, base, 0.0, origin)
    else:
        bins = draw(st.integers(2, 1 << base), label="bins")
        steps = lattice_steps(system, q, bins * q, base, origin)
    top = 8**depth - 1
    code = st.sampled_from([0, top]) | st.integers(0, top)
    return np.array(draw(st.lists(code, min_size=1, max_size=40), label="codes"), dtype=np.int64), part_steps(steps, n)


def _points_bits(codes, steps) -> tuple:
    points = kernel.leaf_points(codes, steps)
    return points.shape, points.tobytes()


@settings(max_examples=300, deadline=None)
@given(part_leaves())
def test_leaf_points_match_the_lattice_points_chain(case):
    # the decoder's voxel centres, the kernel's de-interleave and index·step plus offset
    # then numpy's trig, are the reference chain's bit for bit, ±0 included
    codes, steps = case
    reference = lattice_points(_deinterleave(codes, steps.depth), steps)
    assert on_both_coders(_points_bits, codes, steps) == (reference.shape, reference.tobytes())


def _round_trip_leaves(indices: np.ndarray, depth: int):
    """The tree over ``indices``, which the kernel and the Python coder decode to ``leaf_indices``' codes, in its order."""
    steps = QuantSteps(CARTESIAN, 1.0, 0.0, 0.0, 1 << depth, depth, 0.0)
    qc = QuantizedCloud(np.unique(indices, axis=0), steps, len(indices))
    tree = build(qc)
    count, payload = on_both_coders(kernel.encode_part, _sorted_codes(qc), depth)
    assert count == tree.node_count
    assert on_both_coders(kernel.decode_part, payload, depth, count) == _leaf_codes(tree)
    return tree


def test_deep_levels_share_capped_contexts():
    # levels past AdaptiveContextModel.LEVEL_CAP (16) share their contexts;
    # the hypothesis cases above reach part depth 17 at most
    _round_trip_leaves(np.random.default_rng(21).integers(0, 1 << 19, size=(40, 3)), 19)


def test_both_coders_halve_counts_alike():
    # 16,384 single-child chains below level 6 of a depth-20 tree: levels
    # 16..20 share one context, whose 5 × 16,384 symbols pass the 65,026 that
    # halve its counts. The chains take the last octant, so its symbol 128
    # sits above 127 others in the cumulative table and moves the coder's low.
    a, b, c = np.meshgrid(np.arange(16), np.arange(32), np.arange(32), indexing="ij")
    depth = 20
    indices = np.stack([a.ravel(), b.ravel(), c.ravel()], axis=1) << (depth - 5) | ((1 << (depth - 5)) - 1)
    if kernel.load() is None:
        pytest.skip("compiled kernel not in use")
    _round_trip_leaves(indices, depth)


def test_full_octree_expands_every_bit():
    # every symbol of a full depth-3 octree is 0xFF: 1 + 8 + 64 nodes, 512 leaves
    indices = np.stack(np.meshgrid(*[np.arange(8)] * 3, indexing="ij"), axis=-1).reshape(-1, 3)
    tree = _round_trip_leaves(indices, 3)
    assert tree.node_count == 73 and (tree.all_symbols() == 0xFF).all()


def test_single_child_chains_through_every_octant():
    # the 8 corners of a depth-20 cube: a full root, then 8 chains of one child, each in one octant all the way down
    depth = 20
    corners = np.array([[o >> 2 & 1, o >> 1 & 1, o & 1] for o in range(8)]) * ((1 << depth) - 1)
    tree = _round_trip_leaves(corners, depth)
    assert [len(level.symbols) for level in tree.levels] == [1] + [8] * (depth - 1)


@settings(max_examples=200, deadline=None)
@given(st.integers(1, 20), st.data())
def test_octree_symbols_agree_on_any_codes(depth, data):
    # sorted unique codes below 8^depth give build's symbol count and the per-node coder's payload of its
    # tree; anything else the same ValueError on both coders
    top = 8**depth
    near = st.integers(-2, 2) | st.integers(top - 2, top + 2) | st.integers(-(2**63), 2**63 - 1)
    codes = data.draw(st.lists(st.integers(0, top - 1) | near, max_size=40))
    if data.draw(st.booleans()):
        codes = sorted(set(codes))
    codes = np.array(codes, dtype=np.int64)
    outcome = on_both_coders(_payload_or_error, codes, depth)
    if len(codes) and codes[0] >= 0 and codes[-1] < top and (codes[1:] > codes[:-1]).all():
        indices = _deinterleave(codes, depth)
        steps = QuantSteps(CARTESIAN, 1.0, 0.0, 0.0, 1 << depth, depth, 0.0)
        tree = build(QuantizedCloud(indices, steps, len(codes)))
        assert outcome == (tree.node_count, encode(occupancy_stream(tree), AdaptiveContextModel()).data)
    else:
        assert outcome == f"ValueError: {len(codes)} leaf codes are not a non-empty, sorted, unique set below 8^{depth}"


def _payload_or_error(codes, depth):
    try:
        return kernel.encode_part(codes, depth)
    except ValueError as exc:
        return f"ValueError: {exc}"


@st.composite
def neighbourhoods(draw):
    """Points and (rows, k) neighbour indices: ±0 and large coordinates, repeated points and indices, k past 64, no rows."""
    n = draw(st.integers(1, 12), label="points")
    coordinate = st.sampled_from([0.0, -0.0, 1.0, -2.5, 1e15 + 0.125, -1e300, 1e300]) | st.floats(-1e6, 1e6)
    rows = draw(st.lists(st.tuples(coordinate, coordinate, coordinate), min_size=n, max_size=n), label="rows")
    shape = draw(st.sampled_from(["as drawn", "all -0.0", "one point repeated"]), label="shape")
    if shape == "all -0.0":
        rows = [(-0.0, -0.0, -0.0)] * n
    elif shape == "one point repeated":
        rows = rows[:1] * n
    k = draw(st.sampled_from([1, 12, 65, 130]) | st.integers(1, 20), label="k")
    count = draw(st.integers(0, 6), label="neighbourhoods")
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1), label="seed"))
    idx = rng.integers(0, n, size=(count, k))
    if count and draw(st.booleans(), label="one index repeated"):
        idx[0] = idx[0, 0]
    return np.array(rows), idx


def _covariance_bits(points, idx) -> list:
    with np.errstate(over="ignore", invalid="ignore"):  # 1e300² overflows, and ∞ − ∞ is NaN, alike on both
        return kernel.neighbour_covariances(points, idx).view(np.int64).tolist()


@settings(max_examples=300, deadline=None)
@given(neighbourhoods())
def test_neighbour_covariances_match_the_numpy_gather(case):
    # the kernel's one pass over the points, in numpy's order of sums, gives the
    # gather, centre and einsum's covariances bit for bit, signs of zero and NaNs included
    points, idx = case
    with np.errstate(over="ignore", invalid="ignore"):
        reference = kernel._gathered_covariances(points, idx)
    assert reference.shape == (len(idx), 3, 3)
    assert on_both_coders(_covariance_bits, points, idx) == reference.view(np.int64).tolist()


# ---------------------------------------------------------------------------
# decoder fuzzing: any bytes end in a cloud or a format/corrupt-stream error,
# and the kernel and the Python coder end the same way
# ---------------------------------------------------------------------------


@functools.cache
def _real_containers() -> tuple[bytes, ...]:
    """A cartesian, a cylindrical and a 3-part spherical container of one small cloud."""
    cloud = PointCloud(np.random.default_rng(5).uniform(-20.0, 20.0, size=(150, 3)))
    cfgs = (
        CodecConfig(system=CARTESIAN, depth=6, parts=ONE_PART),
        CodecConfig(system=CYLINDRICAL, q=0.5, parts=ONE_PART),
        CodecConfig(system=SPHERICAL, q=0.5),
    )
    return tuple(encode_cloud(cloud, cfg).to_bytes() for cfg in cfgs)


_U64 = st.integers(0, 2**64 - 1)
_F64 = st.floats(allow_nan=True, allow_infinity=True)


def _header_fields(blob: bytes) -> list:
    """(offset, struct format, value strategy) of every header and part-record field."""
    container = Container.from_bytes(blob)
    fields = [(off, "<B", st.integers(0, 255)) for off in (4, 5, 6, 7)]
    fields += [(off, "<d", _F64) for off in range(8, 48, 8)]
    fields += [(48 + 4 * n, "<f", st.floats(width=32)) for n in range(container.n_parts)]
    off = 48 + 4 * container.n_parts
    for part in container.parts:
        near = st.integers(max(part.symbol_count - 3, 0), part.symbol_count + 3)
        fields += [(off, "<Q", st.one_of(_U64, near)), (off + 8, "<B", st.integers(0, 255)),
                   (off + 9, "<Q", st.one_of(_U64, st.integers(0, len(part.payload) + 3)))]
        off += 17 + len(part.payload)
    return fields + [(off, "<Q", _U64)]


@st.composite
def fuzzed_containers(draw):
    kind = draw(st.sampled_from(["bytes", "flips", "truncation", "field"]))
    if kind == "bytes":
        tail = st.binary(max_size=120)
        return draw(st.one_of(tail, tail.map(lambda b: MAGIC + b"\x01" + b)))
    blob = bytearray(draw(st.sampled_from(_real_containers())))
    if kind == "flips":
        for bit in draw(st.lists(st.integers(0, 8 * len(blob) - 1), min_size=1, max_size=4)):
            blob[bit // 8] ^= 1 << (bit % 8)
    elif kind == "truncation":
        del blob[draw(st.integers(0, len(blob) - 1)):]
    else:
        off, fmt, values = draw(st.sampled_from(_header_fields(bytes(blob))))
        struct.pack_into(fmt, blob, off, draw(values))
    return bytes(blob)


def _decoded_points(blob: bytes) -> bytes:
    return decode_cloud(Container.from_bytes(blob)).points.tobytes()


@settings(max_examples=150, deadline=timedelta(seconds=5), suppress_health_check=[HealthCheck.too_slow])
@given(fuzzed_containers())
def test_decoder_is_total_on_both_coders(blob):
    on_both_coders(_decoded_points, blob)


def test_fuzzed_containers_reach_the_decoders():
    # the real containers decode, so the mutations start from streams that both coders accept
    for blob in _real_containers():
        assert isinstance(on_both_coders(_decoded_points, blob), bytes)
