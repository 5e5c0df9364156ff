"""Octree construction, breadth-first occupancy streams, and radial partition."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lidarpcc.codec import CodecConfig, pipeline_reconstruct
from lidarpcc.coords import (
    CARTESIAN,
    CYLINDRICAL,
    SPHERICAL,
    QuantizedCloud,
    QuantSteps,
    radial_coord,
    transform_points,
)
from lidarpcc.errors import ConfigError, CorruptStreamError
from lidarpcc.octree import (
    ContextCursor,
    MultiLevelConfig,
    _deinterleave,
    _interleave,
    build,
    leaf_indices,
    occupancy_stream,
    part_assignment,
    part_steps,
    partition_multilevel,
    rebuild,
)
from lidarpcc.pcio import PointCloud


def _steps(depth, system=CARTESIAN):
    return QuantSteps(system, 1.0, 0.01, 0.01, 1 << depth, depth, float(1 << depth))


def _qc(indices, depth):
    idx = np.asarray(indices, dtype=np.int64).reshape(-1, 3)
    return QuantizedCloud(idx, _steps(depth), len(idx))


def _morton(cell, level):
    code = 0
    for shift in range(level - 1, -1, -1):
        code = (
            (code << 3)
            | (((cell[0] >> shift) & 1) << 2)
            | (((cell[1] >> shift) & 1) << 1)
            | ((cell[2] >> shift) & 1)
        )
    return code


def _brute_levels(indices, depth):
    """Reference: per level, occupancy bytes keyed by parent, breadth-first.

    Breadth-first node order within a level is the parents' order in the level
    above, which is ascending interleaved (Morton) code — not tuple order.
    """
    out = []
    idx = {tuple(r) for r in np.asarray(indices).tolist()}
    for level in range(1, depth + 1):
        shift = depth - level
        table = {}
        for x, y, z in idx:
            cell = (x >> shift, y >> shift, z >> shift)
            parent = (cell[0] >> 1, cell[1] >> 1, cell[2] >> 1)
            octant = 4 * (cell[0] & 1) + 2 * (cell[1] & 1) + (cell[2] & 1)
            table.setdefault(parent, 0)
            table[parent] |= 1 << octant
        order = sorted(table, key=lambda p: _morton(p, level - 1))
        out.append([table[k] for k in order])
    return out


@st.composite
def index_sets(draw):
    depth = draw(st.integers(1, 6))
    n = draw(st.integers(1, 60))
    hi = (1 << depth) - 1
    rows = draw(
        st.lists(st.tuples(*[st.integers(0, hi)] * 3), min_size=n, max_size=n)
    )
    return np.array(rows, dtype=np.int64), depth


def _interleave_per_bit(indices, depth):
    """Reference: one 3-bit group per level, x highest."""
    code = np.zeros(len(indices), dtype=np.int64)
    for shift in range(depth - 1, -1, -1):
        for axis in range(3):
            code = code << 1 | (indices[:, axis] >> shift) & 1
    return code


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 20), st.integers(0, 2**32 - 1))
def test_morton_tables_match_the_per_bit_rule(depth, seed):
    rng = np.random.default_rng(seed)
    # indices past the 2^D cube and below 0: only their low D bits count
    indices = rng.integers(-(1 << depth), 2 << depth, size=(200, 3))
    codes = _interleave(indices, depth)
    np.testing.assert_array_equal(codes, _interleave_per_bit(indices, depth))
    np.testing.assert_array_equal(_deinterleave(codes, depth), indices & ((1 << depth) - 1))


@given(index_sets())
def test_build_matches_bruteforce(case):
    indices, depth = case
    tree = build(_qc(indices, depth))
    brute = _brute_levels(indices, depth)
    assert len(tree.levels) == depth
    for lv, expect in zip(tree.levels, brute):
        assert lv.symbols.tolist() == expect
    assert (tree.all_symbols() >= 1).all()


@given(index_sets())
def test_leaves_recover_index_set(case):
    indices, depth = case
    tree = build(_qc(indices, depth))
    got = leaf_indices(tree)
    expect = np.unique(indices, axis=0)
    assert len(got) == len(expect)
    np.testing.assert_array_equal(np.unique(got, axis=0), expect)
    # breadth-first output: ascending Morton codes
    codes = [_morton(tuple(r), depth) for r in got.tolist()]
    assert codes == sorted(codes)


@given(index_sets())
def test_stream_rebuild_round_trip(case):
    indices, depth = case
    tree = build(_qc(indices, depth))
    symbols = [s for s, _ in occupancy_stream(tree)]
    assert len(symbols) == tree.node_count
    assert rebuild(symbols, depth) == tree


def test_single_point_tree():
    tree = build(_qc([[5, 3, 7]], 3))
    assert tree.node_count == 3  # one node per level
    assert all(len(lv.symbols) == 1 for lv in tree.levels)
    np.testing.assert_array_equal(leaf_indices(tree), [[5, 3, 7]])


def test_full_cube_symbols():
    g = np.stack(np.meshgrid(*[np.arange(4)] * 3, indexing="ij"), axis=-1).reshape(-1, 3)
    tree = build(_qc(g, 2))
    assert (tree.all_symbols() == 255).all()
    assert tree.node_count == 1 + 8


def test_octant_bit_convention():
    # child octant c = 4·bx + 2·by + bz: index (1,0,1) at depth 1 → bit 5
    tree = build(_qc([[1, 0, 1]], 1))
    assert tree.levels[0].symbols[0] == 1 << 5


def test_build_rejects_bad_input():
    with pytest.raises(ValueError):
        build(_qc(np.empty((0, 3), dtype=np.int64), 3))
    st_ = _steps(25)
    with pytest.raises(ConfigError):
        build(QuantizedCloud(np.array([[0, 0, 0]]), st_, 1))


def test_rebuild_rejects_corrupt_streams():
    tree = build(_qc([[2, 1, 3], [0, 0, 0], [3, 3, 3]], 2))
    symbols = [s for s, _ in occupancy_stream(tree)]
    with pytest.raises(CorruptStreamError, match="exhausted"):
        rebuild(symbols[:-1], 2)
    with pytest.raises(CorruptStreamError, match="leftover"):
        rebuild(symbols + [1], 2)
    broken = list(symbols)
    broken[0] = 0
    with pytest.raises(CorruptStreamError, match="zero occupancy"):
        rebuild(broken, 2)


# ---------------------------------------------------------------------------
# contexts
# ---------------------------------------------------------------------------


def test_context_fields_are_causal_and_bounded():
    rng = np.random.default_rng(5)
    indices = rng.integers(0, 16, size=(80, 3))
    tree = build(_qc(indices, 4))
    seen_levels = []
    for sym, ctx in occupancy_stream(tree):
        assert 1 <= ctx.octant <= 8
        assert 1 <= ctx.level <= 4
        ((occ, octant),) = ctx.ancestors
        assert 0 <= occ <= 255 and 0 <= octant <= 8
        seen_levels.append(ctx.level)
    assert seen_levels == sorted(seen_levels)  # breadth-first
    assert seen_levels[0] == 1


def test_root_context_is_zero_padded():
    tree = build(_qc([[0, 1, 2]], 2))
    _, ctx = next(occupancy_stream(tree))
    assert ctx.octant == 1 and ctx.level == 1
    assert ctx.ancestors == ((0, 0),)


def test_ancestor_chain_nearest_first():
    # single deep path: each level's first ancestor is its parent's symbol
    tree = build(_qc([[7, 7, 7]], 3))
    stream = list(occupancy_stream(tree))
    syms = [s for s, _ in stream]
    _, ctx3 = stream[2]
    assert ctx3.ancestors[0][0] == syms[1]
    # each node carries its parent's (byte, octant); the root's is (0, 0)
    assert syms == [128, 128, 128]
    assert [ctx.ancestors for _, ctx in stream] == [((0, 0),), ((128, 1),), ((128, 8),)]


def test_cursor_decoder_side_matches_encoder_side():
    rng = np.random.default_rng(9)
    indices = rng.integers(0, 32, size=(200, 3))
    tree = build(_qc(indices, 5))
    cursor = ContextCursor(5)
    for sym, ctx in occupancy_stream(tree):
        assert cursor.next_context() == ctx
        cursor.push(sym)
    assert not cursor.pending()


# ---------------------------------------------------------------------------
# multi-level partition
# ---------------------------------------------------------------------------


def test_multilevel_config_validation():
    MultiLevelConfig(1, (0.0, 1.0))
    with pytest.raises(ConfigError):
        MultiLevelConfig(3, (0.0, 0.5, 1.0))  # wrong count
    with pytest.raises(ConfigError):
        MultiLevelConfig(2, (0.1, 0.5, 1.0))  # must start at 0
    with pytest.raises(ConfigError):
        MultiLevelConfig(2, (0.0, 0.5, 0.9))  # must end at 1
    with pytest.raises(ConfigError):
        MultiLevelConfig(3, (0.0, 0.5, 0.5, 1.0))  # strictly increasing
    with pytest.raises(ConfigError):
        MultiLevelConfig(0, (0.0,))


def test_partition_bands_are_half_open():
    cfg = MultiLevelConfig(3, (0.0, 0.25, 0.5, 1.0))
    rho_max = 100.0
    radii = np.array([0.0, 24.999, 25.0, 49.999, 50.0, 99.0, 100.0])
    pts = np.zeros((len(radii), 3))
    pts[:, 0] = radii
    assignment = part_assignment(radial_coord(pts, SPHERICAL), cfg, rho_max)
    np.testing.assert_array_equal(assignment, [0, 0, 1, 1, 2, 2, 2])


def test_partition_splits_and_preserves_attr():
    rng = np.random.default_rng(1)
    pts = rng.normal(size=(300, 3)) * 30
    cloud = PointCloud(pts, attr=np.arange(300.0))
    cfg = MultiLevelConfig(3, (0.0, 0.25, 0.5, 1.0))
    rho_max = float(np.linalg.norm(pts, axis=1).max())
    parts = partition_multilevel(cloud, cfg, rho_max)
    assert sum(len(p) for p in parts) == 300
    assignment = part_assignment(radial_coord(pts, SPHERICAL), cfg, rho_max)
    for n, part in enumerate(parts):
        np.testing.assert_array_equal(part.points, pts[assignment == n])
        np.testing.assert_array_equal(part.attr, np.flatnonzero(assignment == n))


def test_partition_rejects_too_small_rho_max():
    cloud = PointCloud(np.array([[10.0, 0.0, 0.0]]))
    with pytest.raises(ConfigError, match="rho_max"):
        partition_multilevel(cloud, MultiLevelConfig(), 5.0)
    with pytest.raises(ConfigError, match="smaller than cloud max radius"):
        part_assignment(radial_coord(cloud.points, SPHERICAL), MultiLevelConfig(), 5.0)


def test_one_part_holds_every_point_without_radii(monkeypatch):
    def no_radii(*args):
        raise AssertionError("one part needs no radii")

    monkeypatch.setattr("lidarpcc.octree.radial_coord", no_radii)
    monkeypatch.setattr("lidarpcc.codec.radial_coord", no_radii)
    cloud = PointCloud(np.array([[10.0, 0.0, 0.0], [0.0, 3.0, 0.0]]))
    one = MultiLevelConfig(1, (0.0, 1.0))
    assignment = part_assignment(np.array([10.0, 3.0]), one, 5.0)  # one part refuses no radius
    assert assignment.dtype == np.int64
    np.testing.assert_array_equal(assignment, [0, 0])
    assert partition_multilevel(cloud, one, 5.0)[0] is cloud
    # nor does the encoder's front end measure radii for one part with a given rho_max
    part_idx = pipeline_reconstruct(cloud, CodecConfig(system=SPHERICAL, q=0.5, rho_max=12.0, parts=one))[1]
    assert part_idx.dtype == np.int64
    np.testing.assert_array_equal(part_idx, [0, 0])


def test_partition_radius_follows_system():
    # point at cylinder radius 1 but spherical radius ~10: lands in different bands
    pts = np.array([[1.0, 0.0, 10.0], [8.0, 0.0, 0.0]])
    cfg = MultiLevelConfig(3, (0.0, 0.25, 0.5, 1.0))
    sph = part_assignment(radial_coord(pts, SPHERICAL), cfg, 10.5)
    cyl = part_assignment(radial_coord(pts, CYLINDRICAL), cfg, 10.5)
    np.testing.assert_array_equal(sph, [2, 2])
    np.testing.assert_array_equal(cyl, [0, 2])


@pytest.mark.parametrize("system", [SPHERICAL, CYLINDRICAL])
def test_part_split_and_quantizer_read_the_same_radius(monkeypatch, system):
    # a point near a part threshold would change part if the two radii differed in the last bit
    rng = np.random.default_rng(3)
    pts = np.concatenate([rng.normal(size=(2000, 3)) * 10.0**e for e in range(-3, 7)])
    measured, split = [], []

    def recorded(points, sys_):
        measured.append(radial_coord(points, sys_))
        return measured[-1]

    def splits(radii, *args):
        split.append(radii)
        return part_assignment(radii, *args)

    monkeypatch.setattr("lidarpcc.codec.radial_coord", recorded)
    monkeypatch.setattr("lidarpcc.codec.part_assignment", splits)
    # the encoder's front end measures the radii once, for rho_max and the split alike
    _, part_idx, steps = pipeline_reconstruct(PointCloud(pts), CodecConfig(system=system, q=1e3))
    quantizer = transform_points(pts, steps)[:, 0]
    assert len(measured) == 1 and len(split) == 1 and split[0] is measured[0]
    assert steps.rho_max == measured[0].max()
    np.testing.assert_array_equal(split[0].view(np.uint64), quantizer.view(np.uint64))
    np.testing.assert_array_equal(part_idx, part_assignment(quantizer, MultiLevelConfig(), steps.rho_max))


def test_part_steps_halve_everything():
    base = QuantSteps(SPHERICAL, 0.4, 0.02, 0.01, 100, 7, 40.0)
    st2 = part_steps(base, 2)
    assert st2.q_primary == pytest.approx(0.1)
    assert st2.q_theta == pytest.approx(0.005)
    assert st2.q_phi == pytest.approx(0.0025)
    assert st2.bins == 400
    assert st2.depth == 9
    assert st2.rho_max == 40.0
    assert part_steps(base, 0) is base
