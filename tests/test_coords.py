"""Coordinate transforms and lattice quantization."""

import dataclasses
import math
import warnings

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from lidarpcc import codec
from lidarpcc.coords import (
    CARTESIAN,
    CYLINDRICAL,
    SPHERICAL,
    QuantizedCloud,
    QuantSteps,
    bounding_box,
    box_steps,
    cart_to_cyl,
    cart_to_sph,
    cyl_to_cart,
    dequantize,
    derive_steps,
    quantize,
    radial_coord,
    reconstruct_points,
    sph_to_cart,
)
from lidarpcc.errors import ConfigError
from lidarpcc.pcio import PointCloud

coord = st.floats(-300.0, 300.0, allow_nan=False, allow_infinity=False, width=64)


@st.composite
def clouds(draw, min_n=1, max_n=50):
    n = draw(st.integers(min_n, max_n))
    pts = draw(hnp.arrays(np.float64, (n, 3), elements=coord))
    return pts


# ---------------------------------------------------------------------------
# transforms
# ---------------------------------------------------------------------------


def test_spherical_known_values():
    p = np.array([[1.0, 1.0, 0.0], [0.0, 0.0, 2.0], [-3.0, 0.0, 0.0], [0.0, -1.0, 0.0]])
    s = cart_to_sph(p)
    np.testing.assert_allclose(s[0], [math.sqrt(2), math.pi / 4, math.pi / 2], atol=1e-12)
    np.testing.assert_allclose(s[1], [2.0, 0.0, 0.0], atol=1e-12)
    np.testing.assert_allclose(s[2], [3.0, math.pi, math.pi / 2], atol=1e-12)
    np.testing.assert_allclose(s[3], [1.0, 3 * math.pi / 2, math.pi / 2], atol=1e-12)


def test_cylindrical_known_values():
    c = cart_to_cyl(np.array([[0.0, 2.0, -5.0]]))
    np.testing.assert_allclose(c[0], [2.0, math.pi / 2, -5.0], atol=1e-12)


def test_origin_maps_to_zero_triple():
    np.testing.assert_array_equal(cart_to_sph(np.zeros((1, 3)))[0], [0.0, 0.0, 0.0])
    np.testing.assert_array_equal(cart_to_cyl(np.zeros((1, 3)))[0], [0.0, 0.0, 0.0])


@given(clouds())
def test_spherical_round_trip(pts):
    s = cart_to_sph(pts)
    assert (s[:, 0] >= 0).all()
    assert (s[:, 1] >= 0).all() and (s[:, 1] < 2 * np.pi).all()
    assert (s[:, 2] >= 0).all() and (s[:, 2] <= np.pi).all()
    back = sph_to_cart(s)
    np.testing.assert_allclose(back, pts, atol=1e-8 * (1.0 + np.abs(pts).max()))


@given(clouds())
def test_cylindrical_round_trip(pts):
    c = cart_to_cyl(pts)
    assert (c[:, 0] >= 0).all()
    assert (c[:, 1] >= 0).all() and (c[:, 1] < 2 * np.pi).all()
    back = cyl_to_cart(c)
    np.testing.assert_allclose(back, pts, atol=1e-8 * (1.0 + np.abs(pts).max()))


def test_radial_coord_by_system():
    p = np.array([[3.0, 4.0, 12.0]])
    assert radial_coord(p, SPHERICAL)[0] == pytest.approx(13.0)
    assert radial_coord(p, CYLINDRICAL)[0] == pytest.approx(5.0)
    assert radial_coord(p, CARTESIAN)[0] == pytest.approx(13.0)


# ---------------------------------------------------------------------------
# step derivation
# ---------------------------------------------------------------------------


def _shell_cloud(rho=10.0, n=64):
    ang = np.linspace(0.1, 2 * np.pi - 0.1, n)
    pts = np.stack([rho * np.cos(ang), rho * np.sin(ang), np.linspace(-1, 1, n)], axis=1)
    return PointCloud(pts)


def test_spherical_steps_values():
    cloud = _shell_cloud()
    rho_max = radial_coord(cloud.points, SPHERICAL).max()
    st_ = derive_steps(SPHERICAL, 0.1, cloud)
    assert st_.bins == math.ceil(rho_max / 0.1)
    assert st_.q_theta == pytest.approx(2 * np.pi / (st_.bins - 1))
    assert st_.q_phi == pytest.approx(np.pi / (st_.bins - 1))
    assert 2**st_.depth >= st_.bins and 2 ** (st_.depth - 1) < st_.bins


def test_spherical_rho_max_override():
    cloud = _shell_cloud()
    st_ = derive_steps(SPHERICAL, 0.1, cloud, rho_max=50.0)
    assert st_.rho_max == 50.0
    assert st_.bins == 500


def test_too_coarse_step_raises():
    with pytest.raises(ConfigError, match="too coarse"):
        derive_steps(SPHERICAL, 20.0, _shell_cloud(rho=10.0))


@pytest.mark.parametrize("rho_max", [math.inf, -math.inf, math.nan])
@pytest.mark.parametrize("system", [SPHERICAL, CYLINDRICAL])
def test_non_finite_rho_max_is_rejected_by_name(system, rho_max):
    with pytest.raises(ConfigError, match="rho_max must be finite"):
        derive_steps(system, 0.5, _shell_cloud(), rho_max=rho_max)


def test_cartesian_steps_cover_bbox():
    # 12.7 m extent at 0.1 m steps → largest index 127 = 2^7 − 1 → depth 7; index 2^k needs k + 1
    for x, depth in ((12.7, 7), (12.8, 8), (25.5, 8), (25.6, 9)):
        pts = np.array([[0.0, 0.0, 0.0], [x, 3.0, -4.0]])
        st_ = derive_steps(CARTESIAN, 0.1, PointCloud(pts))
        assert st_.origin_offset == (0.0, 0.0, -4.0)
        assert st_.depth == depth, x
        np.testing.assert_array_equal(st_.step_vector(), [0.1, 0.1, 0.1])


def test_bounding_box_keeps_the_signs_of_zero_of_the_axis_reductions():
    # per-column mins and maxes pick a different ±0 than the axis-0 reductions on
    # some of these clouds, and the Cartesian origin is written to the header
    rng = np.random.default_rng(17)
    # the encoder's box too, its minima and maxima reduced on two threads;
    # 512 and 3000 rows are reduced 256 side by side, 3000 with 184 rows left over
    for n in (1, 2, 5, 64, 512, 3000):
        for _ in range(40):
            pts = rng.choice([0.0, -0.0, 1.0, 2.0], size=(n, 3)) * rng.choice([1.0, -1.0])
            least = pts.min(axis=0).tobytes()
            for box in (bounding_box, codec._bounding_box):
                lo, hi = box(pts)
                assert lo.tobytes() == least
                assert hi.tobytes() == pts.max(axis=0).tobytes()
                assert np.array(box_steps(0.5, lo, hi).origin_offset).tobytes() == least
            # the header origin of the public rule and of the encoder's front end
            cloud, cfg = PointCloud(pts), codec.CodecConfig(system=CARTESIAN, q=0.5)
            for steps in (derive_steps(CARTESIAN, 0.5, cloud), codec.encode_cloud(cloud, cfg)):
                assert np.array(steps.origin_offset).tobytes() == least
    # an extreme in any row, the first 256 or the rows left over
    for n, row in ((300, 0), (300, 255), (300, 256), (300, 299), (512, 511)):
        pts = rng.uniform(-1.0, 1.0, size=(n, 3))
        pts[row] = (5.0, -5.0, 0.0) if row % 2 else (-5.0, 5.0, 0.0)
        for box in (bounding_box, codec._bounding_box):
            lo, hi = box(pts)
            assert (lo.tobytes(), hi.tobytes()) == (pts.min(axis=0).tobytes(), pts.max(axis=0).tobytes())


def test_cylindrical_depth_covers_z():
    # tall thin cloud: z extent forces more depth than the radial bins need
    pts = np.array([[1.0, 0.0, z] for z in np.linspace(0, 100, 11)])
    st_ = derive_steps(CYLINDRICAL, 0.5, pts_cloud := PointCloud(pts))
    assert st_.bins == 2
    assert 2**st_.depth >= 201
    assert st_.origin_offset == (0.0, 0.0, 0.0)
    qc = quantize(pts_cloud, st_)
    rec = dequantize(qc)
    d = np.abs(rec.points[:, 2][None, :] - pts[:, 2][:, None]).min(axis=1)
    assert d.max() <= 0.25 + 1e-12
    # largest z index 2^k − 1 gives depth k, and 2^k gives k + 1
    for top, depth in ((255, 8), (256, 9), (1023, 10), (1024, 11)):
        pts = np.array([[1.0, 0.0, 0.0], [1.0, 0.0, top * 0.5]])
        assert derive_steps(CYLINDRICAL, 0.5, PointCloud(pts)).depth == depth, top


def test_invalid_inputs():
    cloud = _shell_cloud()
    with pytest.raises(ConfigError):
        derive_steps("polar", 0.1, cloud)
    with pytest.raises(ConfigError):
        derive_steps(SPHERICAL, -1.0, cloud)
    with pytest.raises(ConfigError):
        derive_steps(SPHERICAL, 0.1, PointCloud(np.empty((0, 3))))


# ---------------------------------------------------------------------------
# quantization
# ---------------------------------------------------------------------------


def _brute_quantize(pts, steps):
    """Reference implementation: per-point transform, round, clamp, dedup."""
    from lidarpcc.coords import transform_points

    coords = transform_points(pts, steps)
    idx = np.round(coords / steps.step_vector()[None, :]).astype(np.int64)
    idx = np.clip(idx, 0, (1 << steps.depth) - 1)
    return {tuple(r) for r in idx.tolist()}


@pytest.mark.parametrize("system", [CARTESIAN, CYLINDRICAL, SPHERICAL])
def test_quantize_matches_bruteforce(system):
    rng = np.random.default_rng(7)
    pts = rng.uniform(-40, 40, size=(500, 3))
    cloud = PointCloud(pts)
    steps = derive_steps(system, 0.25, cloud)
    qc = quantize(cloud, steps)
    assert {tuple(r) for r in qc.indices.tolist()} == _brute_quantize(pts, steps)
    # sorted lexicographically, deduplicated
    np.testing.assert_array_equal(qc.indices, np.unique(qc.indices, axis=0))
    assert qc.original_count == len(pts)


def test_quantize_rejects_depth_beyond_index_key():
    cloud = PointCloud(np.array([[1.0, 2.0, 3.0]]))
    with pytest.raises(ConfigError, match="depth 22"):
        quantize(cloud, QuantSteps(CARTESIAN, 1.0, 0.0, 0.0, 1 << 22, 22, 0.0))


def test_quantize_empty_cloud():
    steps = QuantSteps(CARTESIAN, 1.0, 0.0, 0.0, 16, 4, 0.0)
    qc = quantize(PointCloud(np.empty((0, 3))), steps)
    assert qc.indices.shape == (0, 3)
    assert qc.original_count == 0


def test_quantize_merges_duplicates():
    pts = np.array([[1.0, 2.0, 3.0], [1.0, 2.0, 3.0], [1.001, 2.0, 3.0]])
    cloud = PointCloud(pts)
    steps = derive_steps(CARTESIAN, 0.5, cloud)
    assert len(quantize(cloud, steps).indices) == 1


@pytest.mark.parametrize("system", [CARTESIAN, CYLINDRICAL, SPHERICAL])
def test_half_step_error_per_axis(system):
    rng = np.random.default_rng(11)
    pts = rng.uniform(-30, 30, size=(300, 3))
    cloud = PointCloud(pts)
    steps = derive_steps(system, 0.2, cloud)
    rec = reconstruct_points(pts, steps)
    from lidarpcc.coords import transform_points

    err = np.abs(transform_points(rec, steps) - transform_points(pts, steps))
    if system != CARTESIAN:
        err[:, 1] = np.minimum(err[:, 1], 2 * np.pi - err[:, 1])  # θ wraps
    bound = steps.step_vector() / 2
    assert (err <= bound[None, :] + 1e-9).all()


def _bits(a: np.ndarray) -> np.ndarray:
    return np.ascontiguousarray(a).view(np.uint64)


@pytest.mark.parametrize("system", [CARTESIAN, CYLINDRICAL, SPHERICAL])
def test_column_arithmetic_matches_the_broadcast_expressions(system):
    # the lattice code offsets, divides and multiplies one column at a time;
    # each element must see the broadcast form's IEEE operation, zeros' signs included
    from lidarpcc.coords import _lattice_indices, transform_points

    rng = np.random.default_rng(17)
    for trial in range(30):
        pts = rng.normal(size=(400, 3)) * 10.0 ** rng.integers(-3, 4)
        pts[rng.random(pts.shape) < 0.1] = 0.0
        pts[rng.random(pts.shape) < 0.1] = -0.0
        steps = derive_steps(system, float(np.abs(pts).max()) / 100, PointCloud(pts))
        if trial % 2:  # an origin of signed zeros, which the subtraction must keep
            steps = dataclasses.replace(steps, origin_offset=(-0.0, 0.0, -0.0))
        offset, step = steps.offset_vector()[None, :], steps.step_vector()[None, :]
        if system == SPHERICAL:
            coords, back = cart_to_sph(pts) - offset, lambda c: sph_to_cart(c + offset)
        elif system == CYLINDRICAL:
            coords, back = cart_to_cyl(pts) - offset, lambda c: cyl_to_cart(c + offset)
        else:
            coords, back = pts - offset, lambda c: c + offset
        idx = np.clip(np.round(coords / step).astype(np.int64), 0, (1 << steps.depth) - 1)
        np.testing.assert_array_equal(_bits(transform_points(pts, steps)), _bits(coords))
        np.testing.assert_array_equal(_lattice_indices(pts, steps), idx)
        np.testing.assert_array_equal(_bits(reconstruct_points(pts, steps)), _bits(back(idx * step)))
        unique = np.unique(idx, axis=0)
        centres = dequantize(QuantizedCloud(unique, steps, len(pts))).points
        np.testing.assert_array_equal(_bits(centres), _bits(back(unique.astype(np.float64) * step)))


def test_dequantize_centers_are_lattice_points():
    steps = QuantSteps(CARTESIAN, 0.5, 0.0, 0.0, 8, 3, 0.0, (1.0, -2.0, 0.0))
    qc = QuantizedCloud(np.array([[0, 1, 7], [2, 0, 3]]), steps, 2)
    rec = dequantize(qc)
    np.testing.assert_allclose(rec.points[0], [1.0, -1.5, 3.5])
    np.testing.assert_allclose(rec.points[1], [2.0, -2.0, 1.5])


def test_reconstruct_preserves_order_and_pairs():
    rng = np.random.default_rng(3)
    pts = rng.uniform(-20, 20, size=(100, 3))
    steps = derive_steps(SPHERICAL, 0.3, PointCloud(pts))
    rec = reconstruct_points(pts, steps)
    assert rec.shape == pts.shape
    # every reconstructed point is one of the voxel centers of the merged set
    centers = dequantize(quantize(PointCloud(pts), steps)).points
    d = np.linalg.norm(rec[:, None, :] - centers[None, :, :], axis=2).min(axis=1)
    assert d.max() < 1e-9


def test_quantized_cloud_validates_range():
    steps = QuantSteps(CARTESIAN, 1.0, 0.0, 0.0, 4, 2, 0.0)
    with pytest.raises(ValueError):
        QuantizedCloud(np.array([[0, 0, 4]]), steps, 1)
    with pytest.raises(ValueError):
        QuantizedCloud(np.array([[-1, 0, 0]]), steps, 1)


def test_clamping_pulls_outliers_into_cube():
    steps = QuantSteps(CARTESIAN, 1.0, 0.0, 0.0, 4, 2, 0.0)
    cloud = PointCloud(np.array([[9.0, 9.0, 9.0], [1.0, 1.0, 1.0]]))
    qc = quantize(cloud, steps)
    assert qc.indices.max() == 3


def test_indices_past_int64_clip_like_any_other():
    # the ratio is clipped before the cast to int64, which turned 1e20 into INT64_MIN and so index 0
    steps = QuantSteps(CARTESIAN, 1.0, 0.0, 0.0, 16, 4, 0.0)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        qc = quantize(PointCloud(np.array([[1e20, -1e20, 3.0], [2.0, 1e300, -1e300]])), steps)
    assert qc.indices.tolist() == [[2, 15, 0], [15, 0, 3]]
