"""Closed-form error bounds and empirical verification reports."""

import csv
import math
import warnings

import numpy as np
import pytest

from lidarpcc.analysis import (
    SMALL_ANGLE_SLACK,
    PartErrorStats,
    bound_cart,
    bound_part,
    bound_sph,
    combined_bound_sph,
    crossover_radii,
    empirical_error,
    error_colormap_export,
    part_edge_bound,
)
from lidarpcc.codec import CodecConfig, encode_cloud, pipeline_reconstruct
from lidarpcc.coords import CARTESIAN, CYLINDRICAL, SPHERICAL
from lidarpcc.errors import ConfigError
from lidarpcc.octree import MultiLevelConfig
from lidarpcc.pcio import PointCloud, SynthParams, synth_lidar

ONE_PART = MultiLevelConfig(n_parts=1, thresholds=(0.0, 1.0))


def _cloud(n=2000, seed=0, scale=80.0):
    rng = np.random.default_rng(seed)
    return PointCloud(rng.uniform(-scale, scale, size=(n, 3)))


# ---------------------------------------------------------------------------
# closed forms
# ---------------------------------------------------------------------------


def test_bound_cart_value():
    assert bound_cart(0.1) == pytest.approx(math.sqrt(3) * 0.05)


def test_bound_sph_linear_in_radius():
    q, rho_max = 0.2, 100.0
    rho = np.array([0.0, 10.0, 50.0, 100.0])
    expect = math.sqrt(5) * math.pi * q / (2 * rho_max) * rho
    np.testing.assert_allclose(bound_sph(rho, q, rho_max), expect, rtol=1e-12)
    with pytest.raises(ConfigError):
        bound_sph(rho, q, 0.0)


def test_combined_bound_adds_radial_term():
    q, rho_max = 0.2, 100.0
    rho = np.array([0.0, 50.0])
    combo = combined_bound_sph(rho, q, rho_max)
    ang = bound_sph(rho, q, rho_max)
    np.testing.assert_allclose(combo, np.hypot(q / 2, ang), rtol=1e-12)
    assert combo[0] == pytest.approx(q / 2)  # pure radial at the origin


def test_part_bounds_default_thresholds():
    # defaults t = (0, 1/4, 1/2, 1): midpoint bounds sqrt5*pi*q*(t_n+t_{n+1})/2^(n+2)
    q = 1.0
    t = (0.0, 0.25, 0.5, 1.0)
    c = math.sqrt(5) * math.pi
    assert bound_part(q, 0, t) == pytest.approx(c * 0.25 / 4)
    assert bound_part(q, 1, t) == pytest.approx(c * 0.75 / 8)
    assert bound_part(q, 2, t) == pytest.approx(c * 1.5 / 16)
    # numeric values used by the verification harness
    assert bound_part(q, 0, t) == pytest.approx(0.4391, abs=1e-4)
    assert bound_part(q, 1, t) == pytest.approx(0.6586, abs=1e-4)
    assert bound_part(q, 2, t) == pytest.approx(0.6586, abs=1e-4)
    # edge form: sqrt5*pi*q*t_{n+1}/2^(n+1) — identical for every default part
    for n in range(3):
        assert part_edge_bound(q, n, t) == pytest.approx(0.8781, abs=1e-4)


def test_crossover_values():
    rho = crossover_radii([1, 2, 4])
    np.testing.assert_allclose(rho, [0.24656178, 0.49312356, 0.98624711], atol=5e-7)
    base = math.sqrt(3) / (math.sqrt(5) * math.pi)
    np.testing.assert_allclose(rho, [base, 2 * base, 4 * base], rtol=1e-12)
    scaled = crossover_radii([1], rho_max=120.0)
    assert scaled[0] == pytest.approx(base * 120.0)
    for rho_max in (0.0, -1.0, math.nan, math.inf):
        for bound in (lambda: crossover_radii([1], rho_max), lambda: bound_sph(1.0, 0.1, rho_max)):
            with pytest.raises(ConfigError, match=f"^rho_max must be finite and positive, got {rho_max}$"):
                bound()


def test_crossover_is_actual_crossover():
    # below the radius the spherical bound is tighter than cartesian; above, looser
    q, rho_max = 0.1, 1.0
    rho_c = crossover_radii([1], rho_max=rho_max)[0]
    assert bound_sph(rho_c * 0.99, q, rho_max) < bound_cart(q)
    assert bound_sph(rho_c * 1.01, q, rho_max) > bound_cart(q)
    assert bound_sph(rho_c, q, rho_max) == pytest.approx(bound_cart(q), rel=1e-12)


# ---------------------------------------------------------------------------
# empirical reports
# ---------------------------------------------------------------------------


def test_cartesian_report_within_bound():
    cloud = _cloud()
    cfg = CodecConfig(system=CARTESIAN, depth=10, parts=ONE_PART)
    rep = empirical_error(cloud, cfg)
    assert rep.system == CARTESIAN
    assert rep.pairing == "pipeline"
    assert rep.max_error <= rep.bound
    assert 0.0 < rep.utilization <= 1.0
    assert rep.per_part is None
    assert rep.excluded == 0


def test_spherical_single_part_report():
    cloud = _cloud()
    cfg = CodecConfig(system=SPHERICAL, depth=11, parts=ONE_PART, rho_max=160.0)
    rep = empirical_error(cloud, cfg, keep_per_point=True)
    assert rep.per_point is not None and rep.per_point.shape[0] == len(cloud)
    # eligibility: only radii >= 5% of rho_max count towards utilization
    rho = np.linalg.norm(cloud.points, axis=1)
    eligible = rho >= 0.05 * 160.0
    assert rep.excluded == int((~eligible).sum())
    assert rep.max_error == pytest.approx(rep.per_point.max(), rel=1e-12)
    # rated against the exact bound, which a correct lattice meets
    exact = combined_bound_sph(rho, rep.q, 160.0)
    assert rep.bound == exact.max()
    assert rep.utilization == (rep.per_point[eligible] / exact[eligible]).max()
    assert rep.utilization <= SMALL_ANGLE_SLACK


def test_multi_part_report_has_per_part():
    cloud = _cloud()
    cfg = CodecConfig(system=SPHERICAL, depth=11, rho_max=160.0)
    rep = empirical_error(cloud, cfg)
    assert rep.per_part is not None and len(rep.per_part) == 3
    counts = sum(p.count for p in rep.per_part)
    assert counts == len(cloud)
    thresholds = cfg.parts.thresholds
    for p in rep.per_part:
        assert isinstance(p, PartErrorStats)
        # exact bound of part n (step q/2ⁿ, radial half-step kept) at its outer radius
        q_n = rep.q / (1 << p.part)
        edge = combined_bound_sph(thresholds[p.part + 1] * 160.0, q_n, 160.0)
        assert p.max_error <= SMALL_ANGLE_SLACK * edge
        assert p.bound_edge == edge
        assert p.utilization == pytest.approx(p.max_error / p.bound_edge, rel=1e-12)
    assert rep.bound == max(p.bound_edge for p in rep.per_part)
    assert rep.utilization == max(p.utilization for p in rep.per_part)
    assert rep.utilization <= SMALL_ANGLE_SLACK


@pytest.mark.parametrize(
    "run",
    [pipeline_reconstruct, empirical_error],
    ids=["pipeline_reconstruct", "pipeline_pairing"],
)
def test_multi_part_rejects_rho_max_below_cloud_radius(run):
    # the outer ring reaches 400 m, which encode_cloud rejects at ρ_max = 200 m
    cloud = synth_lidar(SynthParams(beams=4, points_per_ring=64))
    cfg = CodecConfig(system=SPHERICAL, q=0.5, rho_max=200.0)
    with pytest.raises(ConfigError, match="rho_max"):
        run(cloud, cfg)


@pytest.mark.parametrize(
    "run",
    [encode_cloud, pipeline_reconstruct, empirical_error],
    ids=["encode_cloud", "pipeline_reconstruct", "pipeline_pairing"],
)
@pytest.mark.parametrize("system", [SPHERICAL, CYLINDRICAL])
def test_one_part_rejects_a_radius_beyond_the_lattice(run, system):
    # ρ_max = 200 m and q = 0.5 give a depth-9 lattice whose last radial bin is
    # 255.5 m; the ring near 400 m decoded there, clipped
    cloud = synth_lidar(SynthParams(beams=4, points_per_ring=64))
    cfg = CodecConfig(system=system, q=0.5, rho_max=200.0, parts=ONE_PART)
    with pytest.raises(ConfigError, match="rho_max=200.0 smaller than cloud max radius"):
        run(cloud, cfg)


@pytest.mark.parametrize(
    "run",
    [encode_cloud, pipeline_reconstruct, empirical_error],
    ids=["encode_cloud", "pipeline_reconstruct", "pipeline_pairing"],
)
@pytest.mark.parametrize("system", [SPHERICAL, CYLINDRICAL])
def test_one_part_rejects_a_radius_whose_index_is_past_int64(run, system):
    # 1e19 m / 0.5 is past int64: cast before the check, its index was INT64_MIN,
    # which passed it, and the point decoded at the origin with only a RuntimeWarning
    cloud = PointCloud(np.vstack([synth_lidar(SynthParams(beams=4, points_per_ring=64, rho_max=150.0)).points,
                                  [[1e19, 0.0, 0.0]]]))
    cfg = CodecConfig(system=system, q=0.5, rho_max=200.0, parts=ONE_PART)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ConfigError, match=r"^rho_max=200.0 smaller than cloud max radius 1e\+19$"):
            run(cloud, cfg)


@pytest.mark.parametrize(
    "run",
    [encode_cloud, pipeline_reconstruct, empirical_error],
    ids=["encode_cloud", "pipeline_reconstruct", "pipeline_pairing"],
)
def test_refuses_an_undecodable_header(run):
    # base depth 20 with 3 parts needs 22 octree levels; the error analysis ran on it
    cloud = synth_lidar(SynthParams(beams=8, points_per_ring=128))
    cfg = CodecConfig(system=SPHERICAL, depth=20, convention="kitti")
    with pytest.raises(ConfigError, match="undecodable header: depth 20 with 3 parts"):
        run(cloud, cfg)


def test_cylindrical_report_has_no_closed_form():
    cloud = _cloud(n=500)
    cfg = CodecConfig(system=CYLINDRICAL, depth=10, parts=ONE_PART, rho_max=160.0)
    rep = empirical_error(cloud, cfg)
    assert rep.bound is None
    assert rep.utilization is None


# ---------------------------------------------------------------------------
# colormap / histogram export
# ---------------------------------------------------------------------------


def test_error_colormap_export(tmp_path):
    rng = np.random.default_rng(1)
    pts = rng.normal(size=(300, 3))
    errs = rng.uniform(0.0, 0.5, size=300)
    ply = tmp_path / "err.ply"
    hist = tmp_path / "err.csv"
    counts, edges = error_colormap_export(pts, errs, ply, hist, bins=10)
    assert counts.sum() == 300
    assert len(edges) == 11
    assert np.all(np.diff(edges) > 0)
    assert ply.exists()
    with open(hist, newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == 10
    assert [r["bin"] for r in rows] == [str(i) for i in range(10)]
    assert sum(int(r["count"]) for r in rows) == 300
    hues = [float(r["hue_deg"]) for r in rows]
    assert hues[0] == pytest.approx(270.0) and hues[-1] == pytest.approx(0.0)

    from lidarpcc.pcio import read_ply

    back = read_ply(ply)
    np.testing.assert_allclose(back.attr, errs, rtol=1e-6)


def test_error_colormap_zero_error(tmp_path):
    pts = np.zeros((5, 3))
    errs = np.zeros(5)
    counts, edges = error_colormap_export(
        pts, errs, tmp_path / "z.ply", tmp_path / "z.csv", bins=4
    )
    assert counts.sum() == 5
    assert edges[0] == edges[-1] == 0.0
