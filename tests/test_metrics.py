"""Quality metrics against brute-force and closed-form oracles."""

import math
import threading
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.spatial import cKDTree

from lidarpcc import kernel, metrics
from lidarpcc.errors import MetricError
from lidarpcc.metrics import (
    MEAN_L2,
    MEAN_SQUARED,
    R_SQUARED,
    THREE_R_SQUARED,
    MetricConfig,
    MetricReport,
    RDCurve,
    bd_rate,
    chamfer,
    compute_report,
    d1_psnr,
    d2_details,
    d2_psnr,
    estimate_normals,
    nn_distances,
)


def _brute_nn(query, ref):
    d = np.linalg.norm(query[:, None, :] - ref[None, :, :], axis=2)
    return d.min(axis=1), d.argmin(axis=1)


def test_nn_matches_bruteforce_exactly():
    rng = np.random.default_rng(0)
    a = rng.uniform(-10, 10, size=(2000, 3))
    b = rng.uniform(-10, 10, size=(1500, 3))
    d_tree, _ = nn_distances(a, b)
    d_brute, _ = _brute_nn(a, b)
    np.testing.assert_array_equal(d_tree, d_brute)


def test_d1_identical_clouds_is_infinite():
    pts = np.random.default_rng(1).normal(size=(500, 3))
    cfg = MetricConfig()
    assert d1_psnr(pts, pts, cfg) == math.inf
    assert d2_psnr(pts, pts.copy(), cfg) == math.inf
    assert chamfer(pts, pts, cfg) == 0.0


def test_d1_known_value():
    # two points, reconstruction shifted by 0.3 on one axis → MSE = 0.09
    ref = np.array([[0.0, 0.0, 0.0], [10.0, 0.0, 0.0]])
    rec = np.array([[0.3, 0.0, 0.0], [10.0, 0.0, 0.0]])
    cfg = MetricConfig(peak=59.70)
    mse = 0.5 * (0.3**2)  # one of two points displaced, symmetric
    expect = 10 * math.log10(59.70**2 / mse)
    assert d1_psnr(ref, rec, cfg) == pytest.approx(expect)


def test_d1_uses_worse_direction():
    # rec has an extra far point: rec→ref direction dominates
    ref = np.array([[0.0, 0.0, 0.0], [1.0, 0.0, 0.0]])
    rec = np.array([[0.0, 0.0, 0.0], [1.0, 0.0, 0.0], [5.0, 0.0, 0.0]])
    cfg = MetricConfig(peak=1.0)
    mse_rec_to_ref = (0 + 0 + 16.0) / 3
    assert d1_psnr(ref, rec, cfg) == pytest.approx(10 * math.log10(1.0 / mse_rec_to_ref))


def test_three_r_squared_convention_adds_constant():
    rng = np.random.default_rng(2)
    ref = rng.normal(size=(300, 3))
    rec = ref + rng.normal(scale=0.01, size=(300, 3))
    base = d1_psnr(ref, rec, MetricConfig(peak=2.0))
    tripled = d1_psnr(ref, rec, MetricConfig(peak=2.0, psnr_convention="three_r_squared"))
    assert tripled - base == pytest.approx(10 * math.log10(3.0))


def test_chamfer_hand_case():
    a = np.array([[0.0, 0.0, 0.0], [2.0, 0.0, 0.0]])
    b = np.array([[1.0, 0.0, 0.0]])
    cfg = MetricConfig()
    # a→b: (1+1)/2 = 1 ;  b→a: 1
    assert chamfer(a, b, cfg) == pytest.approx(1.0)
    sq = chamfer(a, b, MetricConfig(cd_convention="mean_squared"))
    assert sq == pytest.approx(1.0)  # (1+1)/2 = 1 and 1


def test_normals_on_plane():
    rng = np.random.default_rng(3)
    pts = np.zeros((400, 3))
    pts[:, :2] = rng.uniform(-5, 5, size=(400, 2))
    normals, degenerate = estimate_normals(pts, 12)
    assert not degenerate.any()
    np.testing.assert_allclose(np.abs(normals[:, 2]), 1.0, atol=1e-9)


def test_degenerate_normals_flagged_on_line():
    pts = np.zeros((50, 3))
    pts[:, 0] = np.arange(50.0)
    normals, degenerate = estimate_normals(pts, 8)
    assert degenerate.all()


def test_d2_ignores_in_plane_displacement():
    # reconstruction slid along the surface: D2 sees ~nothing, D1 sees it all
    rng = np.random.default_rng(4)
    ref = np.zeros((600, 3))
    ref[:, :2] = rng.uniform(-10, 10, size=(600, 2))
    rec = ref.copy()
    rec[:, 0] += 0.05  # tangential slide
    cfg = MetricConfig(peak=10.0)
    detail = d2_details(ref, rec, cfg)
    assert detail.degenerate_normals == 0
    assert d2_psnr(ref, rec, cfg) > d1_psnr(ref, rec, cfg) + 30.0


def test_d2_sees_normal_displacement():
    rng = np.random.default_rng(5)
    ref = np.zeros((600, 3))
    ref[:, :2] = rng.uniform(-10, 10, size=(600, 2))
    rec = ref.copy()
    rec[:, 2] += 0.05  # along the normal
    cfg = MetricConfig(peak=10.0)
    expect = 10 * math.log10(10.0**2 / 0.05**2)
    assert d2_psnr(ref, rec, cfg) == pytest.approx(expect, abs=0.5)


def test_metric_config_validation():
    with pytest.raises(MetricError):
        MetricConfig(peak=0.0)
    with pytest.raises(MetricError):
        MetricConfig(knn_k=2)
    with pytest.raises(MetricError):
        MetricConfig(psnr_convention="nope")
    with pytest.raises(MetricError):
        MetricConfig(cd_convention="nope")


@pytest.mark.parametrize("peak", [0.0, -1.0, math.nan, math.inf, -math.inf])
def test_metric_config_refuses_a_peak_not_finite_and_positive(peak):
    # a nan peak gave nan PSNRs, and an infinite one an infinite PSNR for a lossy cloud
    with pytest.raises(MetricError, match=f"^peak must be finite and positive, got {peak}$"):
        MetricConfig(peak=peak)


@pytest.mark.parametrize("rate", [0.0, -1.0, math.nan, math.inf])
def test_rates_must_be_finite_and_positive(rate):
    # compute_report echoed any rate, and a curve's nan rate passed `r <= 0` and made BD-Rate nan
    ref = np.random.default_rng(6).normal(size=(20, 3))
    with pytest.raises(MetricError, match=f"^rate_bpp must be finite and positive, got {rate}$"):
        compute_report(ref, ref + 0.001, MetricConfig(), rate_bpp=rate)
    with pytest.raises(MetricError, match=f"^RD rate must be finite and positive, got {rate}$"):
        RDCurve(((1.0, 40.0), (rate, 41.0)))


def test_compute_report_carries_rate():
    rng = np.random.default_rng(6)
    ref = rng.normal(size=(100, 3))
    rep = compute_report(ref, ref + 0.001, MetricConfig(), rate_bpp=12.5)
    assert rep.rate_bpp == 12.5
    assert rep.d1_db > 0 and math.isfinite(rep.cd)


@st.composite
def _report_cases(draw):
    k = draw(st.integers(3, 12))
    n_ref = draw(st.one_of(st.just(k), st.integers(k, 80)))
    n_rec = draw(st.integers(1, 80))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    # a coarse grid makes duplicate points and tied distances common
    grid = draw(st.sampled_from([2, 3, 10**6]))
    ref = rng.integers(0, grid, size=(n_ref, 3)) * 0.25
    rec = rng.integers(0, grid, size=(n_rec, 3)) * 0.25 + draw(st.sampled_from([0.0, 0.01]))
    shared = draw(st.integers(0, min(n_ref, n_rec)))
    rec[:shared] = ref[:shared]  # some reconstructed points sit exactly on ref points
    cfg = MetricConfig(
        peak=draw(st.sampled_from([1.0, 59.70])),
        psnr_convention=draw(st.sampled_from([R_SQUARED, THREE_R_SQUARED])),
        knn_k=k,
        cd_convention=draw(st.sampled_from([MEAN_L2, MEAN_SQUARED])),
    )
    return ref, rec, cfg


@settings(max_examples=80, deadline=None)
@given(_report_cases())
def test_compute_report_equals_the_separate_metrics(case):
    # 2 rows a block is below every k and n drawn: several blocks on both
    # threads, a short last block whenever n is odd, and a block shorter than k
    ref, rec, cfg = case
    one_shot = metrics._fit_normals(ref, metrics._neighbours(cKDTree(ref), ref, cfg.knn_k))
    for block_rows in (metrics._BLOCK_ROWS, 2):
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(metrics, "_BLOCK_ROWS", block_rows)
            detail = d2_details(ref, rec, cfg)
            expect = MetricReport(
                d1_psnr(ref, rec, cfg), detail.db, chamfer(ref, rec, cfg), 3.5, detail.degenerate_normals, cfg
            )
            assert compute_report(ref, rec, cfg, rate_bpp=3.5) == expect
            normals, degenerate = estimate_normals(ref, cfg.knn_k)
        np.testing.assert_array_equal(normals, one_shot[0])
        np.testing.assert_array_equal(degenerate, one_shot[1])
    # the numpy covariances, which the Python coder runs, give the kernel's normals bit for bit
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(kernel, "load", lambda: None)
        numpy_normals, numpy_degenerate = estimate_normals(ref, cfg.knn_k)
    assert numpy_normals.tobytes() == one_shot[0].tobytes()
    assert numpy_degenerate.tobytes() == one_shot[1].tobytes()
    assert not [t.name for t in threading.enumerate() if t.name.startswith("lidarpcc-")]


def test_compute_report_never_holds_every_neighbourhood():
    # the one-shot fit held the (N, k, 3) gather of every reference row at once
    rng = np.random.default_rng(10)
    ref = rng.uniform(-50, 50, size=(200_000, 3))
    rec = ref + rng.normal(scale=0.01, size=ref.shape)
    cfg = MetricConfig()
    tracemalloc.start()
    try:
        compute_report(ref, rec, cfg)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < len(ref) * cfg.knn_k * 3 * 8, peak


def test_compute_report_builds_two_trees(monkeypatch):
    rng = np.random.default_rng(9)
    ref, rec = rng.normal(size=(300, 3)), rng.normal(size=(200, 3))
    built = []
    real = metrics.cKDTree

    def counting(data, *args, **kwargs):
        built.append(len(data))
        return real(data, *args, **kwargs)

    monkeypatch.setattr(metrics, "cKDTree", counting)
    compute_report(ref, rec)
    assert built == [len(ref), len(rec)]


# ---------------------------------------------------------------------------
# BD-rate
# ---------------------------------------------------------------------------


def _curve(rng, n=5):
    dist = np.sort(rng.uniform(30, 60, n))
    rate = np.exp(dist / 10.0) * 0.01
    return RDCurve(tuple(zip(rate, dist)))


def test_bd_rate_self_is_zero():
    curve = _curve(np.random.default_rng(7))
    assert bd_rate(curve, curve) == pytest.approx(0.0, abs=1e-9)


def test_bd_rate_doubled_rate_is_plus_100():
    curve = _curve(np.random.default_rng(8))
    doubled = RDCurve(tuple((2 * r, d) for r, d in curve.points))
    assert bd_rate(curve, doubled) == pytest.approx(100.0, rel=0.005)
    assert bd_rate(doubled, curve) == pytest.approx(-50.0, rel=0.005)


def test_bd_rate_requires_four_finite_points():
    rng = np.random.default_rng(9)
    short = RDCurve(((1.0, 40.0), (2.0, 45.0), (4.0, 50.0)))
    with pytest.raises(MetricError, match="4"):
        bd_rate(short, short)
    # +∞ distortion points (zero-MSE) are excluded before the count
    padded = RDCurve(tuple(short.points) + ((8.0, math.inf),))
    with pytest.raises(MetricError, match="4"):
        bd_rate(padded, padded)
    ok = _curve(rng)
    with_inf = RDCurve(tuple(ok.points) + ((100.0, math.inf),))
    assert bd_rate(ok, with_inf) == pytest.approx(0.0, abs=1e-6)


def test_bd_rate_disjoint_ranges_raise():
    lo = RDCurve(((1.0, 10.0), (2.0, 12.0), (3.0, 14.0), (4.0, 16.0)))
    hi = RDCurve(((1.0, 40.0), (2.0, 42.0), (3.0, 44.0), (4.0, 46.0)))
    with pytest.raises(MetricError, match="disjoint"):
        bd_rate(lo, hi)


def test_rd_curve_rejects_nonpositive_rate():
    with pytest.raises(MetricError):
        RDCurve(((0.0, 40.0), (1.0, 41.0)))
