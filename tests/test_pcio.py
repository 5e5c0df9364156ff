"""File I/O and the synthetic LiDAR generator."""

import math

import numpy as np
import pytest

from lidarpcc.errors import ConfigError, FormatError
from lidarpcc.pcio import (
    PointCloud,
    SynthParams,
    read_kitti_bin,
    read_ply,
    synth_lidar,
    write_kitti_bin,
    write_ply,
)


def _cloud(n=50, seed=0, attr=True):
    rng = np.random.default_rng(seed)
    pts = rng.uniform(-100, 100, size=(n, 3))
    a = rng.uniform(0, 1, size=n) if attr else None
    return PointCloud(pts, a)


# ---------------------------------------------------------------------------
# PointCloud container
# ---------------------------------------------------------------------------


def test_pointcloud_validation():
    with pytest.raises(ValueError, match=r"\(N, 3\)"):
        PointCloud(np.zeros((4, 2)))
    with pytest.raises(ValueError, match="non-finite"):
        PointCloud(np.array([[0.0, np.nan, 0.0]]))
    with pytest.raises(ValueError, match="attr length"):
        PointCloud(np.zeros((3, 3)), np.zeros(2))


def test_pointcloud_is_immutable():
    cloud = _cloud()
    with pytest.raises(ValueError):
        cloud.points[0, 0] = 1.0
    with pytest.raises(ValueError):
        cloud.attr[0] = 1.0


# ---------------------------------------------------------------------------
# KITTI .bin
# ---------------------------------------------------------------------------


def test_kitti_roundtrip(tmp_path):
    cloud = _cloud()
    path = tmp_path / "scan.bin"
    write_kitti_bin(cloud, path)
    back = read_kitti_bin(path)
    # storage is float32: compare after the same narrowing
    np.testing.assert_array_equal(back.points, cloud.points.astype(np.float32))
    np.testing.assert_array_equal(back.attr, cloud.attr.astype(np.float32))
    assert path.stat().st_size == 16 * len(cloud)


def test_kitti_missing_attr_stored_as_zeros(tmp_path):
    cloud = _cloud(attr=False)
    path = tmp_path / "scan.bin"
    write_kitti_bin(cloud, path)
    back = read_kitti_bin(path)
    assert np.all(back.attr == 0.0)


def test_kitti_truncated_reports_offset(tmp_path):
    path = tmp_path / "bad.bin"
    path.write_bytes(b"\x00" * 37)  # 2 full records + 5 stray bytes
    with pytest.raises(FormatError, match="byte offset 32"):
        read_kitti_bin(path)


def test_kitti_nonfinite_reports_record(tmp_path):
    rec = np.zeros((4, 4), dtype="<f4")
    rec[2, 1] = np.inf
    path = tmp_path / "nan.bin"
    path.write_bytes(rec.tobytes())
    with pytest.raises(FormatError, match="record 2"):
        read_kitti_bin(path)


# ---------------------------------------------------------------------------
# PLY
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("fmt", ["binary", "ascii"])
def test_ply_roundtrip(tmp_path, fmt):
    cloud = _cloud()
    path = tmp_path / f"c_{fmt}.ply"
    write_ply(cloud, path, fmt=fmt)
    back = read_ply(path)
    if fmt == "binary":
        np.testing.assert_array_equal(back.points, cloud.points)
        np.testing.assert_array_equal(back.attr, cloud.attr)
    else:
        np.testing.assert_allclose(back.points, cloud.points, rtol=1e-8)
        np.testing.assert_allclose(back.attr, cloud.attr, rtol=1e-8)
    assert back.attr_name == cloud.attr_name


def test_ply_positions_only(tmp_path):
    cloud = _cloud(attr=False)
    path = tmp_path / "noattr.ply"
    write_ply(cloud, path)
    back = read_ply(path)
    assert back.attr is None
    np.testing.assert_array_equal(back.points, cloud.points)


def test_ply_empty_cloud(tmp_path):
    cloud = PointCloud(np.zeros((0, 3)))
    path = tmp_path / "empty.ply"
    write_ply(cloud, path)
    assert len(read_ply(path)) == 0


def test_ply_preserves_attr_name(tmp_path):
    cloud = PointCloud(np.zeros((3, 3)), np.arange(3.0), attr_name="ring")
    path = tmp_path / "ring.ply"
    write_ply(cloud, path)
    assert read_ply(path).attr_name == "ring"


def test_ply_reads_float32_vertices(tmp_path):
    # header written by other tools: float (not double) properties, uchar attr
    pts = np.array([[1.5, -2.25, 3.0], [0.0, 4.0, -1.0]], dtype="<f4")
    inten = np.array([7, 250], dtype="u1")
    header = (
        "ply\nformat binary_little_endian 1.0\n"
        "element vertex 2\n"
        "property float x\nproperty float y\nproperty float z\n"
        "property uchar intensity\nend_header\n"
    )
    body = b"".join(
        pts[i].tobytes() + inten[i].tobytes() for i in range(2)
    )
    path = tmp_path / "f32.ply"
    path.write_bytes(header.encode() + body)
    back = read_ply(path)
    np.testing.assert_array_equal(back.points, pts.astype(np.float64))
    np.testing.assert_array_equal(back.attr, [7.0, 250.0])


def test_ply_skips_non_vertex_elements(tmp_path):
    header = (
        "ply\nformat ascii 1.0\n"
        "element face 2\nproperty float area\n"
        "element vertex 1\n"
        "property double x\nproperty double y\nproperty double z\n"
        "end_header\n"
    )
    path = tmp_path / "face.ply"
    path.write_text(header + "1.0\n2.0\n0.5 0.25 0.125\n")
    with pytest.warns(UserWarning, match="face"):
        back = read_ply(path)
    np.testing.assert_array_equal(back.points, [[0.5, 0.25, 0.125]])


def test_ply_error_cases(tmp_path):
    bad_magic = tmp_path / "a.ply"
    bad_magic.write_bytes(b"plx\n")
    with pytest.raises(FormatError, match="magic"):
        read_ply(bad_magic)

    big_endian = tmp_path / "b.ply"
    big_endian.write_text("ply\nformat binary_big_endian 1.0\nend_header\n")
    with pytest.raises(FormatError, match="unsupported PLY format"):
        read_ply(big_endian)

    no_vertex = tmp_path / "c.ply"
    no_vertex.write_text("ply\nformat ascii 1.0\nend_header\n")
    with pytest.raises(FormatError, match="no vertex element"):
        read_ply(no_vertex)

    missing_axis = tmp_path / "d.ply"
    missing_axis.write_text(
        "ply\nformat ascii 1.0\nelement vertex 1\n"
        "property double x\nproperty double y\nend_header\n1 2\n"
    )
    with pytest.raises(FormatError, match="'z'"):
        read_ply(missing_axis)

    truncated = tmp_path / "e.ply"
    truncated.write_text(
        "ply\nformat ascii 1.0\nelement vertex 2\n"
        "property double x\nproperty double y\nproperty double z\n"
        "end_header\n1 2 3\n"
    )
    with pytest.raises(FormatError, match="truncated at row 1"):
        read_ply(truncated)

    short_bin = tmp_path / "f.ply"
    short_bin.write_bytes(
        b"ply\nformat binary_little_endian 1.0\nelement vertex 2\n"
        b"property double x\nproperty double y\nproperty double z\n"
        b"end_header\n" + b"\x00" * 24
    )
    with pytest.raises(FormatError, match="truncated"):
        read_ply(short_bin)

    int_axis = tmp_path / "g.ply"
    int_axis.write_text(
        "ply\nformat ascii 1.0\nelement vertex 1\n"
        "property int x\nproperty double y\nproperty double z\nend_header\n1 2 3\n"
    )
    with pytest.raises(FormatError, match="must be float or double"):
        read_ply(int_axis)


def test_write_ply_rejects_unknown_format(tmp_path):
    with pytest.raises(ValueError, match="unknown PLY format"):
        write_ply(_cloud(), tmp_path / "x.ply", fmt="utf8")


# ---------------------------------------------------------------------------
# synthetic LiDAR
# ---------------------------------------------------------------------------


def test_synth_shape_and_determinism():
    params = SynthParams(beams=8, points_per_ring=90, seed=11)
    a = synth_lidar(params)
    b = synth_lidar(params)
    assert len(a) == 8 * 90
    np.testing.assert_array_equal(a.points, b.points)
    assert a.attr_name == "ring"
    np.testing.assert_array_equal(np.unique(a.attr), np.arange(8.0))


def test_synth_range_envelope():
    params = SynthParams(beams=16, points_per_ring=300, rho_max=120.0, range_min=3.0)
    cloud = synth_lidar(params)
    rho = np.linalg.norm(cloud.points, axis=1)
    assert rho.max() <= 120.0 + 1e-9
    assert rho.min() >= 3.0 - 1e-9
    # profile normalization guarantees each beam touches both extremes
    assert rho.max() == pytest.approx(120.0, rel=1e-12)


def test_synth_fixed_range_is_spherical_shell():
    cloud = synth_lidar(SynthParams(beams=4, points_per_ring=64, fixed_range=55.0))
    rho = np.linalg.norm(cloud.points, axis=1)
    np.testing.assert_allclose(rho, 55.0, rtol=1e-12)


def test_synth_elevation_band():
    params = SynthParams(beams=32, points_per_ring=60, elevation_deg=(-25.0, 3.0))
    cloud = synth_lidar(params)
    rho = np.linalg.norm(cloud.points, axis=1)
    elev = np.rad2deg(np.arcsin(cloud.points[:, 2] / rho))
    assert elev.min() == pytest.approx(-25.0, abs=1e-6)
    assert elev.max() == pytest.approx(3.0, abs=1e-6)


def test_synth_dropout_and_noise():
    drop = synth_lidar(SynthParams(beams=8, points_per_ring=500, dropout=0.5, seed=3))
    assert 1400 < len(drop) < 2600  # ~Binomial(4000, 0.5)
    noisy = synth_lidar(
        SynthParams(beams=8, points_per_ring=500, noise_sigma=0.2, rho_max=100.0, seed=3)
    )
    rho = np.linalg.norm(noisy.points, axis=1)
    assert rho.max() <= 100.0 + 3 * 0.2 + 1e-9


def test_synth_validation():
    with pytest.raises(ValueError):
        synth_lidar(SynthParams(beams=0))
    with pytest.raises(ValueError):
        synth_lidar(SynthParams(dropout=1.0))
    with pytest.raises(ValueError):
        synth_lidar(SynthParams(rho_max=-1.0))
    for bad in (dict(rho_max=math.nan), dict(noise_sigma=-0.1), dict(fixed_range=0.0),
                dict(fixed_range=-5.0), dict(fixed_range=math.inf)):
        with pytest.raises(ConfigError):
            synth_lidar(SynthParams(**bad))
