"""The compiled part kernel's loader and its Python-side checks.

Byte-for-byte agreement of the kernel with the Python coder lives in
test_differential.py; these tests cover building, caching and falling back.
"""

import ctypes
import dataclasses
import os
import re
import shutil
import stat

import numpy as np
import pytest

from lidarpcc import kernel
from lidarpcc.codec import CodecConfig, Container, decode_cloud, encode_cloud
from lidarpcc.coords import CARTESIAN, QuantSteps
from lidarpcc.pcio import SynthParams, synth_lidar

needs_cc = pytest.mark.skipif(shutil.which("cc") is None, reason="no C compiler")


@needs_cc
def test_builds_once_into_the_cache_and_declares_every_signature(tmp_path, monkeypatch):
    cache = tmp_path / "cache"
    lib = kernel.open_kernel(cache)
    assert lib is not None
    assert stat.S_IMODE(cache.stat().st_mode) == 0o700
    names = sorted(p.name for p in cache.iterdir())  # the build's temp files are gone
    assert len(names) == 1 and names[0].startswith("part_kernel-") and names[0].endswith(".so")
    for name, argtypes in kernel._SIGNATURES.items():
        fn = getattr(lib, name)
        assert fn.argtypes == argtypes and fn.restype is ctypes.c_int64
    # a second process finds the built file and compiles nothing
    monkeypatch.setattr(kernel, "_compile", lambda *a: pytest.fail("compiled twice"))
    assert kernel.open_kernel(cache) is not None
    assert sorted(p.name for p in cache.iterdir()) == names


@needs_cc
def test_library_someone_else_could_write_is_not_loaded(tmp_path, monkeypatch):
    cache = tmp_path / "cache"
    assert kernel.open_kernel(cache) is not None
    (built,) = cache.glob("*.so")
    monkeypatch.setattr(kernel, "_compile", lambda *a: pytest.fail("rebuilt over a planted file"))
    built.chmod(0o777)  # world-writable file
    assert kernel.open_kernel(cache) is None
    built.chmod(0o700)
    cache.chmod(0o777)  # world-writable directory
    assert kernel.open_kernel(cache) is None
    cache.chmod(0o700)
    uid = os.getuid()
    monkeypatch.setattr(kernel.os, "getuid", lambda: uid + 1)  # files of another user
    assert kernel.open_kernel(cache) is None


@needs_cc
def test_a_build_prunes_stale_libraries_and_a_cache_hit_does_not(tmp_path):
    cache = tmp_path / "cache"
    cache.mkdir(mode=0o700)
    stale, shared, other = (cache / f"part_kernel-{tag}.so" for tag in ("0" * 16, "1" * 16, "2" * 16))
    for planted in (stale, shared):
        planted.write_bytes(b"a library of an older source")
        planted.chmod(0o700)
    shared.chmod(0o777)  # someone else could have written it: not this user's to remove
    notes = cache / "notes.txt"
    notes.write_text("not a library")
    assert kernel.open_kernel(cache) is not None
    (built,) = [p for p in cache.glob("part_kernel-*.so") if p not in (stale, shared)]
    assert not stale.exists() and shared.exists() and notes.exists()
    other.write_bytes(b"a library of another source")
    other.chmod(0o700)
    assert kernel.open_kernel(cache) is not None  # found built: nothing is removed
    assert sorted(cache.iterdir()) == sorted([built, shared, other, notes])


@needs_cc
def test_unusable_cache_dir_means_no_kernel(tmp_path):
    blocked = tmp_path / "file"
    blocked.write_text("a file where a directory should be")
    assert kernel.open_kernel(blocked / "cache") is None


def test_the_kernel_exports_exactly_the_declared_functions():
    # a function the C source defines without static is exported; each must have a ctypes signature, and each
    # signature a function, so an entry merged into another is not left exported
    definitions = re.findall(r"^(static )?[A-Za-z_][\w ]*?[\s*](\w+)\([^;{]*\)\s*\{", kernel.SOURCE.read_text(), re.M)
    assert "octree_symbols" in {name for static, name in definitions if static}
    assert sorted(name for static, name in definitions if not static) == sorted(kernel._SIGNATURES)


def test_no_compiler_means_no_kernel(tmp_path, monkeypatch):
    monkeypatch.setattr(kernel.shutil, "which", lambda name: None)
    assert kernel.open_kernel(tmp_path) is None


def test_missing_source_or_home_means_no_kernel(tmp_path, monkeypatch):
    monkeypatch.setattr(kernel, "SOURCE", tmp_path / "gone.c")
    assert kernel.open_kernel(tmp_path / "cache") is None

    def no_home():
        raise RuntimeError("Could not determine home directory.")

    monkeypatch.setattr(kernel, "cache_dir", no_home)
    assert kernel.open_kernel() is None


@needs_cc
def test_failed_build_means_no_kernel(tmp_path, monkeypatch):
    source = tmp_path / "broken.c"
    source.write_text("this is not C\n")
    monkeypatch.setattr(kernel, "SOURCE", source)
    assert kernel.open_kernel(tmp_path / "cache") is None
    assert not list((tmp_path / "cache").iterdir())


def test_fallback_writes_and_reads_the_same_bytes(monkeypatch):
    cloud = synth_lidar(SynthParams(beams=8, points_per_ring=128, seed=2))
    cfg = CodecConfig(system="spherical", depth=11, convention="kitti")
    blob = encode_cloud(cloud, cfg).to_bytes()
    points = decode_cloud(Container.from_bytes(blob)).points
    monkeypatch.setattr(kernel, "load", lambda: None)
    assert kernel.coder_name() == "python"
    assert encode_cloud(cloud, cfg).to_bytes() == blob
    np.testing.assert_array_equal(decode_cloud(Container.from_bytes(blob)).points, points)


def test_octree_symbols_rejects_what_are_not_leaf_codes(monkeypatch):
    for python_coder in (False, True):  # the kernel first, when it loads
        if python_coder:
            monkeypatch.setattr(kernel, "load", lambda: None)
        with pytest.raises(TypeError, match="^leaf codes must be int64, not int32$"):
            kernel.encode_part(np.array([1, 2], dtype=np.int32), 1)
        for depth in (0, 21):
            with pytest.raises(ValueError, match=rf"^octree depth {depth} outside \[1, 20\]$"):
                kernel.encode_part(np.array([0]), depth)
        for codes, depth in (([], 1), ([2, 1], 1), ([1, 1], 1), ([-1, 3], 1), ([0, 8], 1), ([7, 64], 2)):
            message = rf"^{len(codes)} leaf codes are not a non-empty, sorted, unique set below 8\^{depth}$"
            with pytest.raises(ValueError, match=message):
                kernel.encode_part(np.array(codes, dtype=np.int64), depth)


def test_point_entries_reject_what_is_not_a_row_of_three(monkeypatch):
    # the kernel reads three doubles a row, so a narrower array is refused before any pointer is passed
    steps = QuantSteps(CARTESIAN, 1.0, 0.0, 0.0, 16, 4, 0.0)
    for python_coder in (False, True):  # the kernel first, when it loads
        if python_coder:
            monkeypatch.setattr(kernel, "load", lambda: None)
        for shape in ((4, 2), (4,), (2, 4)):
            message = "^" + re.escape(f"points must be (N, 3), got {shape}") + "$"
            with pytest.raises(ValueError, match=message):
                kernel.lattice_codes(np.zeros(shape), steps)
        for depth in (0, 21):
            with pytest.raises(ValueError, match=rf"^octree depth {depth} outside \[1, 20\]$"):
                kernel.lattice_codes(np.zeros((1, 3)), dataclasses.replace(steps, depth=depth))


def test_lattice_codes_take_integer_steps_as_doubles():
    # a QuantSteps may hold an int q; the kernel reads its steps as float64 all the same
    points = np.array([[3.4, -2.0, 7.6], [15.2, 0.5, 1e20]])
    steps = QuantSteps(CARTESIAN, 1, 0, 0, 16, 4, 0, (0, -2, 0))
    expected = kernel.lattice_codes(points, dataclasses.replace(steps, q_primary=1.0))
    assert kernel.lattice_codes(points, steps).tolist() == expected.tolist()
