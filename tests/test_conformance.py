"""Conformance vectors: fixed inputs, and the SHA-256 of their container and of its decoded points.

Each case encodes a committed or integer-built cloud with a fixed config and
decodes the container again, on the Python coder and, whenever it loads, on
the compiled kernel. Both must give the pinned bytes. The inputs do not come
from ``synth_lidar`` and no trig runs to build them: the point files under
``data/conformance`` are float64 ``.npy`` arrays, and the other clouds are
integer arithmetic.

- ``sweep8x128.npy``: 1,024 returns of a noisy 8-beam sweep.
- ``ties64x1800.npy``: 276 returns of a 64-beam, 1,800-azimuth sweep whose
  azimuths are multiples of 2π/1800. With ``rho_max`` as the full sweep
  measured it, their angles lie within a few ulp of a half-step tie, so the
  last bit of numpy's ``arctan2``/``arccos`` decides their index. The file
  also holds the sweep's lowest return, which fixes the cylindrical z origin.

The angle systems' bytes follow numpy's trig (FORMAT.md, *Determinism*). On a
host whose numpy computes other last bits, the ``near-ties`` cases fail: that
is what they are for. With numpy 2.4's AVX-512 paths switched off on x86-64
(``NPY_DISABLE_CPU_FEATURES``), both of them change and no other case does. ``encode_cloud`` cannot reach a clamped Cartesian index,
since ``derive_steps`` sizes the lattice to hold every point, so no case has
one.
"""

import hashlib
from pathlib import Path

import numpy as np
import pytest

from lidarpcc import kernel
from lidarpcc.codec import CodecConfig, Container, decode_cloud, encode_cloud
from lidarpcc.octree import MultiLevelConfig, _interleave, _levels
from lidarpcc.pcio import PointCloud

DATA = Path(__file__).parent / "data" / "conformance"
ONE_PART = MultiLevelConfig(1, (0.0, 1.0))


def _file(name: str):
    return lambda: np.load(DATA / name)


def _empty_middle() -> np.ndarray:
    """A cube of integer points near the origin and a block 60–69 m out: the middle of 3 parts gets none."""
    inner = np.stack(np.meshgrid(*[np.arange(-5, 6)] * 3, indexing="ij"), axis=-1).reshape(-1, 3)
    outer = np.stack(np.meshgrid(np.arange(60, 70), np.arange(-4, 5), np.arange(-2, 3), indexing="ij"),
                     axis=-1).reshape(-1, 3)
    return np.concatenate([inner, outer]).astype(np.float64)


def _halving_chains() -> np.ndarray:
    """16,384 leaves at the ends of single-child chains through levels 15..20 of a depth-20 Cartesian tree.

    Levels 16..20 of the chains share one context, (parent 128, octant 8,
    level 16), whose 81,919 symbols (5 × 16,384 less the one level-15 node that
    also holds the point at 0) pass the 65,026 that halve its counts.
    The chains take the last octant, so its symbol 128 sits above 127 others in
    the cumulative table. The points at 0 and 2^19 on x fix the origin and the depth.
    """
    a, b, c = np.meshgrid(np.arange(16), np.arange(32), np.arange(32), indexing="ij")
    chains = np.stack([a.ravel(), b.ravel(), c.ravel()], axis=1) << 6 | 63
    return np.concatenate([chains, [[0, 0, 0], [1 << 19, 0, 0]]]).astype(np.float64)


# name: (points, config, container SHA-256, decoded-points SHA-256)
CASES = {
    "cartesian": (
        _file("sweep8x128.npy"), CodecConfig(system="cartesian", depth=12, parts=ONE_PART),
        "e91d4c3d966eefc29fae7373953dca53fbed2e38af538b3f884ccdefa3f8bda7",
        "b1eb57f693540fccbcd45ae80237cb9bcf5865a02f411a2123d901d4e69feb41",
    ),
    "cylindrical-3-parts": (
        _file("sweep8x128.npy"), CodecConfig(system="cylindrical", q=0.3),
        "6bf7ea35ffbe4da36a11ac8e7026b82e1df1cb8e2410442431fb55d7cd49642d",
        "065e008b3704cd99c39352173853f7a49f014459f61bf7ae1670c3b7fe93f5cf",
    ),
    "spherical-3-parts": (
        _file("sweep8x128.npy"), CodecConfig(system="spherical", depth=12, convention="kitti"),
        "0c191719cbc949598862e969d9e48b6041e886a61b0137ca508f68abc6527a8a",
        "87aa9707d494ac2015e4f49b0814d5aa5ce9b561f3c5367348261a90e8a424b3",
    ),
    "empty-middle-part": (
        _empty_middle, CodecConfig(system="spherical", q=0.25, rho_max=100.0),
        "87f413fc0936954af5136f15849238bd76551e50816259bb9edccd0c8c339a7c",
        "adedf4bfe60e3dbadce9abe50ada444c33977a8efb6dad05b2509b01bfe98e77",
    ),
    "levels-past-the-cap": (  # parts 1 and 2 have depths 16 and 17
        _file("sweep8x128.npy"), CodecConfig(system="spherical", depth=15, convention="kitti"),
        "9cc65970fff28f5d724d25b79c973219cc4760489de49ce30212a3aa1f688f48",
        "489973a6d1d3482648df7465491e441a918b7b26faa8dca6d3e604cfb111430f",
    ),
    "near-ties-spherical": (
        _file("ties64x1800.npy"),
        CodecConfig(system="spherical", depth=12, convention="kitti", rho_max=400.00000000000006),
        "60c8d5e1f8105478dba1817fb9168ff6b5b3eb75daceb54db2db73d24c43f89b",
        "7e17b93ef068e21aecdf07828ff835f0c7371ccba08364749b405939420a8181",
    ),
    "near-ties-cylindrical": (
        _file("ties64x1800.npy"),
        CodecConfig(system="cylindrical", depth=12, convention="kitti", rho_max=399.9992478584585),
        "91f28f5986de3b867e0db93a52ae7586f39bce386eb1181dff548e84fc734b63",
        "3e84a17669646a7867cc5365d16dfc74476c7c4ccc911b8897a5cfd252c428b1",
    ),
    "counts-halve": (
        _halving_chains, CodecConfig(system="cartesian", q=1.0, parts=ONE_PART),
        "0769f092d98e86fe83d5466bbb4b6db8bff8c09c330eb170c68bc97842dc32bd",
        "3e2c2b485231e68f31f3b25926f7e2ae7aace3fe1330d03349db276b7e8c2679",
    ),
}


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _coders():
    """The coders to check: the Python coder, and the kernel when it loads."""
    coders = ["python"]
    if kernel.load() is not None:
        coders.append("c")
    return coders


@pytest.mark.parametrize("name", CASES)
def test_conformance_vector(name, monkeypatch):
    points, cfg, container_sha, points_sha = CASES[name]
    cloud = PointCloud(points())
    for coder in _coders():
        with monkeypatch.context() as mp:
            if coder == "python":
                mp.setattr(kernel, "load", lambda: None)
            blob = encode_cloud(cloud, cfg).to_bytes()
            decoded = decode_cloud(Container.from_bytes(blob)).points
        assert (coder, _sha(blob)) == (coder, container_sha)
        assert (coder, _sha(np.ascontiguousarray(decoded, dtype="<f8").tobytes())) == (coder, points_sha)


def test_empty_middle_and_halving_cases_have_their_shape():
    # the cases test what they are named for: an empty middle part, and a context past 65,026 symbols
    parts = encode_cloud(PointCloud(_empty_middle()), CASES["empty-middle-part"][1]).parts
    assert [p.empty for p in parts] == [False, True, False]
    # q = 1 from an origin at 0, so the points are their own indices; each symbol 128 at levels 15..19 has
    # one child, at levels 16..20, coded in the context (128, 8, 16)
    levels = _levels(np.sort(_interleave(_halving_chains().astype(np.int64), 20)), 20)
    assert sum(int((lv.symbols == 128).sum()) for lv in levels[14:19]) == 81_919 > 65_026
