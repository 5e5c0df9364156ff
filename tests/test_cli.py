"""End-to-end command-line tests run in fresh subprocesses."""

import csv
import hashlib
import json
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from lidarpcc import analysis, cli, kernel
from lidarpcc.analysis import empirical_error, error_colormap_export
from lidarpcc.codec import CodecConfig, decode_cloud, encode_cloud, pipeline_reconstruct
from lidarpcc.pcio import PointCloud, read_kitti_bin, read_ply, write_ply

CLI = [sys.executable, "-m", "lidarpcc.cli"]


def run(*argv, cwd=None):
    return subprocess.run(
        CLI + [str(a) for a in argv], capture_output=True, text=True, cwd=cwd
    )


@pytest.fixture(scope="module")
def scan(tmp_path_factory):
    path = tmp_path_factory.mktemp("data") / "scan.bin"
    proc = run("synth", path, "--beams", 8, "--points-per-ring", 128, "--seed", 4)
    assert proc.returncode == 0, proc.stderr
    return path


def test_encode_decode_metrics_analyze(scan, tmp_path):
    enc = tmp_path / "scan.scp"
    proc = run("encode", scan, enc, "--system", "spherical", "--depth", "11",
               "--convention", "kitti")
    assert proc.returncode == 0, proc.stderr
    assert "encoded 1024 points" in proc.stdout
    assert "3 parts" in proc.stdout

    dec = tmp_path / "scan_rec.ply"
    proc = run("decode", enc, dec)
    assert proc.returncode == 0, proc.stderr
    rec = read_ply(dec)
    assert 0 < len(rec) <= 1024

    proc = run("metrics", scan, dec, "--container", enc)
    assert proc.returncode == 0, proc.stderr
    out = dict(line.split("=", 1) for line in proc.stdout.splitlines() if "=" in line)
    assert float(out["rate_bpp"]) > 0
    assert float(out["d1_db"]) > 20.0
    assert float(out["cd"]) >= 0.0
    assert "d2_db" in out and "degenerate_normals" in out

    proc = run("analyze", scan, "--system", "spherical", "--depth", "11")
    assert proc.returncode == 0, proc.stderr
    assert "pairing=pipeline" in proc.stdout
    assert "part 0:" in proc.stdout and "part 2:" in proc.stdout


def test_containers_are_byte_identical_across_processes(scan, tmp_path):
    a, b = tmp_path / "a.scp", tmp_path / "b.scp"
    for out in (a, b):
        proc = run("encode", scan, out, "--system", "spherical", "--depth", "10")
        assert proc.returncode == 0, proc.stderr
    assert a.read_bytes() == b.read_bytes()


def test_a_zero_point_count_trailer_is_a_corrupt_stream(tmp_path):
    # decode once printed "originally 0 points", and metrics died in measure_bpp with exit 1
    small, enc, dec = tmp_path / "small.bin", tmp_path / "small.scp", tmp_path / "small.ply"
    assert run("synth", small, "--beams", 4, "--points-per-ring", 64, "--seed", 0).returncode == 0
    assert run("encode", small, enc, "--system", "spherical", "--depth", 10).returncode == 0
    assert run("decode", enc, dec).returncode == 0
    enc.write_bytes(enc.read_bytes()[:-8] + bytes(8))
    for argv in (("decode", enc, tmp_path / "zero.ply"), ("metrics", small, dec, "--container", enc)):
        proc = run(*argv)
        assert proc.returncode == 3, (argv, proc.stderr)
        assert "corrupt stream" in proc.stderr and "point-count trailer is 0" in proc.stderr, argv
        assert "Traceback" not in proc.stderr and proc.stdout == "", argv


def test_manifest_records_hashes_and_stages(scan, tmp_path):
    enc = tmp_path / "m.scp"
    proc = run("encode", scan, enc, "--system", "cartesian", "--depth", "9",
               "--parts", "1")
    assert proc.returncode == 0, proc.stderr
    manifest = json.loads((tmp_path / "m.scp.manifest.json").read_text())
    assert manifest["command"][:2] == ["lidarpcc", "encode"]
    assert manifest["inputs"][str(scan)] == hashlib.sha256(scan.read_bytes()).hexdigest()
    assert manifest["outputs"] == [str(enc)]
    assert set(manifest["stages"]) == {"read", "encode", "write"}
    assert manifest["config"]["system"] == "cartesian"
    assert "numpy" in manifest["versions"]
    assert manifest["versions"]["coder"] in ("c", "python")

    # explicit override path
    alt = tmp_path / "alt.json"
    proc = run("encode", scan, tmp_path / "m2.scp", "--system", "cartesian",
               "--depth", "9", "--parts", "1", "--manifest", alt)
    assert proc.returncode == 0
    assert alt.exists() and not (tmp_path / "m2.scp.manifest.json").exists()


@pytest.fixture(scope="module")
def made(scan, tmp_path_factory):
    """A container, its decoded cloud and two RD curves, written without the CLI."""
    d = tmp_path_factory.mktemp("made")
    cloud = read_kitti_bin(scan)
    container = encode_cloud(cloud, CodecConfig(system="spherical", depth=9))
    (d / "x.scp").write_bytes(container.to_bytes())
    write_ply(decode_cloud(container), d / "x.ply")
    for name, scale in (("anchor.csv", 1.0), ("test.csv", 0.9)):
        rows = "".join(f"{scale * r},{db}\n" for r, db in ((1, 30), (2, 35), (4, 40), (8, 45)))
        (d / name).write_text("bpp,d1_db\n" + rows)
    return d


CODING = ("encode", "decode", "bench")


def _run_of(cmd, scan, made, out):
    """argv of one successful run of ``cmd`` writing into ``out``, and its first output (or None)."""
    argv, first = {
        "encode": (["encode", scan, out / "o.scp", "--depth", 9], out / "o.scp"),
        "decode": (["decode", made / "x.scp", out / "o.ply"], out / "o.ply"),
        "metrics": (["metrics", scan, made / "x.ply", "--json", out / "r.json", "--csv", out / "r.csv"],
                    out / "r.json"),
        "analyze": (["analyze", scan, "--depth", 9, "--ply", out / "e.ply", "--hist", out / "e.csv"],
                    out / "e.ply"),
        "bdrate": (["bdrate", made / "anchor.csv", made / "test.csv"], None),
        "synth": (["synth", out / "s.bin", "--beams", 4, "--points-per-ring", 64], out / "s.bin"),
        "bench": (["bench", scan, out / "b.csv", "--systems", "cartesian", "--depths", 8], out / "b.csv"),
    }[cmd]
    return [str(a) for a in argv], first


def _files(*dirs):
    return sorted(p for d in dirs for p in Path(d).rglob("*"))


@pytest.mark.parametrize("cmd", ("encode", "decode", "metrics", "analyze", "bdrate", "synth", "bench"))
def test_every_command_writes_its_manifest_by_one_rule(cmd, scan, made, tmp_path, coder):
    default, flagged = tmp_path / "default", tmp_path / "flagged"
    default.mkdir()
    flagged.mkdir()
    argv, first = _run_of(cmd, scan, made, default)
    assert cli.main(argv) == 0
    # next to the first output; with no output and no --manifest, nowhere
    assert sorted(default.glob("*.manifest.json")) == ([Path(f"{first}.manifest.json")] if first else [])

    argv, first = _run_of(cmd, scan, made, flagged)
    alt = tmp_path / "alt.json"
    argv += ["--manifest", str(alt)]
    assert cli.main(argv) == 0
    assert not list(flagged.glob("*.manifest.json"))
    manifest = json.loads(alt.read_text())
    assert manifest["command"] == ["lidarpcc"] + argv
    assert manifest["outputs"][:1] == ([str(first)] if first else [])
    for path, digest in manifest["inputs"].items():
        assert digest == hashlib.sha256(Path(path).read_bytes()).hexdigest()
    versions = manifest["versions"]
    assert versions["numpy_simd"] == np.show_config(mode="dicts")["SIMD Extensions"]["found"]
    assert versions.get("coder") == (coder if cmd in CODING else None)


@pytest.mark.parametrize(
    "argv",
    [
        ["bdrate", "{made}/anchor.csv", "{made}/test.csv"],
        ["metrics", "{scan}", "{made}/x.ply"],
        ["analyze", "--crossover"],
        ["analyze", "--crossover", "--manifest", "{tmp}/m.json"],
    ],
    ids=["bdrate", "metrics_to_stdout", "crossover", "crossover_with_manifest_flag"],
)
def test_no_manifest_without_outputs(argv, scan, made, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    before = _files(scan.parent, made, tmp_path)
    assert cli.main([a.format(scan=scan, made=made, tmp=tmp_path) for a in argv]) == 0
    assert _files(scan.parent, made, tmp_path) == before


def test_no_manifest_from_a_failed_command(scan, made, tmp_path):
    alt = tmp_path / "alt.json"
    missing = ["encode", str(tmp_path / "missing.bin"), str(tmp_path / "o.scp")]
    assert cli.main(missing) == 2
    assert cli.main(missing + ["--manifest", str(alt)]) == 2
    corrupt = tmp_path / "t.scp"
    corrupt.write_bytes((made / "x.scp").read_bytes()[:-7])
    truncated = ["decode", str(corrupt), str(tmp_path / "t.ply")]
    assert cli.main(truncated) == 3
    assert cli.main(truncated + ["--manifest", str(alt)]) == 3
    assert _files(tmp_path) == [corrupt]
    # a manifest that cannot be written is an I/O error
    assert cli.main(["synth", str(tmp_path / "s.bin"), "--beams", "4", "--points-per-ring", "64",
                     "--manifest", str(tmp_path / "no" / "m.json")]) == 2


def test_metrics_json_csv_outputs(scan, tmp_path):
    enc, dec = tmp_path / "x.scp", tmp_path / "x.ply"
    assert run("encode", scan, enc, "--system", "spherical", "--depth", "10").returncode == 0
    assert run("decode", enc, dec).returncode == 0
    jpath, cpath = tmp_path / "rep.json", tmp_path / "rep.csv"
    proc = run("metrics", scan, dec, "--json", jpath, "--csv", cpath)
    assert proc.returncode == 0, proc.stderr
    doc = json.loads(jpath.read_text())
    assert "d1_db" in doc and doc["config_peak"] == 59.70
    with open(cpath, newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == 1 and "d1_db" in rows[0]


def test_analyze_crossover(tmp_path):
    proc = run("analyze", "--crossover", "--rho-max", "1.0")
    assert proc.returncode == 0, proc.stderr
    vals = [float(v) for v in proc.stdout.split(":")[1].split()]
    np.testing.assert_allclose(vals, [0.246562, 0.493124, 0.986247], atol=5e-4)
    for argv, line in ((("--rho-max", "1.0"), "crossover radii (m): 0.246562 0.493124 0.986247"),
                       ((), "crossover radii (fraction of rho_max): 0.246562 0.493124 0.986247"),
                       (("--parts", "2", "--rho-max", "80"), "crossover radii (m): 19.7249 39.4499")):
        proc = run("analyze", "--crossover", *argv)
        assert (proc.returncode, proc.stdout, proc.stderr) == (0, line + "\n", ""), argv
    assert not list(tmp_path.iterdir())


def test_bench_and_bdrate(scan, tmp_path):
    cart, sph = tmp_path / "cart.csv", tmp_path / "sph.csv"
    for path, system in ((cart, "cartesian"), (sph, "spherical")):
        proc = run("bench", scan, path, "--systems", system,
                   "--depths", "6,7,8,9", "--convention", "raw")
        assert proc.returncode == 0, proc.stderr
    with open(cart, newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert [r["depth"] for r in rows] == ["6", "7", "8", "9"]
    assert set(rows[0]) == {"system", "depth", "parts", "bpp", "d1_db", "d2_db", "cd"}
    bpp = [float(r["bpp"]) for r in rows]
    assert bpp == sorted(bpp)

    proc = run("bdrate", cart, sph)
    assert proc.returncode == 0, proc.stderr
    assert "bd_rate_pct=" in proc.stdout
    proc = run("bdrate", cart, cart)
    assert float(proc.stdout.split("=")[1]) == pytest.approx(0.0, abs=1e-6)


def test_bench_workers_write_the_serial_csv(scan, tmp_path):
    serial, pooled = tmp_path / "serial.csv", tmp_path / "pooled.csv"
    for path, workers in ((serial, 1), (pooled, 2)):
        proc = run("bench", scan, path, "--systems", "cartesian,spherical", "--depths", "8,10",
                   "--convention", "raw", "--workers", workers)
        assert proc.returncode == 0, proc.stderr
    assert pooled.read_bytes() == serial.read_bytes()
    assert len(serial.read_text().splitlines()) == 5


def test_bench_refuses_depths_that_are_not_integers(scan, tmp_path, capsys):
    out = tmp_path / "b.csv"
    for depths in ("8,x", "", "8,,10"):
        assert cli.main(["bench", str(scan), str(out), "--depths", depths]) == 2
        assert capsys.readouterr().err == f"lidarpcc: error: bad --depths value '{depths}'\n"
    assert not out.exists()


_ASCII, _XYZ = "format ascii 1.0\n", "property float x\nproperty float y\nproperty float z\n"


@pytest.mark.parametrize("header, rows", [
    (_ASCII + "element vertex abc\n" + _XYZ, "1 2 3\n"),
    (_ASCII + "element vertex -2\n" + _XYZ, "1 2 3\n"),
    ("format\nelement vertex 1\n" + _XYZ, "1 2 3\n"),
    (_ASCII + "element vertex\n" + _XYZ, "1 2 3\n"),
    (_ASCII + "element vertex 1\nproperty float\n" + _XYZ, "1 2 3\n"),
    (_ASCII + "element vertex 99999999999999\n" + _XYZ, "1 2 3\n"),
    (_ASCII + "element vertex 1\n" + _XYZ, "1 2 three\n"),
], ids=["count-not-a-number", "negative-count", "format-alone", "no-count", "property-without-name",
        "count-past-the-file", "value-not-a-number"])
def test_malformed_ply_exits_2(tmp_path, capsys, header, rows):
    # each of these used to end in a traceback and exit 1
    path, out = tmp_path / "bad.ply", tmp_path / "o.scp"
    path.write_text("ply\n" + header + "end_header\n" + rows)
    assert cli.main(["encode", str(path), str(out), "--depth", "8", "--convention", "kitti"]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"lidarpcc: error: {path}: ") and err.count("\n") == 1, err
    assert not out.exists()


def test_decode_refuses_a_cloud_kitti_records_cannot_hold(tmp_path, capsys):
    # x = 1e39 codes exactly at q = 1e37, but float32 overflows: decode refuses it and writes nothing
    src, enc, out = tmp_path / "big.ply", tmp_path / "big.scp", tmp_path / "big.bin"
    write_ply(PointCloud(np.array([[0.0, 0.0, 0.0], [1e39, 0.0, 0.0]])), src)
    assert cli.main(["encode", str(src), str(enc), "--system", "cartesian", "--q", "1e37"]) == 0
    capsys.readouterr()
    assert cli.main(["decode", str(enc), str(out)]) == 2
    assert capsys.readouterr().err == f"lidarpcc: error: {out}: record 1 is not finite as float32\n"
    assert not out.exists()
    assert cli.main(["decode", str(enc), str(tmp_path / "big_rec.ply")]) == 0  # a PLY holds float64


def test_metric_inputs_must_be_finite(scan, made, tmp_path, capsys):
    # nan printed d1_db=nan and wrote NaN, which is not JSON; inf gave a lossy cloud infinite PSNR;
    # the rate was echoed whatever it was, and a nan rate in a curve made bdrate print nan
    rec, report = made / "x.ply", tmp_path / "m.json"
    for flag, value, field in (("--peak", "nan", "peak"), ("--peak", "inf", "peak"), ("--peak", "-1", "peak"),
                               ("--bpp", "-1", "rate_bpp"), ("--bpp", "nan", "rate_bpp"), ("--bpp", "inf", "rate_bpp"),
                               ("--bpp", "0", "rate_bpp")):
        capsys.readouterr()
        assert cli.main(["metrics", str(scan), str(rec), flag, value, "--json", str(report)]) == 2, (flag, value)
        assert capsys.readouterr() == ("", f"lidarpcc: error: {field} must be finite and positive, got {float(value)}\n")
        assert not report.exists()
    assert cli.main(["bench", str(scan), str(tmp_path / "b.csv"), "--depths", "8", "--peak", "nan"]) == 2
    assert capsys.readouterr().err == "lidarpcc: error: peak must be finite and positive, got nan\n"
    assert not (tmp_path / "b.csv").exists()
    for rate in ("nan", "inf"):
        (tmp_path / "t.csv").write_text((made / "test.csv").read_text().replace("7.2,", f"{rate},"))
        assert cli.main(["bdrate", str(made / "anchor.csv"), str(tmp_path / "t.csv")]) == 2
        assert capsys.readouterr() == ("", f"lidarpcc: error: RD rate must be finite and positive, got {rate}\n")


def test_bench_builds_parts_as_encode_does(scan, tmp_path):
    enc = run("encode", scan, tmp_path / "p.scp", "--system", "spherical", "--depth", "9",
              "--convention", "raw", "--parts", 2)
    bench = run("bench", scan, tmp_path / "p.csv", "--systems", "spherical", "--depths", "9",
                "--convention", "raw", "--parts", 2)
    assert enc.returncode == bench.returncode == 2
    assert "--thresholds is required" in enc.stderr
    assert bench.stderr == enc.stderr
    assert not (tmp_path / "p.csv").exists()
    # --parts is checked once for every system, and cartesian rows keep their one part
    mixed = run("bench", scan, tmp_path / "m.csv", "--systems", "spherical,cartesian", "--depths", 8, "--parts", 3)
    assert mixed.returncode == 0, mixed.stderr
    with open(tmp_path / "m.csv", newline="") as fh:
        assert [(r["system"], r["parts"]) for r in csv.DictReader(fh)] == [("spherical", "3"), ("cartesian", "1")]


def test_analyze_reconstructs_once_with_unchanged_outputs(scan, tmp_path, monkeypatch):
    cloud = read_kitti_bin(scan)
    cfg = CodecConfig(system="spherical", depth=11, convention="kitti")
    # the outputs as analyze wrote them when it reconstructed a second time
    want_ply, want_hist = tmp_path / "want.ply", tmp_path / "want.csv"
    errors = empirical_error(cloud, cfg, keep_per_point=True).per_point
    error_colormap_export(pipeline_reconstruct(cloud, cfg)[0], errors, want_ply, want_hist, 10)

    calls = []

    def counted(*args):
        calls.append(args)
        return pipeline_reconstruct(*args)

    monkeypatch.setattr(cli, "pipeline_reconstruct", counted)
    monkeypatch.setattr(analysis, "pipeline_reconstruct", counted)
    monkeypatch.setattr(kernel, "load", lambda: pytest.fail("analyze loaded the coder"))
    ply, hist = tmp_path / "err.ply", tmp_path / "err.csv"
    assert cli.main(["analyze", str(scan), "--system", "spherical", "--depth", "11",
                     "--convention", "kitti", "--ply", str(ply), "--hist", str(hist)]) == 0
    assert len(calls) == 1
    assert ply.read_bytes() == want_ply.read_bytes()
    assert hist.read_bytes() == want_hist.read_bytes()
    manifest = json.loads((tmp_path / "err.ply.manifest.json").read_text())
    assert "coder" not in manifest["versions"]  # analyze codes nothing


def test_analyze_rejects_rho_max_below_cloud_radius(scan, tmp_path):
    proc = run("analyze", scan, "--system", "spherical", "--depth", "9", "--rho-max", "100")
    assert proc.returncode == 2
    assert "smaller than cloud max radius" in proc.stderr
    # one part too: --depth 9 spans ρ_max = 100 m with 511 steps, and the scan reaches about 400 m
    flags = ("--system", "spherical", "--parts", "1", "--depth", "9", "--rho-max", "100")
    for proc in (run("analyze", scan, *flags), run("encode", scan, tmp_path / "o.scp", *flags)):
        assert proc.returncode == 2
        assert "smaller than cloud max radius" in proc.stderr
    assert not (tmp_path / "o.scp").exists()


def test_analyze_prints_a_bound_without_a_utilization_when_no_point_counts(tmp_path):
    # one spherical part with every point inside INNER_EXCLUSION·ρ_max leaves no point for the
    # utilization; the bound is printed alone, as the per-part lines leave out a utilization of None
    near = tmp_path / "near.bin"
    assert run("synth", near, "--beams", 8, "--points-per-ring", 128, "--rho-max", 20).returncode == 0
    proc = run("analyze", near, "--system", "spherical", "--q", 0.5, "--rho-max", 1000, "--parts", 1)
    assert (proc.returncode, proc.stderr) == (0, ""), proc.stderr
    lines = proc.stdout.splitlines()
    assert lines[2].startswith("bound=") and "utilization" not in lines[2]
    assert lines[3] == "excluded=1024 inner-radius points from utilization"


def test_analyze_refuses_what_encode_refuses(scan, tmp_path):
    # depth 20 with 3 parts exceeds the octree levels a header may describe
    flags = ("--system", "spherical", "--depth", "20", "--convention", "kitti")
    out = tmp_path / "out"
    out.mkdir()
    for proc in (run("analyze", scan, *flags, "--ply", out / "e.ply", "--hist", out / "e.csv"),
                 run("encode", scan, out / "o.scp", *flags)):
        assert proc.returncode == 2
        assert "undecodable header: depth 20 with 3 parts" in proc.stderr
    assert list(out.iterdir()) == []


def test_exit_codes(scan, tmp_path):
    assert run("--help").returncode == 0
    assert run("frobnicate").returncode == 1
    assert run("encode").returncode == 1  # missing positionals

    proc = run("encode", tmp_path / "missing.bin", tmp_path / "o.scp",
               "--system", "cartesian", "--parts", "1", "--depth", "8")
    assert proc.returncode == 2
    assert "error" in proc.stderr

    proc = run("encode", scan, tmp_path / "o.scp", "--system", "spherical",
               "--depth", "10", "--q", "0.1")
    assert proc.returncode == 2  # depth and q are mutually exclusive

    for argv in (("encode", scan, tmp_path / "o.scp", "--depth", "0", "--convention", "kitti"),
                 ("encode", scan, tmp_path / "o.scp", "--depth", "-1", "--convention", "kitti"),
                 ("encode", scan, tmp_path / "o.scp", "--depth", "0", "--convention", "raw"),
                 ("analyze", scan, "--depth", "0"),
                 ("bench", scan, tmp_path / "b.csv", "--depths", "0")):
        proc = run(*argv)
        assert proc.returncode == 2, argv
        assert proc.stderr.startswith("lidarpcc: error: depth must be at least 1"), argv
    for argv in (("synth", tmp_path / "s.bin", "--beams", "0"),
                 ("synth", tmp_path / "s.bin", "--points-per-ring", "0"),
                 ("synth", tmp_path / "s.bin", "--dropout", "1.5"),
                 ("synth", tmp_path / "s.bin", "--rho-max", "-1"),
                 ("analyze", scan, "--depth", "9", "--ply", tmp_path / "e.ply", "--bins", "0"),
                 ("bench", scan, tmp_path / "b.csv", "--depths", "8", "--workers", "0")):
        proc = run(*argv)
        assert proc.returncode == 2, argv
        assert proc.stderr.startswith("lidarpcc: error: "), argv
    out = tmp_path / "o.scp"
    for argv, field in (
        (("encode", scan, out, "--depth", "10", "--rho-max", "-3"), "rho_max"),
        (("encode", scan, out, "--depth", "10", "--rho-max", "0"), "rho_max"),
        (("encode", scan, out, "--q", "0.1", "--rho-max", "-3"), "rho_max"),
        (("encode", scan, out, "--system", "cartesian", "--depth", "8", "--rho-max", "nan"), "rho_max"),
        (("encode", scan, out, "--depth", "10", "--parts", "0"), "--parts"),
        (("encode", scan, out, "--depth", "10", "--parts", "-1"), "--parts"),
        (("bench", scan, tmp_path / "b.csv", "--systems", "spherical", "--depths", "8", "--parts", "0"), "--parts"),
        (("bench", scan, tmp_path / "b.csv", "--systems", "cartesian", "--depths", "8", "--parts", "0"), "--parts"),
        (("bench", scan, tmp_path / "b.csv", "--systems", "cartesian", "--depths", "8", "--parts", "7"), "--parts"),
        (("analyze", "--crossover", "--rho-max", "-1"), "rho_max"),
        (("analyze", "--crossover", "--parts", "0"), "--parts"),
        (("analyze", "--crossover", "--parts", "-4"), "--parts"),
    ):
        proc = run(*argv)
        assert proc.returncode == 2, argv
        assert proc.stderr.startswith("lidarpcc: error: ") and field in proc.stderr, (argv, proc.stderr)
        assert proc.stdout == "", argv
    # a step that overflows float64 is refused by the field that sets it: 2^depth − 1
    # steps past float64 leave a step of 0, and a q this small an infinite index
    for argv, start in (
        (("encode", scan, out, "--depth", "1100"), "depth=1100 gives a step of 0.0"),
        (("encode", scan, out, "--depth", "1100", "--convention", "kitti"), "depth=1100 gives a step of 0.0"),
        (("encode", scan, out, "--q", "1e-320"), "q=1e-320 is too small"),
        (("encode", scan, out, "--q", "1e-300", "--rho-max", "1e300"), "q=1e-300 is too small"),
    ):
        proc = run(*argv)
        assert proc.returncode == 2, argv
        assert proc.stderr.startswith(f"lidarpcc: error: {start}"), (argv, proc.stderr)
    proc = run("bench", scan, tmp_path / "b.csv", "--systems", "spherical,foo", "--depths", "8")
    assert proc.returncode == 2
    assert proc.stderr == "lidarpcc: error: unknown coordinate system 'foo'\n"
    assert not list(tmp_path.iterdir())

    enc = tmp_path / "t.scp"
    assert run("encode", scan, enc, "--system", "spherical", "--depth", "10").returncode == 0
    data = enc.read_bytes()
    enc.write_bytes(data[: len(data) - 7])
    proc = run("decode", enc, tmp_path / "t.ply")
    assert proc.returncode == 3
    assert "corrupt stream" in proc.stderr


@pytest.mark.parametrize("rows, message", [
    ("1,30\nx,35\n4,40\n8,45\n", "data row 2, column 'bpp': 'x' is not a number"),
    ("1,30\n2,35\n4,forty\n8,45\n", "data row 3, column 'd1_db': 'forty' is not a number"),
    ("1,30\n2,35\n4,40\n,45\n", "data row 4, column 'bpp': '' is not a number"),
    ("1,30\n2\n4,40\n8,45\n", "data row 2 has no 'd1_db' value"),
], ids=["rate-not-a-number", "distortion-not-a-number", "empty-rate", "short-row"])
def test_bdrate_refuses_a_cell_that_is_not_a_number(made, tmp_path, capsys, rows, message):
    # these ended in a ValueError or TypeError traceback and exit 1
    bad = tmp_path / "bad.csv"
    bad.write_text("bpp,d1_db\n" + rows)
    for argv in ([made / "anchor.csv", bad], [bad, made / "anchor.csv"]):
        assert cli.main(["bdrate", *map(str, argv)]) == 2
        assert capsys.readouterr() == ("", f"lidarpcc: error: {bad}: {message}\n")


@pytest.mark.parametrize("value", ["nan", "-inf"])
def test_bdrate_refuses_a_distortion_that_is_nan_or_minus_infinity(made, tmp_path, capsys, value):
    # the row was dropped like a zero MSE's +inf PSNR, and bd_rate_pct was printed from the rows left
    bad = tmp_path / "bad.csv"
    bad.write_text((made / "test.csv").read_text() + f"16,{value}\n")
    for argv in ([made / "anchor.csv", bad], [bad, made / "anchor.csv"]):
        assert cli.main(["bdrate", *map(str, argv)]) == 2
        assert capsys.readouterr() == ("", f"lidarpcc: error: RD distortion must be finite or +inf, got {value}\n")


def test_bench_refuses_a_peak_before_it_codes_a_row(scan, tmp_path, capsys, monkeypatch):
    # the metric config was built per row, so the first row was encoded and decoded before --peak nan was refused
    monkeypatch.setattr(cli, "encode_cloud", lambda *args: pytest.fail("bench coded a row"))
    out = tmp_path / "b.csv"
    assert cli.main(["bench", str(scan), str(out), "--depths", "8,10", "--peak", "nan"]) == 2
    assert capsys.readouterr().err == "lidarpcc: error: peak must be finite and positive, got nan\n"
    assert not out.exists()
