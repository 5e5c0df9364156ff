"""Command-line front end: encode, decode, metrics, analyze, bdrate, synth, bench.

Each command returns a :class:`RunRecord` of what it read and wrote, and
:func:`main` writes it as a JSON run manifest to --manifest, else next to the
first output, else nowhere: the exact argv, the resolved config, sha256 of
each input, produced outputs, per-stage wall-clock seconds, library versions
with numpy's SIMD dispatch, and, for encode, decode and bench, the coder the
codec ran ("c" or "python"). Exit codes: 0 success, 1 usage, 2 I/O or format
problems, 3 corrupt bitstream.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import hashlib
import json
import math
import platform
import sys
import time
from dataclasses import asdict, dataclass

import numpy as np
import scipy

from . import __version__, kernel
from .analysis import crossover_radii, empirical_error, error_colormap_export
from .codec import (
    CONVENTIONS,
    CodecConfig,
    Container,
    decode_cloud,
    encode_cloud,
    measure_bpp,
    pipeline_reconstruct,
)
from .coords import CARTESIAN, SPHERICAL, SYSTEMS
from .errors import ConfigError, CorruptStreamError, FormatError, MetricError
from .metrics import (
    MEAN_L2,
    MEAN_SQUARED,
    R_SQUARED,
    THREE_R_SQUARED,
    MetricConfig,
    RDCurve,
    bd_rate,
    compute_report,
    report_to_csv,
    report_to_json,
)
from .octree import MultiLevelConfig
from .pcio import PointCloud, SynthParams, read_kitti_bin, read_ply, synth_lidar, write_kitti_bin, write_ply

_G = "%.6g"


class _Parser(argparse.ArgumentParser):
    """argparse exits 2 on bad usage; this CLI reserves 2 for I/O errors."""

    def error(self, message):
        self.print_usage(sys.stderr)
        sys.stderr.write(f"{self.prog}: error: {message}\n")
        raise SystemExit(1)


@contextlib.contextmanager
def _stage(stages: dict, name: str):
    t0 = time.perf_counter()
    yield
    stages[name] = round(time.perf_counter() - t0, 6)


def _sha256(path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            h.update(chunk)
    return h.hexdigest()


@dataclass(frozen=True)
class RunRecord:
    """What a command ran: its resolved config, the files it read and wrote, and whether it coded."""

    config: dict
    inputs: tuple = ()
    outputs: tuple = ()
    coded: bool = False


def _write_manifest(path, argv, run: RunRecord, stages: dict) -> None:
    versions = {
        "python": platform.python_version(),
        "numpy": np.__version__,
        # the angle systems' indices follow numpy's trig kernels (FORMAT.md, Determinism)
        "numpy_simd": np.show_config(mode="dicts")["SIMD Extensions"]["found"],
        "scipy": scipy.__version__,
        "lidarpcc": __version__,
    }
    if run.coded:
        versions["coder"] = kernel.coder_name()
    doc = {
        "command": ["lidarpcc"] + argv,
        "config": run.config,
        "inputs": {str(p): _sha256(p) for p in run.inputs},
        "outputs": [str(o) for o in run.outputs],
        "stages": stages,
        "versions": versions,
    }
    with open(path, "w") as fh:
        json.dump(doc, fh, indent=2, sort_keys=True)
        fh.write("\n")


_CLOUD_FORMATS = {".bin": (read_kitti_bin, write_kitti_bin), ".ply": (read_ply, write_ply)}


def _cloud_format(path):
    """The (reader, writer) pair for a point-cloud path's extension."""
    for ext, fns in _CLOUD_FORMATS.items():
        if str(path).endswith(ext):
            return fns
    raise FormatError(f"{path}: unsupported point-cloud extension (use .bin or .ply)")


def _read_cloud(path) -> PointCloud:
    return _cloud_format(path)[0](path)


def _write_cloud(cloud: PointCloud, path) -> None:
    _cloud_format(path)[1](cloud, path)


# ---------------------------------------------------------------------------
# Shared codec flags
# ---------------------------------------------------------------------------


def _add_codec_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--system", choices=SYSTEMS, default=SPHERICAL)
    p.add_argument("--depth", type=int, default=None, help="octree depth (bits per axis)")
    p.add_argument("--q", type=float, default=None, help="radial quantization step")
    p.add_argument("--convention", choices=CONVENTIONS, default="raw")
    p.add_argument("--parts", type=int, default=None, help="radial parts (default 3, cartesian 1)")
    p.add_argument(
        "--thresholds",
        default=None,
        help="comma-separated part edges t_0..t_{N-1} as fractions of rho_max; t_N=1 is implicit",
    )
    p.add_argument("--rho-max", type=float, default=None, help="override the measured max radius")


def _part_count(parts: int | None, default: int) -> int:
    """--parts, refused below 1, or ``default`` when it is not given."""
    if parts is not None and parts < 1:
        raise ConfigError(f"--parts must be at least 1, got {parts}")
    return default if parts is None else parts


def _part_layout(parts: int | None, thresholds: str | None) -> MultiLevelConfig | None:
    """Radial parts from --parts/--thresholds; None, when neither is given, for CodecConfig's default."""
    default = MultiLevelConfig()
    n = _part_count(parts, default.n_parts)
    if thresholds is not None:
        try:
            inner = tuple(float(v) for v in thresholds.split(","))
        except ValueError:
            raise ConfigError(f"bad --thresholds value '{thresholds}'") from None
        if parts is not None and parts != len(inner):
            raise ConfigError(f"--parts {parts} disagrees with {len(inner)} threshold values")
        return MultiLevelConfig(len(inner), inner + (1.0,))
    if parts is None:
        return None
    if n == 1:
        return MultiLevelConfig(1, (0.0, 1.0))
    if n == default.n_parts:
        return default
    raise ConfigError(f"--thresholds is required when --parts is not 1 or {default.n_parts}")


def _codec_config(args) -> CodecConfig:
    return CodecConfig(
        system=args.system,
        depth=args.depth,
        q=args.q,
        convention=args.convention,
        parts=_part_layout(args.parts, args.thresholds),
        rho_max=args.rho_max,
    )


# ---------------------------------------------------------------------------
# Commands
# ---------------------------------------------------------------------------


def cmd_encode(args, stages) -> RunRecord:
    with _stage(stages, "read"):
        cloud = _read_cloud(args.input)
    cfg = _codec_config(args)
    with _stage(stages, "encode"):
        container = encode_cloud(cloud, cfg)
    with _stage(stages, "write"):
        with open(args.output, "wb") as fh:
            fh.write(container.to_bytes())
    bpp = measure_bpp(container)
    print(
        f"encoded {len(cloud)} points -> {container.nbytes} bytes "
        f"({_G % bpp} bpp, {container.n_parts} parts, depth {container.depth})"
    )
    return RunRecord(asdict(cfg), (args.input,), (args.output,), coded=True)


def cmd_decode(args, stages) -> RunRecord:
    with _stage(stages, "read"):
        with open(args.input, "rb") as fh:
            container = Container.from_bytes(fh.read())
    with _stage(stages, "decode"):
        cloud = decode_cloud(container)
    with _stage(stages, "write"):
        _write_cloud(cloud, args.output)
    print(f"decoded {len(cloud)} voxel centers (originally {container.original_count} points)")
    cfg = {"system": container.system, "depth": container.depth, "q": container.q}
    return RunRecord(cfg, (args.input,), (args.output,), coded=True)


def cmd_metrics(args, stages) -> RunRecord:
    with _stage(stages, "read"):
        ref = _read_cloud(args.reference)
        rec = _read_cloud(args.reconstruction)
    cfg = MetricConfig(args.peak, args.psnr_convention, args.knn_k, args.cd_convention)
    rate = args.bpp
    if args.container is not None:
        with open(args.container, "rb") as fh:
            rate = measure_bpp(Container.from_bytes(fh.read()))
    with _stage(stages, "metrics"):
        report = compute_report(ref, rec, cfg, rate)
    if report.rate_bpp is not None:
        print(f"rate_bpp={_G % report.rate_bpp}")
    for name in ("d1_db", "d2_db", "cd"):
        print(f"{name}={_G % getattr(report, name)}")
    print(f"degenerate_normals={report.degenerate_normals}")
    outputs = []
    with _stage(stages, "write"):
        if args.json:
            report_to_json(report, args.json)
            outputs.append(args.json)
        if args.csv:
            report_to_csv(report, args.csv)
            outputs.append(args.csv)
    inputs = tuple(p for p in (args.reference, args.reconstruction, args.container) if p is not None)
    return RunRecord(asdict(cfg), inputs, tuple(outputs))


def cmd_analyze(args, stages) -> RunRecord | None:
    if args.crossover:
        rho_max = args.rho_max if args.rho_max is not None else 1.0
        n_parts = _part_count(args.parts, MultiLevelConfig().n_parts)
        radii = crossover_radii([2**n for n in range(n_parts)], rho_max)
        unit = "m" if args.rho_max is not None else "fraction of rho_max"
        print(f"crossover radii ({unit}): " + " ".join(_G % r for r in radii))
        if args.input is None:
            return None
    if args.input is None:
        raise ConfigError("analyze needs an input cloud (or --crossover alone)")
    with _stage(stages, "read"):
        cloud = _read_cloud(args.input)
    cfg = _codec_config(args)
    keep = bool(args.ply or args.hist)
    with _stage(stages, "analyze"):
        reconstruction = pipeline_reconstruct(cloud, cfg)
        report = empirical_error(cloud, cfg, keep_per_point=keep, reconstruction=reconstruction)
    print(f"system={report.system} q={_G % report.q} pairing={report.pairing}")
    print(f"max_error={_G % report.max_error} mean_error={_G % report.mean_error}")
    if report.bound is not None:
        print(f"bound={_G % report.bound} utilization={_G % report.utilization}")
    if report.excluded:
        print(f"excluded={report.excluded} inner-radius points from utilization")
    for ps in report.per_part or ():
        line = f"part {ps.part}: count={ps.count} max={_G % ps.max_error} mean={_G % ps.mean_error}"
        if ps.bound_edge is not None:
            line += f" bound_mid={_G % ps.bound_mid} bound_edge={_G % ps.bound_edge}"
            if ps.utilization is not None:
                line += f" util={_G % ps.utilization}"
        print(line)
    outputs = ()
    with _stage(stages, "write"):
        if keep:
            outputs = (args.ply or f"{args.input}.error.ply", args.hist or f"{args.input}.error_hist.csv")
            error_colormap_export(reconstruction[0], report.per_point, *outputs, args.bins)
    return RunRecord(asdict(cfg), (args.input,), outputs)


def _read_rd_curve(path, metric: str) -> RDCurve:
    rows = []
    with open(path, newline="") as fh:
        rd = csv.DictReader(fh)
        if rd.fieldnames is None:
            raise FormatError(f"{path}: empty CSV")
        rate_col = next((c for c in ("bpp", "rate_bpp", "rate") if c in rd.fieldnames), None)
        if rate_col is None or metric not in rd.fieldnames:
            raise FormatError(f"{path}: need a rate column (bpp) and a '{metric}' column")
        for n, row in enumerate(rd, start=1):
            rows.append((_rd_cell(path, n, row, rate_col), _rd_cell(path, n, row, metric)))
    if not rows:
        raise FormatError(f"{path}: no RD rows")
    return RDCurve(tuple(rows))


def _rd_cell(path, n: int, row: dict, column: str) -> float:
    """The number in ``column`` of data row ``n``; a FormatError naming the file, row and column otherwise."""
    value = row[column]
    if value is None:
        raise FormatError(f"{path}: data row {n} has no '{column}' value")
    try:
        return float(value)
    except ValueError:
        raise FormatError(f"{path}: data row {n}, column '{column}': {value!r} is not a number") from None


def cmd_bdrate(args, stages) -> RunRecord:
    anchor = _read_rd_curve(args.anchor, args.metric)
    test = _read_rd_curve(args.test, args.metric)
    delta = bd_rate(anchor, test)
    print(f"bd_rate_pct={_G % delta}")
    return RunRecord({"metric": args.metric}, (args.anchor, args.test))


def cmd_synth(args, stages) -> RunRecord:
    params = SynthParams(
        beams=args.beams,
        points_per_ring=args.points_per_ring,
        rho_max=args.rho_max,
        noise_sigma=args.noise_sigma,
        dropout=args.dropout,
        seed=args.seed,
        fixed_range=args.fixed_range,
    )
    with _stage(stages, "synth"):
        cloud = synth_lidar(params)
    with _stage(stages, "write"):
        _write_cloud(cloud, args.output)
    print(f"synthesized {len(cloud)} points ({params.beams} beams)")
    return RunRecord(asdict(params), (), (args.output,))


def _bench_row(points, cfg, mcfg):
    cloud = PointCloud(points)
    container = encode_cloud(cloud, cfg)
    rec = decode_cloud(container)
    report = compute_report(cloud, rec, mcfg, measure_bpp(container))
    return (
        cfg.system,
        cfg.depth,
        cfg.parts.n_parts,
        report.rate_bpp,
        report.d1_db,
        report.d2_db,
        report.cd,
    )


def cmd_bench(args, stages) -> RunRecord:
    if args.workers < 1:
        raise ConfigError(f"--workers must be at least 1, got {args.workers}")
    with _stage(stages, "read"):
        cloud = _read_cloud(args.input)
    systems = [s.strip() for s in args.systems.split(",")]
    try:
        depths = [int(d) for d in args.depths.split(",")]
    except ValueError:
        raise ConfigError(f"bad --depths value '{args.depths}'") from None
    layout = _part_layout(args.parts, None)  # checked for every system; cartesian rows keep their one part
    jobs = []  # every config is built, and so checked, before the first row runs
    mcfg = MetricConfig(peak=args.peak)
    for system in systems:
        parts = None if system == CARTESIAN else layout
        for depth in depths:
            cfg = CodecConfig(system=system, depth=depth, convention=args.convention, parts=parts)
            jobs.append((cloud.points, cfg, mcfg))
    with _stage(stages, "bench"):
        if args.workers > 1:
            from concurrent.futures import ProcessPoolExecutor

            with ProcessPoolExecutor(max_workers=args.workers) as ex:
                rows = list(ex.map(_bench_row, *zip(*jobs)))
        else:
            rows = [_bench_row(*j) for j in jobs]
    with _stage(stages, "write"):
        with open(args.output, "w", newline="") as fh:
            w = csv.writer(fh)
            w.writerow(["system", "depth", "parts", "bpp", "d1_db", "d2_db", "cd"])
            for system, depth, parts_n, bpp, d1, d2, cd in rows:
                w.writerow(
                    [system, depth, parts_n] + [_fmt_metric(v) for v in (bpp, d1, d2, cd)]
                )
    print(f"wrote {len(rows)} RD rows to {args.output}")
    cfg = {"systems": systems, "depths": depths, "convention": args.convention, "peak": args.peak}
    return RunRecord(cfg, (args.input,), (args.output,), coded=True)


def _fmt_metric(v: float) -> str:
    return "inf" if math.isinf(v) else _G % v


# ---------------------------------------------------------------------------
# Parser
# ---------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="lidarpcc", description=__doc__.splitlines()[0])
    parser.add_argument("--version", action="version", version=f"lidarpcc {__version__}")
    sub = parser.add_subparsers(dest="cmd", required=True, metavar="command")

    p = sub.add_parser("encode", help="compress a point cloud into a container")
    p.add_argument("input")
    p.add_argument("output")
    _add_codec_flags(p)
    p.set_defaults(func=cmd_encode)

    p = sub.add_parser("decode", help="reconstruct voxel centers from a container")
    p.add_argument("input")
    p.add_argument("output")
    p.set_defaults(func=cmd_decode)

    p = sub.add_parser("metrics", help="D1/D2 PSNR and Chamfer distance")
    p.add_argument("reference")
    p.add_argument("reconstruction")
    p.add_argument("--peak", type=float, default=59.70)
    p.add_argument("--psnr-convention", choices=(R_SQUARED, THREE_R_SQUARED), default=R_SQUARED)
    p.add_argument("--knn-k", type=int, default=12)
    p.add_argument("--cd-convention", choices=(MEAN_L2, MEAN_SQUARED), default=MEAN_L2)
    p.add_argument("--bpp", type=float, default=None, help="report this rate alongside")
    p.add_argument("--container", default=None, help="take the rate from this container file")
    p.add_argument("--json", default=None)
    p.add_argument("--csv", default=None)
    p.set_defaults(func=cmd_metrics)

    p = sub.add_parser("analyze", help="empirical errors vs closed-form bounds")
    p.add_argument("input", nargs="?", default=None)
    _add_codec_flags(p)
    p.add_argument("--crossover", action="store_true", help="print spherical/cartesian crossover radii")
    p.add_argument("--ply", default=None, help="write reconstruction with per-point error attribute")
    p.add_argument("--hist", default=None, help="write error histogram CSV")
    p.add_argument("--bins", type=int, default=10)
    p.set_defaults(func=cmd_analyze)

    p = sub.add_parser("bdrate", help="Bjøntegaard rate delta between two RD CSVs")
    p.add_argument("anchor")
    p.add_argument("test")
    p.add_argument("--metric", default="d1_db", help="distortion column name (default d1_db)")
    p.set_defaults(func=cmd_bdrate)

    p = sub.add_parser("synth", help="generate a synthetic spinning-LiDAR cloud")
    p.add_argument("output")
    p.add_argument("--beams", type=int, default=64)
    p.add_argument("--points-per-ring", type=int, default=1800)
    p.add_argument("--rho-max", type=float, default=400.0)
    p.add_argument("--noise-sigma", type=float, default=0.0)
    p.add_argument("--dropout", type=float, default=0.0)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--fixed-range", type=float, default=None)
    p.set_defaults(func=cmd_synth)

    p = sub.add_parser("bench", help="rate-distortion sweep to CSV")
    p.add_argument("input")
    p.add_argument("output")
    p.add_argument("--systems", default="cartesian,spherical")
    p.add_argument("--depths", default="8,10,12,14")
    p.add_argument("--parts", type=int, default=None, help="radial parts of the angle systems (default 3); cartesian rows keep 1")
    p.add_argument("--convention", choices=CONVENTIONS, default="kitti")
    p.add_argument("--peak", type=float, default=59.70)
    p.add_argument("--workers", type=int, default=1)
    p.set_defaults(func=cmd_bench)

    for sp in sub.choices.values():
        sp.add_argument("--manifest", default=None, help="run-manifest JSON path")
    return parser


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:  # argparse --help exits 0; _Parser.error raises 1
        return int(exc.code or 0)
    stages = {}
    try:
        run = args.func(args, stages)
        if run is not None:
            path = args.manifest
            if path is None and run.outputs:
                path = f"{run.outputs[0]}.manifest.json"
            if path:
                _write_manifest(path, argv, run, stages)
    except CorruptStreamError as exc:
        print(f"lidarpcc: corrupt stream: {exc}", file=sys.stderr)
        return 3
    except (FormatError, ConfigError, MetricError, OSError) as exc:
        print(f"lidarpcc: error: {exc}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
