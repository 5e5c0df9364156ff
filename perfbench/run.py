#!/usr/bin/env python3
"""Codec benchmark for lidarpcc: closed-loop encode, decode and evaluate operations.

    python3 perfbench/run.py --workload sweep64-sph3 --seed 0 --seconds 55 --trace 0

One run is one process on one workload. It builds its input sweep from
``--seed`` with ``synth_lidar`` and then runs three kinds of operation, one at
a time, until ``--seconds`` have passed:

* encode:   ``encode_cloud`` + ``Container.to_bytes``
* decode:   ``Container.from_bytes`` + ``decode_cloud``
* evaluate: ``compute_report`` + ``empirical_error`` on the decoded cloud

Encode and decode run on one thread and are timed by the wall clock. Evaluate
queries k-d trees on every core (``workers=-1``), so its wall time on a small
host mostly measures what else the host runs at the time; its gated metric,
``metrics_cpu_s``, is the process CPU time per evaluation, and its wall time is
printed beside it as ``metrics_s``.

With ``--trace 0`` the next operation is always of the kind that has run the
least time so far, so each kind gets about a third of the run, and the last
line of stdout is a JSON object with the end-to-end metrics. With ``--trace 1``
the run repeats encode → decode → evaluate cycles, each untraced cycle followed
by a traced one through ``layers.py``, and the JSON holds the per-layer
metrics. Every operation is checked outside its timed region (see
``Checker``). The spans and the per-part count records are written under
``.perfbench/`` in the checkout.

The package is imported from ``src/`` next to this directory, never from an
installed copy; without it the run exits non-zero and prints no result.
"""

from __future__ import annotations

import argparse
import dataclasses
import hashlib
import json
import math
import os
import resource
import statistics
import subprocess
import sys
import time
import traceback
from collections import defaultdict
from contextlib import nullcontext
from pathlib import Path

import numpy as np

import layers

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
STATE = ROOT / ".perfbench"
BASELINE = HERE / "baseline.json"

WORKLOADS = ("sweep64-sph3", "dense128-cart")
SETUP_PROBES = 6  # extra set-ups in child processes; setup_s is the median of 1 + this
# Within a traced run's cycle each kind of operation repeats until it has run
# this long, so short operations (decode on dense128-cart, evaluate on
# sweep64-sph3) get several samples per cycle while 10 s ones run once.
REPEAT_FLOOR_S = 3.0
OP_NAMES = ("encode", "decode", "evaluate")


def import_lidarpcc():
    """Import lidarpcc from this checkout's ``src``, or exit with an error."""
    pkg = SRC / "lidarpcc"
    if not (pkg / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no lidarpcc sources at {pkg}")
    sys.path.insert(0, str(SRC))
    import lidarpcc

    if Path(lidarpcc.__file__).resolve().parent != pkg.resolve():
        raise SystemExit(f"perfbench: imported lidarpcc from {lidarpcc.__file__}, not {pkg}")
    return lidarpcc


def workload_inputs(lp, name: str, seed: int):
    """(synth parameters, codec config) of a workload; baseline.json records why each."""
    one_part = lp.MultiLevelConfig(1, (0.0, 1.0))
    specs = {
        # the paper's configuration: coder-bound, every point its own voxel
        "sweep64-sph3": (
            lp.SynthParams(beams=64, points_per_ring=1800),
            lp.CodecConfig(system="spherical", depth=12, convention="kitti"),
        ),
        # cartesian baseline in its dedupe-heavy regime: quantize-bound, 18 points per voxel
        "dense128-cart": (
            lp.SynthParams(beams=128, points_per_ring=7200, noise_sigma=0.05),
            lp.CodecConfig(system="cartesian", depth=6, convention="kitti", parts=one_part),
        ),
    }
    params, cfg = specs[name]
    return dataclasses.replace(params, seed=seed), cfg


def encode_op(lp, cloud, cfg) -> bytes:
    return lp.encode_cloud(cloud, cfg).to_bytes()


def decode_op(lp, blob: bytes):
    return lp.decode_cloud(lp.Container.from_bytes(blob))


def evaluate_op(lp, cloud, rec, cfg):
    return lp.compute_report(cloud, rec), lp.empirical_error(cloud, cfg)


def setup(lp, name: str, seed: int, tracer=None):
    """Input generation plus one warm-up cycle on a 256-point sweep of the same kind.

    The warm-up pays any lazy first-call set-up before timing starts.
    """
    params, cfg = workload_inputs(lp, name, seed)
    with tracer.span("pcio.synth_lidar") if tracer else nullcontext():
        cloud = lp.synth_lidar(params)
    warm = lp.synth_lidar(dataclasses.replace(params, beams=4, points_per_ring=64))
    rec = decode_op(lp, encode_op(lp, warm, cfg))
    evaluate_op(lp, warm, rec, cfg)
    return cloud, cfg


def probe_setup_times(name: str, seed: int) -> list[float]:
    """Set-up time of fresh processes, each importing lidarpcc and building the inputs."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
           "--seed", str(seed), "--setup-probe"]
    times = []
    for _ in range(SETUP_PROBES):
        out = subprocess.run(cmd, capture_output=True, text=True, timeout=170, check=True)
        times.append(float(out.stdout.split()[-1]))
    return times


def fingerprint() -> str:
    """Identity of the code under test: the package sources plus the benchmark's."""
    h = hashlib.sha256()
    for base in (SRC / "lidarpcc", HERE):
        for path in sorted(base.rglob("*.py")):
            h.update(str(path.relative_to(ROOT)).encode())
            h.update(path.read_bytes())
    return h.hexdigest()[:16]


def load_pins(name: str, seed: int) -> dict | None:
    """Values pinned for the default seed, or None for any other seed."""
    baseline = json.loads(BASELINE.read_text())
    if seed != baseline["pinned_seed"]:
        return None
    return baseline["workloads"].get(name, {}).get("pinned")


class Checker:
    """Correctness checks, run between operations and never inside a timed one.

    * every container is byte-identical to the run's first one and, at the
      pinned seed, has the pinned SHA-256, size and bpp;
    * every decoded point set equals the unique rows of ``pipeline_reconstruct``;
    * every evaluation repeats the first and, at the pinned seed, matches the
      pinned D1/D2/Chamfer values.
    """

    def __init__(self, lp, cloud, cfg, pins: dict | None):
        self.lp, self.cloud, self.cfg, self.pins = lp, cloud, cfg, pins
        self.failures: list[str] = []
        self.blob: bytes | None = None
        self.report = None
        self._values = None
        self._reconstruction = None

    def _fail(self, msg: str) -> bool:
        self.failures.append(msg)
        return False

    def reconstruction(self):
        """(part index per point, unique rows of the lattice reconstruction), computed once."""
        if self._reconstruction is None:
            recon, part_idx, _ = self.lp.pipeline_reconstruct(self.cloud, self.cfg)
            self._reconstruction = (part_idx, np.unique(recon, axis=0))
        return self._reconstruction

    def encode(self, blob: bytes) -> bool:
        if self.blob is None:
            self.blob = blob
        if self.pins is not None:
            sha = hashlib.sha256(blob).hexdigest()
            bpp = 8.0 * len(blob) / len(self.cloud)
            if (sha, len(blob), bpp) != tuple(self.pins[k] for k in ("sha256", "container_bytes", "bpp")):
                return self._fail(f"container {sha[:16]}…, {len(blob)} B, {bpp} bpp is not the pinned one")
        # in a traced run this also holds the layer-by-layer payloads to encode_cloud's
        return blob == self.blob or self._fail("container differs from the run's first encode_cloud one")

    def decode(self, rec) -> bool:
        expected = self.reconstruction()[1]
        if np.array_equal(np.unique(rec.points, axis=0), expected):
            return True
        return self._fail(f"decoded {len(rec)} points differ from the {len(expected)} lattice points")

    def evaluate(self, result) -> bool:
        report, err = result
        values = (report.d1_db, report.d2_db, report.cd, report.degenerate_normals,
                  err.max_error, err.mean_error)
        if self.report is None:
            self.report, self._values = report, values
        if self.pins is not None:
            for key in ("d1_db", "d2_db", "cd"):
                got = getattr(report, key)
                # eigh and BLAS reductions may differ in the last bits between CPUs
                if not math.isclose(got, self.pins[key], rel_tol=1e-9, abs_tol=0.0):
                    return self._fail(f"{key} = {got!r}, pinned {self.pins[key]!r}")
        return values == self._values or self._fail("evaluation differs from the run's first one")

    def counts(self) -> dict:
        """Per-part counts of the run's container; they must repeat exactly."""
        container = self.lp.Container.from_bytes(self.blob)
        part_idx, unique = self.reconstruction()
        points = np.bincount(part_idx, minlength=container.n_parts)
        out = {"sha256": hashlib.sha256(self.blob).hexdigest(),
               "container_bytes": len(self.blob), "distinct_points": len(unique)}
        for n, part in enumerate(container.parts):
            out[f"p{n}.points"] = int(points[n])
            out[f"p{n}.symbols"] = part.symbol_count
            out[f"p{n}.payload_bytes"] = len(part.payload)
        return out


def check_count_record(name: str, seed: int, counts: dict) -> list[str]:
    """Compare counts with earlier runs of the same code and seed, then merge them in."""
    path = STATE / "counts" / f"{fingerprint()}-{name}-seed{seed}.json"
    old = json.loads(path.read_text()) if path.exists() else {}
    diffs = [f"{k}: {old[k]} in an earlier run, {v} now"
             for k, v in counts.items() if k in old and old[k] != v]
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_suffix(".tmp")
    tmp.write_text(json.dumps({**old, **counts}, indent=1, sort_keys=True))
    os.replace(tmp, path)
    return diffs


def host_facts() -> str:
    """Facts that tell a host change from a regression."""
    import platform

    import scipy

    cpu = platform.processor() or platform.machine()
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")), cpu)
    except OSError:
        pass
    return (f"nproc {os.cpu_count()}, {cpu}, Python {platform.python_version()}, "
            f"numpy {np.__version__}, scipy {scipy.__version__}")


def tail_note(xs: list[float]) -> str:
    """Sample count, plus the highest percentile with at least ten samples beyond it."""
    n = len(xs)
    if n < 20:
        return f"n={n}: " + " ".join(f"{x:.4g}" for x in xs)
    p = math.floor(100 * (1 - 10 / n))
    return f"n={n}, p{p} {statistics.quantiles(xs, n=100)[p - 1]:.6g}"


class Runner:
    """Closed-loop cycles of the three operations, with checks and timing."""

    def __init__(self, lp, cloud, cfg, checker: Checker):
        self.lp, self.cloud, self.cfg, self.check = lp, cloud, cfg, checker
        self.attempted = 0
        self.failed = 0

    def _op(self, fn, check, *args):
        """Run one timed operation, then its check; (output, wall s, CPU s), or None if it raised.

        An output that fails its check is counted as failed and still timed.
        """
        self.attempted += 1
        t, c = time.perf_counter(), time.process_time()
        try:
            out = fn(self.lp, *args)
        except Exception:
            self.failed += 1
            traceback.print_exc()
            return None
        wall, cpu = time.perf_counter() - t, time.process_time() - c
        if not check(out):
            self.failed += 1
        return out, wall, cpu

    def _repeat(self, fn, check, *args):
        """Repeat an operation until it has run REPEAT_FLOOR_S; (last output, wall times), None if it raised."""
        times = []
        while not times or sum(times) < REPEAT_FLOOR_S:
            res = self._op(fn, check, *args)
            if res is None:
                return None
            out, seconds, _ = res
            times.append(seconds)
        return out, times

    def cycle(self, encode, decode, evaluate) -> dict[str, list[float]] | None:
        """One encode → decode → evaluate cycle; op times by kind, or None if one raised."""
        enc = self._repeat(encode, self.check.encode, self.cloud, self.cfg)
        dec = enc and self._repeat(decode, self.check.decode, enc[0])
        ev = dec and self._repeat(evaluate, self.check.evaluate, self.cloud, dec[0], self.cfg)
        return ev and {"encode": enc[1], "decode": dec[1], "evaluate": ev[1]}

    def balanced(self, seconds: float) -> dict[str, list[float]] | None:
        """Untraced operations for ``seconds``, each of the kind with the least time so far.

        The first three run in encode → decode → evaluate order, since each
        takes the last output of the one before. After that a kind runs only
        if its last duration fits in the time left, so the run ends within
        ``seconds``, and on sweep64-sph3 a dozen 1.5 s evaluations fill the
        gaps between the 10 s encodes and decodes. Returns op times by kind,
        or None if an operation raised; the run stops there.
        """
        out = {}
        ops = {
            "encode": (encode_op, self.check.encode, lambda: (self.cloud, self.cfg)),
            "decode": (decode_op, self.check.decode, lambda: (out["encode"],)),
            "evaluate": (evaluate_op, self.check.evaluate, lambda: (self.cloud, out["decode"], self.cfg)),
        }
        times = {k: [] for k in (*OP_NAMES, "evaluate_cpu")}
        start = time.perf_counter()
        while True:
            left = seconds - (time.perf_counter() - start)
            fits = [k for k in OP_NAMES if times[k] and times[k][-1] <= left]
            kind = next((k for k in OP_NAMES if k not in out), None)
            if kind is None and not fits:
                break
            kind = kind or min(fits, key=lambda k: sum(times[k]))
            fn, check, args = ops[kind]
            res = self._op(fn, check, *args())
            if res is None:
                return None
            out[kind], wall, cpu = res
            times[kind].append(wall)
            if kind == "evaluate":
                times["evaluate_cpu"].append(cpu)
        return times


def pooled(cycles: list[dict], kind: str) -> list[float]:
    return [t for c in cycles for t in c[kind]]


def end_to_end(check: Checker, cycles: list[dict], setup_times: list[float], cloud) -> dict:
    med = statistics.median
    return {
        "setup_s": (med(setup_times), "s"),
        "encode_s": (med(pooled(cycles, "encode")), "s"),
        "decode_s": (med(pooled(cycles, "decode")), "s"),
        "metrics_cpu_s": (med(pooled(cycles, "evaluate_cpu")), "s"),
        "bpp": (8.0 * len(check.blob) / len(cloud), "bpp"),
        "d1_db": (check.report.d1_db, "dB"),
        "d2_db": (check.report.d2_db, "dB"),
        "cd": (check.report.cd, "m"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }


def per_layer(check: Checker, tracer, plain: list[dict], traced: list[dict]) -> dict:
    """Median self time per layer over the traced operations, part counts and overhead."""
    for msg in tracer.nesting_errors():
        check._fail(msg)
    ops = tracer.op_layers()
    by_layer = defaultdict(list)
    for op in ops:
        for layer, t in op["layers"].items():
            if layer not in OP_NAMES:  # the root span's own time is glue, not a layer
                by_layer[layer].append(t)
    med = statistics.median
    metrics = {f"{layer}_s": (med(ts), "s") for layer, ts in by_layer.items()}
    synth = next(s for s in tracer.spans if s["name"] == "pcio.synth_lidar")
    metrics["pcio.synth_lidar_s"] = (synth["end"] - synth["start"], "s")

    parts = layers.part_counts(tracer)
    total = {k: sum(p[k] for p in parts) for k in parts[0]}
    metrics.update({
        "entropy.us_per_symbol": (1e6 * metrics["entropy.encode_s"][0] / total["symbols"], "us"),
        "coords.points": (total["points"], "count"),
        "coords.voxels": (total["voxels"], "count"),
        "coords.dedup_ratio": (total["voxels"] / total["points"], "ratio"),
        "octree.symbols": (total["symbols"], "count"),
        "entropy.payload_bytes": (total["payload_bytes"], "B"),
        "entropy.bits_per_symbol": (8.0 * total["payload_bytes"] / total["symbols"], "bit"),
        "entropy.contexts_touched": (total["contexts_touched"], "count"),
        "trace.overhead_s": (sum(med(pooled(traced, k)) - med(pooled(plain, k)) for k in OP_NAMES), "s"),
    })
    return metrics


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=55.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-probe", action="store_true",
                    help="time one set-up, print it and exit (used for setup_s)")
    args = ap.parse_args(argv)

    t0 = time.perf_counter()
    lp = import_lidarpcc()
    if args.setup_probe:
        setup(lp, args.workload, args.seed)
        print(time.perf_counter() - t0)
        return 0

    tracer = layers.Tracer() if args.trace else None
    cloud, cfg = setup(lp, args.workload, args.seed, tracer)
    setup_times = [time.perf_counter() - t0]
    if not args.trace:
        setup_times += probe_setup_times(args.workload, args.seed)

    checker = Checker(lp, cloud, cfg, load_pins(args.workload, args.seed))
    runner = Runner(lp, cloud, cfg, checker)
    plain, traced = [], []
    start = time.perf_counter()
    if tracer is None:
        times = runner.balanced(args.seconds)
        if times:
            plain.append(times)
    else:
        while True:
            t = time.perf_counter()
            times = runner.cycle(encode_op, decode_op, evaluate_op)
            if times:
                plain.append(times)
            # the traced cycle's encode is checked against the plain cycle's container
            times = runner.cycle(*layers.traced_ops(tracer))
            if times:
                traced.append(times)
            now = time.perf_counter()
            if now - start + (now - t) > args.seconds:  # the next pair would not fit
                break
    elapsed = time.perf_counter() - start
    if not plain or (tracer is not None and not traced):
        raise SystemExit("perfbench: no cycle completed")

    counts = checker.counts()
    if tracer is None:
        metrics = end_to_end(checker, plain, setup_times, cloud)
    else:
        metrics = per_layer(checker, tracer, plain, traced)
        for n, part in enumerate(layers.part_counts(tracer)):
            for k, v in part.items():
                key = f"p{n}.{k}"
                if counts.setdefault(key, v) != v:
                    checker._fail(f"{key}: {v} in the traced encode, {counts[key]} in the container")
        STATE.mkdir(exist_ok=True)
        spans = [{**s, "start": s["start"] - t0, "end": s["end"] - t0} for s in tracer.spans]
        (STATE / f"spans-{args.workload}-seed{args.seed}.json").write_text(json.dumps(spans))
    count_diffs = check_count_record(args.workload, args.seed, counts)

    print(f"{args.workload} seed {args.seed}: {elapsed:.1f} s measured, "
          f"{runner.attempted} operations, {runner.failed} failed, trace {args.trace}")
    print(f"  host: {host_facts()}")
    if tracer is not None:
        ops = tracer.op_layers()
        gap = max(abs(op["duration"] - sum(op["layers"].values())) for op in ops)
        print(f"  {len(tracer.spans)} spans in {len(ops)} traced operations; each operation's "
              f"layer self times add up to its duration within {gap:.1e} s")
    notes = {"setup_s": f"median of {len(setup_times)} set-ups"}
    if tracer is None:
        notes.update({f"{k}_s": tail_note(pooled(plain, op))
                      for k, op in (("encode", "encode"), ("decode", "decode"), ("metrics_cpu", "evaluate_cpu"))})
        # not gated: wall time of the multi-threaded evaluate (see the module docstring)
        metrics_wall = statistics.median(pooled(plain, "evaluate"))
    for key, (value, unit) in metrics.items():
        note = notes.get(key, "")
        print(f"  {key:28s} {value:12.6g} {unit:6s} {note}")
        if key == "metrics_cpu_s":
            print(f"  {'metrics_s':28s} {metrics_wall:12.6g} {'s':6s} "
                  f"{tail_note(pooled(plain, 'evaluate'))} (wall, not gated)")
    print(f"  {'failed_frac':28s} {runner.failed / max(runner.attempted, 1):12.6g} 1      "
          f"{runner.failed}/{runner.attempted} operations")
    print("  counts: " + ", ".join(f"{k}={v}" for k, v in counts.items() if k != "sha256"))
    problems = checker.failures + count_diffs
    for msg in dict.fromkeys(problems):
        print(f"  CHECK FAILED: {msg}")

    print(json.dumps({
        "correct": not problems and runner.failed == 0,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
