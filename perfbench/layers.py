"""Traced, layer-by-layer mirror of one encode → decode → evaluate cycle.

Each call into a lidarpcc layer is wrapped in a span, in the order
``encode_cloud``, ``decode_cloud`` and ``compute_report`` make those calls.
The occupancy stream is materialised as a list, so context derivation
(``octree.contexts``) and range coding (``entropy.encode``) are timed apart.
Spans stay in memory; the caller writes them out when the run ends.
"""

from __future__ import annotations

import time
from collections import defaultdict
from contextlib import contextmanager
from functools import partial

import numpy as np


class Tracer:
    """In-memory spans: name, start, end, parent span and operation id."""

    def __init__(self):
        self.spans: list[dict] = []
        self._stack: list[int] = []
        self._op: int | None = None
        self._next_op = 0

    @contextmanager
    def span(self, name: str, **attrs):
        rec = {
            "id": len(self.spans),
            "name": name,
            "parent": self._stack[-1] if self._stack else None,
            "op": self._op,
            "start": time.perf_counter(),
            "end": None,
            **attrs,
        }
        self.spans.append(rec)
        self._stack.append(rec["id"])
        try:
            yield rec
        finally:
            rec["end"] = time.perf_counter()
            self._stack.pop()

    @contextmanager
    def operation(self, name: str):
        """Root span of one benchmark operation; its spans share an op id."""
        self._op, self._next_op = self._next_op, self._next_op + 1
        try:
            with self.span(name) as rec:
                yield rec
        finally:
            self._op = None

    def nesting_errors(self) -> list[str]:
        """Spans that leave their parent or overlap an earlier sibling.

        Without such spans the self times of an operation's spans tile its
        root span, so they add up to the operation's duration.
        """
        errors, last_end = [], {}
        for s in self.spans:
            p = s["parent"]
            if p is None:
                continue
            parent = self.spans[p]
            if s["start"] < max(parent["start"], last_end.get(p, parent["start"])) or s["end"] > parent["end"]:
                errors.append(f"span {s['id']} {s['name']} is not nested in span {p} {parent['name']}")
            last_end[p] = s["end"]
        return errors

    def self_times(self) -> dict[int, float]:
        """Span id → duration minus the time its child spans cover."""
        own = {s["id"]: s["end"] - s["start"] for s in self.spans}
        for s in self.spans:
            if s["parent"] is not None:
                own[s["parent"]] -= s["end"] - s["start"]
        return own

    def op_layers(self) -> list[dict]:
        """Per operation: its name, duration and self time per layer name."""
        own = self.self_times()
        layers = defaultdict(lambda: defaultdict(float))
        for s in self.spans:
            if s["op"] is not None:
                layers[s["op"]][s["name"]] += own[s["id"]]
        return [
            {"op": s["op"], "name": s["name"], "duration": s["end"] - s["start"],
             "layers": dict(layers[s["op"]])}
            for s in self.spans if s["parent"] is None and s["op"] is not None
        ]


@contextmanager
def traced_attr(tracer: Tracer, module, attr: str, name: str):
    """Wrap ``module.attr`` in a span for the duration of the block.

    Used for a layer call nested inside another public function, such as the
    normal estimation inside ``d2_details``.
    """
    orig = getattr(module, attr)

    def wrapper(*args, **kwargs):
        with tracer.span(name):
            return orig(*args, **kwargs)

    setattr(module, attr, wrapper)
    try:
        yield
    finally:
        setattr(module, attr, orig)


def traced_ops(tracer: Tracer):
    """The traced encode, decode and evaluate, with the untraced ops' signatures."""
    return (partial(encode, tracer=tracer), partial(decode, tracer=tracer),
            partial(evaluate, tracer=tracer))


def part_counts(tracer: Tracer) -> list[dict]:
    """Per-part counts recorded by the latest traced encode."""
    return next(s["parts"] for s in reversed(tracer.spans) if s["name"] == "encode")


def encode(lp, cloud, cfg, *, tracer: Tracer) -> bytes:
    """``encode_cloud`` plus ``to_bytes``, one layer call per span.

    The root span also records per-part counts, including the distinct
    context keys each part's stream touched (counted after the span ends).
    """
    entropy = lp.entropy
    parts_info = []
    streams = []
    with tracer.operation("encode") as op:
        with tracer.span("coords.derive_steps"):
            q, rho_override = lp.codec.resolve_step(cfg, cloud)
            steps = lp.derive_steps(cfg.system, q, cloud, rho_override)
        with tracer.span("octree.partition"):
            if cfg.parts.n_parts == 1:
                parts = [cloud]
            else:
                parts = lp.partition_multilevel(cloud, cfg.parts, steps.rho_max, cfg.system)
        records = []
        for n, part in enumerate(parts):
            if len(part) == 0:
                records.append(lp.codec.PartRecord(0, True, b""))
                parts_info.append({"points": 0, "voxels": 0, "symbols": 0, "payload_bytes": 0})
                streams.append([])
                continue
            st = lp.octree.part_steps(steps, n)
            with tracer.span("coords.quantize", part=n):
                qc = lp.quantize(part, st)
            with tracer.span("octree.build", part=n):
                tree = lp.build(qc)
            with tracer.span("octree.contexts", part=n):
                stream = list(lp.occupancy_stream(tree))
            with tracer.span("entropy.encode", part=n):
                bs = entropy.encode(stream, entropy.AdaptiveContextModel())
            records.append(lp.codec.PartRecord(tree.node_count, False, bs.data))
            parts_info.append({
                "points": len(part), "voxels": len(qc.indices),
                "symbols": tree.node_count, "payload_bytes": len(bs.data),
            })
            streams.append(stream)
        with tracer.span("codec.pack"):
            blob = lp.Container(
                cfg.system, steps.depth, steps.q_primary, steps.rho_max, steps.origin_offset,
                cfg.parts.thresholds[: cfg.parts.n_parts], tuple(records), len(cloud),
            ).to_bytes()
    key = entropy.AdaptiveContextModel.context_key
    for info, stream in zip(parts_info, streams):
        info["contexts_touched"] = len({key(ctx) for _, ctx in stream})
    op["parts"] = parts_info
    return blob


def decode(lp, blob: bytes, *, tracer: Tracer):
    """``Container.from_bytes`` plus ``decode_cloud``, one layer call per span."""
    entropy = lp.entropy
    with tracer.operation("decode"):
        with tracer.span("codec.unpack"):
            container = lp.Container.from_bytes(blob)
            steps = container.base_steps()
        chunks = []
        for n, part in enumerate(container.parts):
            if part.empty:
                continue
            st = lp.octree.part_steps(steps, n)
            with tracer.span("entropy.decode", part=n):
                cursor = lp.ContextCursor(st.depth)
                bs = entropy.Bitstream(part.payload, 8 * len(part.payload))
                symbols = entropy.decode(bs, entropy.AdaptiveContextModel(), cursor, part.symbol_count)
                if cursor.pending():
                    raise lp.CorruptStreamError(f"part {n}: {cursor.pending()} nodes left undecoded")
            with tracer.span("octree.rebuild", part=n):
                tree = lp.rebuild(symbols, st.depth)
            with tracer.span("octree.leaf_indices", part=n):
                leaves = lp.leaf_indices(tree)
            with tracer.span("coords.dequantize", part=n):
                chunks.append(lp.dequantize(lp.QuantizedCloud(leaves, st, part.symbol_count)).points)
        return lp.PointCloud(np.concatenate(chunks, axis=0))


def evaluate(lp, cloud, rec, cfg, *, tracer: Tracer):
    """``compute_report`` (D2, D1, Chamfer in its order) plus ``empirical_error``.

    The self time of ``metrics.d2`` excludes the normal estimation inside it,
    which is its own ``metrics.normals`` span.
    """
    metrics = lp.metrics
    mcfg = metrics.MetricConfig()
    with tracer.operation("evaluate"):
        with traced_attr(tracer, metrics, "estimate_normals", "metrics.normals"):
            with tracer.span("metrics.d2"):
                detail = metrics.d2_details(cloud, rec, mcfg)
        with tracer.span("metrics.d1"):
            d1 = metrics.d1_psnr(cloud, rec, mcfg)
        with tracer.span("metrics.chamfer"):
            cd = metrics.chamfer(cloud, rec, mcfg)
        with tracer.span("analysis.empirical_error"):
            err = lp.empirical_error(cloud, cfg)
    report = metrics.MetricReport(d1, detail.db, cd, None, detail.degenerate_normals, mcfg)
    return report, err
