"""Percentiles and the per-layer metrics read from a trace."""

from __future__ import annotations

import math


def percentile(values, q: float) -> float:
    """Linear-interpolated ``q``-th percentile (0-100), as numpy's default."""
    ordered = sorted(values)
    if not ordered:
        raise ValueError("percentile of no values")
    pos = (len(ordered) - 1) * q / 100.0
    lo = math.floor(pos)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo)


def hd_quantile(values, p: float) -> float:
    """Harrell-Davis estimate of the ``p``-quantile (0-1): a weighted mean
    of all order statistics, with weights from the Beta(p(n+1), (1-p)(n+1))
    distribution.  Where few latencies lie near the quantile, it does not
    jump between two neighbours as the interpolated order statistic does.
    """
    import numpy as np

    x = np.sort(np.asarray(values, dtype=float))
    n = len(x)
    a, b = p * (n + 1), (1 - p) * (n + 1)
    grid = np.linspace(0.0, 1.0, 200_001)[1:-1]
    log_pdf = (a - 1) * np.log(grid) + (b - 1) * np.log1p(-grid)
    pdf = np.exp(log_pdf - log_pdf.max())
    cdf = np.concatenate([[0.0], np.cumsum((pdf[1:] + pdf[:-1]) / 2)])
    cdf /= cdf[-1]
    edges = np.interp(np.arange(n + 1) / n, grid, cdf)
    return float(np.dot(np.diff(edges), x))


def e2e(latencies_s: list[float], timed_s: float, setup_s: float,
        rss_mb: float) -> dict:
    """The end-to-end metrics from op latencies and the timed wall time."""
    ms = [x * 1e3 for x in latencies_s]
    return {"ops_per_s": len(ms) / timed_s, "p50_ms": hd_quantile(ms, 0.5),
            "p90_ms": hd_quantile(ms, 0.9), "setup_s": setup_s,
            "peak_rss_mb": rss_mb}


def scaled_e2e(latencies_s: list[float], factors: list[float],
               timed_s: float, timed_factor: float, setup_s: float,
               rss_mb: float) -> tuple[dict, dict]:
    """(reference-host metrics, raw metrics): latency ``i`` is scaled by
    ``factors[i]`` and the timed wall time by ``timed_factor``."""
    scaled = [x * f for x, f in zip(latencies_s, factors)]
    return (e2e(scaled, timed_s * timed_factor, setup_s, rss_mb),
            e2e(latencies_s, timed_s, setup_s, rss_mb))


# name -> unit, in the order BENCHMARK.json lists them
PER_LAYER = {
    "verilog.lex_ms": "ms/op",
    "verilog.parse_ms": "ms/op",
    "verilog.elaborate_ms": "ms/op",
    "hdl.elaborate_ms": "ms/op",
    "sampler.sample_ms": "ms/op",
    "circuitformer.predict_ms": "ms/op",
    "circuitformer.sequences": "count/op",
    "circuitformer.us_per_seq": "us",
    "aggregator.ms": "ms/op",
    "runtime.self_ms": "ms/op",
    "store.put_us": "us/call",
    "store.get_us": "us/call",
    "store.hit_rate": "ratio",
    "serve.warm_p50_ms": "ms",
    "serve.cold_p50_ms": "ms",
    "serve.handler_p50_ms": "ms",
    "serve.queue_wait_ms": "ms",
    "serve.compile_ms": "ms/request",
    "serve.batch_size": "count",
    "serve.deadline_flushes": "count",
    "trainer.forward_ms": "ms/epoch",
    "trainer.backward_ms": "ms/epoch",
    "trainer.optimizer_ms": "ms/epoch",
    "trainer.validation_ms": "ms/epoch",
    "trainer.pad_share": "ratio",
    "trainer.peak_alloc_mb": "MB",
    "synth.label_ms": "ms/design",
    "host.calib_ms": "ms",
}


def scaled_layers(layers: dict, scale: float, calib_ms: float) -> dict:
    """Per-layer metrics with every time scaled to the reference host;
    ``host.calib_ms`` is the raw median of the host-speed kernel."""
    out = {name: value * scale if PER_LAYER[name].startswith(("ms", "us"))
           else value for name, value in layers.items()}
    out["host.calib_ms"] = calib_ms
    return out


def layer_metrics(snap: dict, ops: int, extra: dict | None = None) -> dict:
    """Per-layer metrics from a :meth:`Tracer.snapshot`.

    Times are per op of the workload unless the unit says per call; a
    layer the workload never calls reads 0.  ``extra`` supplies metrics
    measured outside the trace (server counters, client latencies).
    """
    total, child = snap["total"], snap["child"]
    calls, counts = snap["calls"], snap["counts"]

    def t(name):
        return total.get(name, 0.0)

    def self_t(name):
        return t(name) - child.get(name, 0.0)

    def per_call_us(name):
        return 1e6 * t(name) / calls[name] if calls.get(name) else 0.0

    per_op = 1e3 / ops
    seqs = counts.get("circuitformer.sequences", 0)
    padded = counts.get("trainer.padded_cells", 0)
    waits = counts.get("serve.queue_waits", 0)
    out = {
        "verilog.lex_ms": t("verilog.lex") * per_op,
        "verilog.parse_ms": self_t("verilog.parse") * per_op,
        "verilog.elaborate_ms": t("verilog.elaborate") * per_op,
        "hdl.elaborate_ms": t("hdl.elaborate") * per_op,
        "sampler.sample_ms": t("sampler.sample") * per_op,
        "circuitformer.predict_ms": t("circuitformer.predict") * per_op,
        "circuitformer.sequences": seqs / ops,
        "circuitformer.us_per_seq": (1e6 * t("circuitformer.predict") / seqs
                                     if seqs else 0.0),
        "aggregator.ms": self_t("aggregator") * per_op,
        "runtime.self_ms": self_t("runtime.predict_batch") * per_op,
        "store.put_us": per_call_us("store.put"),
        "store.get_us": per_call_us("store.get"),
        "store.hit_rate": 0.0,
        "serve.warm_p50_ms": 0.0,
        "serve.cold_p50_ms": 0.0,
        "serve.handler_p50_ms": 0.0,
        "serve.queue_wait_ms": (1e3 * counts["serve.queue_wait_s"] / waits
                                if waits else 0.0),
        "serve.compile_ms": t("serve.compile") * per_op,
        "serve.batch_size": 0.0,
        "serve.deadline_flushes": 0.0,
        "trainer.forward_ms": t("trainer.forward") * per_op,
        "trainer.backward_ms": t("trainer.backward") * per_op,
        "trainer.optimizer_ms": t("trainer.optimizer") * per_op,
        "trainer.validation_ms": t("trainer.validation") * per_op,
        "trainer.pad_share": (counts.get("trainer.real_cells", 0) / padded
                              if padded else 0.0),
        "trainer.peak_alloc_mb": 0.0,
        "synth.label_ms": 0.0,
    }
    out.update(extra or {})
    return out


def merge_snapshots(snaps: list[dict]) -> dict:
    merged: dict = {"calls": {}, "total": {}, "child": {}, "counts": {}}
    for snap in snaps:
        for table, values in snap.items():
            for name, value in values.items():
                merged[table][name] = merged[table].get(name, 0) + value
    return merged
