"""One benchmark process: set up a workload, time its ops, check outputs.

Started by ``run.py`` with the program's ``src`` on ``PYTHONPATH`` and
BLAS pinned to one thread.  ``--t0`` is the orchestrator's
``time.monotonic()`` just before it started this process, so set-up time
counts interpreter start and imports.  With ``--setup-only`` the process
reports its set-up time and exits (the orchestrator takes the median of
several set-ups).  The result is one JSON document written to ``--out``.

Workloads (an op is the unit latencies and ``ops_per_s`` count):

- ``predict-cold``: one op is one registry design in one form (its HDL
  ``Module``, or Verilog text emitted from it in set-up and compiled
  with ``compile_source``) through ``BatchPredictor.predict_batch``.
  Every pass runs all 82 ops in a seeded order on a fresh predictor.
- ``train-epoch``: one op is one Circuitformer epoch through
  ``train_circuitformer`` with the default ``TrainingConfig``; the
  model carries over between ops.
- ``serve-mix``: see ``serve_mix.py``.

Every process times the host-speed kernel of ``calib.py`` between its
ops (outside their timing) and reports the kernel's median as
``calib_ms``; ``run.py`` scales the measured times with it.
"""

from __future__ import annotations

import argparse
import json
import math
import resource
import sys
import time
from pathlib import Path

import numpy as np

import checks
from calib import Calibrator
from stats import layer_metrics, scaled_e2e
from tracer import Tracer, install

# Small registry designs from seven families.  Their paths are sampled
# with a fixed sampler seed, so every run trains on the same dataset and
# every epoch does the same work; ``--seed`` sets the model's initial
# weights and the validation split and batch order.
TRAIN_DESIGNS = ("gpio16", "simd4x32", "fft16", "mergesort8", "lut128x8",
                 "sodor32", "gemm4x4")
DATASET_SEED = 0
SETUP_CALIB_SAMPLES = 100
EPOCH_CALIB_SAMPLES = 20
# An op is scaled by the kernel times of the ops this many places either
# side of it.
OP_WINDOW = {"predict-cold": 1, "train-epoch": 1}


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def model_weights(model) -> dict:
    return {k: np.array(v) for k, v in model.state_dict().items()}


def token_ids(vocab) -> dict[str, int]:
    return {t: i + checks.NUM_SPECIAL for i, t in enumerate(vocab.tokens)}


# ---------------------------------------------------------------------- #
# predict-cold
# ---------------------------------------------------------------------- #
def timed_metrics(cal, latencies, per_op, workload, setup_s) -> dict:
    """``e2e`` scaled to the reference host, op by op, and ``raw_e2e``."""
    fs = cal.factors(per_op, OP_WINDOW[workload])
    timed = sum(latencies)
    timed_factor = sum(x * f for x, f in zip(latencies, fs)) / timed
    scaled, raw = scaled_e2e(latencies, fs, timed, timed_factor, setup_s,
                             peak_rss_mb())
    return {"e2e": scaled, "raw_e2e": raw}


def setup_only(setup_s: float) -> dict:
    cal = Calibrator()
    cal.sample(SETUP_CALIB_SAMPLES)
    return {"setup_s": setup_s, "calib_ms": cal.median_ms(),
            "scale": cal.scale()}


def predict_cold(args, tracer: Tracer | None) -> dict:
    from repro.core.persistence import load_sns
    from repro.designs import standard_designs
    from repro.runtime import BatchPredictor, compile_source
    from repro.verilog import emit_verilog

    sns = load_sns(args.model)
    entries = standard_designs()
    sources = {e.name: emit_verilog(e.module.elaborate()) for e in entries}
    ops = [(e, form) for e in entries for form in ("module", "verilog")]
    rng = np.random.default_rng(args.seed)
    setup_s = time.monotonic() - args.t0
    if args.setup_only:
        return setup_only(setup_s)

    cf = sns.circuitformer
    weights, ids_of = model_weights(cf), token_ids(cf.vocab)
    module_graphs: dict[str, object] = {}
    first: dict[tuple[str, str], tuple] = {}
    latencies, timed, failed, problems = [], 0.0, 0, []
    hit_rates = []
    cal, per_op = Calibrator(), []
    if tracer is not None:
        tracer.reset()
    passes = 0
    while passes < 2 or timed < args.seconds:
        predictor = BatchPredictor(sns)
        order = rng.permutation(len(ops))
        results = []
        for i in order:
            entry, form = ops[i]
            per_op.append(cal.sample())
            start = time.perf_counter()
            if form == "module":
                graph = None
                pred = predictor.predict_batch([entry.module])[0]
            else:
                graph = compile_source(sources[entry.name])
                pred = predictor.predict_batch([graph])[0]
            latencies.append(time.perf_counter() - start)
            timed += latencies[-1]
            results.append((entry, form, graph, pred))
        passes += 1
        hit_rates.append(predictor.cache.store.stats()["hit_rate"])

        # Checks, outside the timed pass and the trace.
        if tracer is not None:
            tracer.enabled = False
        bad_ops = set()
        for entry, form, graph, pred in results:
            module_graph = module_graphs.get(entry.name)
            if module_graph is None:
                module_graph = module_graphs[entry.name] = \
                    entry.module.elaborate_compiled()
            bad = checks.check_values(pred.timing_ps, pred.area_um2,
                                      pred.power_mw, pred.num_paths,
                                      sns.sampler.max_paths)
            cp = pred.critical_path
            bad += (["no critical path"] if cp is None else
                    checks.check_critical_path(graph or module_graph,
                                               cp.node_ids, cp.tokens))
            if form == "verilog":
                bad += checks.check_verilog_matches_module(graph, module_graph)
            key = (pred.timing_ps, pred.area_um2, pred.power_mw,
                   pred.num_paths, None if cp is None else cp.node_ids)
            if first.setdefault((entry.name, form), key) != key:
                bad.append("prediction differs from the first pass")
            if bad:
                bad_ops.add((entry.name, form))
                problems.append(f"{entry.name}/{form}: {bad}")
        # The Circuitformer on a seeded sample of this pass's sequences
        # against the numpy forward over the model's weights.
        for i in rng.choice(len(entries), size=4, replace=False):
            entry = entries[int(i)]
            seqs = sorted({p.tokens for p in
                           sns.sampler.sample(module_graphs[entry.name])})
            pick = [seqs[int(j)] for j in
                    rng.choice(len(seqs), size=min(8, len(seqs)), replace=False)]
            got = cf.predict_unique(pick)
            ids, mask = checks.encode(pick, ids_of)
            want = checks.physical(
                checks.circuitformer_forward(weights, ids, mask,
                                             cf.config.attention_heads),
                cf.scaler.mean, cf.scaler.std)
            bad = checks.check_forward(want, got)
            if bad:
                bad_ops.add((entry.name, "module"))
                problems.append(f"{entry.name}/forward: {bad}")
        failed += len(bad_ops)
        if tracer is not None:
            tracer.enabled = True

    result = {"attempted": len(latencies), "failed": failed,
              "problems": problems[:20], "calib_ms": cal.median_ms(),
              "scale": cal.scale(),
              **timed_metrics(cal, latencies, per_op, args.workload, setup_s)}
    if tracer is not None:
        result["layers"] = layer_metrics(
            tracer.snapshot(), ops=len(latencies),
            extra={"store.hit_rate": float(np.mean(hit_rates))})
    return result


# ---------------------------------------------------------------------- #
# train-epoch
# ---------------------------------------------------------------------- #
def mse(weights, cf, records, ids_of) -> float:
    labels = np.stack([r.labels for r in records])
    scaler = type(cf.scaler).fit(labels)
    ids, mask = checks.encode([r.tokens for r in records], ids_of)
    pred = checks.circuitformer_forward(weights, ids, mask,
                                        cf.config.attention_heads)
    return float(np.mean((pred - scaler.transform(labels)) ** 2))


def train_epoch(args, tracer: Tracer | None) -> dict:
    from repro.core import PathSampler, TrainingConfig
    from repro.core.circuitformer import Circuitformer
    from repro.core.training import train_circuitformer
    from repro.datagen import build_design_dataset, sample_path_dataset
    from repro.designs import get_design
    from repro.synth import Synthesizer

    synth = Synthesizer(effort="low")
    designs = build_design_dataset([get_design(n) for n in TRAIN_DESIGNS], synth)
    records = sample_path_dataset(designs, sampler=PathSampler(seed=DATASET_SEED),
                                  synthesizer=synth)
    model = Circuitformer(seed=args.seed)
    initial = model_weights(model)
    config = TrainingConfig(circuitformer_epochs=1, seed=args.seed)
    # The first epoch pays one-off allocation costs (~2x a later one);
    # it runs in set-up so that every timed epoch does the same work.
    history = train_circuitformer(model, records, config)
    setup_s = time.monotonic() - args.t0
    if args.setup_only:
        return setup_only(setup_s)

    label = {}
    if tracer is not None:
        snap = tracer.snapshot()
        label = {"synth.label_ms": 1e3 * snap["total"].get("synth.synthesize", 0.0)
                 / max(1, snap["calls"].get("synth.synthesize", 0))}
        tracer.reset()
    latencies, timed = [], 0.0
    cal, per_op = Calibrator(), []
    while len(latencies) < 2 or timed < args.seconds:
        per_op.append(cal.sample(EPOCH_CALIB_SAMPLES))
        start = time.perf_counter()
        history += train_circuitformer(model, records, config)
        latencies.append(time.perf_counter() - start)
        timed += latencies[-1]

    failed, problems = 0, []
    for stats in history[1:]:
        if not (math.isfinite(stats.train_loss) and math.isfinite(stats.val_loss)):
            failed += 1
            problems.append(f"non-finite loss: {stats}")
    ids_of = token_ids(model.vocab)
    before = mse(initial, model, records, ids_of)
    after = mse(model_weights(model), model, records, ids_of)
    if not after < before:
        failed = len(latencies)
        problems.append(f"trained MSE {after} is not below initial {before}")

    result = {"attempted": len(latencies), "failed": failed,
              "problems": problems[:20], "calib_ms": cal.median_ms(),
              "scale": cal.scale(),
              **timed_metrics(cal, latencies, per_op, args.workload, setup_s)}
    if tracer is not None:
        snap = tracer.snapshot()
        import tracemalloc

        tracemalloc.start()
        train_circuitformer(model, records, config)
        peak = tracemalloc.get_traced_memory()[1]
        tracemalloc.stop()
        label["trainer.peak_alloc_mb"] = peak / 2 ** 20
        result["layers"] = layer_metrics(snap, ops=len(latencies), extra=label)
    return result


# ---------------------------------------------------------------------- #
def blas_info() -> dict:
    """OpenBLAS version and live thread count, read from numpy's bundle."""
    import ctypes
    import glob
    import os

    info = {"numpy": np.__version__, "openblas": None, "blas_threads": None}
    libs = glob.glob(os.path.join(os.path.dirname(np.__file__), "..",
                                  "numpy.libs", "lib*openblas*"))
    for path in libs:
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for prefix in ("scipy_openblas", "openblas"):
            for suffix in ("64_", ""):
                threads = getattr(lib, f"{prefix}_get_num_threads{suffix}", None)
                config = getattr(lib, f"{prefix}_get_config{suffix}", None)
                if threads is not None and config is not None:
                    threads.restype = ctypes.c_int
                    config.restype = ctypes.c_char_p
                    info["blas_threads"] = threads()
                    info["openblas"] = config().decode()
                    return info
    return info


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True,
                    choices=("predict-cold", "train-epoch", "serve-mix"))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, default=0)
    ap.add_argument("--model")
    ap.add_argument("--t0", type=float, required=True)
    ap.add_argument("--out", required=True)
    ap.add_argument("--workdir")
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args()

    tracer = None
    if args.trace and not args.setup_only and args.workload != "serve-mix":
        tracer = Tracer()
        install(tracer)
    if args.workload == "predict-cold":
        result = predict_cold(args, tracer)
    elif args.workload == "train-epoch":
        result = train_epoch(args, tracer)
    else:
        from serve_mix import serve_mix

        result = serve_mix(args)
    result["env"] = {"python": sys.version.split()[0], **blas_info()}
    Path(args.out).write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
