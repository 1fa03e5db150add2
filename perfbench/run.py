"""End-to-end benchmark of the SNS reproduction.

Usage (from the root of a checkout)::

    python3 perfbench/run.py --workload predict-cold --seed 1 --seconds 15 --trace 0

Workloads: ``predict-cold``, ``serve-mix`` and ``train-epoch`` (see
README.md).  With ``--trace 0`` the last line of standard output is a
JSON object holding every end-to-end metric; with ``--trace 1`` a
separate traced run reports every per-layer metric instead.  Every run
also appends one JSON line to the run record (``--record``), which
``compare.py`` reads.

This script uses only the standard library.  It runs the program from
``src`` in child processes, each with BLAS pinned to one thread:

- the model the predict workloads load is trained once per program
  source (``build_model.py``) and kept under ``.bench_build/``;
- ``predict-cold`` and ``train-epoch`` start four set-up-only processes
  and then the measuring process, and report the median set-up time of
  the five;
- ``serve-mix`` starts one server per round (``serve_mix.py``).

Every reported time is scaled to the reference host of ``calib.py``:
each process times a fixed kernel that does not use the program between
its ops, and a time is multiplied by the kernel's reference time over the
median of the kernel times taken next to it in the process that measured
it.  The run record keeps the raw times beside the scaled ones.

It exits with status 2, printing no result, when the program's source
is missing.
"""

from __future__ import annotations

import argparse
import datetime
import hashlib
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

from stats import PER_LAYER, scaled_layers

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
BUILD = ROOT / ".bench_build" / "perfbench"

WORKLOADS = ("predict-cold", "serve-mix", "train-epoch")
E2E_UNITS = {"ops_per_s": "1/s", "p50_ms": "ms", "p90_ms": "ms",
             "setup_s": "s", "peak_rss_mb": "MB"}
SETUP_PROBES = 4
RUN_BUDGET_S = 170.0
BUILD_BUDGET_S = 600.0


def source_digest() -> str:
    """SHA-256 over the program's Python sources (names and contents)."""
    h = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        h.update(str(path.relative_to(SRC)).encode() + b"\0")
        h.update(path.read_bytes() + b"\0")
    return h.hexdigest()


def git_commit() -> str | None:
    if not (ROOT / ".git").exists():
        return None
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() or None


def pinned_env() -> dict:
    env = dict(os.environ)
    env.update(PYTHONPATH=str(SRC), PYTHONHASHSEED="0",
               OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1",
               MKL_NUM_THREADS="1")
    return env


def run_child(cmd: list[str], timeout: float, cwd: Path) -> None:
    """Run ``cmd`` in a process group of its own, so that a timeout also
    stops the servers a worker started."""
    proc = subprocess.Popen(cmd, env=pinned_env(), cwd=cwd,
                            start_new_session=True)
    try:
        code = proc.wait(timeout=timeout)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        raise RuntimeError(f"timed out after {timeout:.0f}s: {cmd[1:3]}")
    if code != 0:
        raise RuntimeError(f"exit status {code}: {cmd[1:3]}")


def ensure_model(digest: str) -> Path:
    """The model file for this program source and this build script."""
    key = hashlib.sha256(digest.encode()
                         + (HERE / "build_model.py").read_bytes()).hexdigest()
    model = BUILD / f"model-{key[:16]}.npz"
    if not model.exists():
        run_child([sys.executable, str(HERE / "build_model.py"), str(model)],
                  BUILD_BUDGET_S, BUILD)
    return model


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--record", default=str(BUILD / "runs.jsonl"),
                    help="file the run record line is appended to")
    args = ap.parse_args()

    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"error: program source not found under {SRC}", file=sys.stderr)
        return 2
    BUILD.mkdir(parents=True, exist_ok=True)
    digest = source_digest()
    model = ensure_model(digest)

    start = time.monotonic()
    workdir = BUILD / f"run-{os.getpid()}"
    workdir.mkdir(exist_ok=True)

    def worker(setup_only: bool) -> dict:
        out = workdir / f"result-{time.monotonic_ns()}.json"
        cmd = [sys.executable, str(HERE / "workloads.py"),
               "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace),
               "--model", str(model), "--workdir", str(workdir),
               "--out", str(out), "--t0", repr(time.monotonic())]
        if setup_only:
            cmd.append("--setup-only")
        run_child(cmd, RUN_BUDGET_S - (time.monotonic() - start), ROOT)
        return json.loads(out.read_text())

    try:
        probes = ([] if args.workload == "serve-mix" else
                  [worker(True) for _ in range(SETUP_PROBES)])
        result = worker(False)
    except RuntimeError as exc:
        print(f"error: {args.workload} worker failed: {exc}", file=sys.stderr)
        return 1
    shutil.rmtree(workdir, ignore_errors=True)
    # The worker scaled its op times; set-up times are scaled here, each
    # by the plain kernel's median in the process that set up or, for
    # serve-mix, that started the servers.
    e2e, raw = result["e2e"], result["raw_e2e"]
    scale = result["scale"]
    raw_setups = ([p["setup_s"] for p in probes]
                  + result.get("setup_samples", [raw["setup_s"]]))
    setups = ([p["setup_s"] * p["scale"] for p in probes]
              + [s * result.get("setup_scale", scale)
                 for s in raw_setups[len(probes):]])
    e2e["setup_s"] = statistics.median(setups)
    raw["setup_s"] = statistics.median(raw_setups)
    layers = (scaled_layers(result["layers"], scale, result["calib_ms"])
              if args.trace else None)

    for problem in result["problems"]:
        print(f"check failed: {problem}", file=sys.stderr)
    if args.trace:
        metrics = {name: {"value": layers[name], "unit": unit}
                   for name, unit in PER_LAYER.items()}
    else:
        metrics = {name: {"value": e2e[name], "unit": unit}
                   for name, unit in E2E_UNITS.items()}
    # Every check failure is counted in ``failed``, so the ops that did
    # not fail are correct by construction once the checks have run.
    summary = {"correct": True, "attempted": result["attempted"],
               "failed": result["failed"], "metrics": metrics}

    record = {
        "time": datetime.datetime.now(datetime.timezone.utc).isoformat(),
        "commit": git_commit(), "source_sha256": digest,
        "workload": args.workload, "seed": args.seed,
        "seconds": args.seconds, "trace": args.trace,
        "nproc": os.cpu_count(), **result["env"],
        "attempted": result["attempted"], "failed": result["failed"],
        "calib_ms": result["calib_ms"], "scale": scale,
        "setup_samples": setups, "raw_setup_samples": raw_setups,
        "e2e": e2e, "raw_e2e": raw,
        "layers": layers, "raw_layers": result.get("layers"),
    }
    with open(args.record, "a") as f:
        f.write(json.dumps(record) + "\n")
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())
