"""The ``serve-mix`` workload: a closed-loop client against ``repro serve``.

Each round starts ``python -m repro serve MODEL --port 0`` with default
settings in a process of its own and waits until ``/healthz`` answers
(one set-up sample).  One closed-loop keep-alive client then sends the
round's requests; the server's peak RSS is read and the server is
stopped.  Set-up time and peak RSS are the medians over the rounds.
Every round sends the same seeded requests, so each round does the same
work:

- first every (design, activity map) key once, in a seeded order: 41
  registry designs x 3 maps (ungated; 64 seeded registers at half the
  default register activity; 64 seeded registers at seeded activities
  below the default), 123 first touches;
- then 369 repeats in a seeded order, each key as often as a Zipf law
  over a fixed ranking of the keys gives it, so three quarters of the
  requests repeat an earlier one and every seed does the same work.

One op is one ``/predict`` request.  A repeat is answered from the
server's ``ArtifactStore``.  A first touch runs the pipeline: all of it
for a design's first map, the Circuitformer and aggregation for its
other two maps (graph and paths are then in the store).  The median
lies among the repeats and the 90th percentile among the first touches,
each away from the edge between the two.

Why one client: with two, on a 2-vCPU host, the two client threads, the
server's event loop and its worker shared two cores, and six runs
spread by 0.07-0.14 (quartile distance over median) on every timing.
The client also times the host-speed kernel of ``calib.py`` before
every request, which must not overlap a request in flight.  With one
client every request is a micro-batch of one that waits out the
batcher's deadline.  And two
first touches of different design classes at once can fail: the
server's front end fingerprints a class with ``inspect.getsource``,
which parses with ``ast``, and on Python 3.11 concurrent ``ast`` use in
threads can raise ``SystemError: AST constructor recursion depth
mismatch`` (seen once in 7,380 requests, answered as a 400).
"""

from __future__ import annotations

import http.client
import json
import queue
import signal
import subprocess
import sys
import threading
import time
from pathlib import Path

import numpy as np

import checks
from calib import SERVE_REFERENCE_MS, Calibrator, serve_kernel
from stats import layer_metrics, merge_snapshots, percentile, scaled_e2e

HOST = "127.0.0.1"
GATED_REGISTERS = 64
ZIPF_S = 1.1
REPEATS = 3  # repeats per key: three quarters of requests repeat one
ZIPF_RANK_SEED = 0
MIN_ROUNDS = 3  # so that set-up time and peak RSS are medians of three
CALIB_WINDOW = 2  # a request is scaled by the kernel calls 2 requests either side
# Plain-kernel calls after each server start: set-up is process start,
# imports and model load, not wake-ups, so it is scaled by the plain kernel.
SETUP_CALIB_SAMPLES = 20
HERE = Path(__file__).resolve().parent


def make_requests(entries, graphs, rng, default: float):
    """(keys, bodies, first touches, repeats); key i is (design, activity
    map or None), and the last two list key indexes in sending order.

    ``default`` is the register activity an ungated prediction assumes;
    the maps gate registers below it.
    """
    keys, bodies = [], []
    for entry, graph in zip(entries, graphs):
        regs = np.asarray(graph.ids_of_type("dff"))
        if len(regs) == 0:
            raise ValueError(f"{entry.name} has no registers to gate")
        maps = [None]
        for coeff in (lambda n: np.full(n, default / 2),
                      lambda n: rng.uniform(0, default, n)):
            pick = np.sort(rng.choice(regs, size=min(GATED_REGISTERS, len(regs)),
                                      replace=False))
            maps.append(dict(zip(pick.tolist(), coeff(len(pick)).tolist())))
        for activity in maps:
            keys.append((entry.name, activity))
            body = {"design": entry.name}
            if activity is not None:
                body["activity"] = {str(k): v for k, v in activity.items()}
            bodies.append(json.dumps(body).encode())
    # Zipf counts, rounded to whole requests, over a fixed ranking of the
    # keys: every seed repeats the same keys as often, in its own order.
    weights = 1.0 / np.arange(1, len(keys) + 1) ** ZIPF_S
    share = REPEATS * len(keys) * weights / weights.sum()
    counts = np.floor(share).astype(int)
    counts[np.argsort(counts - share)[:REPEATS * len(keys) - counts.sum()]] += 1
    ranked = np.random.default_rng(ZIPF_RANK_SEED).permutation(len(keys))
    repeats = rng.permutation(np.repeat(ranked, counts))
    return keys, bodies, rng.permutation(len(keys)).tolist(), repeats.tolist()


class Server:
    """One ``repro serve`` process, from start to stop."""

    def __init__(self, model: str, workdir: Path, index: int, trace: bool):
        self.trace_out = workdir / f"serve-trace-{index}.json"
        if trace:
            cmd = [sys.executable, str(HERE / "serve_traced.py"),
                   str(self.trace_out), "serve", model, "--port", "0"]
        else:
            cmd = [sys.executable, "-m", "repro", "serve", model, "--port", "0"]
        self.log = open(workdir / f"serve-{index}.log", "w")
        start = time.monotonic()
        self.proc = subprocess.Popen(cmd, stdout=subprocess.PIPE,
                                     stderr=self.log, text=True)
        self.lines: queue.Queue = queue.Queue()
        self.reader = threading.Thread(target=self._read, daemon=True)
        self.reader.start()
        try:
            line = self.lines.get(timeout=60)
        except queue.Empty:
            line = None
        if not line or "serving on http://" not in line:
            self.stop()
            raise RuntimeError(f"server did not start: {line!r}")
        self.port = int(line.split("serving on http://", 1)[1].split()[0]
                        .rsplit(":", 1)[1])
        deadline = time.monotonic() + 30
        while self.get("/healthz")[0] != 200:
            if time.monotonic() > deadline:
                self.stop()
                raise RuntimeError("server never became healthy")
            time.sleep(0.005)
        self.setup_s = time.monotonic() - start

    def _read(self) -> None:
        for line in self.proc.stdout:
            self.lines.put(line)
        self.lines.put(None)

    def get(self, path: str):
        conn = http.client.HTTPConnection(HOST, self.port, timeout=30)
        try:
            conn.request("GET", path)
            resp = conn.getresponse()
            return resp.status, json.loads(resp.read())
        except (OSError, http.client.HTTPException):
            return None, None
        finally:
            conn.close()

    def peak_rss_mb(self) -> float:
        for line in Path(f"/proc/{self.proc.pid}/status").read_text().splitlines():
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
        raise RuntimeError("no VmHWM in /proc status")

    def stop(self) -> None:
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGINT)
            try:
                self.proc.wait(timeout=30)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        self.reader.join(timeout=10)
        self.proc.stdout.close()
        self.log.close()


def drive(port: int, bodies, keys: list[int], cal: Calibrator):
    """Send ``keys`` in order from one closed-loop keep-alive client.

    Returns ``(key, seconds, status, body)`` per request, the kernel
    durations timed before each request, and the time spent in requests.
    """
    records, kernel = [], []
    conn = http.client.HTTPConnection(HOST, port, timeout=60)
    try:
        for key in keys:
            kernel.append(cal.sample())
            start = time.perf_counter()
            conn.request("POST", "/predict", body=bodies[key],
                         headers={"Content-Type": "application/json"})
            resp = conn.getresponse()
            data = resp.read()
            records.append((key, time.perf_counter() - start, resp.status,
                            data))
    except (OSError, http.client.HTTPException) as exc:
        raise RuntimeError(f"client connection failed: {exc!r}") from exc
    finally:
        conn.close()
    return records, kernel, sum(rec[1] for rec in records)


PAYLOAD_KEYS = ("design", "timing_ps", "area_um2", "power_mw", "num_paths",
                "spread", "critical_path")


def serve_mix(args) -> dict:
    from repro.core.persistence import load_sns
    from repro.designs import standard_designs
    from repro.synth.power import DEFAULT_SEQ_ACTIVITY

    entries = standard_designs()
    graphs = [e.module.elaborate_compiled() for e in entries]
    rng = np.random.default_rng(args.seed)
    keys, bodies, first, repeats = make_requests(entries, graphs, rng,
                                                 DEFAULT_SEQ_ACTIVITY)
    workdir = Path(args.workdir)

    setups, rss, walls, rounds = [], [], [], []
    server_metrics, traces = [], []
    cal, kernel = Calibrator(serve_kernel, SERVE_REFERENCE_MS), []
    setup_cal = Calibrator()
    while len(rounds) < MIN_ROUNDS or sum(walls) < args.seconds:
        server = Server(args.model, workdir, len(rounds), bool(args.trace))
        setup_cal.sample(SETUP_CALIB_SAMPLES)
        try:
            cold, cold_kernel, cold_wall = drive(server.port, bodies, first, cal)
            warm, warm_kernel, warm_wall = drive(server.port, bodies, repeats,
                                                 cal)
            status, doc = server.get("/metrics")
            if status != 200:
                raise RuntimeError(f"/metrics answered {status}")
            server_metrics.append(doc)
            rss.append(server.peak_rss_mb())
        finally:
            server.stop()
        if args.trace:
            traces.append(json.loads(server.trace_out.read_text()))
        setups.append(server.setup_s)
        walls.append(cold_wall + warm_wall)
        kernel += cold_kernel + warm_kernel
        rounds.append([(k, False, *rest) for k, *rest in cold]
                      + [(k, True, *rest) for k, *rest in warm])

    # ---- checks, after the timed rounds
    sns = load_sns(args.model)
    problems, bad = [], set()
    payloads: dict[int, dict] = {}
    for r, records in enumerate(rounds):
        for i, (key, _, _, status, data) in enumerate(records):
            try:
                doc = json.loads(data) if status == 200 else None
            except ValueError:
                doc = None
            if doc is None or any(k not in doc for k in PAYLOAD_KEYS):
                bad.add((r, i))
                problems.append(f"request {i}: status {status}, body {data[:200]!r}")
                continue
            if payloads.setdefault(key, doc) != doc:
                bad.add((r, i))
                problems.append(f"{keys[key][0]}: identical bodies got "
                                "different payloads")
    wrong_keys = set()
    for key, doc in payloads.items():
        name, activity = keys[key]
        graph = graphs[key // 3]
        want = sns.predict(graph, activity=activity)
        expect = {"design": want.design, "timing_ps": want.timing_ps,
                  "area_um2": want.area_um2, "power_mw": want.power_mw,
                  "num_paths": want.num_paths, "spread": want.spread,
                  "critical_path": list(want.critical_path.tokens)}
        diff = [k for k in expect if doc[k] != expect[k]]
        if diff:
            wrong_keys.add(key)
            problems.append(f"{name}: payload differs from SNS.predict in {diff}")
        if activity is not None and key - key % 3 in payloads:
            gating = checks.check_gating(payloads[key - key % 3], doc,
                                         activity.values(), DEFAULT_SEQ_ACTIVITY)
            if gating:
                wrong_keys.add(key)
                problems.append(f"{name}: {gating}")
    failed = 0
    for r, records in enumerate(rounds):
        failed += sum(1 for i, rec in enumerate(records)
                      if (r, i) in bad or rec[0] in wrong_keys)

    records = [rec for round_records in rounds for rec in round_records]
    latencies = [rec[2] for rec in records]
    op_factors = cal.factors(kernel, CALIB_WINDOW)
    timed_factor = (sum(x * f for x, f in zip(latencies, op_factors))
                    / sum(latencies))
    scaled, raw = scaled_e2e(latencies, op_factors, sum(walls), timed_factor,
                             percentile(setups, 50), percentile(rss, 50))
    result = {
        "attempted": len(records), "failed": failed,
        "problems": problems[:20], "setup_samples": setups,
        "calib_ms": cal.median_ms(), "scale": cal.scale(),
        "setup_scale": setup_cal.scale(),
        "e2e": scaled, "raw_e2e": raw,
    }
    if args.trace:
        def median(values):
            return percentile(list(values), 50)

        result["layers"] = layer_metrics(merge_snapshots(traces), ops=len(records), extra={
            "store.hit_rate": median(d["store"]["hit_rate"] for d in server_metrics),
            "serve.warm_p50_ms": median(1e3 * rec[2] for rec in records if rec[1]),
            "serve.cold_p50_ms": median(1e3 * rec[2] for rec in records if not rec[1]),
            "serve.handler_p50_ms": median(
                d["endpoints"]["predict"]["latency"]["p50_ms"] for d in server_metrics),
            "serve.batch_size": median(
                d["batching"]["mean_batch_size"] for d in server_metrics),
            "serve.deadline_flushes": median(
                d["batching"]["flush_reasons"].get("deadline", 0)
                for d in server_metrics),
        })
    return result
