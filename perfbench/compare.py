"""Compare two sets of benchmark run records.

Usage::

    python3 perfbench/compare.py A.jsonl B.jsonl [--bench BENCHMARK.json]

Each file holds run record lines as ``run.py`` appends them.  For every
workload and metric the command prints, per set, the run count, the
median and the quartiles (``statistics.quantiles(values, n=4)``), the
spread (quartile distance over the median), the change of B's median
against A's, and whether that change exceeds the metric's bound from
``BENCHMARK.json`` in the metric's worse direction.  A spread wider than
the bound is flagged too, except for ``setup_s``.  End-to-end metrics
come from untraced runs, per-layer metrics (no bound) from traced runs.
It also prints the share of failed operations of each set.  The exit
status is 1 when a bound is exceeded or the failed shares differ.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from pathlib import Path


def load(path: str) -> list[dict]:
    return [json.loads(line) for line in Path(path).read_text().splitlines()
            if line.strip()]


def summary(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, med, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("a")
    ap.add_argument("b")
    ap.add_argument("--bench", default=str(Path(__file__).resolve().parent.parent
                                         / "BENCHMARK.json"))
    args = ap.parse_args()
    bench = json.loads(Path(args.bench).read_text())
    sets = {"A": load(args.a), "B": load(args.b)}
    workloads = [w["name"] for w in bench["workloads"]]
    tables = (("end_to_end", 0, "e2e"), ("per_layer", 1, "layers"))
    exceeded = False

    print(f"{'workload':<13} {'metric':<26} {'set':<3} {'n':>3} "
          f"{'median':>12} {'q1':>12} {'q3':>12} {'spread':>7} "
          f"{'change':>8} {'bound':>6}  verdict")
    for workload in workloads:
        shares = set()
        for set_name, records in sets.items():
            mine = [r for r in records if r["workload"] == workload
                    and r["trace"] == 0]
            attempted = sum(r["attempted"] for r in mine)
            failed = sum(r["failed"] for r in mine)
            if attempted:
                shares.add(failed / attempted)
            print(f"{workload:<13} {'failed share':<26} {set_name:<3} "
                  f"{len(mine):>3} {failed / max(attempted, 1):>12.6f}  "
                  f"({failed}/{attempted})")
        if len(shares) > 1:
            exceeded = True
            print(f"{workload:<13} failed shares differ: NOT OK")
        for key, trace, field in tables:
            for metric in bench[key]:
                name = metric["name"]
                medians = {}
                for set_name, records in sets.items():
                    values = [r[field][name] for r in records
                              if r["workload"] == workload
                              and r["trace"] == trace and r.get(field)]
                    if not values:
                        continue
                    q1, med, q3 = summary(values)
                    medians[set_name] = med
                    spread = (q3 - q1) / med if med else float("nan")
                    line = (f"{workload:<13} {name:<26} {set_name:<3} "
                            f"{len(values):>3} {med:>12.4f} {q1:>12.4f} "
                            f"{q3:>12.4f} {spread:>7.3f}")
                    # Set-up time is gated on its median only.
                    if name != "setup_s" and spread > metric.get("bound", spread):
                        exceeded = True
                        line += "  SPREAD EXCEEDS BOUND"
                    if set_name == "B" and "A" in medians and medians["A"]:
                        change = med / medians["A"] - 1.0
                        line += f" {change:>+8.3f}"
                        if "bound" in metric:
                            worse = (change if metric["better"] == "lower"
                                     else -change)
                            ok = worse <= metric["bound"]
                            exceeded |= not ok
                            line += (f" {metric['bound']:>6.2f}  "
                                     f"{'ok' if ok else 'EXCEEDS BOUND'}")
                    print(line)
    return 1 if exceeded else 0


if __name__ == "__main__":
    sys.exit(main())
