"""Host-speed calibration: every reported time is scaled to a reference host.

The benchmark runs on a few cores of a shared host whose speed drifts by
tens of percent over minutes (neighbours on the same physical cores and
caches), which moved every timing of the untraced runs together: on one
2-vCPU VM, all three workloads got 45-70% faster within two minutes.
CPU time drifts the same way, so it is no remedy.

The remedy is a fixed reference kernel that does not use the program:
interpreter work of the kind the front end and sampler do (dicts, small
tuples, string keys) and small fp64 matrix work of the kind the
Circuitformer does (matmul, tanh, softmax).  The benchmark times it
between the program's ops, in the process that times them, and scales
every measured time by the kernel's reference time over the median time
of the kernel calls made next to it, so a time reads as it would on a
host where the kernel takes its reference time.  A change to the
program cannot move the kernel; a change of host speed moves both alike
and cancels.  The raw times and the kernel's median are kept in the run
record, and the traced run reports the kernel's median as
``host.calib_ms``.

``serve-mix`` times :func:`serve_kernel` instead, which adds socket
round trips to a thread: a served request is mostly thread wake-ups and
socket calls, whose cost the host's load moved by 25-50% between runs
while the plain kernel moved by 5-10%.
"""

from __future__ import annotations

import socket
import statistics
import threading
import time

import numpy as np

# What one call of each kernel takes on the reference host, in ms (on a
# 2-vCPU Intel Xeon VM, Python 3.11, numpy with OpenBLAS on one thread,
# they read 2.3-3.3 and 5.3-6.3).
REFERENCE_MS = 2.5
SERVE_REFERENCE_MS = 5.0
ROUND_TRIPS = 100

_rng = np.random.default_rng(12345)
_X = _rng.standard_normal((48, 64))
_W = _rng.standard_normal((64, 64)) / 8.0
_NAMES = [f"n{i}" for i in range(256)]


def kernel() -> float:
    table: dict[str, list] = {}
    for i in range(3000):
        name = _NAMES[(i * 7) % 256]
        table.setdefault(name, []).append((i, i & 15))
    edges = sorted((len(v), k) for k, v in table.items())
    x = _X
    for _ in range(12):
        h = np.tanh(x @ _W)
        s = h @ h.T
        s = np.exp(s - s.max(axis=1, keepdims=True))
        x = (s / s.sum(axis=1, keepdims=True)) @ h
    return float(x.sum()) + len(edges)


def _echo(sock) -> None:
    while True:
        data = sock.recv(1)
        if not data:
            return
        sock.sendall(data)


_echo_sock = None


def serve_kernel() -> None:
    """:func:`kernel` plus ``ROUND_TRIPS`` round trips to an echo thread over a socket
    pair: the thread wake-ups, interpreter-lock hand-offs and socket calls
    a served request also makes, whose cost the host's load moves more
    than it moves the interpreter's speed."""
    global _echo_sock
    if _echo_sock is None:
        _echo_sock, other = socket.socketpair()
        threading.Thread(target=_echo, args=(other,), daemon=True).start()
    kernel()
    for _ in range(ROUND_TRIPS):
        _echo_sock.sendall(b"x")
        _echo_sock.recv(1)


class Calibrator:
    """Times a kernel and keeps every duration."""

    def __init__(self, timed=None, reference_ms: float = REFERENCE_MS):
        self.timed = timed or kernel
        self.reference_ms = reference_ms
        self.samples: list[float] = []

    def sample(self, n: int = 1) -> list[float]:
        """Time ``n`` kernel calls; returns their durations in seconds."""
        got = []
        for _ in range(n):
            start = time.perf_counter()
            self.timed()
            got.append(time.perf_counter() - start)
        self.samples += got
        return got

    def median_ms(self) -> float:
        return 1e3 * statistics.median(self.samples)

    def scale(self) -> float:
        return self.reference_ms / self.median_ms()

    def factors(self, per_op: list[list[float]], half: int) -> list[float]:
        """One scale factor per op, from the kernel times taken next to it.

        ``per_op[i]`` holds the kernel durations timed just before op
        ``i``; op ``i`` is scaled by the median over ops ``i - half`` to
        ``i + half``, so the factor follows the host's speed through the
        run.
        """
        out = []
        for i in range(len(per_op)):
            near = [d for got in per_op[max(0, i - half):i + half + 1]
                    for d in got]
            out.append(self.reference_ms / (1e3 * statistics.median(near)))
        return out
