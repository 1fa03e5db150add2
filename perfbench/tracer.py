"""Layer tracing from outside the program.

A :class:`Tracer` replaces a layer's public function with a wrapper that
times each call with ``time.perf_counter`` and charges its duration to
the enclosing traced call, so every layer has a total time, a self time
(total less the traced calls inside it) and a call count.  Stacks are
per thread, because the server runs predictions on a thread pool.  Only
the traced run installs wrappers; untraced runs call the program as is.

:func:`install` names the layers the benchmark reports, the same set on
every workload: each workload exercises some of them.
"""

from __future__ import annotations

import functools
import threading
import time
from collections import defaultdict, deque

clock = time.perf_counter


class Tracer:
    def __init__(self):
        self.calls: dict[str, int] = defaultdict(int)
        self.total: dict[str, float] = defaultdict(float)
        self.child: dict[str, float] = defaultdict(float)
        self.counts: dict[str, float] = defaultdict(float)
        # (id(graph), id(activity)) -> submit times not yet batched
        self.submitted: dict[tuple[int, int], deque] = {}
        self.enabled = True
        self.lock = threading.Lock()
        self._local = threading.local()

    def reset(self) -> None:
        with self.lock:
            for table in (self.calls, self.total, self.child, self.counts):
                table.clear()

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def count(self, name: str, n: float = 1) -> None:
        with self.lock:
            self.counts[name] += n

    def wrap(self, owner, attr: str, name, before=None):
        """Time calls to ``owner.attr`` under ``name``.

        ``name`` may be a callable of the call's arguments (to split one
        function into two layers); ``before`` sees the arguments first,
        for counters.
        """
        original = getattr(owner, attr)

        @functools.wraps(original)
        def traced(*args, **kwargs):
            if not self.enabled:
                return original(*args, **kwargs)
            label = name(*args, **kwargs) if callable(name) else name
            if before is not None:
                before(*args, **kwargs)
            stack = self._stack()
            frame = [0.0]
            stack.append(frame)
            start = clock()
            try:
                return original(*args, **kwargs)
            finally:
                elapsed = clock() - start
                stack.pop()
                if stack:
                    stack[-1][0] += elapsed
                with self.lock:
                    self.calls[label] += 1
                    self.total[label] += elapsed
                    self.child[label] += frame[0]

        setattr(owner, attr, traced)

    def self_time(self, name: str) -> float:
        return self.total[name] - self.child[name]

    def snapshot(self) -> dict:
        with self.lock:
            return {"calls": dict(self.calls), "total": dict(self.total),
                    "child": dict(self.child), "counts": dict(self.counts)}


def install(tracer: Tracer) -> None:
    """Wrap every layer boundary the per-layer metrics are read from."""
    import numpy as np

    from repro import nn
    from repro.core import predictor
    from repro.core.aggregator import AggregationMLP
    from repro.core.circuitformer import Circuitformer
    from repro.core.sampler import PathSampler
    from repro.hdl.module import Module
    from repro.runtime import engine, frontend
    from repro.serve.batcher import MicroBatchQueue
    from repro.store.store import ArtifactStore
    from repro.synth import Synthesizer
    from repro.verilog import elaborator, parser

    w = tracer.wrap
    # Front ends.  elaborate_source looks parse_source and elaborate up
    # in its own module, and the parser looks tokenize up in its own.
    w(parser, "tokenize", "verilog.lex")
    w(elaborator, "parse_source", "verilog.parse")
    w(elaborator, "elaborate", "verilog.elaborate")
    w(Module, "elaborate_compiled", "hdl.elaborate")
    # The server imports compile_module from the frontend module per call.
    w(frontend, "compile_module", "serve.compile")
    # Inference.
    w(PathSampler, "sample", "sampler.sample")
    w(Circuitformer, "predict_unique", "circuitformer.predict",
      before=lambda self, seqs, *a, **k: tracer.count(
          "circuitformer.sequences", len(seqs)))
    w(predictor, "reduce_paths", "aggregator")
    w(predictor, "featurize_design", "aggregator")
    w(AggregationMLP, "predict", "aggregator")
    w(engine.BatchPredictor, "predict_batch", "runtime.predict_batch",
      before=lambda self, designs, *a, **k: _note_batch_start(tracer, designs, a, k))
    # Store.
    w(ArtifactStore, "get", "store.get")
    w(ArtifactStore, "get_object", "store.get")
    w(ArtifactStore, "put", "store.put")
    w(ArtifactStore, "put_object", "store.put")

    # Serving: the queue wait runs from submit until the batch's
    # predict_batch starts; submit is a coroutine, so only its call time
    # is noted (keyed by payload identity, matched in predict_batch).
    original_submit = MicroBatchQueue.submit

    @functools.wraps(original_submit)
    def submit(self, payload):
        graph, activity = payload
        with tracer.lock:
            tracer.submitted.setdefault(
                (id(graph), id(activity)), deque()).append(clock())
        return original_submit(self, payload)

    MicroBatchQueue.submit = submit

    # Training.
    def forward_layer(self, ids, pad_mask):
        return "trainer.forward" if nn.is_grad_enabled() else "trainer.validation"

    def pad_cells(self, ids, pad_mask):
        if nn.is_grad_enabled():
            mask = np.asarray(pad_mask)
            tracer.count("trainer.real_cells", int(mask.size - mask.sum()))
            tracer.count("trainer.padded_cells", int(mask.size))

    w(Circuitformer, "forward", forward_layer, before=pad_cells)
    w(nn.Tensor, "backward", "trainer.backward")
    w(nn.Adam, "step", "trainer.optimizer")
    w(Synthesizer, "synthesize", "synth.synthesize")


def _note_batch_start(tracer: Tracer, designs, args, kwargs) -> None:
    now = clock()
    activities = kwargs.get("activity_maps", args[0] if args else None)
    if not isinstance(activities, (list, tuple)):
        return
    with tracer.lock:
        for graph, activity in zip(designs, activities):
            queue = tracer.submitted.get((id(graph), id(activity)))
            if queue:
                tracer.counts["serve.queue_wait_s"] += now - queue.popleft()
                tracer.counts["serve.queue_waits"] += 1
