"""Each output checker accepts the program's real output and rejects a
corrupted copy of it.

Run from the repository root::

    PYTHONPATH=src python3 -m pytest perfbench/test_checks.py
"""

import numpy as np
import pytest

import checks
from repro.core.circuitformer import Circuitformer, CircuitformerConfig
from repro.core.sampler import PathSampler
from repro.designs import get_design
from repro.runtime import compile_source
from repro.verilog import emit_verilog


@pytest.fixture(scope="module")
def gpio():
    module = get_design("gpio16").module
    return module.elaborate_compiled(), compile_source(emit_verilog(module.elaborate()))


@pytest.fixture(scope="module")
def model_and_seqs(gpio):
    model = Circuitformer(CircuitformerConfig(embedding_size=16, dim_feedforward=32),
                          seed=3)
    rng = np.random.default_rng(0)
    model.scaler.mean = rng.normal(size=3) + 3.0  # mostly positive outputs
    model.scaler.std = rng.uniform(0.5, 2.0, size=3)
    seqs = sorted({p.tokens for p in PathSampler(seed=1).sample(gpio[0])})[:12]
    return model, seqs


def numpy_prediction(model, seqs):
    ids_of = {t: i + checks.NUM_SPECIAL for i, t in enumerate(model.vocab.tokens)}
    ids, mask = checks.encode(seqs, ids_of)
    scaled = checks.circuitformer_forward(model.state_dict(), ids, mask,
                                          model.config.attention_heads)
    return checks.physical(scaled, model.scaler.mean, model.scaler.std)


def test_forward_matches_model(model_and_seqs):
    model, seqs = model_and_seqs
    assert checks.check_forward(numpy_prediction(model, seqs),
                                model.predict_unique(seqs)) == []


def test_forward_rejects_perturbed_output(model_and_seqs):
    model, seqs = model_and_seqs
    got = model.predict_unique(seqs)
    got[np.unravel_index(np.argmax(got), got.shape)] *= 1 + 1e-7
    assert checks.check_forward(numpy_prediction(model, seqs), got)


def test_forward_rejects_other_weights(model_and_seqs):
    model, seqs = model_and_seqs
    want = numpy_prediction(model, seqs)
    other = Circuitformer(model.config, seed=4)
    other.scaler = model.scaler
    assert checks.check_forward(want, other.predict_unique(seqs))


def test_values():
    assert checks.check_values(1.0, 2.0, 3.0, 5, 512) == []
    assert checks.check_values(1.0, float("nan"), 3.0, 5, 512)
    assert checks.check_values(1.0, 2.0, 0.0, 5, 512)
    assert checks.check_values(1.0, 2.0, 3.0, 0, 512)
    assert checks.check_values(1.0, 2.0, 3.0, 513, 512)


def test_critical_path(gpio):
    graph = gpio[0]
    path = max(PathSampler(seed=1).sample(graph), key=len)
    assert checks.check_critical_path(graph, path.node_ids, path.tokens) == []
    # reversed: edges point the wrong way
    assert checks.check_critical_path(graph, path.node_ids[::-1], path.tokens[::-1])
    # a token that is not its node's token
    wrong = list(path.tokens)
    wrong[1] = "mul64" if wrong[1] != "mul64" else "add64"
    assert checks.check_critical_path(graph, path.node_ids, wrong)
    # cut short so it ends inside combinational logic
    assert checks.check_critical_path(graph, path.node_ids[:-1], path.tokens[:-1])
    # a node the graph does not have
    assert checks.check_critical_path(graph, (graph.num_nodes,), ("io4",))


def test_verilog_matches_module(gpio):
    module_graph, verilog_graph = gpio
    assert checks.check_verilog_matches_module(verilog_graph, module_graph) == []
    other = get_design("gpio32").module.elaborate_compiled()
    assert checks.check_verilog_matches_module(verilog_graph, other)
    # the Verilog form without its clock port
    assert checks.check_verilog_matches_module(module_graph, module_graph)


def test_gating():
    ungated = {"timing_ps": 10.0, "area_um2": 5.0, "power_mw": 2.0}
    gated = {"timing_ps": 10.0, "area_um2": 5.0, "power_mw": 1.5}
    assert checks.check_gating(ungated, gated, [0.05, 0.0], 0.1) == []
    assert checks.check_gating(ungated, {**gated, "power_mw": 2.5}, [0.05], 0.1)
    assert checks.check_gating(ungated, {**gated, "timing_ps": 11.0}, [0.05], 0.1)
    # above the default activity a register may add power
    assert checks.check_gating(ungated, {**gated, "power_mw": 2.5}, [0.5], 0.1) == []
