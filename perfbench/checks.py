"""Output checkers the benchmark applies to the program's results.

Each checker is independent of the code path it checks: the Circuitformer
forward below is plain numpy over the model's saved weights, and the
graph checks read only a compiled graph's arrays.  Every checker returns
a list of problems (empty when the output is correct), so a caller can
count a failed operation and say why.
"""

from __future__ import annotations

import math
from collections import Counter

import numpy as np

NUM_SPECIAL = 2  # <pad> = 0, <cls> = 1; circuit tokens start at 2
PAD, CLS = 0, 1
NEG_INF = -1e9
LN_EPS = 1e-5


# ---------------------------------------------------------------------- #
# Circuitformer forward in plain numpy
# ---------------------------------------------------------------------- #
def encode(token_seqs, token_ids: dict[str, int]):
    """Pad sequences to the longest one, with a leading <cls> token."""
    width = 1 + max(len(s) for s in token_seqs)
    ids = np.full((len(token_seqs), width), PAD, dtype=np.int64)
    ids[:, 0] = CLS
    for row, seq in enumerate(token_seqs):
        ids[row, 1:1 + len(seq)] = [token_ids[t] for t in seq]
    return ids, ids == PAD


def _layer_norm(x, weight, bias):
    mean = x.mean(axis=-1, keepdims=True)
    centered = x - mean
    var = (centered * centered).mean(axis=-1, keepdims=True)
    return centered / np.sqrt(var + LN_EPS) * weight + bias


def _gelu(x):
    return 0.5 * x * (1.0 + np.tanh(np.sqrt(2.0 / np.pi) * (x + 0.044715 * x ** 3)))


def _softmax(x):
    e = np.exp(x - x.max(axis=-1, keepdims=True))
    return e / e.sum(axis=-1, keepdims=True)


def circuitformer_forward(weights: dict[str, np.ndarray], ids: np.ndarray,
                          pad_mask: np.ndarray, num_heads: int) -> np.ndarray:
    """Normalized [timing, area, power] per sequence (eval mode).

    ``weights`` is a Circuitformer ``state_dict()``: token and position
    embeddings, post-norm encoder layers, and a two-layer GELU head that
    reads the <cls> position.
    """
    batch, seq = ids.shape
    x = (weights["token_embedding.weight"][ids]
         + weights["position_embedding.weight"][np.arange(seq)])
    layer = 0
    while f"encoder.layers.{layer}.attn.q_proj.weight" in weights:
        p = f"encoder.layers.{layer}."

        def lin(v, name, _p=p):
            return v @ weights[_p + name + ".weight"] + weights[_p + name + ".bias"]

        d_model = x.shape[-1]
        d_head = d_model // num_heads

        def heads(v):
            return v.reshape(batch, seq, num_heads, d_head).transpose(0, 2, 1, 3)

        q, k, v = (heads(lin(x, f"attn.{n}_proj")) for n in ("q", "k", "v"))
        scores = q @ k.transpose(0, 1, 3, 2) / np.sqrt(d_head)
        scores = np.where(pad_mask[:, None, None, :], NEG_INF, scores)
        context = _softmax(scores) @ v
        merged = context.transpose(0, 2, 1, 3).reshape(batch, seq, d_model)
        x = _layer_norm(x + lin(merged, "attn.out_proj"),
                        weights[p + "norm1.weight"], weights[p + "norm1.bias"])
        ff = lin(_gelu(lin(x, "ff1")), "ff2")
        x = _layer_norm(x + ff, weights[p + "norm2.weight"], weights[p + "norm2.bias"])
        layer += 1
    hidden = _gelu(x[:, 0, :] @ weights["head.steps.0.weight"]
                   + weights["head.steps.0.bias"])
    return hidden @ weights["head.steps.2.weight"] + weights["head.steps.2.bias"]


def physical(scaled: np.ndarray, mean: np.ndarray, std: np.ndarray) -> np.ndarray:
    """Undo the log1p standardization, clamped at zero like the model."""
    return np.maximum(np.expm1(scaled * std + mean), 0.0)


def check_forward(expected: np.ndarray, got: np.ndarray,
                  rel: float = 1e-9) -> list[str]:
    """Rows of ``got`` must match ``expected`` to ``rel`` relative error."""
    expected, got = np.asarray(expected), np.asarray(got)
    if expected.shape != got.shape:
        return [f"shape {got.shape} != numpy forward {expected.shape}"]
    scale = np.maximum(np.abs(expected), np.abs(got))
    bad = np.abs(expected - got) > rel * scale
    if bad.any():
        row = int(np.argwhere(bad)[0][0])
        return [f"{int(bad.sum())} outputs differ from the numpy forward "
                f"beyond {rel:g} relative (row {row}: "
                f"{got[row].tolist()} vs {expected[row].tolist()})"]
    return []


# ---------------------------------------------------------------------- #
# Prediction values
# ---------------------------------------------------------------------- #
def check_values(timing: float, area: float, power: float,
                 num_paths: int, max_paths: int) -> list[str]:
    problems = []
    for name, value in (("timing", timing), ("area", area), ("power", power)):
        if not (isinstance(value, float) and math.isfinite(value) and value > 0):
            problems.append(f"{name} is not finite and > 0: {value!r}")
    if not 1 <= num_paths <= max_paths:
        problems.append(f"num_paths {num_paths} outside [1, {max_paths}]")
    return problems


# ---------------------------------------------------------------------- #
# Graph checks (on a repro.graphir.CompiledGraph)
# ---------------------------------------------------------------------- #
def _is_endpoint(graph, node: int) -> bool:
    """A register or a port: where complete circuit paths begin and end."""
    return graph.token_list[node].startswith(("dff", "io"))


def check_critical_path(graph, node_ids, tokens) -> list[str]:
    """The critical path must be a real path of ``graph``.

    Consecutive nodes are joined by edges, the path starts and ends at a
    register or port, and its tokens are its nodes' tokens.
    """
    node_ids, tokens = list(node_ids), list(tokens)
    if not node_ids:
        return ["critical path is empty"]
    if len(node_ids) != len(tokens):
        return [f"critical path has {len(node_ids)} nodes but {len(tokens)} tokens"]
    n = graph.num_nodes
    if any(not 0 <= v < n for v in node_ids):
        return [f"critical path names a node outside the graph ({n} nodes)"]
    problems = []
    for a, b in zip(node_ids, node_ids[1:]):
        if b not in graph.successors(a):
            problems.append(f"no edge {a} -> {b} on the critical path")
            break
    for end in (node_ids[0], node_ids[-1]):
        if not _is_endpoint(graph, end):
            problems.append(f"critical path ends at {graph.token_list[end]} "
                            f"node {end}, not a register or port")
    actual = [graph.token_list[v] for v in node_ids]
    if actual != tokens:
        problems.append("critical path tokens differ from its nodes' tokens")
    return problems


def _degrees(graph) -> np.ndarray:
    return np.diff(graph.succ_indptr) + np.diff(graph.pred_indptr)


def check_verilog_matches_module(verilog_graph, module_graph) -> list[str]:
    """The Verilog form is the Module form plus one unconnected clock port.

    ``emit_verilog`` adds an ``input clk`` that the elaborated graph
    keeps as a 1-bit port with no edges; everything else must match:
    equal edge counts and equal token histograms once that port is
    removed.
    """
    problems = []
    if verilog_graph.num_edges != module_graph.num_edges:
        problems.append(f"edge counts differ: verilog {verilog_graph.num_edges} "
                        f"vs module {module_graph.num_edges}")
    tokens = verilog_graph.token_list
    clocks = [v for v in np.nonzero(_degrees(verilog_graph) == 0)[0].tolist()
              if tokens[v].startswith("io") and verilog_graph.widths[v] == 1]
    if not clocks:
        return problems + ["verilog graph has no unconnected 1-bit port"]
    extra = Counter(verilog_graph.token_counts())
    extra.subtract(module_graph.token_counts())
    extra = {t: c for t, c in extra.items() if c}
    if extra != {tokens[clocks[0]]: 1}:
        problems.append(f"token histograms differ by more than the clock "
                        f"port: {dict(sorted(extra.items()))}")
    return problems


# ---------------------------------------------------------------------- #
# Activity gating (Section 3.4.4)
# ---------------------------------------------------------------------- #
def check_gating(ungated: dict, gated: dict, coefficients,
                 default_activity: float) -> list[str]:
    """Activity maps never change timing or area, and gating never adds power.

    A coefficient is a register's toggle rate; ``default_activity`` is
    the rate the ungated prediction assumes.  With every coefficient at
    or below it (and so also <= 1), the gated power is at most the
    ungated power.
    """
    problems = []
    for key in ("timing_ps", "area_um2"):
        if gated[key] != ungated[key]:
            problems.append(f"{key} changed under an activity map: "
                            f"{gated[key]!r} vs {ungated[key]!r}")
    if (all(c <= default_activity for c in coefficients)
            and gated["power_mw"] > ungated["power_mw"]):
        problems.append(f"gated power {gated['power_mw']!r} exceeds ungated "
                        f"{ungated['power_mw']!r} with every coefficient <= "
                        f"{default_activity}")
    return problems
