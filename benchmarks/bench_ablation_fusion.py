"""Ablation: kernel fusion vs composed primitives for recurrent models.

The paper's Figs. 3/6b show fine-grained recurrent graphs (seq2seq-class
models) spending their time in many small elementwise/data-movement
operations whose cost is dominated by per-op dispatch — "there are
limits to the benefits that can be extracted" from accelerating the big
kernels alone. Kernel fusion is the system-level answer; this ablation
quantifies it by building the *same* stacked-LSTM model twice — once
from ~15 primitives per step (`rnn.LSTMCell`), once with the fused
`LSTMBlockCell` op — and comparing op counts and modeled step times.
"""

import numpy as np

from repro.framework import ops, rnn
from repro.framework.device_model import cpu
from repro.framework.graph import Graph
from repro.framework.optimizers import AdamOptimizer
from repro.framework.session import Session
from repro.profiling.profile import OperationProfile
from repro.profiling.tracer import Tracer

HIDDEN = 32
BATCH = 16
STEPS = 12
LAYERS = 2


def _build(fused: bool):
    graph = Graph()
    rng = np.random.default_rng(0)
    with graph.as_default():
        cell_cls = rnn.FusedLSTMCell if fused else rnn.LSTMCell
        inputs = [ops.placeholder((BATCH, HIDDEN), name=f"t{t}")
                  for t in range(STEPS)]
        cells = [cell_cls(HIDDEN, HIDDEN, rng, name=f"l{i}")
                 for i in range(LAYERS)]
        states = [cell.zero_state(BATCH) for cell in cells]
        outputs = []
        for step_input in inputs:
            out = step_input
            new_states = []
            for cell, state in zip(cells, states):
                out, new_state = cell(out, state)
                new_states.append(new_state)
            states = new_states
            outputs.append(out)
        loss = ops.reduce_mean(ops.square(outputs[-1]))
        train = AdamOptimizer(1e-3).minimize(loss)
    session = Session(graph, seed=0)
    feed = {p: np.random.default_rng(1).standard_normal(
        (BATCH, HIDDEN)).astype(np.float32) for p in inputs}
    return graph, session, loss, train, feed


def _profile(fused: bool):
    graph, session, loss, train, feed = _build(fused)
    training_ops = len(graph.subgraph([loss, train]))
    session.run([loss, train], feed_dict=feed)  # warmup
    tracer = Tracer()
    for _ in range(2):
        session.run([loss, train], feed_dict=feed, tracer=tracer)
    modeled = OperationProfile.from_trace(
        tracer, "fused" if fused else "composed", device=cpu(1))
    overhead = tracer.framework_overhead_fraction()
    return training_ops, modeled.seconds_per_step(), overhead


def test_fusion_ablation(benchmark):
    def run_ablation():
        return {"composed": _profile(fused=False),
                "fused": _profile(fused=True)}

    results = benchmark.pedantic(run_ablation, rounds=1, iterations=1)
    composed_ops, composed_time, composed_overhead = results["composed"]
    fused_ops, fused_time, fused_overhead = results["fused"]

    print(f"\nKernel-fusion ablation ({LAYERS}x{HIDDEN} LSTM, "
          f"{STEPS} steps, batch {BATCH}):")
    print(f"  composed: {composed_ops:5d} training ops, "
          f"{composed_time * 1e3:6.2f} ms/step modeled, "
          f"{composed_overhead:5.1%} executor overhead")
    print(f"  fused:    {fused_ops:5d} training ops, "
          f"{fused_time * 1e3:6.2f} ms/step modeled, "
          f"{fused_overhead:5.1%} executor overhead")
    print(f"  op-count reduction {composed_ops / fused_ops:.1f}x, "
          f"modeled speedup {composed_time / fused_time:.2f}x")

    # Fusion collapses each step's ~15 primitives into one forward and
    # one backward op.
    assert composed_ops / fused_ops > 3.0
    # Dispatch savings dominate for these small tensors: the fused graph
    # is substantially faster under the modeled CPU.
    assert fused_time < 0.7 * composed_time
    # Executor overhead (a measured quantity) also drops.
    assert fused_overhead < composed_overhead + 0.05


def test_automatic_fusion_on_seq2seq(benchmark):
    """The compiler's fusion pass achieves the fusion win automatically:
    every composed LSTM step in seq2seq's inference graph is recognized
    and replaced, with bit-identical outputs."""
    from repro import workloads
    from repro.framework.compiler import PlanOptions, compile_plan

    model = workloads.create("seq2seq", config="default", seed=0)
    fetches = [model.inference_output]
    fuse_only = PlanOptions(eliminate_identities=False, fold_constants=False,
                            merge_subexpressions=False, fuse_lstm=True)

    def run_pass():
        return compile_plan(model.graph, fetches, fuse_only)

    plan = benchmark.pedantic(run_pass, rounds=1, iterations=1)
    steps = model.config["sequence_length"]
    layers = model.config["num_layers"]
    expected_cells = (2 * steps + 1) * layers
    print(f"\nauto-fusion: {plan.fused_cells} LSTM steps fused, "
          f"{plan.stats.ops_in} -> {plan.stats.ops_out} ops")
    assert plan.fused_cells == expected_cells
    assert plan.stats.ops_out < 0.5 * plan.stats.ops_in

    feed = model.sample_feed(training=False)
    structural = Session(model.graph, seed=0).run(fetches, feed_dict=feed)
    fused = Session(model.graph, seed=0, optimize=fuse_only).run(
        fetches, feed_dict=feed)
    np.testing.assert_array_equal(structural[0], fused[0])
