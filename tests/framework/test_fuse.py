"""Tests for the plan compiler's automatic LSTM fusion pass."""

import numpy as np

from repro.framework import ops, rnn
from repro.framework.compiler import PlanOptions, compile_plan
from repro.framework.graph import get_default_graph
from repro.framework.session import Session


def unrolled_stack(rng, steps=4, hidden=8, batch=2, layers=2):
    """A composed-LSTM stack like the workloads build."""
    inputs = [ops.placeholder((batch, hidden), name=f"t{t}")
              for t in range(steps)]
    cells = [rnn.LSTMCell(hidden, hidden, rng, name=f"l{i}")
             for i in range(layers)]
    states = [cell.zero_state(batch) for cell in cells]
    outputs = []
    for step_input in inputs:
        out = step_input
        new_states = []
        for cell, state in zip(cells, states):
            out, new_state = cell(out, state)
            new_states.append(new_state)
        states = new_states
        outputs.append(out)
    return inputs, outputs, cells


FUSE_ONLY = PlanOptions(eliminate_identities=False, fold_constants=False,
                        merge_subexpressions=False, fuse_lstm=True)


class TestFusionMatching:
    def test_every_step_fused(self, fresh_graph, rng):
        inputs, outputs, _ = unrolled_stack(rng, steps=4, layers=2)
        plan = compile_plan(get_default_graph(), [outputs[-1]], FUSE_ONLY)
        assert plan.fused_cells == 8  # 4 steps x 2 layers
        types = [step.op.type_name for step in plan.steps]
        assert types.count("LSTMBlockCell") == 8
        # The composed primitives are gone.
        assert "Concat" not in types
        assert plan.stats.ops_out < 0.4 * plan.stats.ops_in

    def test_fused_graph_is_numerically_identical(self, fresh_graph, rng):
        inputs, outputs, _ = unrolled_stack(rng, steps=3, layers=1)
        graph = get_default_graph()
        assert compile_plan(graph, [outputs[-1]], FUSE_ONLY).fused_cells == 3
        feed = {p: rng.standard_normal(p.shape).astype(np.float32)
                for p in inputs}
        original = Session(graph, seed=0).run(outputs[-1], feed_dict=feed)
        fused = Session(graph, seed=0, optimize=FUSE_ONLY).run(
            outputs[-1], feed_dict=feed)
        np.testing.assert_array_equal(original, fused)

    def test_non_lstm_graphs_untouched(self, fresh_graph, rng):
        x = ops.placeholder((4, 8), name="x")
        out = ops.tanh(ops.matmul(
            x, ops.constant(rng.standard_normal((8, 4))
                            .astype(np.float32))))
        plan = compile_plan(get_default_graph(), [out], FUSE_ONLY)
        assert plan.fused_cells == 0
        assert plan.stats.ops_out == plan.stats.ops_in

    def test_gru_not_mistaken_for_lstm(self, fresh_graph, rng):
        cell = rnn.GRUCell(8, 8, rng)
        x = ops.placeholder((2, 8), name="x")
        out, _ = cell(x, cell.zero_state(2))
        plan = compile_plan(get_default_graph(), [out], "full")
        assert plan.fused_cells == 0

    def test_interior_tensor_with_external_consumer_blocks_fusion(
            self, fresh_graph, rng):
        cell = rnn.LSTMCell(8, 8, rng)
        x = ops.placeholder((2, 8), name="x")
        out, _ = cell(x, cell.zero_state(2))
        # Fetch an interior tensor (the pre-activation gates) directly.
        gates_op = next(op for op in get_default_graph().operations
                        if op.type_name == "BiasAdd")
        plan = compile_plan(get_default_graph(),
                            [out, gates_op.outputs[0]], "full")
        assert plan.fused_cells == 0


class TestWorkloadFusion:
    def test_seq2seq_inference_fuses_every_step(self):
        from repro import workloads
        model = workloads.create("seq2seq", config="tiny", seed=0)
        plan = compile_plan(model.graph, [model.inference_output],
                            FUSE_ONLY)
        # encoder steps + decoder steps (+ the go step), times layers.
        steps = model.config["sequence_length"]
        layers = model.config["num_layers"]
        expected = (steps + steps + 1) * layers
        assert plan.fused_cells == expected
        feed = model.sample_feed(training=False)
        original = Session(model.graph, seed=0).run(
            model.inference_output, feed_dict=feed)
        fused = Session(model.graph, seed=0, optimize=FUSE_ONLY).run(
            model.inference_output, feed_dict=feed)
        np.testing.assert_array_equal(original, fused)

    def test_lstm_lm_fuses(self):
        from repro.workloads import extensions
        model = extensions.create("lstm_lm", config="tiny", seed=0)
        plan = compile_plan(model.graph, [model.inference_output], "full")
        assert plan.fused_cells == (model.config["sequence_length"]
                                    * model.config["num_layers"])
