"""Tests for the plan compiler's graph-rewriting passes: identity
elimination, constant folding and common-subexpression elimination."""

import numpy as np

from repro import workloads
from repro.framework import ops
from repro.framework.compiler import PlanOptions, _attr_key, compile_plan
from repro.framework.graph import get_default_graph
from repro.framework.memory import K_CONST
from repro.framework.session import Session


def _step_types(plan):
    return [step.op.type_name for step in plan.steps]


class TestConstantFolding:
    def test_pure_constant_chain_folds_away(self, fresh_graph):
        a = ops.constant(np.full(4, 2.0, dtype=np.float32))
        b = ops.constant(np.full(4, 3.0, dtype=np.float32))
        out = ops.add(ops.multiply(a, b), 1.0)
        plan = compile_plan(get_default_graph(), [out], "full")
        assert plan.stats.constants_folded >= 2
        # The fetch is one synthesized constant — zero runtime compute.
        assert plan.num_steps == 1
        assert plan.steps[0].kind == K_CONST
        np.testing.assert_allclose(
            Session(get_default_graph(), optimize="full").run(out),
            [7.0, 7.0, 7.0, 7.0])

    def test_placeholders_block_folding(self, fresh_graph):
        x = ops.placeholder((4,), name="x")
        out = ops.add(x, ops.multiply(
            ops.constant(np.ones(4, dtype=np.float32)), 2.0))
        plan = compile_plan(get_default_graph(), [out], "full")
        assert any(step.op is out.op for step in plan.steps)
        value = Session(get_default_graph(), optimize="full").run(
            out, feed_dict={x: np.zeros(4, np.float32)})
        np.testing.assert_allclose(value, [2.0, 2.0, 2.0, 2.0])

    def test_random_ops_never_folded(self, fresh_graph):
        noise = ops.multiply(ops.random_normal((4,)), 2.0)
        plan = compile_plan(get_default_graph(), [noise], "full")
        assert "StandardRandomNormal" in _step_types(plan)
        assert plan.stats.constants_folded == 0

    def test_huge_results_not_materialized(self, fresh_graph):
        big = ops.constant(np.ones((1024, 1024), dtype=np.float32))
        out = ops.tile(big, (2, 2))  # 4M elements > fold limit
        plan = compile_plan(get_default_graph(), [out], "full")
        assert any(step.op is out.op for step in plan.steps)


class TestIdentityElimination:
    def test_identity_chain_bypassed(self, fresh_graph):
        x = ops.placeholder((2,), name="x")
        out = ops.identity(ops.identity(ops.identity(x)))
        plan = compile_plan(get_default_graph(), [out], "full")
        assert plan.stats.identities_removed == 3
        # The fetch reads the placeholder's own slot.
        assert _step_types(plan) == ["Placeholder"]
        assert plan.fetch_slots == plan.steps[0].output_slots[:1]


class TestCSE:
    def test_duplicate_subexpressions_merged(self, fresh_graph):
        x = ops.placeholder((4,), name="x")
        left = ops.multiply(x, 2.0)
        right = ops.multiply(x, 2.0)  # structurally identical
        out = ops.add(left, right)
        plan = compile_plan(get_default_graph(), [out], "full")
        assert plan.stats.subexpressions_merged >= 1
        assert _step_types(plan).count("Mul") == 1

    def test_duplicate_constants_merged(self, fresh_graph):
        a = ops.constant(np.zeros((8, 8), dtype=np.float32), name="z1")
        b = ops.constant(np.zeros((8, 8), dtype=np.float32), name="z2")
        out = ops.add(a, b)
        plan = compile_plan(get_default_graph(), [out],
                            PlanOptions(fold_constants=False))
        assert plan.stats.subexpressions_merged == 1
        assert _step_types(plan).count("Const") == 1

    def test_different_attrs_not_merged(self, fresh_graph):
        x = ops.placeholder((4, 4), name="x")
        out = ops.add(ops.reduce_sum(x, axis=0), ops.reduce_sum(x, axis=1))
        plan = compile_plan(get_default_graph(), [out], "full")
        assert plan.stats.subexpressions_merged == 0
        assert _step_types(plan).count("Sum") == 2

    def test_stateful_ops_never_merged(self, fresh_graph):
        noise_a = ops.random_normal((4,))
        noise_b = ops.random_normal((4,))
        out = ops.add(noise_a, noise_b)
        plan = compile_plan(get_default_graph(), [out], "full")
        assert _step_types(plan).count("StandardRandomNormal") == 2


class TestWorkloadEquivalence:
    def test_memnet_inference_identical(self):
        model = workloads.create("memnet", config="tiny", seed=0)
        plan = compile_plan(model.graph, [model.inference_output], "full")
        assert plan.stats.removed > 0
        feed = model.sample_feed(training=False)
        optimized = Session(model.graph, seed=123, optimize="full").run(
            model.inference_output, feed_dict=feed)
        structural = Session(model.graph, seed=123).run(
            model.inference_output, feed_dict=feed)
        np.testing.assert_array_equal(optimized, structural)

    def test_seq2seq_unrolled_states_deduped(self):
        model = workloads.create("seq2seq", config="tiny", seed=0)
        plan = compile_plan(model.graph, [model.loss, model.train_step],
                            PlanOptions(fuse_lstm=False))
        # The unrolled zero-state constants and repeated structure give
        # CSE real wins.
        assert plan.stats.subexpressions_merged > 0
        assert plan.stats.ops_out < plan.stats.ops_in

    def test_rewritten_training_graph_still_learns(self):
        model = workloads.create("memnet", config="tiny", seed=0)
        session = Session(model.graph, seed=0, optimize="full")
        losses = []
        for _ in range(60):
            loss, _ = session.run([model.loss, model.train_step],
                                  feed_dict=model.sample_feed())
            losses.append(float(loss))
        assert all(np.isfinite(l) for l in losses)
        assert np.mean(losses[-15:]) < np.mean(losses[:15])

    def test_stats_accounting_consistent(self):
        model = workloads.create("autoenc", config="tiny", seed=0)
        fetches = [model.loss, model.train_step]
        plan = compile_plan(model.graph, fetches, "full")
        stats = plan.stats
        assert stats.ops_out == plan.num_steps
        assert stats.ops_in == len(model.graph.subgraph(fetches))
        assert stats.removed >= (stats.identities_removed
                                 + stats.subexpressions_merged)


class TestAttrKeyStability:
    def test_operation_attrs_key_by_name_not_id(self, fresh_graph):
        """Regression: _attr_key used id(op), which the allocator can
        recycle after GC, silently merging unrelated ops under CSE.
        """
        v = ops.variable(np.zeros(2, dtype=np.float32), name="w")
        key = _attr_key(v.op)
        assert key == ("op", "w", v.op.type_name)
        assert not any(part == id(v.op) for part in key)

    def test_distinct_ops_get_distinct_keys(self, fresh_graph):
        a = ops.variable(np.zeros(2, dtype=np.float32), name="a")
        b = ops.variable(np.zeros(2, dtype=np.float32), name="b")
        assert _attr_key(a.op) != _attr_key(b.op)
