"""Tests for the ExecutionPlan compiler pipeline."""

import numpy as np
import pytest

from repro.framework import ops
from repro.framework.compiler import (ExecutionPlan, PlanOptions,
                                      compile_plan)
from repro.framework.errors import GraphError
from repro.framework.graph import Graph, get_default_graph
from repro.framework.memory import K_COMPUTE, K_CONST, K_PLACEHOLDER
from repro.framework.session import Session


class TestPlanOptions:
    def test_coerce_levels(self):
        assert PlanOptions.coerce(None) == PlanOptions.structural()
        assert PlanOptions.coerce("none") == PlanOptions.structural()
        assert PlanOptions.coerce("structural") == PlanOptions.structural()
        assert PlanOptions.coerce("full") == PlanOptions.full()
        custom = PlanOptions(fuse_lstm=False)
        assert PlanOptions.coerce(custom) is custom

    def test_coerce_rejects_garbage(self):
        for level in ("turbo", "codegen", "full+codegen"):
            with pytest.raises(ValueError):
                PlanOptions.coerce(level)
        with pytest.raises(TypeError):
            PlanOptions.coerce(3)

    def test_describe(self):
        assert PlanOptions.full().describe() == "full"
        assert PlanOptions.structural().describe() == "structural"
        assert "fold" in PlanOptions(
            eliminate_identities=False, merge_subexpressions=False,
            fuse_lstm=False).describe()


class TestStructuralPlans:
    """The default level must preserve the classic executor's behaviour."""

    def test_every_subgraph_op_becomes_a_step(self, fresh_graph):
        a = ops.constant(np.ones((2, 2), np.float32))
        b = ops.constant(np.ones((2, 2), np.float32))
        c = ops.add(a, b)
        d = ops.reduce_sum(c)
        unrelated = ops.constant(5.0)  # outside the fetch subgraph
        plan = compile_plan(get_default_graph(), [d])
        assert plan.num_steps == 4
        assert unrelated.op not in [step.op for step in plan.steps]

    def test_steps_reference_original_operations(self, fresh_graph):
        a = ops.constant(np.ones((2, 2), np.float32))
        b = ops.add(a, a)
        plan = compile_plan(get_default_graph(), [b])
        original = {id(op) for op in get_default_graph().operations}
        assert all(id(step.op) in original for step in plan.steps)

    def test_kinds(self, fresh_graph):
        x = ops.placeholder((2,), name="x")
        c = ops.constant(np.ones(2, np.float32))
        y = ops.add(x, c)
        plan = compile_plan(get_default_graph(), [y])
        kinds = {step.op.name: step.kind for step in plan.steps}
        assert kinds["x"] == K_PLACEHOLDER
        assert kinds[c.op.name] == K_CONST
        assert kinds[y.op.name] == K_COMPUTE

    def test_foreign_fetch_raises(self, fresh_graph):
        other = Graph()
        with other.as_default():
            foreign = ops.constant(1.0)
        with pytest.raises(GraphError):
            compile_plan(get_default_graph(), [foreign])


class TestOptimizingPasses:
    def test_identity_elimination_aliases_slots(self, fresh_graph):
        x = ops.placeholder((2,), name="x")
        y = ops.identity(ops.identity(x))
        plan = compile_plan(get_default_graph(), [y], "full")
        assert plan.num_steps == 1  # just the placeholder
        assert plan.fetch_slots == plan.steps[0].output_slots[:1]

    def test_constant_folding_chains(self, fresh_graph):
        a = ops.constant(2.0)
        b = ops.constant(3.0)
        c = ops.multiply(ops.add(a, b), 2.0)
        plan = compile_plan(get_default_graph(), [c], "full")
        # Everything folds into one synthesized constant step.
        assert plan.num_steps == 1
        assert plan.steps[0].kind == K_CONST
        assert plan.steps[0].const_value == np.float32(10.0)
        assert plan.stats.constants_folded == 2

    def test_folding_skips_nonfinite_results(self, fresh_graph):
        bad = ops.log(ops.constant(-1.0))  # NaN at fold time
        plan = compile_plan(get_default_graph(), [bad], "full")
        # The op must stay live so check_numerics can name it at run time.
        assert any(step.op is bad.op for step in plan.steps)

    def test_cse_merges_duplicate_constants(self, fresh_graph):
        a = ops.constant(np.ones((4,), np.float32))
        b = ops.constant(np.ones((4,), np.float32))
        c = ops.add(a, b)
        plan = compile_plan(get_default_graph(), [c], "full")
        assert plan.stats.subexpressions_merged >= 1

    def test_cse_preserves_random_ops(self, fresh_graph):
        r1 = ops.random_normal((3,), name="r1")
        r2 = ops.random_normal((3,), name="r2")
        total = ops.add(r1, r2)
        session = Session(get_default_graph(), seed=0, optimize="full")
        value = session.run(total)
        baseline = Session(get_default_graph(), seed=0)
        np.testing.assert_array_equal(value, baseline.run(total))

    def test_dce_keeps_placeholder_requirements(self, fresh_graph):
        from repro.framework.errors import FeedError
        x = ops.placeholder((2,), name="x")
        y = ops.constant(np.ones(2, np.float32))
        z = ops.add(ops.multiply(x, 0.0), y)
        session = Session(get_default_graph(), seed=0, optimize="full")
        # x is still semantically required even if an optimizer could
        # in principle prove the result independent of it.
        with pytest.raises(FeedError, match="required but was not fed"):
            session.run(z)

    def test_pass_records_cover_pipeline(self, fresh_graph):
        y = ops.add(ops.constant(1.0), ops.constant(2.0))
        plan = compile_plan(get_default_graph(), [y], "full")
        names = [record.name for record in plan.pass_records]
        assert names == ["prune", "identity", "fold", "cse", "fuse",
                         "dce", "schedule"]
        structural = compile_plan(get_default_graph(), [y])
        assert [r.name for r in structural.pass_records] == ["prune",
                                                             "schedule"]

    def test_report_renders(self, fresh_graph):
        y = ops.add(ops.constant(1.0), ops.constant(2.0))
        plan = compile_plan(get_default_graph(), [y], "full")
        text = plan.report()
        assert "fold" in text and "planned peak" in text

    def test_summary_is_json_serializable(self, fresh_graph):
        import json
        y = ops.add(ops.constant(1.0), ops.constant(2.0))
        plan = compile_plan(get_default_graph(), [y], "full")
        json.dumps(plan.summary())


class TestScheduleInvariants:
    def _plan(self, options=None):
        x = ops.placeholder((8, 8), name="x")
        w = ops.constant(np.ones((8, 8), np.float32))
        h = ops.relu(ops.matmul(x, w))
        out = ops.reduce_sum(ops.multiply(h, h))
        return compile_plan(get_default_graph(), [out], options), out

    def test_slots_are_defined_before_use(self, fresh_graph):
        plan, _ = self._plan("full")
        produced = set()
        for step in plan.steps:
            assert all(slot in produced for slot in step.input_slots)
            produced.update(step.output_slots)
        assert all(slot in produced for slot in plan.fetch_slots)

    def test_fetch_slots_never_freed(self, fresh_graph):
        plan, _ = self._plan("full")
        freed = {slot for step in plan.steps for slot in step.free_slots}
        assert not freed & set(plan.fetch_slots)

    def test_each_slot_freed_at_most_once(self, fresh_graph):
        plan, _ = self._plan("full")
        freed = [slot for step in plan.steps for slot in step.free_slots]
        assert len(freed) == len(set(freed))

    def test_memory_plan_arena_reuses_buffers(self, fresh_graph):
        x = ops.constant(np.ones((64, 64), np.float32))
        out = x
        for _ in range(10):
            out = ops.multiply(out, 1.01)
        plan = compile_plan(get_default_graph(), [out])
        # Ten same-shaped intermediates with chained lifetimes need far
        # fewer than ten arena buffers.
        assert plan.memory.arena_hits > 0
        assert plan.memory.num_buffers < 5
        assert plan.memory.hit_rate > 0.5
        assert plan.memory.reuse_saving_bytes > 0

    def test_planned_peak_matches_session_measurement(self, fresh_graph):
        plan, out = self._plan()
        session = Session(get_default_graph(), seed=0)
        session.run(out, feed_dict={
            get_default_graph().get_operation("x").outputs[0]:
                np.ones((8, 8), np.float32)})
        assert plan.planned_peak_bytes == session.last_peak_live_bytes


class TestLSTMFusionPass:
    def _build_cell(self):
        from repro.framework.rnn import LSTMCell
        rng = np.random.default_rng(0)
        cell = LSTMCell(num_units=3, input_size=4, rng=rng, name="cell")
        x = ops.placeholder((2, 4), name="x")
        c, h = cell.zero_state(batch_size=2)
        return cell, x, c, h

    def test_fusion_fires_and_is_bit_exact(self, fresh_graph):
        cell, x, c, h = self._build_cell()
        _, (new_c, new_h) = cell(x, (c, h))
        graph = get_default_graph()
        plan = compile_plan(graph, [new_c, new_h], "full")
        assert plan.fused_cells == 1
        feed_value = np.random.default_rng(1).normal(
            size=(2, 4)).astype(np.float32)
        fused = Session(graph, optimize="full").run(
            [new_c, new_h], feed_dict={x: feed_value})
        composed = Session(graph).run([new_c, new_h],
                                      feed_dict={x: feed_value})
        np.testing.assert_array_equal(fused[0], composed[0])
        np.testing.assert_array_equal(fused[1], composed[1])

    def test_fusion_skipped_when_gate_is_fetched(self, fresh_graph):
        cell, x, c, h = self._build_cell()
        _, (new_c, new_h) = cell(x, (c, h))
        graph = get_default_graph()
        # Fetching an interior tensor (the forget-gate sigmoid) must
        # veto fusion for that cell.
        interior = next(t for op in graph.operations
                        for t in op.outputs
                        if op.type_name == "Sigmoid")
        plan = compile_plan(graph, [new_c, new_h, interior], "full")
        assert plan.fused_cells == 0
