"""Tests for self-healing execution: blame localization, tiered
de-optimization, pass quarantine, and op-level numerical guardrails."""

import numpy as np
import pytest

from repro.framework import ops
from repro.framework.compiler import (PASS_FLAGS, PassQuarantine,
                                      PlanOptions, compile_plan)
from repro.framework.errors import ExecutionError, GuardrailViolation
from repro.framework.faults import FaultInjector, FaultPlan, FaultSpec
from repro.framework.graph import get_default_graph
from repro.framework.session import (DegradationEvent, GuardrailPolicy,
                                     HealingConfig, HealingPolicy, Session)
from repro.profiling.tracer import Tracer


def feed_x(shape=(2, 3)):
    return np.arange(np.prod(shape), dtype=np.float32).reshape(shape) + 1.0


class TestPassQuarantine:
    def test_unknown_pass_rejected(self):
        for pass_name in ("vectorize", "codegen"):
            with pytest.raises(ValueError, match="unknown compiler pass"):
                PassQuarantine().quarantine(pass_name)

    def test_filter_disables_quarantined_flags(self):
        quarantine = PassQuarantine()
        quarantine.quarantine("fuse", reason="blamed")
        options = quarantine.filter(PlanOptions.full())
        assert options.fuse_lstm is False
        assert options.fold_constants is True
        # Without entries, filter is the identity.
        assert PassQuarantine().filter(PlanOptions.full()) == \
            PlanOptions.full()

    def test_lift_soft_keeps_sticky_entries(self):
        quarantine = PassQuarantine()
        quarantine.quarantine("fuse", sticky=True)
        quarantine.quarantine("fold", sticky=False)
        assert quarantine.has_soft()
        assert quarantine.lift_soft() == ["fold"]
        assert not quarantine.has_soft()
        assert quarantine.is_quarantined("fuse")

    def test_clear_and_version(self):
        quarantine = PassQuarantine()
        v0 = quarantine.version
        quarantine.quarantine("cse")
        assert quarantine.version > v0
        assert quarantine.clear("cse") == ["cse"]
        assert not quarantine.is_quarantined("cse")
        assert quarantine.clear() == []  # idempotent

    def test_as_dict_round_trips_fields(self):
        quarantine = PassQuarantine()
        quarantine.quarantine("fold", reason="r", op_name="op", sticky=False)
        blob = quarantine.as_dict()
        assert blob["entries"] == [
            {"pass": "fold", "reason": "r", "op": "op", "sticky": False}]


class TestQuarantineEquivalence:
    """Quarantining a pass == compiling with that pass disabled."""

    def build(self):
        x = ops.placeholder((2, 3), name="x")
        scale = ops.multiply(ops.constant(2.0), ops.constant(3.0))
        return ops.multiply(ops.add(x, scale), ops.add(x, scale)), x

    def test_quarantined_fold_matches_fold_free_compile(self, fresh_graph):
        y, x = self.build()
        feed = {x: feed_x()}
        quarantined = Session(fresh_graph, optimize="full")
        quarantined.quarantine.quarantine("fold", reason="test")
        explicit = Session(fresh_graph,
                           optimize=PlanOptions(fold_constants=False))
        assert quarantined.effective_options() == \
            PlanOptions(fold_constants=False)
        np.testing.assert_array_equal(quarantined.run(y, feed_dict=feed),
                                      explicit.run(y, feed_dict=feed))
        # The quarantined session compiled without the fold pass.
        assert quarantined.compile_log[-1]["options"] == \
            explicit.compile_log[-1]["options"]

    def test_quarantine_change_invalidates_cached_plan(self, fresh_graph):
        y, x = self.build()
        feed = {x: feed_x()}
        session = Session(fresh_graph, optimize="full")
        session.run(y, feed_dict=feed)
        assert session.plan_compiles == 1
        session.quarantine.quarantine("fold")
        session.run(y, feed_dict=feed)
        assert session.plan_compiles == 2  # recompiled without fold
        session.quarantine.clear("fold")
        session.run(y, feed_dict=feed)
        # Clearing returns to the original cached full-tier plan.
        assert session.plan_compiles == 2
        assert session.plan_cache_hits == 1


class TestProvenance:
    def folded_plan(self, graph):
        x = ops.placeholder((2, 3), name="x")
        product = ops.multiply(ops.constant(2.0, name="two"),
                               ops.constant(3.0, name="three"),
                               name="scale")
        y = ops.add(x, product, name="shifted")
        return compile_plan(graph, [y], "full"), x, y

    def test_folded_steps_carry_provenance(self, fresh_graph):
        plan, _, _ = self.folded_plan(fresh_graph)
        folded = [s for s in plan.steps if s.origin_pass == "fold"]
        assert folded, "expected the const product to fold"
        assert any("scale" in s.provenance for s in folded)
        assert all(s.op.name.endswith("/folded") for s in folded)

    def test_fused_step_carries_provenance(self, fresh_graph):
        from repro.framework.rnn import LSTMCell
        cell = LSTMCell(num_units=3, input_size=4,
                        rng=np.random.default_rng(0), name="cell")
        x = ops.placeholder((2, 4), name="x")
        _, (new_c, new_h) = cell(x, cell.zero_state(batch_size=2))
        plan = compile_plan(fresh_graph, [new_c, new_h], "full")
        assert plan.fused_cells == 1
        fused = [s for s in plan.steps if s.origin_pass == "fuse"]
        assert len(fused) == 1
        # The fused step's provenance names the ops it replaced,
        # anchor (the cell's output op) first.
        assert len(fused[0].provenance) > 1
        assert all("cell" in name or "zero_state" in name or name
                   for name in fused[0].provenance)

    def test_fault_in_folded_step_blames_source_ops(self, fresh_graph):
        plan, x, y = self.folded_plan(fresh_graph)
        session = Session(fresh_graph, optimize="full")
        session.fault_injector = FaultInjector(FaultPlan(
            [FaultSpec(kind="exception", name_pattern="/folded")]))
        with pytest.raises(ExecutionError) as info:
            session.run(y, feed_dict={x: feed_x()})
        error = info.value
        assert error.origin_pass == "fold"
        assert error.blamed_op == "scale"
        assert "synthesized by fold pass" in str(error)
        assert "scale" in str(error)

    def test_error_message_lists_replaced_ops(self):
        error = ExecutionError("scale/folded", "boom",
                               provenance=("scale", "two", "three"),
                               origin_pass="fold")
        assert error.blamed_op == "scale"
        assert "replacing: scale, two, three" in str(error)

    def test_attach_provenance_is_idempotent(self):
        error = ExecutionError("op", "boom", provenance=("a",),
                               origin_pass="fold")
        error.attach_provenance(("b",), "fuse")  # already blamed: no-op
        assert error.provenance == ("a",)
        plain = ExecutionError("op", "boom")
        plain.attach_provenance((), None)  # nothing to attach: no-op
        assert plain.blamed_op == "op"


class ToyTrainer:
    """Quadratic regression over a full-tier session (has fold fodder)."""

    def __init__(self, graph, seed=0):
        self.x = ops.placeholder((4, 3), name="toy_x")
        w = ops.variable(np.zeros((3, 1), dtype=np.float32), name="toy_w")
        self.w = w
        pred = ops.matmul(self.x, w)
        from repro.framework.optimizers import GradientDescentOptimizer
        self.loss = ops.reduce_mean(ops.square(pred - 1.0))
        self.train_step = GradientDescentOptimizer(0.1).minimize(self.loss)
        self.session = Session(graph, seed=seed, optimize="full")
        rng = np.random.default_rng(7)
        self._batches = [rng.standard_normal((4, 3)).astype(np.float32)
                         for _ in range(32)]
        self._cursor = 0

    def sample_feed(self, training=True):
        batch = self._batches[self._cursor % len(self._batches)]
        self._cursor += 1
        return {self.x: batch}

    def step(self):
        loss, _ = self.session.run([self.loss, self.train_step],
                                   feed_dict=self.sample_feed())
        return float(loss)


class TestHealingPolicy:
    def test_repeated_failures_demote_then_enter_safe_mode(self, fresh_graph):
        session = Session(fresh_graph, optimize="full")
        policy = HealingPolicy(session, HealingConfig(demote_after=2))
        error = ExecutionError("MatMul", "boom")
        assert policy.on_failure(error, step=0) is False  # first strike
        assert policy.on_failure(error, step=0) is True   # demoted
        assert session.execution_tier == "structural"
        assert session.quarantine.has_soft()
        assert policy.on_failure(error, step=0) is True   # safe mode
        assert session.safe_mode and session.execution_tier == "safe"
        assert policy.on_failure(error, step=0) is False  # floor reached
        kinds = [e.kind for e in policy.events]
        assert kinds.count("tier_drop") == 2

    def test_provenance_blame_sticky_quarantines_the_pass(self, fresh_graph):
        session = Session(fresh_graph, optimize="full")
        policy = HealingPolicy(session, HealingConfig(quarantine_after=2))
        error = ExecutionError("cell/fused", "boom",
                               provenance=("cell_out", "cell_gate"),
                               origin_pass="fuse")
        policy.on_failure(error, step=0)
        assert not session.quarantine.is_quarantined("fuse")
        policy.on_failure(error, step=1)
        assert session.quarantine.is_quarantined("fuse")
        entry = session.quarantine.entries[0]
        assert entry.sticky and entry.op_name == "cell_out"
        # Sticky quarantine survives re-escalation.
        for step in range(3):
            policy.on_success(step)
        assert session.quarantine.is_quarantined("fuse")
        # ... until explicitly cleared.
        assert policy.clear_quarantine("fuse") == ["fuse"]
        assert not session.quarantine.is_quarantined("fuse")
        assert [e.kind for e in policy.events].count("quarantine_clear") == 1

    def test_deoptimize_hint_demotes_immediately(self, fresh_graph):
        session = Session(fresh_graph, optimize="full")
        policy = HealingPolicy(session, HealingConfig(demote_after=99))
        violation = GuardrailViolation("Exp", "overflow",
                                       deoptimize_hint=True)
        assert policy.on_failure(violation, step=0) is True
        assert session.execution_tier == "structural"

    def test_reescalation_climbs_one_tier_per_streak(self, fresh_graph):
        session = Session(fresh_graph, optimize="full")
        policy = HealingPolicy(session, HealingConfig(
            demote_after=1, reescalate_after=2))
        error = ExecutionError("MatMul", "boom")
        policy.on_failure(error, step=0)   # -> structural
        policy.on_failure(error, step=0)   # -> safe
        assert session.execution_tier == "safe"
        policy.on_success(1)
        assert policy.on_success(2) is True
        assert session.execution_tier == "structural"  # one tier at a time
        policy.on_success(3)
        assert policy.on_success(4) is True
        assert session.execution_tier == "full"
        tiers = [e.tier for e in policy.events if e.kind == "reescalate"]
        assert tiers == ["structural", "full"]

    def test_healing_run_trains_through_persistent_plan_fault(
            self, fresh_graph):
        """End-to-end: a fault the retry budget alone cannot absorb."""
        from repro.framework.resilience import (ResilienceConfig,
                                                ResilientRunner)
        baseline_model = ToyTrainer(fresh_graph)
        baseline = [baseline_model.step() for _ in range(4)]
        model = ToyTrainer(fresh_graph)
        model.session.fault_injector = FaultInjector(FaultPlan(
            [FaultSpec(kind="exception", op_type="MatMul",
                       max_triggers=2)]))
        runner = ResilientRunner(model, config=ResilienceConfig(
            max_retries=3, healing=True))
        losses = runner.run(4)
        assert losses == baseline
        assert model.session.execution_tier == "full"  # re-escalated
        assert runner.degradation_signatures() == tuple(
            e.signature() for e in runner.degradations)


class TestGuardrails:
    def build_nan_graph(self):
        x = ops.placeholder((2, 2), name="x")
        y = ops.log(x, name="logged")          # NaN for negative input
        return ops.add(y, 1.0, name="out"), x

    def test_raise_policy_names_first_offender(self, fresh_graph):
        out, x = self.build_nan_graph()
        session = Session(fresh_graph, guardrails="raise")
        bad = np.array([[1.0, -1.0], [2.0, 3.0]], dtype=np.float32)
        with pytest.raises(ExecutionError, match=r"logged.*\(guardrail\)"):
            session.run(out, feed_dict={x: bad})

    def test_zero_policy_patches_and_records(self, fresh_graph):
        out, x = self.build_nan_graph()
        session = Session(fresh_graph, guardrails="zero")
        bad = np.array([[1.0, -1.0], [2.0, 3.0]], dtype=np.float32)
        tracer = Tracer()
        result = session.run(out, feed_dict={x: bad}, tracer=tracer)
        assert np.isfinite(result).all()
        assert result[0, 1] == 1.0  # the NaN was zeroed before the add
        events = session.degradation_log
        assert [e.kind for e in events] == ["guardrail"]
        assert events[0].op_name == "logged"
        assert tracer.degradation_events("guardrail") == events

    def test_deoptimize_policy_raises_violation_with_hint(self, fresh_graph):
        out, x = self.build_nan_graph()
        session = Session(fresh_graph)
        bad = np.array([[-1.0, 1.0], [2.0, 3.0]], dtype=np.float32)
        with pytest.raises(GuardrailViolation) as info:
            session.run(out, feed_dict={x: bad}, guardrails="deoptimize")
        assert info.value.deoptimize_hint is True

    def test_overflow_limit_flags_large_finite_values(self, fresh_graph):
        x = ops.placeholder((2,), name="x")
        out = ops.multiply(x, 1000.0, name="scaled")
        session = Session(fresh_graph, guardrails=GuardrailPolicy(
            on_violation="raise", overflow_limit=1e4))
        with pytest.raises(ExecutionError, match="overflow"):
            session.run(out, feed_dict={x: np.array([1.0, 100.0],
                                                    dtype=np.float32)})

    def test_per_call_guardrails_override_session_default(self, fresh_graph):
        out, x = self.build_nan_graph()
        session = Session(fresh_graph, guardrails="raise")
        bad = np.array([[-1.0, 1.0], [2.0, 3.0]], dtype=np.float32)
        result = session.run(out, feed_dict={x: bad}, guardrails="zero")
        assert np.isfinite(result).all()

    def test_legacy_check_numerics_message_preserved(self, fresh_graph):
        out, x = self.build_nan_graph()
        session = Session(fresh_graph)
        bad = np.array([[-1.0, 1.0], [2.0, 3.0]], dtype=np.float32)
        with pytest.raises(ExecutionError, match=r"\(check_numerics\)"):
            session.run(out, feed_dict={x: bad}, check_numerics=True)

    def test_invalid_policy_rejected(self):
        with pytest.raises(ValueError, match="guardrail policy"):
            GuardrailPolicy(on_violation="explode")
        with pytest.raises(TypeError):
            GuardrailPolicy.coerce(42)


class TestSafeMode:
    def test_failing_op_is_zeroed_and_the_step_survives(self, fresh_graph):
        x = ops.placeholder((2, 2), name="x")
        y = ops.add(ops.multiply(x, 2.0, name="doubled"), 1.0, name="out")
        session = Session(fresh_graph)
        session.safe_mode = True
        session.fault_injector = FaultInjector(FaultPlan(
            [FaultSpec(kind="exception", name_pattern="doubled",
                       max_triggers=None)]))
        result = session.run(y, feed_dict={x: feed_x((2, 2))})
        # The multiply was zeroed, so out == 0 + 1 everywhere.
        np.testing.assert_array_equal(result, np.ones((2, 2),
                                                      dtype=np.float32))
        kinds = [e.kind for e in session.degradation_log]
        assert kinds == ["op_zeroed"]
        assert session.degradation_log[0].op_name == "doubled"

    def test_safe_mode_forces_structural_plans_and_screening(
            self, fresh_graph):
        x = ops.placeholder((2, 2), name="x")
        out = ops.add(ops.log(x, name="logged"), 1.0, name="out")
        session = Session(fresh_graph, optimize="full")
        session.safe_mode = True
        assert session.execution_tier == "safe"
        assert session.effective_options() == PlanOptions.structural()
        bad = np.array([[-1.0, 1.0], [2.0, 3.0]], dtype=np.float32)
        result = session.run(out, feed_dict={x: bad})  # no raise
        assert np.isfinite(result).all()
        assert any(e.kind == "guardrail" for e in session.degradation_log)

    def test_pass_flags_cover_every_optimizing_pass(self):
        assert set(PASS_FLAGS.values()) == {
            "eliminate_identities", "fold_constants",
            "merge_subexpressions", "fuse_lstm"}
