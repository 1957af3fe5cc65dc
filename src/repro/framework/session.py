"""The session: compiled-plan execution with tracing hooks.

A :class:`Session` owns all runtime state for a graph — variable values
and the random stream — and executes each ``run`` call through a
compiled :class:`~repro.framework.compiler.ExecutionPlan`. The first run
of a fetch set pays a compilation: the fetch subgraph is lowered through
the optimization pipeline into a flat schedule whose operands are
integer slots, with feed coverage, input lookups, and free-after lists
all resolved at compile time. Subsequent runs of the same fetch set
reuse the cached plan (plans are invalidated when the graph gains
operations), so the steady-state interpreter loop does no per-run graph
analysis at all.

Each operation's execution can be individually timed: an optional tracer
receives one record per op per step, and the profiling stack in
:mod:`repro.profiling` is built entirely on this hook, just as the
paper's tools were built on TensorFlow's runtime tracing support.
Intermediate tensors are freed as soon as their statically computed last
consumer has run, which keeps peak memory manageable for the deep
convolutional workloads; the measured peak is validated against the
plan's memory planner by the tier-1 tests.
"""

from __future__ import annotations

import copy
import time
from dataclasses import dataclass
from typing import TYPE_CHECKING, Any, Mapping, Protocol, Sequence

import numpy as np

from .errors import ExecutionError, FeedError, GuardrailViolation
from .graph import Graph, Operation, Tensor, get_default_graph
from .memory import K_CONST, K_PLACEHOLDER
from .ops.state_ops import Placeholder, VariableOp

if TYPE_CHECKING:  # pragma: no cover - import cycle guard, typing only
    from .compiler import ExecutionPlan, PassQuarantine


@dataclass(frozen=True)
class GuardrailPolicy:
    """Op-level numerical screening for every executed plan step.

    Replaces the loss-only NaN guard with a per-op screen: after each
    step's outputs materialize, any floating-point output containing
    NaN/Inf (or exceeding ``overflow_limit`` in magnitude, when set)
    triggers the configured response:

    * ``"raise"`` — raise :class:`~repro.framework.errors.ExecutionError`
      naming the first offending op (what ``check_numerics=True`` always
      did; that flag is now sugar for this policy).
    * ``"zero"`` — replace the offending values with 0, record a
      ``DegradationEvent`` (kind ``"guardrail"``), and keep running.
    * ``"deoptimize"`` — raise a
      :class:`~repro.framework.errors.GuardrailViolation` carrying a
      de-optimization hint; under a :class:`HealingPolicy` the step is
      rolled back and recompiled at a safer tier instead of aborting.
    """

    on_violation: str = "raise"
    overflow_limit: float | None = None
    #: internal: preserve the historical "(check_numerics)" message
    legacy_check_numerics: bool = False

    _POLICIES = ("raise", "zero", "deoptimize")

    def __post_init__(self):
        if self.on_violation not in self._POLICIES:
            raise ValueError(
                f"guardrail policy must be one of {self._POLICIES}, "
                f"got {self.on_violation!r}")

    @classmethod
    def coerce(cls, value) -> "GuardrailPolicy | None":
        if value is None or isinstance(value, cls):
            return value
        if isinstance(value, str):
            return cls(on_violation=value)
        raise TypeError(
            f"guardrails must be a GuardrailPolicy, a policy name, or "
            f"None; got {type(value).__name__}")


@dataclass(frozen=True)
class DegradationEvent:
    """One self-healing action: degradation, quarantine, or recovery.

    The healing counterpart of
    :class:`~repro.framework.resilience.FailureEvent`. Kinds:

    * ``fault`` — a plan step failed under healing (op + tier recorded);
    * ``blame`` — the failure was localized to a source-graph op
      (through synthesized-step provenance when applicable);
    * ``tier_drop`` — execution demoted to a safer tier (``tier`` is
      the tier now in effect);
    * ``quarantine`` — a compiler pass was quarantined (``pass_name``);
    * ``reescalate`` — clean steps earned a climb back up a tier;
    * ``quarantine_clear`` — a quarantined pass was explicitly cleared;
    * ``guardrail`` — a numerical guardrail zeroed non-finite values;
    * ``op_zeroed`` — safe mode replaced a failing op's outputs with
      zeros to keep the step alive.

    Events flow through the same tracer hook as failure events and are
    persisted into serialized traces by :mod:`repro.profiling.serialize`.
    """

    step: int
    kind: str
    op_name: str | None = None
    tier: str | None = None
    pass_name: str | None = None
    attempt: int = 0
    seconds_lost: float = 0.0
    detail: str = ""

    def signature(self) -> tuple:
        """Timing-free identity, for determinism comparisons."""
        return (self.step, self.kind, self.op_name, self.tier,
                self.pass_name, self.attempt)


@dataclass(frozen=True)
class HealingConfig:
    """Knobs for :class:`HealingPolicy`.

    Args:
        demote_after: consecutive failures blamed on the same op before
            execution drops one tier.
        quarantine_after: failures blamed (via provenance) on the same
            synthesized pass before that pass is sticky-quarantined.
        reescalate_after: consecutive clean steps at a degraded tier
            before execution climbs one tier back up.
    """

    demote_after: int = 2
    quarantine_after: int = 2
    reescalate_after: int = 3

    @classmethod
    def coerce(cls, value) -> "HealingConfig | None":
        if value is None or value is False:
            return None
        if value is True:
            return cls()
        if isinstance(value, cls):
            return value
        raise TypeError(
            f"healing must be a HealingConfig, a bool, or None; "
            f"got {type(value).__name__}")


class HealingPolicy:
    """Tiered de-optimization driven by blame localization.

    Owns the session's degradation ladder::

        full (or whatever the base options are)
          -> structural        (every optimizing pass soft-quarantined)
            -> safe mode       (op-at-a-time: per-op exception capture
                                + forced numeric screening)

    On repeated failure at the same blamed op the policy demotes one
    tier (recording the disabled passes in the session's
    :class:`~repro.framework.compiler.PassQuarantine`); when provenance
    pinpoints the synthesizing pass (a folded constant, a fused LSTM
    cell) that pass is *sticky*-quarantined instead, so the offending
    rewrite stays off for this graph until explicitly cleared. After
    ``reescalate_after`` consecutive clean steps the policy climbs one
    tier back up (sticky quarantines survive re-escalation). Every
    action is emitted as a :class:`DegradationEvent`.

    The :class:`~repro.framework.resilience.ResilientRunner` consults
    this policy from its retry loop when
    ``ResilienceConfig(healing=...)`` is set.
    """

    def __init__(self, session: "Session",
                 config: HealingConfig | None = None,
                 sink=None):
        self.session = session
        self.config = config or HealingConfig()
        self._sink = sink
        #: every degradation/recovery action taken, in order
        self.events: list[DegradationEvent] = []
        self._failures: dict[str, int] = {}
        self._clean_steps = 0

    # -- events ------------------------------------------------------------

    def _emit(self, event: DegradationEvent) -> None:
        self.events.append(event)
        if self._sink is not None:
            self._sink(event)

    @property
    def current_tier(self) -> str:
        return self.session.execution_tier

    # -- failure handling --------------------------------------------------

    def on_failure(self, exc: Exception, step: int) -> bool:
        """Record a failed step; maybe demote/quarantine. True if acted."""
        self._clean_steps = 0
        op_name = getattr(exc, "op_name", None)
        blamed = getattr(exc, "blamed_op", None) or op_name or "<unknown>"
        origin = getattr(exc, "origin_pass", None)
        provenance = tuple(getattr(exc, "provenance", ()) or ())
        count = self._failures.get(blamed, 0) + 1
        self._failures[blamed] = count
        tier = self.current_tier
        message = str(exc).splitlines()[0] if str(exc) else ""
        self._emit(DegradationEvent(
            step=step, kind="fault", op_name=op_name, tier=tier,
            attempt=count, detail=message))
        self._emit(DegradationEvent(
            step=step, kind="blame", op_name=blamed, tier=tier,
            pass_name=origin, attempt=count,
            detail=("via " + " <- ".join(provenance) if provenance
                    else "direct")))
        config = self.config
        if (origin is not None
                and not self.session.quarantine.is_quarantined(origin)
                and count >= config.quarantine_after):
            self.session.quarantine.quarantine(
                origin, op_name=blamed,
                reason=f"blamed for {count} failures at step {step}",
                sticky=True)
            self._emit(DegradationEvent(
                step=step, kind="quarantine", op_name=blamed,
                tier=self.current_tier, pass_name=origin,
                detail="sticky: skipped until explicitly cleared"))
            return True
        if getattr(exc, "deoptimize_hint", False) \
                or count >= config.demote_after:
            return self.demote(step, blamed)
        return False

    def demote(self, step: int, blamed: str) -> bool:
        """Drop one tier; records soft quarantines for disabled passes."""
        from .compiler import PASS_FLAGS, PlanOptions
        session = self.session
        if session.safe_mode:
            return False  # already at the lowest tier
        effective = session.effective_options()
        if effective != PlanOptions.structural():
            enabled = [name for name, flag in PASS_FLAGS.items()
                       if getattr(effective, flag)]
            self._emit(DegradationEvent(
                step=step, kind="tier_drop", op_name=blamed,
                tier="structural",
                detail=f"demoted from {effective.describe()!r} after "
                       f"repeated failures at {blamed!r}"))
            for pass_name in enabled:
                session.quarantine.quarantine(
                    pass_name, op_name=blamed,
                    reason=f"tier drop at step {step}", sticky=False)
                self._emit(DegradationEvent(
                    step=step, kind="quarantine", op_name=blamed,
                    tier="structural", pass_name=pass_name,
                    detail="soft: lifted on re-escalation"))
            return True
        session.safe_mode = True
        self._emit(DegradationEvent(
            step=step, kind="tier_drop", op_name=blamed, tier="safe",
            detail="op-at-a-time safe mode: per-op exception capture "
                   "and numeric screening"))
        return True

    # -- recovery ----------------------------------------------------------

    def on_success(self, step: int) -> bool:
        """Record a clean step; maybe re-escalate. True if escalated."""
        self._clean_steps += 1
        if self._clean_steps < self.config.reescalate_after:
            return False
        session = self.session
        if session.safe_mode:
            session.safe_mode = False
            self._clean_steps = 0
            self._emit(DegradationEvent(
                step=step, kind="reescalate", tier=self.current_tier,
                detail=f"left safe mode after "
                       f"{self.config.reescalate_after} clean steps"))
            return True
        if session.quarantine.has_soft():
            lifted = session.quarantine.lift_soft()
            self._clean_steps = 0
            self._emit(DegradationEvent(
                step=step, kind="reescalate", tier=self.current_tier,
                detail="lifted soft quarantine: " + ", ".join(lifted)))
            return True
        return False

    def clear_quarantine(self, pass_name: str | None = None,
                         step: int = -1) -> list[str]:
        """Explicitly clear sticky quarantines (emits events)."""
        cleared = self.session.quarantine.clear(pass_name)
        for name in cleared:
            self._emit(DegradationEvent(
                step=step, kind="quarantine_clear", pass_name=name,
                tier=self.current_tier))
        return cleared


class Tracer(Protocol):
    """Anything with a ``record`` method can observe op executions."""

    def record(self, op: Operation, seconds: float) -> None:  # pragma: no cover
        ...

    def finish_step(self, total_seconds: float,
                    peak_live_bytes: int = 0) -> None:  # pragma: no cover
        ...


class FaultInjector(Protocol):
    """Hook points :class:`Session.run` offers to a chaos-fault injector.

    See :mod:`repro.framework.faults` for the concrete implementation;
    the protocol keeps the executor decoupled from the fault model.
    """

    def on_feed(self, op: Operation,
                value: np.ndarray) -> np.ndarray:  # pragma: no cover
        ...

    def before_op(self, op: Operation) -> None:  # pragma: no cover
        ...

    def after_op(self, op: Operation,
                 outputs: Sequence[np.ndarray]):  # pragma: no cover
        ...

    def end_step(self) -> None:  # pragma: no cover
        ...


@dataclass(frozen=True)
class SessionSnapshot:
    """A deep copy of a session's mutable run state.

    Captures variable values *and* the random-stream state, so restoring
    a snapshot and re-running a step reproduces it bit-for-bit — the
    property the resilient runner's rollback-and-retry relies on.
    """

    variables: dict[int, np.ndarray]
    variable_ops: dict[int, VariableOp]
    rng_state: dict


class RunContext:
    """Per-session state handed to every op's ``compute``."""

    def __init__(self, rng: np.random.Generator,
                 variables: dict[int, np.ndarray],
                 variable_ops: dict[int, VariableOp]):
        self.rng = rng
        self._variables = variables
        self._variable_ops = variable_ops

    def read_variable(self, op: VariableOp) -> np.ndarray:
        key = id(op)
        if key not in self._variables:
            self._variables[key] = op.initial_value.copy()
            self._variable_ops[key] = op
        return self._variables[key]

    def write_variable(self, op: VariableOp, value: np.ndarray) -> None:
        self._variables[id(op)] = np.asarray(value, dtype=op.output.dtype)
        self._variable_ops[id(op)] = op


class Session:
    """Executes a graph with its own variables and random stream."""

    def __init__(self, graph: Graph | None = None, seed: int = 0,
                 optimize=None, guardrails=None):
        from .compiler import PassQuarantine, PlanOptions
        self.graph = graph if graph is not None else get_default_graph()
        #: optimization level plans are compiled at. None/'structural'
        #: keeps the classic interpreter's observable behaviour exactly;
        #: 'full' (or a PlanOptions) enables the optimizing passes.
        self.options = PlanOptions.coerce(optimize)
        #: pass-health registry; quarantined passes are skipped when
        #: compiling plans for this session (see compiler.PassQuarantine)
        self.quarantine: "PassQuarantine" = PassQuarantine()
        #: op-at-a-time safe mode: plans drop to the structural tier,
        #: every op runs under exception capture (failing ops yield
        #: zeros instead of aborting the step), and numeric screening
        #: is forced on with the zero-and-record policy
        self.safe_mode = False
        #: session-wide default :class:`GuardrailPolicy` (``run`` can
        #: override per call); None disables screening
        self.guardrails: GuardrailPolicy | None = \
            GuardrailPolicy.coerce(guardrails)
        #: degradation events emitted by this session's executor
        #: (guardrail zeroings, safe-mode op captures), newest last
        self.degradation_log: list[DegradationEvent] = []
        #: index of the next ``run`` call (aborted runs count)
        self.run_count = 0
        self._variables: dict[int, np.ndarray] = {}
        self._variable_ops: dict[int, VariableOp] = {}
        self.rng = np.random.default_rng(seed)
        self._ctx = RunContext(self.rng, self._variables, self._variable_ops)
        # Compiled plans cached per (effective PlanOptions, fetch names).
        # A cached plan is reused only while it still matches the graph
        # version and the exact fetch tensors (see ExecutionPlan.matches)
        # — fetch *names* are just the lookup key and are never trusted
        # on their own.
        self._plans: dict[tuple, "ExecutionPlan"] = {}
        #: number of plan compilations / cache reuses this session did
        self.plan_compiles = 0
        self.plan_cache_hits = 0
        #: compile summaries (one dict per compilation, newest last)
        self.compile_log: list[dict] = []
        #: peak bytes of live intermediate tensors in the last run
        self.last_peak_live_bytes = 0
        #: optional chaos-fault injector consulted around every op
        #: execution (see :mod:`repro.framework.faults`)
        self.fault_injector: FaultInjector | None = None

    # -- variable access ------------------------------------------------------

    def variable_value(self, tensor: Tensor) -> np.ndarray:
        """Current value of a variable tensor (initializing it if needed)."""
        if not isinstance(tensor.op, VariableOp):
            raise FeedError(f"{tensor.name!r} is not a variable")
        return self._ctx.read_variable(tensor.op)

    def set_variable(self, tensor: Tensor, value: np.ndarray) -> None:
        if not isinstance(tensor.op, VariableOp):
            raise FeedError(f"{tensor.name!r} is not a variable")
        value = np.asarray(value, dtype=tensor.dtype)
        if value.shape != tensor.shape:
            raise FeedError(
                f"variable {tensor.name!r} has shape {tensor.shape}, "
                f"got {value.shape}")
        self._ctx.write_variable(tensor.op, value)

    # -- state snapshots ---------------------------------------------------------

    def state_snapshot(self) -> SessionSnapshot:
        """Capture all mutable run state (variables + RNG) for rollback."""
        return SessionSnapshot(
            variables={key: value.copy()
                       for key, value in self._variables.items()},
            variable_ops=dict(self._variable_ops),
            rng_state=copy.deepcopy(self.rng.bit_generator.state))

    def restore_snapshot(self, snapshot: SessionSnapshot) -> None:
        """Restore state captured by :meth:`state_snapshot`.

        The variable store is mutated in place (it is shared with the
        run context), so restoring never invalidates cached plans.
        """
        self._variables.clear()
        self._variables.update({key: value.copy()
                                for key, value in snapshot.variables.items()})
        self._variable_ops.clear()
        self._variable_ops.update(snapshot.variable_ops)
        self.rng.bit_generator.state = copy.deepcopy(snapshot.rng_state)

    def fork(self, seed: int = 0) -> "Session":
        """A new session over the same graph with this session's state.

        The fork receives a copy of the current variable values, the
        parent's optimization options, and the parent's degradation
        state (safe mode and quarantined passes), but a fresh random
        stream seeded with ``seed`` and its own plan cache. This is the
        replica-pool primitive in :mod:`repro.serving`: each replica
        serves the same weights from an isolated session, so one
        replica's faults or tier drops never leak into another.
        """
        fork = Session(self.graph, seed=seed, optimize=self.options,
                       guardrails=self.guardrails)
        fork.safe_mode = self.safe_mode
        fork.quarantine = copy.deepcopy(self.quarantine)
        snapshot = self.state_snapshot()
        fork._variables.update({key: value.copy()
                                for key, value in snapshot.variables.items()})
        fork._variable_ops.update(snapshot.variable_ops)
        return fork

    # -- compilation -------------------------------------------------------------

    def effective_options(self):
        """The :class:`PlanOptions` plans are *actually* compiled at.

        The base level, degraded by the current tier: safe mode forces
        the structural tier, and every pass quarantined in
        :attr:`quarantine` is switched off. Because the plan cache is
        keyed by this value, tier changes and quarantine updates
        transparently trigger recompilation.
        """
        from .compiler import PlanOptions
        if self.safe_mode:
            return PlanOptions.structural()
        return self.quarantine.filter(self.options)

    @property
    def execution_tier(self) -> str:
        """Human-readable current tier: 'safe', or the effective level."""
        return "safe" if self.safe_mode else self.effective_options().describe()

    def compile(self, fetches, tracer: Tracer | None = None) -> "ExecutionPlan":
        """Compile (or fetch the cached plan for) a fetch set.

        ``run`` calls this implicitly; it is public so tools can inspect
        a plan — pass records, memory plan, schedule — without running.
        """
        fetch_list = [fetches] if isinstance(fetches, Tensor) else list(fetches)
        return self._plan_for(fetch_list, tracer)

    def _plan_for(self, fetch_list: list[Tensor],
                  tracer: Tracer | None) -> "ExecutionPlan":
        options = self.effective_options()
        key = (options,) + tuple(t.name for t in fetch_list)
        plan = self._plans.get(key)
        if plan is not None and plan.matches(self.graph, fetch_list):
            self.plan_cache_hits += 1
            return plan
        from .compiler import compile_plan
        plan = compile_plan(self.graph, fetch_list, options)
        self._plans[key] = plan
        self.plan_compiles += 1
        summary = plan.summary()
        self.compile_log.append(summary)
        if tracer is not None:
            record_compile = getattr(tracer, "record_compile", None)
            if record_compile is not None:
                record_compile(summary)
        return plan

    # -- execution --------------------------------------------------------------

    def run(self, fetches, feed_dict: Mapping[Tensor, Any] | None = None,
            tracer: Tracer | None = None, check_numerics: bool = False,
            guardrails: "GuardrailPolicy | str | None" = None):
        """Execute the graph and return the value(s) of ``fetches``.

        Args:
            fetches: a Tensor or a list/tuple of Tensors.
            feed_dict: maps Placeholder tensors to numpy values.
            tracer: optional observer receiving one record per executed op.
            check_numerics: if True, raise :class:`ExecutionError` naming
                the first operation that produces a NaN or Inf — the
                debugging aid for diverging training runs. Equivalent to
                ``guardrails="raise"``.
            guardrails: a :class:`GuardrailPolicy` (or policy name:
                ``"raise"``, ``"zero"``, ``"deoptimize"``) screening
                every op's outputs for NaN/Inf/overflow. Defaults to the
                session's :attr:`guardrails`. In :attr:`safe_mode` the
                zero-and-record policy is always in force.
        """
        single = isinstance(fetches, Tensor)
        fetch_list: list[Tensor] = [fetches] if single else list(fetches)
        feeds = self._validate_feeds(feed_dict or {})
        plan = self._plan_for(fetch_list, tracer)
        for op in plan.placeholders:
            if id(op) not in feeds:
                raise FeedError(
                    f"placeholder {op.name!r} is required but was not fed")

        guard = GuardrailPolicy.coerce(guardrails)
        if guard is None and check_numerics:
            guard = GuardrailPolicy(on_violation="raise",
                                    legacy_check_numerics=True)
        if guard is None:
            guard = self.guardrails
        safe = self.safe_mode
        if safe and (guard is None or guard.on_violation != "zero"):
            guard = GuardrailPolicy(
                on_violation="zero",
                overflow_limit=(guard.overflow_limit
                                if guard is not None else None))
        run_index = self.run_count
        self.run_count += 1

        now = time.perf_counter  # local binding: called twice per op
        ctx = self._ctx
        injector = self.fault_injector
        values: list = [None] * plan.num_slots
        live_bytes = 0
        peak_bytes = 0
        step_start = now() if tracer is not None else 0.0
        try:
            for step in plan.steps:
                op = step.op
                kind = step.kind
                if kind == K_PLACEHOLDER:
                    fed = feeds[id(op)]
                    if injector is not None:
                        fed = injector.on_feed(op, fed)
                    values[step.output_slots[0]] = fed
                    live_bytes += fed.nbytes
                    continue
                op_start = now() if tracer is not None else 0.0
                try:
                    if injector is not None:
                        injector.before_op(op)
                    if kind == K_CONST:
                        outputs = (step.const_value,)
                    else:
                        args = tuple(values[slot]
                                     for slot in step.input_slots)
                        outputs = op.compute(args, ctx)
                    if injector is not None:
                        outputs = injector.after_op(op, outputs)
                except Exception as exc:
                    if safe:
                        # Op-at-a-time safe mode: keep the step alive by
                        # substituting zeros for the failing op's
                        # declared outputs, and record the capture.
                        outputs = tuple(np.zeros(t.shape, dtype=t.dtype)
                                        for t in op.outputs)
                        self._degrade(DegradationEvent(
                            step=run_index, kind="op_zeroed",
                            op_name=op.name, tier="safe",
                            detail=f"{type(exc).__name__}: "
                                   + str(exc).splitlines()[0]), tracer)
                    elif isinstance(exc, ExecutionError):
                        if step.provenance:
                            exc.attach_provenance(step.provenance,
                                                  step.origin_pass)
                        raise
                    else:
                        raise ExecutionError(
                            op.name, str(exc),
                            input_shapes=[t.shape for t in op.inputs],
                            provenance=step.provenance,
                            origin_pass=step.origin_pass) from exc
                if tracer is not None:
                    tracer.record(op, now() - op_start)
                if guard is not None:
                    outputs = self._screen_outputs(step, outputs, guard,
                                                   tracer, run_index)
                if step.validated:
                    # Steady state: kernels return ndarrays of the
                    # declared shapes, so skip the asarray normalization
                    # copy and the shape comparison entirely.
                    for slot, value in zip(step.output_slots, outputs):
                        values[slot] = value
                        live_bytes += value.nbytes
                else:
                    # First execution of this step: normalize any
                    # non-ndarray outputs and check declared shapes.
                    for slot, tensor, value in zip(step.output_slots,
                                                   op.outputs, outputs):
                        value = np.asarray(value)
                        if value.shape != tensor.shape:
                            raise ExecutionError(
                                op.name,
                                f"produced shape {value.shape}, declared "
                                f"{tensor.shape} for {tensor.name}")
                        values[slot] = value
                        live_bytes += value.nbytes
                    step.validated = True
                if live_bytes > peak_bytes:
                    peak_bytes = live_bytes
                for slot in step.free_slots:
                    live_bytes -= values[slot].nbytes
                    values[slot] = None
        finally:
            # Aborted runs still advance the injector's step counter, so
            # a retry of the same training step is a *new* injection step.
            if injector is not None:
                injector.end_step()
        self.last_peak_live_bytes = peak_bytes
        if tracer is not None:
            tracer.finish_step(now() - step_start, peak_bytes)

        results = [values[slot] for slot in plan.fetch_slots]
        return results[0] if single else results

    # -- helpers ----------------------------------------------------------------

    def _degrade(self, event: DegradationEvent, tracer) -> None:
        """Record a degradation event in the session log and the tracer."""
        self.degradation_log.append(event)
        if tracer is not None:
            record_event = getattr(tracer, "record_event", None)
            if record_event is not None:
                record_event(event)

    def _screen_outputs(self, step, outputs, guard: GuardrailPolicy,
                        tracer, run_index: int):
        """Apply the numerical guardrail to one step's outputs.

        Returns the (possibly patched) outputs under the ``"zero"``
        policy; raises under ``"raise"``/``"deoptimize"``. Screening
        runs *after* the tracer records the op, so profiles still count
        the offending execution — matching the historical
        ``check_numerics`` ordering.
        """
        op = step.op
        screened = None
        for index, (tensor, value) in enumerate(zip(op.outputs, outputs)):
            value = np.asarray(value)
            if not np.issubdtype(value.dtype, np.floating):
                continue
            bad = ~np.isfinite(value)
            if guard.overflow_limit is not None:
                bad |= np.abs(value) > guard.overflow_limit
            if not bad.any():
                continue
            if guard.on_violation == "zero":
                if screened is None:
                    screened = [np.asarray(v) for v in outputs]
                patched = value.copy()
                patched[bad] = 0
                screened[index] = patched
                self._degrade(DegradationEvent(
                    step=run_index, kind="guardrail", op_name=op.name,
                    tier=self.execution_tier,
                    detail=f"zeroed {int(bad.sum())} flagged value(s) "
                           f"in {tensor.name}"), tracer)
                continue
            label = ("NaN" if np.isnan(value).any()
                     else "Inf" if np.isinf(value).any() else "overflow")
            if guard.on_violation == "deoptimize":
                error: ExecutionError = GuardrailViolation(
                    op.name,
                    f"produced {label} in {tensor.name} "
                    f"(guardrail: deoptimize)",
                    deoptimize_hint=True)
            else:
                suffix = ("check_numerics" if guard.legacy_check_numerics
                          else "guardrail")
                error = ExecutionError(
                    op.name,
                    f"produced {label} in {tensor.name} ({suffix})")
            error.attach_provenance(step.provenance, step.origin_pass)
            raise error
        return outputs if screened is None else tuple(screened)

    def _validate_feeds(self, feed_dict: Mapping[Tensor, Any]) -> dict[int, np.ndarray]:
        feeds: dict[int, np.ndarray] = {}
        for tensor, raw in feed_dict.items():
            if not isinstance(tensor, Tensor) or not isinstance(
                    tensor.op, Placeholder):
                raise FeedError(
                    f"only placeholders can be fed, got "
                    f"{getattr(tensor, 'name', tensor)!r}")
            value = np.asarray(raw, dtype=tensor.dtype)
            if value.shape != tensor.shape:
                raise FeedError(
                    f"feed for {tensor.name!r} has shape {value.shape}, "
                    f"placeholder expects {tensor.shape}")
            feeds[id(tensor.op)] = value
        return feeds
