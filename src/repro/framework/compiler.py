"""The plan compiler: fetch sets become compiled ``ExecutionPlan``\\ s.

Section III-C of the paper observes that every major framework converged
on "an application-level, compiler-esque optimizer" between graph
construction and execution. This module is that component, unified with
execution: :func:`compile_plan` lowers a ``(graph, fetches)`` pair
through a pass pipeline —

    prune -> identity elimination -> constant folding -> CSE
          -> LSTM fusion -> dead-code elimination -> memory planning
          -> scheduling

— into an :class:`ExecutionPlan`: a flat list of :class:`CompiledStep`
entries whose operands are precomputed integer *slots* instead of
name-keyed dictionaries, plus a free-after list per step. Everything the
old interpreter re-derived per run (refcounts, feed coverage, input
lookups) is resolved here, once.

Two properties the pipeline is built around:

* **Original operations execute.** Optimizations rewire the *schedule*
  (slot aliasing, synthesized constants, fused nodes) but surviving
  steps reference the original graph's operations. Variable state is
  keyed by operation identity, fault injectors match on op names, and
  tracers attribute time to ops — all of which keep working unchanged.
  Synthesized ops (folded constants, fused LSTM cells) live in a private
  scratch graph owned by the plan.
* **Bit-for-bit numerics.** Passes never change the value any fetched
  or surviving tensor sees: stateful/random/optimizer ops are never
  folded, merged, or eliminated (preserving RNG draw order), folding
  runs the op's own kernel, and fusion only fires when the fused kernel
  is a drop-in for the composed subtree.

Plans record the graph version they were compiled against; the session
recompiles when the graph has since gained operations (the stale-plan
hazard the old name-keyed cache had).
"""

from __future__ import annotations

import time
from dataclasses import dataclass, replace

import numpy as np

from .errors import GraphError
from .graph import Graph, OpClass, Operation, Tensor
from .memory import K_COMPUTE, K_CONST, K_PLACEHOLDER, MemoryPlan, plan_memory
from .ops.state_ops import Const, Identity, Placeholder, VariableOp
from .session import RunContext

#: op classes the passes never fold, merge or eliminate
_IMPURE_CLASSES = frozenset({OpClass.STATE, OpClass.OPTIMIZATION,
                             OpClass.RANDOM_SAMPLING, OpClass.CONTROL})

#: do not materialize folded constants above this many elements
_FOLD_SIZE_LIMIT = 1 << 20


@dataclass
class RewriteStats:
    """What the optimization passes did to one plan."""

    ops_in: int = 0
    ops_out: int = 0
    identities_removed: int = 0
    constants_folded: int = 0
    subexpressions_merged: int = 0

    @property
    def removed(self) -> int:
        return self.ops_in - self.ops_out


def _is_pure(op: Operation) -> bool:
    return (op.op_class not in _IMPURE_CLASSES
            and not isinstance(op, (Placeholder, VariableOp)))


def _attr_key(value) -> object:
    """Hashable projection of one attribute value for CSE keys."""
    if isinstance(value, np.ndarray):
        return (value.shape, str(value.dtype), value.tobytes())
    if isinstance(value, np.dtype):
        return str(value)
    if isinstance(value, (list, tuple)):
        return tuple(_attr_key(v) for v in value)
    if isinstance(value, Operation):
        # Keyed by name + type, not id(): an id can be recycled by the
        # allocator once an earlier graph's operations are collected,
        # which would silently merge unrelated ops. Names are unique
        # within a graph, so this key is stable.
        return ("op", value.name, value.type_name)
    return value


@dataclass(frozen=True)
class PlanOptions:
    """Which optimization passes a plan compilation runs.

    ``structural()`` (every pass off) preserves the classic
    interpreter's observable behaviour exactly — every subgraph op
    executes, is traced, and is charged to the memory accounting — while
    still gaining slot-indexed dispatch and compile-time feed checking.
    ``full()`` enables the whole pipeline. Plain sessions default to
    structural; the workload models opt into full.
    """

    eliminate_identities: bool = True
    fold_constants: bool = True
    merge_subexpressions: bool = True
    fuse_lstm: bool = True

    @classmethod
    def structural(cls) -> "PlanOptions":
        return cls(eliminate_identities=False, fold_constants=False,
                   merge_subexpressions=False, fuse_lstm=False)

    @classmethod
    def full(cls) -> "PlanOptions":
        return cls()

    @classmethod
    def coerce(cls, value) -> "PlanOptions":
        """Accept an options object, a level name, or None (structural)."""
        if value is None:
            return cls.structural()
        if isinstance(value, cls):
            return value
        if isinstance(value, str):
            level = value.lower()
            if level in ("structural", "none"):
                return cls.structural()
            if level in ("full", "all"):
                return cls.full()
            raise ValueError(
                f"unknown optimization level {value!r}; "
                "expected 'structural'/'none' or 'full'/'all'")
        raise TypeError(
            f"optimize must be a PlanOptions, a level name, or None; "
            f"got {type(value).__name__}")

    def describe(self) -> str:
        if self == PlanOptions.full():
            return "full"
        enabled = [name for name, on in (
            ("identity", self.eliminate_identities),
            ("fold", self.fold_constants),
            ("cse", self.merge_subexpressions),
            ("fuse", self.fuse_lstm)) if on]
        return "+".join(enabled) if enabled else "structural"


#: optimization-pass names (as used by quarantine and pass records)
#: mapped to the PlanOptions flag that enables each pass
PASS_FLAGS = {
    "identity": "eliminate_identities",
    "fold": "fold_constants",
    "cse": "merge_subexpressions",
    "fuse": "fuse_lstm",
}


@dataclass(frozen=True)
class QuarantineEntry:
    """One quarantined compiler pass in a :class:`PassQuarantine`.

    ``sticky`` entries persist until explicitly cleared — they record a
    rewrite that has been *blamed* for a failure (via step provenance)
    and must not run again for this graph. Non-sticky ("soft") entries
    implement temporary tier demotion and are lifted wholesale when the
    healing policy re-escalates after enough clean steps.
    """

    pass_name: str
    reason: str = ""
    op_name: str | None = None
    sticky: bool = True

    def as_dict(self) -> dict:
        return {"pass": self.pass_name, "reason": self.reason,
                "op": self.op_name, "sticky": self.sticky}


class PassQuarantine:
    """Pass-health registry: which rewrites are disabled for a graph.

    Owned by a :class:`~repro.framework.session.Session` (one registry
    per session, hence per graph). The session filters its base
    :class:`PlanOptions` through :meth:`filter` before every plan
    lookup, so quarantining or clearing a pass transparently invalidates
    cached plans — the next ``run`` recompiles without the offending
    rewrite. ``version`` increments on every mutation, for observers.
    """

    def __init__(self):
        self._entries: dict[str, QuarantineEntry] = {}
        self.version = 0

    def __len__(self) -> int:
        return len(self._entries)

    @property
    def entries(self) -> tuple[QuarantineEntry, ...]:
        return tuple(self._entries.values())

    def is_quarantined(self, pass_name: str) -> bool:
        return pass_name in self._entries

    def has_soft(self) -> bool:
        return any(not e.sticky for e in self._entries.values())

    def quarantine(self, pass_name: str, *, reason: str = "",
                   op_name: str | None = None,
                   sticky: bool = True) -> QuarantineEntry:
        """Disable ``pass_name`` for this session until cleared/lifted."""
        if pass_name not in PASS_FLAGS:
            raise ValueError(
                f"unknown compiler pass {pass_name!r}; expected one of "
                f"{sorted(PASS_FLAGS)}")
        entry = QuarantineEntry(pass_name, reason=reason, op_name=op_name,
                                sticky=sticky)
        self._entries[pass_name] = entry
        self.version += 1
        return entry

    def clear(self, pass_name: str | None = None) -> list[str]:
        """Explicitly clear one pass (or all); returns what was cleared."""
        names = ([pass_name] if pass_name is not None
                 else list(self._entries))
        cleared = [name for name in names if self._entries.pop(name, None)]
        if cleared:
            self.version += 1
        return cleared

    def lift_soft(self) -> list[str]:
        """Remove non-sticky entries (re-escalation); sticky ones stay."""
        lifted = [name for name, entry in self._entries.items()
                  if not entry.sticky]
        for name in lifted:
            del self._entries[name]
        if lifted:
            self.version += 1
        return lifted

    def filter(self, options: "PlanOptions") -> "PlanOptions":
        """``options`` with every quarantined pass forced off."""
        if not self._entries:
            return options
        return replace(options, **{PASS_FLAGS[name]: False
                                   for name in self._entries})

    def as_dict(self) -> dict:
        return {"version": self.version,
                "entries": [e.as_dict() for e in self.entries]}


@dataclass(frozen=True)
class PassRecord:
    """Observability record for one compiler pass."""

    name: str
    ops_before: int
    ops_after: int
    detail: str = ""
    planned_peak_bytes: int = 0

    @property
    def removed(self) -> int:
        return self.ops_before - self.ops_after

    def as_dict(self) -> dict:
        return {"name": self.name, "ops_before": self.ops_before,
                "ops_after": self.ops_after, "detail": self.detail,
                "planned_peak_bytes": self.planned_peak_bytes}


class CompiledStep:
    """One schedulable unit of an execution plan.

    Slots index into the executor's flat value table. ``free_slots``
    lists the slots whose last use is this step (or that this step
    produces and nothing consumes); the executor drops them immediately
    after the step, which is what keeps peak memory bounded.
    ``validated`` flips to True after the first successful run checks
    the op's declared output shapes, so steady-state dispatch skips both
    the shape check and the ``np.asarray`` normalization copy.
    """

    __slots__ = ("op", "kind", "input_slots", "output_slots", "free_slots",
                 "const_value", "validated", "provenance", "origin_pass")

    def __init__(self, op: Operation, kind: int,
                 input_slots: tuple[int, ...], output_slots: tuple[int, ...],
                 const_value: np.ndarray | None = None,
                 provenance: tuple[str, ...] = (),
                 origin_pass: str | None = None):
        self.op = op
        self.kind = kind
        self.input_slots = input_slots
        self.output_slots = output_slots
        self.free_slots: tuple[int, ...] = ()
        self.const_value = const_value
        self.validated = False
        #: for synthesized ops, the source-graph op names this step
        #: replaced (originating op first) and the pass that made it —
        #: the blame links ExecutionError carries out of the executor
        self.provenance = provenance
        self.origin_pass = origin_pass

    def __repr__(self) -> str:
        return (f"<CompiledStep {self.op.name!r} in={self.input_slots} "
                f"out={self.output_slots} free={self.free_slots}>")


class ExecutionPlan:
    """A compiled, directly executable schedule for one fetch set."""

    def __init__(self, *, graph: Graph, graph_version: int,
                 fetches: tuple[Tensor, ...], options: PlanOptions,
                 steps: list[CompiledStep], num_slots: int,
                 fetch_slots: tuple[int, ...],
                 placeholders: tuple[Operation, ...],
                 memory: MemoryPlan, pass_records: list[PassRecord],
                 stats: RewriteStats, fused_cells: int,
                 compile_seconds: float, plan_graph: Graph):
        self.graph = graph
        self.graph_version = graph_version
        self.fetches = fetches
        self.options = options
        self.steps = steps
        self.num_slots = num_slots
        self.fetch_slots = fetch_slots
        #: placeholder ops that must be fed for this plan to run
        self.placeholders = placeholders
        self.memory = memory
        self.pass_records = pass_records
        self.stats = stats
        self.fused_cells = fused_cells
        self.compile_seconds = compile_seconds
        # Keeps synthesized ops (folded Consts, fused cells) alive and
        # out of the user's graph.
        self.plan_graph = plan_graph

    @property
    def num_steps(self) -> int:
        return len(self.steps)

    @property
    def planned_peak_bytes(self) -> int:
        return self.memory.planned_peak_bytes

    def matches(self, graph: Graph, fetch_list: list[Tensor]) -> bool:
        """Is this plan still valid for ``fetch_list`` on ``graph``?

        Requires the same graph object at the same version and the same
        fetch *tensors* by identity — names alone are not enough, since
        an unrelated graph can mint colliding names.
        """
        return (graph is self.graph
                and graph.version == self.graph_version
                and len(fetch_list) == len(self.fetches)
                and all(a is b for a, b in zip(fetch_list, self.fetches)))

    def summary(self) -> dict:
        """JSON-serializable description, recorded into traces."""
        return {
            "fetches": [t.name for t in self.fetches],
            "options": self.options.describe(),
            "ops_in": self.stats.ops_in,
            "ops_out": self.stats.ops_out,
            "num_steps": self.num_steps,
            "num_slots": self.num_slots,
            "fused_cells": self.fused_cells,
            "compile_seconds": self.compile_seconds,
            "passes": [record.as_dict() for record in self.pass_records],
            "memory": self.memory.as_dict(),
        }

    def report(self) -> str:
        """Human-readable pass-by-pass table (``repro compile --report``)."""
        lines = [f"plan: [{', '.join(t.name for t in self.fetches)}]  "
                 f"options={self.options.describe()}",
                 f"  {'pass':<10s} {'ops':>14s}  {'planned peak':>12s}  detail"]
        for record in self.pass_records:
            ops = f"{record.ops_before} -> {record.ops_after}"
            lines.append(
                f"  {record.name:<10s} {ops:>14s}  "
                f"{_format_bytes(record.planned_peak_bytes):>12s}  "
                f"{record.detail}")
        m = self.memory
        lines.append(
            f"  {'memory':<10s} planned peak "
            f"{_format_bytes(m.planned_peak_bytes)}; arena "
            f"{_format_bytes(m.arena_peak_bytes)} in {m.num_buffers} "
            f"buffers (hit rate {m.hit_rate:.1%}, saves "
            f"{_format_bytes(m.reuse_saving_bytes)}/step)")
        lines.append(
            f"  {'compile':<10s} {self.compile_seconds * 1e3:.2f} ms; "
            f"{self.num_steps} steps over {self.num_slots} slots; "
            f"{self.fused_cells} LSTM cells fused")
        return "\n".join(lines)


def _format_bytes(count: int) -> str:
    if count >= 1 << 20:
        return f"{count / (1 << 20):.2f} MB"
    if count >= 1 << 10:
        return f"{count / (1 << 10):.1f} KB"
    return f"{count} B"


class _Values:
    """The compile-time value table: one entry per tensor value.

    Passes retire values by *aliasing* them to an equivalent earlier
    value (identity elimination, CSE); ``resolve`` follows alias chains
    to the canonical id.
    """

    def __init__(self):
        self.shape: list[tuple[int, ...]] = []
        self.dtype: list[np.dtype] = []
        self.nbytes: list[int] = []
        self.const: list[np.ndarray | None] = []
        self.alias: dict[int, int] = {}

    def new(self, tensor: Tensor) -> int:
        vid = len(self.shape)
        self.shape.append(tensor.shape)
        self.dtype.append(tensor.dtype)
        self.nbytes.append(tensor.size * tensor.dtype.itemsize)
        self.const.append(None)
        return vid

    def resolve(self, vid: int) -> int:
        alias = self.alias
        while vid in alias:
            vid = alias[vid]
        return vid

    def redirect(self, vid: int, target: int) -> None:
        if vid != target:
            self.alias[vid] = target

    def spec(self, vid: int) -> tuple:
        return (self.shape[vid], self.dtype[vid].name, self.nbytes[vid])


class _Node:
    """A mutable scheduling node used while passes run."""

    __slots__ = ("op", "kind", "in_vids", "out_vids", "const_value",
                 "provenance", "origin_pass")

    def __init__(self, op: Operation, kind: int, in_vids: list[int],
                 out_vids: list[int],
                 const_value: np.ndarray | None = None,
                 provenance: tuple[str, ...] = (),
                 origin_pass: str | None = None):
        self.op = op
        self.kind = kind
        self.in_vids = in_vids
        self.out_vids = out_vids
        self.const_value = const_value
        self.provenance = provenance
        self.origin_pass = origin_pass


def compile_plan(graph: Graph, fetches, options=None) -> ExecutionPlan:
    """Compile ``fetches`` over ``graph`` into an :class:`ExecutionPlan`."""
    options = PlanOptions.coerce(options)
    start = time.perf_counter()
    fetch_list = list(fetches)
    for tensor in fetch_list:
        if not isinstance(tensor, Tensor):
            raise GraphError(
                f"fetches must be Tensors, got {type(tensor).__name__}")
    graph_version = graph.version
    sub_ops = graph.subgraph(fetch_list)
    sub_ids = {id(op) for op in sub_ops}
    for tensor in fetch_list:
        if id(tensor.op) not in sub_ids:
            raise GraphError(
                f"fetch {tensor.name!r} is not an operation of the "
                "compiled graph (was it built in a different graph?)")

    values = _Values()
    vid_of: dict[str, int] = {}
    nodes: list[_Node] = []
    for op in sub_ops:
        in_vids = [values.resolve(vid_of[t.name]) for t in op.inputs]
        out_vids = []
        for tensor in op.outputs:
            vid = values.new(tensor)
            vid_of[tensor.name] = vid
            out_vids.append(vid)
        if isinstance(op, Placeholder):
            kind, const_value = K_PLACEHOLDER, None
        elif isinstance(op, Const):
            kind = K_CONST
            const_value = np.asarray(op.attrs["value"])
            values.const[out_vids[0]] = const_value
        else:
            kind, const_value = K_COMPUTE, None
        nodes.append(_Node(op, kind, in_vids, out_vids, const_value))

    def fetch_vids() -> list[int]:
        return [values.resolve(vid_of[t.name]) for t in fetch_list]

    records: list[PassRecord] = []

    def record(name: str, before: int, detail: str) -> None:
        records.append(PassRecord(
            name, before, len(nodes), detail,
            _simulate_peak(nodes, values, fetch_vids())))

    stats = RewriteStats(ops_in=len(sub_ops))
    record("prune", len(graph),
           f"{len(graph) - len(nodes)} ops outside the fetch subgraph")

    plan_graph = Graph()
    if options.eliminate_identities:
        before = len(nodes)
        nodes = _pass_identity(nodes, values)
        stats.identities_removed = before - len(nodes)
        record("identity", before,
               f"{stats.identities_removed} Identity ops bypassed")
    if options.fold_constants:
        before = len(nodes)
        nodes, folded = _pass_fold(nodes, values, plan_graph)
        stats.constants_folded = folded
        record("fold", before, f"{folded} pure ops folded to constants")
    if options.merge_subexpressions:
        before = len(nodes)
        nodes, merged = _pass_cse(nodes, values)
        stats.subexpressions_merged = merged
        record("cse", before, f"{merged} duplicate pure ops merged")
    fused_cells = 0
    if options.fuse_lstm:
        before = len(nodes)
        nodes, fused_cells = _pass_fuse(
            graph, fetch_list, sub_ops, nodes, values, vid_of, plan_graph)
        record("fuse", before, f"{fused_cells} LSTM cells fused")
    if (options.eliminate_identities or options.fold_constants
            or options.merge_subexpressions or options.fuse_lstm):
        # Clean up nodes the passes above orphaned. Structural plans
        # skip this: nothing in a pruned subgraph is dead, and the
        # invariant "every subgraph op is a step" must hold exactly.
        before = len(nodes)
        nodes = _pass_dce(nodes, values, fetch_vids())
        record("dce", before, f"{before - len(nodes)} dead ops removed")

    # -- schedule: compact slot assignment + free-after lists ---------------
    for node in nodes:
        node.in_vids = [values.resolve(vid) for vid in node.in_vids]
    final_fetch_vids = fetch_vids()

    slot_of: dict[int, int] = {}
    slot_specs: list[tuple] = []
    steps: list[CompiledStep] = []
    placeholders: list[Operation] = []
    for node in nodes:
        input_slots = tuple(slot_of[vid] for vid in node.in_vids)
        output_slots = []
        for vid in node.out_vids:
            slot = len(slot_specs)
            slot_of[vid] = slot
            slot_specs.append(values.spec(vid))
            output_slots.append(slot)
        steps.append(CompiledStep(node.op, node.kind, input_slots,
                                  tuple(output_slots), node.const_value,
                                  provenance=node.provenance,
                                  origin_pass=node.origin_pass))
        if node.kind == K_PLACEHOLDER:
            placeholders.append(node.op)

    fetch_slots = tuple(slot_of[vid] for vid in final_fetch_vids)
    pinned = set(fetch_slots)
    last_use: dict[int, int] = {}
    producer: dict[int, int] = {}
    for index, step in enumerate(steps):
        for slot in step.input_slots:
            last_use[slot] = index
        for slot in step.output_slots:
            producer[slot] = index
    free_lists: list[list[int]] = [[] for _ in steps]
    for slot in range(len(slot_specs)):
        if slot in pinned:
            continue
        index = last_use.get(slot)
        if index is None:
            # Produced but never consumed (e.g. an unused output of a
            # multi-output op): free it right after it materializes.
            index = producer[slot]
            if steps[index].kind == K_PLACEHOLDER:
                continue
        free_lists[index].append(slot)
    for step, frees in zip(steps, free_lists):
        step.free_slots = tuple(frees)

    memory = plan_memory(steps, slot_specs)
    stats.ops_out = len(steps)
    records.append(PassRecord(
        "schedule", len(nodes), len(steps),
        f"{len(slot_specs)} slots, {len(pinned)} pinned",
        memory.planned_peak_bytes))

    return ExecutionPlan(
        graph=graph, graph_version=graph_version,
        fetches=tuple(fetch_list), options=options, steps=steps,
        num_slots=len(slot_specs), fetch_slots=fetch_slots,
        placeholders=tuple(placeholders), memory=memory,
        pass_records=records, stats=stats, fused_cells=fused_cells,
        compile_seconds=time.perf_counter() - start, plan_graph=plan_graph)


# -- passes -----------------------------------------------------------------


def _pass_identity(nodes: list[_Node], values: _Values) -> list[_Node]:
    """Bypass Identity nodes by aliasing their output to their input."""
    kept = []
    for node in nodes:
        node.in_vids = [values.resolve(vid) for vid in node.in_vids]
        if isinstance(node.op, Identity):
            values.redirect(node.out_vids[0], node.in_vids[0])
            continue
        kept.append(node)
    return kept


def _pass_fold(nodes: list[_Node], values: _Values,
               plan_graph: Graph) -> tuple[list[_Node], int]:
    """Evaluate pure ops with all-constant inputs at compile time.

    Folded results become synthesized ``Const`` steps in the plan's
    scratch graph, scheduled at the original op's position so accounting
    and injector/tracer hooks still see one step per surviving value.
    Folding is skipped when the kernel fails, produces non-finite values
    (so ``check_numerics`` still names the original op at run time), or
    disagrees with the declared output spec.
    """
    # No state and no randomness: impure ops never reach the kernel here.
    fold_ctx = RunContext(rng=None, variables={}, variable_ops={})
    kept = []
    folded = 0
    # Provenance chains for folded values: a fold over already-folded
    # inputs inherits their source-op chain, so blame localization can
    # walk a cascade of folds back to every original op it absorbed.
    prov_of: dict[int, tuple[str, ...]] = {}
    for node in nodes:
        node.in_vids = [values.resolve(vid) for vid in node.in_vids]
        op = node.op
        foldable = (
            node.kind == K_COMPUTE and _is_pure(op) and node.in_vids
            and all(values.const[vid] is not None for vid in node.in_vids)
            and sum(t.size for t in op.outputs) <= _FOLD_SIZE_LIMIT)
        if foldable:
            arrays = tuple(values.const[vid] for vid in node.in_vids)
            try:
                outputs = [np.asarray(value)
                           for value in op.compute(arrays, fold_ctx)]
            except Exception:
                outputs = None
            if outputs is not None and all(
                    value.shape == tensor.shape
                    and value.dtype == tensor.dtype
                    and (not np.issubdtype(value.dtype, np.floating)
                         or bool(np.isfinite(value).all()))
                    for value, tensor in zip(outputs, op.outputs)):
                chain = [op.name]
                for vid in node.in_vids:
                    chain.extend(name for name in prov_of.get(vid, ())
                                 if name not in chain)
                provenance = tuple(chain)
                for vid, value in zip(node.out_vids, outputs):
                    const_op = Const(attrs={"value": value},
                                     name=f"{op.name}/folded",
                                     graph=plan_graph)
                    values.const[vid] = value
                    prov_of[vid] = provenance
                    kept.append(_Node(const_op, K_CONST, [], [vid], value,
                                      provenance=provenance,
                                      origin_pass="fold"))
                folded += 1
                continue
        kept.append(node)
    return kept, folded


def _pass_cse(nodes: list[_Node],
              values: _Values) -> tuple[list[_Node], int]:
    """Merge structurally identical pure nodes (including constants)."""
    index: dict[object, _Node] = {}
    kept = []
    merged = 0
    for node in nodes:
        node.in_vids = [values.resolve(vid) for vid in node.in_vids]
        op = node.op
        mergeable = (node.kind == K_CONST
                     or (node.kind == K_COMPUTE and _is_pure(op)))
        if mergeable:
            attrs = tuple(sorted(
                (name, _attr_key(value)) for name, value in op.attrs.items()))
            key = (op.type_name, attrs, tuple(node.in_vids))
            existing = index.get(key)
            if existing is not None:
                for mine, theirs in zip(node.out_vids, existing.out_vids):
                    values.redirect(mine, theirs)
                merged += 1
                continue
            index[key] = node
        kept.append(node)
    return kept, merged


def _pass_fuse(graph: Graph, fetch_list: list[Tensor],
               sub_ops: list[Operation], nodes: list[_Node],
               values: _Values, vid_of: dict[str, int],
               plan_graph: Graph) -> tuple[list[_Node], int]:
    """Replace recognized composed-LSTM subtrees with fused block steps.

    The structural matcher runs on the original graph; this pass then
    revalidates each match against the *current* (post-fold/CSE) node
    list: every non-constant interior op must still be live, and no
    interior value may escape to a surviving outside consumer or a
    fetch. Shared constants (e.g. a CSE-merged forget-bias scalar) are
    tolerated — they are simply left in place for DCE to judge.

    Escapes of the six *recoverable* interior tensors (the activated
    gates, tanh(new_c), and the joined concat — exactly what a training
    graph's backward pass reads) do not veto fusion: the pass emits a
    recovery node per escaping value — a Slice of the fused op's cached
    gates output, a Tanh of its new_c, or a Concat of the match's own
    x/h inputs — claiming the escaped vid, so outside consumers see
    bit-identical values. This is what lets fusion fire on training
    graphs, where it historically never did (fused_cells was 0 on every
    recorded benchmark).
    """
    from .fuse import find_lstm_matches
    from .ops.array_ops import Concat, Slice
    from .ops.math_ops import Tanh
    from .ops.rnn_ops import LSTMBlockCellOp

    matches = find_lstm_matches(graph, sub_ops, fetch_list)
    if not matches:
        return nodes, 0
    for node in nodes:
        node.in_vids = [values.resolve(vid) for vid in node.in_vids]
    op_by_id = {id(op): op for op in sub_ops}
    node_by_op = {id(node.op): node for node in nodes}
    fetch_vid_set = {values.resolve(vid_of[t.name]) for t in fetch_list}
    position = {id(node): index for index, node in enumerate(nodes)}
    consumers: dict[int, list[_Node]] = {}
    for node in nodes:
        for vid in node.in_vids:
            consumers.setdefault(vid, []).append(node)

    fused = 0
    dropped: set[int] = set()
    replacement: dict[int, list[_Node]] = {}
    for match in matches:
        removal: list[_Node] = []
        intact = True
        for op_id in match.interior:
            interior_op = op_by_id[op_id]
            node = node_by_op.get(op_id)
            if isinstance(interior_op, Const):
                # A (possibly shared) scalar like the forget bias: never
                # removed here; DCE collects it if fusion orphans it.
                continue
            if node is None:
                intact = False  # merged/folded away; pattern no longer ours
                break
            removal.append(node)
        if not intact:
            continue
        removal_ids = {id(node) for node in removal}
        anchor_node = node_by_op[id(match.anchor)]
        anchor_pos = position[id(anchor_node)]
        boundary = {values.resolve(vid_of[match.new_c.name]),
                    values.resolve(vid_of[match.new_h.name])}
        recoverable_vids: dict[int, str] = {}
        for role, tensor in match.recoverable.items():
            recoverable_vids.setdefault(
                values.resolve(vid_of[tensor.name]), role)
        # Escaped interior vids (role by vid) needing a recovery node.
        escapes: dict[int, str] = {}
        clean = True
        for node in removal:
            for vid in node.out_vids:
                if vid in boundary:
                    continue
                if vid in fetch_vid_set:
                    clean = False
                    break
                outside = [consumer for consumer in consumers.get(vid, ())
                           if id(consumer) not in removal_ids]
                if not outside:
                    continue
                role = recoverable_vids.get(vid)
                # Recovery nodes are emitted right after the fused op
                # (at the anchor's position), so every outside consumer
                # must be scheduled later — true by construction for
                # backward passes, but guarded for exotic graphs.
                if role is None or any(
                        position[id(consumer)] < anchor_pos
                        for consumer in outside):
                    clean = False
                    break
                escapes[vid] = role
            if not clean:
                break
        if not clean:
            continue

        in_tensors = (match.x, match.c, match.h, match.kernel, match.bias)
        in_vids = [values.resolve(vid_of[t.name]) for t in in_tensors]
        proxies = []
        for tensor, label in zip(in_tensors,
                                 ("x", "c", "h", "kernel", "bias")):
            proxies.append(Placeholder(
                attrs={"shape": tensor.shape, "dtype": tensor.dtype},
                name=f"{match.anchor.name}/fused_{label}",
                graph=plan_graph))
        block = LSTMBlockCellOp(
            [proxy.outputs[0] for proxy in proxies],
            attrs={"forget_bias": match.forget_bias},
            name=f"{match.anchor.name}/fused", graph=plan_graph)
        new_c_vid = values.resolve(vid_of[match.new_c.name])
        new_h_vid = values.resolve(vid_of[match.new_h.name])
        gates_vid = values.new(block.outputs[2])
        provenance = (match.anchor.name,) + tuple(
            node.op.name for node in removal
            if node.op is not match.anchor)
        fused_node = _Node(block, K_COMPUTE, in_vids,
                           [new_c_vid, new_h_vid, gates_vid],
                           provenance=provenance, origin_pass="fuse")

        # Recovery nodes for recoverable interior values the backward
        # pass (or any outside consumer) still reads: each claims the
        # escaped vid, recomputing the identical value from the fused
        # op's outputs. Emitted immediately after the fused node.
        emitted = [fused_node]
        hidden = match.c.shape[1]
        batch = match.c.shape[0]
        gate_column = {"i": 0, "j": 1, "f": 2, "o": 3}
        for vid, role in sorted(escapes.items()):
            escaped = match.recoverable[role]
            base = f"{match.anchor.name}/recovered_{role}"
            if role in gate_column:
                proxy = Placeholder(
                    attrs={"shape": block.outputs[2].shape,
                           "dtype": escaped.dtype},
                    name=f"{base}_gates", graph=plan_graph)
                recovery_op = Slice(
                    [proxy.outputs[0]],
                    attrs={"begin": (0, gate_column[role] * hidden),
                           "size": (batch, hidden)},
                    name=base, graph=plan_graph)
                recovery_in = [gates_vid]
            elif role == "tanh_c":
                proxy = Placeholder(
                    attrs={"shape": match.new_c.shape,
                           "dtype": escaped.dtype},
                    name=f"{base}_new_c", graph=plan_graph)
                recovery_op = Tanh([proxy.outputs[0]], name=base,
                                   graph=plan_graph)
                recovery_in = [new_c_vid]
            else:  # "joined": Concat(x, h) over the match's own inputs
                parts = []
                for tensor, tag in ((match.x, "x"), (match.h, "h")):
                    part = Placeholder(
                        attrs={"shape": tensor.shape,
                               "dtype": tensor.dtype},
                        name=f"{base}_{tag}", graph=plan_graph)
                    parts.append(part.outputs[0])
                recovery_op = Concat(parts, attrs={"axis": 1},
                                     name=base, graph=plan_graph)
                recovery_in = [values.resolve(vid_of[match.x.name]),
                               values.resolve(vid_of[match.h.name])]
            emitted.append(_Node(
                recovery_op, K_COMPUTE, recovery_in, [vid],
                provenance=(escaped.op.name, match.anchor.name),
                origin_pass="fuse"))
        replacement[id(anchor_node)] = emitted
        dropped.update(removal_ids - {id(anchor_node)})
        fused += 1

    if fused == 0:
        return nodes, 0
    out = []
    for node in nodes:
        node_id = id(node)
        if node_id in replacement:
            out.extend(replacement[node_id])
        elif node_id not in dropped:
            out.append(node)
    return out, fused


def _pass_dce(nodes: list[_Node], values: _Values,
              fetch_vids: list[int]) -> list[_Node]:
    """Drop pure nodes whose outputs nothing consumes.

    Placeholders are always kept (feed-coverage semantics must not
    depend on optimization level) and impure nodes are always kept
    (state mutation and RNG draw order are part of the program).
    """
    needed = set(fetch_vids)
    kept: list[_Node] = []
    for node in reversed(nodes):
        node.in_vids = [values.resolve(vid) for vid in node.in_vids]
        keep = (node.kind == K_PLACEHOLDER
                or (node.kind == K_COMPUTE and not _is_pure(node.op))
                or any(vid in needed for vid in node.out_vids))
        if keep:
            needed.update(node.in_vids)
            kept.append(node)
    kept.reverse()
    return kept


def _simulate_peak(nodes: list[_Node], values: _Values,
                   fetch_vids: list[int]) -> int:
    """Planned peak live bytes for the current node list.

    Mirrors the executor's accounting exactly: outputs materialize at
    their node, the peak is sampled after every non-placeholder node,
    and values die after their last consumer (fetches are pinned).
    """
    last_use: dict[int, int] = {}
    resolved_inputs: list[list[int]] = []
    for index, node in enumerate(nodes):
        in_vids = [values.resolve(vid) for vid in node.in_vids]
        resolved_inputs.append(in_vids)
        for vid in in_vids:
            last_use[vid] = index
    pinned = set(fetch_vids)
    frees: list[list[int]] = [[] for _ in nodes]
    for index, node in enumerate(nodes):
        for vid in node.out_vids:
            if vid in pinned:
                continue
            last = last_use.get(vid)
            if last is None:
                if node.kind != K_PLACEHOLDER:
                    frees[index].append(vid)
            else:
                frees[last].append(vid)
    live = peak = 0
    nbytes = values.nbytes
    for index, node in enumerate(nodes):
        for vid in node.out_vids:
            live += nbytes[vid]
        if node.kind != K_PLACEHOLDER and live > peak:
            peak = live
        for vid in frees[index]:
            live -= nbytes[vid]
    return peak
