"""Static buffer-lifetime planning for compiled execution plans.

The compiler (:mod:`repro.framework.compiler`) produces a fixed schedule
of steps with precomputed slot lifetimes, which makes memory planning a
purely static problem: every intermediate tensor's birth (the step that
produces it) and death (the step after which it is freed) are known
before anything runs. This module solves the classic register-allocation
shaped problem over that schedule: assign each intermediate to a buffer
in a recycled arena keyed by ``(shape, dtype)``, so tensors with
disjoint lifetimes and identical layouts share storage.

Because numpy kernels own their output allocations, the executor does
not literally write into arena buffers; the plan quantifies what a
buffer-reusing allocator achieves on this schedule, and the executor's
live-byte accounting validates the planner's ``planned_peak_bytes``
against the measured peak (the exact-match invariant the memory-planner
tests assert). Since the schedule is deterministic, the arena hit/miss
counts computed here are exactly what a runtime arena would observe —
no runtime bookkeeping is needed to report them.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

#: step kinds shared with the compiler (kept here so the compiler can
#: import them without a circular dependency)
K_COMPUTE = 0
K_PLACEHOLDER = 1
K_CONST = 2


@dataclass(frozen=True)
class MemoryPlan:
    """The result of buffer-lifetime planning over one schedule.

    Attributes:
        planned_peak_bytes: peak live intermediate bytes under the
            executor's exact materialize/free policy. Matches
            ``Session.last_peak_live_bytes`` bit-for-bit when every
            kernel honours its declared dtype (a float64 leak shows up
            as a planned-vs-actual mismatch).
        arena_peak_bytes: total arena footprint if freed buffers were
            recycled by exact ``(shape, dtype)`` — the sum of all
            distinct buffers the arena ever allocates.
        naive_total_bytes: bytes a no-reuse allocator would request for
            compute-op outputs over one step (every output fresh).
        arena_hits: allocations served by recycling a freed buffer.
        arena_misses: allocations that forced a new arena buffer.
        num_buffers: distinct buffers backing all compute outputs.
        slot_buffers: per-slot arena buffer index (-1 for slots that the
            arena does not manage: fed placeholders and plan constants).
    """

    planned_peak_bytes: int
    arena_peak_bytes: int
    naive_total_bytes: int
    arena_hits: int
    arena_misses: int
    num_buffers: int
    slot_buffers: tuple[int, ...]

    @property
    def hit_rate(self) -> float:
        """Fraction of compute-output allocations served from the arena."""
        total = self.arena_hits + self.arena_misses
        if total == 0:
            return 0.0
        return self.arena_hits / total

    @property
    def reuse_saving_bytes(self) -> int:
        """Bytes the arena avoids allocating versus a no-reuse allocator."""
        return self.naive_total_bytes - self.arena_peak_bytes

    def as_dict(self) -> dict:
        return {
            "planned_peak_bytes": self.planned_peak_bytes,
            "arena_peak_bytes": self.arena_peak_bytes,
            "naive_total_bytes": self.naive_total_bytes,
            "arena_hits": self.arena_hits,
            "arena_misses": self.arena_misses,
            "num_buffers": self.num_buffers,
            "hit_rate": self.hit_rate,
        }


def plan_memory(steps: Sequence, slot_specs: Sequence[tuple]) -> MemoryPlan:
    """Plan buffer reuse for a compiled schedule.

    Args:
        steps: objects with ``kind``, ``output_slots`` and ``free_slots``
            (the compiler's ``CompiledStep``), in execution order.
        slot_specs: per-slot ``(shape, dtype_name, nbytes)`` tuples.

    The live-byte simulation replays the executor's policy exactly:
    outputs materialize when their step runs, the peak is sampled after
    every non-placeholder step's outputs land, and freed slots leave the
    live set immediately. The arena simulation additionally recycles
    freed compute buffers: an exact ``(shape, dtype)`` match is
    preferred, and failing that the smallest freed same-dtype buffer
    with enough capacity is reshaped into service (best fit). The
    fallback is what keeps hit rates up on small graphs with diverse
    shapes — alexnet's plan recycles conv scratch into FC scratch
    instead of allocating both.
    """
    live = 0
    peak = 0
    naive_total = 0
    hits = 0
    misses = 0
    buffer_bytes: list[int] = []
    slot_buffers = [-1] * len(slot_specs)
    pool: dict[tuple, list[int]] = {}
    #: freed buffers per dtype name -> {buffer index: capacity bytes},
    #: for the best-fit fallback when no exact shape match is free
    free_caps: dict[str, dict[int, int]] = {}
    #: the pool key each freed buffer currently sits under
    freed_under: dict[int, tuple] = {}

    def _claim(buffer: int, dtype_name: str) -> None:
        pool[freed_under.pop(buffer)].remove(buffer)
        free_caps[dtype_name].pop(buffer)

    for step in steps:
        kind = step.kind
        for slot in step.output_slots:
            shape, dtype_name, nbytes = slot_specs[slot]
            live += nbytes
            if kind != K_COMPUTE:
                continue
            naive_total += nbytes
            key = (shape, dtype_name)
            free = pool.get(key)
            if free:
                buffer = free[-1]
                _claim(buffer, dtype_name)
                slot_buffers[slot] = buffer
                hits += 1
                continue
            candidates = free_caps.get(dtype_name)
            fitting = ([(cap, buffer)
                        for buffer, cap in candidates.items()
                        if cap >= nbytes] if candidates else [])
            if fitting:
                _, buffer = min(fitting)
                _claim(buffer, dtype_name)
                slot_buffers[slot] = buffer
                hits += 1
                continue
            slot_buffers[slot] = len(buffer_bytes)
            buffer_bytes.append(nbytes)
            misses += 1
        if kind != K_PLACEHOLDER and live > peak:
            peak = live
        for slot in step.free_slots:
            shape, dtype_name, nbytes = slot_specs[slot]
            live -= nbytes
            buffer = slot_buffers[slot]
            if buffer >= 0:
                pool.setdefault((shape, dtype_name), []).append(buffer)
                free_caps.setdefault(dtype_name, {})[buffer] = \
                    buffer_bytes[buffer]
                freed_under[buffer] = (shape, dtype_name)

    return MemoryPlan(
        planned_peak_bytes=peak,
        arena_peak_bytes=sum(buffer_bytes),
        naive_total_bytes=naive_total,
        arena_hits=hits,
        arena_misses=misses,
        num_buffers=len(buffer_bytes),
        slot_buffers=tuple(slot_buffers))
