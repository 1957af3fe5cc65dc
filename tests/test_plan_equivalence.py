"""Bit-for-bit equivalence of optimized plans across all workloads.

The compiler's contract is that optimization never changes numerics: a
fully optimized plan (identity elimination, constant folding, CSE, LSTM
fusion, dead-code elimination) must produce exactly the arrays the
structural plan produces — and the structural plan executes every
subgraph op in the classic interpreter's order, so it is the
pre-compiler behaviour by construction. These tests run every Fathom
workload both ways from identical seeds and assert exact equality, not
tolerance-based closeness.
"""

import numpy as np
import pytest

from repro import workloads
from repro.framework.session import Session

STEPS = 3


def _paired_models(name):
    """Two identically seeded models; the second runs unoptimized."""
    full = workloads.create(name, config="tiny", seed=0)
    structural = workloads.create(name, config="tiny", seed=0)
    structural.session = Session(structural.graph, seed=structural.seed + 1,
                                 optimize="none")
    assert full.session.options.describe() == "full"
    assert structural.session.options.describe() == "structural"
    return full, structural


@pytest.mark.parametrize("name", workloads.WORKLOAD_NAMES)
def test_training_losses_bit_identical(name):
    full, structural = _paired_models(name)
    losses_full = full.run_training(steps=STEPS)
    losses_structural = structural.run_training(steps=STEPS)
    assert losses_full == losses_structural, name


@pytest.mark.parametrize("name", workloads.WORKLOAD_NAMES)
def test_inference_outputs_bit_identical(name):
    full, structural = _paired_models(name)
    out_full = full.run_inference(steps=1)
    out_structural = structural.run_inference(steps=1)
    np.testing.assert_array_equal(out_full, out_structural)


def test_fusion_is_active_in_the_equivalence_check():
    """Guard: the seq2seq inference comparison above actually exercises
    the fused LSTM kernel, not a silently skipped pass."""
    model = workloads.create("seq2seq", config="tiny", seed=0)
    assert model.compile_plan("inference").fused_cells > 0


def test_fusion_fires_on_training_graphs():
    """Regression: fused_cells was 0 on every *training* graph because
    the backward pass reads the gate activations, which used to veto
    every match. Those escapes are now recovered from the fused op's
    cached-gates output, so seq2seq training must fuse."""
    model = workloads.create("seq2seq", config="tiny", seed=0)
    assert model.compile_plan("training").fused_cells > 0


def test_optimized_plans_do_eliminate_work():
    """Guard: 'full' genuinely differs from 'structural' — the
    equivalence is between different schedules, not identical ones."""
    model = workloads.create("memnet", config="tiny", seed=0)
    plan = model.compile_plan("training")
    assert plan.num_steps < plan.stats.ops_in
