"""Public-API surface tests: exports exist, __all__ is honest."""

import importlib

import pytest


PACKAGES = [
    "repro",
    "repro.framework",
    "repro.framework.ops",
    "repro.workloads",
    "repro.workloads.extensions",
    "repro.data",
    "repro.rl",
    "repro.profiling",
    "repro.analysis",
]


class TestExports:
    @pytest.mark.parametrize("package", PACKAGES)
    def test_all_names_resolve(self, package):
        module = importlib.import_module(package)
        for name in getattr(module, "__all__", []):
            assert hasattr(module, name), f"{package}.{name}"

    def test_framework_namespace_has_the_toolchain(self):
        import repro.framework as fw
        for name in ("Session", "gradients", "check_gradients",
                     "calibrate_cpu", "cpu", "gpu", "Graph", "Tensor",
                     "Operation"):
            assert hasattr(fw, name)
        for module in ("compiler", "fuse", "placement", "checkpoint",
                       "graph_export", "calibrate"):
            assert hasattr(fw, module)

    def test_op_registry_size(self):
        """The primitive vocabulary stays in TensorFlow's op-count
        ballpark; a sudden drop means a module stopped importing."""
        from repro.framework.graph import OP_TYPE_REGISTRY
        assert len(OP_TYPE_REGISTRY) >= 65

    def test_version(self):
        import repro
        assert repro.__version__


class TestRewriteFlags:
    def test_passes_can_be_disabled_independently(self, fresh_graph):
        import numpy as np
        from repro.framework import ops
        from repro.framework.compiler import PlanOptions, compile_plan
        from repro.framework.graph import get_default_graph

        a = ops.constant(np.ones(4, dtype=np.float32))
        b = ops.constant(np.ones(4, dtype=np.float32))
        out = ops.identity(ops.add(ops.multiply(a, 2.0),
                                   ops.multiply(b, 2.0)))
        graph = get_default_graph()

        def types(plan):
            return [step.op.type_name for step in plan.steps]

        no_fold = compile_plan(graph, [out], PlanOptions(
            fold_constants=False))
        assert no_fold.stats.constants_folded == 0
        assert "Mul" in types(no_fold)

        no_identity = compile_plan(graph, [out], PlanOptions(
            eliminate_identities=False, fold_constants=False))
        assert no_identity.stats.identities_removed == 0
        assert "Identity" in types(no_identity)

        no_cse = compile_plan(graph, [out], PlanOptions(
            merge_subexpressions=False, fold_constants=False))
        assert no_cse.stats.subexpressions_merged == 0
        assert types(no_cse).count("Mul") == 2


class TestWorkerPool:
    def test_pool_of_identical_workers(self):
        from repro.framework.placement import worker_pool
        pool = worker_pool(4, threads=2)
        assert len(pool) == 4
        assert all(model.threads == 2 for model in pool.values())

    def test_empty_pool_rejected(self):
        from repro.framework.placement import PlacementError, worker_pool
        with pytest.raises(PlacementError):
            worker_pool(0)

    def test_greedy_schedule_balances_independent_work(self, fresh_graph):
        import numpy as np
        from repro.framework import ops
        from repro.framework.graph import get_default_graph
        from repro.framework.placement import (simulate_greedy_schedule,
                                               worker_pool)
        base = ops.constant(np.ones((256, 256), dtype=np.float32))
        branches = [ops.matmul(base, base, name=f"branch{i}")
                    for i in range(4)]
        ops_list = get_default_graph().subgraph(branches)
        one = simulate_greedy_schedule(ops_list, worker_pool(1))
        four = simulate_greedy_schedule(ops_list, worker_pool(4))
        # Four independent matmuls over four workers: near-4x.
        assert one.makespan / four.makespan > 3.0
        assert sum(four.ops_per_device.values()) == len(ops_list)
