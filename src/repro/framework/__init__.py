"""A TensorFlow-style dataflow framework built for workload characterization.

This package is the substrate the Fathom reproduction runs on: models are
coarse-grained dataflow graphs of primitive *operations* (the smallest
schedulable unit), executed by a :class:`~repro.framework.session.Session`
with per-operation tracing, differentiated symbolically by
:func:`~repro.framework.autodiff.gradients`, and costed by the analytic
device models in :mod:`~repro.framework.device_model`.

Quick tour::

    from repro import framework as fw

    fw.reset_default_graph()
    x = fw.ops.placeholder((4, 8), name="x")
    w = fw.ops.variable(np.zeros((8, 2), dtype=np.float32))
    y = fw.ops.matmul(x, w)
    sess = fw.Session(seed=0)
    print(sess.run(y, feed_dict={x: np.ones((4, 8))}))
"""

from . import (autodiff, calibrate, checkpoint, compiler, cost_model,
               device_model, faults, fuse, gradient_check, graph_export,
               initializers, layers, memory, ops, optimizers, placement,
               resilience, rnn)
from .autodiff import gradients
from .compiler import (ExecutionPlan, PassQuarantine, PlanOptions,
                       QuarantineEntry, compile_plan)
from .calibrate import calibrate_cpu
from .gradient_check import check_gradients
from .cost_model import WorkEstimate
from .device_model import CPUDeviceModel, GPUDeviceModel, cpu, gpu
from .errors import (DifferentiationError, ExecutionError, FeedError,
                     FrameworkError, GraphError, GuardrailViolation,
                     ShapeError)
from .faults import (FaultInjector, FaultPlan, FaultSpec, InjectedFault,
                     InjectionEvent)
from .graph import (Graph, OpClass, Operation, OP_TYPE_REGISTRY, Tensor,
                    get_default_graph, name_scope, reset_default_graph)
from .memory import MemoryPlan, plan_memory
from .optimizers import (AdamOptimizer, GradientDescentOptimizer,
                         MomentumOptimizer, Optimizer, RMSPropOptimizer)
from .resilience import (FailureEvent, NonFiniteLossError, ResilienceConfig,
                         ResilientRunner)
from .session import (DegradationEvent, GuardrailPolicy, HealingConfig,
                      HealingPolicy, RunContext, Session, SessionSnapshot)

__all__ = [
    "autodiff", "calibrate", "checkpoint", "compiler", "cost_model",
    "device_model", "faults", "fuse", "gradient_check", "graph_export",
    "initializers", "layers", "memory", "ops", "optimizers", "placement",
    "resilience", "rnn",
    "calibrate_cpu", "check_gradients",
    "gradients", "WorkEstimate",
    "ExecutionPlan", "PassQuarantine", "PlanOptions", "QuarantineEntry",
    "compile_plan",
    "MemoryPlan", "plan_memory",
    "CPUDeviceModel", "GPUDeviceModel", "cpu", "gpu",
    "DifferentiationError", "ExecutionError", "FeedError", "FrameworkError",
    "GraphError", "GuardrailViolation", "ShapeError",
    "FaultInjector", "FaultPlan", "FaultSpec", "InjectedFault",
    "InjectionEvent",
    "FailureEvent", "NonFiniteLossError", "ResilienceConfig",
    "ResilientRunner",
    "Graph", "OpClass", "Operation", "OP_TYPE_REGISTRY", "Tensor",
    "get_default_graph", "name_scope", "reset_default_graph",
    "AdamOptimizer", "GradientDescentOptimizer", "MomentumOptimizer",
    "Optimizer", "RMSPropOptimizer",
    "DegradationEvent", "GuardrailPolicy", "HealingConfig", "HealingPolicy",
    "RunContext", "Session", "SessionSnapshot",
]
