"""The Fathom standard model interface.

The paper stresses that, unlike model zoos, "all Fathom models are
wrapped in a standard interface which exposes the same functions for
every model. Thus, evaluating training, inference, or simply inspecting
the model's dataflow graph is straightforward." :class:`FathomModel` is
that interface: every workload builds its graph in ``build``, supplies
minibatches via ``sample_feed``, and inherits uniform ``run_inference`` /
``run_training`` / ``profile`` entry points.

Workloads are configured by named dictionaries (``tiny`` for CI,
``default`` for analysis, ``paper`` for the original hyperparameters) and
are fully deterministic given ``(config, seed)``.
"""

from __future__ import annotations

import abc
from dataclasses import dataclass
from typing import TYPE_CHECKING, Any, Mapping

import numpy as np

if TYPE_CHECKING:  # pragma: no cover
    from repro.framework.resilience import ResilienceConfig

from repro.framework.device_model import DeviceModel
from repro.framework.graph import Graph, Tensor
from repro.framework.ops.state_ops import VariableOp
from repro.framework.session import Session
from repro.profiling.profile import OperationProfile
from repro.profiling.tracer import Tracer


@dataclass(frozen=True)
class WorkloadMetadata:
    """One row of the paper's Table II."""

    name: str
    year: int
    reference: str
    neuronal_style: str
    layers: int
    learning_task: str
    dataset: str
    description: str


def classification_accuracy(model: "FathomModel", labels_placeholder,
                            batches: int = 4) -> dict[str, float]:
    """Shared evaluate() implementation for softmax classifiers.

    Assumes ``model.inference_output`` is a ``(batch, classes)`` softmax
    and ``labels_placeholder`` carries the integer class per example.
    Reports top-1 and (when there are more than five classes) ILSVRC-style
    top-5 accuracy.
    """
    correct = correct_top5 = total = 0
    num_classes = model.inference_output.shape[-1]
    report_top5 = num_classes > 5
    for _ in range(batches):
        feed = model.sample_feed(training=False)
        probabilities = model.session.run(model.inference_output,
                                          feed_dict=feed)
        predictions = probabilities.argmax(axis=-1)
        labels = feed[labels_placeholder]
        correct += int((predictions == labels).sum())
        if report_top5:
            top5 = np.argsort(-probabilities, axis=-1)[:, :5]
            correct_top5 += int((top5 == labels[:, None]).any(axis=1).sum())
        total += len(labels)
    metrics = {"accuracy": correct / total, "chance": 1.0 / num_classes}
    if report_top5:
        metrics["top5_accuracy"] = correct_top5 / total
    return metrics


class FathomModel(abc.ABC):
    """Base class for the eight Fathom reference workloads."""

    #: short name, e.g. ``"alexnet"``; set by subclasses
    name: str = ""
    #: Table II metadata; set by subclasses
    metadata: WorkloadMetadata
    #: named hyperparameter configurations; must include ``tiny``,
    #: ``default``, and ``paper``
    configs: dict[str, dict[str, Any]] = {}

    def __init__(self, config: str | Mapping[str, Any] = "default",
                 seed: int = 0):
        if isinstance(config, str):
            if config not in self.configs:
                raise KeyError(
                    f"{self.name}: unknown config {config!r}; available: "
                    f"{sorted(self.configs)}")
            self.config_name = config
            self.config = dict(self.configs[config])
        else:
            self.config_name = "custom"
            self.config = {**self.configs["default"], **dict(config)}
        self.seed = seed
        #: generator for construction-time weight initialization
        self.init_rng = np.random.default_rng(seed)
        self.graph = Graph()
        self._inference_fetch: Tensor | None = None
        self._loss_fetch: Tensor | None = None
        self._train_fetch: Tensor | None = None
        with self.graph.as_default():
            self.build()
        for attr in ("_inference_fetch", "_loss_fetch", "_train_fetch"):
            if getattr(self, attr) is None:
                raise RuntimeError(
                    f"{type(self).__name__}.build() must set {attr}")
        # Workload graphs are built once and never mutated afterwards,
        # so they opt into the full optimizing plan pipeline.
        self.session = Session(self.graph, seed=seed + 1, optimize="full")

    # -- to be provided by each workload ---------------------------------------

    @abc.abstractmethod
    def build(self) -> None:
        """Construct the dataflow graph inside ``self.graph``.

        Must set ``self._inference_fetch`` (the model's forward output),
        ``self._loss_fetch`` (scalar training loss), and
        ``self._train_fetch`` (one optimizer update step).
        """

    @abc.abstractmethod
    def sample_feed(self, training: bool = True) -> dict[Tensor, np.ndarray]:
        """One minibatch as a ``Session.run`` feed dict."""

    # -- the standard interface --------------------------------------------------

    @property
    def batch_size(self) -> int:
        return int(self.config["batch_size"])

    @property
    def inference_output(self) -> Tensor:
        return self._inference_fetch

    @property
    def loss(self) -> Tensor:
        return self._loss_fetch

    @property
    def train_step(self) -> Tensor:
        return self._train_fetch

    def run_inference(self, steps: int = 1,
                      tracer: Tracer | None = None) -> np.ndarray:
        """Run forward passes; returns the last step's output."""
        output = None
        for _ in range(steps):
            output = self.session.run(self._inference_fetch,
                                      feed_dict=self.sample_feed(training=False),
                                      tracer=tracer)
        return output

    def run_training(self, steps: int = 1,
                     tracer: Tracer | None = None,
                     resilience: "ResilienceConfig | None" = None
                     ) -> list[float]:
        """Run update steps; returns the per-step losses.

        Args:
            resilience: when given, the steps are driven by a
                :class:`~repro.framework.resilience.ResilientRunner`
                with this policy — NaN/Inf guards, bounded retry with
                rollback, watchdog, and periodic atomic checkpoints.
                With ``healing=True`` the runner also blame-localizes
                plan-step failures and de-optimizes through the
                execution tiers (full → structural → safe mode),
                quarantining offending compiler passes; with
                ``guardrails=...`` every op's outputs are screened for
                NaN/Inf/overflow. Recovery actions surface as
                ``FailureEvent`` (and healing actions as
                ``DegradationEvent``) records on ``tracer`` (see
                docs/robustness.md). A fault-free resilient run is
                bit-for-bit identical to a plain one.
        """
        if resilience is not None:
            from repro.framework.resilience import ResilientRunner
            return ResilientRunner(self, config=resilience,
                                   tracer=tracer).run(steps)
        losses = []
        for _ in range(steps):
            loss_value, _ = self.session.run(
                [self._loss_fetch, self._train_fetch],
                feed_dict=self.sample_feed(training=True),
                tracer=tracer)
            losses.append(float(np.asarray(loss_value)))
        return losses

    def profile(self, mode: str = "training", steps: int = 2,
                device: DeviceModel | None = None,
                warmup: int = 1) -> OperationProfile:
        """Trace ``steps`` executions and aggregate an operation profile.

        Args:
            mode: ``"training"`` or ``"inference"``.
            steps: measured steps (after ``warmup`` untraced steps).
            device: aggregate modeled times under this device model
                instead of measured wall-clock times.
        """
        if mode not in ("training", "inference"):
            raise ValueError(f"mode must be training or inference, got {mode}")
        runner = (self.run_training if mode == "training"
                  else self.run_inference)
        if warmup:
            runner(warmup)
        tracer = Tracer()
        runner(steps, tracer=tracer)
        return OperationProfile.from_trace(
            tracer, workload=self.name, device=device)

    def compile_plan(self, mode: str = "training"):
        """The session's compiled :class:`ExecutionPlan` for a mode.

        Compiles (or returns the cached plan for) the same fetch set the
        corresponding ``run_*`` entry point uses, without running it —
        the inspection hook behind ``repro compile``.
        """
        if mode == "training":
            fetches = [self._loss_fetch, self._train_fetch]
        elif mode == "inference":
            fetches = [self._inference_fetch]
        else:
            raise ValueError(
                f"mode must be training or inference, got {mode}")
        return self.session.compile(fetches)

    def serve(self, config=None, tracer=None, clock=None):
        """A robust request front-end over this model's inference plan.

        Returns a :class:`~repro.serving.server.InferenceServer` —
        deadline-aware dynamic batching with admission control, a
        replica pool of forked sessions behind circuit breakers, hedged
        retry, and degrade-don't-die tier demotion (the serving-side
        counterpart of ``run_training(resilience=...)``; see
        docs/serving.md).
        """
        from repro.serving import InferenceServer
        return InferenceServer(self, config=config, tracer=tracer,
                               clock=clock)

    def evaluate(self, batches: int = 4) -> dict[str, float]:
        """Task-quality metrics on held-out synthetic batches.

        Each workload reports its natural metric (classification accuracy,
        phoneme error rate, reconstruction error, episode reward, ...);
        see the subclass docstrings. Used by the correctness tests to show
        the reference implementations genuinely learn their tasks.
        """
        raise NotImplementedError(
            f"{type(self).__name__} does not implement evaluate()")

    def num_parameters(self) -> int:
        """Total learnable parameter count."""
        return sum(op.output.size for op in self.graph.operations
                   if isinstance(op, VariableOp)
                   and op.attrs.get("trainable", True))

    def summary(self) -> str:
        """Keras-style textual summary: top-level scopes with op and
        parameter counts, plus graph totals."""
        from collections import OrderedDict
        scopes: "OrderedDict[str, dict]" = OrderedDict()
        for op in self.graph.operations:
            scope = op.name.split("/", 1)[0]
            entry = scopes.setdefault(scope, {"ops": 0, "params": 0})
            entry["ops"] += 1
            if isinstance(op, VariableOp) and op.attrs.get("trainable",
                                                           True):
                entry["params"] += op.output.size
        # Fold parameter-free single-op scopes (loose constants, the odd
        # unscoped node) into one row to keep the table readable.
        folded = {"ops": 0, "params": 0}
        for scope in [s for s, e in scopes.items()
                      if e["params"] == 0 and e["ops"] <= 2]:
            folded["ops"] += scopes.pop(scope)["ops"]
        if folded["ops"]:
            scopes["(unscoped)"] = folded
        width = max(len(scope) for scope in scopes)
        lines = [f"{type(self).__name__} (config={self.config_name!r})",
                 f"{'scope':<{width}s}  {'ops':>6s}  {'params':>10s}"]
        for scope, entry in scopes.items():
            lines.append(f"{scope:<{width}s}  {entry['ops']:6d}  "
                         f"{entry['params']:10,d}")
        lines.append(f"{'TOTAL':<{width}s}  {len(self.graph):6d}  "
                     f"{self.num_parameters():10,d}")
        return "\n".join(lines)

    def __repr__(self) -> str:
        return (f"<{type(self).__name__} config={self.config_name!r} "
                f"ops={len(self.graph)} params={self.num_parameters()}>")
