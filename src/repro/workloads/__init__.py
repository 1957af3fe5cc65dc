"""The eight Fathom reference workloads (the paper's Table II).

Every workload implements the standard model interface
(:class:`~repro.workloads.base.FathomModel`): build the graph, feed
minibatches, run inference or training, profile. Construct one by name::

    from repro import workloads
    model = workloads.create("alexnet", config="tiny", seed=0)
    model.run_training(steps=2)
"""

from .alexnet import AlexNet
from .autoenc import VariationalAutoencoder
from .base import FathomModel, WorkloadMetadata
from .deepq import DeepQ
from .memnet import MemN2N
from .residual import ResidualNet
from .seq2seq import Seq2Seq
from .speech import DeepSpeech
from .vgg import VGG

#: registry in the paper's Table II order
WORKLOADS: dict[str, type[FathomModel]] = {
    "seq2seq": Seq2Seq,
    "memnet": MemN2N,
    "speech": DeepSpeech,
    "autoenc": VariationalAutoencoder,
    "residual": ResidualNet,
    "vgg": VGG,
    "alexnet": AlexNet,
    "deepq": DeepQ,
}

WORKLOAD_NAMES = list(WORKLOADS)


def create(name: str, config: str = "default", seed: int = 0) -> FathomModel:
    """Instantiate a workload by name."""
    try:
        workload_cls = WORKLOADS[name]
    except KeyError:
        raise KeyError(f"unknown workload {name!r}; available: "
                       f"{WORKLOAD_NAMES}") from None
    return workload_cls(config=config, seed=seed)


__all__ = [
    "AlexNet", "VariationalAutoencoder", "FathomModel", "WorkloadMetadata",
    "DeepQ", "MemN2N", "ResidualNet", "Seq2Seq", "DeepSpeech", "VGG",
    "WORKLOADS", "WORKLOAD_NAMES", "create",
]
