"""Ablation: the application-level graph optimizer's effect.

Section III-C notes that the popular frameworks all converged on "an
application-level, compiler-esque optimizer". This ablation compiles
every workload's training subgraph twice — once structurally (every
pass off) and once with identity elimination, constant folding and CSE
on (``PlanOptions(fuse_lstm=False)``; dead-code elimination runs after
them) — and measures what the passes buy: op-count reduction and
modeled step-time savings under the dispatch-dominated CPU model. The
shape: the statically-unrolled recurrent models — whose graphs repeat
the same structure per timestep — gain the most; the conv nets, whose
time lives in a few huge kernels, barely care.
"""

from repro.analysis.suite import get_model
from repro.framework.compiler import PlanOptions
from repro.framework.device_model import cpu
from repro.framework.session import Session
from repro.profiling.profile import OperationProfile
from repro.profiling.tracer import Tracer
from repro.workloads import WORKLOAD_NAMES

#: every optimizer pass except LSTM fusion (bench_ablation_fusion's)
OPTIMIZED = PlanOptions(fuse_lstm=False)


def _modeled_step(graph, fetches, feed, options):
    session = Session(graph, seed=0, optimize=options)
    session.run(fetches, feed_dict=feed)  # warmup / variable init
    tracer = Tracer()
    loss, _ = session.run(fetches, feed_dict=feed, tracer=tracer)
    seconds = OperationProfile.from_trace(tracer,
                                          device=cpu(1)).seconds_per_step()
    return session.compile(fetches), seconds, loss


def _study():
    rows = {}
    for name in WORKLOAD_NAMES:
        model = get_model(name, "default")
        fetches = [model.loss, model.train_step]
        feed = model.sample_feed()
        _, before_time, before_loss = _modeled_step(
            model.graph, fetches, feed, PlanOptions.structural())
        plan, after_time, after_loss = _modeled_step(
            model.graph, fetches, feed, OPTIMIZED)
        rows[name] = (plan.stats, before_time, after_time,
                      before_loss == after_loss)
    return rows


def test_rewrite_ablation(benchmark):
    rows = benchmark.pedantic(_study, rounds=1, iterations=1)

    print("\nGraph-optimizer ablation (training subgraph, modeled cpu1):")
    print(f"{'workload':>10s}  {'ops':>5s} -> {'ops':>5s}  "
          f"{'ident':>5s} {'fold':>5s} {'cse':>5s}  "
          f"{'time':>8s} -> {'time':>8s}  {'saved':>6s}")
    for name, (stats, before, after, _) in rows.items():
        saved = 1.0 - after / before
        print(f"{name:>10s}  {stats.ops_in:5d} -> {stats.ops_out:5d}  "
              f"{stats.identities_removed:5d} {stats.constants_folded:5d} "
              f"{stats.subexpressions_merged:5d}  "
              f"{before * 1e3:6.1f}ms -> {after * 1e3:6.1f}ms  "
              f"{saved:6.1%}")

    for name, (stats, before, after, same_loss) in rows.items():
        # The optimizer never grows the graph, slows the modeled step,
        # or changes the loss.
        assert stats.ops_out <= stats.ops_in, name
        assert after <= before * 1.02, name
        assert same_loss, name

    # The unrolled recurrent models benefit most in op count.
    def reduction(name):
        return 1.0 - rows[name][0].ops_out / rows[name][0].ops_in

    assert reduction("seq2seq") > reduction("vgg")
    assert reduction("seq2seq") > 0.02
