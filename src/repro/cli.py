"""Command-line interface to the Fathom reproduction.

Every capability of the standard model interface is reachable from the
shell::

    python -m repro list
    python -m repro run alexnet --config tiny --steps 5
    python -m repro run speech --resume ckpt.npz --max-retries 3
    python -m repro profile speech --device cpu1 --classes
    python -m repro sweep deepq --threads 1 2 4 8
    python -m repro tables
    python -m repro figures
    python -m repro graph memnet --stats
    python -m repro timeline autoenc --output trace.json
    python -m repro compile seq2seq --mode infer --report
"""

from __future__ import annotations

import argparse
import json
import os
import sys

import numpy as np


#: serving-fault presets for ``repro serve --fault`` (name -> one-line
#: description; the specs are built in :func:`_serve_preset_specs`)
SERVE_FAULT_PRESETS = {
    "crash": "replica 0 crashes on its second batch "
             "(restart + hedged-retry path)",
    "slow": "replica 0 stalls 50 ms per batch, 5 times "
            "(straggler detection)",
    "poison": "replica 0 returns NaN-poisoned outputs, 3 times "
              "(output screening)",
    "storm": "crash + straggler + fleet-wide poison in one run",
}

#: cluster-fault presets for ``repro train --cluster-faults`` (name ->
#: one-line description; the specs are built in
#: :func:`_cluster_preset_specs`)
CLUSTER_FAULT_PRESETS = {
    "crash": "worker 1 dies mid-step at global step 1 "
             "(checkpoint restart + replay)",
    "straggler": "worker 0 runs 0.5 s slow for 3 steps "
                 "(backup-worker / drop-slowest path)",
    "partition": "the 0->1 link drops everything for one step "
                 "(retransmit + degradation path)",
    "storm": "crash + straggler + corrupt gradient + partition "
             "in one run",
    "byzantine": "worker 1 sends 64x-scaled gradients every step and "
                 "worker 2 replays a stale gradient at step 2 "
                 "(attestation -> quarantine -> eviction path; pair "
                 "with --aggregation screened_mean)",
}

#: fleet-fault presets for ``repro fleet --fault`` (name -> one-line
#: description; the specs are built in :func:`_fleet_preset_specs`)
FLEET_FAULT_PRESETS = {
    "outage": "one zone goes dark at t=50 ms for 100 ms; queued work "
              "re-routes to surviving zones",
    "crash": "the two lowest-id active servers crash together at "
             "t=40 ms (correlated failure)",
    "blackhole": "the balancer's favourite link silently eats traffic "
                 "for 150 ms; probes must discover it",
    "badrollout": "the next deploy is poisoned; the canary must "
                  "convict it and roll back",
    "storm": "blackhole + zone outage + correlated crash + a slow "
             "bad rollout, all in one run",
}


def _serve_preset_specs(name: str):
    from repro.framework.faults import ServingFaultSpec
    return {
        "crash": [ServingFaultSpec("replica_crash", replica=0,
                                   batch=1)],
        "slow": [ServingFaultSpec("slow_replica", replica=0,
                                  latency_seconds=0.05,
                                  max_triggers=5)],
        "poison": [ServingFaultSpec("poisoned_batch", replica=0,
                                    max_triggers=3)],
        "storm": [ServingFaultSpec("replica_crash", replica=0,
                                   batch=1),
                  ServingFaultSpec("slow_replica", replica=1,
                                   latency_seconds=0.05,
                                   max_triggers=5),
                  ServingFaultSpec("poisoned_batch", max_triggers=3)],
    }[name]


def _cluster_preset_specs(name: str):
    from repro.framework.faults import ClusterFaultSpec
    return {
        "crash": [ClusterFaultSpec("worker_crash", worker=1, step=1)],
        "straggler": [ClusterFaultSpec("straggler", worker=0, step=1,
                                       delay_seconds=0.5,
                                       max_triggers=3)],
        "partition": [ClusterFaultSpec("partition", link=(0, 1),
                                       step=1, duration_steps=1)],
        "storm": [ClusterFaultSpec("worker_crash", worker=1, step=1),
                  ClusterFaultSpec("straggler", worker=0, step=2,
                                   delay_seconds=0.5, max_triggers=2),
                  ClusterFaultSpec("corrupt_gradient", link=(1, 0),
                                   step=2, max_triggers=1),
                  ClusterFaultSpec("partition", link=(0, 1), step=3,
                                   duration_steps=1)],
        # Both byzantine detectors here are geometry-independent (norm
        # ratio and digest repeat), so the preset convicts on any
        # workload; run >= 4 steps to see the eviction land.
        "byzantine": [ClusterFaultSpec("byzantine_scale", worker=1,
                                       scale_factor=64.0,
                                       max_triggers=None),
                      ClusterFaultSpec("byzantine_stale", worker=2,
                                       step=2, max_triggers=1)],
    }[name]


def _fleet_preset_specs(name: str, zones: tuple[str, ...]):
    from repro.framework.faults import FleetFaultSpec
    second = zones[1] if len(zones) > 1 else zones[0]
    return {
        "outage": [FleetFaultSpec("zone_outage", zone=second,
                                  at_seconds=0.05,
                                  duration_seconds=0.1)],
        "crash": [FleetFaultSpec("correlated_crash", count=2,
                                 at_seconds=0.04)],
        "blackhole": [FleetFaultSpec("lb_blackhole", at_seconds=0.02,
                                     duration_seconds=0.15)],
        "badrollout": [FleetFaultSpec("bad_rollout", at_seconds=0.0,
                                      defect="poison")],
        "storm": [FleetFaultSpec("lb_blackhole", at_seconds=0.02,
                                 duration_seconds=0.15),
                  FleetFaultSpec("zone_outage", zone=second,
                                 at_seconds=0.05,
                                 duration_seconds=0.1),
                  FleetFaultSpec("correlated_crash", count=2,
                                 at_seconds=0.12),
                  FleetFaultSpec("bad_rollout", at_seconds=0.0,
                                 defect="slow")],
    }[name]


def _print_presets(title: str, presets: dict[str, str]) -> int:
    print(f"{title}:")
    for name, description in presets.items():
        print(f"  {name:<12s} {description}")
    return 0


def _check_preset(name: str, presets: dict[str, str],
                  command: str) -> bool:
    """Friendly validation: list what exists instead of a bare error."""
    if name == "none" or name in presets:
        return True
    print(f"error: unknown fault preset {name!r} for 'repro "
          f"{command}'. Available presets:", file=sys.stderr)
    for known, description in presets.items():
        print(f"  {known:<12s} {description}", file=sys.stderr)
    return False


def _parse_tenants(text: str):
    """Parse ``name[:max_outstanding[:deadline_ms]],...`` tenant specs."""
    from repro.serving import TenantSpec
    tenants = []
    for chunk in text.split(","):
        parts = chunk.strip().split(":")
        if not parts[0]:
            raise argparse.ArgumentTypeError(
                f"empty tenant name in {text!r}")
        max_outstanding = int(parts[1]) if len(parts) > 1 and parts[1] \
            else 64
        deadline_ms = float(parts[2]) if len(parts) > 2 and parts[2] \
            else None
        tenants.append(TenantSpec(parts[0],
                                  max_outstanding=max_outstanding,
                                  deadline_ms=deadline_ms))
    return tuple(tenants)


def _parse_device(text: str):
    from repro.framework.device_model import cpu, gpu
    if text == "measured":
        return None
    if text == "gpu":
        return gpu()
    if text.startswith("cpu"):
        return cpu(int(text[3:] or "1"))
    raise argparse.ArgumentTypeError(
        f"device must be 'measured', 'gpu', or 'cpuN', got {text!r}")


def cmd_list(args) -> int:
    from repro.workloads import WORKLOADS
    print(f"{'name':<10s} {'year':<5s} {'style':<22s} {'layers':<7s} "
          f"{'task':<14s} dataset")
    for name, cls in WORKLOADS.items():
        meta = cls.metadata
        print(f"{name:<10s} {meta.year:<5d} {meta.neuronal_style:<22s} "
              f"{meta.layers:<7d} {meta.learning_task:<14s} {meta.dataset}")
    return 0


def _build(args):
    from repro.workloads import create
    model = create(args.workload, config=args.config, seed=args.seed)
    print(f"{model!r}", file=sys.stderr)
    return model


def _probe_writable_dir(directory: str, flag: str) -> bool:
    """Fail fast on an unusable checkpoint location, before step 0.

    Creates the directory if needed and proves writability with a probe
    file, so a typo'd or read-only path costs one friendly line instead
    of an exception mid-training.
    """
    import tempfile
    try:
        os.makedirs(directory or ".", exist_ok=True)
        fd, probe = tempfile.mkstemp(dir=directory or ".",
                                     prefix=".repro-probe-")
        os.close(fd)
        os.unlink(probe)
    except OSError as exc:
        print(f"error: {flag} path {directory!r} is not writable: "
              f"{exc.strerror or exc}", file=sys.stderr)
        return False
    return True


def cmd_run(args) -> int:
    checkpoint_replicas = getattr(args, "checkpoint_replicas", 1)
    if args.checkpoint is not None:
        # A replicated store roots a directory at the path; a plain
        # checkpoint writes a file into its parent directory.
        target = (args.checkpoint if checkpoint_replicas > 1
                  else os.path.dirname(os.fspath(args.checkpoint)))
        if not _probe_writable_dir(target, "--checkpoint"):
            return 2
    model = _build(args)
    if getattr(args, "safe_mode", False):
        # Start at the lowest tier: op-at-a-time exception capture with
        # forced zero-and-record numeric screening.
        model.session.safe_mode = True
    if args.mode == "train":
        healing = getattr(args, "healing", False)
        resilient = (args.resume is not None or args.max_retries is not None
                     or args.checkpoint is not None or healing)
        if resilient:
            from repro.framework.resilience import (ResilienceConfig,
                                                    ResilientRunner)
            checkpoint_store = None
            checkpoint_path = args.checkpoint
            if args.checkpoint is not None and checkpoint_replicas > 1:
                from repro.storage import open_local_store
                checkpoint_store = open_local_store(
                    args.checkpoint, replicas=checkpoint_replicas,
                    scrub_interval=getattr(args, "scrub_interval", None))
                checkpoint_path = None
            config = ResilienceConfig(
                max_retries=(args.max_retries
                             if args.max_retries is not None else 2),
                backoff_base=0.05,
                resume_from=args.resume,
                checkpoint_path=checkpoint_path,
                checkpoint_store=checkpoint_store,
                checkpoint_every=(args.checkpoint_every
                                  or (10 if args.checkpoint else 0)),
                healing=healing or None)
            runner = ResilientRunner(model, config=config)
            losses = runner.run(args.steps)
            for event in runner.events:
                print(f"[{event.kind}] step {event.step}: {event.detail}",
                      file=sys.stderr)
            for event in runner.degradations:
                where = f" at {event.op_name}" if event.op_name else ""
                print(f"[healing:{event.kind}] step {event.step}{where}: "
                      f"{event.detail}", file=sys.stderr)
            if healing:
                print(f"final execution tier: "
                      f"{model.session.execution_tier}", file=sys.stderr)
        else:
            losses = model.run_training(steps=args.steps)
        for step, loss in enumerate(losses, start=1):
            print(f"step {step:3d}  loss {loss:.6f}")
    else:
        if args.resume is not None:
            from repro.framework import checkpoint
            checkpoint.restore(model.session, args.resume)
        output = model.run_inference(steps=args.steps)
        print(f"inference output shape {output.shape}, "
              f"mean {float(np.mean(output)):.6f}")
    return 0


def cmd_train(args) -> int:
    from repro.distributed import (ClusterConfig, ClusterRuntime,
                                   single_worker_reference)
    from repro.framework.faults import ClusterFaultPlan
    from repro.profiling.tracer import Tracer
    from repro.workloads import create
    if not _check_preset(args.cluster_faults, CLUSTER_FAULT_PRESETS,
                         "train"):
        return 2
    if args.checkpoint_dir is not None \
            and not _probe_writable_dir(os.fspath(args.checkpoint_dir),
                                        "--checkpoint-dir"):
        return 2
    model = _build(args)
    tracer = Tracer()
    try:
        config = ClusterConfig(
            workers=args.workers, strategy=args.strategy,
            backup_workers=args.backup_workers, staleness=args.staleness,
            seed=args.seed, aggregation=args.aggregation, trim=args.trim,
            checkpoint_every=(args.checkpoint_every
                              or (10 if args.checkpoint_dir else 0)),
            checkpoint_dir=args.checkpoint_dir,
            checkpoint_replicas=args.checkpoint_replicas,
            scrub_interval=args.scrub_interval)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    faults = None
    if args.cluster_faults != "none":
        faults = ClusterFaultPlan(
            _cluster_preset_specs(args.cluster_faults), seed=args.seed)
        print(f"armed {args.cluster_faults!r} cluster-fault plan",
              file=sys.stderr)
    runtime = ClusterRuntime(model, config=config, faults=faults,
                             tracer=tracer)
    result = runtime.run(args.steps)
    for step, loss in enumerate(result.losses, start=1):
        print(f"step {step:3d}  loss {loss:.6f}")
    for event in result.events:
        where = f" worker {event.worker}" if event.worker is not None else ""
        where += f" link {event.link}" if event.link is not None else ""
        print(f"[{event.kind}] step {event.step}{where}: {event.detail}",
              file=sys.stderr)
    print(f"{result.workers} workers ({config.strategy}), "
          f"{len(result.events)} cluster events, virtual elapsed "
          f"{result.elapsed_seconds:.4f}s", file=sys.stderr)
    if args.verify_identity:
        reference = create(args.workload, config=args.config,
                           seed=args.seed)
        ref_losses, _worker = single_worker_reference(
            reference, args.steps, args.workers, seed=args.seed)
        identical = ref_losses == result.losses
        print(f"single-worker bit-identity: "
              f"{'PASS' if identical else 'FAIL'}", file=sys.stderr)
        if not identical:
            return 1
    if args.report_json:
        import json as json_lib
        with open(args.report_json, "w") as handle:
            json_lib.dump(result.to_json(), handle, indent=2)
        print(f"wrote {args.report_json}", file=sys.stderr)
    if args.trace:
        from repro.profiling.serialize import save_trace
        count = save_trace(tracer, args.trace,
                           metadata={"workload": args.workload,
                                     "config": args.config,
                                     "mode": "distributed-train",
                                     "workers": args.workers,
                                     "strategy": args.strategy,
                                     "seed": args.seed})
        print(f"wrote {args.trace}: {count} op records, "
              f"{len(tracer.cluster_events())} cluster events",
              file=sys.stderr)
    return 0


def cmd_serve(args) -> int:
    from repro.framework.faults import ServingFaultPlan
    from repro.profiling.tracer import Tracer
    from repro.serving import (LoadConfig, LoadGenerator, ServingConfig,
                               VirtualClock)
    if args.list_presets:
        return _print_presets("serving-fault presets (repro serve "
                              "--fault NAME)", SERVE_FAULT_PRESETS)
    if args.workload is None:
        print("error: a workload is required (see 'repro list'), or "
              "use --list-presets", file=sys.stderr)
        return 2
    if not _check_preset(args.fault, SERVE_FAULT_PRESETS, "serve"):
        return 2
    model = _build(args)
    tracer = Tracer()
    clock = VirtualClock() if args.virtual_clock else None
    config = ServingConfig(
        replicas=args.replicas, max_batch=args.max_batch,
        queue_limit=args.queue_limit,
        default_deadline_ms=args.deadline_ms,
        max_hedges=args.max_hedges, slow_batch_ms=args.slow_batch_ms,
        seed=args.seed)
    server = model.serve(config=config, tracer=tracer, clock=clock)
    injector = None
    if args.fault != "none":
        injector = server.install_faults(
            ServingFaultPlan(_serve_preset_specs(args.fault),
                             seed=args.seed))
        print(f"armed {args.fault!r} serving-fault plan", file=sys.stderr)
    generator = LoadGenerator(server, LoadConfig(
        requests=args.requests, qps=args.qps, seed=args.seed))
    report = generator.run()
    print(report.render())
    if injector is not None:
        print(f"injected {injector.num_injected} serving faults",
              file=sys.stderr)
    if args.report_json:
        report.save(args.report_json)
        print(f"wrote {args.report_json}", file=sys.stderr)
    if args.trace:
        from repro.profiling.serialize import save_trace
        count = save_trace(tracer, args.trace,
                           metadata={"workload": args.workload,
                                     "config": args.config,
                                     "mode": "serve", "seed": args.seed})
        print(f"wrote {args.trace}: {count} op records, "
              f"{len(tracer.serving_events())} serving events",
              file=sys.stderr)
    return 0


def cmd_fleet(args) -> int:
    from repro.framework.faults import FleetFaultPlan
    from repro.profiling.tracer import Tracer
    from repro.serving import (AutoscaleConfig, FleetConfig, LoadConfig,
                               LoadGenerator, ServingConfig,
                               ServingFleet, VirtualClock)
    if args.list_presets:
        return _print_presets("fleet-fault presets (repro fleet "
                              "--fault NAME)", FLEET_FAULT_PRESETS)
    if args.workload is None:
        print("error: a workload is required (see 'repro list'), or "
              "use --list-presets", file=sys.stderr)
        return 2
    if not _check_preset(args.fault, FLEET_FAULT_PRESETS, "fleet"):
        return 2
    model = _build(args)
    tracer = Tracer()
    clock = VirtualClock() if args.virtual_clock else None
    zones = tuple(f"z{index}" for index in range(args.zones))
    rollout_at = args.rollout_at
    if rollout_at is None and args.fault in ("badrollout", "storm"):
        # The bad_rollout fault only bites when a deploy happens; the
        # presets that arm one also schedule one.
        rollout_at = 0.08
    config = FleetConfig(
        zones=zones, servers_per_zone=args.servers_per_zone,
        server=ServingConfig(
            replicas=args.replicas, queue_limit=args.queue_limit,
            default_deadline_ms=args.deadline_ms,
            max_hedges=args.max_hedges, seed=args.seed),
        tenants=_parse_tenants(args.tenants),
        autoscale=AutoscaleConfig(min_servers=args.min_servers,
                                  max_servers=args.max_servers),
        rollout_at_seconds=rollout_at,
        rollout_version=args.rollout_version,
        seed=args.seed)
    fleet = ServingFleet(model, config, tracer=tracer, clock=clock)
    injector = None
    if args.fault != "none":
        injector = fleet.install_faults(FleetFaultPlan(
            _fleet_preset_specs(args.fault, zones), seed=args.seed))
        print(f"armed {args.fault!r} fleet-fault plan", file=sys.stderr)
    generator = LoadGenerator(fleet, LoadConfig(
        requests=args.requests, qps=args.qps, seed=args.seed))
    report = generator.run()
    print(report.render())
    if injector is not None:
        print(f"injected {injector.num_injected} fleet faults: "
              f"{injector.signature()}", file=sys.stderr)
    if args.report_json:
        report.save(args.report_json)
        print(f"wrote {args.report_json}", file=sys.stderr)
    if args.trace:
        from repro.profiling.serialize import save_trace
        count = save_trace(tracer, args.trace,
                           metadata={"workload": args.workload,
                                     "config": args.config,
                                     "mode": "fleet",
                                     "zones": list(zones),
                                     "seed": args.seed})
        print(f"wrote {args.trace}: {count} op records, "
              f"{len(tracer.fleet_events())} fleet events",
              file=sys.stderr)
    return 0


def _campaign_preset_plans(harness):
    """The shipped CLI fault presets, as plans for ``harness``.

    Lets ``repro chaos run --include-presets`` hold every preset a user
    can type at the CLI to the same oracle bar as the searched space.
    The training harness has no shipped presets (op-level faults are
    composed, not preset) so it contributes none.
    """
    if harness.name == "cluster":
        specs = [_cluster_preset_specs(name)
                 for name in CLUSTER_FAULT_PRESETS]
    elif harness.name == "serving":
        specs = [_serve_preset_specs(name)
                 for name in SERVE_FAULT_PRESETS]
    elif harness.name == "fleet":
        specs = [_fleet_preset_specs(name, harness.zones)
                 for name in FLEET_FAULT_PRESETS]
    else:
        specs = []
    return tuple(harness.make_plan(s) for s in specs)


def cmd_chaos_run(args) -> int:
    from repro.chaos import (HARNESSES, ORACLES, CampaignSpec,
                             run_campaign, write_reproducer)
    from repro.profiling.tracer import Tracer
    if args.list_oracles:
        print("invariant oracles (repro chaos run --oracle NAME):")
        for name, oracle in ORACLES.items():
            harnesses = ",".join(oracle.harnesses)
            print(f"  {name:<20s} [{harnesses}] {oracle.summary}")
        return 0
    if args.list_harnesses:
        print("campaign harnesses (repro chaos run --harness NAME):")
        for name, cls in HARNESSES.items():
            print(f"  {name:<10s} {cls.__doc__.splitlines()[0]}")
        return 0
    spec = CampaignSpec(
        harness=args.harness, workload=args.workload,
        config=args.config, steps=args.steps, requests=args.requests,
        budget=args.budget, max_faults=args.max_faults,
        seeds=tuple(int(s) for s in args.seeds.split(",")),
        oracles=tuple(args.oracle) if args.oracle else None,
        sample_seed=args.sample_seed, replicas=args.replicas)
    harness = spec.build_harness()
    extra_plans = (_campaign_preset_plans(harness)
                   if args.include_presets else ())
    tracer = Tracer()
    result = run_campaign(
        spec, harness=harness, extra_plans=extra_plans, tracer=tracer,
        minimize=not args.no_minimize,
        log=lambda msg: print(msg, file=sys.stderr))
    print(f"campaign: {result.executed} schedule(s) executed "
          f"(space {result.schedule_space}), {result.verdicts} "
          f"verdicts from {len(result.oracle_names)} oracle(s) "
          f"[{', '.join(result.oracle_names)}]")
    for violation in result.violations:
        plan = violation.minimized or violation.plan
        kinds = ",".join(s.kind for s in plan.specs)
        print(f"violation: {violation.oracle} on schedule "
              f"{violation.schedule_index} -> minimal reproducer "
              f"{len(plan.specs)} fault(s) [{kinds}]: "
              f"{violation.detail}")
    if result.violations and args.reproducer_dir:
        os.makedirs(args.reproducer_dir, exist_ok=True)
        for index, violation in enumerate(result.violations):
            path = os.path.join(
                args.reproducer_dir,
                f"repro-{harness.name}-{violation.oracle}-"
                f"{violation.schedule_index}.json")
            write_reproducer(path, harness, violation)
            print(f"wrote {path} (replay: python -m repro chaos "
                  f"replay {path})", file=sys.stderr)
    if args.report_json:
        with open(args.report_json, "w") as handle:
            json.dump(result.to_json(), handle, indent=2)
        print(f"wrote {args.report_json}", file=sys.stderr)
    if args.trace:
        from repro.profiling.serialize import save_trace
        save_trace(tracer, args.trace,
                   metadata={"mode": "chaos-campaign",
                             "harness": harness.name,
                             "workload": args.workload})
        print(f"wrote {args.trace}: "
              f"{len(tracer.campaign_events())} campaign events",
              file=sys.stderr)
    if result.ok:
        print("all oracles held on every schedule")
        return 0
    return 1


def cmd_chaos_minimize(args) -> int:
    from repro.chaos import (Violation, load_reproducer,
                             minimize_violation, write_reproducer)
    from repro.chaos.campaign import build_harness
    from repro.framework.faults import plan_from_json
    blob = load_reproducer(args.reproducer)
    kw = {}
    if blob.get("replicas") is not None:
        kw["replicas"] = blob["replicas"]
    harness = build_harness(
        blob["harness"], workload=blob["workload"],
        config=blob["config"], seed=blob["seed"], steps=blob["steps"],
        requests=blob["requests"], **kw)
    plan = plan_from_json(blob["plan"])
    violation = Violation(schedule_index=0, plan=plan,
                          oracle=blob["oracle"], detail=blob["detail"])
    try:
        minimize_violation(harness, violation)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    stats = violation.minimize_stats
    out = args.output or args.reproducer
    write_reproducer(out, harness, violation)
    print(f"minimized {len(plan.specs)} -> {stats.size} fault(s) in "
          f"{stats.tests_run} runs ({stats.cache_hits} cached); "
          f"wrote {out}")
    return 0


def cmd_chaos_replay(args) -> int:
    from repro.chaos import replay_reproducer
    from repro.profiling.tracer import Tracer
    tracer = Tracer() if args.trace else None
    verdicts, blob = replay_reproducer(args.reproducer, tracer=tracer)
    kinds = ",".join(s["kind"] for s in blob["plan"]["specs"])
    print(f"replayed {len(blob['plan']['specs'])} fault(s) [{kinds}] "
          f"on {blob['harness']}/{blob['workload']}")
    failed = False
    for verdict in verdicts:
        status = "ok" if verdict.ok else "VIOLATED"
        detail = f": {verdict.detail}" if verdict.detail else ""
        print(f"  {verdict.oracle:<20s} {status}{detail}")
        failed = failed or not verdict.ok
    if args.trace:
        from repro.profiling.serialize import save_trace
        save_trace(tracer, args.trace,
                   metadata={"mode": "chaos-replay",
                             "harness": blob["harness"],
                             "workload": blob["workload"]})
        print(f"wrote {args.trace}", file=sys.stderr)
    return 1 if failed else 0


def cmd_profile(args) -> int:
    model = _build(args)
    profile = model.profile(mode=args.mode.replace("train", "training")
                            .replace("infer", "inference"),
                            steps=args.steps, device=args.device)
    print(f"seconds per step: {profile.seconds_per_step():.6f} "
          f"({'modeled' if args.device else 'measured'})")
    if args.classes:
        for letter, fraction in profile.class_breakdown().items():
            from repro.profiling.taxonomy import GROUP_NAMES
            print(f"  {letter} {GROUP_NAMES[letter]:<24s} {fraction:7.2%}")
    else:
        for op_type, fraction in profile.top_types(args.top):
            print(f"  {op_type:<28s} {fraction:7.2%}")
    print(f"{profile.types_for_coverage(0.9)} op types cover 90% of time")
    return 0


def cmd_sweep(args) -> int:
    from repro.analysis.parallelism import sweep_threads
    model = _build(args)
    sweep = sweep_threads(model, steps=args.steps,
                          thread_counts=tuple(args.threads))
    print(sweep.render(top_n=args.top))
    print(f"overall speedup at {args.threads[-1]} threads: "
          f"{sweep.speedup(args.threads[-1]):.2f}x")
    return 0


def cmd_evaluate(args) -> int:
    model = _build(args)
    if args.train_steps:
        print(f"training for {args.train_steps} steps...", file=sys.stderr)
        model.run_training(steps=args.train_steps)
    metrics = model.evaluate(batches=args.batches)
    for name, value in metrics.items():
        print(f"{name:<24s} {value:.4f}")
    return 0


def cmd_placement(args) -> int:
    from repro.analysis.placement_study import (latency_sweep,
                                                render_placement_table,
                                                study_workload)
    model = _build(args)
    print(render_placement_table([study_workload(model)]))
    sweep = latency_sweep(model)
    print("\nfall-back penalty vs boundary-sync cost:")
    for latency, point in sweep.items():
        print(f"  {latency * 1e6:5.0f}us  {point.fallback_penalty:5.2f}x "
              f"vs gpu, {point.fallback_vs_cpu:5.2f}x vs cpu")
    return 0


def cmd_compare(args) -> int:
    from repro.profiling.comparison import compare_profiles
    base = _build(args)
    base_profile = base.profile(mode="training", steps=args.steps,
                                device=args.device)
    from repro.workloads import create
    other = create(args.other, config=args.config, seed=args.seed)
    other_profile = other.profile(mode="training", steps=args.steps,
                                  device=args.device)
    print(compare_profiles(base_profile, other_profile).render())
    return 0


def cmd_whatif(args) -> int:
    from repro.analysis.accelerator import PRESETS, render_what_if, what_if
    model = _build(args)
    classes = PRESETS[args.preset]
    result = what_if(model, classes, factors=tuple(args.factors),
                     steps=args.steps)
    print(render_what_if([result], args.preset))
    return 0


def cmd_compile(args) -> int:
    model = _build(args)
    mode = args.mode.replace("train", "training").replace("infer",
                                                          "inference")
    plan = model.compile_plan(mode=mode)
    if args.report:
        print(plan.report())
    else:
        saved = plan.stats.ops_in - plan.num_steps
        print(f"{args.workload} {mode}: {plan.stats.ops_in} ops -> "
              f"{plan.num_steps} steps ({saved} eliminated, "
              f"{plan.fused_cells} LSTM cells fused); planned peak "
              f"{plan.planned_peak_bytes / 1e6:.2f} MB; arena hit rate "
              f"{plan.memory.hit_rate:.2f}; compiled in "
              f"{plan.compile_seconds * 1e3:.2f} ms")
    return 0


def cmd_memory(args) -> int:
    from repro.framework.graph_export import static_peak_bytes
    model = _build(args)
    train_peak = static_peak_bytes(model.graph,
                                   fetches=[model.loss, model.train_step],
                                   options=model.session.options)
    infer_peak = static_peak_bytes(model.graph,
                                   fetches=[model.inference_output],
                                   options=model.session.options)
    params = model.num_parameters() * 4
    print(f"parameters:          {params / 1e6:8.2f} MB")
    print(f"training step peak:  {train_peak / 1e6:8.2f} MB "
          "(live intermediates)")
    print(f"inference step peak: {infer_peak / 1e6:8.2f} MB")
    return 0


def cmd_trace(args) -> int:
    from repro.profiling.serialize import save_trace
    from repro.profiling.tracer import Tracer
    model = _build(args)
    tracer = Tracer()
    if args.mode == "train":
        model.run_training(steps=args.steps, tracer=tracer)
    else:
        model.run_inference(steps=args.steps, tracer=tracer)
    count = save_trace(tracer, args.output,
                       metadata={"workload": args.workload,
                                 "config": args.config,
                                 "mode": args.mode, "seed": args.seed})
    print(f"wrote {args.output}: {count} op records over "
          f"{tracer.num_steps} steps")
    return 0


def cmd_census(args) -> int:
    from repro.analysis.census import census, render_census
    model = _build(args)
    print(render_census([census(model)]))
    return 0


def cmd_roofline(args) -> int:
    from repro.analysis.roofline import render_roofline, roofline
    model = _build(args)
    device = args.device if args.device is not None else None
    if device is None:
        from repro.framework.device_model import cpu
        device = cpu(1)
    print(render_roofline([roofline(model, steps=args.steps,
                                    device=device)]))
    return 0


def cmd_phases(args) -> int:
    from repro.analysis.phases import render_phase_table, split_phases
    model = _build(args)
    print(render_phase_table([split_phases(model, steps=args.steps)]))
    return 0


def cmd_report(args) -> int:
    from repro.analysis.report import full_report
    text = full_report(config=args.config, steps=args.steps)
    if args.output:
        with open(args.output, "w") as handle:
            handle.write(text)
        print(f"wrote {args.output}")
    else:
        print(text)
    return 0


def cmd_tables(args) -> int:
    from repro.analysis.survey import render_table1
    from repro.analysis.workload_table import render_table2
    print(render_table1())
    print()
    print(render_table2())
    return 0


def cmd_figures(args) -> int:
    from repro.analysis import suite
    from repro.analysis.dominance import (dominance_curves,
                                          render_dominance_table)
    from repro.framework.device_model import cpu
    profiles = suite.profile_suite(config=args.config, steps=args.steps,
                                   device=cpu(1))
    print(render_dominance_table(dominance_curves(profiles)))
    print()
    print(suite.suite_breakdown(config=args.config, steps=args.steps,
                                device=cpu(1)).render())
    return 0


def cmd_graph(args) -> int:
    from repro.framework.graph_export import graph_stats, to_dot
    model = _build(args)
    if args.dot:
        with open(args.dot, "w") as handle:
            handle.write(to_dot(model.graph, max_ops=args.max_ops))
        print(f"wrote {args.dot}")
    stats = graph_stats(model.graph)
    print(f"operations:          {stats.num_ops}")
    print(f"edges:               {stats.num_edges}")
    print(f"critical path:       {stats.critical_path_length}")
    print(f"max width:           {stats.max_width}")
    print(f"avg parallelism:     {stats.average_parallelism:.2f}")
    print(f"total FLOPs/step:    {stats.total_work.flops:.3g}")
    top = sorted(stats.op_type_histogram.items(), key=lambda kv: -kv[1])
    for op_type, count in top[:args.top]:
        print(f"  {op_type:<28s} x{count}")
    return 0


def cmd_timeline(args) -> int:
    from repro.profiling.timeline import to_chrome_trace
    from repro.profiling.tracer import Tracer
    model = _build(args)
    tracer = Tracer()
    if args.mode == "train":
        model.run_training(steps=args.steps, tracer=tracer)
    else:
        model.run_inference(steps=args.steps, tracer=tracer)
    with open(args.output, "w") as handle:
        handle.write(to_chrome_trace(tracer, process_name=args.workload))
    print(f"wrote {args.output} ({len(tracer.records)} events, "
          f"{tracer.num_steps} steps); open in chrome://tracing")
    return 0


def _add_model_args(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("workload", help="workload name (see 'list')")
    parser.add_argument("--config", default="default",
                        choices=["tiny", "default", "paper"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--steps", type=int, default=2)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro", description="Fathom reference workloads (reproduction)")
    commands = parser.add_subparsers(dest="command", required=True)

    commands.add_parser("list", help="list the eight workloads") \
        .set_defaults(handler=cmd_list)

    run_parser = commands.add_parser("run", help="train or infer")
    _add_model_args(run_parser)
    run_parser.add_argument("--mode", default="train",
                            choices=["train", "infer"])
    run_parser.add_argument("--resume", metavar="CKPT",
                            help="restore variables from this checkpoint "
                                 "before running (or 'latest' to restore "
                                 "the newest intact archive when "
                                 "--checkpoint-replicas > 1)")
    run_parser.add_argument("--max-retries", type=int, default=None,
                            help="retry failed training steps this many "
                                 "times (enables the resilient runner)")
    run_parser.add_argument("--checkpoint", metavar="PATH",
                            help="write periodic atomic checkpoints here "
                                 "while training")
    run_parser.add_argument("--checkpoint-every", type=int, default=0,
                            metavar="N",
                            help="checkpoint cadence in steps "
                                 "(default 10 when --checkpoint is set)")
    run_parser.add_argument("--checkpoint-replicas", type=int, default=1,
                            metavar="N",
                            help="quorum-write each checkpoint to N "
                                 "replica stores rooted at --checkpoint "
                                 "(digest-verified, self-repairing; "
                                 "default 1 = a single plain file)")
    run_parser.add_argument("--scrub-interval", type=float, default=None,
                            metavar="SECONDS",
                            help="background scrub cadence for the "
                                 "replicated checkpoint archive "
                                 "(detects and heals bit rot)")
    run_parser.add_argument("--healing", action="store_true",
                            help="self-heal failed steps: blame-localize, "
                                 "de-optimize to safer plan tiers, "
                                 "quarantine offending compiler passes "
                                 "(enables the resilient runner)")
    run_parser.add_argument("--safe-mode", action="store_true",
                            help="start in op-at-a-time safe mode "
                                 "(per-op exception capture + numeric "
                                 "screening; the slowest, safest tier)")
    run_parser.set_defaults(handler=cmd_run)

    train_parser = commands.add_parser(
        "train", help="fault-tolerant data-parallel training")
    _add_model_args(train_parser)
    train_parser.add_argument("--workers", type=int, default=2,
                              help="data-parallel worker count")
    train_parser.add_argument("--strategy", default="ps",
                              choices=["ps", "allreduce"],
                              help="gradient exchange: parameter server "
                                   "or ring all-reduce")
    train_parser.add_argument("--backup-workers", type=int, default=0,
                              metavar="K",
                              help="extra shard mirrors (drop-slowest "
                                   "straggler tolerance)")
    train_parser.add_argument("--staleness", type=int, default=0,
                              metavar="S",
                              help="bounded-staleness async PS: workers "
                                   "pull params after lagging S versions "
                                   "(0 = synchronous)")
    train_parser.add_argument("--aggregation", default="mean",
                              choices=["mean", "trimmed_mean",
                                       "coordinate_median",
                                       "screened_mean"],
                              help="gradient aggregation; screened_mean "
                                   "turns on gradient attestation with "
                                   "recompute audits and "
                                   "reputation-driven eviction")
    train_parser.add_argument("--trim", type=int, default=None,
                              metavar="T",
                              help="per-coordinate trim count for "
                                   "--aggregation trimmed_mean "
                                   "(default (K-1)//2)")
    train_parser.add_argument("--cluster-faults", default="none",
                              metavar="PRESET",
                              help="arm a deterministic cluster-fault "
                                   "preset (crash, straggler, partition, "
                                   "storm, byzantine)")
    train_parser.add_argument("--checkpoint-dir", metavar="DIR",
                              help="persist coordinated checkpoints here")
    train_parser.add_argument("--checkpoint-every", type=int, default=0,
                              metavar="N",
                              help="coordinated checkpoint cadence "
                                   "(default 10 when --checkpoint-dir "
                                   "is set)")
    train_parser.add_argument("--checkpoint-replicas", type=int,
                              default=1, metavar="N",
                              help="quorum-write each coordinated "
                                   "checkpoint to N replica stores under "
                                   "--checkpoint-dir (default 1 = a "
                                   "single plain archive)")
    train_parser.add_argument("--scrub-interval", type=float,
                              default=None, metavar="SECONDS",
                              help="background scrub cadence for the "
                                   "replicated checkpoint archive")
    train_parser.add_argument("--verify-identity", action="store_true",
                              help="also run the single-worker reference "
                                   "and assert bit-identical losses")
    train_parser.add_argument("--report-json", metavar="PATH",
                              help="write the cluster run result as JSON")
    train_parser.add_argument("--trace", metavar="PATH",
                              help="save the training trace (op records + "
                                   "cluster events) as JSONL")
    train_parser.set_defaults(handler=cmd_train)

    serve_parser = commands.add_parser(
        "serve", help="robust inference serving under synthetic load")
    serve_parser.add_argument("workload", nargs="?", default=None,
                              help="workload name (see 'list')")
    serve_parser.add_argument("--config", default="default",
                              choices=["tiny", "default", "paper"])
    serve_parser.add_argument("--seed", type=int, default=0)
    serve_parser.add_argument("--requests", type=int, default=64,
                              help="total requests to generate")
    serve_parser.add_argument("--qps", type=float, default=0.0,
                              help="open-loop arrival rate "
                                   "(0 = closed loop)")
    serve_parser.add_argument("--deadline-ms", type=float, default=100.0,
                              help="per-request deadline (0 disables)")
    serve_parser.add_argument("--replicas", type=int, default=2)
    serve_parser.add_argument("--max-batch", type=int, default=None,
                              help="coalesce at most this many requests "
                                   "(default: the plan batch size)")
    serve_parser.add_argument("--max-hedges", type=int, default=1,
                              help="retries for requests on failed "
                                   "batches")
    serve_parser.add_argument("--queue-limit", type=int, default=64)
    serve_parser.add_argument("--slow-batch-ms", type=float, default=None,
                              help="breaker-count batches slower than "
                                   "this (straggler detection)")
    serve_parser.add_argument("--fault", default="none",
                              metavar="PRESET",
                              help="arm a deterministic serving-fault "
                                   "preset (see --list-presets)")
    serve_parser.add_argument("--list-presets", action="store_true",
                              help="print the fault presets and exit")
    serve_parser.add_argument("--virtual-clock", action="store_true",
                              help="drive the server on a virtual clock "
                                   "(deterministic latencies; injected "
                                   "stalls cost no wall time)")
    serve_parser.add_argument("--report-json", metavar="PATH",
                              help="write the ServingReport as JSON")
    serve_parser.add_argument("--trace", metavar="PATH",
                              help="save the serving trace (op records + "
                                   "SLO/healing events) as JSONL")
    serve_parser.set_defaults(handler=cmd_serve)

    fleet_parser = commands.add_parser(
        "fleet", help="fault-domain-aware serving fleet under chaos")
    fleet_parser.add_argument("workload", nargs="?", default=None,
                              help="workload name (see 'list')")
    fleet_parser.add_argument("--config", default="default",
                              choices=["tiny", "default", "paper"])
    fleet_parser.add_argument("--seed", type=int, default=0)
    fleet_parser.add_argument("--requests", type=int, default=96,
                              help="total requests to generate")
    fleet_parser.add_argument("--qps", type=float, default=300.0,
                              help="open-loop arrival rate "
                                   "(0 = closed loop)")
    fleet_parser.add_argument("--deadline-ms", type=float, default=100.0,
                              help="default per-request deadline "
                                   "(0 disables)")
    fleet_parser.add_argument("--zones", type=int, default=3,
                              help="fault domains (named z0..zN-1)")
    fleet_parser.add_argument("--servers-per-zone", type=int, default=1)
    fleet_parser.add_argument("--replicas", type=int, default=1,
                              help="replicas per fleet server")
    fleet_parser.add_argument("--queue-limit", type=int, default=32,
                              help="per-server queue bound")
    fleet_parser.add_argument("--max-hedges", type=int, default=1)
    fleet_parser.add_argument("--min-servers", type=int, default=2,
                              help="autoscaler floor")
    fleet_parser.add_argument("--max-servers", type=int, default=9,
                              help="autoscaler ceiling")
    fleet_parser.add_argument("--tenants", default="default",
                              metavar="SPECS",
                              help="comma-separated "
                                   "name[:max_outstanding[:deadline_ms]]"
                                   " tenant specs")
    fleet_parser.add_argument("--fault", default="none",
                              metavar="PRESET",
                              help="arm a deterministic fleet-fault "
                                   "preset (see --list-presets)")
    fleet_parser.add_argument("--list-presets", action="store_true",
                              help="print the fault presets and exit")
    fleet_parser.add_argument("--rollout-at", type=float, default=None,
                              metavar="SECONDS",
                              help="start a rolling deploy at this "
                                   "fleet-clock time")
    fleet_parser.add_argument("--rollout-version", default="v2",
                              help="version label the scripted rollout "
                                   "deploys")
    fleet_parser.add_argument("--virtual-clock", action="store_true",
                              help="drive the fleet on a virtual clock "
                                   "(deterministic chaos timelines)")
    fleet_parser.add_argument("--report-json", metavar="PATH",
                              help="write the FleetReport as JSON")
    fleet_parser.add_argument("--trace", metavar="PATH",
                              help="save the fleet trace (op records + "
                                   "fleet events) as JSONL")
    fleet_parser.set_defaults(handler=cmd_fleet)

    chaos_parser = commands.add_parser(
        "chaos", help="fault-space search with invariant oracles")
    chaos_commands = chaos_parser.add_subparsers(dest="chaos_command",
                                                required=True)

    chaos_run = chaos_commands.add_parser(
        "run", help="enumerate fault schedules, judge every oracle, "
                    "minimize violations")
    chaos_run.add_argument("--harness", default="training",
                           metavar="NAME",
                           help="training, cluster, serving, fleet, or "
                                "storage (see --list-harnesses)")
    chaos_run.add_argument("--workload", default="memnet")
    chaos_run.add_argument("--config", default="tiny")
    chaos_run.add_argument("--steps", type=int, default=None,
                           help="training steps per run "
                                "(default: harness default)")
    chaos_run.add_argument("--requests", type=int, default=None,
                           help="load-generator requests per run "
                                "(default: harness default)")
    chaos_run.add_argument("--budget", type=int, default=24,
                           help="max schedules to execute (the space "
                                "is sampled deterministically beyond "
                                "this)")
    chaos_run.add_argument("--max-faults", type=int, default=2,
                           help="largest schedule size to compose")
    chaos_run.add_argument("--seeds", default="0",
                           help="comma-separated plan seeds each "
                                "schedule is crossed with")
    chaos_run.add_argument("--sample-seed", type=int, default=0)
    chaos_run.add_argument("--replicas", type=int, default=None,
                           metavar="N",
                           help="replication factor for the storage "
                                "harness (default: harness default)")
    chaos_run.add_argument("--oracle", action="append", default=None,
                           metavar="NAME",
                           help="restrict to this oracle (repeatable; "
                                "see --list-oracles)")
    chaos_run.add_argument("--include-presets", action="store_true",
                           help="also judge the shipped CLI fault "
                                "presets for this harness")
    chaos_run.add_argument("--no-minimize", action="store_true",
                           help="report violations without "
                                "delta-debugging them")
    chaos_run.add_argument("--reproducer-dir", default=None,
                           metavar="DIR",
                           help="write a replayable reproducer file "
                                "per violation here")
    chaos_run.add_argument("--report-json", default=None,
                           metavar="PATH",
                           help="write the campaign report here")
    chaos_run.add_argument("--trace", default=None, metavar="PATH",
                           help="save the campaign event trace here")
    chaos_run.add_argument("--list-oracles", action="store_true")
    chaos_run.add_argument("--list-harnesses", action="store_true")
    chaos_run.set_defaults(handler=cmd_chaos_run)

    chaos_minimize = chaos_commands.add_parser(
        "minimize", help="delta-debug a reproducer file's schedule to "
                         "its minimum")
    chaos_minimize.add_argument("reproducer",
                                help="reproducer JSON from "
                                     "'chaos run --reproducer-dir'")
    chaos_minimize.add_argument("--output", "-o", default=None,
                                help="write the minimized reproducer "
                                     "here (default: in place)")
    chaos_minimize.set_defaults(handler=cmd_chaos_minimize)

    chaos_replay = chaos_commands.add_parser(
        "replay", help="re-run a reproducer and re-judge its oracle")
    chaos_replay.add_argument("reproducer")
    chaos_replay.add_argument("--trace", default=None, metavar="PATH",
                              help="save the replay event trace here")
    chaos_replay.set_defaults(handler=cmd_chaos_replay)

    profile_parser = commands.add_parser("profile",
                                         help="operation-type profile")
    _add_model_args(profile_parser)
    profile_parser.add_argument("--mode", default="train",
                                choices=["train", "infer"])
    profile_parser.add_argument("--device", type=_parse_device,
                                default="cpu1",
                                help="measured | gpu | cpuN (default cpu1)")
    profile_parser.add_argument("--classes", action="store_true",
                                help="aggregate to Fig. 3 classes")
    profile_parser.add_argument("--top", type=int, default=10)
    profile_parser.set_defaults(handler=cmd_profile)

    sweep_parser = commands.add_parser("sweep",
                                       help="Fig. 6 thread sweep")
    _add_model_args(sweep_parser)
    sweep_parser.add_argument("--threads", type=int, nargs="+",
                              default=[1, 2, 4, 8])
    sweep_parser.add_argument("--top", type=int, default=8)
    sweep_parser.set_defaults(handler=cmd_sweep)

    evaluate_parser = commands.add_parser(
        "evaluate", help="task-quality metrics (accuracy, PER, ...)")
    _add_model_args(evaluate_parser)
    evaluate_parser.add_argument("--train-steps", type=int, default=0,
                                 help="train before evaluating")
    evaluate_parser.add_argument("--batches", type=int, default=4)
    evaluate_parser.set_defaults(handler=cmd_evaluate)

    placement_parser = commands.add_parser(
        "placement", help="Section V-A CPU-fallback simulation")
    _add_model_args(placement_parser)
    placement_parser.set_defaults(handler=cmd_placement)

    compare_parser = commands.add_parser(
        "compare", help="diff two workloads' operation profiles")
    _add_model_args(compare_parser)
    compare_parser.add_argument("other", help="second workload name")
    compare_parser.add_argument("--device", type=_parse_device,
                                default="cpu1")
    compare_parser.set_defaults(handler=cmd_compare)

    whatif_parser = commands.add_parser(
        "whatif", help="end-to-end speedup from a hypothetical accelerator")
    _add_model_args(whatif_parser)
    whatif_parser.add_argument("--preset", default="conv+gemm",
                               choices=["conv-engine", "gemm-engine",
                                        "conv+gemm"])
    whatif_parser.add_argument("--factors", type=float, nargs="+",
                               default=[10.0, 100.0])
    whatif_parser.set_defaults(handler=cmd_whatif)

    compile_parser = commands.add_parser(
        "compile", help="compile an execution plan and report the passes")
    _add_model_args(compile_parser)
    compile_parser.add_argument("--mode", default="train",
                                choices=["train", "infer"])
    compile_parser.add_argument("--report", action="store_true",
                                help="pass-by-pass report (op counts, "
                                     "planned peak, arena reuse)")
    compile_parser.set_defaults(handler=cmd_compile)

    memory_parser = commands.add_parser(
        "memory", help="static memory plan (no execution)")
    _add_model_args(memory_parser)
    memory_parser.set_defaults(handler=cmd_memory)

    trace_parser = commands.add_parser(
        "trace", help="save an op-level trace as JSONL for offline use")
    _add_model_args(trace_parser)
    trace_parser.add_argument("--mode", default="train",
                              choices=["train", "infer"])
    trace_parser.add_argument("--output", "-o", default="trace.jsonl")
    trace_parser.set_defaults(handler=cmd_trace)

    census_parser = commands.add_parser(
        "census", help="static graph structure (ops, FLOPs, depth)")
    _add_model_args(census_parser)
    census_parser.set_defaults(handler=cmd_census)

    roofline_parser = commands.add_parser(
        "roofline", help="compute/memory/overhead-bound time split")
    _add_model_args(roofline_parser)
    roofline_parser.add_argument("--device", type=_parse_device,
                                 default=None, help="gpu | cpuN")
    roofline_parser.set_defaults(handler=cmd_roofline)

    phases_parser = commands.add_parser(
        "phases", help="forward/loss/backward/optimizer time split")
    _add_model_args(phases_parser)
    phases_parser.set_defaults(handler=cmd_phases)

    report_parser = commands.add_parser(
        "report", help="full characterization report (markdown)")
    report_parser.add_argument("--config", default="default")
    report_parser.add_argument("--steps", type=int, default=2)
    report_parser.add_argument("--output", "-o")
    report_parser.set_defaults(handler=cmd_report)

    commands.add_parser("tables", help="print Tables I and II") \
        .set_defaults(handler=cmd_tables)

    figures_parser = commands.add_parser(
        "figures", help="print the Fig. 2/3 characterization")
    figures_parser.add_argument("--config", default="default")
    figures_parser.add_argument("--steps", type=int, default=2)
    figures_parser.set_defaults(handler=cmd_figures)

    graph_parser = commands.add_parser("graph",
                                       help="dataflow graph statistics")
    _add_model_args(graph_parser)
    graph_parser.add_argument("--dot", help="write Graphviz DOT here")
    graph_parser.add_argument("--max-ops", type=int, default=500)
    graph_parser.add_argument("--top", type=int, default=10)
    graph_parser.set_defaults(handler=cmd_graph)

    timeline_parser = commands.add_parser(
        "timeline", help="write a Chrome-trace execution timeline")
    _add_model_args(timeline_parser)
    timeline_parser.add_argument("--mode", default="train",
                                 choices=["train", "infer"])
    timeline_parser.add_argument("--output", "-o", default="timeline.json")
    timeline_parser.set_defaults(handler=cmd_timeline)

    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    from repro.framework.errors import FrameworkError
    try:
        return args.handler(args)
    except FrameworkError as exc:
        # One line, no traceback: framework errors are user-diagnosable
        # (bad checkpoint, failed op, invalid feed), not CLI bugs.
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
