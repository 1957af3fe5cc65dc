"""Tests for the command-line interface."""

import json

import pytest

from repro.cli import main


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out


class TestList:
    def test_lists_all_workloads(self, capsys):
        code, out = run_cli(capsys, "list")
        assert code == 0
        for name in ("seq2seq", "memnet", "speech", "autoenc", "residual",
                     "vgg", "alexnet", "deepq"):
            assert name in out


class TestRun:
    def test_training(self, capsys):
        code, out = run_cli(capsys, "run", "memnet", "--config", "tiny",
                            "--steps", "2")
        assert code == 0
        assert out.count("loss") == 2

    def test_inference(self, capsys):
        code, out = run_cli(capsys, "run", "autoenc", "--config", "tiny",
                            "--mode", "infer", "--steps", "1")
        assert code == 0
        assert "inference output shape" in out


class TestProfile:
    def test_top_types(self, capsys):
        code, out = run_cli(capsys, "profile", "memnet", "--config", "tiny",
                            "--steps", "1")
        assert code == 0
        assert "seconds per step" in out
        assert "90%" in out

    def test_class_breakdown(self, capsys):
        code, out = run_cli(capsys, "profile", "memnet", "--config", "tiny",
                            "--classes")
        assert code == 0
        assert "Elementwise Arithmetic" in out

    def test_measured_device(self, capsys):
        code, out = run_cli(capsys, "profile", "memnet", "--config", "tiny",
                            "--device", "measured")
        assert code == 0
        assert "(measured)" in out

    def test_gpu_device(self, capsys):
        code, out = run_cli(capsys, "profile", "memnet", "--config", "tiny",
                            "--device", "gpu")
        assert code == 0

    def test_bad_device_rejected(self, capsys):
        with pytest.raises(SystemExit):
            main(["profile", "memnet", "--device", "tpu"])


class TestSweep:
    def test_thread_sweep(self, capsys):
        code, out = run_cli(capsys, "sweep", "memnet", "--config", "tiny",
                            "--threads", "1", "4")
        assert code == 0
        assert "overall speedup at 4 threads" in out


class TestTables:
    def test_both_tables(self, capsys):
        code, out = run_cli(capsys, "tables")
        assert code == 0
        assert "Table I" in out
        assert "Table II" in out


class TestGraph:
    def test_stats(self, capsys):
        code, out = run_cli(capsys, "graph", "memnet", "--config", "tiny")
        assert code == 0
        assert "critical path" in out
        assert "BatchMatMul" in out

    def test_dot_output(self, capsys, tmp_path):
        dot_path = tmp_path / "graph.dot"
        code, out = run_cli(capsys, "graph", "memnet", "--config", "tiny",
                            "--dot", str(dot_path))
        assert code == 0
        assert dot_path.read_text().startswith("digraph")


class TestTimeline:
    def test_writes_chrome_trace(self, capsys, tmp_path):
        trace_path = tmp_path / "trace.json"
        code, out = run_cli(capsys, "timeline", "memnet", "--config",
                            "tiny", "--steps", "2", "-o", str(trace_path))
        assert code == 0
        blob = json.loads(trace_path.read_text())
        assert blob["traceEvents"]


class TestEvaluate:
    def test_metrics_printed(self, capsys):
        code, out = run_cli(capsys, "evaluate", "memnet", "--config",
                            "tiny", "--batches", "2")
        assert code == 0
        assert "accuracy" in out

    def test_train_then_evaluate(self, capsys):
        code, out = run_cli(capsys, "evaluate", "autoenc", "--config",
                            "tiny", "--train-steps", "3", "--batches", "1")
        assert code == 0
        assert "negative_elbo" in out


class TestPlacement:
    def test_fallback_table(self, capsys):
        code, out = run_cli(capsys, "placement", "memnet", "--config",
                            "tiny")
        assert code == 0
        assert "fallback" in out
        assert "sync cost" in out


class TestCompare:
    def test_diff_two_workloads(self, capsys):
        code, out = run_cli(capsys, "compare", "memnet", "autoenc",
                            "--config", "tiny", "--steps", "1")
        assert code == 0
        assert "memnet -> autoenc" in out
        assert "cosine distance" in out


class TestTrace:
    def test_writes_loadable_trace(self, capsys, tmp_path):
        from repro.profiling.serialize import load_trace
        path = tmp_path / "t.jsonl"
        code, out = run_cli(capsys, "trace", "memnet", "--config", "tiny",
                            "--steps", "2", "-o", str(path))
        assert code == 0
        trace = load_trace(path)
        assert trace.num_steps == 2
        assert trace.metadata["workload"] == "memnet"


class TestAnalysisCommands:
    def test_census(self, capsys):
        code, out = run_cli(capsys, "census", "memnet", "--config", "tiny")
        assert code == 0
        assert "GFLOPs" in out

    def test_roofline(self, capsys):
        code, out = run_cli(capsys, "roofline", "memnet", "--config",
                            "tiny", "--steps", "1")
        assert code == 0
        assert "overhead" in out

    def test_roofline_gpu(self, capsys):
        code, out = run_cli(capsys, "roofline", "memnet", "--config",
                            "tiny", "--steps", "1", "--device", "gpu")
        assert code == 0
        assert "gpu" in out

    def test_phases(self, capsys):
        code, out = run_cli(capsys, "phases", "memnet", "--config", "tiny",
                            "--steps", "1")
        assert code == 0
        assert "bwd/fwd" in out


class TestWhatIfAndMemory:
    def test_whatif(self, capsys):
        code, out = run_cli(capsys, "whatif", "memnet", "--config", "tiny",
                            "--steps", "1", "--preset", "gemm-engine")
        assert code == 0
        assert "ceiling" in out

    def test_memory_plan(self, capsys):
        code, out = run_cli(capsys, "memory", "memnet", "--config", "tiny")
        assert code == 0
        assert "training step peak" in out


class TestRobustnessFlags:
    def test_max_retries_enables_resilient_training(self, capsys):
        code, out = run_cli(capsys, "run", "memnet", "--config", "tiny",
                            "--steps", "2", "--max-retries", "1")
        assert code == 0
        assert out.count("loss") == 2

    def test_checkpoint_flag_writes_atomic_checkpoint(self, capsys,
                                                      tmp_path):
        path = tmp_path / "ck.npz"
        code, _ = run_cli(capsys, "run", "memnet", "--config", "tiny",
                          "--steps", "2", "--checkpoint", str(path),
                          "--checkpoint-every", "1")
        assert code == 0
        assert path.exists()

    def test_resume_restores_training_state(self, capsys, tmp_path):
        path = tmp_path / "ck.npz"
        run_cli(capsys, "run", "memnet", "--config", "tiny", "--steps",
                "2", "--checkpoint", str(path), "--checkpoint-every", "1")
        code, out = run_cli(capsys, "run", "memnet", "--config", "tiny",
                            "--steps", "1", "--resume", str(path))
        assert code == 0
        assert "loss" in out

    def test_resume_works_for_inference(self, capsys, tmp_path):
        path = tmp_path / "ck.npz"
        run_cli(capsys, "run", "autoenc", "--config", "tiny", "--steps",
                "1", "--checkpoint", str(path), "--checkpoint-every", "1")
        code, out = run_cli(capsys, "run", "autoenc", "--config", "tiny",
                            "--mode", "infer", "--steps", "1",
                            "--resume", str(path))
        assert code == 0
        assert "inference output shape" in out


class TestDurableCheckpointFlags:
    def test_replicated_checkpoint_run_and_resume(self, capsys,
                                                  tmp_path):
        archive = tmp_path / "archive"
        code, _ = run_cli(capsys, "run", "memnet", "--config", "tiny",
                          "--steps", "2", "--checkpoint", str(archive),
                          "--checkpoint-replicas", "3",
                          "--checkpoint-every", "1")
        assert code == 0
        assert sorted(p.name for p in archive.iterdir()) \
            == ["replica-0", "replica-1", "replica-2"]
        code = main(["run", "memnet", "--config", "tiny", "--steps",
                     "1", "--checkpoint", str(archive),
                     "--checkpoint-replicas", "3",
                     "--resume", "latest"])
        captured = capsys.readouterr()
        assert code == 0
        assert "restored checkpoint" in captured.err
        assert "replicated store" in captured.err

    def test_train_with_replicas_writes_replicated_manifest(
            self, capsys, tmp_path):
        code, _ = run_cli(capsys, "train", "memnet", "--config", "tiny",
                          "--steps", "2", "--workers", "2",
                          "--checkpoint-dir", str(tmp_path),
                          "--checkpoint-every", "1",
                          "--checkpoint-replicas", "3",
                          "--scrub-interval", "0.001")
        assert code == 0
        manifest = json.loads(
            (tmp_path / "cluster-manifest.json").read_text())
        storage = manifest["storage"]
        assert storage["replicas"] == 3
        assert (tmp_path / "replica-0").is_dir()

    def test_unwritable_checkpoint_path_fails_fast(self, capsys,
                                                   tmp_path):
        """Satellite contract: a doomed --checkpoint location is a
        one-line friendly error before step 0, not a stack trace at the
        first checkpoint."""
        blocker = tmp_path / "blocker"
        blocker.write_text("a file where a directory must go")
        code = main(["run", "memnet", "--config", "tiny", "--steps",
                     "2", "--checkpoint", str(blocker / "sub" / "ck.npz"),
                     "--checkpoint-every", "1"])
        captured = capsys.readouterr()
        assert code == 2
        errors = [line for line in captured.err.splitlines()
                  if line.startswith("error:")]
        assert len(errors) == 1
        assert "--checkpoint path" in errors[0]
        assert "is not writable" in errors[0]
        assert "loss" not in captured.out  # no training step ran

    def test_unwritable_checkpoint_dir_fails_fast_for_train(
            self, capsys, tmp_path):
        blocker = tmp_path / "blocker"
        blocker.write_text("a file where a directory must go")
        code = main(["train", "memnet", "--config", "tiny", "--steps",
                     "2", "--workers", "2",
                     "--checkpoint-dir", str(blocker / "ckpts")])
        captured = capsys.readouterr()
        assert code == 2
        assert "--checkpoint-dir path" in captured.err
        assert "is not writable" in captured.err
        assert "loss" not in captured.out


class TestErrorHandling:
    def test_framework_error_exits_one_with_one_line_message(
            self, capsys, tmp_path):
        code = main(["run", "memnet", "--config", "tiny", "--steps", "1",
                     "--resume", str(tmp_path / "missing.npz")])
        captured = capsys.readouterr()
        assert code == 1
        errors = [line for line in captured.err.splitlines()
                  if line.startswith("error:")]
        assert len(errors) == 1
        assert "checkpoint" in errors[0]

    def test_corrupt_checkpoint_reported_not_raised(self, capsys,
                                                    tmp_path):
        path = tmp_path / "corrupt.npz"
        path.write_bytes(b"this is not an npz archive")
        code = main(["run", "memnet", "--config", "tiny", "--steps", "1",
                     "--resume", str(path)])
        captured = capsys.readouterr()
        assert code == 1
        assert "error:" in captured.err


class TestParsing:
    def test_unknown_command_rejected(self, capsys):
        with pytest.raises(SystemExit):
            main(["explode"])
        with pytest.raises(SystemExit) as exited:
            main(["run", "memnet", "--config", "tiny", "--backend",
                  "codegen"])
        assert exited.value.code == 2
        assert "unrecognized arguments: --backend codegen" in \
            capsys.readouterr().err

    def test_unknown_workload_errors(self, capsys):
        with pytest.raises(KeyError):
            main(["run", "gpt4", "--config", "tiny"])

    @pytest.mark.parametrize("argv, known", [
        (["train", "memnet", "--config", "tiny", "--steps", "1",
          "--workers", "2", "--cluster-faults", "tyop"], "straggler"),
        (["serve", "memnet", "--config", "tiny", "--fault", "tyop",
          "--virtual-clock"], "poison"),
        (["fleet", "memnet", "--config", "tiny", "--fault", "tyop",
          "--virtual-clock"], "blackhole"),
    ], ids=["train", "serve", "fleet"])
    def test_unknown_fault_preset_is_friendly(self, capsys, argv,
                                              known):
        """All three fault-arming CLIs reject a typo'd preset the same
        way: exit 2, a one-line error, and the available presets —
        never an argparse usage dump or a traceback."""
        code = main(argv)
        err = capsys.readouterr().err
        assert code == 2
        assert "unknown fault preset 'tyop'" in err
        assert f"'repro {argv[0]}'" in err
        assert known in err


class TestCompile:
    def test_one_line_summary(self, capsys):
        code, out = run_cli(capsys, "compile", "memnet", "--config", "tiny")
        assert code == 0
        assert "ops ->" in out and "planned peak" in out

    def test_pass_report(self, capsys):
        code, out = run_cli(capsys, "compile", "seq2seq", "--config",
                            "tiny", "--mode", "infer", "--report")
        assert code == 0
        for pass_name in ("prune", "fold", "cse", "fuse", "schedule"):
            assert pass_name in out
        assert "LSTM cells fused" in out

    def test_summary_reports_arena_hit_rate(self, capsys):
        code, out = run_cli(capsys, "compile", "alexnet", "--config",
                            "tiny")
        assert code == 0
        assert "arena hit rate" in out


class TestTrain:
    def test_distributed_training(self, capsys):
        code, out = run_cli(capsys, "train", "memnet", "--config", "tiny",
                            "--steps", "2", "--workers", "2")
        assert code == 0
        assert out.count("loss") == 2

    def test_verify_identity_passes(self, capsys):
        code, _ = run_cli(capsys, "train", "memnet", "--config", "tiny",
                          "--steps", "2", "--workers", "2",
                          "--strategy", "allreduce", "--verify-identity")
        assert code == 0

    def test_fault_preset_with_artifacts(self, capsys, tmp_path):
        report_path = tmp_path / "cluster.json"
        trace_path = tmp_path / "cluster.jsonl"
        code, _ = run_cli(capsys, "train", "memnet", "--config", "tiny",
                          "--steps", "3", "--workers", "2",
                          "--cluster-faults", "crash",
                          "--verify-identity",
                          "--report-json", str(report_path),
                          "--trace", str(trace_path))
        assert code == 0
        report = json.loads(report_path.read_text())
        assert report["workload"] == "memnet"
        kinds = {e["kind"] for e in report["events"]}
        assert {"crash", "restart", "recover"} <= kinds
        from repro.profiling.serialize import load_trace
        loaded = load_trace(trace_path)
        assert loaded.cluster_events("crash")


class TestServe:
    def test_closed_loop_report(self, capsys):
        code, out = run_cli(capsys, "serve", "memnet", "--config", "tiny",
                            "--requests", "8", "--virtual-clock")
        assert code == 0
        assert "serving report: memnet" in out
        assert "attainment" in out

    def test_fault_preset_with_artifacts(self, capsys, tmp_path):
        report_path = tmp_path / "report.json"
        trace_path = tmp_path / "serve.jsonl"
        code, out = run_cli(capsys, "serve", "memnet", "--config", "tiny",
                            "--requests", "16", "--qps", "400",
                            "--fault", "crash", "--virtual-clock",
                            "--report-json", str(report_path),
                            "--trace", str(trace_path))
        assert code == 0
        report = json.loads(report_path.read_text())
        assert report["workload"] == "memnet"
        assert report["requests"] == 16
        assert report["ok"] + report["shed"] + report["deadline"] \
            + report["error"] == 16
        assert report["restarts"] == 1
        from repro.profiling.serialize import load_trace
        loaded = load_trace(trace_path)
        assert loaded.serving_events()

    def test_list_presets(self, capsys):
        code, out = run_cli(capsys, "serve", "--list-presets")
        assert code == 0
        for name in ("crash", "slow", "poison", "storm"):
            assert name in out

    def test_unknown_preset_lists_alternatives(self, capsys):
        code = main(["serve", "memnet", "--config", "tiny",
                     "--fault", "tyop", "--virtual-clock"])
        err = capsys.readouterr().err
        assert code == 2
        assert "unknown fault preset 'tyop'" in err
        assert "crash" in err


class TestFleet:
    def test_closed_loop_report(self, capsys):
        code, out = run_cli(capsys, "fleet", "memnet", "--config", "tiny",
                            "--requests", "24", "--qps", "300",
                            "--virtual-clock")
        assert code == 0
        assert "fleet report: memnet" in out
        assert "attainment" in out
        assert "zones" in out

    def test_storm_preset_with_artifacts(self, capsys, tmp_path):
        report_path = tmp_path / "fleet.json"
        trace_path = tmp_path / "fleet.jsonl"
        code, out = run_cli(capsys, "fleet", "memnet", "--config", "tiny",
                            "--fault", "storm", "--virtual-clock",
                            "--report-json", str(report_path),
                            "--trace", str(trace_path))
        assert code == 0
        report = json.loads(report_path.read_text())
        assert report["workload"] == "memnet"
        assert report["zone_outages"] == 1
        assert report["server_crashes"] == 2
        assert report["rollbacks"] == 1
        assert report["ok"] + report["shed"] + report["deadline"] \
            + report["error"] == report["requests"]
        from repro.profiling.serialize import load_trace
        loaded = load_trace(trace_path)
        kinds = {e.kind for e in loaded.fleet_events()}
        assert "zone_down" in kinds and "rollback" in kinds

    def test_tenant_spec_parsing(self, capsys):
        code, out = run_cli(capsys, "fleet", "memnet", "--config", "tiny",
                            "--requests", "12", "--virtual-clock",
                            "--tenants", "gold:8:50,std:32")
        assert code == 0
        assert "gold" in out and "std" in out

    def test_list_presets(self, capsys):
        code, out = run_cli(capsys, "fleet", "--list-presets")
        assert code == 0
        for name in ("outage", "crash", "blackhole", "badrollout",
                     "storm"):
            assert name in out

    def test_unknown_preset_lists_alternatives(self, capsys):
        code = main(["fleet", "memnet", "--config", "tiny",
                     "--fault", "hurricane", "--virtual-clock"])
        err = capsys.readouterr().err
        assert code == 2
        assert "unknown fault preset 'hurricane'" in err
        assert "storm" in err
