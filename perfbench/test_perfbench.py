"""Tests of the benchmark itself, at tiny sizes.

    python -m pytest perfbench
"""

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import run

sys.path.insert(0, str(run.SRC))

import checks  # noqa: E402
import trace_layers  # noqa: E402
import workloads  # noqa: E402
from gateracer import networks, ppo, training  # noqa: E402

TINY = {
    "train-mini3": {"updates": 1},
    "eval-default10": {"deterministic": 1, "stochastic": 2, "races": 1},
    "train-churn10": {"half_updates": 1},
}

ROLLOUT = ["training.Trainer.collect_rollout", "networks.forward",
           "networks.sample_action", "env.step", "env.observe",
           "env.detect_events", "env.reset", "dynamics.step",
           "dynamics.read_imu", "dynamics.read_gps", "opponent.advance",
           "opponent.plan", "rewards.compute_step",
           "normalization.normalize_observation",
           "normalization.RewardScaler.scale", "ppo.RolloutBuffer.add",
           "config.resolve_track"]
UPDATE = ["training.Trainer.train", "networks.forward_batch",
          "networks.backward_batch", "networks.Adam.step",
          "networks.clip_grads_global", "ppo.ppo_update", "ppo.compute_gae",
          "checkpoint.save_checkpoint", "metrics.MetricsLogger.write"]
DESIGNED = {
    "train-mini3": ROLLOUT + UPDATE,
    "eval-default10": ["evaluation.evaluate", "evaluation.race",
                       "networks.forward", "networks.sample_action",
                       "env.step", "env.observe", "env.detect_events",
                       "env.reset", "dynamics.step", "dynamics.read_imu",
                       "dynamics.read_gps", "opponent.advance", "opponent.plan",
                       "rewards.compute_step", "geometry.segment_gate_crossing",
                       "normalization.normalize_observation",
                       "checkpoint.load_checkpoint"],
    "train-churn10": ROLLOUT + UPDATE + ["checkpoint.load_checkpoint",
                                         "telemetry.MetricsServer.publish"],
}
NEVER = {
    "eval-default10": ["ppo.ppo_update", "checkpoint.save_checkpoint",
                       "telemetry.MetricsServer.publish"],
    "train-mini3": ["evaluation.evaluate", "telemetry.MetricsServer.publish"],
    "train-churn10": ["evaluation.evaluate"],
}


def _trials(name, tmp_path, tracer=None):
    workdir = tmp_path / name
    workdir.mkdir()
    workload = workloads.WORKLOADS[name](7, str(workdir), **TINY[name])
    try:
        return run.run_trials(workload, 0.0, tracer, workdir)
    finally:
        workload.close()


@pytest.mark.parametrize("name", run.WORKLOAD_NAMES)
def test_tiny_workload_passes_output_checks(name, tmp_path):
    trials, tally = _trials(name, tmp_path)
    assert len(trials) == run.MIN_TRIALS
    assert tally.failed == 0, tally.problems
    assert tally.attempted > 0
    assert all(tr.steps > 0 and tr.run_s > 0 for tr in trials)
    if name.startswith("train"):
        digest = trials[-1].outputs["metrics_sha256"]
        assert digest == trials[0].outputs["metrics_sha256"]


def test_truncated_metrics_log_is_flagged(tmp_path):
    trials, _ = _trials("train-mini3", tmp_path)
    path = Path(trials[-1].trial_dir) / "metrics.jsonl"
    data = path.read_bytes()
    path.write_bytes(data[:-40])
    tally, _ = checks.check_training_run(trials[-1].trial_dir, 1, 2048)
    assert tally.failed > 0


def test_dropped_telemetry_lines_are_flagged(tmp_path):
    trials, _ = _trials("train-churn10", tmp_path)
    run_dir = trials[-1].trial_dir
    lines = (Path(run_dir) / "metrics.jsonl").read_text().splitlines()
    tally, _ = checks.check_training_run(run_dir, 2, 256, received=lines)
    assert tally.failed == 0, tally.problems
    for dropped in (lines[1:], lines[:-1], lines[:3] + lines[4:]):
        tally, _ = checks.check_training_run(run_dir, 2, 256, received=dropped)
        assert tally.failed > 0
        assert tally.failed / tally.attempted > 0


def test_differing_trial_outputs_are_flagged():
    assert checks.check_same_outputs({"a": 1}, {"a": 1}).failed == 0
    assert checks.check_same_outputs({"a": 1}, {"a": 2}).failed == 1


@pytest.mark.parametrize("name", run.WORKLOAD_NAMES)
def test_traced_run_hits_designed_layers(name, tmp_path):
    originals = (training.forward, ppo.forward_batch, networks.Adam.step,
                 training.Trainer.collect_rollout)
    tracer = trace_layers.Tracer()
    trials, tally = _trials(name, tmp_path, tracer)
    assert tally.failed == 0, tally.problems
    assert [tr.traced for tr in trials] == [False, True]
    assert (training.forward, ppo.forward_batch, networks.Adam.step,
            training.Trainer.collect_rollout) == originals

    totals = tracer.totals()
    calls = dict(zip(trace_layers.LAYER_NAMES, totals["calls"]))
    missing = [layer for layer in DESIGNED[name] if not calls[layer]]
    assert not missing
    assert all(calls[layer] == 0 for layer in NEVER[name])
    # self times partition the root spans exactly
    assert totals["self_s"].sum() == pytest.approx(totals["root_s"], rel=1e-9)

    metrics = run.layer_metrics(tracer, [tr for tr in trials if tr.traced])
    assert set(metrics) | {"env_sps_untraced", "tracing_overhead_pct"} == {
        m["name"] for m in run.per_layer_spec()}
    if name == "train-churn10":
        assert metrics["telemetry.MetricsServer.publish.dropped"] == 0
        assert metrics["checkpoint.save_checkpoint.bytes"] > 0


def test_benchmark_json_matches_the_code():
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOAD_NAMES)
    assert spec["end_to_end"] == run.end_to_end_spec()
    assert spec["per_layer"] == run.per_layer_spec()


def test_refuses_to_run_without_the_package(tmp_path):
    shutil.copytree(run.ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "train-mini3",
         "--seed", "0", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
