"""gateracer benchmark: environment steps per second through the training,
evaluation and race loops, with output checks and an optional per-layer
trace.

    python3 perfbench/run.py --workload train-mini3 --seed 1 --seconds 30 --trace 0

Runs trials of the workload until `--seconds` have passed and prints a
report, then one JSON line: the end-to-end metrics with `--trace 0`, the
per-layer metrics with `--trace 1`. Full results (machine facts, output
digests, per-trial numbers) go to `.perfbench/<workload>-seed<n>-trace<t>/`
under the repository root. See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import importlib
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORKLOAD_NAMES = ("train-mini3", "eval-default10", "train-churn10")
MIN_TRIALS = 2
IMPORT_REPS = 5
IMPORTED = ("numpy", "gateracer.training", "gateracer.evaluation",
            "gateracer.checkpoint", "gateracer.telemetry")
# run in a fresh interpreter: the import time a user pays once per process
IMPORT_PROBE = ("import importlib, sys, time\n"
                "sys.path.insert(0, sys.argv[1])\n"
                "t0 = time.perf_counter()\n"
                "for m in sys.argv[2:]:\n"
                "    importlib.import_module(m)\n"
                "print(time.perf_counter() - t0)\n")
# layers whose inclusive share of wall time is reported besides self time
INCLUSIVE_LAYERS = ("training.Trainer.train", "training.Trainer.collect_rollout",
                    "ppo.ppo_update", "evaluation.evaluate", "evaluation.race",
                    "env.step", "checkpoint.save_checkpoint")


def end_to_end_spec() -> list[dict]:
    return [
        {"name": "env_sps", "unit": "1/s", "better": "higher", "bound": 0.25},
        {"name": "setup_s", "unit": "s", "better": "lower", "bound": 0.25},
        {"name": "peak_rss_mb", "unit": "MiB", "better": "lower", "bound": 0.15},
        {"name": "completed_frac", "unit": "ratio", "better": "higher",
         "bound": 0.01},
    ]


def per_layer_spec() -> list[dict]:
    from trace_layers import LAYER_NAMES

    spec = []
    for layer in LAYER_NAMES:
        spec += [
            {"name": f"{layer}.calls", "unit": "count", "better": "lower"},
            {"name": f"{layer}.self_pct", "unit": "%", "better": "lower"},
            {"name": f"{layer}.calls_per_s", "unit": "1/s", "better": "higher"},
        ]
    spec += [{"name": f"{layer}.total_pct", "unit": "%", "better": "lower"}
             for layer in INCLUSIVE_LAYERS]
    spec += [
        {"name": "networks.forward_batch.gflops", "unit": "GFLOP/s",
         "better": "higher"},
        {"name": "networks.backward_batch.gflops", "unit": "GFLOP/s",
         "better": "higher"},
        {"name": "geometry.segment_gate_crossing.hits", "unit": "count",
         "better": "higher"},
        {"name": "geometry.segment_frame_collision.hits", "unit": "count",
         "better": "lower"},
        {"name": "env.gate_trigger_hit_ratio", "unit": "ratio",
         "better": "higher"},
        {"name": "checkpoint.save_checkpoint.bytes", "unit": "B",
         "better": "lower"},
        {"name": "metrics.MetricsLogger.write.bytes", "unit": "B",
         "better": "lower"},
        {"name": "telemetry.MetricsServer.publish.delivered", "unit": "count",
         "better": "higher"},
        {"name": "telemetry.MetricsServer.publish.dropped", "unit": "count",
         "better": "lower"},
        {"name": "uncovered_pct", "unit": "%", "better": "lower"},
        {"name": "env_sps_traced", "unit": "1/s", "better": "higher"},
        {"name": "env_sps_untraced", "unit": "1/s", "better": "higher"},
        {"name": "tracing_overhead_pct", "unit": "%", "better": "lower"},
    ]
    return spec


def machine_facts() -> dict:
    import numpy
    from gateracer import kernels

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas = "unknown"
    src_lines = sum(len(p.read_text(encoding="utf-8").splitlines())
                    for p in sorted(SRC.rglob("*.py")))
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": blas,
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
        "OMP_NUM_THREADS": os.environ.get("OMP_NUM_THREADS"),
        "numba_enabled": kernels.NUMBA_ENABLED,
        "src_lines": src_lines,
        "machine": platform.machine(),
    }


def import_seconds() -> list[float]:
    """Import time of numpy and the package, measured in IMPORT_REPS fresh
    interpreters one after another."""
    import subprocess

    samples = []
    for _ in range(IMPORT_REPS):
        proc = subprocess.run([sys.executable, "-c", IMPORT_PROBE, str(SRC),
                               *IMPORTED], capture_output=True, text=True,
                              check=True, timeout=60)
        samples.append(float(proc.stdout))
    return samples


def _quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def run_trials(workload, seconds: float, tracer, workdir: Path):
    """Trials until `seconds` have passed (at least MIN_TRIALS). With a
    tracer, every second trial is traced."""
    import checks

    trials, tally = [], checks.Tally()
    begin = time.perf_counter()
    while True:
        i = len(trials)
        trial_dir = workdir / f"trial{i}"
        trial_dir.mkdir()
        if tracer is not None and i % 2 == 1:
            with tracer:
                trial = workload.run(str(trial_dir))
            trial.traced = True
        else:
            trial = workload.run(str(trial_dir))
        tally.merge(workload.check(trial))
        if trial.error:
            tally.problems.append(f"trial {i} raised: {trial.error}")
        if trials:
            tally.merge(checks.check_same_outputs(trials[0].outputs,
                                                  trial.outputs))
            shutil.rmtree(trials[-1].trial_dir)
        trials.append(trial)
        elapsed = time.perf_counter() - begin
        if (len(trials) >= MIN_TRIALS
                and elapsed + 0.5 * elapsed / len(trials) >= seconds):
            return trials, tally


def layer_metrics(tracer, traced: list) -> dict:
    from trace_layers import LAYER_NAMES

    t = tracer.totals()
    wall = sum(tr.setup_s + tr.run_s for tr in traced)
    steps = sum(tr.steps for tr in traced)
    n = len(traced)
    out = {}
    for i, layer in enumerate(LAYER_NAMES):
        calls = int(t["calls"][i])
        out[f"{layer}.calls"] = calls / n
        out[f"{layer}.self_pct"] = 100.0 * t["self_s"][i] / wall
        out[f"{layer}.calls_per_s"] = (calls / t["total_s"][i]
                                       if calls else 0.0)
        if layer in INCLUSIVE_LAYERS:
            out[f"{layer}.total_pct"] = 100.0 * t["total_s"][i] / wall
    idx = {name: i for i, name in enumerate(LAYER_NAMES)}
    for layer in ("networks.forward_batch", "networks.backward_batch"):
        secs = t["total_s"][idx[layer]]
        out[f"{layer}.gflops"] = (tracer.flops[idx[layer]] / secs / 1e9
                                  if secs else 0.0)
    gate = idx["geometry.segment_gate_crossing"]
    frame = idx["geometry.segment_frame_collision"]
    out["geometry.segment_gate_crossing.hits"] = tracer.hits[gate] / n
    out["geometry.segment_frame_collision.hits"] = tracer.hits[frame] / n
    out["env.gate_trigger_hit_ratio"] = (tracer.hits[gate] / t["calls"][gate]
                                         if t["calls"][gate] else 0.0)
    save = idx["checkpoint.save_checkpoint"]
    write = idx["metrics.MetricsLogger.write"]
    out["checkpoint.save_checkpoint.bytes"] = tracer.bytes[save] / n
    out["metrics.MetricsLogger.write.bytes"] = tracer.bytes[write] / n
    publish = idx["telemetry.MetricsServer.publish"]
    delivered = sum(tr.delivered for tr in traced)
    out["telemetry.MetricsServer.publish.delivered"] = delivered / n
    out["telemetry.MetricsServer.publish.dropped"] = (
        (int(t["calls"][publish]) - delivered) / n)
    out["uncovered_pct"] = 100.0 * (wall - t["root_s"]) / wall
    out["env_sps_traced"] = steps / sum(tr.run_s for tr in traced)
    return out


def layer_table(tracer) -> dict:
    """Calls, inclusive and self seconds and inclusive microseconds per call
    of every layer, summed over the traced trials."""
    from trace_layers import LAYER_NAMES

    t = tracer.totals()
    return {layer: {"calls": int(t["calls"][i]),
                    "total_s": float(t["total_s"][i]),
                    "self_s": float(t["self_s"][i]),
                    "us_per_call": (1e6 * float(t["total_s"][i]) / t["calls"][i]
                                    if t["calls"][i] else None)}
            for i, layer in enumerate(LAYER_NAMES)}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "gateracer" / "__init__.py").is_file():
        print(f"error: package sources not found under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    for module in IMPORTED:
        importlib.import_module(module)
    import gateracer
    if Path(gateracer.__file__).resolve().parent != SRC / "gateracer":
        print(f"error: imported gateracer from {gateracer.__file__}, "
              f"not from {SRC}", file=sys.stderr)
        return 2

    from trace_layers import Tracer
    from workloads import WORKLOADS

    workdir = ROOT / ".perfbench" / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    tracer = Tracer() if args.trace else None
    imports = import_seconds()
    workload = WORKLOADS[args.workload](args.seed, str(workdir))
    try:
        trials, tally = run_trials(workload, args.seconds, tracer, workdir)
    finally:
        workload.close()

    plain = [tr for tr in trials if not tr.traced]
    sps = [tr.steps / tr.run_s for tr in plain]
    setups = [tr.setup_s for tr in plain]
    facts = machine_facts()
    result = {
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "seconds": args.seconds, "trials": len(trials),
        "import_s_samples": imports,
        "setup_once_s": workload.setup_once_s,
        "env_sps_quartiles": _quartiles(sps),
        "trial_env_sps": sps,
        "setup_s_samples": setups,
        "steps_per_trial": [tr.steps for tr in trials],
        "outputs": trials[0].outputs,
        "attempted": tally.attempted, "failed": tally.failed,
        "problems": tally.problems,
        "facts": facts,
    }
    metrics = {
        "env_sps": statistics.median(sps),
        "setup_s": (statistics.median(imports) + workload.setup_once_s
                    + statistics.median(setups)),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "completed_frac": 1.0 - tally.failed / max(tally.attempted, 1),
    }
    spec = end_to_end_spec()
    if tracer is not None:
        traced = [tr for tr in trials if tr.traced]
        metrics = layer_metrics(tracer, traced)
        metrics["env_sps_untraced"] = statistics.median(sps)
        metrics["tracing_overhead_pct"] = 100.0 * (
            1.0 - metrics["env_sps_traced"] / metrics["env_sps_untraced"])
        tracer.save_spans(workdir / "spans.npz")
        spec = per_layer_spec()
        result["layers"] = layer_table(tracer)
    result["metrics"] = metrics
    with open(workdir / "result.json", "w", encoding="utf-8") as fh:
        json.dump(result, fh, indent=1, default=float)

    failed_frac = tally.failed / max(tally.attempted, 1)
    print(f"workload {args.workload}  seed {args.seed}  trials {len(trials)}"
          f"  trace {args.trace}")
    print("facts " + json.dumps(facts))
    print("outputs " + json.dumps(trials[0].outputs, default=float))
    print(f"failed_frac {failed_frac:.6g} ({tally.failed} of {tally.attempted}"
          " operations)")
    for problem in tally.problems:
        print(f"problem {problem}")
    for layer, row in result.get("layers", {}).items():
        if row["calls"]:
            print(f"layer {layer:40s} calls {row['calls']:9d} total_s "
                  f"{row['total_s']:10.4f} self_s {row['self_s']:10.4f} "
                  f"us_per_call {row['us_per_call']:12.2f}")
    units = {m["name"]: m["unit"] for m in spec}
    for name, value in metrics.items():
        print(f"{name:48s} {value:14.6g} {units[name]}")
    print(json.dumps({
        "correct": tally.failed == 0 and not tally.problems,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": float(value), "unit": units[name]}
                    for name, value in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
