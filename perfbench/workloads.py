"""The benchmark's workloads. Each drives the package only through
`Trainer`, `evaluate`, `race`, `MetricsServer` and `load_checkpoint`.

A workload's `run(trial_dir)` performs one trial: set-up (timed as set-up),
then the timed phase. `check(trial)` verifies the trial's outputs. Every
trial of one run uses the run's seed, so trials repeat the same work and
must give the same outputs.
"""

from __future__ import annotations

import os
import socket
import statistics
import threading
import time
import traceback
from contextlib import contextmanager
from dataclasses import dataclass, field

from gateracer import checkpoint, evaluation, telemetry
from gateracer.config import HarnessConfig, RunConfig, TrackSettings
from gateracer.env import RacingEnv
from gateracer.geometry import default_track, save_track
from gateracer.ppo import TrainConfig
from gateracer.training import Trainer

import checks

# the 3-gate acceptance track (criterion 6 of the test suite)
MINI_TRACK_SEED = 55
# the evaluated policy is an untrained one, built from this fixed seed
EVAL_POLICY_SEED = 0
TELEMETRY_HELLO = '{"event": "perfbench-hello"}'


@dataclass
class Trial:
    trial_dir: str
    setup_s: float = 0.0
    run_s: float = 0.0
    steps: int = 0
    delivered: int = 0  # telemetry lines the TCP client received
    traced: bool = False
    error: str | None = None
    outputs: dict = field(default_factory=dict)


def _failure(trial: Trial) -> None:
    trial.error = traceback.format_exc(limit=3)


@contextmanager
def _timer(trial: Trial, attr: str):
    """Adds the block's wall time to `trial.<attr>`, also when it raises."""
    t0 = time.perf_counter()
    try:
        yield
    finally:
        setattr(trial, attr, getattr(trial, attr) + time.perf_counter() - t0)


class Workload:
    """`setup_once_s` is set-up the program performs once per run, outside
    the trials (building the evaluated checkpoint; median of three)."""

    setup_once_s = 0.0

    def close(self) -> None:
        pass


class TrainMini3(Workload):
    """`Trainer.train()` from scratch with the default `TrainConfig` and
    checkpoint interval on the 3-gate acceptance track."""

    name = "train-mini3"

    def __init__(self, seed: int, workdir: str, updates: int = 5):
        self.seed = seed
        self.updates = updates
        self.rollout_steps = TrainConfig().rollout_steps
        self.track_file = os.path.join(workdir, "mini3-track.yaml")
        save_track(default_track(MINI_TRACK_SEED, n_gates=3, spacing=(10.0, 12.0),
                                 max_climb=0.5, time_per_gate=12.0),
                   self.track_file)

    def run(self, trial_dir: str) -> Trial:
        trial = Trial(trial_dir)
        with _timer(trial, "setup_s"):
            cfg = RunConfig(track=TrackSettings(file=self.track_file))
            cfg.train.total_steps = self.updates * self.rollout_steps
            trainer = Trainer(cfg, seed=self.seed, out_dir=trial_dir)
        try:
            with _timer(trial, "run_s"):
                trainer.train()
        except Exception:
            _failure(trial)
        trial.steps = trainer.global_step
        return trial

    def check(self, trial: Trial) -> checks.Tally:
        tally, trial.outputs = checks.check_training_run(
            trial.trial_dir, self.updates, self.rollout_steps)
        return tally


class EvalDefault10(Workload):
    """`evaluate` (deterministic, then stochastic episodes) and `race` on
    the default 10-gate track. The policy is an untrained one, written to a
    checkpoint once per run; each trial loads it."""

    name = "eval-default10"

    def __init__(self, seed: int, workdir: str, deterministic: int = 4,
                 stochastic: int = 16, races: int = 4):
        self.seed = seed
        self.episodes = (deterministic, stochastic, races)
        self.n_gates = TrackSettings().n_gates
        self.policy_path = os.path.join(workdir, "policy.bin")
        builds = []
        for _ in range(3):
            t0 = time.perf_counter()
            trainer = Trainer(RunConfig(), seed=EVAL_POLICY_SEED,
                              out_dir=os.path.join(workdir, "policy"))
            trainer.save(self.policy_path)
            trainer.metrics.close()
            builds.append(time.perf_counter() - t0)
        self.setup_once_s = statistics.median(builds)

    def run(self, trial_dir: str) -> Trial:
        trial = Trial(trial_dir)
        with _timer(trial, "setup_s"):
            state = checkpoint.load_checkpoint(self.policy_path)
        det, stoch, races = self.episodes
        step = RacingEnv.__dict__["step"]

        # evaluate() and race() report episodes, not steps, so count
        # env steps at the call the workload is made of
        def counted_step(env, action):
            trial.steps += 1
            return step(env, action)

        RacingEnv.step = counted_step
        try:
            with _timer(trial, "run_s"):
                trial.outputs = {
                    "deterministic": evaluation.evaluate(
                        state, det, deterministic=True, seed=self.seed),
                    "stochastic": evaluation.evaluate(
                        state, stoch, deterministic=False, seed=self.seed),
                    "race": evaluation.race(state, races, seed=self.seed),
                }
        except Exception:
            _failure(trial)
        finally:
            RacingEnv.step = step
        return trial

    def check(self, trial: Trial) -> checks.Tally:
        det, stoch, races = self.episodes
        out = trial.outputs
        tally = checks.Tally()
        tally.merge(checks.check_eval_summary(out.get("deterministic", {}),
                                              det, self.n_gates))
        tally.merge(checks.check_eval_summary(out.get("stochastic", {}),
                                              stoch, self.n_gates))
        tally.merge(checks.check_race_summary(out.get("race", {}), races))
        return tally


class LineClient:
    """One TCP client of the metrics server; a single thread reads
    newline-delimited lines into a buffer."""

    def __init__(self, address):
        self.sock = socket.create_connection(address, timeout=10.0)
        self.sock.settimeout(None)
        self._buf = bytearray()
        self._lock = threading.Lock()
        self._data = threading.Event()
        self._taken = 0
        self.thread = threading.Thread(target=self._read, daemon=True)
        self.thread.start()

    def _read(self) -> None:
        try:
            while chunk := self.sock.recv(65536):
                with self._lock:
                    self._buf.extend(chunk)
                self._data.set()
        except OSError:
            pass

    def _lines(self) -> list[str]:
        with self._lock:
            text = self._buf.decode("utf-8", errors="replace")
        complete = text[:text.rfind("\n") + 1]
        return [ln for ln in complete.splitlines() if ln != TELEMETRY_HELLO]

    def handshake(self, server, timeout: float = 5.0) -> None:
        """Publish hello lines until one arrives, so the server has
        registered this client before the first real line is sent."""
        deadline = time.monotonic() + timeout
        while not self._data.wait(0.01):
            if time.monotonic() > deadline:
                raise RuntimeError("metrics server never registered the client")
            server.publish(TELEMETRY_HELLO)

    def take(self, count: int, timeout: float = 5.0) -> list[str]:
        """Lines received since the last take, after waiting up to
        `timeout` for at least `count` of them."""
        deadline = time.monotonic() + timeout
        while (len(self._lines()) - self._taken < count
               and time.monotonic() < deadline):
            time.sleep(0.005)
        lines = self._lines()[self._taken:]
        self._taken += len(lines)
        return lines

    def close(self) -> None:
        self.thread.join(timeout=10.0)
        self.sock.close()


class TrainChurn10(Workload):
    """Short rollouts with a checkpoint every update, a new procedural
    10-gate track per episode, metrics mirrored to one TCP client, and a
    resume from `checkpoint.bin` halfway."""

    name = "train-churn10"
    rollout_steps = 256

    def __init__(self, seed: int, workdir: str, half_updates: int = 8):
        self.seed = seed
        self.half_updates = half_updates
        self.server = telemetry.MetricsServer("127.0.0.1", 0)
        self.client = LineClient(self.server.address)
        self.client.handshake(self.server)

    def _config(self, updates: int) -> RunConfig:
        return RunConfig(
            train=TrainConfig(rollout_steps=self.rollout_steps,
                              minibatch_size=self.rollout_steps,
                              epochs_per_update=1,
                              total_steps=updates * self.rollout_steps),
            track=TrackSettings(randomize_per_episode=True),
            harness=HarnessConfig(checkpoint_interval=1))

    def run(self, trial_dir: str) -> Trial:
        trial = Trial(trial_dir)
        with _timer(trial, "setup_s"):
            trainer = Trainer(self._config(self.half_updates), seed=self.seed,
                              out_dir=trial_dir, telemetry=self.server)
        try:
            with _timer(trial, "run_s"):
                path = trainer.train()
            with _timer(trial, "setup_s"):
                trainer = Trainer(self._config(2 * self.half_updates),
                                  seed=self.seed, out_dir=trial_dir,
                                  telemetry=self.server, resume=path)
            with _timer(trial, "run_s"):
                trainer.train()
        except Exception:
            _failure(trial)
        trial.steps = trainer.global_step
        return trial

    def check(self, trial: Trial) -> checks.Tally:
        with open(os.path.join(trial.trial_dir, "metrics.jsonl"), "rb") as fh:
            expected_lines = fh.read().count(b"\n")
        received = self.client.take(expected_lines)
        trial.delivered = len(received)
        tally, trial.outputs = checks.check_training_run(
            trial.trial_dir, 2 * self.half_updates, self.rollout_steps,
            received=received)
        return tally

    def close(self) -> None:
        self.server.close()
        self.client.close()


WORKLOADS = {w.name: w for w in (TrainMini3, EvalDefault10, TrainChurn10)}
