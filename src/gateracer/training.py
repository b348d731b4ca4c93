"""Training driver: rollout collection, PPO updates, metrics, and
checkpoint/resume with bit-exact continuation."""

from __future__ import annotations

import math
import os

import numpy as np

from . import checkpoint as ckpt
from .config import (RunConfig, resolve_track, run_config_from_dict,
                     run_config_to_dict)
from .env import OBS_DIM, RacingEnv
from .geometry import Track, track_from_dict, track_to_dict
from .metrics import MetricsLogger, MetricsRecord
from .networks import Adam, forward, init_policy, sample_action
from .normalization import RewardScaler, RunningStats, normalize_observation
from .ppo import RolloutBuffer, compute_gae, fill_values, ppo_update

STREAM_NAMES = ("track", "spawn", "policy", "sensors", "update")
# the update stats that each metrics record carries
LOSS_KEYS = ("policy_loss", "value_loss", "approx_kl", "clip_fraction")


def make_streams(seed: int) -> dict[str, np.random.Generator]:
    """Master seed fanned out into named independent streams."""
    root = np.random.SeedSequence(seed)
    children = root.spawn(len(STREAM_NAMES))
    return {name: np.random.default_rng(child)
            for name, child in zip(STREAM_NAMES, children)}


def _truncate_to_checkpoint(metrics_path: str, ckpt_path: str,
                            state: dict) -> None:
    """Cut records written after the checkpoint (by a run that crashed
    before its next save) from the metrics log beside that checkpoint,
    so that the resumed run does not write them twice."""
    length = state["scalars"].get("metrics_bytes")
    if (length is not None and os.path.exists(metrics_path)
            and os.path.samefile(os.path.dirname(os.path.abspath(ckpt_path)),
                                 os.path.dirname(metrics_path))
            and os.path.getsize(metrics_path) > length):
        os.truncate(metrics_path, length)


class Trainer:
    def __init__(self, run_cfg: RunConfig | None, seed: int, out_dir,
                 telemetry=None, resume: str | None = None):
        self.out_dir = str(out_dir)
        os.makedirs(self.out_dir, exist_ok=True)
        if not os.access(self.out_dir, os.W_OK):
            raise OSError(f"output directory not writable: {self.out_dir}")

        state = None
        if resume is not None:
            state = ckpt.load_checkpoint(resume)
            if run_cfg is None:
                run_cfg = run_config_from_dict(state["config"])
        self.cfg = run_cfg
        self.seed = seed
        self.rngs = make_streams(seed)
        self.reward_scaler = RewardScaler(run_cfg.train.gamma)
        self.global_step = 0
        self.episode_count = 0
        self.update_count = 0
        self._last_update_stats: dict | None = None
        self.checkpoint_path = os.path.join(self.out_dir, "checkpoint.bin")
        # a resumed run keeps the track it saved, whatever its file holds now
        self.base_track = (resolve_track(run_cfg) if state is None
                           else track_from_dict(state["track"]))
        # restored first, so that a checkpoint it rejects leaves the log
        # untouched and no file open
        if state is not None:
            self._restore(state)
        else:
            self.params = init_policy(self.rngs["policy"], OBS_DIM)
            self.adam = Adam([p.shape for p in self.params.flat_list()])
            self.obs_stats = RunningStats(OBS_DIM)
            self.env = self._make_env(self.base_track)
            self._pending_obs = normalize_observation(self.obs_stats,
                                                      self.env.reset())

        metrics_path = os.path.join(self.out_dir, "metrics.jsonl")
        if state is not None:
            _truncate_to_checkpoint(metrics_path, resume, state)
        else:
            open(metrics_path, "w").close()  # a fresh run starts the log empty
        self.metrics = MetricsLogger(metrics_path, telemetry=telemetry)

    def _make_env(self, track: Track) -> RacingEnv:
        return RacingEnv(track, self.cfg.dynamics, self.cfg.reward,
                         opponent_cfg=self.cfg.opponent,
                         spawn_rng=self.rngs["spawn"],
                         sensor_rng=self.rngs["sensors"],
                         drone_radius=self.cfg.harness.drone_radius)

    def _episode_reset(self) -> np.ndarray:
        if self.cfg.track.randomize_per_episode:
            self.env = self._make_env(resolve_track(self.cfg, self.rngs["track"]))
        return self.env.reset()

    # ------------------------------------------------------------------
    def collect_rollout(self) -> RolloutBuffer:
        cfg = self.cfg.train
        buf = RolloutBuffer(cfg.rollout_steps, OBS_DIM)
        obs_n = self._pending_obs
        for _ in range(cfg.rollout_steps):
            mean, log_std = forward(self.params, obs_n)
            action, logp = sample_action(mean, log_std, self.rngs["policy"])
            reward_raw, done = self.env.step(action)
            if not math.isfinite(reward_raw):
                raise RuntimeError(f"non-finite reward at step {self.global_step}")
            scaled = self.reward_scaler.scale(reward_raw, done)
            buf.add(obs_n, action, logp, scaled, done)
            self.global_step += 1
            if done:
                self.episode_count += 1
                self._emit_episode()
                obs_raw = self._episode_reset()
            else:
                obs_raw = self.env.observe()
            if not np.all(np.isfinite(obs_raw)):
                raise RuntimeError(f"non-finite observation at step {self.global_step}")
            obs_n = normalize_observation(self.obs_stats, obs_raw)
        self._pending_obs = obs_n
        fill_values(buf, self.params.critic, obs_n, cfg.minibatch_size)
        return buf

    def _emit_episode(self) -> None:
        """The episode record of the env's finished episode; call it
        before the reset."""
        status = self.env.status
        stats = self._last_update_stats or {}
        self.metrics.write(MetricsRecord(
            event="episode",
            global_step=self.global_step,
            episode=self.episode_count,
            episodic_return=status.episode_return,
            gates_passed=status.gates_passed,
            collisions=status.collisions,
            duration=self.env.agent.time,
            **{key: stats.get(key) for key in LOSS_KEYS},
        ))

    def _emit_update(self, stats: dict) -> None:
        self.metrics.write(MetricsRecord(
            event="update",
            global_step=self.global_step,
            episode=self.episode_count,
            **{key: stats[key] for key in LOSS_KEYS},
        ))

    # ------------------------------------------------------------------
    def iterate(self) -> None:
        """One training iteration: rollout, GAE, PPO update, the update
        record and the periodic checkpoint."""
        cfg = self.cfg.train
        buf = self.collect_rollout()
        compute_gae(buf, buf.bootstrap_value, cfg.gamma, cfg.gae_lambda)
        lr = cfg.learning_rate
        if cfg.lr_decay:
            total_updates = max(1, cfg.total_steps // cfg.rollout_steps)
            frac = 1.0 - self.update_count / total_updates
            lr = cfg.learning_rate * max(frac, 0.0)
        _, stats = ppo_update(self.params, buf, cfg, self.rngs["update"],
                              adam=self.adam, lr=lr)
        self.update_count += 1
        self._last_update_stats = stats
        self._emit_update(stats)
        if self.update_count % self.cfg.harness.checkpoint_interval == 0:
            self.save(self.checkpoint_path)

    def train(self) -> str:
        """Iterate until the step budget; returns the final checkpoint
        path. The final save is skipped when the last iteration has just
        written the same state there."""
        start = self.update_count
        while self.global_step < self.cfg.train.total_steps:
            self.iterate()
        if (self.update_count == start or self.update_count
                % self.cfg.harness.checkpoint_interval):
            self.save(self.checkpoint_path)
        self.metrics.close()
        return self.checkpoint_path

    # ------------------------------------------------------------------
    def _state_dict(self) -> dict:
        arrays, scalars = ckpt.policy_entries(self.params, self.obs_stats)
        adam_arrays, adam_scalars = ckpt.optimizer_entries(self.adam)
        arrays.update(adam_arrays, pending_obs=self._pending_obs)
        scalars.update(adam_scalars,
                       reward_scaler=self.reward_scaler.state_dict(),
                       metrics_bytes=os.path.getsize(self.metrics.path))
        return {
            "counters": {"global_step": self.global_step,
                         "episode_count": self.episode_count,
                         "update_count": self.update_count,
                         "seed": self.seed,
                         "last_update_stats": self._last_update_stats},
            "config": run_config_to_dict(self.cfg),
            "track": track_to_dict(self.base_track),
            "arrays": arrays,
            "scalars": scalars,
            "rng": {name: gen.bit_generator.state
                    for name, gen in self.rngs.items()},
            "env": self.env.state_dict(),
        }

    def save(self, path) -> str:
        ckpt.save_checkpoint(path, self._state_dict())
        return path

    def _restore(self, state: dict) -> None:
        self.params, self.obs_stats = ckpt.load_policy(state, frozen=False)
        self.adam = ckpt.load_optimizer(state, self.params)
        self.reward_scaler.load_state_dict(state["scalars"]["reward_scaler"])
        for name, gen in self.rngs.items():
            gen.bit_generator.state = state["rng"][name]
        c = state["counters"]
        self.global_step = int(c["global_step"])
        self.episode_count = int(c["episode_count"])
        self.update_count = int(c["update_count"])
        self._last_update_stats = c.get("last_update_stats")
        self.env = self._make_env(track_from_dict(state["env"]["track"]))
        self.env.load_state_dict(state["env"])
        self._pending_obs = state["arrays"]["pending_obs"]
