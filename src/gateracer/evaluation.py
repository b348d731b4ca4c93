"""Policy evaluation and head-to-head races against the planner."""

from __future__ import annotations

from dataclasses import replace

import numpy as np

from .checkpoint import load_policy
from .config import run_config_from_dict
from .env import RacingEnv
from .geometry import (Track, norm3, sample_spawn, segment_gate_crossing,
                       track_from_dict)
from .networks import forward, sample_action
from .normalization import normalize_observation
from .rewards import TERM_ALL_GATES


def _setup(ckpt_state: dict, episodes: int, track: Track | None, seed: int):
    """Frozen policy, track and env for `episodes` episodes; the
    seed fans out into spawn, sensor and action streams."""
    if episodes < 1:
        raise ValueError(f"episodes must be at least 1, got {episodes}")
    params, stats = load_policy(ckpt_state, frozen=True)
    cfg = run_config_from_dict(ckpt_state["config"])
    track = track or track_from_dict(ckpt_state["track"])
    spawn_rng, sensor_rng, action_rng = (
        np.random.default_rng(c) for c in np.random.SeedSequence(seed).spawn(3))
    env = RacingEnv(track, cfg.dynamics, cfg.reward,
                    opponent_cfg=cfg.opponent, spawn_rng=spawn_rng,
                    sensor_rng=sensor_rng,
                    drone_radius=cfg.harness.drone_radius)
    return params, stats, track, env, action_rng


def _policy_action(params, stats, obs_raw, deterministic, rng):
    obs_n = normalize_observation(stats, obs_raw)
    mean, log_std = forward(params, obs_n)
    if deterministic:
        return [min(max(m, -1.0), 1.0) for m in mean.tolist()]
    _, clipped, _ = sample_action(mean, log_std, rng)
    return clipped


def _displaced_spawn(track: Track, rng, spawn_distance, yaw_error):
    """Spawn at a fixed center distance with a +/- yaw offset; used for
    the off-nominal recovery evaluation."""
    spawn = sample_spawn(track, 0, rng)
    if spawn_distance is not None:
        center = track.gates[0].center.tolist()
        to_gate = [c - p for c, p in zip(center, spawn.position)]
        d = norm3(*to_gate)
        spawn = replace(spawn, position=[c - t / d * spawn_distance
                                         for c, t in zip(center, to_gate)])
    if yaw_error:
        sign = 1.0 if rng.uniform() < 0.5 else -1.0
        roll, pitch, yaw = spawn.attitude
        spawn = replace(spawn, attitude=(roll, pitch, yaw + sign * yaw_error))
    return spawn


def evaluate(ckpt_state: dict, episodes: int, deterministic: bool = False,
             track: Track | None = None, seed: int = 0,
             spawn_distance: float | None = None,
             yaw_error: float = 0.0) -> dict:
    """Run episodes with frozen normalization statistics; spawns are drawn
    per episode from the spawn band (optionally displaced)."""
    params, stats, track, env, action_rng = _setup(ckpt_state, episodes,
                                                   track, seed)
    completions = 0
    gates, times, collisions = [], [], []
    for _ in range(episodes):
        override = None
        if spawn_distance is not None or yaw_error:
            override = _displaced_spawn(track, env.spawn_rng,
                                        spawn_distance, yaw_error)
        obs_raw = env.reset(spawn_override=override)
        done = False
        while not done:
            action = _policy_action(params, stats, obs_raw, deterministic,
                                    action_rng)
            _, done, info = env.step(action)
            if not done:
                obs_raw = env.observe()
        ep = info["episode"]
        if ep.termination == TERM_ALL_GATES:
            completions += 1
        gates.append(ep.gates_passed)
        times.append(ep.duration)
        collisions.append(ep.collisions)
    return {
        "episodes": episodes,
        "completion_rate": completions / episodes,
        "mean_gates_passed": float(np.mean(gates)),
        "mean_time": float(np.mean(times)),
        "mean_collisions": float(np.mean(collisions)),
    }


def race(ckpt_state: dict, episodes: int, track: Track | None = None,
         seed: int = 0, deterministic: bool = True) -> dict:
    """Agent and opponent step in lockstep from the same spawn; winner is
    the first to pass every gate, ties go to the opponent. Agent
    termination before finishing counts as a DNF."""
    params, stats, track, env, action_rng = _setup(ckpt_state, episodes,
                                                   track, seed)
    agent_wins = opponent_wins = dnfs = 0
    for _ in range(episodes):
        obs_raw = env.reset()
        opp_target = 0
        outcome = None
        while outcome is None:
            action = _policy_action(params, stats, obs_raw, deterministic,
                                    action_rng)
            opp_prev = env.opp.drone.position
            _, done, info = env.step(action)
            # track the opponent's own gate progress on the same step
            if opp_target < track.n_gates:
                point = segment_gate_crossing(opp_prev, env.opp.drone.position,
                                              track.gates[opp_target])
                if point is not None:
                    opp_target += 1
            agent_finished = done and info["episode"].termination == TERM_ALL_GATES
            opp_finished = opp_target >= track.n_gates
            if opp_finished:
                outcome = "opponent"  # ties break to the opponent
            elif agent_finished:
                outcome = "agent"
            elif done:
                outcome = "dnf"
            else:
                obs_raw = env.observe()
        if outcome == "agent":
            agent_wins += 1
        elif outcome == "opponent":
            opponent_wins += 1
        else:
            dnfs += 1
    return {"episodes": episodes, "agent_wins": agent_wins,
            "opponent_wins": opponent_wins, "agent_dnf": dnfs}
