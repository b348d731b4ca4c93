"""Policy evaluation and head-to-head races against the planner.

Both step all their episodes in lockstep: each episode has its own env
and its own spawn, sensor and action streams, and each lockstep step
makes one actor forward over the episodes still running, down to the
last one. The actor acts in float32, on a copy of its weights: its
forward is bound by reading them. Normalization, sampling and the
dynamics stay float64."""

from __future__ import annotations

from dataclasses import replace

import numpy as np

from .checkpoint import load_policy
from .config import run_config_from_dict
from .env import RacingEnv
from .geometry import Track, norm3, sample_spawn, track_from_dict
from .networks import forward, gaussian_head, sample_action
from .normalization import normalize_observation
from .rewards import TERM_ALL_GATES

ACT_DTYPE = np.float32


def _setup(ckpt_state: dict, episodes: int, track: Track | None, seed: int):
    """Frozen policy, and one env and action stream per episode. The seed
    fans out into one child per episode, and each child into spawn,
    sensor and action streams, so an episode's draws do not depend on
    how many episodes run beside it."""
    if episodes < 1:
        raise ValueError(f"episodes must be at least 1, got {episodes}")
    params, stats = load_policy(ckpt_state, frozen=True)
    params.actor = [a.astype(ACT_DTYPE) for a in params.actor]
    cfg = run_config_from_dict(ckpt_state["config"])
    track = track or track_from_dict(ckpt_state["track"])
    envs, action_rngs = [], []
    for child in np.random.SeedSequence(seed).spawn(episodes):
        spawn_rng, sensor_rng, action_rng = (
            np.random.default_rng(c) for c in child.spawn(3))
        envs.append(RacingEnv(track, cfg, spawn_rng, sensor_rng))
        action_rngs.append(action_rng)
    return params, stats, envs, action_rngs


def _lockstep(params, stats, envs, obs, action_rngs, deterministic,
              step) -> None:
    """Steps every episode until `step(k, action)` reports episode k over.

    `obs` holds each env's first observation. Each lockstep step
    normalizes the live episodes' observations as one `(live, 21)` array,
    makes one actor forward over it and steps each live episode; an
    episode leaves the batch once it is over."""
    live = list(range(len(envs)))
    head = gaussian_head(params.log_std)
    while live:
        x = normalize_observation(stats, np.array(obs)).astype(ACT_DTYPE)
        mean = forward(params, x)
        if deterministic:
            actions = mean.tolist()
        else:
            actions = [sample_action(m, head, action_rngs[k])[0]
                       for k, m in zip(live, mean)]
        live = [k for k, a in zip(live, actions) if not step(k, a)]
        obs = [envs[k].observe() for k in live]


def _displaced_spawn(track: Track, rng, spawn_distance, yaw_error):
    """Spawn at a fixed center distance with a +/- yaw offset; used for
    the off-nominal recovery evaluation."""
    spawn = sample_spawn(track, 0, rng)
    if spawn_distance is not None:
        center = track.gates[0].center
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
    params, stats, envs, action_rngs = _setup(ckpt_state, episodes, track,
                                              seed)
    obs = []
    for env in envs:
        override = None
        if spawn_distance is not None or yaw_error:
            override = _displaced_spawn(env.track, env.spawn_rng,
                                        spawn_distance, yaw_error)
        obs.append(env.reset(spawn_override=override))
    _lockstep(params, stats, envs, obs, action_rngs, deterministic,
              lambda k, action: envs[k].step(action)[1])
    ends = [env.status for env in envs]
    return {
        "episodes": episodes,
        "completion_rate": sum(s.done == TERM_ALL_GATES
                               for s in ends) / episodes,
        "mean_gates_passed": float(np.mean([s.gates_passed for s in ends])),
        "mean_time": float(np.mean([env.agent.time for env in envs])),
        "mean_collisions": float(np.mean([s.collisions for s in ends])),
    }


def race(ckpt_state: dict, episodes: int, track: Track | None = None,
         seed: int = 0) -> dict:
    """Agent and opponent step in lockstep from the same spawn, the agent
    on its mean actions; winner is the first to pass every gate, ties go
    to the opponent. Agent termination before finishing counts as a DNF.
    The opponent has passed every gate once it has flown its whole plan,
    whose last waypoint is the last gate's centre."""
    params, stats, envs, action_rngs = _setup(ckpt_state, episodes, track,
                                              seed)
    obs = [env.reset() for env in envs]
    outcomes = [None] * episodes

    def step(k, action):
        env = envs[k]
        _, done = env.step(action)
        if env.opp.waypoint_index == len(env.plan.waypoints):
            outcomes[k] = "opponent"  # ties break to the opponent
        elif done and env.status.done == TERM_ALL_GATES:
            outcomes[k] = "agent"
        elif done:
            outcomes[k] = "dnf"
        return outcomes[k] is not None

    _lockstep(params, stats, envs, obs, action_rngs, True, step)
    return {"episodes": episodes, "agent_wins": outcomes.count("agent"),
            "opponent_wins": outcomes.count("opponent"),
            "agent_dnf": outcomes.count("dnf")}
