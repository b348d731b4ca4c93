"""Handcrafted reward shaping: distance progress, proximity bonus, gate
pass bonus, frame-collision penalty, expert-paced gate timers with a
stuck penalty, and episode termination rules."""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

from .dynamics import DroneState
from .geometry import Track, norm3

TERM_NONE = "none"
TERM_ALL_GATES = "all_gates"
TERM_TOO_FAR = "too_far"
TERM_COLLISION_LIMIT = "collision_limit"
TERM_TIME_LIMIT = "time_limit"


@dataclass
class RewardConfig:
    progress_coef: float = 1.0
    proximity_bonus: float = 0.1
    pass_reward: float = 50.0
    collision_penalty: float = -10.0
    stuck_penalty: float = -0.5
    timer_multiplier: float = 2.0
    proximity_radius: float = 3.0
    pass_check_radius: float = 0.5
    max_divergence: float = 20.0
    collision_limit: int = 5
    time_limit: Optional[float] = None  # None: use the track's

    def __post_init__(self):
        # each test is written so that a NaN fails it
        if not (self.proximity_radius > self.pass_check_radius > 0):
            raise ValueError("need proximity_radius > pass_check_radius > 0")
        if not 0 < self.pass_reward < math.inf:
            raise ValueError("pass_reward must be positive and finite")
        for name in ("collision_penalty", "stuck_penalty"):
            if not -math.inf < getattr(self, name) <= 0:
                raise ValueError(f"{name} must be finite and <= 0")
        if not 1 <= self.timer_multiplier < math.inf:
            raise ValueError("timer_multiplier must be finite and >= 1")
        if not self.max_divergence > 0:
            raise ValueError("max_divergence must be positive")
        if not self.collision_limit >= 1:
            raise ValueError("collision_limit must be at least 1")
        if self.time_limit is not None and not self.time_limit > 0:
            raise ValueError("time_limit must be null or positive")


@dataclass
class EpisodeStatus:
    gate_deadline: float
    collisions: int = 0
    gates_passed: int = 0  # also the target gate, while the episode is live
    done: str = TERM_NONE
    episode_return: float = 0.0


def resolved_time_limit(cfg: RewardConfig, track: Track) -> float:
    return cfg.time_limit if cfg.time_limit is not None else track.time_limit


def init_status(track: Track, opponent_times: list[float],
                cfg: RewardConfig, t0: float = 0.0) -> EpisodeStatus:
    if len(opponent_times) != track.n_gates:
        raise ValueError("opponent_times length must equal gate count")
    return EpisodeStatus(
        gate_deadline=t0 + cfg.timer_multiplier * opponent_times[0],
    )


def check_termination(target_distance: float, state: DroneState,
                      status: EpisodeStatus, cfg: RewardConfig,
                      track: Track) -> str:
    """`target_distance` is the state's distance to the target gate,
    `track.gates[status.gates_passed]`; it is not read once every gate is
    passed."""
    if status.gates_passed >= track.n_gates:
        return TERM_ALL_GATES
    if target_distance > cfg.max_divergence:
        return TERM_TOO_FAR
    if status.collisions >= cfg.collision_limit:
        return TERM_COLLISION_LIMIT
    if state.time > resolved_time_limit(cfg, track):
        return TERM_TIME_LIMIT
    return TERM_NONE


def compute_step(distances: tuple, next_state: DroneState,
                 status: EpisodeStatus, passed: bool, collided: bool,
                 cfg: RewardConfig, opponent_times: list[float],
                 track: Track) -> tuple[float, EpisodeStatus]:
    """One reward/progress transition. `passed` and `collided` are this
    step's geometric facts: the target gate was crossed, a frame was
    hit. `distances` are the target gate's distance from the step's
    start and from its end, and the end's distance to the target after
    the step: the next gate after a pass, else the target again."""
    if status.done != TERM_NONE:
        raise ValueError("compute_step called on a finished episode")
    d_prev, d_next, d_target = distances

    reward = cfg.progress_coef * (d_prev - d_next)
    if d_next < cfg.proximity_radius:
        reward += cfg.proximity_bonus

    new = EpisodeStatus(gate_deadline=status.gate_deadline,
                        collisions=status.collisions,
                        gates_passed=status.gates_passed)
    if passed:
        reward += cfg.pass_reward
        new.gates_passed += 1
        if new.gates_passed < track.n_gates:
            budget = cfg.timer_multiplier * (
                opponent_times[new.gates_passed]
                - opponent_times[new.gates_passed - 1])
            new.gate_deadline = next_state.time + budget

    if collided:
        reward += cfg.collision_penalty
        new.collisions += 1

    if (not passed and new.gates_passed > 0
            and next_state.time > new.gate_deadline):
        x, y, z = next_state.position
        cx, cy, cz = track.gates[new.gates_passed - 1].center
        if norm3(x - cx, y - cy, z - cz) < cfg.proximity_radius:
            reward += cfg.stuck_penalty

    new.episode_return = status.episode_return + reward
    new.done = check_termination(d_target, next_state, new, cfg, track)
    return reward, new
