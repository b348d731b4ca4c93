"""Handcrafted reward shaping: distance progress, proximity bonus, gate
pass bonus, frame-collision penalty, expert-paced gate timers with a
stuck penalty, and episode termination rules."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

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
        if not (self.proximity_radius > self.pass_check_radius > 0):
            raise ValueError("need proximity_radius > pass_check_radius > 0")
        if self.pass_reward <= 0:
            raise ValueError("pass_reward must be positive")
        if self.collision_penalty > 0 or self.stuck_penalty > 0:
            raise ValueError("penalties must be <= 0")
        if self.timer_multiplier < 1:
            raise ValueError("timer_multiplier must be >= 1")
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


def init_status(track: Track, opponent_times, cfg: RewardConfig,
                t0: float = 0.0) -> EpisodeStatus:
    opponent_times = np.asarray(opponent_times, dtype=np.float64)
    if len(opponent_times) != track.n_gates:
        raise ValueError("opponent_times length must equal gate count")
    return EpisodeStatus(
        gate_deadline=t0 + cfg.timer_multiplier * float(opponent_times[0]),
    )


def _distance(position: tuple, center: np.ndarray) -> float:
    x, y, z = position
    cx, cy, cz = center.tolist()
    return norm3(x - cx, y - cy, z - cz)


def check_termination(state: DroneState, status: EpisodeStatus,
                      cfg: RewardConfig, track: Track) -> str:
    if status.gates_passed >= track.n_gates:
        return TERM_ALL_GATES
    target = track.gates[status.gates_passed]
    if _distance(state.position, target.center) > cfg.max_divergence:
        return TERM_TOO_FAR
    if status.collisions >= cfg.collision_limit:
        return TERM_COLLISION_LIMIT
    if state.time > resolved_time_limit(cfg, track):
        return TERM_TIME_LIMIT
    return TERM_NONE


def compute_step(prev: DroneState, next_state: DroneState,
                 status: EpisodeStatus, passed: bool, collided: bool,
                 cfg: RewardConfig, opponent_times,
                 track: Track) -> tuple[float, EpisodeStatus]:
    """One reward/progress transition. `passed` and `collided` are this
    step's geometric facts: the target gate was crossed, a frame was
    hit."""
    if status.done != TERM_NONE:
        raise ValueError("compute_step called on a finished episode")
    target = track.gates[status.gates_passed]
    d_prev = _distance(prev.position, target.center)
    d_next = _distance(next_state.position, target.center)

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
            times = np.asarray(opponent_times, dtype=np.float64)
            budget = cfg.timer_multiplier * float(
                times[new.gates_passed] - times[new.gates_passed - 1])
            new.gate_deadline = next_state.time + budget

    if collided:
        reward += cfg.collision_penalty
        new.collisions += 1

    if (not passed and new.gates_passed > 0
            and next_state.time > new.gate_deadline):
        last_passed = track.gates[new.gates_passed - 1]
        if _distance(next_state.position, last_passed.center) \
                < cfg.proximity_radius:
            reward += cfg.stuck_penalty

    new.episode_return = status.episode_return + reward
    new.done = check_termination(next_state, new, cfg, track)
    return reward, new
