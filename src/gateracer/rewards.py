"""Handcrafted reward shaping: distance progress, proximity bonus, gate
pass bonus, frame-collision penalty, expert-paced gate timers with a
stuck penalty, and episode termination rules."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from .domains import (AT_LEAST_ONE, COUNT, FINITE, NON_POSITIVE, POSITIVE,
                      POSITIVE_OR_NULL, ConfigBlock)
from .dynamics import DroneState
from .geometry import Track, norm3

TERM_NONE = "none"
TERM_ALL_GATES = "all_gates"
TERM_TOO_FAR = "too_far"
TERM_COLLISION_LIMIT = "collision_limit"
TERM_TIME_LIMIT = "time_limit"


@dataclass
class RewardConfig(ConfigBlock):
    progress_coef: float = FINITE(1.0)
    proximity_bonus: float = FINITE(0.1)
    pass_reward: float = POSITIVE(50.0)
    collision_penalty: float = NON_POSITIVE(-10.0)
    stuck_penalty: float = NON_POSITIVE(-0.5)
    timer_multiplier: float = AT_LEAST_ONE(2.0)
    proximity_radius: float = POSITIVE(3.0)
    pass_check_radius: float = POSITIVE(0.5)
    max_divergence: float = POSITIVE(20.0)
    collision_limit: int = COUNT(5)
    time_limit: Optional[float] = POSITIVE_OR_NULL(None)  # None: the track's

    def __post_init__(self):
        super().__post_init__()
        if not self.proximity_radius > self.pass_check_radius:
            raise ValueError("proximity_radius must exceed pass_check_radius")


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
