"""Environment composition: dynamics + track + reward engine + opponent,
plus observation assembly."""

from __future__ import annotations

import dataclasses
import math

import numpy as np

from . import dynamics, opponent, rewards
from .config import RunConfig
from .dynamics import DroneState, ImuReading, _wrap_angle
from .geometry import (Track, norm3, segment_frame_collision,
                       segment_gate_crossing, sample_spawn, track_to_dict)
from .rewards import EpisodeStatus, TERM_NONE

OBS_DIM = 21
TIMER_OBS_SCALE = 0.1
# metres added to every reach: far above the rounding of the summed
# path length, of one step's length and of one distance
SKIP_MARGIN = 1e-3


def build_observation(agent: DroneState, opponent_gps, status: EpisodeStatus,
                      track: Track, imu: ImuReading, gps) -> np.ndarray:
    """21-dim observation: IMU (9), own GPS (3), target vector in the
    agent's yaw frame (3), target relative yaw (1), vector to opponent
    GPS in the yaw frame (3), gates-passed fraction (1), scaled time
    remaining on the gate timer (1)."""
    if status.done != TERM_NONE:
        raise ValueError("cannot observe a finished episode")
    gate = track.gates[status.gates_passed]
    x, y, z = agent.position
    gx, gy, gz = gate.center
    ox, oy, oz = opponent_gps
    yaw = agent.yaw
    c, s = math.cos(yaw), math.sin(yaw)
    # the gate and opponent vectors rotated into the agent's yaw frame
    gx, gy, gz = gx - x, gy - y, gz - z
    ox, oy, oz = ox - x, oy - y, oz - z
    return np.array(
        [*imu.linear_velocity, *imu.angular_velocity, *imu.attitude, *gps,
         c * gx + s * gy, -s * gx + c * gy, gz,
         _wrap_angle(gate.yaw - yaw),
         c * ox + s * oy, -s * ox + c * oy, oz,
         status.gates_passed / track.n_gates,
         (status.gate_deadline - agent.time) * TIMER_OBS_SCALE])


class RacingEnv:
    """Single agent racing the waypoint-following opponent on one track.

    Owns per-episode state and the spawn / sensor random streams, and
    takes its dynamics, reward, opponent and drone-radius settings from
    the run config. The caller drives it with action vectors, which
    `dynamics.step` clamps to [-1, 1], and reads the episode's record
    from `status`.
    """

    def __init__(self, track: Track, cfg: RunConfig,
                 spawn_rng: np.random.Generator | None = None,
                 sensor_rng: np.random.Generator | None = None):
        self.track = track
        self.dyn_cfg = cfg.dynamics
        self.reward_cfg = cfg.reward
        self.opp_cfg = cfg.opponent
        self.spawn_rng = spawn_rng or np.random.default_rng(0)
        self.sensor_rng = sensor_rng or np.random.default_rng(1)
        self.drone_radius = cfg.harness.drone_radius
        # one reach per gate and predicate, from the centre, beyond which
        # it cannot fire: for a pass the opening's corner plus
        # pass_check_radius, for a collision the frame band's farthest
        # corner; each plus SKIP_MARGIN
        self._pass_reach = [
            math.hypot(g.half_width, g.half_height)
            + self.reward_cfg.pass_check_radius + SKIP_MARGIN
            for g in track.gates]
        self._frame_reach = [
            math.hypot(g.frame_thickness / 2 + self.drone_radius,
                       g.half_width + g.frame_thickness,
                       g.half_height + g.frame_thickness) + SKIP_MARGIN
            for g in track.gates]
        self.plan = opponent.plan(
            track, cruise_speed=self.opp_cfg.cruise_speed,
            approach_offset=self.opp_cfg.approach_offset)

        self.agent: DroneState | None = None
        self.opp: opponent.FollowerState | None = None
        self.status: EpisodeStatus | None = None
        self.opponent_times: list[float] | None = None
        self._forget_schedule()

    def _forget_schedule(self) -> None:
        """Drops the measuring schedule of `detect_events`, so that its
        next call measures every gate. The schedule is derived state: it
        is not part of `state_dict()`.

        `_position` is where the last call ended, `_target` the target
        gate after it and `_target_distance` that gate's distance from
        `_position`. `_travel` is the path length flown since the
        schedule began, and gate g need not be measured again before
        `_travel` reaches `_due[g]` (+inf for the target, which is
        measured on every step); `_next_due` is the least of them."""
        self._position = None
        self._target = -1
        self._target_distance = math.nan
        self._travel = 0.0
        self._due = [-math.inf] * self.track.n_gates
        self._next_due = -math.inf

    def reset(self, spawn_override: DroneState | None = None) -> np.ndarray:
        if spawn_override is not None:
            self.agent = spawn_override.copy()
        else:
            self.agent = sample_spawn(self.track, 0, self.spawn_rng)
        self.opp = opponent.FollowerState(position=self.agent.position)
        self.opponent_times = opponent.expected_gate_times(
            self.plan, self.agent.position)
        self.status = rewards.init_status(
            self.track, self.opponent_times, self.reward_cfg, t0=self.agent.time)
        self._forget_schedule()
        return self.observe()

    def state_dict(self) -> dict:
        """JSON-able episode state. The random streams belong to the
        caller and are not included; the track is, for rebuilding the env
        (construct on `track_from_dict(state["track"])`, then load)."""
        return {
            "agent": dataclasses.asdict(self.agent),
            "opponent": {"position": list(self.opp.position)},
            "opponent_waypoint": self.opp.waypoint_index,
            "status": dataclasses.asdict(self.status),
            "opponent_times": list(self.opponent_times),
            "track": track_to_dict(self.track),
        }

    def load_state_dict(self, state: dict) -> None:
        # older opponent records hold a whole drone state: only its
        # position is read
        self.agent = DroneState(**state["agent"])
        self.opp = opponent.FollowerState(
            position=tuple(map(float, state["opponent"]["position"])),
            waypoint_index=int(state["opponent_waypoint"]))
        self.status = EpisodeStatus(**state["status"])
        self.opponent_times = [float(t) for t in state["opponent_times"]]
        self._forget_schedule()

    def observe(self) -> np.ndarray:
        imu = dynamics.read_imu(self.agent, self.dyn_cfg.imu_noise_std,
                                self.sensor_rng)
        gps = dynamics.read_gps(self.agent, self.dyn_cfg.gps_noise_std,
                                self.sensor_rng)
        return build_observation(self.agent, self.opp.position,
                                 self.status, self.track, imu, gps)

    def detect_events(self, prev: DroneState,
                      nxt: DroneState) -> tuple[bool, bool, tuple]:
        """(passed, collided, distances) for one step. The gate-pass test
        is only invoked near the target gate; frame collisions are
        checked, in gate order, against every gate within reach.
        `distances` are the ones `rewards.compute_step` takes.

        A predicate is tested when the step ends within its reach plus the
        step's length: a step that ends farther passes no point within the
        reach, whatever its speed. Each gate's distance from `nxt` is
        measured at most once, the target's on every step. Gate g, measured
        at distance d > reach, cannot come within reach before the drone has
        flown d - reach more metres (by the triangle inequality), so it is
        measured again once the path length summed over the steps, this one
        included, reaches that. A step whose `prev` is not where the last
        call ended, or whose target is not the one it left, starts the
        schedule anew and measures every gate."""
        px, py, pz = prev.position
        x, y, z = nxt.position
        gates = self.track.gates
        target = self.status.gates_passed
        cx, cy, cz = gates[target].center
        step = norm3(x - px, y - py, z - pz)
        if prev.position != self._position or target != self._target:
            self._forget_schedule()
            self._due[target] = math.inf
            d_prev = norm3(px - cx, py - cy, pz - cz)
        else:
            self._travel += step
            d_prev = self._target_distance
        travel = self._travel
        due = self._due
        frame_reach = self._frame_reach
        d_next = norm3(x - cx, y - cy, z - cz)
        passed = False
        if d_next < self._pass_reach[target] + step:
            passed = segment_gate_crossing(prev.position, nxt.position,
                                           gates[target]) is not None
        # the distance of the gate that is the target after this step
        after, d_after = target, d_next
        if passed:
            after += 1
            if after < len(gates):
                cx, cy, cz = gates[after].center
                d_after = norm3(x - cx, y - cy, z - cz)
                due[after] = math.inf
            due[target] = travel + d_next - frame_reach[target]
        collided = False
        if passed or travel >= self._next_due:
            for g, gate in enumerate(gates):
                if g == target:
                    d = d_next
                elif g == after:
                    d = d_after
                elif due[g] <= travel:
                    cx, cy, cz = gate.center
                    d = norm3(x - cx, y - cy, z - cz)
                    due[g] = travel + d - frame_reach[g]
                else:
                    continue
                # gates after a hit stay due and are measured next step
                if d <= frame_reach[g] + step and segment_frame_collision(
                        prev.position, nxt.position, gate, self.drone_radius):
                    collided = True
                    break
            self._next_due = min(due)
        elif d_next <= frame_reach[target] + step:
            collided = segment_frame_collision(
                prev.position, nxt.position, gates[target], self.drone_radius)
        self._position = nxt.position
        self._target = after
        self._target_distance = d_after
        return passed, collided, (d_prev, d_next, d_after)

    def step(self, action) -> tuple[float, bool]:
        """Returns (raw_reward, done); `status` holds the episode's record.
        Call observe() for the next observation while the episode is
        alive."""
        if self.status.done != TERM_NONE:
            raise ValueError("cannot step a finished episode")
        prev = self.agent
        nxt = dynamics.step(prev, action, self.dyn_cfg)
        self.opp = opponent.advance(self.plan, self.opp, self.dyn_cfg.dt)
        passed, collided, distances = self.detect_events(prev, nxt)
        reward, self.status = rewards.compute_step(
            distances, nxt, self.status, passed, collided, self.reward_cfg,
            self.opponent_times, self.track)
        self.agent = nxt
        return reward, self.status.done != TERM_NONE
