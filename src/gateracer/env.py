"""Environment composition: dynamics + track + reward engine + opponent,
plus observation assembly."""

from __future__ import annotations

import dataclasses
import math

import numpy as np

from . import dynamics, opponent, rewards
from .dynamics import DroneState, DynamicsConfig, ImuReading, _wrap_angle
from .geometry import (DEFAULT_DRONE_RADIUS, Track, norm3,
                       segment_frame_collision, segment_gate_crossing,
                       sample_spawn, track_to_dict)
from .rewards import EpisodeStatus, RewardConfig, TERM_NONE

OBS_DIM = 21
TIMER_OBS_SCALE = 0.1


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
    gx, gy, gz = gate.center.tolist()
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

    Owns per-episode state and the spawn / sensor random streams. The
    caller drives it with action vectors, which `dynamics.step` clamps to
    [-1, 1], and reads the episode's record from `status`.
    """

    def __init__(self, track: Track, dyn_cfg: DynamicsConfig,
                 reward_cfg: RewardConfig,
                 opponent_cfg: "OpponentSettings | None" = None,
                 spawn_rng: np.random.Generator | None = None,
                 sensor_rng: np.random.Generator | None = None,
                 drone_radius: float = DEFAULT_DRONE_RADIUS):
        from .config import OpponentSettings

        self.track = track
        self.dyn_cfg = dyn_cfg
        self.reward_cfg = reward_cfg
        self.opp_cfg = opponent_cfg or OpponentSettings()
        self.spawn_rng = spawn_rng or np.random.default_rng(0)
        self.sensor_rng = sensor_rng or np.random.default_rng(1)
        self.drone_radius = drone_radius
        # distance triggers, one per gate: each must cover every point
        # reachable in one step from anywhere its predicate can fire, or
        # real events get dropped. For a pass that is the opening; for a
        # collision the farthest corner of the frame band's box.
        travel_bound = dyn_cfg.v_max * dyn_cfg.dt
        self._gate_centers = [g.center.tolist() for g in track.gates]
        self._pass_reach = [
            math.hypot(g.half_width, g.half_height)
            + reward_cfg.pass_check_radius + travel_bound
            for g in track.gates]
        self._frame_reach = [
            math.hypot(g.frame_thickness / 2 + drone_radius,
                       g.half_width + g.frame_thickness,
                       g.half_height + g.frame_thickness) + travel_bound
            for g in track.gates]
        self.plan = opponent.plan(
            track, cruise_speed=self.opp_cfg.cruise_speed,
            approach_offset=self.opp_cfg.approach_offset)

        self.agent: DroneState | None = None
        self.opp: opponent.FollowerState | None = None
        self.status: EpisodeStatus | None = None
        self.opponent_times: np.ndarray | None = None

    def reset(self, spawn_override: DroneState | None = None) -> np.ndarray:
        if spawn_override is not None:
            self.agent = spawn_override.copy()
        else:
            self.agent = sample_spawn(self.track, 0, self.spawn_rng)
        self.opp = opponent.FollowerState(drone=self.agent.copy())
        self.opponent_times = opponent.expected_gate_times(
            self.plan, self.agent.position)
        self.status = rewards.init_status(
            self.track, self.opponent_times, self.reward_cfg, t0=self.agent.time)
        return self.observe()

    def state_dict(self) -> dict:
        """JSON-able episode state. The random streams belong to the
        caller and are not included; the track is, for rebuilding the env
        (construct on `track_from_dict(state["track"])`, then load)."""
        return {
            "agent": dataclasses.asdict(self.agent),
            "opponent": dataclasses.asdict(self.opp.drone),
            "opponent_waypoint": self.opp.waypoint_index,
            "status": dataclasses.asdict(self.status),
            "opponent_times": self.opponent_times.tolist(),
            "track": track_to_dict(self.track),
        }

    def load_state_dict(self, state: dict) -> None:
        # keys not read here, such as the "episode_steps" that older
        # checkpoints hold, are ignored; so is their status's "target_gate"
        self.agent = DroneState(**state["agent"])
        self.opp = opponent.FollowerState(
            drone=DroneState(**state["opponent"]),
            waypoint_index=int(state["opponent_waypoint"]))
        self.status = EpisodeStatus(**{
            k: v for k, v in state["status"].items() if k != "target_gate"})
        self.opponent_times = np.array(state["opponent_times"])

    def observe(self) -> np.ndarray:
        imu = dynamics.read_imu(self.agent, self.dyn_cfg.imu_noise_std,
                                self.sensor_rng)
        gps = dynamics.read_gps(self.agent, self.dyn_cfg.gps_noise_std,
                                self.sensor_rng)
        return build_observation(self.agent, self.opp.drone.position,
                                 self.status, self.track, imu, gps)

    def detect_events(self, prev: DroneState,
                      nxt: DroneState) -> tuple[bool, bool]:
        """(passed, collided) for one step: the gate-pass test is only
        invoked near the target gate; frame collisions are checked, in
        gate order, against every gate within reach."""
        x, y, z = nxt.position
        dist = [norm3(x - cx, y - cy, z - cz)
                for cx, cy, cz in self._gate_centers]
        target = self.status.gates_passed
        passed = False
        if dist[target] < self._pass_reach[target]:
            passed = segment_gate_crossing(
                prev.position, nxt.position,
                self.track.gates[target]) is not None
        collided = any(
            segment_frame_collision(prev.position, nxt.position, gate,
                                    self.drone_radius)
            for gate, d, reach in zip(self.track.gates, dist,
                                      self._frame_reach)
            if d <= reach)
        return passed, collided

    def step(self, action) -> tuple[float, bool]:
        """Returns (raw_reward, done); `status` holds the episode's record.
        Call observe() for the next observation while the episode is
        alive."""
        if self.status.done != TERM_NONE:
            raise ValueError("cannot step a finished episode")
        prev = self.agent
        nxt = dynamics.step(prev, action, self.dyn_cfg.dt, self.dyn_cfg)
        self.opp = opponent.advance(self.plan, self.opp, self.dyn_cfg.dt)
        passed, collided = self.detect_events(prev, nxt)
        reward, self.status = rewards.compute_step(
            prev, nxt, self.status, passed, collided, self.reward_cfg,
            self.opponent_times, self.track)
        self.agent = nxt
        return reward, self.status.done != TERM_NONE
