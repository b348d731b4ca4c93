"""Competitor drone: a pure-pursuit waypoint follower through gate
centers. Doubles as the expert pace source for the reward timers."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .dynamics import DroneState
from .geometry import Track

DEFAULT_CRUISE_SPEED = 4.0
DEFAULT_APPROACH_OFFSET = 1.0


@dataclass
class WaypointPlan:
    waypoints: np.ndarray  # (n, 3)
    cruise_speed: float = DEFAULT_CRUISE_SPEED
    gate_waypoint_indices: list[int] = field(default_factory=list)

    def __post_init__(self):
        self.waypoints = np.asarray(self.waypoints, dtype=np.float64)
        if len(self.waypoints) == 0:
            raise ValueError("plan needs at least one waypoint")
        if self.cruise_speed <= 0:
            raise ValueError("cruise_speed must be positive")


def plan(track: Track, cruise_speed: float = DEFAULT_CRUISE_SPEED,
         approach_offset: float = DEFAULT_APPROACH_OFFSET) -> WaypointPlan:
    """Each gate contributes an approach point (offset back along the
    inbound normal, guaranteeing a normal-direction crossing) followed by
    the gate center."""
    if track.n_gates < 1:
        raise ValueError("track has no gates")
    waypoints = []
    gate_indices = []
    for gate in track.gates:
        waypoints.append(gate.center - approach_offset * gate.normal)
        waypoints.append(gate.center.copy())
        gate_indices.append(len(waypoints) - 1)
    return WaypointPlan(
        waypoints=np.array(waypoints),
        cruise_speed=cruise_speed,
        gate_waypoint_indices=gate_indices,
    )


@dataclass
class FollowerState:
    """Waypoint-follower progress alongside the drone kinematic state."""

    drone: DroneState
    waypoint_index: int = 0

    def copy(self) -> "FollowerState":
        return FollowerState(drone=self.drone.copy(),
                             waypoint_index=self.waypoint_index)


def advance(p: WaypointPlan, state: FollowerState, dt: float) -> FollowerState:
    """Move at cruise speed along the waypoint polyline for one step.

    A waypoint is consumed only when the remaining distance fits in the
    step's time budget, and the exact time for that distance is charged,
    so arrival times track the closed-form polyline schedule without
    drift. (Switching to the next waypoint anywhere within a radius of the
    current one would skip up to radius/speed seconds per waypoint.) After
    the last waypoint: hover.
    """
    if dt <= 0:
        raise ValueError("dt must be positive")
    pos = state.drone.position.copy()
    idx = state.waypoint_index
    t_left = dt
    speed = p.cruise_speed
    vel = np.zeros(3)
    while t_left > 0 and idx < len(p.waypoints):
        delta = p.waypoints[idx] - pos
        dist = float(np.linalg.norm(delta))
        if dist <= speed * t_left:
            pos = p.waypoints[idx].copy()
            t_left -= dist / speed
            idx += 1
            continue
        direction = delta / dist
        pos = pos + direction * speed * t_left
        vel = direction * speed
        t_left = 0.0
    if idx < len(p.waypoints) and t_left == 0.0:
        delta = p.waypoints[idx] - pos
        dist = float(np.linalg.norm(delta))
        if dist > 1e-12:
            vel = delta / dist * speed
    yaw = state.drone.yaw
    if np.hypot(vel[0], vel[1]) > 1e-9:
        yaw = float(np.arctan2(vel[1], vel[0]))
    drone = DroneState(
        position=pos,
        velocity=vel,
        attitude=np.array([0.0, 0.0, yaw]),
        angular_velocity=np.zeros(3),
        time=state.drone.time + dt,
    )
    return FollowerState(drone=drone, waypoint_index=idx)


def expected_gate_times(p: WaypointPlan, start) -> np.ndarray:
    """Cumulative polyline distance / cruise speed at each gate-center
    waypoint; strictly increasing for any valid plan."""
    start = np.asarray(start, dtype=np.float64)
    cum = 0.0
    prev = start
    times = []
    gate_set = set(p.gate_waypoint_indices)
    for i, wp in enumerate(p.waypoints):
        cum += float(np.linalg.norm(wp - prev))
        prev = wp
        if i in gate_set:
            times.append(cum / p.cruise_speed)
    return np.array(times)
