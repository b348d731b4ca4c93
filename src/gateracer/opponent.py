"""Competitor drone: a pure-pursuit waypoint follower through gate
centers. Doubles as the expert pace source for the reward timers."""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .dynamics import DroneState
from .geometry import Track, norm3

DEFAULT_CRUISE_SPEED = 4.0
DEFAULT_APPROACH_OFFSET = 1.0


@dataclass
class WaypointPlan:
    waypoints: np.ndarray  # (n, 3)
    cruise_speed: float = DEFAULT_CRUISE_SPEED
    gate_waypoint_indices: list[int] = field(default_factory=list)
    # the waypoints as float triples, for the per-step advance
    points: list = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        self.waypoints = np.asarray(self.waypoints, dtype=np.float64)
        if len(self.waypoints) == 0:
            raise ValueError("plan needs at least one waypoint")
        if self.cruise_speed <= 0:
            raise ValueError("cruise_speed must be positive")
        self.points = self.waypoints.tolist()


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
    x, y, z = state.drone.position
    points = p.points
    idx = state.waypoint_index
    t_left = dt
    speed = p.cruise_speed
    vx = vy = vz = 0.0
    while t_left > 0 and idx < len(points):
        wx, wy, wz = points[idx]
        dx, dy, dz = wx - x, wy - y, wz - z
        dist = norm3(dx, dy, dz)
        if dist <= speed * t_left:
            x, y, z = wx, wy, wz
            t_left -= dist / speed
            idx += 1
            continue
        ux, uy, uz = dx / dist, dy / dist, dz / dist
        x += ux * speed * t_left
        y += uy * speed * t_left
        z += uz * speed * t_left
        vx, vy, vz = ux * speed, uy * speed, uz * speed
        t_left = 0.0
    if idx < len(points) and t_left == 0.0:
        wx, wy, wz = points[idx]
        dx, dy, dz = wx - x, wy - y, wz - z
        dist = norm3(dx, dy, dz)
        if dist > 1e-12:
            vx, vy, vz = (dx / dist * speed, dy / dist * speed,
                          dz / dist * speed)
    yaw = state.drone.yaw
    if math.hypot(vx, vy) > 1e-9:
        # numpy's arctan2, which differs from math.atan2 in the last bit
        # on about one call in ten
        yaw = float(np.arctan2(vy, vx))
    drone = DroneState(position=(x, y, z), velocity=(vx, vy, vz),
                       attitude=(0.0, 0.0, yaw),
                       angular_velocity=(0.0, 0.0, 0.0),
                       time=state.drone.time + dt)
    return FollowerState(drone=drone, waypoint_index=idx)


def expected_gate_times(p: WaypointPlan, start) -> np.ndarray:
    """Cumulative polyline distance / cruise speed at each gate-center
    waypoint; strictly increasing for any valid plan."""
    prev = np.asarray(start, dtype=np.float64).tolist()
    cum = 0.0
    times = []
    gate_set = set(p.gate_waypoint_indices)
    for i, wp in enumerate(p.points):
        cum += norm3(wp[0] - prev[0], wp[1] - prev[1], wp[2] - prev[2])
        prev = wp
        if i in gate_set:
            times.append(cum / p.cruise_speed)
    return np.array(times)
