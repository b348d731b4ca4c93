"""Competitor drone: a pure-pursuit waypoint follower through gate
centers. Doubles as the expert pace source for the reward timers."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

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
    """Waypoint-follower progress: where the follower is, a 3-tuple of
    Python floats, and the index of the waypoint it is flying to. The
    agent sees only the opponent's position, so nothing else is kept."""

    position: tuple
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
    x, y, z = state.position
    points = p.points
    idx = state.waypoint_index
    t_left = dt
    speed = p.cruise_speed
    while t_left > 0 and idx < len(points):
        wx, wy, wz = points[idx]
        dx, dy, dz = wx - x, wy - y, wz - z
        dist = norm3(dx, dy, dz)
        if dist <= speed * t_left:
            x, y, z = wx, wy, wz
            t_left -= dist / speed
            idx += 1
            continue
        x += dx / dist * speed * t_left
        y += dy / dist * speed * t_left
        z += dz / dist * speed * t_left
        t_left = 0.0
    return FollowerState(position=(x, y, z), waypoint_index=idx)


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
