"""Competitor drone: a pure-pursuit waypoint follower through gate
centers. Doubles as the expert pace source for the reward timers."""

from __future__ import annotations

import math
from dataclasses import dataclass

from .geometry import Track, norm3

DEFAULT_CRUISE_SPEED = 4.0
DEFAULT_APPROACH_OFFSET = 1.0


@dataclass
class WaypointPlan:
    """The follower's polyline: float triples, flown in order. In a plan
    made by `plan`, gate k's centre is waypoint 2k + 1."""

    waypoints: list
    cruise_speed: float = DEFAULT_CRUISE_SPEED

    def __post_init__(self):
        self.waypoints = [tuple(map(float, w)) for w in self.waypoints]
        for i, w in enumerate(self.waypoints):
            if len(w) != 3 or not all(map(math.isfinite, w)):
                raise ValueError(f"waypoint {i} must be 3 finite numbers, "
                                 f"got {w}")
        if len(self.waypoints) == 0:
            raise ValueError("plan needs at least one waypoint")
        if self.cruise_speed <= 0:
            raise ValueError("cruise_speed must be positive")


def plan(track: Track, cruise_speed: float = DEFAULT_CRUISE_SPEED,
         approach_offset: float = DEFAULT_APPROACH_OFFSET) -> WaypointPlan:
    """Each gate contributes an approach point (offset back along the
    inbound normal, guaranteeing a normal-direction crossing) followed by
    the gate center."""
    waypoints = []
    for gate in track.gates:
        cx, cy, cz = gate.center
        nx, ny = gate.normal_xy
        waypoints.append((cx - approach_offset * nx,
                          cy - approach_offset * ny, cz))
        waypoints.append(gate.center)
    return WaypointPlan(waypoints=waypoints, cruise_speed=cruise_speed)


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
    x, y, z = state.position
    points = p.waypoints
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


def expected_gate_times(p: WaypointPlan, start) -> list[float]:
    """Cumulative polyline distance / cruise speed at each gate centre,
    the odd waypoints; strictly increasing for any valid plan."""
    px, py, pz = start
    cum = 0.0
    times = []
    for i, (x, y, z) in enumerate(p.waypoints):
        cum += norm3(x - px, y - py, z - pz)
        px, py, pz = x, y, z
        if i % 2:
            times.append(cum / p.cruise_speed)
    return times
