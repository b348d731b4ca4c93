"""Gate and track geometry: procedural tracks, spawn sampling, pass and
frame-collision predicates, and the track file format."""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
import yaml

DEFAULT_HALF_WIDTH = 1.5
DEFAULT_HALF_HEIGHT = 1.5
DEFAULT_FRAME_THICKNESS = 0.25
DEFAULT_DRONE_RADIUS = 0.3
DEFAULT_SPAWN_BAND = (2.0, 3.5)


@dataclass
class Gate:
    """An upright rectangular gate; the normal is (cos yaw, sin yaw, 0)."""

    id: int
    center: np.ndarray
    yaw: float
    half_width: float = DEFAULT_HALF_WIDTH
    half_height: float = DEFAULT_HALF_HEIGHT
    frame_thickness: float = DEFAULT_FRAME_THICKNESS

    def __post_init__(self):
        self.center = np.asarray(self.center, dtype=np.float64)
        if self.half_width <= 0 or self.half_height <= 0 or self.frame_thickness <= 0:
            raise ValueError("gate extents must be positive")

    @property
    def normal(self) -> np.ndarray:
        return np.array([math.cos(self.yaw), math.sin(self.yaw), 0.0])

    @property
    def u_axis(self) -> np.ndarray:
        return np.array([-math.sin(self.yaw), math.cos(self.yaw), 0.0])


@dataclass
class Track:
    gates: list[Gate]
    spawn_band: tuple[float, float] = DEFAULT_SPAWN_BAND
    time_limit: float = 60.0

    def __post_init__(self):
        for i, g in enumerate(self.gates):
            if g.id != i:
                raise ValueError("gate ids must be 0..n-1 in order")
        self.spawn_band = (float(self.spawn_band[0]), float(self.spawn_band[1]))

    @property
    def n_gates(self) -> int:
        return len(self.gates)


@dataclass
class PassEvent:
    gate_id: int
    time: float
    crossing_point: np.ndarray = field(default_factory=lambda: np.zeros(3))


def default_track(seed: int, n_gates: int = 10,
                  spacing: tuple[float, float] = (10.0, 15.0),
                  z_range: tuple[float, float] = (1.0, 3.0),
                  max_climb: float = 1.0,
                  time_per_gate: float = 6.0) -> Track:
    """Procedural flyable track: spacing drawn uniformly, heading change
    between consecutive gates bounded to +/-45 degrees, altitude drifting
    within z_range by at most max_climb per gate."""
    rng = np.random.default_rng(seed)
    gates = []
    heading = rng.uniform(-math.pi, math.pi)
    z0 = min(max(1.5, z_range[0]), z_range[1])
    center = np.array([0.0, 0.0, z0])
    gates.append(Gate(id=0, center=center.copy(), yaw=heading))
    for i in range(1, n_gates):
        heading += rng.uniform(-math.pi / 4, math.pi / 4)
        dist = rng.uniform(spacing[0], spacing[1])
        dz = rng.uniform(-max_climb, max_climb)
        dz = min(max(dz, z_range[0] - center[2]), z_range[1] - center[2])
        horiz = math.sqrt(dist * dist - dz * dz)
        center = center + np.array(
            [horiz * math.cos(heading), horiz * math.sin(heading), dz])
        gates.append(Gate(id=i, center=center.copy(), yaw=heading))
    return Track(gates=gates, time_limit=time_per_gate * n_gates)


def segment_gate_crossing(p0, p1, gate: Gate):
    """Intersection point if the directed segment crosses the gate plane
    along the gate normal inside the opening; None otherwise.

    The segment must go from the negative side of the gate plane to the
    non-negative side, and the in-plane offsets of the intersection must
    fit the opening.
    """
    p0 = np.asarray(p0, dtype=np.float64)
    p1 = np.asarray(p1, dtype=np.float64)
    center = gate.center
    nx = math.cos(gate.yaw)
    ny = math.sin(gate.yaw)
    d0 = (p0[0] - center[0]) * nx + (p0[1] - center[1]) * ny
    d1 = (p1[0] - center[0]) * nx + (p1[1] - center[1]) * ny
    if not (d0 < 0.0 and d1 >= 0.0):
        return None
    t = d0 / (d0 - d1)
    px = p0[0] + t * (p1[0] - p0[0])
    py = p0[1] + t * (p1[1] - p0[1])
    pz = p0[2] + t * (p1[2] - p0[2])
    # in-plane axes: u horizontal (-sin, cos, 0), v vertical (0, 0, 1)
    u = -(px - center[0]) * ny + (py - center[1]) * nx
    v = pz - center[2]
    if abs(u) <= gate.half_width and abs(v) <= gate.half_height:
        return np.array([px, py, pz])
    return None


def _abs_linear_interval(a, b, c):
    """Solve |a + b*t| <= c for t; returns (lo, hi), empty as lo > hi."""
    if b == 0.0:
        if abs(a) <= c:
            return -np.inf, np.inf
        return 1.0, 0.0
    t0 = (-c - a) / b
    t1 = (c - a) / b
    if t0 <= t1:
        return t0, t1
    return t1, t0


def segment_frame_collision(p0, p1, gate: Gate, drone_radius: float) -> bool:
    """True iff the radius-inflated segment touches the gate frame band.

    A point collides when it lies inside the plane slab
    |dist| <= frame_thickness/2 + radius and its in-plane offsets fall in
    the annulus between the inner opening and the outer rectangle.
    """
    if drone_radius <= 0:
        raise ValueError("drone_radius must be positive")
    p0 = np.asarray(p0, dtype=np.float64)
    p1 = np.asarray(p1, dtype=np.float64)
    center = gate.center
    nx = math.cos(gate.yaw)
    ny = math.sin(gate.yaw)
    rx0 = p0[0] - center[0]
    ry0 = p0[1] - center[1]
    rz0 = p0[2] - center[2]
    dx = p1[0] - p0[0]
    dy = p1[1] - p0[1]
    dz = p1[2] - p0[2]
    # linear coordinates along the segment: f(t) = a + b t
    d_a = rx0 * nx + ry0 * ny
    d_b = dx * nx + dy * ny
    u_a = -rx0 * ny + ry0 * nx
    u_b = -dx * ny + dy * nx
    v_a = rz0
    v_b = dz

    half_width, half_height = gate.half_width, gate.half_height
    frame_thickness = gate.frame_thickness
    slab = frame_thickness * 0.5 + drone_radius
    lo, hi = 0.0, 1.0
    l2, h2 = _abs_linear_interval(d_a, d_b, slab)
    lo = max(lo, l2)
    hi = min(hi, h2)
    l2, h2 = _abs_linear_interval(u_a, u_b, half_width + frame_thickness)
    lo = max(lo, l2)
    hi = min(hi, h2)
    l2, h2 = _abs_linear_interval(v_a, v_b, half_height + frame_thickness)
    lo = max(lo, l2)
    hi = min(hi, h2)
    if lo > hi:
        return False
    # inside [lo, hi] the point is in the slab and the outer rectangle;
    # collision unless that whole interval sits in the inner opening
    il, ih = _abs_linear_interval(u_a, u_b, half_width)
    jl, jh = _abs_linear_interval(v_a, v_b, half_height)
    inner_lo = max(il, jl)
    inner_hi = min(ih, jh)
    if inner_lo > inner_hi:
        return True
    return bool(lo < inner_lo or hi > inner_hi)


def sample_spawn(track: Track, target_gate: int, rng: np.random.Generator):
    """Spawn state before the target gate, at an exact center distance
    drawn from the spawn band, with lateral jitter inside the opening
    footprint; velocity zero, yaw facing the gate.

    Returns a dynamics.DroneState.
    """
    from .dynamics import DroneState

    if not (0 <= target_gate < track.n_gates):
        raise ValueError(f"invalid gate index {target_gate}")
    gate = track.gates[target_gate]
    d = rng.uniform(track.spawn_band[0], track.spawn_band[1])
    u_off = rng.uniform(-gate.half_width / 2, gate.half_width / 2)
    v_off = rng.uniform(-gate.half_height / 2, gate.half_height / 2)
    # back off along the inbound normal so the center distance is exactly d
    back = math.sqrt(d * d - u_off * u_off - v_off * v_off)
    pos = (gate.center - back * gate.normal + u_off * gate.u_axis
           + v_off * np.array([0.0, 0.0, 1.0]))
    to_gate = gate.center - pos
    yaw = math.atan2(to_gate[1], to_gate[0])
    return DroneState(
        position=pos,
        velocity=np.zeros(3),
        attitude=np.array([0.0, 0.0, yaw]),
        angular_velocity=np.zeros(3),
        time=0.0,
    )


def track_to_dict(track: Track) -> dict:
    return {
        "gates": [
            {
                "id": g.id,
                "center": [float(x) for x in g.center],
                "yaw": float(g.yaw),
                "half_width": float(g.half_width),
                "half_height": float(g.half_height),
                "frame_thickness": float(g.frame_thickness),
            }
            for g in track.gates
        ],
        "spawn_band": [float(track.spawn_band[0]), float(track.spawn_band[1])],
        "time_limit": float(track.time_limit),
    }


def track_from_dict(data: dict) -> Track:
    gates = [
        Gate(
            id=int(g["id"]),
            center=np.array(g["center"], dtype=np.float64),
            yaw=float(g["yaw"]),
            half_width=float(g["half_width"]),
            half_height=float(g["half_height"]),
            frame_thickness=float(g["frame_thickness"]),
        )
        for g in data["gates"]
    ]
    return Track(
        gates=gates,
        spawn_band=tuple(data["spawn_band"]),
        time_limit=float(data["time_limit"]),
    )


def dump_track(track: Track) -> str:
    return yaml.safe_dump(track_to_dict(track), sort_keys=False)


def save_track(track: Track, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(dump_track(track))


def load_track(path) -> Track:
    with open(path, "r", encoding="utf-8") as fh:
        return track_from_dict(yaml.safe_load(fh))
