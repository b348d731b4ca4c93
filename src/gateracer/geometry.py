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
DEFAULT_SPAWN_BAND = (2.0, 3.5)


def norm3(x: float, y: float, z: float) -> float:
    """Length of a 3-vector given by its components. Every per-step
    distance uses this one formula; a 1-D `np.linalg.norm` goes through
    BLAS and can differ from it in the last bit."""
    return math.sqrt(x * x + y * y + z * z)


@dataclass(frozen=True)
class Gate:
    """An upright rectangular gate; the normal is (cos yaw, sin yaw, 0).

    `center` is the float triple of the 3 finite numbers it is given,
    `yaw` is finite and each extent positive and finite. The per-step
    predicates read `center` and `normal_xy`, (cos yaw, sin yaw); the
    gate is frozen, so neither can go stale."""

    id: int
    center: tuple
    yaw: float
    half_width: float = DEFAULT_HALF_WIDTH
    half_height: float = DEFAULT_HALF_HEIGHT
    frame_thickness: float = DEFAULT_FRAME_THICKNESS
    normal_xy: tuple = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        center = np.array(self.center, dtype=np.float64)
        if center.shape != (3,) or not np.isfinite(center).all():
            raise ValueError("gate center must be 3 finite numbers, "
                             f"got {center.tolist()}")
        if not math.isfinite(self.yaw):
            raise ValueError(f"gate yaw must be finite, got {self.yaw!r}")
        for name in ("half_width", "half_height", "frame_thickness"):
            value = getattr(self, name)
            if not 0 < value < math.inf:
                raise ValueError(f"gate {name} must be positive and finite, "
                                 f"got {value!r}")
        # frozen: the fields are written to the instance dict directly
        vars(self).update(center=tuple(center.tolist()),
                          normal_xy=(math.cos(self.yaw), math.sin(self.yaw)))

    @property
    def normal(self) -> np.ndarray:
        nx, ny = self.normal_xy
        return np.array([nx, ny, 0.0])

    @property
    def u_axis(self) -> np.ndarray:
        nx, ny = self.normal_xy
        return np.array([-ny, nx, 0.0])


@dataclass
class Track:
    gates: list[Gate]
    spawn_band: tuple[float, float] = DEFAULT_SPAWN_BAND
    time_limit: float = 60.0

    def __post_init__(self):
        if not self.gates:
            raise ValueError("a track needs at least one gate")
        for i, g in enumerate(self.gates):
            if g.id != i:
                raise ValueError("gate ids must be 0..n-1 in order")
        lo, hi = map(float, self.spawn_band)
        # a spawn is drawn up to hypot(half_width, half_height) / 2 off
        # the gate's axis, and its distance from the centre must reach it
        least = max(math.hypot(g.half_width, g.half_height) / 2
                    for g in self.gates)
        if not least <= lo <= hi < math.inf:
            raise ValueError(f"spawn_band must satisfy {least:g} <= lo <= hi "
                             f"< inf, got [{lo:g}, {hi:g}]")
        self.spawn_band = (lo, hi)
        if not self.time_limit > 0:
            raise ValueError(
                f"time_limit must be positive, got {self.time_limit!r}")

    @property
    def n_gates(self) -> int:
        return len(self.gates)


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
    gates.append(Gate(id=0, center=center, yaw=heading))
    for i in range(1, n_gates):
        heading += rng.uniform(-math.pi / 4, math.pi / 4)
        dist = rng.uniform(spacing[0], spacing[1])
        dz = rng.uniform(-max_climb, max_climb)
        # a climb longer than the spacing would leave no horizontal leg
        # (a negative square root); inactive when spacing >= max_climb
        dz = min(max(dz, -dist, z_range[0] - center[2]),
                 dist, z_range[1] - center[2])
        horiz = math.sqrt(dist * dist - dz * dz)
        center = center + np.array(
            [horiz * math.cos(heading), horiz * math.sin(heading), dz])
        gates.append(Gate(id=i, center=center, yaw=heading))
    return Track(gates=gates, time_limit=time_per_gate * n_gates)


def segment_gate_crossing(p0, p1, gate: Gate):
    """Intersection point if the directed segment crosses the gate plane
    along the gate normal inside the opening; None otherwise.

    The segment must go from the negative side of the gate plane to the
    non-negative side, and the in-plane offsets of the intersection must
    fit the opening.
    """
    x0, y0, z0 = p0
    x1, y1, z1 = p1
    cx, cy, cz = gate.center
    nx, ny = gate.normal_xy
    d0 = (x0 - cx) * nx + (y0 - cy) * ny
    d1 = (x1 - cx) * nx + (y1 - cy) * ny
    if not (d0 < 0.0 and d1 >= 0.0):
        return None
    t = d0 / (d0 - d1)
    px = x0 + t * (x1 - x0)
    py = y0 + t * (y1 - y0)
    pz = z0 + t * (z1 - z0)
    # in-plane axes: u horizontal (-sin, cos, 0), v vertical (0, 0, 1)
    u = -(px - cx) * ny + (py - cy) * nx
    v = pz - cz
    if abs(u) <= gate.half_width and abs(v) <= gate.half_height:
        return (px, py, pz)
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
    x0, y0, z0 = p0
    x1, y1, z1 = p1
    cx, cy, cz = gate.center
    nx, ny = gate.normal_xy
    rx0 = x0 - cx
    ry0 = y0 - cy
    rz0 = z0 - cz
    dx = x1 - x0
    dy = y1 - y0
    dz = z1 - z0
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
    return DroneState(position=pos, velocity=(0.0, 0.0, 0.0),
                      attitude=(0.0, 0.0, yaw),
                      angular_velocity=(0.0, 0.0, 0.0), time=0.0)


def track_to_dict(track: Track) -> dict:
    return {
        "gates": [
            {
                "id": g.id,
                "center": list(g.center),
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
    """Inverse of track_to_dict; a missing field is a ValueError naming it."""
    try:
        gates = [
            Gate(
                id=int(g["id"]),
                center=g["center"],
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
    except KeyError as exc:
        raise ValueError(f"track field {exc.args[0]!r} is missing") from None
    except TypeError as exc:
        raise ValueError(f"malformed track: {exc}") from None


def dump_track(track: Track) -> str:
    return yaml.safe_dump(track_to_dict(track), sort_keys=False)


def save_track(track: Track, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(dump_track(track))


def load_track(path) -> Track:
    with open(path, "r", encoding="utf-8") as fh:
        return track_from_dict(yaml.safe_load(fh))
