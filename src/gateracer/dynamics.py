"""Simplified quadrotor plant: velocity-delta commands through a
first-order lag, plus synthetic IMU / GPS readouts."""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .domains import NON_NEGATIVE, POSITIVE, ConfigBlock
from .geometry import norm3

GRAVITY = 9.81
BANK_CAP = math.pi / 6.0  # roll/pitch limit of the banked-turn proxy


def _vec3(v) -> tuple:
    x, y, z = v
    return (float(x), float(y), float(z))


@dataclass
class DroneState:
    """Each vector is a 3-tuple of Python floats: the step functions
    unpack it with no numpy call, and an in-place write raises."""

    position: tuple
    velocity: tuple
    attitude: tuple  # roll, pitch, yaw
    angular_velocity: tuple
    time: float = 0.0

    def __post_init__(self):
        # the step functions pass tuples of floats, taken as given; any
        # other 3-sequence (an array, a JSON list) is converted once
        v = (self.position, self.velocity, self.attitude, self.angular_velocity)
        if not type(v[0]) is type(v[1]) is type(v[2]) is type(v[3]) is tuple:
            (self.position, self.velocity, self.attitude,
             self.angular_velocity) = map(_vec3, v)

    @property
    def yaw(self) -> float:
        return self.attitude[2]

    def copy(self) -> "DroneState":
        return replace(self)


@dataclass
class DynamicsConfig(ConfigBlock):
    tau: float = POSITIVE(0.3)
    command_scale: float = POSITIVE(2.0)
    v_max: float = POSITIVE(15.0)
    yaw_rate_max: float = POSITIVE(float(np.pi))
    dt: float = POSITIVE(0.05)
    # 3 linear-velocity stds, 3 angular-velocity stds, 1 shared attitude std
    imu_noise_std: tuple = NON_NEGATIVE((0.0,) * 7)
    gps_noise_std: float = NON_NEGATIVE(0.0)


@dataclass
class ImuReading:
    linear_velocity: tuple
    angular_velocity: tuple
    attitude: tuple


def step(state: DroneState, cmd, cfg: DynamicsConfig) -> DroneState:
    """Advance one control step of length `cfg.dt`.

    The commanded velocity delta (clipped to [-1, 1] per axis, the one
    place an action is bounded, then scaled by command_scale) defines a
    target velocity; the velocity relaxes toward it with lag time
    constant tau, position integrates the trapezoid, yaw slews toward the
    velocity heading, roll/pitch are a banked-turn proxy.
    """
    dt = cfg.dt
    # three Python floats (sample_action's list) are used as they are
    c0, c1, c2 = cmd
    if not type(c0) is type(c1) is type(c2) is float:
        c0, c1, c2 = np.asarray(cmd, dtype=np.float64).tolist()
    px, py, pz = state.position
    vx, vy, vz = state.velocity
    roll0, pitch0, yaw0 = state.attitude
    scale = cfg.command_scale

    tx = vx + min(max(c0, -1.0), 1.0) * scale
    ty = vy + min(max(c1, -1.0), 1.0) * scale
    tz = vz + min(max(c2, -1.0), 1.0) * scale
    speed = norm3(tx, ty, tz)
    if speed > cfg.v_max:
        s = cfg.v_max / speed
        tx *= s
        ty *= s
        tz *= s
    decay = math.exp(-dt / cfg.tau)
    nvx = tx + (vx - tx) * decay
    nvy = ty + (vy - ty) * decay
    nvz = tz + (vz - tz) * decay

    yaw = yaw0
    if math.hypot(nvx, nvy) > 1e-6:
        dyaw = _wrap_angle(math.atan2(nvy, nvx) - yaw)
        max_dyaw = cfg.yaw_rate_max * dt
        yaw = _wrap_angle(yaw + min(max(dyaw, -max_dyaw), max_dyaw))

    ax = (nvx - vx) / dt
    ay = (nvy - vy) / dt
    cos_yaw, sin_yaw = math.cos(yaw), math.sin(yaw)
    a_fwd = ax * cos_yaw + ay * sin_yaw
    a_lat = -ax * sin_yaw + ay * cos_yaw
    roll = min(max(math.atan2(a_lat, GRAVITY), -BANK_CAP), BANK_CAP)
    pitch = min(max(-math.atan2(a_fwd, GRAVITY), -BANK_CAP), BANK_CAP)

    return DroneState(
        position=(px + 0.5 * (vx + nvx) * dt, py + 0.5 * (vy + nvy) * dt,
                  pz + 0.5 * (vz + nvz) * dt),
        velocity=(nvx, nvy, nvz),
        attitude=(roll, pitch, yaw),
        angular_velocity=((roll - roll0) / dt, (pitch - pitch0) / dt,
                          _wrap_angle(yaw - yaw0) / dt),
        time=state.time + dt,
    )


def _wrap_angle(a: float) -> float:
    """Shift an angle by whole turns into [-pi, pi]; an angle already in
    range comes back unchanged."""
    while a > math.pi:
        a -= 2.0 * math.pi
    while a < -math.pi:
        a += 2.0 * math.pi
    return a


def read_imu(state: DroneState, noise_std, rng: np.random.Generator) -> ImuReading:
    """True IMU values plus independent zero-mean Gaussian noise; the 7
    channels are 3x linear velocity, 3x angular velocity, 1x attitude.
    The stds are taken as given: `DynamicsConfig` rejects negative ones."""
    if not max(noise_std) > 0:
        return ImuReading(linear_velocity=state.velocity,
                          angular_velocity=state.angular_velocity,
                          attitude=state.attitude)
    n = np.asarray(noise_std, dtype=np.float64).tolist()
    e = rng.standard_normal(9).tolist()
    lin, ang, att = state.velocity, state.angular_velocity, state.attitude
    return ImuReading(
        linear_velocity=tuple(lin[i] + n[i] * e[i] for i in range(3)),
        angular_velocity=tuple(ang[i] + n[3 + i] * e[3 + i] for i in range(3)),
        attitude=tuple(att[i] + n[6] * e[6 + i] for i in range(3)))


def read_gps(state: DroneState, noise_std: float, rng: np.random.Generator) -> tuple:
    """Position plus isotropic Gaussian noise; exact when noise_std = 0.
    The std is taken as given: `DynamicsConfig` rejects a negative one."""
    if not noise_std > 0:
        return state.position
    e = rng.standard_normal(3).tolist()
    return tuple(p + noise_std * d for p, d in zip(state.position, e))
