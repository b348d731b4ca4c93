"""Simplified quadrotor plant: velocity-delta commands through a
first-order lag, plus synthetic IMU / GPS readouts."""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

GRAVITY = 9.81
BANK_CAP = math.pi / 6.0  # roll/pitch limit of the banked-turn proxy


@dataclass
class DroneState:
    position: np.ndarray
    velocity: np.ndarray
    attitude: np.ndarray  # roll, pitch, yaw
    angular_velocity: np.ndarray
    time: float = 0.0

    def __post_init__(self):
        self.position = np.asarray(self.position, dtype=np.float64)
        self.velocity = np.asarray(self.velocity, dtype=np.float64)
        self.attitude = np.asarray(self.attitude, dtype=np.float64)
        self.angular_velocity = np.asarray(self.angular_velocity, dtype=np.float64)

    @property
    def yaw(self) -> float:
        return float(self.attitude[2])

    def copy(self) -> "DroneState":
        return DroneState(
            position=self.position.copy(),
            velocity=self.velocity.copy(),
            attitude=self.attitude.copy(),
            angular_velocity=self.angular_velocity.copy(),
            time=self.time,
        )


@dataclass
class DynamicsConfig:
    tau: float = 0.3
    command_scale: float = 2.0
    v_max: float = 15.0
    yaw_rate_max: float = float(np.pi)
    dt: float = 0.05
    # 3 linear-velocity stds, 3 angular-velocity stds, 1 shared attitude std
    imu_noise_std: tuple = (0.0,) * 7
    gps_noise_std: float = 0.0

    def __post_init__(self):
        for name in ("tau", "dt"):
            if not getattr(self, name) > 0:
                raise ValueError(f"{name} must be positive")


@dataclass
class ImuReading:
    linear_velocity: np.ndarray
    angular_velocity: np.ndarray
    attitude: np.ndarray


def step(state: DroneState, cmd, dt: float, cfg: DynamicsConfig) -> DroneState:
    """Advance one control step.

    The commanded velocity delta (clipped to [-1, 1] per axis, scaled by
    command_scale) defines a target velocity; the velocity relaxes toward
    it with lag time constant tau, position integrates the trapezoid, yaw
    slews toward the velocity heading, roll/pitch are a banked-turn proxy.
    """
    if dt <= 0:
        raise ValueError("dt must be positive")
    dv = np.asarray(cmd, dtype=np.float64)
    vel = state.velocity
    att = state.attitude

    tx = vel[0] + min(max(dv[0], -1.0), 1.0) * cfg.command_scale
    ty = vel[1] + min(max(dv[1], -1.0), 1.0) * cfg.command_scale
    tz = vel[2] + min(max(dv[2], -1.0), 1.0) * cfg.command_scale
    speed = math.sqrt(tx * tx + ty * ty + tz * tz)
    if speed > cfg.v_max:
        s = cfg.v_max / speed
        tx *= s
        ty *= s
        tz *= s
    decay = math.exp(-dt / cfg.tau)
    new_vel = np.empty(3, dtype=np.float64)
    new_vel[0] = tx + (vel[0] - tx) * decay
    new_vel[1] = ty + (vel[1] - ty) * decay
    new_vel[2] = tz + (vel[2] - tz) * decay

    new_pos = np.empty(3, dtype=np.float64)
    for i in range(3):
        new_pos[i] = state.position[i] + 0.5 * (vel[i] + new_vel[i]) * dt

    yaw = att[2]
    hspeed = math.hypot(new_vel[0], new_vel[1])
    if hspeed > 1e-6:
        target_yaw = math.atan2(new_vel[1], new_vel[0])
        dyaw = _wrap_angle(target_yaw - yaw)
        max_dyaw = cfg.yaw_rate_max * dt
        if dyaw > max_dyaw:
            dyaw = max_dyaw
        elif dyaw < -max_dyaw:
            dyaw = -max_dyaw
        yaw = _wrap_angle(yaw + dyaw)

    ax = (new_vel[0] - vel[0]) / dt
    ay = (new_vel[1] - vel[1]) / dt
    a_fwd = ax * math.cos(yaw) + ay * math.sin(yaw)
    a_lat = -ax * math.sin(yaw) + ay * math.cos(yaw)
    roll = min(max(math.atan2(a_lat, GRAVITY), -BANK_CAP), BANK_CAP)
    pitch = min(max(-math.atan2(a_fwd, GRAVITY), -BANK_CAP), BANK_CAP)

    angvel = np.array([(roll - att[0]) / dt, (pitch - att[1]) / dt,
                       _wrap_angle(yaw - att[2]) / dt])
    return DroneState(
        position=new_pos,
        velocity=new_vel,
        attitude=np.array([roll, pitch, yaw]),
        angular_velocity=angvel,
        time=state.time + dt,
    )


def _wrap_angle(a: float) -> float:
    """Shift an angle by whole turns into [-pi, pi]."""
    while a > math.pi:
        a -= 2.0 * math.pi
    while a < -math.pi:
        a += 2.0 * math.pi
    return a


def read_imu(state: DroneState, noise_std, rng: np.random.Generator) -> ImuReading:
    """True IMU values plus independent zero-mean Gaussian noise; the 7
    channels are 3x linear velocity, 3x angular velocity, 1x attitude."""
    noise_std = np.asarray(noise_std, dtype=np.float64)
    if np.any(noise_std < 0):
        raise ValueError("noise_std must be non-negative")
    lin = state.velocity.copy()
    ang = state.angular_velocity.copy()
    att = state.attitude.copy()
    if np.any(noise_std > 0):
        eps = rng.standard_normal(9)
        lin = lin + noise_std[0:3] * eps[0:3]
        ang = ang + noise_std[3:6] * eps[3:6]
        att = att + noise_std[6] * eps[6:9]
    return ImuReading(linear_velocity=lin, angular_velocity=ang, attitude=att)


def read_gps(state: DroneState, noise_std: float, rng: np.random.Generator) -> np.ndarray:
    """Position plus isotropic Gaussian noise; exact when noise_std = 0."""
    if noise_std < 0:
        raise ValueError("noise_std must be non-negative")
    pos = state.position.copy()
    if noise_std > 0:
        pos = pos + noise_std * rng.standard_normal(3)
    return pos
