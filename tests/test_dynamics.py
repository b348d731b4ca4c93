import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gateracer.dynamics import (BANK_CAP, DroneState, DynamicsConfig,
                                _wrap_angle, read_gps, read_imu, step)
from gateracer.geometry import norm3


def make_state(pos=(0, 0, 0), vel=(0, 0, 0), yaw=0.0, t=0.0):
    return DroneState(position=np.array(pos, dtype=float),
                      velocity=np.array(vel, dtype=float),
                      attitude=np.array([0.0, 0.0, yaw]),
                      angular_velocity=np.zeros(3), time=t)


def test_zero_command_is_fixed_point():
    cfg = DynamicsConfig()
    s = step(make_state(), np.zeros(3), cfg)
    np.testing.assert_array_equal(s.position, np.zeros(3))
    np.testing.assert_array_equal(s.velocity, np.zeros(3))
    assert s.time == cfg.dt


def test_zero_lag_limit():
    cfg = DynamicsConfig(tau=1e-9, command_scale=2.0)
    s1 = step(make_state(), np.array([1.0, 0.0, 0.0]), cfg)
    np.testing.assert_allclose(s1.velocity, [2.0, 0.0, 0.0], atol=1e-12)
    # velocity holds once reached: the next step advances by v*dt exactly
    s2 = step(s1, np.zeros(3), cfg)
    np.testing.assert_allclose(np.asarray(s2.position) - s1.position,
                               [2.0 * cfg.dt, 0.0, 0.0], atol=1e-12)


def _simulate(cfg, dt, horizon, dv):
    cfg = dataclasses.replace(cfg, dt=dt)
    s = make_state()
    n = int(round(horizon / dt))
    for _ in range(n):
        s = step(s, dv, cfg)
    return s


def test_first_order_convergence_to_lag_ode():
    # constant command, unclamped regime: the continuous limit of the
    # per-step relaxation is v_dot = command_scale*dv / tau (linear ramp)
    cfg = DynamicsConfig(tau=0.3, command_scale=1.0)
    dv = np.array([1.0, 0.0, 0.0])
    closed = cfg.command_scale * 1.0 / cfg.tau  # velocity slope
    errs = {}
    for dt in (1e-3, 5e-4):
        s = _simulate(cfg, dt, 1.0, dv)
        errs[dt] = abs(s.velocity[0] - closed * 1.0)
    assert errs[1e-3] < 1e-2
    ratio = errs[1e-3] / errs[5e-4]
    assert 1.7 < ratio < 2.3  # first order in dt


def test_dt_must_be_positive():
    with pytest.raises(ValueError, match="dt must be positive"):
        DynamicsConfig(dt=0.0)


@pytest.mark.parametrize("scale", [0.0, -1.0, math.inf, math.nan])
def test_command_scale_must_be_positive_and_finite(scale):
    with pytest.raises(ValueError, match="command_scale"):
        DynamicsConfig(command_scale=scale)


def test_velocity_never_exceeds_v_max():
    cfg = DynamicsConfig()
    rng = np.random.default_rng(0)
    s = make_state()
    for _ in range(500):
        dv = rng.choice([-1.0, 1.0], size=3) * rng.uniform(0.5, 2.0, 3)
        s = step(s, dv, cfg)
        assert np.linalg.norm(s.velocity) <= cfg.v_max + 1e-12
        assert np.all(np.isfinite(s.position))


def test_step_deterministic():
    cfg = DynamicsConfig()
    s0 = make_state(vel=(3, -1, 0.5))
    dv = np.array([0.3, -0.7, 0.1])
    a = step(s0, dv, cfg)
    b = step(s0, dv, cfg)
    np.testing.assert_array_equal(a.position, b.position)
    np.testing.assert_array_equal(a.velocity, b.velocity)
    np.testing.assert_array_equal(a.attitude, b.attitude)
    # a float list, taken as given, steps to the same state as the array
    # it came from; a list of numpy float32 scalars is converted first
    assert step(s0, dv.tolist(), cfg) == a
    dv32 = dv.astype(np.float32)
    assert step(s0, list(dv32), cfg) == step(s0, dv32.tolist(), cfg)


def test_coasting_speed_non_increasing():
    cfg = DynamicsConfig()
    s = make_state(vel=(4.0, 3.0, -1.0))
    speed = np.linalg.norm(s.velocity)
    for _ in range(200):
        s = step(s, np.zeros(3), cfg)
        new_speed = np.linalg.norm(s.velocity)
        assert new_speed <= speed + 1e-12
        speed = new_speed


def test_imu_noiseless_is_exact():
    s = make_state(vel=(1, 2, 3), yaw=0.4)
    s.angular_velocity = np.array([0.1, -0.2, 0.3])
    r = read_imu(s, np.zeros(7), np.random.default_rng(0))
    np.testing.assert_array_equal(r.linear_velocity, s.velocity)
    np.testing.assert_array_equal(r.angular_velocity, s.angular_velocity)
    np.testing.assert_array_equal(r.attitude, s.attitude)


def test_imu_noise_statistics():
    s = make_state(vel=(1.0, -2.0, 0.5))
    noise = np.array([0.1, 0.1, 0.1, 0.0, 0.0, 0.0, 0.0])
    rng = np.random.default_rng(77)
    reads = np.array([read_imu(s, noise, rng).linear_velocity
                      for _ in range(10_000)])
    se = 0.1 / np.sqrt(10_000)
    np.testing.assert_allclose(reads.mean(axis=0), s.velocity, atol=3 * se)


def test_imu_deterministic_per_seed():
    s = make_state(vel=(1, 2, 3))
    noise = np.full(7, 0.2)
    a = [read_imu(s, noise, np.random.default_rng(9)).linear_velocity
         for _ in range(1)]
    b = [read_imu(s, noise, np.random.default_rng(9)).linear_velocity
         for _ in range(1)]
    np.testing.assert_array_equal(a, b)


def test_config_rejects_negative_sensor_noise():
    """The sensor reads take their stds as given; the config refuses a
    negative one when it is built."""
    with pytest.raises(ValueError, match="imu_noise_std"):
        DynamicsConfig(imu_noise_std=(0.1,) * 6 + (-0.1,))
    with pytest.raises(ValueError, match="gps_noise_std"):
        DynamicsConfig(gps_noise_std=-0.1)


def test_gps_noiseless_exact_and_deterministic():
    s = make_state(pos=(5, -3, 2))
    np.testing.assert_array_equal(read_gps(s, 0.0, np.random.default_rng(0)),
                                  s.position)
    a = read_gps(s, 0.3, np.random.default_rng(4))
    b = read_gps(s, 0.3, np.random.default_rng(4))
    np.testing.assert_array_equal(a, b)


def test_gps_noise_std():
    s = make_state(pos=(1, 2, 3))
    rng = np.random.default_rng(123)
    reads = np.array([read_gps(s, 0.05, rng) for _ in range(10_000)])
    stds = reads.std(axis=0)
    assert np.all(stds > 0.045) and np.all(stds < 0.055)


@settings(derandomize=True, deadline=None, max_examples=1000)
@given(st.floats(-1e3, 1e3, exclude_min=True, exclude_max=True))
def test_wrap_angle_lands_in_range_by_whole_turns(a):
    w = _wrap_angle(a)
    assert -math.pi <= w <= math.pi
    turns = (a - w) / (2.0 * math.pi)
    assert abs(a - w - 2.0 * math.pi * round(turns)) <= 1e-9


_finite = dict(allow_nan=False, allow_infinity=False)
_vec = st.tuples(*[st.floats(-1.0, 1.0)] * 3)
_command = st.lists(st.floats(-1e3, 1e3, **_finite), min_size=3, max_size=3)


@settings(derandomize=True, deadline=None, max_examples=400)
@given(position=st.tuples(*[st.floats(-1e4, 1e4)] * 3),
       direction=_vec, speed_frac=st.floats(0.0, 1.0),
       roll_pitch=st.tuples(st.floats(-1.0, 1.0), st.floats(-1.0, 1.0)),
       yaw=st.floats(-math.pi, math.pi),
       angular_velocity=st.tuples(*[st.floats(-100.0, 100.0)] * 3),
       time=st.floats(0.0, 1e3), command=_command,
       as_array=st.booleans(), dt=st.floats(1e-3, 0.2))
def test_step_keeps_its_limits(position, direction, speed_frac, roll_pitch,
                               yaw, angular_velocity, time, command,
                               as_array, dt):
    """Any state inside the limits, any command (out of [-1, 1] too,
    as a list or an array): the next state is inside them again."""
    cfg = DynamicsConfig(dt=dt)
    length = norm3(*direction)
    scale = cfg.v_max * speed_frac / length if length > 0 else 0.0
    s = DroneState(position=position,
                   velocity=[c * scale for c in direction],
                   attitude=[*roll_pitch, yaw],
                   angular_velocity=angular_velocity, time=time)
    nxt = step(s, np.array(command) if as_array else command, cfg)

    assert norm3(*nxt.velocity) <= cfg.v_max * (1 + 1e-12)
    roll, pitch, new_yaw = nxt.attitude
    assert abs(roll) <= BANK_CAP and abs(pitch) <= BANK_CAP
    assert -math.pi <= new_yaw <= math.pi
    assert abs(_wrap_angle(new_yaw - yaw)) <= cfg.yaw_rate_max * dt + 1e-12
    assert nxt.time == time + dt


@settings(derandomize=True, deadline=None, max_examples=300)
@given(velocity=st.tuples(*[st.floats(-10.0, 10.0)] * 3),
       yaw=st.floats(-math.pi, math.pi), command=_command,
       as_array=st.booleans())
def test_step_clamps_the_command(velocity, yaw, command, as_array):
    """`step` is the one place an action is bounded: a command outside
    [-1, 1] gives the bit-identical next state of its clipped copy."""
    cfg = DynamicsConfig()
    s = make_state(pos=(1.0, -2.0, 3.0), vel=velocity, yaw=yaw, t=0.5)
    clipped = np.clip(command, -1.0, 1.0)
    cmd = np.array(command) if as_array else command
    assert step(s, cmd, cfg) == step(s, clipped, cfg)
