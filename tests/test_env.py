import copy
import json
import math

import numpy as np
import pytest

from gateracer.dynamics import DroneState, DynamicsConfig
from gateracer.env import (OBS_DIM, RacingEnv, TIMER_OBS_SCALE,
                           build_observation)
from gateracer.geometry import (Gate, Track, default_track,
                                segment_frame_collision, track_from_dict)
from gateracer.rewards import RewardConfig, TERM_TIME_LIMIT


def make_env(track_seed=1, n_gates=3, **reward_kw):
    track = default_track(track_seed, n_gates=n_gates)
    return RacingEnv(track, DynamicsConfig(), RewardConfig(**reward_kw),
                     spawn_rng=np.random.default_rng(0),
                     sensor_rng=np.random.default_rng(1))


def test_observation_dimension():
    env = make_env()
    obs = env.reset()
    assert obs.shape == (OBS_DIM,)
    assert np.all(np.isfinite(obs))


def test_observation_layout():
    """With zero sensor noise each block is an exact projection of the
    simulation state."""
    env = make_env()
    env.reset()
    obs = env.observe()
    agent = env.agent
    np.testing.assert_array_equal(obs[0:3], agent.velocity)
    np.testing.assert_array_equal(obs[3:6], agent.angular_velocity)
    np.testing.assert_array_equal(obs[6:9], agent.attitude)
    np.testing.assert_array_equal(obs[9:12], agent.position)

    gate = env.track.gates[0]
    rel = gate.center - agent.position
    yaw = agent.yaw
    c, s = math.cos(yaw), math.sin(yaw)
    want = [c * rel[0] + s * rel[1], -s * rel[0] + c * rel[1], rel[2]]
    np.testing.assert_allclose(obs[12:15], want, atol=1e-12)
    # magnitude is rotation-invariant
    assert np.linalg.norm(obs[12:15]) == pytest.approx(np.linalg.norm(rel))

    rel_yaw = obs[15]
    assert -math.pi <= rel_yaw <= math.pi
    assert rel_yaw == pytest.approx(
        (gate.yaw - yaw + math.pi) % (2 * math.pi) - math.pi)

    opp_rel = np.asarray(env.opp.drone.position) - agent.position
    want_opp = [c * opp_rel[0] + s * opp_rel[1],
                -s * opp_rel[0] + c * opp_rel[1], opp_rel[2]]
    np.testing.assert_allclose(obs[16:19], want_opp, atol=1e-12)

    assert obs[19] == 0.0  # no gates passed yet
    assert obs[20] == pytest.approx(
        (env.status.gate_deadline - agent.time) * TIMER_OBS_SCALE)


def test_observe_after_done_raises():
    env = make_env()
    env.reset()
    env.status.done = TERM_TIME_LIMIT
    with pytest.raises(ValueError):
        env.observe()


def test_step_straight_through_gate_registers_pass():
    env = make_env()
    env.reset()
    gate = env.track.gates[0]
    # place the agent just in front of the opening, flying along the normal
    env.agent = DroneState(position=gate.center - 0.4 * gate.normal,
                           velocity=10.0 * gate.normal,
                           attitude=np.array([0.0, 0.0, gate.yaw]),
                           angular_velocity=np.zeros(3), time=0.5)
    reward, done = env.step(np.zeros(3))
    assert env.status.gates_passed == 1
    assert reward > env.reward_cfg.pass_reward * 0.9


def test_pass_detected_near_opening_edge():
    """Crossings far from the center but inside the opening must count."""
    env = make_env()
    env.reset()
    gate = env.track.gates[0]
    edge = (gate.center + 1.3 * gate.u_axis
            + np.array([0.0, 0.0, -1.3]))
    env.agent = DroneState(position=edge - 0.4 * gate.normal,
                           velocity=10.0 * gate.normal,
                           attitude=np.array([0.0, 0.0, gate.yaw]),
                           angular_velocity=np.zeros(3), time=0.5)
    env.step(np.zeros(3))
    assert env.status.gates_passed == 1


def test_frame_hit_registers_collision():
    env = make_env()
    env.reset()
    gate = env.track.gates[0]
    hit_point = gate.center + (gate.half_width
                               + gate.frame_thickness / 2) * gate.u_axis
    env.agent = DroneState(position=hit_point - 0.4 * gate.normal,
                           velocity=10.0 * gate.normal,
                           attitude=np.array([0.0, 0.0, gate.yaw]),
                           angular_velocity=np.zeros(3), time=0.5)
    reward, done = env.step(np.zeros(3))
    assert env.status.collisions == 1
    assert reward < 0


def test_frame_corner_hit_registers_collision():
    """A step that clips the frame near a corner of the band, ending
    farther from the gate centre than max(hw, hh) + ft + r + v_max*dt,
    must still count."""
    env = RacingEnv(Track([Gate(0, np.zeros(3), 0.0)]), DynamicsConfig(),
                    RewardConfig())
    env.reset()
    gate = env.track.gates[0]
    d = np.array([-0.2, 1.0, 1.0])
    d /= np.linalg.norm(d)
    p0 = np.array([0.426, 1.70, 1.70])
    p1 = p0 + 0.74 * d

    def state(p):
        return DroneState(position=p, velocity=np.zeros(3),
                          attitude=np.zeros(3), angular_velocity=np.zeros(3))

    assert segment_frame_collision(p0, p1, gate, env.drone_radius)
    assert np.linalg.norm(p1) > (max(gate.half_width, gate.half_height)
                                 + gate.frame_thickness + env.drone_radius
                                 + env.dyn_cfg.v_max * env.dyn_cfg.dt)
    assert env.detect_events(state(p0), state(p1))[1]
    # the step before does not touch the frame, so this one is the only hit
    assert not env.detect_events(state(p0 - 0.74 * d), state(p0))[1]


def test_status_on_termination():
    env = make_env(time_limit=0.2)
    env.reset()
    total = 0.0
    steps = 0
    while True:
        reward, done = env.step(np.zeros(3))
        total += reward
        steps += 1
        if done:
            break
        env.observe()
    assert env.status.done == TERM_TIME_LIMIT
    assert env.agent.time == pytest.approx(steps * env.dyn_cfg.dt)
    assert env.status.episode_return == pytest.approx(total)
    assert env.status.gates_passed == 0


def test_opponent_advances_during_episode():
    env = make_env()
    env.reset()
    p0 = env.opp.drone.position
    for _ in range(20):
        _, done = env.step(np.zeros(3))
        if done:
            break
    assert np.linalg.norm(np.asarray(env.opp.drone.position) - p0) > 1.0


def test_reset_uses_spawn_band():
    env = make_env()
    for _ in range(50):
        env.reset()
        d = np.linalg.norm(env.agent.position - env.track.gates[0].center)
        assert 2.0 <= d <= 3.5
        assert env.status.gates_passed == 0


def test_state_dict_roundtrip_continues_bitwise():
    """A mid-episode state passed through JSON, loaded into a fresh env on
    the same track with copies of the random streams, continues the
    episode bit for bit."""
    dyn = DynamicsConfig(imu_noise_std=(0.05,) * 7, gps_noise_std=0.1)
    actions = np.random.default_rng(7).uniform(-0.3, 1.0, (400, 3))
    env = RacingEnv(default_track(1, n_gates=3), dyn, RewardConfig(),
                    spawn_rng=np.random.default_rng(0),
                    sensor_rng=np.random.default_rng(1))
    env.reset()
    for a in actions[:40]:
        _, done = env.step(a)
        assert not done
        env.observe()

    state = json.loads(json.dumps(env.state_dict()))
    other = RacingEnv(track_from_dict(state["track"]), dyn, RewardConfig(),
                      spawn_rng=copy.deepcopy(env.spawn_rng),
                      sensor_rng=copy.deepcopy(env.sensor_rng))
    other.load_state_dict(state)
    for a in actions[40:]:
        r1, done = env.step(a)
        r2, done2 = other.step(a)
        assert r1 == r2 and done == done2
        if done:
            break
        np.testing.assert_array_equal(env.observe(), other.observe())
    assert done
    assert env.status == other.status
    assert env.agent.time == other.agent.time


def test_step_after_done_raises_and_changes_nothing():
    """Stepping a finished episode raises before the opponent or the
    agent moves."""
    env = make_env(time_limit=0.2)
    env.reset()
    done = False
    while not done:
        _, done = env.step(np.array([0.5, 0.0, 0.0]))
    assert env.status.done == TERM_TIME_LIMIT
    agent, opp, status = env.agent, copy.deepcopy(env.opp), env.status
    with pytest.raises(ValueError):
        env.step(np.array([0.5, 0.0, 0.0]))
    assert env.agent is agent and env.status is status
    assert env.opp == opp


def _assert_float_triples(*vectors):
    for v in vectors:
        assert type(v) is tuple and len(v) == 3
        assert all(type(x) is float for x in v), v


def _assert_float_state(s: DroneState):
    _assert_float_triples(s.position, s.velocity, s.attitude,
                          s.angular_velocity)


def test_every_drone_state_holds_float_triples():
    """However a state is built, its vectors are 3-tuples of Python floats
    (not np.float64), and the sensor readings are tuples too."""
    from gateracer import dynamics, opponent
    from gateracer.geometry import sample_spawn

    env = make_env()
    env.reset()
    spawn = sample_spawn(env.track, 0, np.random.default_rng(3))
    _assert_float_state(spawn)
    _assert_float_state(spawn.copy())
    nxt = dynamics.step(spawn, np.array([0.4, -0.2, 0.1]), 0.05,
                        env.dyn_cfg)
    _assert_float_state(nxt)
    _assert_float_state(dynamics.step(nxt, [1, 0, 0], 0.05, env.dyn_cfg))
    follower = opponent.advance(env.plan, env.opp, 0.05)
    _assert_float_state(follower.drone)
    _assert_float_state(DroneState(position=np.array([1.0, 2.0, 3.0]),
                                   velocity=np.zeros(3),
                                   attitude=np.array([0.1, 0.2, 0.3]),
                                   angular_velocity=[0, 0, 1]))

    for _ in range(5):
        env.step(np.array([0.5, 0.1, 0.0]))
    state = json.loads(json.dumps(env.state_dict()))
    other = make_env()
    other.load_state_dict(state)
    _assert_float_state(other.agent)
    _assert_float_state(other.opp.drone)
    assert json.loads(json.dumps(other.state_dict())) == state

    rng = np.random.default_rng(0)
    for noise in ((0.0,) * 7, (0.1,) * 7):
        imu = dynamics.read_imu(env.agent, noise, rng)
        _assert_float_triples(imu.linear_velocity, imu.angular_velocity,
                              imu.attitude)
    for noise in (0.0, 0.2):
        _assert_float_triples(dynamics.read_gps(env.agent, noise, rng))
    obs = env.observe()
    assert obs.dtype == np.float64 and obs.shape == (OBS_DIM,)


def test_drone_state_vectors_cannot_be_written_in_place():
    env = make_env()
    env.reset()
    with pytest.raises(TypeError):
        env.agent.position[0] = 1.0
