import numpy as np
import pytest

from gateracer.dynamics import DroneState
from gateracer.geometry import default_track
from gateracer.opponent import expected_gate_times, plan
from gateracer.rewards import (RewardConfig, TERM_ALL_GATES,
                               TERM_COLLISION_LIMIT, TERM_NONE,
                               TERM_TIME_LIMIT, TERM_TOO_FAR,
                               check_termination, compute_step, init_status,
                               resolved_time_limit)


def state_at(pos, t=0.0):
    return DroneState(position=np.array(pos, dtype=float),
                      velocity=np.zeros(3), attitude=np.zeros(3),
                      angular_velocity=np.zeros(3), time=t)


@pytest.fixture
def track():
    return default_track(1, n_gates=3)


@pytest.fixture
def opp_times(track):
    return expected_gate_times(plan(track), track.gates[0].center
                               - 3.0 * track.gates[0].normal)


def test_config_validation():
    with pytest.raises(ValueError):
        RewardConfig(pass_reward=0.0)
    with pytest.raises(ValueError):
        RewardConfig(collision_penalty=1.0)
    with pytest.raises(ValueError):
        RewardConfig(timer_multiplier=0.5)
    with pytest.raises(ValueError):
        RewardConfig(pass_check_radius=4.0)  # above proximity_radius


def test_init_status_arithmetic(track):
    cfg = RewardConfig()
    times = np.array([2.5, 5.0, 7.5])
    st = init_status(track, times, cfg, t0=0.0)
    assert st.gate_deadline == pytest.approx(5.0)
    assert st.gates_passed == 0 and st.done == TERM_NONE


def test_init_status_length_mismatch(track):
    with pytest.raises(ValueError):
        init_status(track, [1.0], RewardConfig())


def test_progress_reward_one_meter(track, opp_times):
    cfg = RewardConfig()
    st = init_status(track, opp_times, cfg)
    center = track.gates[0].center
    d0 = center + 6.0 * track.gates[0].normal * -1.0
    prev = state_at(d0)
    nxt = state_at(d0 + track.gates[0].normal, t=0.05)
    r, _ = compute_step(prev, nxt, st, False, False, cfg, opp_times, track)
    assert r == pytest.approx(cfg.progress_coef * 1.0, abs=1e-12)


def test_proximity_bonus_inside_band(track, opp_times):
    cfg = RewardConfig()
    st = init_status(track, opp_times, cfg)
    center = track.gates[0].center
    p = center - 2.0 * track.gates[0].normal
    r, _ = compute_step(state_at(p), state_at(p, t=0.05), st, False, False,
                        cfg, opp_times, track)
    assert r == pytest.approx(cfg.proximity_bonus)


def test_pass_event_reward_and_deadline(track, opp_times):
    cfg = RewardConfig()
    st = init_status(track, opp_times, cfg)
    center = track.gates[0].center
    prev = state_at(center - 0.2 * track.gates[0].normal, t=1.0)
    nxt = state_at(center + 0.2 * track.gates[0].normal, t=1.05)
    r, st2 = compute_step(prev, nxt, st, True, False, cfg, opp_times, track)
    assert r >= cfg.pass_reward
    assert st2.gates_passed == 1
    budget = cfg.timer_multiplier * (opp_times[1] - opp_times[0])
    assert st2.gate_deadline == pytest.approx(1.05 + budget)


def test_deadlines_replayed_match_budgets(track, opp_times):
    # replay passes of every gate; each new deadline must equal pass time
    # plus multiplier x opponent inter-gate delta
    cfg = RewardConfig()
    st = init_status(track, opp_times, cfg)
    t = 0.0
    for gate_idx in range(track.n_gates - 1):
        gate = track.gates[gate_idx]
        t += 1.0
        prev = state_at(gate.center - 0.1 * gate.normal, t=t - 0.05)
        nxt = state_at(gate.center + 0.1 * gate.normal, t=t)
        _, st = compute_step(prev, nxt, st, True, False, cfg, opp_times,
                             track)
        budget = cfg.timer_multiplier * (opp_times[gate_idx + 1]
                                         - opp_times[gate_idx])
        assert st.gate_deadline == pytest.approx(t + budget)


def test_collision_penalty_and_count(track, opp_times):
    cfg = RewardConfig()
    st = init_status(track, opp_times, cfg)
    p = track.gates[0].center - 5.0 * track.gates[0].normal
    r, st2 = compute_step(state_at(p), state_at(p, t=0.05), st,
                          False, True, cfg, opp_times, track)
    assert r == pytest.approx(cfg.collision_penalty)
    assert st2.collisions == 1


def test_stuck_penalty_near_passed_gate(track, opp_times):
    cfg = RewardConfig()
    st = init_status(track, opp_times, cfg)
    gate0 = track.gates[0]
    # pass gate 0 at t=1
    _, st = compute_step(state_at(gate0.center - 0.1 * gate0.normal, 0.95),
                         state_at(gate0.center + 0.1 * gate0.normal, 1.0),
                         st, True, False, cfg, opp_times, track)
    # hover 1 m past gate 0, after the new deadline has expired
    late = st.gate_deadline + 5.0
    spot = gate0.center + 1.0 * gate0.normal
    r, _ = compute_step(state_at(spot, late - 0.05), state_at(spot, late),
                        st, False, False, cfg, opp_times, track)
    d_prev = np.linalg.norm(spot - track.gates[1].center)
    base = 0.0  # zero movement: no progress term
    if d_prev < cfg.proximity_radius:
        base += cfg.proximity_bonus
    assert r == pytest.approx(base + cfg.stuck_penalty)


def test_no_stuck_penalty_before_first_pass(track, opp_times):
    cfg = RewardConfig()
    st = init_status(track, opp_times, cfg)
    late = st.gate_deadline + 10.0
    p = track.gates[0].center - 1.0 * track.gates[0].normal
    r, _ = compute_step(state_at(p, late - 0.05), state_at(p, late), st,
                        False, False, cfg, opp_times, track)
    assert r == pytest.approx(cfg.proximity_bonus)


def test_compute_step_after_done_raises(track, opp_times):
    cfg = RewardConfig()
    st = init_status(track, opp_times, cfg)
    st.done = TERM_TIME_LIMIT
    with pytest.raises(ValueError):
        compute_step(state_at([0, 0, 0]), state_at([0, 0, 0], 0.05), st,
                     False, False, cfg, opp_times, track)


def test_termination_priorities(track, opp_times):
    cfg = RewardConfig()
    st = init_status(track, opp_times, cfg)
    far = state_at(track.gates[0].center + np.array([25.0, 0, 0]), t=1.0)

    st.gates_passed = track.n_gates
    # all_gates wins even when the state is also too far / out of time
    far_late = state_at(far.position, t=1e9)
    assert check_termination(far_late, st, cfg, track) == TERM_ALL_GATES

    st.gates_passed = 0
    assert check_termination(far, st, cfg, track) == TERM_TOO_FAR

    near = state_at(track.gates[0].center, t=1.0)
    st.collisions = cfg.collision_limit
    assert check_termination(near, st, cfg, track) == TERM_COLLISION_LIMIT

    st.collisions = 0
    late = state_at(track.gates[0].center,
                    t=resolved_time_limit(cfg, track) + 0.1)
    assert check_termination(late, st, cfg, track) == TERM_TIME_LIMIT
    assert check_termination(near, st, cfg, track) == TERM_NONE


def test_time_limit_override(track):
    assert resolved_time_limit(RewardConfig(), track) == track.time_limit
    assert resolved_time_limit(RewardConfig(time_limit=7.0), track) == 7.0
