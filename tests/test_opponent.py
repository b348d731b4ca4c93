import math

import numpy as np
import pytest

from gateracer.geometry import (default_track, sample_spawn,
                                segment_gate_crossing)
from gateracer.opponent import (FollowerState, WaypointPlan, advance,
                                expected_gate_times, plan)

DT = 0.05


def make_follower(pos):
    return FollowerState(position=tuple(map(float, pos)))


def test_plan_structure():
    track = default_track(0, n_gates=4)
    p = plan(track, approach_offset=1.0)
    assert len(p.waypoints) == 8
    for i, gate in enumerate(track.gates):
        np.testing.assert_allclose(p.waypoints[2 * i],
                                   gate.center - gate.normal, atol=1e-12)
        np.testing.assert_array_equal(p.waypoints[2 * i + 1], gate.center)
    assert all(type(c) is float for w in p.waypoints for c in w)


def test_plan_validation():
    with pytest.raises(ValueError):
        WaypointPlan(waypoints=np.zeros((0, 3)))
    with pytest.raises(ValueError):
        WaypointPlan(waypoints=np.zeros((2, 3)), cruise_speed=0.0)
    with pytest.raises(ValueError, match="waypoint 0 must be 3 finite"):
        WaypointPlan(waypoints=[[1.0, 2.0]])
    with pytest.raises(ValueError, match="waypoint 1 must be 3 finite"):
        WaypointPlan(waypoints=[[0.0, 0.0, 1.0], [1.0, math.nan, 1.0]])


def test_expected_times_vs_cumulative_distance():
    # independent oracle: walk the polyline summing euclidean legs
    track = default_track(5)
    p = plan(track)
    start = np.array([3.0, -2.0, 1.0])
    times = expected_gate_times(p, start)
    cum, prev = 0.0, start
    want = []
    for i, wp in enumerate(p.waypoints):
        cum += np.linalg.norm(np.subtract(wp, prev))
        prev = wp
        if i % 2 == 1:  # gate k's centre is waypoint 2k + 1
            want.append(cum / p.cruise_speed)
    np.testing.assert_allclose(times, want, atol=1e-12)
    assert np.all(np.diff(times) > 0)


def test_advance_reaches_gates_on_schedule():
    """Simulated arrival at each gate-center waypoint matches the
    closed-form schedule to within one control step."""
    track = default_track(11)
    p = plan(track)
    start = np.array([2.0, 1.0, 1.2])
    expected = expected_gate_times(p, start)
    st = make_follower(start)
    arrivals = []
    seen = set()
    t = 0.0
    for _ in range(20_000):
        prev_idx = st.waypoint_index
        st = advance(p, st, DT)
        t += DT
        for idx in range(prev_idx, st.waypoint_index):
            if idx % 2 == 1 and idx not in seen:
                seen.add(idx)
                arrivals.append(t)
        if st.waypoint_index >= len(p.waypoints):
            break
    assert len(arrivals) == track.n_gates
    np.testing.assert_allclose(arrivals, expected, atol=DT + 1e-9)


def test_advance_hovers_after_last_waypoint():
    p = WaypointPlan(waypoints=np.array([[1.0, 0.0, 0.0]]), cruise_speed=2.0)
    st = make_follower([0.0, 0.0, 0.0])
    for _ in range(50):
        st = advance(p, st, DT)
    np.testing.assert_array_equal(st.position, [1.0, 0.0, 0.0])
    assert st.waypoint_index == 1


def test_advance_constant_speed_between_waypoints():
    p = WaypointPlan(waypoints=np.array([[100.0, 0.0, 0.0]]),
                     cruise_speed=4.0)
    st = make_follower([0.0, 0.0, 0.0])
    st = advance(p, st, DT)
    np.testing.assert_allclose(st.position, [4.0 * DT, 0.0, 0.0],
                               atol=1e-12)


def test_advance_deterministic():
    track = default_track(2, n_gates=3)
    p = plan(track)
    a = make_follower([0, 0, 1])
    b = make_follower([0, 0, 1])
    for _ in range(200):
        a = advance(p, a, DT)
        b = advance(p, b, DT)
    np.testing.assert_array_equal(a.position, b.position)
    assert a.waypoint_index == b.waypoint_index


@pytest.mark.parametrize("spacing", [(1.0, 40.0), (2.0, 3.0), (10.0, 15.0)])
@pytest.mark.parametrize("cruise_speed,approach_offset",
                         [(4.0, 1.0), (1.0, 0.5), (12.0, 1.0)])
def test_plan_is_flown_on_the_step_its_last_gate_is_crossed(
        spacing, cruise_speed, approach_offset):
    """`race` counts the opponent finished once its waypoint index reaches
    the end of the plan. On tracks whose gates are at least the approach
    offset apart, that is the step on which counting gate crossings, in
    order, passes the last gate."""
    for seed in range(20):
        track = default_track(seed, spacing=spacing)
        p = plan(track, cruise_speed=cruise_speed,
                 approach_offset=approach_offset)
        state = FollowerState(position=sample_spawn(
            track, 0, np.random.default_rng(seed)).position)
        target = 0
        for _ in range(100_000):
            prev = state.position
            state = advance(p, state, DT)
            if target < track.n_gates and segment_gate_crossing(
                    prev, state.position,
                    track.gates[target]) is not None:
                target += 1
            flown = state.waypoint_index == len(p.waypoints)
            assert flown == (target == track.n_gates), seed
            if flown:
                break
        assert flown
