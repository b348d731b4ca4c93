"""`RacingEnv.detect_events` tests each predicate only where it can fire,
and measures only the gates that can be within reach. These tests hold
it to a full scan that tests every gate on every step, with no distance
filter: the same events and the same target distances."""

import dataclasses
import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gateracer import env as env_module
from gateracer.config import RunConfig
from gateracer.dynamics import DroneState, DynamicsConfig
from gateracer.env import RacingEnv
from gateracer.geometry import (Gate, Track, default_track, norm3,
                                segment_frame_collision, segment_gate_crossing)


def full_scan(env, prev, nxt):
    """The oracle: the pass predicate on the target gate and the frame
    predicate on every gate, whatever their distance, plus the distances
    `detect_events` passes on, each measured afresh."""
    gates = env.track.gates
    target = env.status.gates_passed
    passed = segment_gate_crossing(prev.position, nxt.position,
                                   gates[target]) is not None
    collided = any(segment_frame_collision(prev.position, nxt.position, gate,
                                           env.drone_radius)
                   for gate in gates)
    after = target + 1 if passed and target + 1 < len(gates) else target

    def distance(p, g):
        (x, y, z), (cx, cy, cz) = p, gates[g].center
        return norm3(x - cx, y - cy, z - cz)

    return passed, collided, (distance(prev.position, target),
                              distance(nxt.position, target),
                              distance(nxt.position, after))


class Checked:
    """Patches `RacingEnv.detect_events` to compare each call with
    `full_scan`."""

    def __init__(self, mp):
        self.steps = 0
        scheduled = RacingEnv.detect_events

        def detect_events(env, prev, nxt):
            want = full_scan(env, prev, nxt)
            got = scheduled(env, prev, nxt)
            assert got == want
            self.steps += 1
            return got

        mp.setattr(RacingEnv, "detect_events", detect_events)


def make_env(n_gates, seed=3):
    return RacingEnv(default_track(seed, n_gates=n_gates), RunConfig(),
                     np.random.default_rng(seed), np.random.default_rng(seed))


def state(position, velocity=(0.0, 0.0, 0.0), time=0.0):
    return DroneState(position=position, velocity=velocity,
                      attitude=(0.0, 0.0, 0.0),
                      angular_velocity=(0.0, 0.0, 0.0), time=time)


_unit = st.floats(-1.0, 1.0)
_vec = st.tuples(_unit, _unit, _unit)
_moves = st.lists(st.one_of(
    # a random command, clamped to [-1, 1] by the dynamics
    st.tuples(st.just("command"), st.tuples(*[st.floats(-1.5, 1.5)] * 3)),
    # fly at a point up to 2 m from the target gate's centre, so that
    # gates get passed and hit
    st.tuples(st.just("pursue"), _vec),
    # put the agent near a gate, at up to three times v_max
    st.tuples(st.just("teleport"), st.integers(0, 9), _vec, _vec),
    # set the target gate by hand
    st.tuples(st.just("retarget"), st.integers(0, 9)),
    st.tuples(st.just("reset")),
    st.tuples(st.just("save")),
    st.tuples(st.just("load")),
), min_size=1, max_size=60)


@settings(derandomize=True, deadline=None, max_examples=300)
@given(n_gates=st.sampled_from([3, 10]), moves=_moves,
       steps=st.integers(1, 40))
def test_scheduled_events_match_a_full_scan(n_gates, moves, steps):
    with pytest.MonkeyPatch.context() as mp:
        checked = Checked(mp)
        env = make_env(n_gates)
        env.reset()
        v_max = env.dyn_cfg.v_max
        saved = None
        # every example ends with a flight, after whatever came before
        for kind, *args in [*moves, ("pursue", (0.0, 0.0, 0.0))]:
            if kind == "reset":
                env.reset()
            elif kind == "save":
                saved = json.loads(json.dumps(env.state_dict()))
            elif kind == "load" and saved is not None:
                env.load_state_dict(saved)
            elif kind == "retarget":
                env.status = dataclasses.replace(
                    env.status, gates_passed=args[0] % n_gates)
            elif kind == "teleport":
                gate, offset, velocity = args
                gate = env.track.gates[gate % n_gates]
                env.agent = state(
                    [c + 5.0 * o for c, o in zip(gate.center, offset)],
                    [3.0 * v_max * v for v in velocity], env.agent.time)
            for _ in range(steps if kind in ("command", "pursue") else 0):
                if kind == "command":
                    action = args[0]
                else:
                    gate = env.track.gates[env.status.gates_passed]
                    to_aim = (gate.center + 2.0 * np.asarray(args[0])
                              - env.agent.position)
                    action = (to_aim / max(np.linalg.norm(to_aim), 1e-9)
                              - 0.06 * np.asarray(env.agent.velocity))
                if env.step(action)[1]:
                    env.reset()
        assert checked.steps > 0


def test_gate_reached_in_one_straight_step_is_measured():
    """The triangle inequality is tight on a straight flight at a gate's
    centre: a step that ends just inside the frame radius, where the
    frame predicate can first fire, has flown just the distance the
    schedule allowed, and rounding can put the summed path a hair short
    of it. The margin covers that: the gate is measured, and its frame
    predicate tested, on that step."""
    rng = np.random.default_rng(0)
    with pytest.MonkeyPatch.context() as mp:
        checked = Checked(mp)
        tested = []

        def recording(p0, p1, gate, drone_radius):
            tested.append(gate.id)
            return segment_frame_collision(p0, p1, gate, drone_radius)

        mp.setattr(env_module, "segment_frame_collision", recording)
        env = make_env(10)
        for _ in range(400):
            env.reset()
            g = int(rng.integers(1, 10))
            gate = env.track.gates[g]
            # the frame band's farthest corner
            radius = math.hypot(gate.frame_thickness / 2 + env.drone_radius,
                                gate.half_width + gate.frame_thickness,
                                gate.half_height + gate.frame_thickness)
            center = np.array(gate.center)
            ray = rng.normal(size=3)
            ray /= np.linalg.norm(ray)
            start = state((center + rng.uniform(radius + 0.5, radius + 8.0)
                           * ray).tolist())
            # the first step measures every gate where it ends ...
            mid = state((np.asarray(start.position)
                         + rng.uniform(0.0, 0.2) * ray).tolist())
            env.detect_events(start, mid)
            # ... and the second flies straight at gate g's centre, ending
            # within a few ulps of its frame radius
            rel = np.asarray(mid.position) - center
            shrink = 1.0 - rng.integers(0, 4) * 2.0 ** -52
            end = center + rel * (radius * shrink / math.sqrt(rel @ rel))
            tested.clear()
            env.detect_events(mid, state(end.tolist()))
            assert g in tested
        assert checked.steps == 800


def test_a_step_faster_than_v_max_finds_every_frame_hit():
    """A state faster than v_max, as a resume that lowers v_max leaves,
    flies farther in one step than the reaches allow for. Here v_max is
    5 m/s and every step is 0.8 m long, 16 m/s: eight steps along the
    normal of a gate at the origin into its opening, then one diagonally
    in its plane out through one point of a 6 x 6 grid on the frame
    band's corner. That last step reports its hit, and no earlier one
    does. The gate is not the target, so it is measured on the
    schedule."""
    track = Track([Gate(0, np.array([0.0, 0.0, 40.0]), 0.0),
                   Gate(1, np.zeros(3), 0.0)])
    env = RacingEnv(track, RunConfig(dynamics=DynamicsConfig(v_max=5.0)))
    env.reset()
    gate = track.gates[1]
    band = [gate.half_width + gate.frame_thickness * (k + 0.5) / 6
            for k in range(6)]
    step = 0.8
    diagonal = np.array([0.0, 1.0, 1.0]) / math.sqrt(2.0)
    normal = np.array([1.0, 0.0, 0.0])
    with pytest.MonkeyPatch.context() as mp:
        checked = Checked(mp)
        for u in band:
            for v in band:
                start = np.array([0.0, u, v]) - 0.5 * step * diagonal
                points = [start - k * step * normal for k in range(8, 0, -1)]
                points += [start, start + step * diagonal]
                path = [state(p.tolist(), (16.0 * normal).tolist())
                        for p in points]
                hits = [env.detect_events(a, b)[1]
                        for a, b in zip(path, path[1:])]
                assert hits == [False] * 8 + [True], (u, v)
    assert checked.steps == 36 * 9
