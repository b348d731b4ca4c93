import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gateracer.geometry import (Gate, Track, default_track, dump_track,
                                load_track, sample_spawn, save_track,
                                segment_frame_collision,
                                segment_gate_crossing)


def make_gate(center=(0.0, 0.0, 1.5), yaw=0.0, hw=1.5, hh=1.5, ft=0.25):
    return Gate(id=0, center=np.array(center), yaw=yaw, half_width=hw,
                half_height=hh, frame_thickness=ft)


# --- independent dense-sampling oracles -------------------------------

def crossing_oracle(p0, p1, gate, n=2048):
    """Sample the segment, find the plane-side change, interpolate, and
    check the opening bounds."""
    ts = np.linspace(0.0, 1.0, n)
    pts = p0[None, :] + ts[:, None] * (p1 - p0)[None, :]
    normal = gate.normal
    d = (pts - gate.center) @ normal
    for i in range(n - 1):
        if d[i] < 0.0 and d[i + 1] >= 0.0:
            f = -d[i] / (d[i + 1] - d[i])
            p = pts[i] + f * (pts[i + 1] - pts[i])
            u = (p - gate.center) @ gate.u_axis
            v = p[2] - gate.center[2]
            if abs(u) <= gate.half_width and abs(v) <= gate.half_height:
                return p
            return None
    return None


def collision_oracle(p0, p1, gate, radius, n=8193):
    ts = np.linspace(0.0, 1.0, n)
    pts = p0[None, :] + ts[:, None] * (p1 - p0)[None, :]
    rel = pts - gate.center
    d = rel @ gate.normal
    u = rel @ gate.u_axis
    v = rel[:, 2]
    slab = np.abs(d) <= gate.frame_thickness / 2 + radius
    outer = ((np.abs(u) <= gate.half_width + gate.frame_thickness)
             & (np.abs(v) <= gate.half_height + gate.frame_thickness))
    inner = (np.abs(u) <= gate.half_width) & (np.abs(v) <= gate.half_height)
    return bool(np.any(slab & outer & ~inner))


# --- default_track -----------------------------------------------------

def test_default_track_deterministic():
    assert dump_track(default_track(42)) == dump_track(default_track(42))


@pytest.mark.parametrize("seed", [0, 1, 42, 999])
def test_default_track_spacing_and_count(seed):
    track = default_track(seed)
    assert track.n_gates == 10
    dists = [np.linalg.norm(track.gates[i + 1].center - track.gates[i].center)
             for i in range(9)]
    assert len(dists) == 9
    assert all(10.0 <= d <= 15.0 for d in dists)


def test_track_gate_id_invariant():
    gates = [make_gate()]
    gates[0].id = 3
    with pytest.raises(ValueError):
        Track(gates=gates)


# --- segment_gate_crossing --------------------------------------------

def test_crossing_through_center():
    gate = make_gate()
    p = segment_gate_crossing(np.array([-1.0, 0.0, 1.5]),
                              np.array([1.0, 0.0, 1.5]), gate)
    assert p is not None
    np.testing.assert_allclose(p, [0.0, 0.0, 1.5], atol=1e-12)


def test_crossing_outside_opening():
    gate = make_gate()
    p = segment_gate_crossing(np.array([-1.0, 2.0, 1.5]),
                              np.array([1.0, 2.0, 1.5]), gate)
    assert p is None


def test_crossing_wrong_direction():
    gate = make_gate()
    p = segment_gate_crossing(np.array([1.0, 0.0, 1.5]),
                              np.array([-1.0, 0.0, 1.5]), gate)
    assert p is None


def test_degenerate_segment():
    gate = make_gate()
    q = np.array([-1.0, 0.0, 1.5])
    assert segment_gate_crossing(q, q, gate) is None


def test_crossing_vs_dense_oracle():
    gate = make_gate()
    rng = np.random.default_rng(12345)
    hits = 0
    for _ in range(10_000):
        p0 = rng.uniform(-4, 4, 3) + gate.center
        p1 = rng.uniform(-4, 4, 3) + gate.center
        got = segment_gate_crossing(p0, p1, gate)
        want = crossing_oracle(p0, p1, gate)
        assert (got is None) == (want is None)
        if got is not None:
            np.testing.assert_allclose(got, want, atol=1e-8)
            hits += 1
    assert hits > 100  # the sample actually exercises the positive case


# --- segment_frame_collision ------------------------------------------

def test_collision_open_aperture():
    gate = make_gate()
    assert not segment_frame_collision(np.array([-1.0, 0.0, 1.5]),
                                       np.array([1.0, 0.0, 1.5]), gate, 0.3)


def test_collision_mid_frame():
    gate = make_gate()
    u = gate.half_width + gate.frame_thickness / 2
    p = gate.center + u * gate.u_axis
    assert segment_frame_collision(p - gate.normal, p + gate.normal, gate, 0.3)


def test_collision_requires_positive_radius():
    gate = make_gate()
    with pytest.raises(ValueError):
        segment_frame_collision(np.zeros(3), np.ones(3), gate, 0.0)


def test_collision_vs_dense_oracle():
    gate = make_gate()
    rng = np.random.default_rng(999)
    positives = 0
    for _ in range(10_000):
        p0 = rng.uniform(-4, 4, 3) + gate.center
        p1 = rng.uniform(-4, 4, 3) + gate.center
        got = segment_frame_collision(p0, p1, gate, 0.3)
        assert got == collision_oracle(p0, p1, gate, 0.3)
        positives += got
    assert positives > 100


# Segment components are drawn exactly 0 often enough to hit level flight
# (dz == 0) and motion parallel to the gate plane (zero normal component at
# yaw 0): the b == 0 branches of the interval solver, which uniform random
# segments never reach.
_coord = st.floats(-2.0, 2.0)
_component = st.one_of(st.just(0.0), st.floats(-4.0, 4.0))
_yaw = st.one_of(st.sampled_from([0.0, math.pi / 2, -math.pi / 2, math.pi]),
                 st.floats(-math.pi, math.pi))


@settings(derandomize=True, deadline=None, max_examples=400)
@given(start=st.tuples(_coord, _coord, _coord),
       delta=st.tuples(_component, _component, _component), yaw=_yaw)
def test_predicates_vs_dense_oracle_on_axis_aligned_segments(start, delta,
                                                             yaw):
    gate = make_gate(yaw=yaw)
    p0 = gate.center + np.array(start)
    p1 = p0 + np.array(delta)

    got = segment_gate_crossing(p0, p1, gate)
    want = crossing_oracle(p0, p1, gate)
    if (got is None) != (want is None):  # grazing: a sampling artifact
        want = crossing_oracle(p0, p1, gate, n=65_537)
    assert (got is None) == (want is None)
    if got is not None:
        np.testing.assert_allclose(got, want, atol=1e-8)

    hit = segment_frame_collision(p0, p1, gate, 0.3)
    if hit != collision_oracle(p0, p1, gate, 0.3):
        assert hit == collision_oracle(p0, p1, gate, 0.3, n=262_145)


def test_crossing_and_collision_mutually_consistent():
    # the plane-intersection point of an inner-opening crossing can never
    # lie in the frame annulus
    gate = make_gate()
    rng = np.random.default_rng(7)
    for _ in range(2_000):
        p0 = rng.uniform(-4, 4, 3) + gate.center
        p1 = rng.uniform(-4, 4, 3) + gate.center
        point = segment_gate_crossing(p0, p1, gate)
        if point is None:
            continue
        u = (point - gate.center) @ gate.u_axis
        v = point[2] - gate.center[2]
        in_inner = abs(u) <= gate.half_width and abs(v) <= gate.half_height
        assert in_inner


def test_crossing_rigid_transform_equivariance():
    rng = np.random.default_rng(42)
    for _ in range(1_000):
        gate = make_gate(center=rng.uniform(-5, 5, 3),
                         yaw=rng.uniform(-np.pi, np.pi))
        p0 = gate.center + rng.uniform(-3, 3, 3)
        p1 = gate.center + rng.uniform(-3, 3, 3)
        phi = rng.uniform(-np.pi, np.pi)
        shift = rng.uniform(-10, 10, 3)
        c, s = math.cos(phi), math.sin(phi)
        rot = np.array([[c, -s, 0.0], [s, c, 0.0], [0.0, 0.0, 1.0]])
        gate2 = Gate(id=0, center=rot @ gate.center + shift,
                     yaw=gate.yaw + phi, half_width=gate.half_width,
                     half_height=gate.half_height,
                     frame_thickness=gate.frame_thickness)
        a = segment_gate_crossing(p0, p1, gate)
        b = segment_gate_crossing(rot @ p0 + shift, rot @ p1 + shift, gate2)
        assert (a is None) == (b is None)
        if a is not None:
            np.testing.assert_allclose(rot @ a + shift, b, atol=1e-9)
        ca = segment_frame_collision(p0, p1, gate, 0.3)
        cb = segment_frame_collision(rot @ p0 + shift, rot @ p1 + shift,
                                     gate2, 0.3)
        assert ca == cb


# --- sample_spawn ------------------------------------------------------

def test_spawn_distance_band_and_ks():
    track = default_track(3)
    rng = np.random.default_rng(11)
    dists = []
    for _ in range(10_000):
        st = sample_spawn(track, 0, rng)
        d = np.linalg.norm(st.position - track.gates[0].center)
        assert 2.0 <= d <= 3.5
        dists.append(d)
    # Kolmogorov-Smirnov statistic against Uniform(2.0, 3.5)
    xs = np.sort(dists)
    cdf = (xs - 2.0) / 1.5
    n = len(xs)
    emp_hi = np.arange(1, n + 1) / n
    emp_lo = np.arange(0, n) / n
    ks = max(np.max(np.abs(emp_hi - cdf)), np.max(np.abs(cdf - emp_lo)))
    assert ks < 0.02


def test_spawn_deterministic_and_facing():
    track = default_track(3)
    a = sample_spawn(track, 2, np.random.default_rng(5))
    b = sample_spawn(track, 2, np.random.default_rng(5))
    np.testing.assert_array_equal(a.position, b.position)
    assert np.all(a.velocity == 0.0)
    to_gate = track.gates[2].center - a.position
    assert abs(math.atan2(to_gate[1], to_gate[0]) - a.yaw) < 1e-12


def test_spawn_invalid_gate():
    track = default_track(3)
    with pytest.raises(ValueError):
        sample_spawn(track, 10, np.random.default_rng(0))


# --- track file format -------------------------------------------------

def test_track_file_roundtrip(tmp_path):
    track = default_track(42)
    path = tmp_path / "track.yaml"
    save_track(track, path)
    loaded = load_track(path)
    assert dump_track(loaded) == dump_track(track)
    for g1, g2 in zip(track.gates, loaded.gates):
        np.testing.assert_array_equal(g1.center, g2.center)
        assert g1.yaw == g2.yaw
