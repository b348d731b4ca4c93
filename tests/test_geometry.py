import dataclasses
import json
import math

import numpy as np
import pytest
import yaml
from hypothesis import given, settings
from hypothesis import strategies as st

from gateracer.cli import main as cli_main
from gateracer.geometry import (Gate, Track, default_track, dump_track,
                                load_track, sample_spawn, save_track,
                                segment_frame_collision,
                                segment_gate_crossing, track_from_dict,
                                track_to_dict)


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
    dists = [np.linalg.norm(np.subtract(track.gates[i + 1].center,
                                     track.gates[i].center))
             for i in range(9)]
    assert len(dists) == 9
    assert all(10.0 <= d <= 15.0 for d in dists)


@pytest.mark.parametrize("seed", [0, 1, 42, 999])
def test_spacing_below_max_climb_bounds_the_climb(seed):
    # the default max_climb (1 m) exceeds every spacing here
    track = default_track(seed, spacing=(0.1, 0.2))
    dists = [np.linalg.norm(np.subtract(b.center, a.center))
             for a, b in zip(track.gates[:-1], track.gates[1:])]
    assert all(0.1 - 1e-12 <= d <= 0.2 + 1e-12 for d in dists)


def test_track_gate_id_invariant():
    with pytest.raises(ValueError):
        Track(gates=[Gate(id=3, center=(0.0, 0.0, 1.5), yaw=0.0)])


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


def test_gate_keeps_its_own_centre_and_is_frozen():
    """The predicates read the centre and normal that a gate keeps as
    floats: the gate copies the centre it is given, and no field of it
    can be assigned."""
    source = np.array([0.0, 0.0, 1.5])
    gate = make_gate(center=source)
    source[0] = 5.0
    assert gate.center == (0.0, 0.0, 1.5)
    assert all(type(c) is float for c in gate.center)
    p0, p1 = np.array([4.0, 0.0, 1.5]), np.array([6.0, 0.0, 1.5])
    assert segment_gate_crossing(p0, p1, gate) is None
    for name, value in (("center", (5.0, 0.0, 1.5)), ("yaw", math.pi),
                        ("id", 1)):
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(gate, name, value)
    assert (gate.id, gate.center, gate.yaw) == (0, (0.0, 0.0, 1.5), 0.0)
    assert gate.normal_xy == (1.0, 0.0)


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
        u = np.subtract(point, gate.center) @ gate.u_axis
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
        d = np.linalg.norm(np.subtract(st.position, track.gates[0].center))
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
    assert np.all(np.asarray(a.velocity) == 0.0)
    to_gate = np.subtract(track.gates[2].center, a.position)
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
    assert loaded == track
    assert dump_track(loaded) == dump_track(track)
    for g1, g2 in zip(track.gates, loaded.gates):
        np.testing.assert_array_equal(g1.center, g2.center)
        assert g1.yaw == g2.yaw


@pytest.mark.parametrize("seed", [0, 1, 42, 999])
@pytest.mark.parametrize("n_gates", [1, 3, 10])
def test_track_json_roundtrip(seed, n_gates):
    """A checkpoint stores its track as JSON and rebuilds it from there."""
    track = default_track(seed, n_gates=n_gates)
    data = json.loads(json.dumps(track_to_dict(track)))
    assert track_from_dict(data) == track


def _set(key, value):
    def edit(data):
        data[key] = value
    return edit


def _drop(key):
    def edit(data):
        del data[key]
    return edit


def _drop_gate_field(data):
    del data["gates"][1]["half_width"]


def _set_gate_field(key, value):
    def edit(data):
        data["gates"][1][key] = value
    return edit


@pytest.mark.parametrize("edit,field", [
    # sample_spawn's square root would take a negative number at reset
    (_set("spawn_band", [0.1, 0.2]), "spawn_band"),
    (_set("spawn_band", [3.5, 2.0]), "spawn_band"),
    (_set("spawn_band", [2.0, math.inf]), "spawn_band"),
    (_drop("spawn_band"), "spawn_band"),
    (_set("time_limit", 0.0), "time_limit"),
    (_set("time_limit", -5.0), "time_limit"),
    (_drop("time_limit"), "time_limit"),
    (_set("gates", []), "gate"),
    (_drop("gates"), "gates"),
    (_drop_gate_field, "half_width"),
    # eval would die on a numpy broadcast error, or fly NaN geometry
    (_set_gate_field("center", [1.0, 2.0]), "center"),
    (_set_gate_field("center", [1.0, math.inf, 2.0]), "center"),
    (_set_gate_field("yaw", math.nan), "yaw"),
    (_set_gate_field("yaw", -math.inf), "yaw"),
    # a NaN extent would turn the gate's frame or passage test off
    (_set_gate_field("frame_thickness", math.nan), "frame_thickness"),
    (_set_gate_field("frame_thickness", math.inf), "frame_thickness"),
    (_set_gate_field("half_width", math.nan), "half_width"),
    # with reward.time_limit null an episode would then never time out
    (_set("time_limit", math.inf), "time_limit"),
])
def test_bad_track_file_names_the_field(tmp_path, capsys, edit, field):
    data = track_to_dict(default_track(4, n_gates=3))
    edit(data)
    path = tmp_path / "track.yaml"
    path.write_text(yaml.safe_dump(data))
    with pytest.raises(ValueError, match=field):
        load_track(path)
    assert cli_main(["inspect", "--track", str(path)]) == 1
    assert field in capsys.readouterr().err


def test_spawn_band_at_its_floor_spawns():
    """The floor is the farthest the lateral jitter reaches: a spawn at
    that centre distance may have none left along the normal."""
    gate = make_gate(hw=2.0, hh=1.0)
    floor = math.hypot(2.0, 1.0) / 2
    track = Track(gates=[gate], spawn_band=(floor, floor))
    for seed in range(50):
        spawn = sample_spawn(track, 0, np.random.default_rng(seed))
        d = np.linalg.norm(np.subtract(spawn.position, gate.center))
        assert d == pytest.approx(floor)
    with pytest.raises(ValueError, match="spawn_band"):
        Track(gates=[gate], spawn_band=(floor * 0.999, floor))
