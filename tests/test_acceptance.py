"""End-to-end acceptance gate.

Each test prints a single PASS/FAIL line on the real stdout (bypassing
capture) so the verdict for every criterion is visible in plain pytest
output. The desk-scale learning run is shared by the tests that need a
trained policy via a session fixture.
"""

import json
import math
import socket
import threading
import time
from contextlib import contextmanager

import numpy as np
import pytest

from gateracer.checkpoint import load_checkpoint
from gateracer.config import RunConfig, TrackSettings, resolve_track
from gateracer.env import OBS_DIM
from gateracer.evaluation import evaluate
from gateracer.geometry import (Gate, default_track, sample_spawn, save_track,
                                segment_frame_collision, segment_gate_crossing)
from gateracer.networks import (forward_batch, gaussian_log_prob, init_policy)
from gateracer.opponent import (FollowerState, advance, expected_gate_times,
                                plan)
from gateracer.ppo import (RolloutBuffer, TrainConfig,
                           _minibatch_loss_and_grads, compute_gae)
from gateracer.rewards import TERM_ALL_GATES
from gateracer.telemetry import MetricsServer
from gateracer.training import Trainer


@contextmanager
def criterion(num: int, name: str, cap):
    """Print one PASS/FAIL verdict line per criterion on the real stdout
    (pytest captures at the fd level, so this suspends capture)."""
    def verdict(word):
        with cap.disabled():
            print(f"[acceptance {num}] {name}: {word}", flush=True)

    try:
        yield
    except BaseException:
        verdict("FAIL")
        raise
    verdict("PASS")


# ----------------------------------------------------------------------
# shared desk-scale learning run (criteria 6 and 7)

MINI_TRACK_SEED = 55


def mini_track():
    """3-gate track with consecutive gates 10-12 m apart and a gentle
    altitude profile."""
    track = default_track(MINI_TRACK_SEED, n_gates=3, spacing=(10.0, 12.0),
                          max_climb=0.5, time_per_gate=12.0)
    for a, b in zip(track.gates[:-1], track.gates[1:]):
        d = float(np.linalg.norm(np.subtract(b.center, a.center)))
        assert 10.0 <= d <= 12.0
    return track


@pytest.fixture(scope="session")
def trained_policy(tmp_path_factory):
    out = tmp_path_factory.mktemp("learning")
    track_file = out / "track.yaml"
    save_track(mini_track(), track_file)
    cfg = RunConfig(track=TrackSettings(file=str(track_file)))
    cfg.train.total_steps = 1_000_000  # hard budget; stops early on success
    tr = Trainer(cfg, seed=0, out_dir=out)

    t0 = time.perf_counter()
    streak = 0
    while tr.global_step < cfg.train.total_steps:
        tr.iterate()
        if tr.update_count % 10 == 0:
            probe = evaluate(tr._state_dict(), 20, deterministic=True,
                             seed=123)
            good = (probe["completion_rate"] >= 0.9
                    and probe["mean_collisions"] < 1.0)
            streak = streak + 1 if good else 0
            if streak >= 2:
                break
    elapsed = time.perf_counter() - t0
    tr.close()
    return {"state": tr._state_dict(),
            "metrics_path": out / "metrics.jsonl",
            "steps": tr.global_step,
            "elapsed": elapsed}


# ----------------------------------------------------------------------
# criterion 1: geometry predicates vs a dense-sampling oracle


def _segment_coeffs(p0, seg, centers, yaws):
    """Signed-plane / in-plane coordinates as linear functions of the
    segment parameter: each returns (a, b) with f(t) = a + b*t."""
    nx, ny = np.cos(yaws), np.sin(yaws)
    r0 = p0 - centers
    s = (r0[:, 0] * nx + r0[:, 1] * ny,
         seg[:, 0] * nx + seg[:, 1] * ny)
    u = (-r0[:, 0] * ny + r0[:, 1] * nx,
         -seg[:, 0] * ny + seg[:, 1] * nx)
    v = (r0[:, 2], seg[:, 2])
    return s, u, v


def test_criterion_1_geometry_oracle(capfd):
    with criterion(1, "geometry predicates match dense-sampling oracle", capfd):
        rng = np.random.default_rng(2026)
        n = 10_000
        hw, hh, ft, radius = 1.5, 1.5, 0.25, 0.3
        centers = np.column_stack([rng.uniform(-5, 5, n),
                                   rng.uniform(-5, 5, n),
                                   rng.uniform(0.5, 4.0, n)])
        yaws = rng.uniform(-math.pi, math.pi, n)
        p0 = centers + rng.uniform(-4, 4, (n, 3))
        seg = rng.uniform(-2, 2, (n, 3))
        p1 = p0 + seg
        gates = [Gate(id=0, center=centers[i], yaw=yaws[i], half_width=hw,
                      half_height=hh, frame_thickness=ft) for i in range(n)]

        t0 = time.perf_counter()
        (s_a, s_b), (u_a, u_b), (v_a, v_b) = _segment_coeffs(p0, seg,
                                                             centers, yaws)
        ts = np.linspace(0.0, 1.0, 257)
        S = s_a[:, None] + s_b[:, None] * ts

        # -- crossing oracle: locate the negative-to-nonnegative sample
        # pair, interpolate the crossing (exact: S is linear in t), then
        # check the opening extents there
        change = (S[:, :-1] < 0.0) & (S[:, 1:] >= 0.0)
        has_cross = change.any(axis=1)
        first = np.argmax(change, axis=1)
        idx = np.arange(n)
        sj = S[idx, first]
        sk = S[idx, first + 1]
        denom = np.where(sk - sj == 0.0, 1.0, sk - sj)
        t_star = ts[first] + (ts[1] - ts[0]) * (-sj) / denom
        u_star = u_a + u_b * t_star
        v_star = v_a + v_b * t_star
        oracle_cross = has_cross & (np.abs(u_star) <= hw) & (np.abs(v_star) <= hh)

        pred_points = [segment_gate_crossing(p0[i], p1[i], gates[i])
                       for i in range(n)]
        pred_cross = np.array([pt is not None for pt in pred_points])
        assert np.array_equal(pred_cross, oracle_cross)
        assert int(oracle_cross.sum()) > 100  # sanity: hits were sampled
        for i in np.flatnonzero(oracle_cross):
            want = p0[i] + t_star[i] * seg[i]
            np.testing.assert_allclose(pred_points[i], want, atol=1e-6)

        # -- frame oracle: a sampled point collides when it is inside the
        # slab and the outer rectangle but not inside the opening; the
        # margin g(t) <= 0 encodes exactly that
        slab = ft / 2.0 + radius
        U = np.abs(u_a[:, None] + u_b[:, None] * ts)
        V = np.abs(v_a[:, None] + v_b[:, None] * ts)
        g = np.maximum.reduce([np.abs(S) - slab, U - (hw + ft), V - (hh + ft),
                               np.minimum(hw - U, hh - V)])
        oracle_hit = (g <= 0.0).any(axis=1)
        # piecewise-linear certification: refine rows whose sampled
        # margin could hide a sub-sample-width touch
        lip = np.maximum.reduce([np.abs(s_b), np.abs(u_b), np.abs(v_b)])
        uncertain = ~oracle_hit & (g.min(axis=1) <= lip * (ts[1] - ts[0]))
        fine = np.linspace(0.0, 1.0, 100_001)
        for i in np.flatnonzero(uncertain):
            sf = np.abs(s_a[i] + s_b[i] * fine)
            uf = np.abs(u_a[i] + u_b[i] * fine)
            vf = np.abs(v_a[i] + v_b[i] * fine)
            gf = np.maximum.reduce([sf - slab, uf - (hw + ft), vf - (hh + ft),
                                    np.minimum(hw - uf, hh - vf)])
            oracle_hit[i] = bool((gf <= 0.0).any())

        pred_hit = np.array([segment_frame_collision(p0[i], p1[i], gates[i],
                                                     radius)
                             for i in range(n)])
        assert np.array_equal(pred_hit, oracle_hit)
        assert int(oracle_hit.sum()) > 100
        assert time.perf_counter() - t0 < 5.0


# ----------------------------------------------------------------------
# criterion 2: GAE vs brute-force discounted sums


def gae_oracle(rewards, values, dones, bootstrap, gamma, lam):
    n = len(rewards)
    vals_next = np.append(values[1:], bootstrap)
    deltas = rewards + gamma * vals_next * (1.0 - dones) - values
    adv = np.zeros(n)
    for t in range(n):
        acc, w = 0.0, 1.0
        for k in range(t, n):
            acc += w * deltas[k]
            if dones[k]:
                break
            w *= gamma * lam
        adv[t] = acc
    return adv


def test_criterion_2_gae_oracle(capfd):
    with criterion(2, "GAE matches brute-force discounted sums", capfd):
        t0 = time.perf_counter()
        rng = np.random.default_rng(7)
        for trial in range(10):
            n = 128
            buf = RolloutBuffer(n, 4)
            for i in range(n):
                obs, action = rng.standard_normal(4), rng.standard_normal(3)
                reward = float(rng.standard_normal())
                value = float(rng.standard_normal())
                buf.add(obs, action, 0.0, reward, bool(rng.random() < 0.1))
                buf.values[i] = value
            bootstrap = float(rng.standard_normal())
            for lam in (0.95, 1.0):
                compute_gae(buf, bootstrap, 0.99, lam)
                want = gae_oracle(buf.rewards, buf.values, buf.dones,
                                  bootstrap, 0.99, lam)
                assert np.max(np.abs(buf.advantages - want)) < 1e-10
            # lambda = 1 reduction: discounted return minus value
            ret = np.zeros(n)
            for t in range(n):
                acc, w = 0.0, 1.0
                for k in range(t, n):
                    acc += w * buf.rewards[k]
                    w *= 0.99
                    if buf.dones[k]:
                        break
                    if k == n - 1:
                        acc += w * bootstrap
                ret[t] = acc
            assert np.max(np.abs(buf.advantages - (ret - buf.values))) < 1e-10
        assert time.perf_counter() - t0 < 1.0


# ----------------------------------------------------------------------
# criterion 3: analytic gradients vs central finite differences


def test_criterion_3_gradient_correctness(capfd):
    with criterion(3, "PPO loss gradients match finite differences", capfd):
        t0 = time.perf_counter()
        rng = np.random.default_rng(11)
        params = init_policy(rng, obs_dim=4, hidden=8)
        n = 16
        obs = rng.standard_normal((n, 4))
        _, _, _, mean = forward_batch(params.actor, obs)
        actions = mean + np.exp(params.log_std) * rng.standard_normal((n, 3))
        logp = gaussian_log_prob(actions, mean, params.log_std)
        # offsets keep every ratio strictly away from the clip boundary so
        # the finite-difference step cannot switch branches, while both
        # clipped and unclipped branches stay active across the batch
        offs = rng.uniform(0.3, 0.5, n) * rng.choice([-1.0, 1.0], n)
        logp_old = logp + offs
        adv = rng.standard_normal(n)
        rets = rng.standard_normal(n)
        cfg = TrainConfig(rollout_steps=16, minibatch_size=16,
                          entropy_coef=0.01)

        def loss_of():
            total, _, _ = _minibatch_loss_and_grads(
                params, obs, actions, logp_old, adv, rets, cfg)
            return total

        _, grads, stats = _minibatch_loss_and_grads(
            params, obs, actions, logp_old, adv, rets, cfg)
        assert stats["clip_fraction"] > 0.0
        flat = params.flat_list()
        step = 1e-5
        worst = 0.0
        for pi in range(len(flat)):
            for k in range(flat[pi].size):
                idx = np.unravel_index(k, flat[pi].shape)
                orig = flat[pi][idx]
                flat[pi][idx] = orig + step
                up = loss_of()
                flat[pi][idx] = orig - step
                dn = loss_of()
                flat[pi][idx] = orig
                fd = (up - dn) / (2 * step)
                rel = abs(grads[pi][idx] - fd) / max(abs(fd), 1e-8)
                worst = max(worst, rel)
        assert worst < 1e-4
        assert time.perf_counter() - t0 < 10.0


# ----------------------------------------------------------------------
# criterion 4: ratio identity over a real 2048-step buffer


def test_criterion_4_ratio_identity(tmp_path, capfd):
    with criterion(4, "stored log-probs match recomputation at theta_old", capfd):
        track_file = tmp_path / "track.yaml"
        save_track(mini_track(), track_file)
        cfg = RunConfig(track=TrackSettings(file=str(track_file)))
        tr = Trainer(cfg, seed=5, out_dir=tmp_path / "run")
        buf = tr.collect_rollout()
        tr.metrics.close()
        assert buf.capacity == 2048 and buf.full
        _, _, _, mean = forward_batch(tr.params.actor, buf.obs)
        logp = gaussian_log_prob(buf.actions, mean, tr.params.log_std)
        assert np.max(np.abs(logp - buf.log_probs)) < 1e-12


# ----------------------------------------------------------------------
# criterion 5: determinism and bit-exact resume over 10,240 steps


def _run_training(out_dir, total_steps, seed, resume=None, cfg=None):
    t0 = time.perf_counter()
    if cfg is not None:
        cfg.train.total_steps = total_steps
    tr = Trainer(cfg, seed=seed, out_dir=out_dir, resume=resume)
    tr.cfg.train.total_steps = total_steps
    ckpt_path = tr.train()
    assert time.perf_counter() - t0 < 300.0
    return ckpt_path


def _config_for(tmp_path):
    track_file = tmp_path / "track.yaml"
    save_track(mini_track(), track_file)
    return lambda: RunConfig(track=TrackSettings(file=str(track_file)))


def test_criterion_5_determinism_and_resume(tmp_path, capfd):
    with criterion(5, "bit-identical reruns and checkpoint resume", capfd):
        make_cfg = _config_for(tmp_path)
        ck_a = _run_training(tmp_path / "a", 10_240, seed=1, cfg=make_cfg())
        ck_b = _run_training(tmp_path / "b", 10_240, seed=1, cfg=make_cfg())
        bytes_a = (tmp_path / "a" / "metrics.jsonl").read_bytes()
        bytes_b = (tmp_path / "b" / "metrics.jsonl").read_bytes()
        assert bytes_a == bytes_b

        ck_part = _run_training(tmp_path / "c1", 4_096, seed=1,
                                cfg=make_cfg())
        ck_res = _run_training(tmp_path / "c2", 10_240, seed=1,
                               resume=ck_part, cfg=make_cfg())
        joined = ((tmp_path / "c1" / "metrics.jsonl").read_bytes()
                  + (tmp_path / "c2" / "metrics.jsonl").read_bytes())
        assert joined == bytes_a

        full = load_checkpoint(ck_a)
        resumed = load_checkpoint(ck_res)
        assert full["counters"] == resumed["counters"]
        assert full["rng"] == resumed["rng"]
        assert set(full["arrays"]) == set(resumed["arrays"])
        for name in full["arrays"]:
            np.testing.assert_array_equal(full["arrays"][name],
                                          resumed["arrays"][name])


# ----------------------------------------------------------------------
# criteria 6 and 7: desk-scale learning and recovery


def test_criterion_6_desk_scale_learning(trained_policy, capfd):
    with criterion(6, "mini-track training reaches 80% completion", capfd):
        assert trained_policy["steps"] <= 1_000_000
        assert trained_policy["elapsed"] < 7200.0
        stats = evaluate(trained_policy["state"], 100, deterministic=True,
                         seed=2024)
        assert stats["completion_rate"] >= 0.80
        assert stats["mean_collisions"] < 1.0

        returns = []
        with open(trained_policy["metrics_path"], encoding="utf-8") as fh:
            for line in fh:
                rec = json.loads(line)
                if rec["event"] == "episode":
                    returns.append(rec["episodic_return"])
        assert len(returns) >= 40
        first = float(np.mean(returns[:20]))
        last = float(np.mean(returns[-20:]))
        assert last > 0.0
        assert last >= 5.0 * first


def test_criterion_7_recovery(trained_policy, capfd):
    with criterion(7, "recovery from far-band spawns with yaw error", capfd):
        state = trained_policy["state"]
        band_far = 3.5
        stats = evaluate(state, 100, deterministic=True, seed=2025,
                         spawn_distance=band_far, yaw_error=math.pi / 4)
        assert stats["completion_rate"] >= 0.60


# ----------------------------------------------------------------------
# criterion 8: planner completes the full track on schedule


def test_criterion_8_opponent_baseline(capfd):
    with criterion(8, "planner completes default track on schedule", capfd):
        cfg = RunConfig()
        track = resolve_track(cfg)
        assert track.n_gates == 10
        rng = np.random.default_rng(0)
        spawn = sample_spawn(track, 0, rng)
        p = plan(track, cruise_speed=cfg.opponent.cruise_speed,
                 approach_offset=cfg.opponent.approach_offset)
        expected = expected_gate_times(p, spawn.position)

        dt = cfg.dynamics.dt
        state = FollowerState(position=spawn.position)
        measured = {}
        collisions = 0
        t = 0.0
        max_steps = int(track.time_limit / dt) * 4
        for _ in range(max_steps):
            prev = state.position
            state = advance(p, state, dt)
            t += dt
            for gate in track.gates:
                if gate.id not in measured and segment_gate_crossing(
                        prev, state.position, gate) is not None:
                    measured[gate.id] = t
                if segment_frame_collision(prev, state.position, gate,
                                           cfg.harness.drone_radius):
                    collisions += 1
            if len(measured) == track.n_gates:
                break
        assert len(measured) == track.n_gates
        assert collisions == 0
        for gid in range(track.n_gates):
            assert abs(measured[gid] - expected[gid]) <= 2 * dt + 1e-9


# ----------------------------------------------------------------------
# criterion 9: telemetry fidelity over a full run


EXPECTED_KEYS = {"event", "global_step", "episode", "episodic_return",
                 "gates_passed", "collisions", "duration", "policy_loss",
                 "value_loss", "approx_kl", "clip_fraction"}


def test_criterion_9_telemetry_fidelity(tmp_path, capfd):
    with criterion(9, "TCP client mirrors the metrics file exactly", capfd):
        server = MetricsServer("127.0.0.1", 0)
        sock = socket.create_connection(server.address)
        deadline = time.time() + 5.0
        while not server._clients and time.time() < deadline:
            time.sleep(0.01)
        assert server._clients, "client was not registered"

        received = bytearray()

        def reader():
            while True:
                chunk = sock.recv(65536)
                if not chunk:
                    return
                received.extend(chunk)

        thread = threading.Thread(target=reader)
        thread.start()
        try:
            track_file = tmp_path / "track.yaml"
            save_track(mini_track(), track_file)
            cfg = RunConfig(track=TrackSettings(file=str(track_file)))
            cfg.train.total_steps = 10_240
            tr = Trainer(cfg, seed=3, out_dir=tmp_path / "run",
                         telemetry=server)
            tr.train()
        finally:
            server.close()
            thread.join(timeout=10.0)
            sock.close()

        wire = received.decode("utf-8").splitlines()
        disk = (tmp_path / "run" / "metrics.jsonl").read_text(
            encoding="utf-8").splitlines()
        assert len(disk) > 0
        assert wire == disk
        for line in wire:
            rec = json.loads(line)
            assert set(rec) == EXPECTED_KEYS
            assert rec["event"] in ("episode", "update")
