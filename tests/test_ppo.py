import math
import sys
import threading

import numpy as np
import pytest

from gateracer import ppo
from gateracer.env import OBS_DIM
from gateracer.networks import (Adam, clip_grads_global, forward_batch,
                                gaussian_log_prob, init_policy)
from gateracer.ppo import (RolloutBuffer, TrainConfig, _minibatch_loss_and_grads,
                           compute_gae, fill_values, ppo_update)


def gae_oracle(rewards, values, dones, bootstrap, gamma, lam):
    """Direct delta-summation: A_t = sum_l (gamma*lam)^l delta_{t+l},
    cutting every sum at done flags."""
    n = len(rewards)
    vals_next = np.append(values[1:], bootstrap)
    deltas = rewards + gamma * vals_next * (1.0 - dones) - values
    adv = np.zeros(n)
    for t in range(n):
        acc = 0.0
        w = 1.0
        for k in range(t, n):
            acc += w * deltas[k]
            if dones[k]:
                break
            w *= gamma * lam
        adv[t] = acc
    return adv


def filled_buffer(rng, n=128, obs_dim=4):
    buf = RolloutBuffer(n, obs_dim)
    for i in range(n):
        obs, action = rng.standard_normal(obs_dim), rng.standard_normal(3)
        logp = float(rng.standard_normal())
        reward = float(rng.standard_normal())
        value = float(rng.standard_normal())
        done = bool(rng.random() < 0.1)
        buf.add(obs, action, logp, reward, done)
        buf.values[i] = value
    return buf


def test_config_validation():
    with pytest.raises(ValueError):
        TrainConfig(clip_epsilon=0.0)
    with pytest.raises(ValueError):
        TrainConfig(gamma=1.5)
    with pytest.raises(ValueError):
        TrainConfig(gae_lambda=-0.1)
    with pytest.raises(ValueError):
        TrainConfig(rollout_steps=100, minibatch_size=64)


def test_buffer_capacity():
    buf = RolloutBuffer(2, 3)
    buf.add(np.zeros(3), np.zeros(3), 0.0, 0.0, False)
    assert not buf.full
    buf.add(np.zeros(3), np.zeros(3), 0.0, 0.0, True)
    assert buf.full
    with pytest.raises(ValueError):
        buf.add(np.zeros(3), np.zeros(3), 0.0, 0.0, False)


@pytest.mark.parametrize("last_done", [False, True])
def test_fill_values_matches_one_critic_pass(last_done):
    rng = np.random.default_rng(3)
    params = init_policy(rng, obs_dim=4, hidden=8)
    buf = filled_buffer(rng, n=64)
    buf.dones[-1] = float(last_done)
    next_obs = rng.standard_normal(4)
    with pytest.raises(ValueError):
        fill_values(RolloutBuffer(64, 4), params.critic, next_obs, 16)
    fill_values(buf, params.critic, next_obs, chunk=16)
    _, _, _, v = forward_batch(params.critic, np.vstack([buf.obs, next_obs]))
    np.testing.assert_allclose(buf.values, v[:-1, 0], rtol=0, atol=1e-12)
    want = 0.0 if last_done else v[-1, 0]
    assert buf.bootstrap_value == pytest.approx(want, rel=0, abs=1e-12)


def test_gae_requires_full_buffer():
    buf = RolloutBuffer(4, 2)
    with pytest.raises(ValueError):
        compute_gae(buf, 0.0, 0.99, 0.95)


@pytest.mark.parametrize("lam", [0.95, 1.0, 0.0])
def test_gae_matches_delta_summation_oracle(lam):
    rng = np.random.default_rng(42)
    for trial in range(5):
        buf = filled_buffer(rng)
        bootstrap = float(rng.standard_normal())
        compute_gae(buf, bootstrap, 0.99, lam)
        want = gae_oracle(buf.rewards, buf.values, buf.dones, bootstrap,
                          0.99, lam)
        np.testing.assert_allclose(buf.advantages, want, atol=1e-10)
        np.testing.assert_allclose(buf.returns, want + buf.values,
                                   atol=1e-10)


def test_gae_lambda_one_is_discounted_return_minus_value():
    rng = np.random.default_rng(3)
    buf = filled_buffer(rng)
    bootstrap = 0.7
    compute_gae(buf, bootstrap, 0.99, 1.0)
    n = buf.capacity
    want = np.zeros(n)
    for t in range(n):
        acc = 0.0
        w = 1.0
        for k in range(t, n):
            acc += w * buf.rewards[k]
            w *= 0.99
            if buf.dones[k]:
                break
            if k == n - 1:
                acc += w * bootstrap
        want[t] = acc - buf.values[t]
    np.testing.assert_allclose(buf.advantages, want, atol=1e-10)


def _tiny_setup(seed=0, n=32, obs_dim=4):
    rng = np.random.default_rng(seed)
    params = init_policy(rng, obs_dim=obs_dim, hidden=8)
    obs = rng.standard_normal((n, obs_dim))
    _, _, _, mean = forward_batch(params.actor, obs)
    actions = mean + np.exp(params.log_std) * rng.standard_normal((n, 3))
    logp = gaussian_log_prob(actions, mean, params.log_std)
    adv = rng.standard_normal(n)
    rets = rng.standard_normal(n)
    return params, obs, actions, logp, adv, rets


def test_ratio_identity_at_theta_old():
    """With stored log-probs recomputed from the current parameters the
    ratio is exactly one: no clipping, zero KL."""
    params, obs, actions, logp, adv, rets = _tiny_setup()
    cfg = TrainConfig(rollout_steps=32, minibatch_size=32)
    _, _, stats = _minibatch_loss_and_grads(params, obs, actions, logp,
                                            adv, rets, cfg)
    assert stats["approx_kl"] == pytest.approx(0.0, abs=1e-12)
    assert stats["clip_fraction"] == 0.0
    adv_hat = (adv - adv.mean()) / (adv.std() + 1e-8)
    assert stats["policy_loss"] == pytest.approx(-float(adv_hat.mean()))


def test_loss_gradients_match_finite_differences():
    """Central finite differences through the full clipped loss, with the
    stored log-probs offset so both clip branches are exercised."""
    params, obs, actions, logp, adv, rets = _tiny_setup(seed=1)
    rng = np.random.default_rng(10)
    logp_old = logp + rng.uniform(-0.4, 0.4, logp.shape)
    cfg = TrainConfig(rollout_steps=32, minibatch_size=32)

    def loss_of(p):
        total, _, _ = _minibatch_loss_and_grads(p, obs, actions, logp_old,
                                                adv, rets, cfg)
        return total

    _, grads, stats = _minibatch_loss_and_grads(params, obs, actions,
                                                logp_old, adv, rets, cfg)
    assert 0.0 < stats["clip_fraction"] < 1.0  # both branches active
    flat = params.flat_list()
    eps = 1e-6
    checked = 0
    for pi in (0, 6, 8, 9, 15):  # actor W1/W4, log_std, critic W1/W4
        g = grads[pi]
        for k in (0, g.size - 1):
            idx = np.unravel_index(k, flat[pi].shape)
            orig = flat[pi][idx]
            flat[pi][idx] = orig + eps
            up = loss_of(params)
            flat[pi][idx] = orig - eps
            dn = loss_of(params)
            flat[pi][idx] = orig
            fd = (up - dn) / (2 * eps)
            assert g[idx] == pytest.approx(fd, rel=1e-5, abs=1e-9)
            checked += 1
    assert checked == 10


def test_value_loss_is_mse():
    params, obs, actions, logp, adv, rets = _tiny_setup(seed=2)
    cfg = TrainConfig(rollout_steps=32, minibatch_size=32)
    _, _, stats = _minibatch_loss_and_grads(params, obs, actions, logp,
                                            adv, rets, cfg)
    _, _, _, v = forward_batch(params.critic, obs)
    want = float(np.mean((v[:, 0] - rets) ** 2))
    assert stats["value_loss"] == pytest.approx(want)


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_minibatch_grads_follow_the_param_dtype(dtype):
    params, obs, actions, logp, adv, rets = _tiny_setup(seed=3)
    cast = params.astype(dtype)
    for a, b in zip(params.flat_list(), cast.flat_list()):
        assert b.dtype == dtype
        assert b.flags.f_contiguous == a.flags.f_contiguous
    cfg = TrainConfig(rollout_steps=32, minibatch_size=32)
    _, grads, _ = _minibatch_loss_and_grads(cast, obs, actions, logp, adv,
                                            rets, cfg)
    assert [g.dtype for g in grads] == [np.dtype(dtype)] * len(grads)


def test_float32_grads_match_float64_at_full_size():
    """One 256-row minibatch through the full-size networks: the float32
    gradients the update uses agree with the float64 ones to 1e-4 in
    relative global norm, with both clip branches active."""
    rng = np.random.default_rng(4)
    params = init_policy(rng, obs_dim=OBS_DIM)
    n = 256
    obs = rng.standard_normal((n, OBS_DIM))
    _, _, _, mean = forward_batch(params.actor, obs)
    actions = mean + np.exp(params.log_std) * rng.standard_normal((n, 3))
    logp_old = (gaussian_log_prob(actions, mean, params.log_std)
                + rng.uniform(-0.4, 0.4, n))
    adv, rets = rng.standard_normal(n), rng.standard_normal(n)
    cfg = TrainConfig(entropy_coef=0.01)
    _, g64, stats = _minibatch_loss_and_grads(params, obs, actions, logp_old,
                                              adv, rets, cfg)
    _, g32, _ = _minibatch_loss_and_grads(params.astype(np.float32), obs,
                                          actions, logp_old, adv, rets, cfg)
    assert 0.0 < stats["clip_fraction"] < 1.0
    err = math.sqrt(sum(float(np.sum((a - b) ** 2)) for a, b in zip(g64, g32)))
    norm = math.sqrt(sum(float(np.sum(a * a)) for a in g64))
    assert err <= 1e-4 * norm


def make_update_inputs(seed=0, n=64, obs_dim=4):
    rng = np.random.default_rng(seed)
    params = init_policy(rng, obs_dim=obs_dim, hidden=8)
    buf = RolloutBuffer(n, obs_dim)
    for i in range(n):
        o = rng.standard_normal(obs_dim)
        _, _, _, mean = forward_batch(params.actor, o[None])
        a = mean[0] + rng.standard_normal(3)
        lp = float(gaussian_log_prob(a, mean[0], params.log_std))
        reward = float(rng.standard_normal())
        value = float(rng.standard_normal())
        buf.add(o, a, lp, reward, bool(rng.random() < 0.1))
        buf.values[i] = value
    compute_gae(buf, 0.0, 0.99, 0.95)
    return params, buf


def test_ppo_update_requires_advantages():
    params, buf = make_update_inputs()
    buf.advantages_ready = False
    cfg = TrainConfig(rollout_steps=64, minibatch_size=32)
    with pytest.raises(ValueError):
        ppo_update(params, buf, cfg, np.random.default_rng(0))


def test_ppo_update_mutates_and_is_deterministic():
    cfg = TrainConfig(rollout_steps=64, minibatch_size=32,
                      epochs_per_update=2)
    params1, buf1 = make_update_inputs(seed=5)
    before = [p.copy() for p in params1.flat_list()]
    _, stats = ppo_update(params1, buf1, cfg, np.random.default_rng(9))
    changed = any(not np.array_equal(a, b)
                  for a, b in zip(before, params1.flat_list()))
    assert changed
    for key in ("policy_loss", "value_loss", "entropy", "approx_kl",
                "clip_fraction"):
        assert np.isfinite(stats[key])

    params2, buf2 = make_update_inputs(seed=5)
    ppo_update(params2, buf2, cfg, np.random.default_rng(9))
    for a, b in zip(params1.flat_list(), params2.flat_list()):
        np.testing.assert_array_equal(a, b)


def test_ppo_update_respects_log_std_bounds():
    cfg = TrainConfig(rollout_steps=64, minibatch_size=32,
                      epochs_per_update=3, learning_rate=0.05)
    params, buf = make_update_inputs(seed=8)
    ppo_update(params, buf, cfg, np.random.default_rng(0))
    assert np.all(params.log_std >= -5.0) and np.all(params.log_std <= 2.0)


@pytest.mark.parametrize("target_kl", [None, 1e-9])
def test_target_kl_ends_the_update_early(target_kl):
    """A tiny target_kl stops the update after fewer minibatches than
    epochs x batches; without one, every minibatch runs."""
    cfg = TrainConfig(rollout_steps=64, minibatch_size=16,
                      epochs_per_update=4, target_kl=target_kl)
    params, buf = make_update_inputs(seed=3)
    adam = Adam([p.shape for p in params.flat_list()])
    ppo_update(params, buf, cfg, np.random.default_rng(0), adam)
    every = cfg.epochs_per_update * cfg.rollout_steps // cfg.minibatch_size
    if target_kl is None:
        assert adam.t == every
    else:
        assert 1 <= adam.t < every


def test_ppo_update_keeps_master_state_float64():
    """The minibatches, their gradients and the Adam moments are float32,
    but the parameters stay float64 in their own memory order."""
    cfg = TrainConfig(rollout_steps=64, minibatch_size=32,
                      epochs_per_update=2)
    params, buf = make_update_inputs(seed=6)
    adam = Adam([p.shape for p in params.flat_list()])
    layout = [(p.flags.c_contiguous, p.flags.f_contiguous)
              for p in params.flat_list()]
    assert (False, True) in layout  # the wide W1 is Fortran-ordered
    grad_dtypes = set()
    step = adam.step

    def spy(flat, grads, lr, **part):
        grad_dtypes.update(g.dtype for g in grads)
        step(flat, grads, lr, **part)

    adam.step = spy
    ppo_update(params, buf, cfg, np.random.default_rng(0), adam)
    assert adam.t == 4
    assert grad_dtypes == {np.dtype(np.float32)}  # no upcast before Adam
    for p, order in zip(params.flat_list(), layout):
        assert p.dtype == np.float64
        assert (p.flags.c_contiguous, p.flags.f_contiguous) == order
    for a, p in zip(adam.m + adam.v, params.flat_list() * 2):
        assert a.dtype == np.float32 and a.flags.c_contiguous
        assert a.shape == p.shape


def serial_update(params, buf, cfg, rng, adam):
    """ppo_update's arithmetic as one loop on one thread: both halves of
    each minibatch through _minibatch_loss_and_grads, then one Adam step
    over every array."""
    flat = params.flat_list()
    obs = buf.obs.astype(np.float32)
    agg, n_batches = {}, 0
    for _ in range(cfg.epochs_per_update):
        perm = rng.permutation(buf.capacity)
        for start in range(0, buf.capacity, cfg.minibatch_size):
            idx = perm[start:start + cfg.minibatch_size]
            _, grads, stats = _minibatch_loss_and_grads(
                params.astype(np.float32), obs[idx], buf.actions[idx],
                buf.log_probs[idx], buf.advantages[idx], buf.returns[idx], cfg)
            clip_grads_global(grads, cfg.max_grad_norm)
            adam.step(flat, grads, cfg.learning_rate)
            np.clip(params.log_std, -5.0, 2.0, out=params.log_std)
            for key, val in stats.items():
                agg[key] = agg.get(key, 0.0) + val
            n_batches += 1
            if (cfg.target_kl is not None
                    and stats["approx_kl"] > 1.5 * cfg.target_kl):
                return {key: val / n_batches for key, val in agg.items()}
    return {key: val / n_batches for key, val in agg.items()}


def assert_update_matches_serial(cfg, seed=3):
    """Runs ppo_update, with the interpreter switching threads as often as
    it can, and serial_update from the same inputs and checks that
    parameters, Adam state, stats and the rng state are equal; returns the
    Adam step count."""
    runs = []
    for update in (ppo_update, serial_update):
        params, buf = make_update_inputs(seed=seed)
        adam = Adam([p.shape for p in params.flat_list()])
        rng = np.random.default_rng(11)
        if update is ppo_update:
            interval = sys.getswitchinterval()
            sys.setswitchinterval(1e-6)
            try:
                stats = ppo_update(params, buf, cfg, rng, adam)[1]
            finally:
                sys.setswitchinterval(interval)
        else:
            stats = serial_update(params, buf, cfg, rng, adam)
        runs.append((params, adam, stats, rng.bit_generator.state))
    (p1, a1, s1, r1), (p2, a2, s2, r2) = runs
    for x, y in zip(p1.flat_list() + a1.m + a1.v, p2.flat_list() + a2.m + a2.v):
        assert x.dtype == y.dtype and np.array_equal(x, y)
    assert a1.t == a2.t
    assert list(s1) == list(s2)
    assert all(np.array_equal(s1[key], s2[key]) for key in s1)
    assert r1 == r2
    return a1.t


def _record_backward_threads(monkeypatch, fail_on_value=False):
    """Wraps ppo.backward_batch; returns the list of (thread, output
    width) of its calls. With fail_on_value, the value half's call (a
    one-column output gradient) raises."""
    seen = []
    original = ppo.backward_batch

    def spy(net, obs, h1, h2, h3, dout):
        seen.append((threading.get_ident(), dout.shape[1]))
        if fail_on_value and dout.shape[1] == 1:
            raise FloatingPointError("value half failed")
        return original(net, obs, h1, h2, h3, dout)

    monkeypatch.setattr(ppo, "backward_batch", spy)
    return seen


@pytest.mark.parametrize("target_kl", [None, 2e-4])
def test_ppo_update_equals_the_serial_loop(monkeypatch, target_kl):
    """The two halves on two threads give the serial loop's result bit for
    bit. With target_kl the update stops inside an epoch, so the last
    minibatch's critic step must land before ppo_update returns."""
    cfg = TrainConfig(rollout_steps=64, minibatch_size=16,
                      epochs_per_update=4, target_kl=target_kl)
    seen = _record_backward_threads(monkeypatch)
    t = assert_update_matches_serial(cfg)
    per_epoch = cfg.rollout_steps // cfg.minibatch_size
    if target_kl is None:
        assert t == cfg.epochs_per_update * per_epoch
    else:
        assert t > per_epoch and t % per_epoch != 0  # stopped mid-epoch
    if ppo._blas_thread_control() is not None:
        caller = threading.get_ident()
        # the update's calls come first, the serial loop's after them
        update_calls = seen[:2 * t]
        assert {ident == caller for ident, width in update_calls
                if width == 1} == {False}
        assert {ident == caller for ident, width in update_calls
                if width == 3} == {True}


def test_ppo_update_without_blas_control_runs_on_the_calling_thread(
        monkeypatch):
    """With no BLAS thread control found, both halves run on the calling
    thread and still match the serial loop."""
    monkeypatch.setattr(ppo, "_blas_thread_control", lambda: None)
    seen = _record_backward_threads(monkeypatch)
    before = set(threading.enumerate())
    cfg = TrainConfig(rollout_steps=64, minibatch_size=16,
                      epochs_per_update=2)
    assert_update_matches_serial(cfg)
    assert {ident for ident, _ in seen} == {threading.get_ident()}
    assert set(threading.enumerate()) == before


def test_ppo_update_raises_the_value_half_error_and_cleans_up(monkeypatch):
    """An exception in the value half reaches the caller; the worker is
    joined and BLAS's thread count is back where it was."""
    control = ppo._blas_thread_control()
    threads_before = control[1]() if control is not None else None
    _record_backward_threads(monkeypatch, fail_on_value=True)
    before = set(threading.enumerate())
    cfg = TrainConfig(rollout_steps=64, minibatch_size=16,
                      epochs_per_update=2)
    params, buf = make_update_inputs(seed=3)
    with pytest.raises(FloatingPointError, match="value half failed"):
        ppo_update(params, buf, cfg, np.random.default_rng(0))
    assert set(threading.enumerate()) == before
    if control is not None:
        assert control[1]() == threads_before
