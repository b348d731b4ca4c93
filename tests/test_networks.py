import math

import numpy as np
import pytest

from gateracer.checkpoint import load_optimizer, optimizer_entries
from gateracer.networks import (ACTION_DIM, Adam, LOG_STD_MAX, LOG_STD_MIN,
                                PolicyParams, backward_batch,
                                clip_grads_global, draw_policy, forward,
                                forward_batch, gaussian_entropy,
                                gaussian_log_prob, init_mlp, init_policy,
                                sample_action)


def mlp_oracle(x, net):
    """Straightforward matrix arithmetic re-statement of the 3-hidden
    tanh MLP used as an independent oracle."""
    h = x
    for i in range(3):
        h = np.tanh(h @ net[2 * i] + net[2 * i + 1])
    return h @ net[6] + net[7]


def small_net(rng, in_dim=4, hidden=8, out=3, gain=1.0):
    return init_mlp(rng, in_dim, hidden, out, final_gain=gain)


def test_forward_batch_matches_oracle():
    rng = np.random.default_rng(0)
    net = small_net(rng)
    x = rng.standard_normal((16, 4))
    _, _, _, out = forward_batch(net, x)
    np.testing.assert_allclose(out, mlp_oracle(x, net), atol=1e-12)


@pytest.mark.parametrize("dtype", [np.float64, np.float32])
def test_forward_single_matches_batch(dtype):
    """Both forwards compute in the weights' dtype, casting a float64
    observation to it; float32 stays within 1e-5 of float64."""
    rng = np.random.default_rng(1)
    params64 = draw_policy(rng, obs_dim=6, hidden=8)
    params = (params64 if dtype == np.float64
              else PolicyParams.from_flat_list(params64.flat_list()))
    obs = rng.standard_normal(6)
    mean = forward(params.actor, obs)
    *hidden, m_batch = forward_batch(params.actor, obs[None, :])
    _, _, _, v_batch = forward_batch(params.critic, obs[None, :])
    for out in (mean, *hidden, m_batch, v_batch):
        assert out.dtype == dtype
    if dtype == np.float64:
        np.testing.assert_allclose(mean, m_batch[0], atol=1e-14)
        np.testing.assert_allclose(v_batch[0], mlp_oracle(obs, params.critic),
                                   atol=1e-14)
    else:
        hidden64 = forward_batch(params64.actor, obs[None, :])[:3]
        for h, h64 in zip(hidden, hidden64):
            np.testing.assert_allclose(h, h64, rtol=1e-5)
        want = mlp_oracle(obs, params64.actor)
        np.testing.assert_allclose(mean, want, rtol=1e-5)
        np.testing.assert_allclose(m_batch[0], want, rtol=1e-5)
        np.testing.assert_allclose(v_batch[0],
                                   mlp_oracle(obs, params64.critic), rtol=1e-5)


def test_forward_rejects_wrong_shape():
    params = init_policy(np.random.default_rng(0), obs_dim=21, hidden=8)
    for shape in [(5,), (2, 5), (2, 3, 21)]:
        with pytest.raises(ValueError):
            forward(params.actor, np.zeros(shape))


@pytest.mark.parametrize("shape", [(21,), (1, 21), (4, 21)])
def test_forward_accepts_one_observation_or_a_batch(shape):
    params = draw_policy(np.random.default_rng(0), obs_dim=21, hidden=8)
    obs = np.random.default_rng(1).standard_normal(shape)
    mean = forward(params.actor, obs)
    assert mean.shape == shape[:-1] + (3,)
    # a batch's rows are the single-observation means
    for row, m in zip(np.atleast_2d(obs), np.atleast_2d(mean)):
        np.testing.assert_allclose(forward(params.actor, row), m, rtol=1e-12)


def test_backward_matches_finite_differences():
    rng = np.random.default_rng(7)
    net = small_net(rng)
    x = rng.standard_normal((16, 4))
    a = rng.standard_normal((16, 3))  # fixed linear readout: L = sum(a*out)

    def loss(n):
        return float(np.sum(a * mlp_oracle(x, n)))

    h1, h2, h3, _ = forward_batch(net, x)
    grads = backward_batch(net, x, h1, h2, h3, a)
    eps = 1e-6
    for pi in range(8):
        g = grads[pi]
        flat_idx = [0, g.size // 2, g.size - 1]
        for k in flat_idx:
            idx = np.unravel_index(k, net[pi].shape)
            orig = net[pi][idx]
            net[pi][idx] = orig + eps
            up = loss(net)
            net[pi][idx] = orig - eps
            dn = loss(net)
            net[pi][idx] = orig
            fd = (up - dn) / (2 * eps)
            assert g[idx] == pytest.approx(fd, rel=1e-6, abs=1e-8)


def test_orthogonal_init_columns():
    rng = np.random.default_rng(3)
    net = init_mlp(rng, 4, 8, 3, final_gain=0.01)
    w1 = net[0]  # 4x8, wide: rows orthogonal with gain sqrt(2)
    np.testing.assert_allclose(w1 @ w1.T, 2.0 * np.eye(4), atol=1e-10)
    w2 = net[2]  # 8x8
    np.testing.assert_allclose(w2 @ w2.T, 2.0 * np.eye(8), atol=1e-10)
    assert np.all(net[1] == 0) and np.all(net[7] == 0)


def test_init_policy_shapes_and_small_actor_head():
    params = init_policy(np.random.default_rng(0), obs_dim=21)
    flat = params.flat_list()
    assert len(flat) == 17
    assert {p.dtype for p in flat} == {np.dtype(np.float32)}
    assert params.actor[0].shape == (21, 256)
    assert params.actor[6].shape == (256, ACTION_DIM)
    assert params.critic[6].shape == (256, 1)
    np.testing.assert_array_equal(params.log_std, np.zeros(ACTION_DIM))
    # tiny final gain keeps initial action means near zero
    assert np.max(np.abs(params.actor[6])) < 0.01


def test_gaussian_log_prob_oracle():
    rng = np.random.default_rng(5)
    mean = rng.standard_normal(3)
    log_std = rng.uniform(-1, 1, 3)
    a = rng.standard_normal(3)
    want = sum(
        -0.5 * ((a[i] - mean[i]) / math.exp(log_std[i])) ** 2
        - log_std[i] - 0.5 * math.log(2 * math.pi)
        for i in range(3))
    assert gaussian_log_prob(a, mean, log_std) == pytest.approx(want)


def test_gaussian_entropy_oracle():
    log_std = np.array([0.1, -0.4, 0.7])
    want = sum(0.5 * math.log(2 * math.pi * math.e) + s for s in log_std)
    assert gaussian_entropy(log_std) == pytest.approx(want)


def test_sample_action_statistics():
    rng = np.random.default_rng(12)
    mean = np.array([0.5, -0.2, 2.0])
    log_std = np.array([-0.5, 0.0, 0.3])
    std = np.exp(log_std).tolist()
    raws = []
    for _ in range(20_000):
        raw = sample_action(mean, std, rng)
        assert type(raw) is list and all(type(x) is float for x in raw)
        raws.append(raw)
    raws = np.array(raws)
    se = np.exp(log_std) / math.sqrt(len(raws))
    assert np.all(np.abs(raws.mean(axis=0) - mean) < 4 * se)
    np.testing.assert_allclose(raws.std(axis=0), np.exp(log_std), rtol=0.03)


def test_adam_first_step_closed_form():
    # at t=1 the bias corrections cancel: step = lr * g / (|g| + eps)
    p = np.array([1.0, -2.0])
    g = np.array([0.3, -0.1])
    adam = Adam([p.shape])
    adam.step([p], [g], lr=0.01)
    want = np.array([1.0, -2.0]) - 0.01 * g / (np.abs(g) + adam.eps)
    np.testing.assert_allclose(p, want, atol=1e-12)


def test_float32_adam_tracks_a_float64_reference():
    """50 steps on float32 parameters with float32 moments against the
    same steps computed in float64 from the same float32 gradients, whose
    scale varies over five decades. Each step moves a parameter by about
    lr at most, so 50 steps move it by up to 5e-3 (measured: 2.7e-3).
    Every parameter stays within 1e-6 of the reference: each step rounds
    it to float32, by at most half a float32 spacing, 3.0e-8 below the
    largest initial weight's 0.43, so 50 steps add up to at most 7.5e-7
    (measured: 2.4e-7). Every moment stays within 1e-5 of its array's
    largest magnitude."""
    rng = np.random.default_rng(3)
    flat = init_policy(rng, 21).flat_list()
    ref = [p.astype(np.float64) for p in flat]
    m_ref = [np.zeros(p.shape) for p in flat]
    v_ref = [np.zeros(p.shape) for p in flat]
    adam = Adam([p.shape for p in flat])
    lr = 1e-4
    for t in range(1, 51):
        scale = 10.0 ** rng.uniform(-6.0, -1.0)
        grads = [(scale * rng.standard_normal(p.shape)).astype(np.float32)
                 for p in flat]
        adam.step(flat, grads, lr)
        for p, g, m, v in zip(ref, grads, m_ref, v_ref):
            g = g.astype(np.float64)
            m[...] = 0.9 * m + 0.1 * g
            v[...] = 0.999 * v + 0.001 * g * g
            p -= (lr * (m / (1 - 0.9 ** t))
                  / (np.sqrt(v / (1 - 0.999 ** t)) + adam.eps))
    for p, want in zip(flat, ref):
        assert p.dtype == np.float32
        np.testing.assert_allclose(p, want, rtol=0, atol=1e-6)
    for got, want in zip(adam.m + adam.v, m_ref + v_ref):
        assert got.dtype == np.float32
        np.testing.assert_allclose(got, want, rtol=0,
                                   atol=1e-5 * np.abs(want).max())


def test_adam_state_roundtrip():
    """An optimizer rebuilt by load_optimizer from its checkpoint entries
    owns copies of the moments and takes the same next step."""
    rng = np.random.default_rng(0)
    params = init_policy(rng, 4)
    flat = params.flat_list()
    a = Adam([p.shape for p in flat])
    a.step(flat, [rng.standard_normal(p.shape) for p in flat], 0.1)
    arrays, scalars = optimizer_entries(a)
    b = load_optimizer({"arrays": arrays, "scalars": scalars}, params)
    assert b.t == a.t == 1
    p1, p2 = [p.copy() for p in flat], [p.copy() for p in flat]
    g = [rng.standard_normal(p.shape) for p in flat]
    a.step(p1, g, 0.1)
    b.step(p2, g, 0.1)
    for x, y in zip(p1, p2):
        np.testing.assert_array_equal(x, y)


def test_clip_grads_global():
    g1 = np.array([3.0, 0.0])
    g2 = np.array([0.0, 4.0])
    norm = clip_grads_global([g1, g2], max_norm=0.5)
    assert norm == pytest.approx(5.0)
    total = math.sqrt(float(np.sum(g1 ** 2) + np.sum(g2 ** 2)))
    assert total == pytest.approx(0.5)
    # ratios preserved
    assert g1[0] / g2[1] == pytest.approx(3.0 / 4.0)
    small = [np.array([0.1, 0.1])]
    before = small[0].copy()
    clip_grads_global(small, 0.5)
    np.testing.assert_array_equal(small[0], before)


def test_log_std_bounds_constants():
    assert LOG_STD_MIN == -5.0 and LOG_STD_MAX == 2.0
