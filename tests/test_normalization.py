import numpy as np
import pytest

from gateracer.normalization import (OBS_CLIP, RewardScaler, RunningStats,
                                     normalize_observation)


def test_running_stats_matches_numpy():
    rng = np.random.default_rng(0)
    data = rng.standard_normal((500, 4)) * np.array([1.0, 3.0, 0.1, 10.0])
    stats = RunningStats(4)
    for row in data:
        stats.update(row)
    np.testing.assert_allclose(stats.mean, data.mean(axis=0), atol=1e-10)
    np.testing.assert_allclose(stats.std(), data.std(axis=0), atol=1e-10)


def test_normalize_updates_then_standardizes():
    stats = RunningStats(2)
    rng = np.random.default_rng(1)
    for _ in range(300):
        normalize_observation(stats, rng.normal(5.0, 2.0, 2))
    z = normalize_observation(stats, stats.mean.copy())
    np.testing.assert_allclose(z, 0.0, atol=1e-9)
    assert stats.count == 301


def test_normalize_clips():
    stats = RunningStats(1)
    for _ in range(100):
        normalize_observation(stats, [0.0])
    stats.frozen = True
    z = normalize_observation(stats, [1e12])
    assert z[0] == OBS_CLIP
    z = normalize_observation(stats, [-1e12])
    assert z[0] == -OBS_CLIP


def test_frozen_stats_do_not_move():
    stats = RunningStats(2)
    normalize_observation(stats, [1.0, 2.0])
    snap = stats.state_dict()
    stats.frozen = True
    normalize_observation(stats, [100.0, -100.0])
    np.testing.assert_array_equal(stats.mean, snap["mean"])
    assert stats.count == snap["count"]


def test_state_dict_snapshot_survives_later_updates():
    stats = RunningStats(3)
    rng = np.random.default_rng(3)
    for _ in range(5):
        stats.update(rng.standard_normal(3))
    snap = stats.state_dict()
    want = {k: np.copy(v) for k, v in snap.items()}
    mean = stats.mean
    for _ in range(5):
        normalize_observation(stats, rng.standard_normal(3))
    assert stats.mean is mean  # the moments are updated in place
    for k, v in want.items():
        np.testing.assert_array_equal(snap[k], v)


def _frozen_oracle(d, x):
    std = np.sqrt(np.asarray(d["m2"]) / d["count"])
    z = (np.asarray(x) - d["mean"]) / np.maximum(std, 1e-8)
    return np.clip(z, -OBS_CLIP, OBS_CLIP)


def test_frozen_normalization_follows_loaded_and_refrozen_moments():
    rng = np.random.default_rng(6)
    a, b = RunningStats(3), RunningStats(3)
    for _ in range(20):
        a.update(rng.normal(0.0, 1.0, 3))
        b.update(rng.normal(4.0, 3.0, 3))
    x = rng.standard_normal(3)
    a.frozen = True
    np.testing.assert_array_equal(normalize_observation(a, x),
                                  _frozen_oracle(a.state_dict(), x))
    # loading b's moments into the frozen a must replace what a used
    a.load_state_dict({**b.state_dict(), "frozen": True})
    np.testing.assert_array_equal(normalize_observation(a, x),
                                  _frozen_oracle(b.state_dict(), x))
    # thaw, move the moments, freeze again: the new moments apply
    a.frozen = False
    normalize_observation(a, rng.normal(50.0, 1.0, 3))
    a.frozen = True
    np.testing.assert_array_equal(normalize_observation(a, x),
                                  _frozen_oracle(a.state_dict(), x))


def test_normalize_dim_mismatch():
    with pytest.raises(ValueError):
        normalize_observation(RunningStats(3), [1.0, 2.0])


def test_stats_state_roundtrip():
    a = RunningStats(3)
    rng = np.random.default_rng(2)
    for _ in range(10):
        a.update(rng.standard_normal(3))
    b = RunningStats(3)
    b.load_state_dict(a.state_dict())
    x = rng.standard_normal(3)
    np.testing.assert_array_equal(normalize_observation(a, x),
                                  normalize_observation(b, x))


def test_reward_scaler_first_reward_unscaled():
    sc = RewardScaler(gamma=0.99)
    assert sc.scale(7.3, False) == pytest.approx(7.3)


def test_reward_scaler_matches_replay_oracle():
    """Re-derive every scale factor from the definition: Welford over the
    running discounted return, seeded with a unit-variance prior, scale
    taken before the current return sample is absorbed."""
    rng = np.random.default_rng(4)
    rewards = rng.normal(0.0, 5.0, 400)
    dones = rng.random(400) < 0.05
    gamma = 0.99

    sc = RewardScaler(gamma)
    got = [sc.scale(float(r), bool(d)) for r, d in zip(rewards, dones)]

    ret, count, mean, m2 = 0.0, 1.0, 0.0, 1.0
    want = []
    for r, d in zip(rewards, dones):
        want.append(r / max(np.sqrt(m2 / count), 1e-8))
        ret = gamma * ret + r
        count += 1.0
        delta = ret - mean
        mean += delta / count
        m2 += delta * (ret - mean)
        if d:
            ret = 0.0
    np.testing.assert_allclose(got, want, atol=1e-12)


def test_reward_scaler_shrinks_large_reward_scale():
    sc = RewardScaler(gamma=0.99)
    for _ in range(200):
        sc.scale(50.0, False)
    assert abs(sc.scale(50.0, False)) < 1.0  # running return std >> 50


def test_reward_scaler_state_roundtrip():
    a = RewardScaler(0.99)
    for i in range(10):
        a.scale(float(i), i == 5)
    b = RewardScaler(0.99)
    b.load_state_dict(a.state_dict())
    assert a.scale(3.0, False) == b.scale(3.0, False)
    assert a.state_dict() == b.state_dict()
    # the discount is the constructor's: a state holds none, and the
    # "gamma" of older checkpoints is not read
    assert "gamma" not in a.state_dict()
    c = RewardScaler(0.5)
    c.load_state_dict({**a.state_dict(), "gamma": 0.99})
    assert c.gamma == 0.5
