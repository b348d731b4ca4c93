from functools import partial

import numpy as np
import pytest

from gateracer import evaluation, networks
from gateracer.checkpoint import load_checkpoint
from gateracer.config import RunConfig, TrackSettings
from gateracer.dynamics import DynamicsConfig
from gateracer.env import RacingEnv
from gateracer.evaluation import evaluate, race
from gateracer.geometry import default_track, sample_spawn
from gateracer.training import Trainer


@pytest.fixture(scope="module")
def noisy_state(tmp_path_factory):
    """An untrained policy on a 3-gate track, with sensor noise so that
    every episode draws from its sensor stream too."""
    tmp_path = tmp_path_factory.mktemp("policy")
    cfg = RunConfig(
        track=TrackSettings(seed=3, n_gates=3, spacing=(10.0, 12.0)),
        dynamics=DynamicsConfig(imu_noise_std=(0.05,) * 7, gps_noise_std=0.1))
    tr = Trainer(cfg, seed=0, out_dir=tmp_path)
    state = load_checkpoint(tr.save(tmp_path / "checkpoint.bin"))
    tr.metrics.close()
    return state


def _runs(state, seed):
    """evaluate and race, each with deterministic and sampled actions;
    call each with the episode count."""
    return [partial(evaluate, state, deterministic=True, seed=seed,
                    spawn_distance=3.0),
            partial(evaluate, state, deterministic=False, seed=seed,
                    yaw_error=0.3),
            partial(race, state, seed=seed),
            partial(race, state, seed=seed, deterministic=False)]


def test_evaluate_and_race_never_touch_the_critic(tmp_path):
    cfg = RunConfig(track=TrackSettings(seed=3, n_gates=3,
                                        spacing=(10.0, 12.0)))
    tr = Trainer(cfg, seed=0, out_dir=tmp_path)
    state = load_checkpoint(tr.save(tmp_path / "checkpoint.bin"))
    tr.metrics.close()
    broken = dict(state, arrays=dict(state["arrays"]))
    n_actor = len(tr.params.actor)
    for i in range(len(tr.params.critic)):
        # the first critic entry follows the actor and log_std
        broken["arrays"][f"param{n_actor + 1 + i:02d}"] = np.zeros((2, 2))

    for deterministic in (True, False):
        assert (evaluate(broken, episodes=2, deterministic=deterministic)
                == evaluate(state, episodes=2, deterministic=deterministic))
    assert race(broken, episodes=1) == race(state, episodes=1)


def test_displaced_spawn_sets_distance_and_yaw_offset(monkeypatch):
    track = default_track(3, n_gates=3)
    center = track.gates[0].center.copy()
    drawn = []

    def recording_spawn(*args):
        spawn = sample_spawn(*args)
        drawn.append((spawn, spawn.copy()))
        return spawn

    monkeypatch.setattr(evaluation, "sample_spawn", recording_spawn)
    signs = set()
    for seed in range(8):
        base = sample_spawn(track, 0, np.random.default_rng(seed))
        moved = evaluation._displaced_spawn(
            track, np.random.default_rng(seed), 5.0, 0.3)
        # the spawn it started from is left as drawn
        spawn, snapshot = drawn[-1]
        assert spawn == snapshot == base and moved is not spawn
        np.testing.assert_array_equal(track.gates[0].center, center)

        rel = np.asarray(moved.position) - center
        assert abs(np.linalg.norm(rel) - 5.0) <= 1e-12
        # on the ray from the gate centre through the undisplaced spawn
        ray = np.asarray(base.position) - center
        np.testing.assert_allclose(rel / np.linalg.norm(rel),
                                   ray / np.linalg.norm(ray), atol=1e-12)

        assert moved.yaw in (base.yaw + 0.3, base.yaw - 0.3)
        signs.add(1.0 if moved.yaw == base.yaw + 0.3 else -1.0)
        assert moved.attitude[:2] == base.attitude[:2]
        assert moved.velocity == base.velocity
    assert signs == {1.0, -1.0}

    # neither displacement requested: the undisplaced spawn, same stream
    same = evaluation._displaced_spawn(track, np.random.default_rng(2),
                                       None, 0.0)
    assert same == sample_spawn(track, 0, np.random.default_rng(2))


def test_one_actor_forward_per_lockstep_step(noisy_state, monkeypatch):
    rows, batched = [], []

    def spy_batch(net, obs):
        rows.append(len(obs))
        batched.append(True)
        return networks.forward_batch(net, obs)

    def spy_one(params, obs):
        rows.append(1)
        batched.append(False)
        return networks.forward(params, obs)

    steps = {}
    env_step = RacingEnv.step

    def counted_step(env, action):
        steps[env] = steps.get(env, 0) + 1
        return env_step(env, action)

    monkeypatch.setattr(evaluation, "forward_batch", spy_batch)
    monkeypatch.setattr(evaluation, "forward", spy_one)
    monkeypatch.setattr(RacingEnv, "step", counted_step)
    lengths = set()
    for run in _runs(noisy_state, seed=1):
        rows.clear()
        batched.clear()
        steps.clear()
        run(6)
        assert len(steps) == 6
        # one call per lockstep step, over every live episode and only them
        assert len(rows) == max(steps.values())
        assert rows[0] == 6
        assert all(a >= b for a, b in zip(rows, rows[1:]))
        assert sum(rows) == sum(steps.values())
        # batched while two or more run, single-observation for a lone one
        assert batched == [n > 1 for n in rows]
        lengths.update(steps.values())
    assert len(lengths) > 1  # episodes did leave the batch at different steps


def test_actor_acts_in_float32_on_a_copy(noisy_state, monkeypatch):
    """Batched and lone-episode forwards get float32 weights and inputs
    and return float32 means; the checkpoint's float64 actor is left as
    it was."""
    # the actor's four weights and four biases come first
    actor = {f"param{i:02d}": noisy_state["arrays"][f"param{i:02d}"].copy()
             for i in range(8)}
    seen = []

    def spy_batch(net, obs):
        out = networks.forward_batch(net, obs)
        seen.append(("batch", net, obs, out[3]))
        return out

    def spy_one(params, obs):
        mean, log_std = networks.forward(params, obs)
        seen.append(("one", params.actor, obs, mean))
        return mean, log_std

    monkeypatch.setattr(evaluation, "forward_batch", spy_batch)
    monkeypatch.setattr(evaluation, "forward", spy_one)
    for run in _runs(noisy_state, seed=2):
        for episodes in (1, 3):
            run(episodes)
    assert {kind for kind, *_ in seen} == {"batch", "one"}
    for _, net, obs, mean in seen:
        assert [a.dtype for a in net] == [np.float32] * len(actor)
        assert obs.dtype == mean.dtype == np.float32
    for name, a in actor.items():
        assert noisy_state["arrays"][name].dtype == np.float64
        np.testing.assert_array_equal(noisy_state["arrays"][name], a)


def test_episode_outcome_does_not_depend_on_the_episode_count(noisy_state,
                                                              monkeypatch):
    """With a policy whose rows are computed one by one, as `forward`
    computes a lone episode's, episode i ends in the same state whether 4
    or 16 episodes share its steps."""
    made = []

    class RecordedEnv(RacingEnv):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            made.append(self)

    def rowwise(net, obs):
        return None, None, None, np.array(
            [networks._mlp_forward(row, *net)[3] for row in obs])

    monkeypatch.setattr(evaluation, "RacingEnv", RecordedEnv)
    monkeypatch.setattr(evaluation, "forward_batch", rowwise)

    def finals(run, episodes):
        made.clear()
        run(episodes)
        return [{k: v for k, v in env.state_dict().items() if k != "track"}
                for env in made]

    for run in _runs(noisy_state, seed=7):
        many = finals(run, 16)
        assert finals(run, 4) == many[:4]
        assert len({repr(f["agent"]) for f in many}) == 16


def test_rerun_at_a_fixed_seed_and_count_is_identical(noisy_state):
    for run in _runs(noisy_state, seed=3):
        assert run(5) == run(5)
