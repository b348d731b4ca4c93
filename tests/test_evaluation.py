from functools import partial

import numpy as np
import pytest

from gateracer import evaluation, networks
from gateracer.checkpoint import load_checkpoint
from gateracer.config import (HarnessConfig, OpponentSettings, RunConfig,
                              TrackSettings)
from gateracer.dynamics import DynamicsConfig
from gateracer.env import RacingEnv
from gateracer.evaluation import evaluate, race
from gateracer.geometry import default_track, sample_spawn, track_from_dict
from gateracer.rewards import RewardConfig
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
    """evaluate with deterministic and sampled actions, and race; call
    each with the episode count."""
    return [partial(evaluate, state, deterministic=True, seed=seed,
                    spawn_distance=3.0),
            partial(evaluate, state, deterministic=False, seed=seed,
                    yaw_error=0.3),
            partial(race, state, seed=seed)]


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


def test_evaluate_and_race_build_the_trainer_env(tmp_path, monkeypatch):
    """The envs that evaluate and race build from a checkpoint carry the
    training env's dynamics, reward, opponent and drone-radius settings,
    none of them the defaults."""
    cfg = RunConfig(
        track=TrackSettings(seed=3, n_gates=3, spacing=(10.0, 12.0)),
        dynamics=DynamicsConfig(tau=0.2, v_max=12.0, dt=0.04,
                                gps_noise_std=0.1),
        reward=RewardConfig(pass_reward=40.0, pass_check_radius=0.6,
                            collision_limit=3),
        opponent=OpponentSettings(cruise_speed=3.0, approach_offset=1.5),
        harness=HarnessConfig(drone_radius=0.4))
    tr = Trainer(cfg, seed=0, out_dir=tmp_path)
    state = load_checkpoint(tr.save(tmp_path / "checkpoint.bin"))
    tr.metrics.close()
    trained = tr.env
    defaults = RacingEnv(trained.track, RunConfig())
    built = []
    setup = evaluation._setup

    def recording_setup(*args):
        params, stats, envs, action_rngs = setup(*args)
        built.extend(envs)
        return params, stats, envs, action_rngs

    monkeypatch.setattr(evaluation, "_setup", recording_setup)
    evaluate(state, episodes=1)
    race(state, episodes=1)
    assert len(built) == 2
    for attr in ("dyn_cfg", "reward_cfg", "opp_cfg", "drone_radius",
                 "_pass_reach", "_frame_reach"):
        assert getattr(trained, attr) != getattr(defaults, attr), attr
        for env in built:
            assert getattr(env, attr) == getattr(trained, attr), attr
    for env in built:
        np.testing.assert_array_equal(env.plan.waypoints,
                                      trained.plan.waypoints)


@pytest.mark.parametrize("heading,cruise_speed,outcome", [
    (1.0, 1.0, {"agent_wins": 8, "opponent_wins": 0, "agent_dnf": 0}),
    (0.0, 4.0, {"agent_wins": 0, "opponent_wins": 8, "agent_dnf": 0}),
    (-1.0, 1.0, {"agent_wins": 0, "opponent_wins": 1, "agent_dnf": 7}),
])
def test_race_outcomes(tmp_path, heading, cruise_speed, outcome):
    """On one gate, a policy that always commands `heading` times the gate
    normal beats a slow opponent when it flies through the gate, loses to
    a fast one when it hovers, and flies off (a DNF) when it turns its
    back on the gate."""
    tr = Trainer(RunConfig(track=TrackSettings(seed=4, n_gates=1)), seed=0,
                 out_dir=tmp_path)
    state = load_checkpoint(tr.save(tmp_path / "checkpoint.bin"))
    tr.metrics.close()
    normal = track_from_dict(state["track"]).gates[0].normal
    # the actor's output layer: weights param06 and bias param07
    arrays = dict(state["arrays"],
                  param06=np.zeros_like(state["arrays"]["param06"]),
                  param07=heading * normal)
    config = dict(state["config"], opponent=dict(
        state["config"]["opponent"], cruise_speed=cruise_speed))
    state = dict(state, arrays=arrays, config=config)
    assert race(state, episodes=8, seed=1) == {"episodes": 8, **outcome}


def test_displaced_spawn_sets_distance_and_yaw_offset(monkeypatch):
    track = default_track(3, n_gates=3)
    center = np.asarray(track.gates[0].center)
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
    rows = []

    def spy(params, obs):
        # every call gets a float32 batch, a lone live episode included
        assert obs.dtype == np.float32 and obs.shape == (len(obs), 21)
        rows.append(len(obs))
        return networks.forward(params, obs)

    steps = {}
    env_step = RacingEnv.step

    def counted_step(env, action):
        steps[env] = steps.get(env, 0) + 1
        return env_step(env, action)

    monkeypatch.setattr(evaluation, "forward", spy)
    monkeypatch.setattr(RacingEnv, "step", counted_step)
    lengths, sizes = set(), set()
    for run in _runs(noisy_state, seed=1):
        rows.clear()
        steps.clear()
        run(6)
        assert len(steps) == 6
        # one call per lockstep step, over every live episode and only them
        assert len(rows) == max(steps.values())
        assert rows[0] == 6
        assert all(a >= b for a, b in zip(rows, rows[1:]))
        assert sum(rows) == sum(steps.values())
        lengths.update(steps.values())
        sizes.update(rows)
    assert len(lengths) > 1  # episodes did leave the batch at different steps
    assert 1 in sizes  # a lone live episode is a batch of one


def test_actor_acts_in_float32_on_a_copy(noisy_state, monkeypatch):
    """The actor forward gets float32 weights and inputs and returns
    float32 means; the checkpoint's float64 actor is left as it was."""
    # the actor's four weights and four biases come first
    actor = {f"param{i:02d}": noisy_state["arrays"][f"param{i:02d}"].copy()
             for i in range(8)}
    seen = []

    def spy(params, obs):
        mean = networks.forward(params, obs)
        seen.append((params.actor, obs, mean))
        return mean

    monkeypatch.setattr(evaluation, "forward", spy)
    for run in _runs(noisy_state, seed=2):
        for episodes in (1, 3):
            run(episodes)
    assert {len(obs) for _, obs, _ in seen} >= {1, 3}
    for net, obs, mean in seen:
        assert [a.dtype for a in net] == [np.float32] * len(actor)
        assert obs.dtype == mean.dtype == np.float32
    for name, a in actor.items():
        assert noisy_state["arrays"][name].dtype == np.float64
        np.testing.assert_array_equal(noisy_state["arrays"][name], a)


def test_episode_outcome_does_not_depend_on_the_episode_count(noisy_state,
                                                              monkeypatch):
    """With a policy whose rows are computed one by one, episode i ends
    in the same state whether 4 or 16 episodes share its steps."""
    made = []

    class RecordedEnv(RacingEnv):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            made.append(self)

    def rowwise(params, obs):
        return np.array([networks._mlp_forward(row, *params.actor)[3]
                         for row in obs])

    monkeypatch.setattr(evaluation, "RacingEnv", RecordedEnv)
    monkeypatch.setattr(evaluation, "forward", rowwise)

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
