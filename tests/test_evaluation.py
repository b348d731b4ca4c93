import numpy as np

from gateracer import evaluation
from gateracer.checkpoint import load_checkpoint
from gateracer.config import RunConfig, TrackSettings
from gateracer.evaluation import evaluate, race
from gateracer.geometry import default_track, sample_spawn
from gateracer.training import Trainer


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
