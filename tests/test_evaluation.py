import numpy as np

from gateracer.checkpoint import load_checkpoint
from gateracer.config import RunConfig, TrackSettings
from gateracer.evaluation import evaluate, race
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
