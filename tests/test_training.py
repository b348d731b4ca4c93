import dataclasses
import json
import math
import os
import signal
import subprocess
import sys
import threading
import time
from functools import partial

import numpy as np
import pytest

import gateracer
from gateracer import checkpoint, evaluation, networks
from gateracer.checkpoint import CheckpointError, load_checkpoint, save_checkpoint
from gateracer.cli import main as cli_main
from gateracer.config import RunConfig, TrackSettings
from gateracer.dynamics import DroneState
from gateracer.env import RacingEnv
from gateracer.geometry import default_track, save_track, track_to_dict
from gateracer.networks import forward_batch
from gateracer.training import STREAM_NAMES, Trainer, make_streams


def small_cfg(total_steps=2048, **track_kw):
    cfg = RunConfig(track=TrackSettings(seed=3, n_gates=3,
                                        spacing=(10.0, 12.0), **track_kw))
    cfg.train.total_steps = total_steps
    cfg.harness.checkpoint_interval = 1
    return cfg


def test_make_streams_deterministic_and_independent():
    a = make_streams(42)
    b = make_streams(42)
    assert set(a) == set(STREAM_NAMES)
    for name in STREAM_NAMES:
        assert a[name].random() == b[name].random()
    c = make_streams(43)
    assert a["policy"].random() != c["policy"].random()
    draws = {name: make_streams(7)[name].random() for name in STREAM_NAMES}
    assert len(set(draws.values())) == len(STREAM_NAMES)


def test_rollout_fills_buffer_and_advances_clock(tmp_path):
    tr = Trainer(small_cfg(), seed=0, out_dir=tmp_path)
    reasons = []
    emit = tr._emit_episode

    def spy_emit():
        reasons.append(tr.env.status.done)
        emit()

    tr._emit_episode = spy_emit
    buf = tr.collect_rollout()
    assert buf.full
    assert tr.global_step == tr.cfg.train.rollout_steps
    assert np.all(np.isfinite(buf.obs))
    assert np.all(np.abs(buf.obs) <= 10.0)  # normalized and clipped
    # every recorded episode termination is a declared reason
    assert len(reasons) == tr.episode_count > 0
    for reason in reasons:
        assert reason in ("all_gates", "too_far", "collision_limit",
                          "time_limit")
    tr.metrics.close()


def test_rollout_values_match_the_critic(tmp_path):
    tr = Trainer(small_cfg(), seed=0, out_dir=tmp_path)
    buf = tr.collect_rollout()
    _, _, _, v = forward_batch(tr.params.critic, buf.obs)
    np.testing.assert_allclose(buf.values, v[:, 0], rtol=0, atol=1e-12)
    _, _, _, v_next = forward_batch(tr.params.critic, tr._pending_obs[None])
    want = 0.0 if buf.dones[-1] else v_next[0, 0]
    assert buf.bootstrap_value == pytest.approx(want, rel=0, abs=1e-12)
    tr.metrics.close()


def _one_update_trainer(out_dir, resume=None):
    cfg = small_cfg()
    cfg.train.rollout_steps = 256
    cfg.train.epochs_per_update = 1
    tr = Trainer(cfg, seed=0, out_dir=out_dir, resume=resume)
    tr.iterate()
    tr.close()
    return tr


def test_checkpoint_arrays_keep_their_dtype_after_an_update(tmp_path):
    """The parameters and the Adam moments are float32, the observation
    statistics and the pending observation float64, and the checkpoint
    stores each array in its in-memory dtype."""
    tr = _one_update_trainer(tmp_path)
    assert tr.update_count == 1
    arrays = tr._state_dict()["arrays"]
    saved = load_checkpoint(tr.checkpoint_path)["arrays"]
    assert set(saved) == set(arrays)
    float64 = {"obs_mean", "obs_m2", "pending_obs"}
    for name in arrays:
        assert name in float64 or name.startswith(("param", "adam_")), name
        want = np.float64 if name in float64 else np.float32
        assert arrays[name].dtype == saved[name].dtype == want, name
        assert saved[name].dtype.byteorder in "<=", name
    assert sum(name.startswith("adam_m") for name in arrays) == 17


def test_a_checkpoint_with_float64_parameters_runs_on_float32(
        tmp_path, capsys, monkeypatch):
    """Checkpoints written while the parameters were float64 master
    weights hold float64 `param*` arrays. Such a file loads with them cast
    to float32: evaluate and race act on float32 weights, and a resume
    trains float32 parameters, each exactly as from the file that stores
    the same values in float32. `inspect --ckpt` shows the arrays as they
    are stored."""
    path = _one_update_trainer(tmp_path / "first").checkpoint_path
    state = load_checkpoint(path)
    wide = dict(state, arrays={
        name: a.astype(np.float64) if name.startswith("param") else a
        for name, a in state["arrays"].items()})
    wide_path = str(tmp_path / "wide.bin")
    save_checkpoint(wide_path, wide)
    wide = load_checkpoint(wide_path)
    assert {a.dtype for name, a in wide["arrays"].items()
            if name.startswith("param")} == {np.dtype(np.float64)}

    dtypes = set()

    def spy(actor, obs):
        dtypes.update(a.dtype for a in actor)
        return networks.forward(actor, obs)

    monkeypatch.setattr(evaluation, "forward", spy)
    for run in (partial(evaluation.evaluate, episodes=2),
                partial(evaluation.race, episodes=1)):
        assert run(wide) == run(state)
    assert dtypes == {np.dtype(np.float32)}

    resumed = []
    for name, ckpt in (("narrow", path), ("wide", wide_path)):
        tr = Trainer(None, seed=0, out_dir=tmp_path / name, resume=ckpt)
        assert {p.dtype for p in tr.params.flat_list()} == {
            np.dtype(np.float32)}
        tr.iterate()
        tr.close()
        resumed.append(tr.params.flat_list())
    for a, b in zip(*resumed):
        np.testing.assert_array_equal(a, b)

    capsys.readouterr()
    assert cli_main(["inspect", "--ckpt", wide_path]) == 0
    arrays = json.loads(capsys.readouterr().out)["arrays"]
    assert arrays["param00"]["dtype"] == "float64"
    assert arrays["adam_m00"]["dtype"] == "float32"


def test_resume_refuses_float64_moments(tmp_path, capsys):
    """The Adam moments are float32 in every checkpoint a run writes. A
    file with a float64 moment stops the resume at load, naming the
    array, and `gateracer train --resume` exits 1 on it."""
    tr = Trainer(small_cfg(), seed=0, out_dir=tmp_path / "first")
    state = tr._state_dict()
    tr.close()
    state["arrays"]["adam_v05"] = state["arrays"]["adam_v05"].astype(
        np.float64)
    path = str(tmp_path / "wide.bin")
    save_checkpoint(path, state)
    with pytest.raises(CheckpointError, match="'adam_v05' is float64"):
        Trainer(None, seed=0, out_dir=tmp_path / "b", resume=path)
    config = tmp_path / "run.yaml"
    config.write_text("track: {n_gates: 3}\n")
    assert cli_main(["train", "--config", str(config), "--out",
                     str(tmp_path / "c"), "--resume", path]) == 1
    assert "'adam_v05' is float64" in capsys.readouterr().err


def test_resume_rejects_a_moment_of_the_wrong_shape(tmp_path):
    """A moment whose shape differs from its parameter's stops the resume
    at load, naming the array, instead of failing in the first Adam step
    after a whole rollout."""
    path = _one_update_trainer(tmp_path / "first").checkpoint_path
    state = load_checkpoint(path)
    assert state["arrays"]["adam_m03"].shape == (256,)
    state["arrays"]["adam_m03"] = np.zeros(7, dtype=np.float32)
    save_checkpoint(path, state)
    with pytest.raises(CheckpointError, match=r"'adam_m03' is of shape \(7,\)"):
        Trainer(None, seed=0, out_dir=tmp_path / "b", resume=path)


def test_resume_of_a_checkpoint_missing_a_moment_is_a_cli_error(
        tmp_path, capsys):
    """A missing moment is a CheckpointError naming it, which `gateracer
    train --resume` reports as an error line, not a KeyError traceback."""
    path = _one_update_trainer(tmp_path / "first").checkpoint_path
    state = load_checkpoint(path)
    del state["arrays"]["adam_v05"]
    save_checkpoint(path, state)
    config = tmp_path / "run.yaml"
    config.write_text("track: {n_gates: 3}\n")
    code = cli_main(["train", "--config", str(config), "--out",
                     str(tmp_path / "b"), "--resume", path])
    assert code == 1
    assert "'adam_v05' is missing" in capsys.readouterr().err


def test_same_seed_runs_are_bit_identical(tmp_path):
    out1, out2 = tmp_path / "r1", tmp_path / "r2"
    Trainer(small_cfg(), seed=11, out_dir=out1).train()
    Trainer(small_cfg(), seed=11, out_dir=out2).train()
    m1 = (out1 / "metrics.jsonl").read_text()
    m2 = (out2 / "metrics.jsonl").read_text()
    assert m1 == m2 and m1.strip()


def test_different_seeds_diverge(tmp_path):
    out1, out2 = tmp_path / "r1", tmp_path / "r2"
    Trainer(small_cfg(), seed=1, out_dir=out1).train()
    Trainer(small_cfg(), seed=2, out_dir=out2).train()
    assert ((out1 / "metrics.jsonl").read_text()
            != (out2 / "metrics.jsonl").read_text())


@pytest.mark.parametrize("randomize_per_episode", [False, True])
def test_checkpoint_resume_continues_exactly(tmp_path, randomize_per_episode):
    """Interrupting after one update and resuming must reproduce the
    uninterrupted run bit for bit (params and metrics). With a new track
    per episode, the checkpoint falls inside an episode on a track that
    differs from the base track. That episode ends one step after the
    resume and sees only gate 0, which every procedural track shares, so
    the restored track is compared directly."""
    def cfg(total_steps):
        return small_cfg(total_steps=total_steps,
                         randomize_per_episode=randomize_per_episode)

    full_out = tmp_path / "full"
    tr_full = Trainer(cfg(4096), seed=5, out_dir=full_out)
    tr_full.train()

    part_out = tmp_path / "part"
    tr_part = Trainer(cfg(2048), seed=5, out_dir=part_out)
    ckpt_path = tr_part.train()
    env_state = load_checkpoint(ckpt_path)["env"]
    assert env_state["agent"]["time"] > 0
    if randomize_per_episode:
        assert env_state["track"] != track_to_dict(tr_part.base_track)

    resume_out = tmp_path / "resume"
    tr_res = Trainer(cfg(4096), seed=5, out_dir=resume_out, resume=ckpt_path)
    assert track_to_dict(tr_res.env.track) == env_state["track"]
    tr_res.train()

    for a, b in zip(tr_full.params.flat_list(), tr_res.params.flat_list()):
        np.testing.assert_array_equal(a, b)
    assert tr_full.global_step == tr_res.global_step
    assert tr_full.episode_count == tr_res.episode_count

    # the resumed metrics must equal the tail of the uninterrupted log
    full_lines = (full_out / "metrics.jsonl").read_text().splitlines()
    part_lines = (part_out / "metrics.jsonl").read_text().splitlines()
    res_lines = (resume_out / "metrics.jsonl").read_text().splitlines()
    assert part_lines + res_lines == full_lines


def test_fresh_run_starts_the_metrics_log_empty(tmp_path):
    """A fresh run into a directory that already holds a metrics log
    leaves the same bytes as one run there; only a resume appends."""
    def cfg():
        c = small_cfg(total_steps=512)
        c.train.rollout_steps = 256
        return c

    Trainer(cfg(), seed=2, out_dir=tmp_path / "once").train()
    for _ in range(2):
        Trainer(cfg(), seed=2, out_dir=tmp_path / "twice").train()
    once = (tmp_path / "once" / "metrics.jsonl").read_bytes()
    assert once.strip()
    assert (tmp_path / "twice" / "metrics.jsonl").read_bytes() == once


def test_rollout_acts_on_the_stored_actor_as_evaluation_does(tmp_path,
                                                             monkeypatch):
    """Every rollout step hands forward the stored float32 actor arrays
    themselves, uncopied, and sample_action one std list made once per
    rollout from log_std, as evaluation makes its own; evaluation samples
    with the same function, so the same (mean, std, rng) draws the same
    action in both."""
    from gateracer import training

    forward, sample = training.forward, training.sample_action
    actors, draws = [], []

    def spy_forward(actor, obs):
        actors.append(actor)
        return forward(actor, obs)

    def spy_sample(mean, std, rng):
        state = rng.bit_generator.state
        action = sample(mean, std, rng)
        draws.append((mean, std, state, action))
        return action

    monkeypatch.setattr(training, "forward", spy_forward)
    monkeypatch.setattr(training, "sample_action", spy_sample)
    cfg = small_cfg(total_steps=2 * 256)
    cfg.train.rollout_steps = 256
    cfg.train.epochs_per_update = 1
    tr = Trainer(cfg, seed=0, out_dir=tmp_path)
    stored = list(tr.params.actor)
    stds = []
    for _ in range(2):
        std = np.exp(tr.params.log_std).tolist()
        tr.iterate()
        rollout, draws[:] = draws[:], []
        assert len(rollout) == 256
        assert all(d[1] is rollout[0][1] for d in rollout)  # one list
        assert rollout[0][1] == std
        stds.append(rollout[0][1])
    tr.close()
    assert stds[0] is not stds[1]
    assert len(actors) == 2 * 256
    for actor in actors:
        assert all(a is b and a.dtype == np.float32
                   for a, b in zip(actor, stored, strict=True))

    assert evaluation.sample_action is sample
    for mean, std, state, action in rollout[:8]:
        rng = np.random.default_rng()
        rng.bit_generator.state = state
        assert evaluation.sample_action(mean, std, rng) == action
    eval_stds = []

    def spy_eval_sample(mean, std, rng):
        eval_stds.append(std)
        return sample(mean, std, rng)

    monkeypatch.setattr(evaluation, "sample_action", spy_eval_sample)
    evaluation.evaluate(tr._state_dict(), 2, seed=1)
    assert eval_stds and eval_stds[0] == np.exp(tr.params.log_std).tolist()


@pytest.mark.parametrize("interval, saved_at", [(2, [2, 4]), (3, [3, 4])])
def test_train_saves_each_checkpoint_once(tmp_path, monkeypatch, interval,
                                          saved_at):
    """The final save is skipped when the last update has just written
    the checkpoint; a run with nothing left to train still writes one."""
    counts = []

    def spy(path, state):
        counts.append(state["counters"]["update_count"])
        return save_checkpoint(path, state)

    monkeypatch.setattr(checkpoint, "save_checkpoint", spy)
    cfg = small_cfg(total_steps=4 * 256)
    cfg.train.rollout_steps = 256
    cfg.train.epochs_per_update = 1
    cfg.harness.checkpoint_interval = interval
    tr = Trainer(cfg, seed=0, out_dir=tmp_path / "run")
    path = tr.train()
    assert counts == saved_at
    save_checkpoint(tmp_path / "again.bin", tr._state_dict())
    assert ((tmp_path / "again.bin").read_bytes()
            == (tmp_path / "run" / "checkpoint.bin").read_bytes())

    counts.clear()
    done = Trainer(None, seed=0, out_dir=tmp_path / "done", resume=path)
    assert load_checkpoint(done.train())["counters"]["update_count"] == 4
    assert counts == [4]


def test_resume_without_config_uses_checkpoint_config(tmp_path):
    tr = Trainer(small_cfg(), seed=9, out_dir=tmp_path / "a")
    path = tr.train()
    tr2 = Trainer(None, seed=9, out_dir=tmp_path / "b", resume=path)
    tr2.metrics.close()
    assert tr2.cfg.track.seed == 3
    assert tr2.global_step == 2048


def test_resume_takes_gamma_from_the_config(tmp_path):
    """The reward scaler discounts with the config's train.gamma, as GAE
    does, also when a resume changes it: the checkpoint stores no gamma."""
    path = _one_update_trainer(tmp_path / "first").checkpoint_path
    saved = load_checkpoint(path)["scalars"]["reward_scaler"]
    assert "gamma" not in saved
    cfg = small_cfg()
    cfg.train.gamma = 0.9
    tr = Trainer(cfg, seed=0, out_dir=tmp_path / "b", resume=path)
    tr.metrics.close()
    assert tr.reward_scaler.gamma == 0.9
    assert tr.reward_scaler.state_dict() == saved


def test_resume_takes_the_base_track_from_the_checkpoint(tmp_path):
    """A resumed run keeps the base track its checkpoint stores, after
    the track file it was first read from is rewritten and then
    deleted."""
    track_file = tmp_path / "track.yaml"
    save_track(default_track(3, n_gates=3, spacing=(10.0, 12.0)), track_file)
    cfg = small_cfg(file=str(track_file))
    cfg.train.rollout_steps = 256
    tr = Trainer(cfg, seed=0, out_dir=tmp_path / "a")
    path = tr.save(tmp_path / "a" / "checkpoint.bin")
    tr.metrics.close()
    saved = load_checkpoint(path)["track"]

    save_track(default_track(4, n_gates=5), track_file)
    rewritten = Trainer(None, seed=0, out_dir=tmp_path / "b", resume=path)
    rewritten.metrics.close()
    assert track_to_dict(rewritten.base_track) == saved

    track_file.unlink()
    deleted = Trainer(None, seed=0, out_dir=tmp_path / "c", resume=path)
    deleted.iterate()
    deleted.close()
    assert load_checkpoint(deleted.checkpoint_path)["track"] == saved


def test_metrics_schema(tmp_path):
    out = tmp_path / "run"
    Trainer(small_cfg(), seed=0, out_dir=out).train()
    lines = (out / "metrics.jsonl").read_text().splitlines()
    assert lines
    events = set()
    for line in lines:
        rec = json.loads(line)
        events.add(rec["event"])
        assert {"event", "global_step", "episode", "episodic_return",
                "gates_passed", "collisions", "duration", "policy_loss",
                "value_loss", "approx_kl", "clip_fraction"} <= set(rec)
    assert "update" in events


def test_unwritable_out_dir():
    with pytest.raises(OSError):
        Trainer(small_cfg(), seed=0, out_dir="/proc/forbidden")


def _crash_cfg():
    cfg = small_cfg(total_steps=10 * 256)
    cfg.train.rollout_steps = 256
    cfg.harness.checkpoint_interval = 5
    return cfg


def _crash_after_seven_updates(out_dir):
    """Seven updates with a checkpoint after the fifth, then the process
    dies: no final save, and the log holds records past the checkpoint."""
    tr = Trainer(_crash_cfg(), seed=4, out_dir=out_dir)
    for _ in range(7):
        tr.iterate()
    tr.close()
    path = out_dir / "checkpoint.bin"
    assert load_checkpoint(path)["counters"]["update_count"] == 5
    return path


def test_resume_after_a_crash_writes_no_duplicate_metrics(tmp_path):
    Trainer(_crash_cfg(), seed=4, out_dir=tmp_path / "full").train()
    want = (tmp_path / "full" / "metrics.jsonl").read_bytes()

    path = _crash_after_seven_updates(tmp_path / "crash")
    Trainer(_crash_cfg(), seed=4, out_dir=tmp_path / "crash",
            resume=str(path)).train()
    assert (tmp_path / "crash" / "metrics.jsonl").read_bytes() == want


def test_checkpoint_with_a_full_opponent_record_resumes_as_before(tmp_path):
    """Checkpoints written when the env kept the opponent's whole drone
    state, not just its position, still resume, and the run then matches
    an uninterrupted one byte for byte."""
    Trainer(_crash_cfg(), seed=4, out_dir=tmp_path / "full").train()
    path = _crash_after_seven_updates(tmp_path / "crash")
    state = load_checkpoint(path)
    env = state["env"]
    assert list(env["opponent"]) == ["position"]
    env["opponent"] = dataclasses.asdict(DroneState(
        position=env["opponent"]["position"], velocity=(3.2, -2.4, 0.0),
        attitude=(0.0, 0.0, -0.6435), angular_velocity=(0.0, 0.0, 0.0),
        time=env["agent"]["time"]))
    save_checkpoint(path, state)
    Trainer(_crash_cfg(), seed=4, out_dir=tmp_path / "crash",
            resume=str(path)).train()
    for name in ("metrics.jsonl", "checkpoint.bin"):
        assert ((tmp_path / "crash" / name).read_bytes()
                == (tmp_path / "full" / name).read_bytes()), name


# ----------------------------------------------------------------------
# interval checkpoints written behind the next rollout


def _writer_cfg(updates):
    cfg = small_cfg(total_steps=updates * 256)
    cfg.train.rollout_steps = 256
    cfg.train.epochs_per_update = 1
    return cfg


def test_an_interval_write_holds_the_state_of_its_own_update(
        tmp_path, monkeypatch):
    """The update after an interval save changes the parameters, the
    Adam moments and the observation statistics in place while that save
    is still being written; the file still holds the saved update's state,
    byte for byte."""
    release = threading.Event()
    saved_at = []

    def blocked_save(path, state):
        # the first write waits for the next update; later ones are dropped
        saved_at.append(state["counters"]["update_count"])
        if len(saved_at) == 1:
            assert release.wait(timeout=60)
            save_checkpoint(path, state)

    monkeypatch.setattr(checkpoint, "save_checkpoint", blocked_save)
    tr = Trainer(_writer_cfg(2), seed=0, out_dir=tmp_path / "run")
    tr.iterate()
    save_checkpoint(tmp_path / "sync.bin", tr._state_dict())

    emit = tr._emit_update

    def emit_then_release(stats):
        emit(stats)
        release.set()

    tr._emit_update = emit_then_release
    tr.iterate()
    tr.close()
    assert saved_at == [1, 2]
    assert ((tmp_path / "run" / "checkpoint.bin").read_bytes()
            == (tmp_path / "sync.bin").read_bytes())
    state = load_checkpoint(tr.checkpoint_path)
    assert state["counters"]["update_count"] == 1
    assert not np.array_equal(state["arrays"]["param00"], tr.params.actor[0])


def _fail_interval_saves(monkeypatch):
    def failing_save(path, state):
        raise OSError("no space left on the checkpoint device")

    monkeypatch.setattr(checkpoint, "save_checkpoint", failing_save)


@pytest.mark.parametrize("joined_by", ["next_save", "close", "train"])
def test_a_failed_interval_write_is_raised_where_it_is_joined(
        tmp_path, monkeypatch, joined_by):
    """The writer's error is raised by whatever waits for it next: the
    next interval save, close() or train(). No thread is left running and
    the metrics log is closed."""
    threads = set(threading.enumerate())
    _fail_interval_saves(monkeypatch)
    tr = Trainer(_writer_cfg(2), seed=0, out_dir=tmp_path)
    with pytest.raises(OSError, match="no space left"):
        if joined_by == "train":
            tr.train()
        else:
            tr.iterate()
            if joined_by == "close":
                tr.close()
            else:
                tr.iterate()
    if joined_by == "next_save":
        # raised once: the failed save started no write of its own
        assert tr.update_count == 2
        tr.close()
    assert tr.metrics._fh.closed
    assert set(threading.enumerate()) <= threads


def test_a_failed_interval_write_is_a_cli_runtime_error(
        tmp_path, monkeypatch, capsys):
    """`gateracer train` exits with code 2 when an interval write fails,
    as when a synchronous save fails."""
    threads = set(threading.enumerate())
    _fail_interval_saves(monkeypatch)
    config = tmp_path / "run.yaml"
    config.write_text("track: {n_gates: 3}\n"
                      "train: {total_steps: 512, rollout_steps: 256, "
                      "epochs_per_update: 1}\n"
                      "harness: {checkpoint_interval: 1}\n")
    code = cli_main(["train", "--config", str(config), "--out",
                     str(tmp_path / "out")])
    assert code == 2
    assert "no space left" in capsys.readouterr().err
    assert set(threading.enumerate()) <= threads


def test_train_closes_the_log_and_joins_the_writer_when_it_raises(
        tmp_path, monkeypatch):
    """A non-finite reward in the rollout after an interval save stops
    train() with its error; the save in flight still lands and the metrics
    log is closed."""
    threads = set(threading.enumerate())
    step = RacingEnv.step
    steps = []

    def nan_after_one_rollout(env, action):
        reward, done = step(env, action)
        steps.append(1)
        return (math.nan if len(steps) > 300 else reward), done

    monkeypatch.setattr(RacingEnv, "step", nan_after_one_rollout)
    tr = Trainer(_writer_cfg(4), seed=0, out_dir=tmp_path)
    with pytest.raises(RuntimeError, match="non-finite reward"):
        tr.train()
    assert tr.metrics._fh.closed
    assert set(threading.enumerate()) <= threads
    assert load_checkpoint(tr.checkpoint_path)["counters"]["update_count"] == 1


# ----------------------------------------------------------------------
# a training process killed at any moment resumes to the same bytes

KILL_CONFIG = ("track: {n_gates: 3}\n"
               "train: {total_steps: 1536, rollout_steps: 256}\n"
               "harness: {checkpoint_interval: 1}\n")


def _train_args(config, out_dir, *extra):
    return ["train", "--config", str(config), "--seed", "3", "--out",
            str(out_dir), *extra]


@pytest.fixture(scope="module")
def uninterrupted_run(tmp_path_factory):
    """Six updates, each checkpointed, run to the end: (config, run dir)."""
    root = tmp_path_factory.mktemp("kill")
    config = root / "run.yaml"
    config.write_text(KILL_CONFIG)
    assert cli_main(_train_args(config, root / "full")) == 0
    return config, root / "full"


def _kill_after_update(config, out_dir, k):
    """Runs `gateracer train` in a process of its own and SIGKILLs it once
    `metrics.jsonl` holds update record k and a checkpoint is on disk."""
    src = os.path.dirname(os.path.dirname(gateracer.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src] + [p for p in [os.environ.get("PYTHONPATH")] if p]))
    proc = subprocess.Popen(
        [sys.executable, "-m", "gateracer.cli",
         *_train_args(config, out_dir)],
        env=env, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL)
    metrics, ckpt = out_dir / "metrics.jsonl", out_dir / "checkpoint.bin"
    deadline = time.monotonic() + 120
    try:
        while not (ckpt.exists() and metrics.exists() and metrics.read_bytes()
                   .count(b'"event": "update"') >= k):
            assert proc.poll() is None, "the run ended before the kill"
            assert time.monotonic() < deadline, "no update record in time"
            time.sleep(0.001)
        proc.send_signal(signal.SIGKILL)
    finally:
        proc.kill()
        proc.wait()
    assert proc.returncode == -signal.SIGKILL


@pytest.mark.parametrize("k, stale_tmp", [(2, False), (4, False), (3, True)])
def test_a_killed_run_resumes_to_the_uninterrupted_bytes(
        tmp_path, uninterrupted_run, k, stale_tmp):
    """SIGKILL after update k, wherever the checkpoint write behind it
    stands, then `--resume` into the same directory: the log and the
    checkpoint are byte for byte those of a run never interrupted. A
    truncated temporary file beside the checkpoint, as a kill during a
    write leaves, is ignored and replaced."""
    config, full = uninterrupted_run
    out = tmp_path / "run"
    _kill_after_update(config, out, k)
    ckpt = out / "checkpoint.bin"
    tmp = out / "checkpoint.bin.tmp"
    if stale_tmp:
        data = (full / "checkpoint.bin").read_bytes()
        tmp.write_bytes(data[: len(data) // 2])
    assert cli_main(_train_args(config, out, "--resume", str(ckpt))) == 0
    for name in ("metrics.jsonl", "checkpoint.bin"):
        assert (out / name).read_bytes() == (full / name).read_bytes(), name
    assert not tmp.exists()
