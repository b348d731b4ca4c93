import json

import numpy as np
import pytest

from gateracer.checkpoint import CheckpointError, load_checkpoint, save_checkpoint
from gateracer.cli import main as cli_main
from gateracer.config import RunConfig, TrackSettings
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
    tr.metrics.close()
    return tr


def test_checkpoint_arrays_keep_their_dtype_after_an_update(tmp_path):
    """Adam moments are float32, everything else float64, and the
    checkpoint stores each array in its in-memory dtype."""
    tr = _one_update_trainer(tmp_path)
    assert tr.update_count == 1
    arrays = tr._state_dict()["arrays"]
    saved = load_checkpoint(tr.checkpoint_path)["arrays"]
    assert set(saved) == set(arrays)
    for name in arrays:
        want = np.float32 if name.startswith("adam_") else np.float64
        assert arrays[name].dtype == saved[name].dtype == want, name
        assert saved[name].dtype.byteorder in "<=", name
    assert sum(name.startswith("adam_m") for name in arrays) == 17


def test_checkpoint_with_float64_moments_resumes_as_float32(tmp_path):
    """A checkpoint written when the moments were float64 still resumes.
    Its moments are rounded to float32 once, on load, after which the run
    matches one resumed from the same moments stored as float32."""
    path = _one_update_trainer(tmp_path / "first").checkpoint_path
    state = load_checkpoint(path)
    old = tmp_path / "old.bin"
    rng = np.random.default_rng(0)
    for name, a in state["arrays"].items():
        if name.startswith("adam_"):
            # float64 values that float32 cannot hold, each nearest to `a`
            wide = a.astype(np.float64)
            state["arrays"][name] = wide * (1 + 1e-9 * rng.uniform(
                -1, 1, a.shape))
            assert np.any(state["arrays"][name] != wide)
    save_checkpoint(old, state)
    assert load_checkpoint(old)["arrays"]["adam_m00"].dtype == np.float64

    a = _one_update_trainer(tmp_path / "a", resume=path)
    b = _one_update_trainer(tmp_path / "b", resume=str(old))
    for x, y in zip(a.adam.m + a.adam.v, b.adam.m + b.adam.v):
        assert y.dtype == np.float32 and y.flags.c_contiguous
        np.testing.assert_array_equal(x, y)
    for x, y in zip(a.params.flat_list(), b.params.flat_list()):
        np.testing.assert_array_equal(x, y)
    assert ((tmp_path / "a" / "metrics.jsonl").read_bytes()
            == (tmp_path / "b" / "metrics.jsonl").read_bytes())


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


@pytest.mark.parametrize("lr_decay", [False, True])
def test_lr_decay_falls_linearly(tmp_path, monkeypatch, lr_decay):
    """With lr_decay the learning rate handed to each update falls
    linearly from learning_rate toward 0 over the step budget; without
    it, it stays at learning_rate."""
    from gateracer import training

    lrs = []
    update = training.ppo_update

    def spy(*args, lr, **kwargs):
        lrs.append(lr)
        return update(*args, lr=lr, **kwargs)

    monkeypatch.setattr(training, "ppo_update", spy)
    cfg = small_cfg(total_steps=4 * 256)
    cfg.train.rollout_steps = 256
    cfg.train.epochs_per_update = 1
    cfg.train.lr_decay = lr_decay
    Trainer(cfg, seed=0, out_dir=tmp_path).train()
    lr0 = cfg.train.learning_rate
    fracs = [1.0, 0.75, 0.5, 0.25] if lr_decay else [1.0] * 4
    assert lrs == pytest.approx([lr0 * f for f in fracs], rel=1e-12)


@pytest.mark.parametrize("interval, saved_at", [(2, [2, 4]), (3, [3, 4])])
def test_train_saves_each_checkpoint_once(tmp_path, monkeypatch, interval,
                                          saved_at):
    """The final save is skipped when the last update has just written
    the checkpoint; a run with nothing left to train still writes one."""
    from gateracer import checkpoint

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
    deleted.metrics.close()
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
    tr.metrics.close()
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


def test_checkpoint_without_metrics_length_resumes_as_before(tmp_path):
    """Checkpoints written before the log length was recorded still load;
    the log is then appended to, not cut."""
    path = _crash_after_seven_updates(tmp_path)
    state = load_checkpoint(path)
    del state["scalars"]["metrics_bytes"]
    save_checkpoint(path, state)
    before = (tmp_path / "metrics.jsonl").read_bytes()
    tr = Trainer(_crash_cfg(), seed=4, out_dir=tmp_path, resume=str(path))
    tr.metrics.close()
    assert (tmp_path / "metrics.jsonl").read_bytes() == before


def test_checkpoint_with_target_gate_and_gamma_resumes_as_before(tmp_path):
    """Checkpoints written when the env status held its target gate and
    the reward scaler its gamma still resume, and the run then matches an
    uninterrupted one byte for byte."""
    Trainer(_crash_cfg(), seed=4, out_dir=tmp_path / "full").train()
    path = _crash_after_seven_updates(tmp_path / "crash")
    state = load_checkpoint(path)
    status = state["env"]["status"]
    assert "target_gate" not in status
    n_gates = _crash_cfg().track.n_gates
    status["target_gate"] = min(status["gates_passed"], n_gates - 1)
    state["scalars"]["reward_scaler"]["gamma"] = _crash_cfg().train.gamma
    save_checkpoint(path, state)
    Trainer(_crash_cfg(), seed=4, out_dir=tmp_path / "crash",
            resume=str(path)).train()
    for name in ("metrics.jsonl", "checkpoint.bin"):
        assert ((tmp_path / "crash" / name).read_bytes()
                == (tmp_path / "full" / name).read_bytes()), name
