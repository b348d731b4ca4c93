import json
import struct
import zipfile

import pytest
import yaml

from gateracer.checkpoint import load_checkpoint, save_checkpoint
from gateracer.cli import main
from gateracer.config import MAX_GATES
from gateracer.geometry import default_track, save_track


def write_cfg(tmp_path, **train_overrides):
    cfg = {
        "track": {"seed": 3, "n_gates": 3, "spacing": [10.0, 12.0]},
        "train": {"total_steps": 2048, **train_overrides},
        "harness": {"checkpoint_interval": 1},
    }
    path = tmp_path / "run.yaml"
    path.write_text(yaml.safe_dump(cfg))
    return str(path)


def test_inspect_config(tmp_path, capsys):
    cfg = write_cfg(tmp_path)
    assert main(["inspect", "--config", cfg]) == 0
    out = capsys.readouterr().out
    assert "learning_rate" in out and "0.0001" in out
    assert "resolved track" in out
    assert "gates" in out


def test_inspect_track(tmp_path, capsys):
    path = tmp_path / "t.yaml"
    save_track(default_track(1, n_gates=3), path)
    assert main(["inspect", "--track", str(path)]) == 0
    assert "gates" in capsys.readouterr().out


def test_inspect_needs_an_argument(capsys):
    assert main(["inspect"]) == 1
    assert "error" in capsys.readouterr().err


def test_train_eval_race_roundtrip(tmp_path, capsys):
    cfg = write_cfg(tmp_path)
    out_dir = tmp_path / "run"
    assert main(["train", "--config", cfg, "--seed", "0",
                 "--out", str(out_dir)]) == 0
    ckpt = out_dir / "checkpoint.bin"
    assert ckpt.exists()
    capsys.readouterr()

    assert main(["eval", "--ckpt", str(ckpt), "--episodes", "2",
                 "--deterministic"]) == 0
    summary = json.loads(capsys.readouterr().out)
    for key in ("completion_rate", "mean_gates_passed", "mean_collisions",
                "mean_time"):
        assert key in summary

    assert main(["race", "--ckpt", str(ckpt), "--episodes", "1"]) == 0
    race_summary = json.loads(capsys.readouterr().out)
    assert "episodes" in json.dumps(race_summary) or race_summary

    assert main(["inspect", "--ckpt", str(ckpt)]) == 0
    info = json.loads(capsys.readouterr().out)
    assert info["counters"]["global_step"] == 2048
    arrays = info["arrays"]
    for name in ("param00", "adam_m00", "adam_v00"):
        assert arrays[name] == {"dtype": "float32",
                                "shape": arrays["param00"]["shape"]}
    assert {name for name, a in arrays.items() if a["dtype"] == "float64"
            } == {"obs_mean", "obs_m2", "pending_obs"}


def test_missing_config_is_exit_1(tmp_path, capsys):
    assert main(["train", "--config", str(tmp_path / "absent.yaml"),
                 "--out", str(tmp_path / "o")]) == 1
    assert "error" in capsys.readouterr().err


def test_bad_checkpoint_is_exit_1(tmp_path, capsys):
    bad = tmp_path / "bad.bin"
    bad.write_bytes(b"garbage")
    assert main(["eval", "--ckpt", str(bad), "--episodes", "1"]) == 1
    assert "error" in capsys.readouterr().err


def test_track_file_with_a_short_spawn_band_is_exit_1(tmp_path, capsys):
    path = tmp_path / "t.yaml"
    save_track(default_track(1, n_gates=3), path)
    data = yaml.safe_load(path.read_text())
    data["spawn_band"] = [0.1, 0.2]
    path.write_text(yaml.safe_dump(data))
    assert main(["inspect", "--track", str(path)]) == 1
    assert "error: spawn_band must satisfy" in capsys.readouterr().err


def test_v1_checkpoint_is_exit_1(tmp_path, capsys, trained_ckpt):
    """Files of the older formats, version 1 and a saved checkpoint whose
    header is rewritten to version 2, are refused naming both versions."""
    v1 = tmp_path / "v1.bin"
    v1.write_bytes(b"GRCKPT\x00" + struct.pack("<I", 1) + b"\x00" * 64)
    v2 = tmp_path / "v2.bin"
    with zipfile.ZipFile(trained_ckpt) as src, zipfile.ZipFile(v2, "w") as dst:
        for info in src.infolist():
            data = src.read(info)
            if info.filename == "checkpoint.json":
                header = json.loads(data)
                header["format_version"] = 2
                data = json.dumps(header)
            dst.writestr(info, data)
    for path, version in ((v1, 1), (v2, 2)):
        for argv in (["eval", "--ckpt", str(path), "--episodes", "1"],
                     ["inspect", "--ckpt", str(path)]):
            assert main(argv) == 1
            assert ("error: checkpoint format version mismatch: expected 3, "
                    f"found {version}") in capsys.readouterr().err


@pytest.mark.parametrize("section,name", [
    ("arrays", "param03"), ("arrays", "param16"), ("arrays", "obs_mean"),
    ("arrays", "obs_m2"), ("scalars", "obs_count")])
def test_checkpoint_without_a_policy_entry_is_exit_1(tmp_path, capsys,
                                                     trained_ckpt, section,
                                                     name):
    """A well-formed checkpoint that lacks one of the policy's entries is
    refused at load, naming the entry, by each command that loads the
    policy."""
    state = load_checkpoint(trained_ckpt)
    del state[section][name]
    path = str(tmp_path / "missing.bin")
    save_checkpoint(path, state)
    kind = "array" if section == "arrays" else "scalar"
    for argv in (["eval", "--ckpt", path, "--episodes", "1"],
                 ["race", "--ckpt", path, "--episodes", "1"],
                 ["train", "--config", write_cfg(tmp_path),
                  "--out", str(tmp_path / "o"), "--resume", path]):
        assert main(argv) == 1
        assert (f"error: checkpoint {kind} '{name}' is missing"
                in capsys.readouterr().err)


def test_removed_arrival_radius_is_unknown_key(tmp_path, capsys):
    path = tmp_path / "c.yaml"
    path.write_text(yaml.safe_dump({"opponent": {"arrival_radius": 0.5}}))
    assert main(["train", "--config", str(path),
                 "--out", str(tmp_path / "o")]) == 1
    assert "unknown keys in 'opponent' block" in capsys.readouterr().err


def test_bad_config_value_is_exit_1(tmp_path, capsys):
    path = tmp_path / "bad.yaml"
    path.write_text(yaml.safe_dump({"train": {"clip_epsilon": 5.0}}))
    assert main(["train", "--config", str(path),
                 "--out", str(tmp_path / "o")]) == 1


@pytest.mark.parametrize("block,key,value", [
    ("train", "minibatch_size", 0),
    ("train", "minibatch_size", -256),
    ("train", "rollout_steps", 0),
    ("train", "epochs_per_update", 0),
    ("dynamics", "tau", 0),
    ("dynamics", "dt", 0),
    ("harness", "checkpoint_interval", 0),
    ("dynamics", "imu_noise_std", 0.1),
    ("dynamics", "imu_noise_std", [0.1] * 6),
    ("dynamics", "imu_noise_std", [0.1] * 6 + [-0.1]),
    ("dynamics", "gps_noise_std", -0.1),
    ("train", "learning_rate", "abc"),
    ("train", "rollout_steps", True),
    ("harness", "drone_radius", None),
    ("reward", "time_limit", "abc"),
    ("track", "spacing", 5),
    ("track", "n_gates", 2.5),
    ("track", "file", 5),
    ("track", "randomize_per_episode", 3),
    ("track", "n_gates", 0),
    ("track", "n_gates", -3),
    ("track", "spacing", [5.0, 1.0]),
    ("track", "spacing", [0.0, 1.0]),
    ("track", "seed", -1),
    ("reward", "time_limit", -1),
    ("reward", "time_limit", 0),
    ("train", "learning_rate", -1e-4),
    ("train", "learning_rate", float("nan")),
    ("train", "learning_rate", float("inf")),
    ("train", "max_grad_norm", -0.5),
    ("train", "max_grad_norm", 0),
    ("train", "target_kl", -1),
    ("train", "target_kl", 0),
    ("train", "value_coef", -1),
    ("track", "n_gates", MAX_GATES + 1),
    ("track", "n_gates", 100_000_000),
    ("harness", "drone_radius", 0),
    ("harness", "drone_radius", float("nan")),
    ("harness", "metrics_queue_size", 0),
    ("reward", "collision_limit", 0),
    ("dynamics", "v_max", -1),
    ("dynamics", "command_scale", 0),
    ("dynamics", "command_scale", float("inf")),
    ("reward", "pass_reward", float("nan")),
    ("reward", "collision_penalty", float("nan")),
    ("reward", "stuck_penalty", float("nan")),
    ("reward", "timer_multiplier", float("nan")),
    ("reward", "max_divergence", 0),
    ("reward", "max_divergence", float("nan")),
    ("opponent", "cruise_speed", 0),
    ("opponent", "cruise_speed", float("nan")),
    ("opponent", "approach_offset", -1),
    ("opponent", "approach_offset", float("inf")),
    ("dynamics", "yaw_rate_max", float("nan")),
    ("dynamics", "yaw_rate_max", -1),
    ("dynamics", "tau", float("inf")),
    ("dynamics", "dt", float("inf")),
    ("dynamics", "gps_noise_std", float("inf")),
    ("dynamics", "imu_noise_std", [0.0] * 6 + [float("inf")]),
    ("reward", "progress_coef", float("nan")),
    ("reward", "proximity_bonus", float("nan")),
    ("reward", "max_divergence", float("inf")),
    ("train", "entropy_coef", float("nan")),
    ("train", "total_steps", -5),
    ("train", "value_coef", float("inf")),
    ("train", "target_kl", float("inf")),
    pytest.param("dynamics", "tau", 10**400, id="dynamics-tau-10**400"),
])
def test_non_positive_config_value_is_exit_1(tmp_path, capsys, block, key,
                                             value):
    """Both commands that read a config refuse it when it is loaded."""
    path = tmp_path / "c.yaml"
    path.write_text(yaml.safe_dump({block: {key: value}}))
    for argv in (["inspect"], ["train", "--out", str(tmp_path / "o")]):
        assert main([*argv, "--config", str(path)]) == 1
        err = capsys.readouterr().err
        assert f"error: invalid '{block}' block: {key}" in err


@pytest.fixture(scope="module")
def trained_ckpt(tmp_path_factory):
    tmp_path = tmp_path_factory.mktemp("cli")
    out_dir = tmp_path / "run"
    assert main(["train", "--config", write_cfg(tmp_path), "--seed", "0",
                 "--out", str(out_dir)]) == 0
    return str(out_dir / "checkpoint.bin")


@pytest.mark.parametrize("command", ["eval", "race"])
@pytest.mark.parametrize("episodes", ["0", "-1"])
def test_episodes_below_one_is_exit_1(trained_ckpt, command, episodes,
                                      capsys):
    assert main([command, "--ckpt", trained_ckpt,
                 "--episodes", episodes]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "error: episodes must be at least 1" in captured.err


def test_metrics_port_above_65535_is_exit_1(tmp_path, capsys):
    assert main(["train", "--config", write_cfg(tmp_path),
                 "--out", str(tmp_path / "o"),
                 "--metrics-addr", "127.0.0.1:70000"]) == 1
    assert "error: bad metrics address" in capsys.readouterr().err


def test_train_passes_metrics_queue_size(tmp_path, monkeypatch):
    import gateracer.telemetry

    seen = {}

    class FakeServer:
        def __init__(self, host, port, queue_size):
            seen.update(host=host, port=port, queue_size=queue_size)

        def publish(self, line):
            pass

        def close(self):
            pass

    monkeypatch.setattr(gateracer.telemetry, "MetricsServer", FakeServer)
    write_cfg(tmp_path, total_steps=256, rollout_steps=256,
              minibatch_size=256)
    cfg = yaml.safe_load((tmp_path / "run.yaml").read_text())
    cfg["harness"]["metrics_queue_size"] = 7
    path = tmp_path / "queue.yaml"
    path.write_text(yaml.safe_dump(cfg))
    assert main(["train", "--config", str(path), "--out", str(tmp_path / "o"),
                 "--metrics-addr", "127.0.0.1:0"]) == 0
    assert seen == {"host": "127.0.0.1", "port": 0, "queue_size": 7}
