import json

import pytest
import yaml

from gateracer.cli import main
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


def test_missing_config_is_exit_1(tmp_path, capsys):
    assert main(["train", "--config", str(tmp_path / "absent.yaml"),
                 "--out", str(tmp_path / "o")]) == 1
    assert "error" in capsys.readouterr().err


def test_bad_checkpoint_is_exit_1(tmp_path, capsys):
    bad = tmp_path / "bad.bin"
    bad.write_bytes(b"garbage")
    assert main(["eval", "--ckpt", str(bad), "--episodes", "1"]) == 1
    assert "error" in capsys.readouterr().err


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
])
def test_non_positive_config_value_is_exit_1(tmp_path, capsys, block, key,
                                             value):
    path = tmp_path / "c.yaml"
    path.write_text(yaml.safe_dump({block: {key: value}}))
    assert main(["train", "--config", str(path),
                 "--out", str(tmp_path / "o")]) == 1
    assert f"error: invalid '{block}' block: {key}" in capsys.readouterr().err


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
