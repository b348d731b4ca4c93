import json
import os
import stat
import struct
import zipfile

import numpy as np
import pytest

from gateracer.checkpoint import (CheckpointError, FORMAT_VERSION,
                                  load_checkpoint, save_checkpoint)

JSON_KEYS = ("counters", "config", "track", "scalars", "rng", "env")


def sample_state(rng):
    return {
        "counters": {"global_step": 123, "episode_count": 4,
                     "update_count": 2, "seed": 7, "last_update_stats": None},
        "config": {"train": {"learning_rate": 1e-4}},
        "track": {"gates": [], "time_limit": 60.0},
        "arrays": {"w": rng.standard_normal((3, 5)),
                   "b": rng.standard_normal(5)},
        "scalars": {"adam_t": 10, "obs_count": 99.0},
        "rng": {"policy": {"state": 1}},
        "env": {"opponent_waypoint": 17},
    }


def test_roundtrip_bitexact(tmp_path):
    rng = np.random.default_rng(0)
    state = sample_state(rng)
    path = tmp_path / "ck.bin"
    save_checkpoint(path, state)
    loaded = load_checkpoint(path)
    for key in JSON_KEYS:
        assert loaded[key] == state[key]
    assert set(loaded["arrays"]) == set(state["arrays"])
    for name, arr in state["arrays"].items():
        got = loaded["arrays"][name]
        assert got.shape == np.asarray(arr).shape
        np.testing.assert_array_equal(got, arr)  # bitwise for float64


def test_arrays_are_stored_little_endian_in_their_own_dtype(tmp_path):
    rng = np.random.default_rng(2)
    state = sample_state(rng)
    w = rng.standard_normal((3, 5))
    state["arrays"] = {"f4": w.astype(np.float32), "f8": w,
                       "big_f4": w.astype(">f4"), "big_f8": w.astype(">f8")}
    path = tmp_path / "ck.bin"
    save_checkpoint(path, state)
    loaded = load_checkpoint(path)["arrays"]
    for name, arr in state["arrays"].items():
        want = arr.dtype.newbyteorder("<")
        assert loaded[name].dtype.str == want.str, name
        np.testing.assert_array_equal(loaded[name], arr)


@pytest.mark.parametrize("dtype", [np.int64, np.float16, np.complex128,
                                   np.bool_])
def test_save_refuses_arrays_that_are_not_float32_or_float64(tmp_path, dtype):
    state = sample_state(np.random.default_rng(3))
    state["arrays"]["bad"] = np.ones(4, dtype=dtype)
    path = tmp_path / "ck.bin"
    with pytest.raises(CheckpointError, match="'bad'.*float32 or float64"):
        save_checkpoint(path, state)
    assert not path.exists() and not (tmp_path / "ck.bin.tmp").exists()


def test_save_is_deterministic(tmp_path):
    rng = np.random.default_rng(1)
    state = sample_state(rng)
    p1, p2 = tmp_path / "a.bin", tmp_path / "b.bin"
    save_checkpoint(p1, state)
    save_checkpoint(p2, state)
    assert p1.read_bytes() == p2.read_bytes()


def test_save_syncs_file_before_replace_and_directory_after(tmp_path,
                                                           monkeypatch):
    events = []
    real_fsync, real_replace = os.fsync, os.replace

    def fsync(fd):
        kind = "dir" if stat.S_ISDIR(os.fstat(fd).st_mode) else "file"
        events.append(("fsync", kind))
        real_fsync(fd)

    def replace(src, dst):
        events.append(("replace", None))
        real_replace(src, dst)

    monkeypatch.setattr(os, "fsync", fsync)
    monkeypatch.setattr(os, "replace", replace)
    path = tmp_path / "ck.bin"
    save_checkpoint(path, sample_state(np.random.default_rng(0)))
    assert events == [("fsync", "file"), ("replace", None), ("fsync", "dir")]
    assert not (tmp_path / "ck.bin.tmp").exists()
    load_checkpoint(path)


def test_bad_magic(tmp_path):
    path = tmp_path / "junk.bin"
    path.write_bytes(b"NOTACKPT" + b"\x00" * 64)
    with pytest.raises(CheckpointError, match="magic"):
        load_checkpoint(path)


def test_version_mismatch_names_versions(tmp_path):
    path = tmp_path / "v.bin"
    save_checkpoint(path, sample_state(np.random.default_rng(4)))
    with zipfile.ZipFile(path) as zf:
        members = {info: zf.read(info) for info in zf.infolist()}
    with zipfile.ZipFile(path, "w") as zf:
        for info, data in members.items():
            if info.filename.endswith(".json"):
                header = json.loads(data)
                header["format_version"] = FORMAT_VERSION + 1
                data = json.dumps(header)
            zf.writestr(info, data)
    with pytest.raises(CheckpointError) as err:
        load_checkpoint(path)
    assert str(FORMAT_VERSION) in str(err.value)
    assert str(FORMAT_VERSION + 1) in str(err.value)


def test_v1_file_is_rejected_naming_versions(tmp_path):
    path = tmp_path / "v1.bin"
    path.write_bytes(b"GRCKPT\x00" + struct.pack("<I", 1) + b"\x00" * 64)
    with pytest.raises(CheckpointError) as err:
        load_checkpoint(path)
    assert "1" in str(err.value) and "2" in str(err.value)


def test_truncated_file(tmp_path):
    rng = np.random.default_rng(2)
    path = tmp_path / "full.bin"
    save_checkpoint(path, sample_state(rng))
    data = path.read_bytes()
    cut = tmp_path / "cut.bin"
    cut.write_bytes(data[: len(data) // 2])
    with pytest.raises(CheckpointError):
        load_checkpoint(cut)


def test_trailing_garbage(tmp_path):
    rng = np.random.default_rng(3)
    path = tmp_path / "full.bin"
    save_checkpoint(path, sample_state(rng))
    bad = tmp_path / "bad.bin"
    bad.write_bytes(path.read_bytes() + b"extra")
    with pytest.raises(CheckpointError, match="trailing"):
        load_checkpoint(bad)


def test_missing_file():
    with pytest.raises(FileNotFoundError):
        load_checkpoint("/nonexistent/checkpoint.bin")


def test_every_bit_flip_raises_or_loads_the_same_state(tmp_path):
    """No single-bit flip anywhere in the file loads a different state,
    and no strict prefix of the file loads at all."""
    state = sample_state(np.random.default_rng(5))
    path = tmp_path / "ck.bin"
    save_checkpoint(path, state)
    data = path.read_bytes()
    bad = tmp_path / "bad.bin"
    for i in range(len(data) * 8):
        flipped = bytearray(data)
        flipped[i // 8] ^= 1 << (i % 8)
        bad.write_bytes(flipped)
        try:
            loaded = load_checkpoint(bad)
        except CheckpointError:
            continue
        for key in JSON_KEYS:
            assert loaded[key] == state[key], f"bit {i}: section {key}"
        assert loaded["arrays"].keys() == state["arrays"].keys(), f"bit {i}"
        for name, arr in state["arrays"].items():
            got = loaded["arrays"][name]
            assert (got.dtype, got.shape, got.tobytes()) == (
                arr.dtype, arr.shape, arr.tobytes()), f"bit {i}: array {name}"
    for n in range(len(data)):
        bad.write_bytes(data[:n])
        with pytest.raises(CheckpointError):
            load_checkpoint(bad)


def test_shrunken_array_shape_raises(tmp_path):
    """An array larger than zipfile's read-ahead, whose `.npy` header
    lost one bit of its shape, must still fail the member's CRC."""
    state = sample_state(np.random.default_rng(6))
    state["arrays"]["w"] = np.arange(9000.0)
    path = tmp_path / "ck.bin"
    save_checkpoint(path, state)
    data = path.read_bytes()
    assert data.count(b"(9000,)") == 1
    path.write_bytes(data.replace(b"(9000,)", b"(8000,)"))  # '9' ^ 1 == '8'
    with pytest.raises(CheckpointError):
        load_checkpoint(path)


@pytest.mark.parametrize("change", ["drop", "add"])
def test_members_must_match_manifest(tmp_path, change):
    path = tmp_path / "ck.bin"
    save_checkpoint(path, sample_state(np.random.default_rng(7)))
    with zipfile.ZipFile(path) as zf:
        members = {info: zf.read(info) for info in zf.infolist()}
    with zipfile.ZipFile(path, "w") as zf:
        for info, data in members.items():
            if not (change == "drop" and info.filename == "b.npy"):
                zf.writestr(info, data)
        if change == "add":
            zf.writestr(zipfile.ZipInfo("extra.npy"), b"")
    with pytest.raises(CheckpointError, match="manifest"):
        load_checkpoint(path)
