import io
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
    """A file whose header names another version, older or newer, is
    refused naming both versions."""
    path = tmp_path / "v.bin"
    save_checkpoint(path, sample_state(np.random.default_rng(4)))
    with zipfile.ZipFile(path) as zf:
        members = {info: zf.read(info) for info in zf.infolist()}
    for version in (2, FORMAT_VERSION + 1):
        with zipfile.ZipFile(path, "w") as zf:
            for info, data in members.items():
                if info.filename.endswith(".json"):
                    header = json.loads(data)
                    header["format_version"] = version
                    data = json.dumps(header)
                zf.writestr(info, data)
        with pytest.raises(CheckpointError) as err:
            load_checkpoint(path)
        assert str(err.value) == ("checkpoint format version mismatch: "
                                  f"expected {FORMAT_VERSION}, found {version}")


def test_v1_file_is_rejected_naming_versions(tmp_path):
    path = tmp_path / "v1.bin"
    path.write_bytes(b"GRCKPT\x00" + struct.pack("<I", 1) + b"\x00" * 64)
    with pytest.raises(CheckpointError) as err:
        load_checkpoint(path)
    assert "1" in str(err.value) and str(FORMAT_VERSION) in str(err.value)


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
    """A dtype member larger than zipfile's read-ahead, whose `.npy`
    header lost one bit of its shape, must not load."""
    state = sample_state(np.random.default_rng(6))
    state["arrays"]["w"] = np.arange(9000.0)
    path = tmp_path / "ck.bin"
    save_checkpoint(path, state)
    data = path.read_bytes()
    # 9000 + 5 float64 values, all in the one float64 member
    assert data.count(b"(9005,)") == 1
    path.write_bytes(data.replace(b"(9005,)", b"(8005,)"))  # '9' ^ 1 == '8'
    with pytest.raises(CheckpointError):
        load_checkpoint(path)


def rewrite(path, edit=None, drop=(), add=None):
    """Rewrites the zip at `path` with its JSON header edited in place by
    `edit`, the members named in `drop` left out and those in `add`
    appended."""
    with zipfile.ZipFile(path) as zf:
        members = {info: zf.read(info) for info in zf.infolist()}
    with zipfile.ZipFile(path, "w") as zf:
        for info, data in members.items():
            if info.filename.endswith(".json") and edit is not None:
                header = json.loads(data)
                edit(header)
                data = json.dumps(header)
            if info.filename not in drop:
                zf.writestr(info, data)
        for name, data in (add or {}).items():
            zf.writestr(zipfile.ZipInfo(name), data)


def npy_bytes(a):
    buf = io.BytesIO()
    np.lib.format.write_array(buf, a)
    return buf.getvalue()


@pytest.mark.parametrize("change", ["drop", "add"])
def test_members_must_match_manifest(tmp_path, change):
    """The sample holds float64 arrays only: its float64 member cannot
    go missing, and a float32 member, even a well-formed one, cannot be
    added."""
    path = tmp_path / "ck.bin"
    save_checkpoint(path, sample_state(np.random.default_rng(7)))
    with zipfile.ZipFile(path) as zf:
        assert zf.namelist() == ["checkpoint.json", "float64.npy"]
    if change == "drop":
        rewrite(path, drop=("float64.npy",))
    else:
        rewrite(path, add={"float32.npy": npy_bytes(np.zeros(0, "<f4"))})
    with pytest.raises(CheckpointError, match="manifest"):
        load_checkpoint(path)


def test_one_member_per_dtype_in_manifest_order(tmp_path):
    """The JSON member and one member per dtype, float64 first; the
    manifest lists each array with its dtype and shape in write order."""
    state = sample_state(np.random.default_rng(8))
    state["arrays"]["m"] = np.ones((2, 2), np.float32)
    path = tmp_path / "ck.bin"
    save_checkpoint(path, state)
    with zipfile.ZipFile(path) as zf:
        assert zf.namelist() == ["checkpoint.json", "float64.npy",
                                 "float32.npy"]
        manifest = json.loads(zf.read("checkpoint.json"))["arrays"]
    assert manifest == [["b", "float64", [5]], ["w", "float64", [3, 5]],
                        ["m", "float32", [2, 2]]]


def _set_entry(index, field, value):
    def edit(header):
        header["arrays"][index][field] = value
    return edit


@pytest.mark.parametrize("edit, match", [
    (_set_entry(0, 1, "float16"), "unknown dtype"),
    (_set_entry(0, 1, "<f8"), "unknown dtype"),
    (lambda h: h["arrays"].append(list(h["arrays"][0])), "listed twice"),
    (_set_entry(0, 2, [-1]), "bad shape"),
    (_set_entry(0, 2, [5.0]), "bad shape"),
    (_set_entry(0, 2, 5), "bad shape"),
    (_set_entry(0, 2, [True, 5]), "bad shape"),
    (_set_entry(0, 2, [4]), "exactly"),
    (_set_entry(0, 2, [6]), "exactly"),
    (_set_entry(1, 2, [3, 6]), "exactly"),
    (_set_entry(0, 0, 7), "bad manifest entry"),
    (lambda h: h["arrays"][0].append(0), "bad manifest entry"),
    (lambda h: h.update(arrays={"b": ["float64", [5]]}), "not a list"),
], ids=["dtype", "byte-order-dtype", "duplicate", "negative-dim",
        "float-dim", "scalar-shape", "bool-dim", "short", "long",
        "wide", "name-not-str", "long-entry", "not-a-list"])
def test_manifest_is_checked_strictly(tmp_path, edit, match):
    """Each flaw of the manifest is a CheckpointError, although the
    rewritten file's CRCs all hold."""
    path = tmp_path / "ck.bin"
    save_checkpoint(path, sample_state(np.random.default_rng(9)))
    rewrite(path, edit=edit)
    with pytest.raises(CheckpointError, match=match):
        load_checkpoint(path)


def _replace_float64_header(path, header, edit=None):
    """Rewrites the float64 member with the `.npy` header `header` in
    front of its unchanged values, and the JSON header edited by `edit`."""
    buf = io.BytesIO()
    np.lib.format.write_array_header_1_0(buf, header)
    with zipfile.ZipFile(path) as zf, zf.open("float64.npy") as fh:
        np.lib.format.read_magic(fh)
        np.lib.format.read_array_header_1_0(fh)
        values = fh.read()
    rewrite(path, edit=edit, drop=("float64.npy",),
            add={"float64.npy": buf.getvalue() + values})


@pytest.mark.parametrize("field, value", [
    ("descr", ">f8"), ("descr", "<f4"), ("fortran_order", True),
    ("shape", (21,)), ("shape", (4, 5))])
def test_dtype_member_header_must_match_manifest(tmp_path, field, value):
    """The member's own `.npy` header must say what the manifest does:
    20 little-endian float64 values, in a 1-D array."""
    path = tmp_path / "ck.bin"
    save_checkpoint(path, sample_state(np.random.default_rng(10)))
    header = {"descr": "<f8", "fortran_order": False, "shape": (20,)}
    _replace_float64_header(path, header)
    assert load_checkpoint(path)["arrays"].keys() == {"b", "w"}
    _replace_float64_header(path, {**header, field: value})
    with pytest.raises(CheckpointError, match="exactly"):
        load_checkpoint(path)


def test_a_member_shorter_than_its_manifest_is_refused_unread(tmp_path):
    """A manifest and a `.npy` header that agree on far more values than
    the member holds are refused before any array is allocated."""
    path = tmp_path / "ck.bin"
    save_checkpoint(path, sample_state(np.random.default_rng(10)))
    huge = 2 ** 40
    _replace_float64_header(
        path, {"descr": "<f8", "fortran_order": False, "shape": (huge + 5,)},
        edit=_set_entry(1, 2, [huge]))
    with pytest.raises(CheckpointError, match="exactly"):
        load_checkpoint(path)
