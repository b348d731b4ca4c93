"""Checkpoints as an uncompressed zip, the NumPy `.npz` layout: one JSON
member holding the JSON sections, the format version and a manifest of the
arrays, and one little-endian `.npy` member per float32 or float64 array,
each in its own dtype. `zipfile` checks each member's CRC-32 as it reads
it. Also the policy's layout inside them."""

from __future__ import annotations

import io
import json
import os
import zipfile
import zlib

import numpy as np
from numpy.lib import format as npy_format

from .networks import PolicyParams
from .normalization import RunningStats

FORMAT_VERSION = 2
_V1_PREFIX = b"GRCKPT\x00"  # how every version-1 checkpoint starts
_HEADER_MEMBER = "checkpoint.json"
_JSON_KEYS = ("counters", "config", "track", "scalars", "rng", "env")
# what the zip and `.npy` readers raise on a damaged file
_READ_ERRORS = (zipfile.BadZipFile, zlib.error, EOFError, NotImplementedError,
                RuntimeError, KeyError, ValueError)


class CheckpointError(Exception):
    pass


def save_checkpoint(path, state: dict) -> None:
    """`state` keys: counters, config, track, scalars, rng, env (JSON-able
    dicts) and arrays (name -> float32 or float64 ndarray)."""
    arrays = {name: np.asarray(a) for name, a in state["arrays"].items()}
    for name, a in arrays.items():
        if a.dtype.kind != "f" or a.dtype.itemsize not in (4, 8):
            raise CheckpointError(f"array '{name}' is {a.dtype}; a checkpoint "
                                  "holds float32 or float64 arrays only")
    header = {name: state[name] for name in _JSON_KEYS}
    header.update(format_version=FORMAT_VERSION, arrays=sorted(arrays))
    tmp = str(path) + ".tmp"
    # a ZipInfo built from a name carries a fixed 1980 timestamp, so the
    # same state always gives the same bytes
    with open(tmp, "wb") as out:
        with zipfile.ZipFile(out, "w") as zf:
            zf.writestr(zipfile.ZipInfo(_HEADER_MEMBER),
                        json.dumps(header, sort_keys=True))
            for name in sorted(arrays):
                a = arrays[name]
                a = np.ascontiguousarray(a, dtype=a.dtype.newbyteorder("<"))
                with zf.open(zipfile.ZipInfo(f"{name}.npy"), "w") as fh:
                    npy_format.write_array(fh, a, allow_pickle=False)
        # synced before the rename publishes it, the directory after it
        out.flush()
        os.fsync(out.fileno())
    os.replace(tmp, path)
    dir_fd = os.open(os.path.dirname(os.path.abspath(path)), os.O_RDONLY)
    try:
        os.fsync(dir_fd)
    finally:
        os.close(dir_fd)


def load_checkpoint(path) -> dict:
    with open(path, "rb") as fh:
        data = fh.read()
    if data.startswith(_V1_PREFIX):
        raise CheckpointError("checkpoint format version mismatch: expected "
                              f"{FORMAT_VERSION}, found 1")
    if not data.startswith(b"PK\x03\x04"):
        raise CheckpointError("not a checkpoint file (bad magic)")
    # zipfile finds the end-of-archive record anywhere near the end, so
    # appended bytes and a cut-off tail would both go unnoticed
    if data[-22:-18] != b"PK\x05\x06":
        raise CheckpointError("trailing bytes or truncation after the zip "
                              "end-of-archive record")
    try:
        with zipfile.ZipFile(io.BytesIO(data)) as zf:
            header = json.loads(zf.read(_HEADER_MEMBER))
            version = header["format_version"]
            if version != FORMAT_VERSION:
                raise CheckpointError(
                    "checkpoint format version mismatch: expected "
                    f"{FORMAT_VERSION}, found {version}")
            names = header["arrays"]
            if (sorted(zf.namelist())
                    != sorted([_HEADER_MEMBER] + [f"{n}.npy" for n in names])):
                raise CheckpointError("zip members do not match the manifest")
            state = {name: header[name] for name in _JSON_KEYS}
            state["arrays"] = {}
            for name in names:
                with zf.open(f"{name}.npy") as fh:
                    state["arrays"][name] = npy_format.read_array(
                        fh, allow_pickle=False)
                    # reading to the end is what makes zipfile check the CRC
                    if fh.read():
                        raise CheckpointError(f"trailing bytes in array '{name}'")
    except _READ_ERRORS as exc:
        raise CheckpointError(f"checkpoint file is corrupt: {exc!r}") from exc
    return state


def policy_entries(params: PolicyParams, obs_stats: RunningStats):
    """The policy's share of a checkpoint as (arrays, scalars) entries:
    parameters in flat_list() order and the observation statistics."""
    arrays = {f"param{i:02d}": p for i, p in enumerate(params.flat_list())}
    arrays["obs_mean"] = obs_stats.mean
    arrays["obs_m2"] = obs_stats.m2
    return arrays, {"obs_count": obs_stats.count}


def load_policy(state: dict, frozen: bool):
    """Inverse of policy_entries on a loaded state: (params, obs stats)."""
    arrays = state["arrays"]
    n = sum(name.startswith("param") for name in arrays)
    params = PolicyParams.from_flat_list(
        [arrays[f"param{i:02d}"] for i in range(n)])
    stats = RunningStats(len(arrays["obs_mean"]))
    stats.load_state_dict({"count": state["scalars"]["obs_count"],
                           "mean": arrays["obs_mean"],
                           "m2": arrays["obs_m2"], "frozen": frozen})
    return params, stats
