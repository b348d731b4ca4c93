"""Checkpoints as an uncompressed zip, the NumPy `.npz` layout: one JSON
member holding the JSON sections, the format version and a manifest of the
arrays, and one 1-D little-endian `.npy` member per dtype (`float64.npy`,
`float32.npy`) holding that dtype's arrays back to back, in manifest order.
`zipfile` checks each member's CRC-32 as it reads it. Also the policy's
and the optimizer's layouts inside them."""

from __future__ import annotations

import json
import math
import os
import zipfile
import zlib

import numpy as np
from numpy.lib import format as npy_format

from .networks import Adam, PolicyParams
from .normalization import RunningStats

FORMAT_VERSION = 3
_V1_PREFIX = b"GRCKPT\x00"  # how every version-1 checkpoint starts
_HEADER_MEMBER = "checkpoint.json"
_JSON_KEYS = ("counters", "config", "track", "scalars", "rng", "env")
# the array dtypes in the order of their members, each stored little-endian
_DTYPES = {"float64": np.dtype("<f8"), "float32": np.dtype("<f4")}
# what the zip and `.npy` readers raise on a damaged file; OSError is a
# seek to the negative offset that a damaged directory can give
_READ_ERRORS = (zipfile.BadZipFile, zlib.error, EOFError, NotImplementedError,
                RuntimeError, KeyError, ValueError, OSError)


class CheckpointError(Exception):
    pass


def save_checkpoint(path, state: dict) -> None:
    """`state` keys: counters, config, track, scalars, rng, env (JSON-able
    dicts) and arrays (name -> float32 or float64 ndarray)."""
    groups = {dtype: [] for dtype in _DTYPES}
    for name in sorted(state["arrays"]):
        a = np.asarray(state["arrays"][name])
        if a.dtype.name not in _DTYPES:
            raise CheckpointError(f"array '{name}' is {a.dtype}; a checkpoint "
                                  "holds float32 or float64 arrays only")
        groups[a.dtype.name].append((name, a))
    header = {name: state[name] for name in _JSON_KEYS}
    header.update(format_version=FORMAT_VERSION, arrays=[
        [name, dtype, list(a.shape)]
        for dtype, group in groups.items() for name, a in group])
    tmp = str(path) + ".tmp"
    # a ZipInfo built from a name carries a fixed 1980 timestamp, so the
    # same state always gives the same bytes
    with open(tmp, "wb") as out:
        with zipfile.ZipFile(out, "w") as zf:
            zf.writestr(zipfile.ZipInfo(_HEADER_MEMBER),
                        json.dumps(header, sort_keys=True))
            for dtype, group in groups.items():
                if not group:
                    continue
                with zf.open(zipfile.ZipInfo(f"{dtype}.npy"), "w") as fh:
                    npy_format.write_array_header_1_0(fh, {
                        "descr": _DTYPES[dtype].str, "fortran_order": False,
                        "shape": (sum(a.size for _, a in group),)})
                    # each array straight from its own buffer, uncopied
                    # unless it is strided or big-endian
                    for _, a in group:
                        flat = np.ascontiguousarray(a, dtype=_DTYPES[dtype])
                        fh.write(memoryview(flat.reshape(-1)).cast("B"))
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
        magic = fh.read(len(_V1_PREFIX))
        if magic == _V1_PREFIX:
            raise CheckpointError("checkpoint format version mismatch: "
                                  f"expected {FORMAT_VERSION}, found 1")
        if not magic.startswith(b"PK\x03\x04"):
            raise CheckpointError("not a checkpoint file (bad magic)")
        # zipfile finds the end-of-archive record anywhere near the end, so
        # appended bytes and a cut-off tail would both go unnoticed; in a
        # file shorter than the record this reads the magic
        fh.seek(max(fh.seek(0, os.SEEK_END) - 22, 0))
        if fh.read(4) != b"PK\x05\x06":
            raise CheckpointError("trailing bytes or truncation after the "
                                  "zip end-of-archive record")
        try:
            with zipfile.ZipFile(fh) as zf:
                header = json.loads(zf.read(_HEADER_MEMBER))
                version = header["format_version"]
                if version != FORMAT_VERSION:
                    raise CheckpointError(
                        "checkpoint format version mismatch: expected "
                        f"{FORMAT_VERSION}, found {version}")
                state = {name: header[name] for name in _JSON_KEYS}
                state["arrays"] = _read_arrays(zf, header["arrays"])
        except _READ_ERRORS as exc:
            raise CheckpointError(
                f"checkpoint file is corrupt: {exc!r}") from exc
    return state


def _manifest_groups(manifest) -> dict:
    """The manifest checked and split by dtype: dtype -> [(name, shape)]
    in write order, for the dtypes it holds."""
    if not isinstance(manifest, list):
        raise CheckpointError("the array manifest is not a list")
    groups, seen = {}, set()
    for entry in manifest:
        if not (isinstance(entry, list) and len(entry) == 3
                and isinstance(entry[0], str)):
            raise CheckpointError(f"bad manifest entry {entry!r}")
        name, dtype, shape = entry
        if dtype not in _DTYPES:
            raise CheckpointError(f"array '{name}' has unknown dtype {dtype!r}")
        if name in seen:
            raise CheckpointError(f"array '{name}' is listed twice")
        if not (isinstance(shape, list) and all(
                type(n) is int and n >= 0 for n in shape)):
            raise CheckpointError(f"array '{name}' has bad shape {shape!r}")
        seen.add(name)
        groups.setdefault(dtype, []).append((name, tuple(shape)))
    return groups


def _read_arrays(zf: zipfile.ZipFile, manifest) -> dict:
    """Each dtype member's arrays, each read into its own allocation."""
    groups = _manifest_groups(manifest)
    if sorted(zf.namelist()) != sorted(
            [_HEADER_MEMBER] + [f"{dtype}.npy" for dtype in groups]):
        raise CheckpointError("zip members do not match the manifest")
    arrays = {}
    for dtype, group in groups.items():
        member = f"{dtype}.npy"
        size = sum(math.prod(shape) for _, shape in group)
        with zf.open(member) as fh:
            if (npy_format.read_magic(fh) != (1, 0)
                    or npy_format.read_array_header_1_0(fh)
                    != ((size,), False, _DTYPES[dtype])
                    or fh.tell() + size * _DTYPES[dtype].itemsize
                    != zf.getinfo(member).file_size):
                raise CheckpointError(f"member '{member}' does not hold the "
                                      "manifest's arrays exactly")
            # the arrays end where the member does, and reading to the end
            # is what makes zipfile check the CRC
            for name, shape in group:
                a = np.empty(shape, _DTYPES[dtype])
                buf = memoryview(a.reshape(-1)).cast("B")
                if fh.readinto(buf) != len(buf):
                    raise CheckpointError(f"array '{name}' is cut short")
                arrays[name] = a
    return arrays


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


def optimizer_entries(adam: Adam):
    """The optimizer's share of a checkpoint as (arrays, scalars) entries:
    the moments in flat_list() order and the step number."""
    arrays = {f"adam_{key}{i:02d}": a
              for key, moments in (("m", adam.m), ("v", adam.v))
              for i, a in enumerate(moments)}
    return arrays, {"adam_t": adam.t}


def load_optimizer(state: dict, params: PolicyParams) -> Adam:
    """Inverse of optimizer_entries on a loaded state, for `params`."""
    adam = Adam([p.shape for p in params.flat_list()])
    adam.t = int(state["scalars"]["adam_t"])
    for name, moment in optimizer_entries(adam)[0].items():
        a = state["arrays"].get(name)
        if a is None or a.shape != moment.shape:
            found = "missing" if a is None else f"of shape {a.shape}"
            raise CheckpointError(f"checkpoint array '{name}' is {found}; its "
                                  f"parameter is of shape {moment.shape}")
        if a.dtype != moment.dtype:
            raise CheckpointError(f"checkpoint array '{name}' is {a.dtype}; "
                                  f"an Adam moment is {moment.dtype}")
        moment[...] = a
    return adam
