"""Self-describing binary checkpoints: magic string, format version,
length-prefixed named sections, weights as raw little-endian float64; and
the policy's layout inside them."""

from __future__ import annotations

import json
import os
import struct

import numpy as np

from .networks import PolicyParams
from .normalization import RunningStats

MAGIC = b"GRCKPT\x00"
FORMAT_VERSION = 1


class CheckpointError(Exception):
    pass


def _pack_json(obj) -> bytes:
    return json.dumps(obj, sort_keys=True).encode("utf-8")


def _pack_arrays(arrays: dict[str, np.ndarray]) -> bytes:
    out = [struct.pack("<I", len(arrays))]
    for name in sorted(arrays):
        a = np.ascontiguousarray(arrays[name], dtype="<f8")
        nb = name.encode("utf-8")
        out.append(struct.pack("<H", len(nb)))
        out.append(nb)
        out.append(struct.pack("<B", a.ndim))
        for d in a.shape:
            out.append(struct.pack("<Q", d))
        out.append(a.tobytes())
    return b"".join(out)


class _Reader:
    def __init__(self, data: bytes):
        self.data = data
        self.pos = 0

    def take(self, n: int) -> bytes:
        if self.pos + n > len(self.data):
            raise CheckpointError("checkpoint file is truncated or corrupt")
        chunk = self.data[self.pos:self.pos + n]
        self.pos += n
        return chunk

    def u8(self):
        return struct.unpack("<B", self.take(1))[0]

    def u16(self):
        return struct.unpack("<H", self.take(2))[0]

    def u32(self):
        return struct.unpack("<I", self.take(4))[0]

    def u64(self):
        return struct.unpack("<Q", self.take(8))[0]

    @property
    def exhausted(self) -> bool:
        return self.pos == len(self.data)


def _unpack_arrays(payload: bytes) -> dict[str, np.ndarray]:
    r = _Reader(payload)
    n = r.u32()
    arrays = {}
    for _ in range(n):
        name = r.take(r.u16()).decode("utf-8")
        ndim = r.u8()
        shape = tuple(r.u64() for _ in range(ndim))
        count = int(np.prod(shape)) if shape else 1
        raw = r.take(count * 8)
        arrays[name] = np.frombuffer(raw, dtype="<f8").reshape(shape).copy()
    if not r.exhausted:
        raise CheckpointError("trailing bytes in arrays section")
    return arrays


# state keys -> (kind) ; "json" sections round-trip through sorted JSON
_SECTIONS = (
    ("counters", "json"),
    ("config", "json"),
    ("track", "json"),
    ("arrays", "arrays"),
    ("scalars", "json"),
    ("rng", "json"),
    ("env", "json"),
)


def save_checkpoint(path, state: dict) -> None:
    """`state` keys: counters, config, track, scalars, rng, env (JSON-able
    dicts) and arrays (name -> float64 ndarray)."""
    chunks = [MAGIC, struct.pack("<I", FORMAT_VERSION)]
    for name, kind in _SECTIONS:
        payload = (_pack_arrays(state[name]) if kind == "arrays"
                   else _pack_json(state[name]))
        nb = name.encode("utf-8")
        chunks.append(struct.pack("<H", len(nb)))
        chunks.append(nb)
        chunks.append(struct.pack("<Q", len(payload)))
        chunks.append(payload)
    blob = b"".join(chunks)
    tmp = str(path) + ".tmp"
    with open(tmp, "wb") as fh:
        fh.write(blob)
    os.replace(tmp, path)


def load_checkpoint(path) -> dict:
    with open(path, "rb") as fh:
        data = fh.read()
    r = _Reader(data)
    if r.take(len(MAGIC)) != MAGIC:
        raise CheckpointError("not a checkpoint file (bad magic)")
    version = r.u32()
    if version != FORMAT_VERSION:
        raise CheckpointError(
            f"checkpoint format version mismatch: expected {FORMAT_VERSION}, "
            f"found {version}")
    state = {}
    for name, kind in _SECTIONS:
        got = r.take(r.u16()).decode("utf-8")
        if got != name:
            raise CheckpointError(f"unexpected section '{got}' (wanted '{name}')")
        payload = r.take(r.u64())
        state[name] = (_unpack_arrays(payload) if kind == "arrays"
                       else json.loads(payload.decode("utf-8")))
    if not r.exhausted:
        raise CheckpointError("trailing bytes after final section")
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
