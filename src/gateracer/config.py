"""Run configuration: YAML blocks `dynamics`, `reward`, `train`,
`opponent`, `track`, `harness`, resolved onto dataclass defaults."""

from __future__ import annotations

import dataclasses
import math
import typing
from dataclasses import dataclass, field
from typing import Optional

import yaml

from .dynamics import DynamicsConfig
from .geometry import Track, default_track, load_track
from .ppo import TrainConfig
from .rewards import RewardConfig


class ConfigError(Exception):
    pass


@dataclass
class OpponentSettings:
    cruise_speed: float = 4.0
    approach_offset: float = 1.0


# a procedural track takes about 16 us and 0.4 KB per gate to build, so a
# mistyped count in the millions would stall a run before its first step
MAX_GATES = 1000


@dataclass
class TrackSettings:
    file: Optional[str] = None  # load this track file when set
    seed: int = 0               # otherwise generate procedurally
    n_gates: int = 10
    spacing: tuple = (10.0, 15.0)
    randomize_per_episode: bool = False  # fixed track is the default

    def __post_init__(self):
        if self.seed < 0:
            raise ValueError("seed must be non-negative")
        if not 1 <= self.n_gates <= MAX_GATES:
            raise ValueError(f"n_gates must be in [1, {MAX_GATES}], "
                             f"got {self.n_gates}")
        lo, hi = self.spacing
        if not 0 < lo <= hi < math.inf:
            raise ValueError("spacing must be [min, max] with "
                             f"0 < min <= max < inf, got {list(self.spacing)}")


@dataclass
class HarnessConfig:
    checkpoint_interval: int = 5  # updates between checkpoints
    drone_radius: float = 0.3
    metrics_queue_size: int = 4096

    def __post_init__(self):
        if self.checkpoint_interval < 1:
            raise ValueError("checkpoint_interval must be at least 1")


@dataclass
class RunConfig:
    dynamics: DynamicsConfig = field(default_factory=DynamicsConfig)
    reward: RewardConfig = field(default_factory=RewardConfig)
    train: TrainConfig = field(default_factory=TrainConfig)
    opponent: OpponentSettings = field(default_factory=OpponentSettings)
    track: TrackSettings = field(default_factory=TrackSettings)
    harness: HarnessConfig = field(default_factory=HarnessConfig)


# block name -> block class, in RunConfig's order
_BLOCKS = {f.name: f.default_factory for f in dataclasses.fields(RunConfig)}


def _is_number(v) -> bool:
    return isinstance(v, (int, float)) and not isinstance(v, bool)


# field type -> (what it takes, test); a bool is never a number
_KINDS = {
    int: ("an integer",
          lambda v: isinstance(v, int) and not isinstance(v, bool)),
    float: ("a number", _is_number),
    bool: ("true or false", lambda v: isinstance(v, bool)),
    str: ("a string", lambda v: isinstance(v, str)),
}


def _type_error(tp, default, v) -> str | None:
    """None when v fits a field of type tp, else what the field takes. A
    tuple field takes as many numbers as its default holds; an Optional
    field also takes null."""
    if tp is tuple:
        if (isinstance(v, tuple) and len(v) == len(default)
                and all(map(_is_number, v))):
            return None
        return f"{len(default)} numbers"
    args = typing.get_args(tp)
    optional = type(None) in args
    if optional:
        tp = next(a for a in args if a is not type(None))
    what, fits = _KINDS[tp]
    if fits(v) or (optional and v is None):
        return None
    return what + " or null" if optional else what


def _build_block(cls, data: dict, name: str):
    fields = {f.name for f in dataclasses.fields(cls)}
    unknown = set(data) - fields
    if unknown:
        raise ConfigError(f"unknown keys in '{name}' block: "
                          f"{sorted(unknown, key=repr)}")
    types = typing.get_type_hints(cls)
    coerced = {}
    for f in dataclasses.fields(cls):
        if f.name not in data:
            continue
        v = data[f.name]
        if isinstance(v, list):
            v = tuple(v)
        expected = _type_error(types[f.name], f.default, v)
        if expected:
            raise ConfigError(f"invalid '{name}' block: {f.name} must be "
                              f"{expected}, got {v!r}")
        coerced[f.name] = v
    try:
        return cls(**coerced)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"invalid '{name}' block: {exc}") from exc


def run_config_from_dict(data: dict) -> RunConfig:
    if not isinstance(data, dict):
        raise ConfigError("run config must be a mapping of blocks")
    unknown = set(data) - set(_BLOCKS)
    if unknown:
        raise ConfigError(f"unknown config blocks: {sorted(unknown, key=repr)}")
    kwargs = {}
    for name, cls in _BLOCKS.items():
        block = data.get(name)
        if block is None:  # an absent or empty (null) block
            block = {}
        elif not isinstance(block, dict):
            raise ConfigError(f"block '{name}' must be a mapping")
        kwargs[name] = _build_block(cls, block, name)
    return RunConfig(**kwargs)


def load_run_config(path) -> RunConfig:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            data = yaml.safe_load(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read config file: {exc}") from exc
    except yaml.YAMLError as exc:
        raise ConfigError(f"malformed config file: {exc}") from exc
    # an empty file loads as None; any other non-mapping is refused
    return run_config_from_dict({} if data is None else data)


def run_config_to_dict(cfg: RunConfig) -> dict:
    out = {}
    for name in _BLOCKS:
        block = dataclasses.asdict(getattr(cfg, name))
        for k, v in block.items():
            if isinstance(v, tuple):
                block[k] = list(v)
        out[name] = block
    return out


def resolve_track(cfg: RunConfig, track_rng=None) -> Track:
    ts = cfg.track
    if ts.file:
        try:
            return load_track(ts.file)
        except (OSError, ValueError) as exc:  # ValueError: a NUL in the path
            raise ConfigError(f"cannot read track file: {exc}") from exc
    seed = ts.seed
    if track_rng is not None and ts.randomize_per_episode:
        seed = int(track_rng.integers(0, 2**31 - 1))
    return default_track(seed, n_gates=ts.n_gates, spacing=tuple(ts.spacing))


def dump_run_config(cfg: RunConfig) -> str:
    return yaml.safe_dump(run_config_to_dict(cfg), sort_keys=False)
