"""Run configuration: YAML blocks `dynamics`, `reward`, `train`,
`opponent`, `track`, `harness`, resolved onto dataclass defaults."""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass, field
from typing import Optional

import yaml

from .domains import (COUNT, FLAG, NATURAL, NON_NEGATIVE, POSITIVE,
                      ConfigBlock, Domain)
from .dynamics import DynamicsConfig
from .geometry import Track, default_track, load_track
from .opponent import DEFAULT_APPROACH_OFFSET, DEFAULT_CRUISE_SPEED
from .ppo import TrainConfig
from .rewards import RewardConfig
from .telemetry import DEFAULT_QUEUE_SIZE


class ConfigError(Exception):
    pass


@dataclass
class OpponentSettings(ConfigBlock):
    cruise_speed: float = POSITIVE(DEFAULT_CRUISE_SPEED)
    approach_offset: float = NON_NEGATIVE(DEFAULT_APPROACH_OFFSET)


# a procedural track takes about 16 us and 0.4 KB per gate to build, so a
# mistyped count in the millions would stall a run before its first step
MAX_GATES = 1000


@dataclass
class TrackSettings(ConfigBlock):
    # load this track file when set
    file: Optional[str] = Domain(kind=str, nullable=True)(None)
    seed: int = NATURAL(0)  # otherwise generate procedurally
    n_gates: int = Domain(f"in [1, {MAX_GATES}]",
                          lambda v: 1 <= v <= MAX_GATES, int)(10)
    spacing: tuple = POSITIVE((10.0, 15.0))
    randomize_per_episode: bool = FLAG(False)  # fixed track is the default

    def __post_init__(self):
        super().__post_init__()
        lo, hi = self.spacing
        if not lo <= hi:
            raise ValueError("spacing must be [min, max] with min <= max, "
                             f"got {list(self.spacing)}")


@dataclass
class HarnessConfig(ConfigBlock):
    checkpoint_interval: int = COUNT(5)  # updates between checkpoints
    drone_radius: float = POSITIVE(0.3)  # a NaN one never collides
    metrics_queue_size: int = COUNT(DEFAULT_QUEUE_SIZE)


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


def _build_block(cls, data: dict, name: str):
    fields = {f.name for f in dataclasses.fields(cls)}
    unknown = set(data) - fields
    if unknown:
        raise ConfigError(f"unknown keys in '{name}' block: "
                          f"{sorted(unknown, key=repr)}")
    # a YAML list is a tuple field's value
    coerced = {k: tuple(v) if isinstance(v, list) else v
               for k, v in data.items()}
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
