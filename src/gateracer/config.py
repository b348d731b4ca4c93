"""Run configuration: YAML blocks `dynamics`, `reward`, `train`,
`opponent`, `track`, `harness`, resolved onto dataclass defaults."""

from __future__ import annotations

import dataclasses
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
    arrival_radius: float = 0.5
    approach_offset: float = 1.0


@dataclass
class TrackSettings:
    file: Optional[str] = None  # load this track file when set
    seed: int = 0               # otherwise generate procedurally
    n_gates: int = 10
    spacing: tuple = (10.0, 15.0)
    randomize_per_episode: bool = False  # fixed track is the default


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


_BLOCKS = {
    "dynamics": DynamicsConfig,
    "reward": RewardConfig,
    "train": TrainConfig,
    "opponent": OpponentSettings,
    "track": TrackSettings,
    "harness": HarnessConfig,
}


def _build_block(cls, data: dict, name: str):
    fields = {f.name for f in dataclasses.fields(cls)}
    unknown = set(data) - fields
    if unknown:
        raise ConfigError(f"unknown keys in '{name}' block: {sorted(unknown)}")
    coerced = {}
    for f in dataclasses.fields(cls):
        if f.name not in data:
            continue
        v = data[f.name]
        if isinstance(v, list):
            v = tuple(v)
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
        raise ConfigError(f"unknown config blocks: {sorted(unknown)}")
    kwargs = {}
    for name, cls in _BLOCKS.items():
        block = data.get(name, {}) or {}
        if not isinstance(block, dict):
            raise ConfigError(f"block '{name}' must be a mapping")
        kwargs[name] = _build_block(cls, block, name)
    return RunConfig(**kwargs)


def load_run_config(path) -> RunConfig:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            data = yaml.safe_load(fh) or {}
    except OSError as exc:
        raise ConfigError(f"cannot read config file: {exc}") from exc
    except yaml.YAMLError as exc:
        raise ConfigError(f"malformed config file: {exc}") from exc
    return run_config_from_dict(data)


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
        except OSError as exc:
            raise ConfigError(f"cannot read track file: {exc}") from exc
    seed = ts.seed
    if track_rng is not None and ts.randomize_per_episode:
        seed = int(track_rng.integers(0, 2**31 - 1))
    return default_track(seed, n_gates=ts.n_gates, spacing=tuple(ts.spacing))


def dump_run_config(cfg: RunConfig) -> str:
    return yaml.safe_dump(run_config_to_dict(cfg), sort_keys=False)
