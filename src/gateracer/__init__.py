"""Desk-scale drone-racing reinforcement learning: a simplified quadrotor
gate track, shaped rewards paced by a waypoint-planner opponent, and a
from-scratch PPO trainer with exact checkpoint resume."""

from .dynamics import DroneState, DynamicsConfig
from .geometry import Gate, Track, default_track
from .ppo import RolloutBuffer, TrainConfig
from .rewards import EpisodeStatus, RewardConfig

__version__ = "0.1.0"

__all__ = [
    "DroneState", "DynamicsConfig", "Gate", "Track", "default_track",
    "RolloutBuffer", "TrainConfig", "EpisodeStatus", "RewardConfig",
    "__version__",
]
