"""Running observation normalization (Welford) and reward scaling by the
std of the running discounted return."""

from __future__ import annotations

import math

import numpy as np

OBS_CLIP = 10.0
STD_FLOOR = 1e-8


class RunningStats:
    """Per-dimension running mean / variance with a freeze switch for
    evaluation mode."""

    def __init__(self, dim: int):
        self.dim = dim
        self.count = 0.0
        self.mean = np.zeros(dim)
        self.m2 = np.zeros(dim)
        self.frozen = False
        self._denom = None  # max(std, STD_FLOOR) of the current moments

    def update(self, x) -> None:
        """Welford step, in place on `mean` and `m2`."""
        x = np.asarray(x, dtype=np.float64)
        self.count += 1.0
        delta = x - self.mean
        self.mean += delta / self.count
        self.m2 += delta * (x - self.mean)
        self._denom = None

    def std(self) -> np.ndarray:
        if self.count < 1:
            return np.ones(self.dim)
        return np.sqrt(self.m2 / self.count)

    def _denominator(self) -> np.ndarray:
        """max(std, STD_FLOOR); computed once per change of the moments,
        so frozen statistics compute it once."""
        if self._denom is None:
            self._denom = np.maximum(self.std(), STD_FLOOR)
        return self._denom

    def state_dict(self) -> dict:
        return {"count": self.count, "mean": self.mean.copy(),
                "m2": self.m2.copy(), "frozen": self.frozen}

    def load_state_dict(self, d: dict) -> None:
        self.count = float(d["count"])
        self.mean = np.asarray(d["mean"], dtype=np.float64).copy()
        self.m2 = np.asarray(d["m2"], dtype=np.float64).copy()
        self.frozen = bool(d["frozen"])
        self._denom = None


def normalize_observation(stats: RunningStats, obs) -> np.ndarray:
    """(obs - mean) / max(std, floor), clipped to [-OBS_CLIP, OBS_CLIP].
    In training mode the running moments see the raw obs first."""
    obs = np.asarray(obs, dtype=np.float64)
    if obs.shape[-1] != stats.dim:
        raise ValueError(f"expected obs dim {stats.dim}, got {obs.shape[-1]}")
    if not stats.frozen:
        stats.update(obs)
    z = obs - stats.mean
    z /= stats._denominator()
    np.maximum(z, -OBS_CLIP, out=z)
    return np.minimum(z, OBS_CLIP, out=z)


class RewardScaler:
    """Divides rewards by the running std of the discounted return.

    The return statistics start from a unit-variance prior, so the very
    first reward passes through unchanged; the scale for each reward is
    taken before that reward's return sample is absorbed.
    """

    def __init__(self, gamma: float):
        self.gamma = gamma
        self.ret = 0.0
        self.count = 1.0
        self.mean = 0.0
        self.m2 = 1.0

    def std(self) -> float:
        return math.sqrt(self.m2 / self.count)

    def scale(self, reward: float, done: bool) -> float:
        scaled = reward / max(self.std(), STD_FLOOR)
        self.ret = self.gamma * self.ret + reward
        self.count += 1.0
        delta = self.ret - self.mean
        self.mean += delta / self.count
        self.m2 += delta * (self.ret - self.mean)
        if done:
            self.ret = 0.0
        return scaled

    def state_dict(self) -> dict:
        return {"ret": self.ret, "count": self.count, "mean": self.mean,
                "m2": self.m2}

    def load_state_dict(self, d: dict) -> None:
        # gamma stays the constructor's; older checkpoints' "gamma" is unread
        self.ret = float(d["ret"])
        self.count = float(d["count"])
        self.mean = float(d["mean"])
        self.m2 = float(d["m2"])
