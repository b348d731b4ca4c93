"""Append-only JSON-lines metrics log, optionally mirrored to telemetry."""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass
from typing import Optional


@dataclass
class MetricsRecord:
    """One log line; the fields that do not apply to its event are None."""
    event: str  # "episode" or "update"
    global_step: int
    episode: int
    episodic_return: Optional[float] = None
    gates_passed: Optional[int] = None
    collisions: Optional[int] = None
    duration: Optional[float] = None
    policy_loss: Optional[float] = None
    value_loss: Optional[float] = None
    approx_kl: Optional[float] = None
    clip_fraction: Optional[float] = None

    def to_json(self) -> str:
        return json.dumps(asdict(self), sort_keys=True)


class MetricsLogger:
    """Writes one JSON object per line, flushed per record so every line
    is independently parseable."""

    def __init__(self, path, telemetry=None):
        self.path = path
        self._fh = open(path, "a", encoding="utf-8")
        self.telemetry = telemetry

    def write(self, record: MetricsRecord) -> None:
        line = record.to_json()
        self._fh.write(line + "\n")
        self._fh.flush()
        if self.telemetry is not None:
            self.telemetry.publish(line)

    def close(self) -> None:
        self._fh.close()
