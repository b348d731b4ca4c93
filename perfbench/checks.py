"""Output checks. Each check counts the operations it covers as attempted
and the ones whose output is missing or wrong as failed.

Operations are training updates, episodes, telemetry lines sent,
checkpoint reloads and determinism comparisons between trials.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass, field

from gateracer import checkpoint

LOSS_KEYS = ("policy_loss", "value_loss", "approx_kl", "clip_fraction")


@dataclass
class Tally:
    attempted: int = 0
    failed: int = 0
    problems: list[str] = field(default_factory=list)

    def add(self, attempted: int, failed: int, problem: str = "") -> None:
        self.attempted += attempted
        self.failed += failed
        if failed:
            self.problems.append(f"{problem} ({failed} of {attempted})")

    def merge(self, other: "Tally") -> None:
        self.attempted += other.attempted
        self.failed += other.failed
        self.problems.extend(other.problems)


def _finite(x) -> bool:
    return isinstance(x, (int, float)) and math.isfinite(x)


def check_training_run(run_dir, expected_updates: int, rollout_steps: int,
                       received: list[str] | None = None) -> tuple[Tally, dict]:
    """Checks `metrics.jsonl` and `checkpoint.bin` of a finished training
    run; with `received`, also that the TCP client got every line of the
    file, in order. Returns the tally and the determinism outputs."""
    tally = Tally()
    with open(f"{run_dir}/metrics.jsonl", "rb") as fh:
        raw = fh.read()
    lines = raw.decode("utf-8", errors="replace").splitlines()
    records = []
    for line in lines:
        try:
            records.append(json.loads(line))
        except json.JSONDecodeError:
            records.append(None)
    unparseable = sum(r is None for r in records)
    tally.add(unparseable, unparseable, "unparseable metrics lines")
    records = [r for r in records if isinstance(r, dict)]

    # updates: exactly expected_updates records, update k at step k*rollout
    updates = [r for r in records if r.get("event") == "update"]
    good = sum(1 for k, r in enumerate(updates, start=1)
               if k <= expected_updates
               and r.get("global_step") == k * rollout_steps
               and all(_finite(r.get(key)) for key in LOSS_KEYS))
    surplus = max(len(updates) - expected_updates, 0)
    tally.add(expected_updates, expected_updates - good + surplus,
              "missing, duplicate, misplaced or non-finite update records")

    # episodes: numbered 1..n without gaps or repeats, steps never decrease
    episodes = [r for r in records if r.get("event") == "episode"]
    bad = 0
    last_step = 0
    for n, r in enumerate(episodes, start=1):
        step = r.get("global_step")
        if (r.get("episode") != n or not _finite(r.get("episodic_return"))
                or not isinstance(step, int) or step < last_step):
            bad += 1
        else:
            last_step = step
    tally.add(len(episodes), bad, "duplicate or malformed episode records")

    try:
        state = checkpoint.load_checkpoint(f"{run_dir}/checkpoint.bin")
        counters = state["counters"]
        ok = (counters["global_step"] == expected_updates * rollout_steps
              and counters["update_count"] == expected_updates)
    except (OSError, checkpoint.CheckpointError, KeyError) as exc:
        ok = False
        tally.problems.append(f"checkpoint reload: {exc!r}")
    tally.add(1, 0 if ok else 1, "final checkpoint step count")

    if received is not None:
        in_order = sum(1 for a, b in zip(received, lines) if a == b)
        extra = max(len(received) - len(lines), 0)
        tally.add(len(lines), len(lines) - in_order + extra,
                  "metrics lines the TCP client missed or got out of order")

    last = updates[-1] if updates else {}
    outputs = {
        "metrics_sha256": hashlib.sha256(raw).hexdigest(),
        "final_policy_loss": last.get("policy_loss"),
        "final_value_loss": last.get("value_loss"),
        "updates": len(updates),
        "episodes": len(episodes),
        "metrics_lines": len(lines),
    }
    return tally, outputs


def check_eval_summary(summary: dict, episodes: int, n_gates: int) -> Tally:
    tally = Tally()
    ok = (summary.get("episodes") == episodes
          and 0.0 <= summary.get("completion_rate", -1.0) <= 1.0
          and 0.0 <= summary.get("mean_gates_passed", -1.0) <= n_gates
          and summary.get("mean_time", 0.0) > 0.0
          and summary.get("mean_collisions", -1.0) >= 0.0)
    tally.add(episodes, 0 if ok else episodes, f"evaluate summary {summary}")
    return tally


def check_race_summary(summary: dict, episodes: int) -> Tally:
    tally = Tally()
    counts = [summary.get(k, -1) for k in ("agent_wins", "opponent_wins",
                                           "agent_dnf")]
    ok = (summary.get("episodes") == episodes and min(counts) >= 0
          and sum(counts) == episodes)
    tally.add(episodes, 0 if ok else episodes, f"race summary {summary}")
    return tally


def check_same_outputs(first: dict, other: dict) -> Tally:
    """Trials of one run use one seed, so their outputs must be equal."""
    tally = Tally()
    tally.add(1, 0 if first == other else 1,
              f"outputs differ between trials of one seed: {first} vs {other}")
    return tally
