"""Layer tracing for the benchmark's traced runs.

Each traced layer is a public function or method of the package, wrapped at
every module attribute or class through which callers look it up. The
wrapper records one span (layer, start, end, parent span) and, for a few
layers, a count (hits, bytes, floating-point operations). Spans stay in
memory until the run ends. `Tracer.restore()` puts every original back, so
untraced trials in the same process run the unmodified code.
"""

from __future__ import annotations

import array
import functools
import importlib
import os
import time

import numpy as np

# (layer name, owner, attribute, extra call sites). The owner is a module
# path, or "module:Class" for a method. Extra call sites are modules that
# imported the function by name; their attribute is replaced as well.
LAYERS = [
    ("training.Trainer.train", "gateracer.training:Trainer", "train", ()),
    ("training.Trainer.collect_rollout", "gateracer.training:Trainer",
     "collect_rollout", ()),
    ("evaluation.evaluate", "gateracer.evaluation", "evaluate", ()),
    ("evaluation.race", "gateracer.evaluation", "race", ()),
    ("networks.forward", "gateracer.networks", "forward",
     ("gateracer.training", "gateracer.evaluation")),
    ("networks.sample_action", "gateracer.networks", "sample_action",
     ("gateracer.training", "gateracer.evaluation")),
    ("networks.forward_batch", "gateracer.networks", "forward_batch",
     ("gateracer.ppo",)),
    ("networks.backward_batch", "gateracer.networks", "backward_batch",
     ("gateracer.ppo",)),
    ("networks.Adam.step", "gateracer.networks:Adam", "step", ()),
    ("networks.clip_grads_global", "gateracer.networks", "clip_grads_global",
     ("gateracer.ppo",)),
    ("ppo.ppo_update", "gateracer.ppo", "ppo_update", ("gateracer.training",)),
    ("ppo.compute_gae", "gateracer.ppo", "compute_gae", ("gateracer.training",)),
    ("ppo.RolloutBuffer.add", "gateracer.ppo:RolloutBuffer", "add", ()),
    ("env.step", "gateracer.env:RacingEnv", "step", ()),
    ("env.observe", "gateracer.env:RacingEnv", "observe", ()),
    ("env.detect_events", "gateracer.env:RacingEnv", "detect_events", ()),
    ("env.reset", "gateracer.env:RacingEnv", "reset", ()),
    ("dynamics.step", "gateracer.dynamics", "step", ()),
    ("dynamics.read_imu", "gateracer.dynamics", "read_imu", ()),
    ("dynamics.read_gps", "gateracer.dynamics", "read_gps", ()),
    ("opponent.advance", "gateracer.opponent", "advance", ()),
    ("opponent.plan", "gateracer.opponent", "plan", ()),
    ("rewards.compute_step", "gateracer.rewards", "compute_step", ()),
    # Only the environment's distance-triggered call site: race() checks the
    # opponent's crossing on every step without a trigger, which would blur
    # the trigger's hit ratio; that check stays in evaluation.race self time.
    ("geometry.segment_gate_crossing", "gateracer.env",
     "segment_gate_crossing", ()),
    ("geometry.segment_frame_collision", "gateracer.env",
     "segment_frame_collision", ()),
    ("normalization.normalize_observation", "gateracer.normalization",
     "normalize_observation", ("gateracer.training", "gateracer.evaluation")),
    ("normalization.RewardScaler.scale", "gateracer.normalization:RewardScaler",
     "scale", ()),
    ("config.resolve_track", "gateracer.config", "resolve_track",
     ("gateracer.training",)),
    ("checkpoint.save_checkpoint", "gateracer.checkpoint", "save_checkpoint", ()),
    ("checkpoint.load_checkpoint", "gateracer.checkpoint", "load_checkpoint", ()),
    ("metrics.MetricsLogger.write", "gateracer.metrics:MetricsLogger", "write", ()),
    ("telemetry.MetricsServer.publish", "gateracer.telemetry:MetricsServer",
     "publish", ()),
]

LAYER_NAMES = [name for name, *_ in LAYERS]


def mlp_flops(net, batch: int) -> tuple[int, int]:
    """(forward, backward) multiply-add flops of one batched MLP pass,
    counted from the weight shapes: 2*n*in*out per layer forward; backward
    forms every weight gradient and the input gradient of every layer but
    the first."""
    sizes = [w.shape[0] * w.shape[1] for w in net[0::2]]
    fwd = 2 * batch * sum(sizes)
    bwd = 2 * batch * sum(sizes) + 2 * batch * sum(sizes[1:])
    return fwd, bwd


def _resolve(owner: str):
    module, _, cls = owner.partition(":")
    obj = importlib.import_module(module)
    return getattr(obj, cls) if cls else obj


class Tracer:
    """Installs span-recording wrappers; one instance per traced run."""

    def __init__(self):
        self.index = {name: i for i, name in enumerate(LAYER_NAMES)}
        self.layer = array.array("i")
        self.parent = array.array("i")
        self.start = array.array("d")
        self.end = array.array("d")
        self._stack: list[int] = []
        self.hits = [0] * len(LAYERS)
        self.bytes = [0] * len(LAYERS)
        self.flops = [0] * len(LAYERS)
        self._saved: list[tuple[object, str, object]] = []

    # -- install / restore -------------------------------------------------
    def install(self) -> None:
        if self._saved:
            raise RuntimeError("tracer already installed")
        for name, owner, attr, sites in LAYERS:
            target = _resolve(owner)
            original = target.__dict__[attr]
            wrapper = self._wrap(self.index[name], original,
                                 self._counter(name))
            for obj in (target, *map(_resolve, sites)):
                if obj.__dict__[attr] is not original:
                    raise RuntimeError(
                        f"{owner}.{attr} is not the object seen at "
                        f"{obj.__name__}.{attr}")
                self._saved.append((obj, attr, original))
                setattr(obj, attr, wrapper)

    def restore(self) -> None:
        while self._saved:
            obj, attr, original = self._saved.pop()
            setattr(obj, attr, original)

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.restore()
        return False

    # -- wrappers ----------------------------------------------------------
    def _wrap(self, idx: int, fn, on_result):
        layer, parent, start, end = self.layer, self.parent, self.start, self.end
        stack = self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            sid = len(start)
            layer.append(idx)
            parent.append(stack[-1] if stack else -1)
            end.append(0.0)
            stack.append(sid)
            start.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                end[sid] = clock()
                stack.pop()
            if on_result is not None:
                on_result(args, result)
            return result

        return wrapper

    def _counter(self, name: str):
        i = self.index[name]
        if name == "geometry.segment_gate_crossing":
            def count(args, result):
                self.hits[i] += result is not None
        elif name == "geometry.segment_frame_collision":
            def count(args, result):
                self.hits[i] += bool(result)
        elif name == "checkpoint.save_checkpoint":
            def count(args, result):
                self.bytes[i] += os.path.getsize(args[0])
        elif name == "metrics.MetricsLogger.write":
            def count(args, result):
                self.bytes[i] += len(args[1].to_json()) + 1
        elif name in ("networks.forward_batch", "networks.backward_batch"):
            slot = 0 if name == "networks.forward_batch" else 1

            def count(args, result):
                self.flops[i] += mlp_flops(args[0], args[1].shape[0])[slot]
        else:
            return None
        return count

    # -- results -----------------------------------------------------------
    def totals(self) -> dict:
        """Per layer: calls, inclusive seconds and self seconds (inclusive
        minus the time its direct child spans cover)."""
        n = len(LAYERS)
        # np.array copies: a view would pin the buffers and block appends
        layer = np.array(self.layer, dtype=np.int32)
        parent = np.array(self.parent, dtype=np.int32)
        dur = np.array(self.end) - np.array(self.start)
        child = np.zeros(len(dur))
        has_parent = parent >= 0
        np.add.at(child, parent[has_parent], dur[has_parent])
        return {
            "calls": np.bincount(layer, minlength=n),
            "total_s": np.bincount(layer, weights=dur, minlength=n),
            "self_s": np.bincount(layer, weights=dur - child, minlength=n),
            "root_s": float(dur[~has_parent].sum()),
        }

    def save_spans(self, path) -> None:
        """Write every span once: layer name index, parent span, start, end
        (perf_counter seconds)."""
        np.savez(path, names=np.array(LAYER_NAMES),
                 layer=np.array(self.layer, dtype=np.int32),
                 parent=np.array(self.parent, dtype=np.int32),
                 start=np.array(self.start), end=np.array(self.end))
