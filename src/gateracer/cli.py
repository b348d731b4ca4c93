"""Command-line entry points: train / eval / race / inspect."""

from __future__ import annotations

import argparse
import json
import sys

from .checkpoint import CheckpointError, load_checkpoint
from .config import (ConfigError, RunConfig, dump_run_config, load_run_config,
                     resolve_track)
from .geometry import dump_track, load_track


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="gateracer",
        description="Drone-racing RL: PPO agent vs a waypoint planner.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("train", help="train a policy")
    p.add_argument("--config", required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True)
    p.add_argument("--resume", default=None)
    p.add_argument("--metrics-addr", default=None)

    p = sub.add_parser("eval", help="evaluate a checkpoint")
    p.add_argument("--ckpt", required=True)
    p.add_argument("--episodes", type=int, required=True)
    p.add_argument("--deterministic", action="store_true")
    p.add_argument("--track", default=None)
    p.add_argument("--seed", type=int, default=0)

    p = sub.add_parser("race", help="race a checkpoint against the planner")
    p.add_argument("--ckpt", required=True)
    p.add_argument("--episodes", type=int, required=True)
    p.add_argument("--track", default=None)
    p.add_argument("--seed", type=int, default=0)

    p = sub.add_parser("inspect", help="print a config, track, or checkpoint")
    p.add_argument("--config", default=None)
    p.add_argument("--track", default=None)
    p.add_argument("--ckpt", default=None)
    return parser


def _cmd_train(args) -> int:
    from .telemetry import MetricsServer, parse_address
    from .training import Trainer

    cfg = load_run_config(args.config)
    telemetry = None
    if args.metrics_addr:
        host, port = parse_address(args.metrics_addr)
        telemetry = MetricsServer(
            host, port, queue_size=cfg.harness.metrics_queue_size)
    try:
        trainer = Trainer(cfg, seed=args.seed, out_dir=args.out,
                          telemetry=telemetry, resume=args.resume)
        path = trainer.train()
    finally:
        if telemetry is not None:
            telemetry.close()
    print(f"final checkpoint: {path}")
    return 0


def _cmd_eval(args) -> int:
    from .evaluation import evaluate

    state = load_checkpoint(args.ckpt)
    track = load_track(args.track) if args.track else None
    summary = evaluate(state, episodes=args.episodes,
                       deterministic=args.deterministic, track=track,
                       seed=args.seed)
    print(json.dumps(summary, sort_keys=True))
    return 0


def _cmd_race(args) -> int:
    from .evaluation import race

    state = load_checkpoint(args.ckpt)
    track = load_track(args.track) if args.track else None
    summary = race(state, episodes=args.episodes, track=track, seed=args.seed)
    print(json.dumps(summary, sort_keys=True))
    return 0


def _cmd_inspect(args) -> int:
    shown = False
    if args.config:
        cfg = load_run_config(args.config)
        print(dump_run_config(cfg), end="")
        print("# resolved track:")
        print(dump_track(resolve_track(cfg)), end="")
        shown = True
    if args.track:
        print(dump_track(load_track(args.track)), end="")
        shown = True
    if args.ckpt:
        state = load_checkpoint(args.ckpt)
        info = {
            "counters": state["counters"],
            "scalars": {k: v for k, v in state["scalars"].items()
                        if k != "reward_scaler"},
            "arrays": {k: {"dtype": str(v.dtype), "shape": list(v.shape)}
                       for k, v in state["arrays"].items()},
        }
        print(json.dumps(info, sort_keys=True, indent=2))
        shown = True
    if not shown:
        raise ConfigError("inspect needs --config, --track, or --ckpt")
    return 0


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    handlers = {"train": _cmd_train, "eval": _cmd_eval, "race": _cmd_race,
                "inspect": _cmd_inspect}
    try:
        return handlers[args.command](args)
    except (ConfigError, CheckpointError, FileNotFoundError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (RuntimeError, OSError, ArithmeticError) as exc:
        print(f"runtime error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
