"""Command-line experiment runner: train / eval / sweep / baseline."""
from __future__ import annotations

import argparse
import dataclasses
import sys

from .baselines import BASELINE_KINDS
from .config import ConfigError, default_config, load_config
from .experiment import cmd_eval, cmd_sweep, cmd_train
from .policy import CheckpointError


def _load(args):
    cfg = load_config(args.config) if args.config else default_config()
    if args.seed is not None:
        cfg = dataclasses.replace(cfg, seed=args.seed)
    return cfg


def _non_negative_int(text: str) -> int:
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError(f"must be >= 0, got {value}")
    return value


def _numbers(text: str) -> list[float]:
    try:
        return [float(v) for v in text.split(",") if v.strip() != ""]
    except ValueError:
        raise argparse.ArgumentTypeError(f"must be comma-separated numbers, got {text!r}") from None


def _add_common(sub, needs_out=True):
    sub.add_argument("--config", help="experiment config YAML (defaults otherwise)")
    sub.add_argument("--seed", type=int, default=None, help="override the config seed")
    if needs_out:
        sub.add_argument("--out", required=True, help="run output directory")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="leosem",
        description="Deterministic LEO semantic-routing simulator and trainer",
    )
    subs = parser.add_subparsers(dest="command", required=True)

    p_train = subs.add_parser("train", help="run the training loop")
    _add_common(p_train)
    p_train.add_argument("--episodes", type=_non_negative_int, default=None,
                         help="training episodes (default: config ppo.episodes)")
    p_train.add_argument("--trace", action="store_true",
                         help="write a JSON-lines event trace")

    p_eval = subs.add_parser("eval", help="greedy evaluation of a checkpoint")
    _add_common(p_eval)
    p_eval.add_argument("--checkpoint", required=True)
    p_eval.add_argument("--episodes", type=_non_negative_int, default=20)
    p_eval.add_argument("--trace", action="store_true")

    p_sweep = subs.add_parser("sweep", help="SNR or load sweep of a checkpoint")
    _add_common(p_sweep)
    p_sweep.add_argument("--checkpoint", required=True)
    p_sweep.add_argument("--axis", required=True, choices=["snr", "load"])
    p_sweep.add_argument("--values", required=True, type=_numbers,
                         help="comma-separated axis values, e.g. -5,0,5,10,15")
    p_sweep.add_argument("--episodes", type=_non_negative_int, default=20)

    p_base = subs.add_parser("baseline", help="run a comparator policy")
    _add_common(p_base)
    p_base.add_argument("--baseline-kind", required=True, choices=list(BASELINE_KINDS))
    p_base.add_argument("--checkpoint", default=None,
                        help="required for policy-derived variants")
    p_base.add_argument("--fixed-budget", type=int, default=None,
                        choices=[64, 96, 128])
    p_base.add_argument("--episodes", type=_non_negative_int, default=20)
    p_base.add_argument("--trace", action="store_true")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        cfg = _load(args)
        if args.command == "train":
            result = cmd_train(cfg, args.out, episodes=args.episodes, trace=args.trace)
            b = result.bundle
            print(f"trained: sessions={b.sessions} delivery_rate={b.delivery_rate} "
                  f"mean_return={b.mean_session_return}")
        elif args.command == "eval":
            b = cmd_eval(cfg, args.checkpoint, args.out, episodes=args.episodes,
                         trace=args.trace)
            print(f"eval: delivery_rate={b.delivery_rate} mean_delay_s={b.mean_delay_s} "
                  f"mean_quality={b.mean_quality} objective={b.objective}")
        elif args.command == "sweep":
            rows = cmd_sweep(cfg, args.axis, args.values, args.checkpoint, args.out,
                             episodes=args.episodes)
            for row in rows:
                print(f"{args.axis}={row['value']}: delivery={row['delivery_rate']} "
                      f"drop={row['drop_rate']} quality={row['mean_quality']}")
        elif args.command == "baseline":
            b = cmd_eval(cfg, args.checkpoint, args.out, episodes=args.episodes,
                         baseline_kind=args.baseline_kind,
                         fixed_budget=args.fixed_budget, trace=args.trace)
            print(f"baseline {args.baseline_kind}: delivery_rate={b.delivery_rate} "
                  f"mean_delay_s={b.mean_delay_s} mean_quality={b.mean_quality}")
    except (ConfigError, CheckpointError, OSError) as exc:
        # A bad config, a bad checkpoint or an unreadable file names itself,
        # as a usage error does; any other failure keeps its traceback.
        print(f"leosem: error: {exc}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
