"""Command line entry points: generate, train, report."""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from . import data as datamod
from . import harness
from .errors import ConfigError


def _cmd_generate(args):
    if (args.mnist_dir is None) == (args.synthetic is None):
        raise ConfigError("generate: give exactly one of --mnist-dir and --synthetic N")
    if args.mnist_dir is not None:
        source = {"data_source": "idx", "data_dir": args.mnist_dir}
    else:
        source = {"data_source": "synthetic", "synthetic_n": args.synthetic, "synthetic_test_n": args.synthetic_test}
    # built as `avil train` builds them, with the same checks
    pools = harness.load_pools(harness.ExperimentConfig(pair_seed=args.pair_seed, **source))
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    for split, dataset in zip(("train", "test"), pools):
        path = out / datamod.cache_name(split, args.pair_seed)
        datamod.save_cache(dataset, path)
        print(f"wrote {path} ({len(dataset)} examples)")


def _cmd_train(args):
    overrides = {}
    if args.method is not None:
        overrides["method"] = args.method
    if args.target is not None:
        overrides["target"] = args.target
    if args.seeds is not None:
        overrides["seeds"] = harness.parse_seeds(args.seeds)
    if args.scale is not None:
        overrides["scale"] = args.scale
    config = harness.load_config(args.config, overrides)
    run_dir = harness.run_experiment(config)
    print(f"run complete: {run_dir}")
    for line in (run_dir / "aggregate.csv").read_text(encoding="utf-8").splitlines():
        print("  " + line)


def _cmd_report(args):
    print(harness.report(args.run_dir))


def build_parser():
    parser = argparse.ArgumentParser(prog="avil", description="overlaid-digit multitask training experiments")
    sub = parser.add_subparsers(dest="command", required=True)

    gen = sub.add_parser("generate", help="build and cache the overlaid-digit datasets")
    gen.add_argument("--mnist-dir", default=None, help="directory with the standard IDX files")
    gen.add_argument("--out", required=True, help="output directory for cache files")
    gen.add_argument("--pair-seed", type=int, default=harness.ExperimentConfig.pair_seed)
    gen.add_argument("--synthetic", type=int, default=None, metavar="N",
                     help="use N seeded synthetic digits instead of IDX files")
    gen.add_argument("--synthetic-test", type=int, default=harness.ExperimentConfig.synthetic_test_n)
    gen.set_defaults(func=_cmd_generate)

    train = sub.add_parser("train", help="run one experiment over its seeds")
    train.add_argument("--config", required=True)
    train.add_argument("--method", choices=harness.METHODS, default=None)
    train.add_argument("--target", default=None)
    train.add_argument("--seeds", default=None, help="comma-separated seed list")
    train.add_argument("--scale", choices=("desk", "full"), default=None)
    train.set_defaults(func=_cmd_train)

    rep = sub.add_parser("report", help="aggregate finished runs into a comparison table")
    rep.add_argument("--run-dir", required=True)
    rep.set_defaults(func=_cmd_report)
    return parser


def main(argv=None):
    args = build_parser().parse_args(argv)
    try:
        args.func(args)
    except (ConfigError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
