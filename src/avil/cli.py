"""Command line entry points: generate, train, report."""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from . import data as datamod
from . import harness
from .errors import ConfigError


def _cmd_generate(args):
    if args.mnist_dir is None and args.synthetic is None:
        raise ConfigError("generate: provide --mnist-dir or --synthetic N")
    if args.mnist_dir is not None:
        train_images, train_labels = datamod.load_idx(*datamod.find_idx_pair(args.mnist_dir, "train"))
        test_images, test_labels = datamod.load_idx(*datamod.find_idx_pair(args.mnist_dir, "t10k"))
    else:
        train_images, train_labels = datamod.synthetic_mnist(args.synthetic, args.pair_seed)
        test_images, test_labels = datamod.synthetic_mnist(args.synthetic_test, args.pair_seed + 1)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    for split, images, labels in (("train", train_images, train_labels), ("test", test_images, test_labels)):
        dataset = datamod.make_multimnist(images, labels, args.pair_seed, split=split)
        path = out / datamod.cache_name(split, args.pair_seed)
        datamod.save_cache(dataset, path)
        print(f"wrote {path} ({len(dataset)} examples)")


def _cmd_train(args):
    overrides = {}
    if args.method:
        overrides["method"] = args.method
    if args.target:
        overrides["target"] = args.target
    if args.seeds:
        overrides["seeds"] = harness.parse_seeds(args.seeds)
    if args.scale:
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
    gen.add_argument("--pair-seed", type=int, default=1234)
    gen.add_argument("--synthetic", type=int, default=None, metavar="N",
                     help="use N seeded synthetic digits instead of IDX files")
    gen.add_argument("--synthetic-test", type=int, default=10_000)
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
    except (ConfigError, harness.ReportError, datamod.IdxFormatError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
