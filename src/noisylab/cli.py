"""Command-line surface: generate, corrupt, train, ablate, export.

Exit codes: 0 success, 2 usage errors (argparse), 3 config/validation
errors, 4 runtime divergence, 1 anything else.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

import numpy as np

from . import config as config_mod
from .config import ConfigError
from .data import (
    DatasetError,
    NoiseSpec,
    empirical_transition_matrix,
    export_labels_csv,
    generate_blobs,
    inject_noise,
    load_dataset,
    replacing,
    save_dataset,
)
from .export import export_embeddings_csv, export_gallery, load_run_models
from .training import DivergenceError, RunLockError, format_ablation_table, run_ablation, run_experiment

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_VALIDATION = 3
EXIT_DIVERGENCE = 4
EXIT_RUNTIME = 1


def _int_in(low, high, what):
    """argparse type: an integer in [low, high)."""
    def parse(text):
        try:
            if low <= int(text) < high:
                return int(text)
        except ValueError:
            pass
        raise argparse.ArgumentTypeError(f"expected {what}, got {text!r}")
    return parse


_positive_int = _int_in(1, float("inf"), "a positive integer")
_seed = _int_in(0, config_mod.SEED_BOUND, "a seed in [0, 2**32)")
# train and ablate set seeds.init, .data and .augment to --seed, +1 and +2
_base_seed = _int_in(0, config_mod.SEED_BOUND - 2, "a seed in [0, 2**32 - 2)")


def _image_shape(text):
    """argparse type: ``HxW`` or ``N`` (square), positive sizes."""
    h, x, w = text.partition("x")
    try:
        return (_positive_int(h), _positive_int(w if x else h))
    except argparse.ArgumentTypeError:
        raise argparse.ArgumentTypeError(f"expected an image shape like 12x12 or 12, got {text!r}") from None


def cmd_generate(args) -> int:
    shape = args.image or args.dims
    ds = generate_blobs(args.samples, args.classes, shape, args.separation, args.seed)
    save_dataset(ds, args.out)
    export_labels_csv(ds, str(args.out) + ".labels.csv")
    print(f"wrote {len(ds)} samples, {ds.num_classes} classes, shape {ds.input_shape} -> {args.out}")
    return EXIT_OK


def cmd_corrupt(args) -> int:
    ds = load_dataset(args.input)
    spec = NoiseSpec(kind=args.kind, epsilon=args.eps, seed=args.seed, wrap_last_class=not args.no_wrap)
    corrupted = inject_noise(ds, spec)
    save_dataset(corrupted, args.out)
    matrix, undefined = empirical_transition_matrix(corrupted)
    matrix_path = str(args.out) + ".transition.csv"
    with replacing(matrix_path) as fh:
        for i, row in enumerate(matrix):
            cells = ["undefined"] * len(row) if undefined[i] else [f"{v:.6f}" for v in row]
            fh.write((",".join(cells) + "\n").encode())
    flipped = int(corrupted.corrupted.sum())
    print(f"corrupted {flipped}/{len(ds)} labels ({args.kind}, eps={args.eps}) -> {args.out}")
    print(f"transition matrix -> {matrix_path}")
    return EXIT_OK


def _load_config(args):
    overrides = config_mod.parse_overrides(args.override or [])
    if args.seed is not None:
        seeds = {f"seeds.{name}": str(args.seed + i) for i, name in enumerate(("init", "data", "augment"))}
        for number, (key, _) in enumerate(overrides, 1):
            if key in seeds:
                raise ConfigError(f"--override {number}: {key} is also set by --seed")
        overrides += seeds.items()
    if args.config:
        return config_mod.load(args.config, overrides)
    return config_mod.parse_entries(overrides)


def cmd_train(args) -> int:
    if args.resume:
        summary = run_experiment({}, args.out_dir, resume=True)
    else:
        cfg = _load_config(args)
        summary = run_experiment(cfg, args.out_dir)
    print(f"run dir: {args.out_dir}")
    print(f"best_acc={summary['best_acc']:.4f} (epoch {summary['best_epoch']}) "
          f"last_acc={summary['last_acc']:.4f} gap={summary['gap']:.4f}")
    return EXIT_OK


def cmd_ablate(args) -> int:
    cfg = _load_config(args)
    results = run_ablation(cfg, args.out_dir)
    print(format_ablation_table(results))
    print(f"grid written to {args.out_dir}")
    return EXIT_OK if all(r["status"] == "ok" for r in results) else EXIT_RUNTIME


def cmd_export(args) -> int:
    exp, meta = load_run_models(args.run, args.checkpoint)
    out_dir = Path(args.out_dir or args.run)
    out_dir.mkdir(parents=True, exist_ok=True)
    emb_path = out_dir / "embeddings.csv"
    rows = export_embeddings_csv(exp, emb_path)
    print(f"{rows} embedding rows -> {emb_path}")
    if exp.dataset.is_image:
        gallery_path = out_dir / "gallery.pgm"
        export_gallery(exp, gallery_path, num_samples=args.samples)
        print(f"reconstruction gallery -> {gallery_path}")
    else:
        print("flat dataset: no reconstruction gallery")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="noisylab",
        description="Robust-label training toolkit: synthetic noisy-label experiments",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    schema = config_mod.SCHEMA
    p = sub.add_parser("generate", help="generate a synthetic dataset")
    p.add_argument("--samples", type=_positive_int, default=schema["data.samples"].default)
    p.add_argument("--classes", type=_positive_int, default=schema["data.classes"].default)
    group = p.add_mutually_exclusive_group()
    group.add_argument("--dims", type=_positive_int, default=schema["data.dims"].default,
                       help="flat feature dimension")
    group.add_argument("--image", type=_image_shape, default=None, help="image shape, e.g. 12x12")
    p.add_argument("--separation", type=float, default=schema["data.separation"].default)
    p.add_argument("--seed", type=_seed, default=0)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_generate)

    p = sub.add_parser("corrupt", help="inject label noise into a dataset")
    p.add_argument("--input", required=True)
    p.add_argument("--kind", choices=["symmetric", "asymmetric"], required=True)
    p.add_argument("--eps", type=float, required=True)
    p.add_argument("--seed", type=_seed, default=0)
    p.add_argument("--no-wrap", action="store_true",
                   help="asymmetric: leave the last class unflipped")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_corrupt)

    for name, help_text in (("train", "train one experiment"),
                            ("ablate", "run the 7-row component grid")):
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--config", type=str, default=None)
        p.add_argument("--override", action="append", metavar="KEY=VALUE")
        p.add_argument("--seed", type=_base_seed, default=None,
                       help="set seeds.init, .data and .augment to this, +1 and +2")
        p.add_argument("--out-dir", required=True)
        if name == "train":
            p.add_argument("--resume", action="store_true")
            p.set_defaults(func=cmd_train)
        else:
            p.set_defaults(func=cmd_ablate)

    p = sub.add_parser("export", help="export embeddings and a reconstruction gallery")
    p.add_argument("--run", required=True, help="run directory")
    p.add_argument("--checkpoint", choices=["init", "best", "last"], default="best")
    p.add_argument("--samples", type=_positive_int, default=8, help="gallery rows")
    p.add_argument("--out-dir", default=None)
    p.set_defaults(func=cmd_export)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if getattr(args, "resume", False) and (args.config or args.override or args.seed is not None):
        # a resumed run reads its own config.txt; these would be ignored
        parser.error("train: --resume takes no --config, --override or --seed")
    try:
        return args.func(args)
    except (ConfigError, DatasetError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except DivergenceError as exc:
        print(f"error: training diverged: {exc}", file=sys.stderr)
        return EXIT_DIVERGENCE
    except (RunLockError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_RUNTIME


if __name__ == "__main__":
    sys.exit(main())
