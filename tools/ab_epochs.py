"""Time two copies of noisylab on the same training epochs, in one process.

    python tools/ab_epochs.py A_DIR B_DIR CONFIG ROW

A_DIR and B_DIR are ``noisylab`` package directories (for example
``src/noisylab`` and the same directory of another checkout). Each is
imported under a package name of its own, so both live in one process. Both
build the experiment of CONFIG's ablation ROW (``CE``, ``+A+B+C``, ...) and
run its ``train.epochs`` training passes (``training._train_pass``, no
evaluation), alternating between the two: A first on even epochs, B first on
odd ones.

After every epoch the two sides' parameters (``models.flat``), optimizer
velocities and loss means must be byte-identical; the first difference
stops the run with exit code 1. At the end it prints each side's median
epoch time, how many epochs B was faster in, and the median of the paired
differences B - A.

In same-code pairs the second side (B) tends to win slightly more than half
of the epochs, so compare a result with that bias, or run it both ways.
"""

import os

# noisylab is single-threaded by design; hold numpy's BLAS pool to one
# thread before numpy is imported, as perfbench does.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
             "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import importlib.util
import sys
import time
from pathlib import Path

import numpy as np


def import_package(directory, name: str):
    """The ``noisylab`` package in ``directory``, imported as ``name``;
    returns its ``config`` and ``training`` modules."""
    directory = Path(directory).resolve()
    if not (directory / "__init__.py").is_file():
        raise SystemExit(f"error: {directory} is not a package directory")
    spec = importlib.util.spec_from_file_location(name, directory / "__init__.py",
                                                  submodule_search_locations=[str(directory)])
    package = importlib.util.module_from_spec(spec)
    sys.modules[name] = package
    spec.loader.exec_module(package)
    return importlib.import_module(f"{name}.config"), importlib.import_module(f"{name}.training")


class Side:
    """One package's experiment and its epoch times."""

    def __init__(self, directory, name: str, config_path, row: str):
        config, self.training = import_package(directory, name)
        self.exp = self.training.build_experiment(
            self.training.ablation_row_config(config.load(config_path), row))
        self.seconds = []

    def epoch(self, epoch: int) -> dict:
        """Time one training pass; returns what must match the other side."""
        cfg = self.exp.cfg
        lr, alpha = self.training.lr_at(cfg, epoch), self.training.alpha_at(cfg, epoch)
        t0 = time.perf_counter()
        losses = self.training._train_pass(self.exp, epoch, lr, alpha)
        self.seconds.append(time.perf_counter() - t0)
        return {"parameters": self.exp.models.flat.tobytes(),
                "velocities": b"".join(v.tobytes() for v in self.exp.optimizer.velocities.values()),
                "loss means": losses}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("a_dir", help="first noisylab package directory (A)")
    parser.add_argument("b_dir", help="second noisylab package directory (B)")
    parser.add_argument("config", help="config file; its train.epochs is the number of epochs")
    parser.add_argument("row", help="ablation row, for example CE or +A+B+C")
    args = parser.parse_args(argv)

    a = Side(args.a_dir, "noisylab_a", args.config, args.row)
    b = Side(args.b_dir, "noisylab_b", args.config, args.row)
    for epoch in range(a.exp.cfg["train.epochs"]):
        after = {side: side.epoch(epoch) for side in ((a, b) if epoch % 2 == 0 else (b, a))}
        for what, value in after[a].items():
            if value != after[b][what]:
                print(f"epoch {epoch}: {what} differ between A and B", file=sys.stderr)
                return 1

    ms_a, ms_b = np.array(a.seconds) * 1e3, np.array(b.seconds) * 1e3
    print(f"{len(ms_a)} epochs of {args.row}, byte-identical parameters and velocities after each")
    print(f"A median {np.median(ms_a):.3f} ms, B median {np.median(ms_b):.3f} ms")
    print(f"B faster in {int((ms_b < ms_a).sum())}/{len(ms_a)}, median paired B - A {np.median(ms_b - ms_a):+.3f} ms")
    return 0


if __name__ == "__main__":
    sys.exit(main())
