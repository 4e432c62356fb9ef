"""Benchmark command for noisylab.

    python3 perfbench/run.py --workload desk-mlp --seed 1 --seconds 30 --trace 0

Run it from the root of a checkout. It runs one workload in this process
against the sources in ``src/``, checks the program's outputs, and prints
one JSON object as the last line of standard output: ``correct``,
``attempted``, ``failed`` and ``metrics``. With ``--trace 0`` the metrics
are the end-to-end ones; with ``--trace 1`` they are the per-layer ones from
a traced run, and the spans are written to ``perfbench/_out/``. See
``perfbench/README.md`` for the workloads and metrics.
"""

import os

# noisylab is single-threaded by design; hold numpy's BLAS pool to one
# thread before numpy is imported, here and in the set-up probes.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
             "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import json
import shutil
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
BENCH_DIR = Path(__file__).resolve().parent


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "noisylab" / "__init__.py").is_file():
        print(f"error: no noisylab sources at {SRC}; run from a full checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    os.environ["PYTHONPATH"] = str(SRC)

    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; "
              f"choose from {sorted(workloads.WORKLOADS)}", file=sys.stderr)
        return 2

    tag = f"{args.workload}-s{args.seed}-t{args.trace}"
    work = BENCH_DIR / "_work" / tag
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        result = workloads.run(args.workload, args.seed, args.seconds, bool(args.trace),
                               work, BENCH_DIR / "_out" / f"trace-{tag}.json")
    finally:
        shutil.rmtree(work, ignore_errors=True)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
