"""The three workloads and the end-to-end measurements.

A workload is a sequence of rounds. Every round makes the same program calls
in the same order, so each run attempts whole rounds of identical operations
and the share of failed operations does not depend on the run length.
Anything that takes well under a second (an epoch, a resume set-up, an
export, a set-up probe) is timed many times over the run and reported as
the median of its samples. Every timing is reported in reference seconds:
see ``HostSpeed``.
"""

import bisect
import contextlib
import io
import json
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

from noisylab import cli, config, training
from noisylab.training import ablation_row_config, split_indices

import checks
from tracing import Tracer

SETUP_PROBE = Path(__file__).resolve().parent / "setup_child.py"

# The README / acceptance desk experiment: 12x12 images, 4 classes, 2000
# samples, symmetric 60% noise, MLP 256/64, 60 epochs.
DESK = {
    "data.kind": "images",
    "data.samples": 2000,
    "data.classes": 4,
    "data.image_size": 12,
    "data.separation": 1.0,
    "noise.kind": "symmetric",
    "noise.epsilon": 0.6,
    "model.backbone": "mlp",
    "model.hidden": 256,
    "model.feature_dim": 64,
    "losses.lambda": 0.1,
    "losses.classification_view": "clean",
    "alpha.kind": "linear",
    "alpha.start_frac": 0.5,
    "alpha.end_frac": 1.0,
    "optim.milestones": [0.33, 0.66],
    "train.epochs": 60,
}

# Every workload stops its runs every few epochs. Each stop is a sample
# point: repeated resume set-ups and exports of the stopped run, and now and
# then a set-up probe. Timings on this kind of shared host drift over seconds,
# so short timings are spread over the whole run rather than taken in bursts.
SETUP_SAMPLES = 7
SETUP_GAP_S = 2.0

# desk-mlp: both rows run the whole 60-epoch schedule, stopped every 5 epochs;
# the last segment is `noisylab train --resume`.
MLP_STEP = 5
MLP_RESUMES = 2
MLP_EXPORT_EVERY = 5
MLP_EXPORTS = 2  # at each export stop

# desk-conv: the first 20 epochs of the 60-epoch schedule, stopped after each.
CONV_STEP = 1
CONV_UNTIL = 20
CONV_RESUMES = 2
CONV_EXPORT_EVERY = 1
CONV_EXPORTS = 1  # at each export stop
CONV_MIN_LEAD = 0.3  # best accuracy must beat the majority-class share by this

# run-lifecycle: a desk-size model on a tiny dataset, stopped every 4 epochs.
LIFE_SAMPLES = 64
LIFE_STEP = 4
LIFE_RESUMES = 3
LIFE_EXPORTS = 5  # at the end of each round
# Round i trains its run from seed + i * LIFE_SEED_STRIDE. How long an export
# takes depends on the trained model: the embeddings CSV holds every feature
# as its repr, and how long those are varies by model (11.1 characters on
# average for seed 1, 13.8 for seed 5, whose export took 8% longer). With one
# model per run, export_s would move with the seed by that much.
LIFE_SEED_STRIDE = 1000


def desk_config(seed: int, **extra) -> dict:
    cfg = config.default_config()
    cfg.update(DESK)
    cfg.update({"seeds.init": seed, "seeds.data": seed + 100, "seeds.augment": seed + 200})
    cfg.update(extra)
    return config.validate(cfg)


def conv_config(seed: int) -> dict:
    # At the desk separation of 1.0 the conv net stays at chance for its
    # first 10 epochs; at 4.0 it learns within the epochs this workload runs.
    base = desk_config(seed, **{"data.separation": 4.0, "model.backbone": "conv"})
    return ablation_row_config(base, "+A+B+C")


def mlp_config(seed: int) -> dict:
    return ablation_row_config(desk_config(seed), "+A+B+C")


def life_config(seed: int) -> dict:
    return ablation_row_config(desk_config(seed, **{"data.samples": LIFE_SAMPLES}), "+A+B+C")


def train_size(cfg: dict) -> int:
    return len(split_indices(cfg, cfg["data.samples"])[0])


# Fixed calibration work: the program's own mix of interpreted Python and
# small float32 matmuls, on arrays made once from a fixed seed.
_CAL_RNG = np.random.default_rng(0)
_CAL_X = _CAL_RNG.standard_normal((64, 144)).astype(np.float32)
_CAL_W = _CAL_RNG.standard_normal((144, 256)).astype(np.float32)
CAL_REPEATS = 3
# What one calibration takes at the reference speed: about its median on
# the 2-core VM the bounds were set on, so that a reference second is close
# to a second there.
REF_CAL_S = 0.0009
# A timing is scaled by the median of the calibrations from CAL_WINDOW_S
# before it to CAL_WINDOW_S after it: the host's speed drifts over seconds,
# while a single calibration of about a millisecond is itself noisy.
CAL_WINDOW_S = 5.0


def _calibration_work() -> float:
    total = 0.0
    for i in range(1000):
        total += i * i
    for _ in range(10):
        total += float(np.maximum(_CAL_X @ _CAL_W, 0.0).sum())
    return total


class HostSpeed:
    """Converts timings to reference seconds.

    The speed of a core of this kind of shared host drifts by 20-50% over
    seconds to minutes with other tenants' load, and every timing of a run
    moves with it. Before each timed operation the benchmark times a fixed
    calibration (the fastest of ``CAL_REPEATS``); a timing is then scaled by
    ``REF_CAL_S`` over the median calibration from ``CAL_WINDOW_S`` before
    it to ``CAL_WINDOW_S`` after it. The calibration is the benchmark's own
    code, so a change to the program moves the scaled timing as much as the
    raw one.
    """

    def __init__(self):
        self.stamps = []  # start of each calibration
        self.costs = []   # its fastest repeat
        self.spent = 0.0  # time spent calibrating

    def probe(self):
        """Calibrate now; returns the start and end of the calibration."""
        start = time.perf_counter()
        best = float("inf")
        for _ in range(CAL_REPEATS):
            t = time.perf_counter()
            _calibration_work()
            best = min(best, time.perf_counter() - t)
        end = time.perf_counter()
        self.stamps.append(start)
        self.costs.append(best)
        self.spent += end - start
        return start, end

    def seconds(self, interval) -> float:
        """Reference seconds of ``(start, end, less)``: ``end - start``
        less the ``less`` seconds of calibration run inside it."""
        start, end, less = interval
        first = max(bisect.bisect_right(self.stamps, start - CAL_WINDOW_S) - 1, 0)
        last = bisect.bisect_left(self.stamps, end + CAL_WINDOW_S)
        cal = statistics.median(self.costs[first:last + 1])
        return (end - start - less) * REF_CAL_S / cal


class Bench:
    """Counts and times the program calls of a workload. A timing is kept
    as an interval ``(start, end, less)`` and converted to reference
    seconds by ``HostSpeed.seconds`` once the run is over."""

    def __init__(self, setup_cfg=None, epoch_calibration=True):
        self.attempted = 0
        self.failed = 0
        self.problems = []
        self.speed = HostSpeed()
        self.epochs = {}         # config hash -> epoch intervals
        self.train_samples = {}  # config hash -> train-split size
        self.resumes = []
        self.exports = []
        self.setups = []
        self.rounds = []         # per round, the intervals that count toward wall_s
        self.ckpt_bytes = 0
        self.tracer = None
        self._setup_cfg = setup_cfg
        self._last_probe = time.perf_counter()
        self._round = []
        self._marks = []
        self._end = 0.0
        train_epoch = training.train_epoch

        def clocked(exp, epoch):
            if epoch_calibration:
                self._marks.append(self.speed.probe())
            else:
                now = time.perf_counter()
                self._marks.append((now, now))
            return train_epoch(exp, epoch)

        # A calibration before every epoch marks epoch boundaries, so an
        # epoch's time covers its train pass, eval and checkpoint writes.
        # The traced run leaves it out, so that no calibration falls inside
        # a span and its traced and untraced rounds do the same work.
        training.train_epoch = clocked

    def check(self, problems):
        self.problems.extend(problems)

    def call(self, fn, *args, in_wall=True, **kwargs):
        """One program operation: counted, timed, and traced when tracing."""
        self.attempted += 1
        start = self.speed.probe()[1]
        spent = self.speed.spent
        if self.tracer is not None:
            self.tracer.active = True
        try:
            result = fn(*args, **kwargs)
        finally:
            self._end = time.perf_counter()
            if self.tracer is not None:
                self.tracer.active = False
        interval = (start, self._end, self.speed.spent - spent)
        if in_wall:
            self._round.append(interval)
        return result, interval

    def cli(self, *argv, in_wall=True):
        with contextlib.redirect_stdout(io.StringIO()):
            code, interval = self.call(cli.main, [str(a) for a in argv], in_wall=in_wall)
        if code != 0:
            self.failed += 1
            self.problems.append(f"noisylab {argv[0]} exited with {code}")
        return interval

    def train(self, cfg, op, *args, **kwargs):
        """A training operation (``call`` or ``cli``) of config ``cfg``;
        records every epoch it runs under that config, from the end of the
        calibration before it to the start of the next one."""
        self._marks = []
        op(*args, **kwargs)
        ends = [start for start, _ in self._marks[1:]] + [self._end]
        key = config.config_hash(cfg)
        self.train_samples[key] = train_size(cfg)
        self.epochs.setdefault(key, []).extend(
            (end_of_cal, end, 0.0) for (_, end_of_cal), end in zip(self._marks, ends))

    def export(self, run, in_wall):
        self.exports.append(self.cli("export", "--run", run, "--checkpoint", "best",
                                     in_wall=in_wall))

    def sample(self, run, epochs_done, resumes, exports):
        """A sample point while ``run`` is stopped; nothing here counts
        toward wall_s. A resume set-up resumes the run with no epoch to
        train: config load, dataset load, experiment build, checkpoint load."""
        for _ in range(resumes):
            summary, interval = self.call(training.run_experiment, {}, run, resume=True,
                                          stop_after=0, in_wall=False)
            self.resumes.append(interval)
            if summary["epochs_completed"] != epochs_done or summary["finished"]:
                self.problems.append(f"resume set-up of {run} reported {summary}")
        for _ in range(exports):
            self.export(run, in_wall=False)
        if (self._setup_cfg is not None and len(self.setups) < SETUP_SAMPLES
                and time.perf_counter() - self._last_probe >= SETUP_GAP_S):
            self.setup_probe()

    def setup_probe(self, keep=True):
        """Time from process start to a built experiment, in a fresh
        interpreter that reports once it has built the workload's experiment."""
        start = self.speed.probe()[1]
        with subprocess.Popen([sys.executable, str(SETUP_PROBE), str(self._setup_cfg)],
                              stdout=subprocess.PIPE, text=True) as proc:
            line = proc.stdout.readline()
            end = time.perf_counter()
            try:
                proc.communicate(timeout=60)
            except subprocess.TimeoutExpired:
                proc.kill()
                raise
        if proc.returncode != 0 or line.strip() != "built":
            raise RuntimeError(f"set-up probe failed with exit code {proc.returncode}")
        self._last_probe = time.perf_counter()
        if keep:
            self.setups.append((start, end, 0.0))

    def end_round(self):
        self.rounds.append(self._round)
        self._round = []

    def round_s(self, rounds) -> list:
        return [sum(self.speed.seconds(i) for i in r) for r in rounds]

    def median_s(self, intervals) -> float:
        return statistics.median(self.speed.seconds(i) for i in intervals)


def _segments(bench, cfg, run, step, until, resumes, export_every, exports=0):
    """Train ``cfg`` into ``run`` up to epoch ``until``, stopping every
    ``step`` epochs for a sample point, with ``exports`` exports at every
    multiple of ``export_every`` epochs (none if 0). When ``until`` is the
    end of the schedule, the last segment is ``noisylab train --resume``."""
    bench.train(cfg, bench.call, training.run_experiment, cfg, run, stop_after=step)
    done = step
    while True:
        stop_exports = exports if export_every and done % export_every == 0 else 0
        bench.sample(run, done, resumes, stop_exports)
        left = until - done
        if left <= 0:
            return
        if until == cfg["train.epochs"] and left <= step:
            bench.train(cfg, bench.cli, "train", "--out-dir", run, "--resume")
            return
        bench.train(cfg, bench.call, training.run_experiment, {}, run, resume=True,
                    stop_after=min(step, left))
        done += min(step, left)


def desk_mlp_round(bench, seed, work, index):
    last = {}
    for row in ("CE", "+A+B+C"):
        cfg = ablation_row_config(desk_config(seed), row)
        run = work / row.replace("+", "")
        _segments(bench, cfg, run, MLP_STEP, cfg["train.epochs"], MLP_RESUMES, MLP_EXPORT_EVERY,
                  MLP_EXPORTS)
        bench.export(run, in_wall=True)
        bench.ckpt_bytes = (run / "checkpoints" / "last.ckpt").stat().st_size
        bench.check(checks.run_dir(run, cfg["train.epochs"]))
        bench.check(checks.mlp_best_accuracy(run))
        bench.check(checks.embeddings(run, "best"))
        bench.check(checks.gallery(run))
        last[row] = json.loads((run / "summary.json").read_text())
    print(checks.claim_report(last["CE"], last["+A+B+C"]), file=sys.stderr)


def desk_conv_round(bench, seed, work, index):
    cfg = conv_config(seed)
    run = work / "conv"
    _segments(bench, cfg, run, CONV_STEP, CONV_UNTIL, CONV_RESUMES, CONV_EXPORT_EVERY, CONV_EXPORTS)
    bench.export(run, in_wall=True)
    bench.ckpt_bytes = (run / "checkpoints" / "last.ckpt").stat().st_size
    bench.check(checks.conv_last_predictions(run))
    bench.check(checks.beats_majority(run, CONV_MIN_LEAD))
    bench.check(checks.gallery(run))


def run_lifecycle_round(bench, seed, work, index):
    clean, noisy = work / "clean.bin", work / "noisy.bin"
    bench.cli("generate", "--samples", DESK["data.samples"], "--classes", DESK["data.classes"],
              "--image", f"{DESK['data.image_size']}x{DESK['data.image_size']}",
              "--separation", DESK["data.separation"], "--seed", seed, "--out", clean)
    bench.cli("corrupt", "--input", clean, "--kind", "symmetric", "--eps", DESK["noise.epsilon"],
              "--seed", seed + 1, "--out", noisy)
    bench.check(checks.transition(f"{clean}.labels.csv", noisy, f"{noisy}.transition.csv",
                                  DESK["noise.epsilon"]))

    cfg = life_config(seed + index * LIFE_SEED_STRIDE)
    run, twin = work / "run", work / "twin"
    _segments(bench, cfg, run, LIFE_STEP, cfg["train.epochs"], LIFE_RESUMES, 0)
    bench.train(cfg, bench.call, training.run_experiment, cfg, twin)
    bench.check(checks.same_run(run, twin))

    # Resuming a finished run must leave its results alone. Today it rewrites
    # summary.json with last_acc, gap and last_corrupted_subset_acc set to
    # null, so this operation fails on every round.
    before = (run / "summary.json").read_bytes()
    failed = bench.failed
    bench.cli("train", "--out-dir", run, "--resume")
    if bench.failed == failed and (run / "summary.json").read_bytes() != before:
        bench.failed += 1

    for i in range(LIFE_EXPORTS):
        bench.export(run, in_wall=i == 0)
    bench.ckpt_bytes = (run / "checkpoints" / "last.ckpt").stat().st_size
    bench.check(checks.run_dir(twin, cfg["train.epochs"]))
    bench.check(checks.embeddings(run, "best"))
    bench.check(checks.gallery(run))


WORKLOADS = {
    "desk-mlp": (mlp_config, desk_mlp_round),
    "desk-conv": (conv_config, desk_conv_round),
    "run-lifecycle": (life_config, run_lifecycle_round),
}


def _rounds(bench, round_fn, seed, work, budget):
    """Whole rounds while the next one is expected to fit in ``budget``."""
    start = time.perf_counter()
    index = 0
    while True:
        round_dir = work / "round"
        shutil.rmtree(round_dir, ignore_errors=True)
        round_dir.mkdir()
        began = time.perf_counter()
        round_fn(bench, seed, round_dir, index)
        bench.end_round()
        index += 1
        now = time.perf_counter()
        if now - start + (now - began) > budget:
            return


def _samples_per_s(bench) -> float:
    """Train samples over training time, with each config's epochs counted
    at that config's median epoch time."""
    samples = sum(bench.train_samples[k] * len(v) for k, v in bench.epochs.items())
    seconds = sum(len(v) * bench.median_s(v) for v in bench.epochs.values())
    return samples / seconds


def run(name, seed, seconds, trace, work, trace_path) -> dict:
    make_config, round_fn = WORKLOADS[name]
    if not trace:
        setup_cfg = work / "setup.cfg"
        config.dump(make_config(seed), setup_cfg)
        bench = Bench(setup_cfg)
        bench.setup_probe(keep=False)  # warm-up: fills the bytecode and file caches
        _rounds(bench, round_fn, seed, work, seconds)
        while len(bench.setups) < SETUP_SAMPLES:
            bench.setup_probe()
        bench.speed.probe()  # the calibration after the last timing
        metrics = {
            "setup_s": (bench.median_s(bench.setups), "s"),
            "wall_s": (statistics.median(bench.round_s(bench.rounds)), "s"),
            "train_samples_per_s": (_samples_per_s(bench), "samples/s"),
            "resume_s": (bench.median_s(bench.resumes), "s"),
            "export_s": (bench.median_s(bench.exports), "s"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
        }
        raw = statistics.median(e - s for s, e, _ in bench.exports)
        print(f"calibration: median {statistics.median(bench.speed.costs) * 1e3:.3f} ms "
              f"over {len(bench.speed.costs)} (reference {REF_CAL_S * 1e3:.3f} ms); "
              f"export: median {raw * 1e3:.2f} ms unscaled", file=sys.stderr)
    else:
        # Half the time untraced, half traced: the difference of the median
        # round times is the tracing overhead.
        bench = Bench(epoch_calibration=False)
        _rounds(bench, round_fn, seed, work, seconds / 2)
        untraced = len(bench.rounds)
        bench.tracer = Tracer()
        bench.tracer.install()
        try:
            _rounds(bench, round_fn, seed, work, seconds / 2)
        finally:
            bench.tracer.uninstall()
        bench.speed.probe()
        metrics = bench.tracer.layer_metrics(
            ckpt_bytes=bench.ckpt_bytes,
            traced_s=statistics.median(bench.round_s(bench.rounds[untraced:])),
            untraced_s=statistics.median(bench.round_s(bench.rounds[:untraced])),
        )
        bench.tracer.write(trace_path, name, seed)
    for problem in bench.problems:
        print(f"check failed: {problem}", file=sys.stderr)
    return {
        "correct": not bench.problems,
        "attempted": bench.attempted,
        "failed": bench.failed,
        "metrics": {key: {"value": value, "unit": unit} for key, (value, unit) in metrics.items()},
    }
