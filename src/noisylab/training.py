"""Training loop: SGD with momentum, the step LR and alpha schedules,
metrics collection, run directories, checkpointing, and the 7-row ablation
grid. Both schedules read the validated config.

Everything on the default path is single-threaded and seeded, so two runs
of the same config produce identical parameters and metrics. Shuffle order
and augmentation pipelines are derived from (seed, epoch, index) rather
than from mutable RNG state, which makes checkpoint resume exact.
"""

from __future__ import annotations

import errno
import fcntl
import json
import math
import os
import time
from dataclasses import dataclass, fields
from pathlib import Path

import numpy as np

from . import config as config_mod
from .augment import AugmentPolicy, augment_batch
from .autodiff import Tensor, no_grad
from .data import (
    DatasetFileError,
    LabeledDataset,
    NoiseSpec,
    generate_blobs,
    inject_noise,
    load_dataset,
    read_arrays,
    replacing,
    save_dataset,
    write_arrays,
)
from .losses import LossInputError, bootstrap_loss, cluster_loss, reconstruction_loss, total_loss
from .models import ModelSet

DIVERGENCE_LIMIT = 1e4
# rows per forward pass in evaluation and export, which run no backward
EVAL_BATCH = 256

ABLATION_ROWS = [
    ("CE", False, False, False),
    ("+A", True, False, False),
    ("+B", False, True, False),
    ("+C", False, False, True),
    ("+A+B", True, True, False),
    ("+A+C", True, False, True),
    ("+A+B+C", True, True, True),
]


class DivergenceError(RuntimeError):
    """Loss exploded or went NaN; the run directory keeps the last good
    checkpoint."""


class RunLockError(RuntimeError):
    """Another process holds the run directory."""


# ---------------------------------------------------------------------------
# Optimizer and schedules
# ---------------------------------------------------------------------------

class SgdOptimizer:
    """SGD with momentum and coupled weight decay.

    v <- momentum * v + grad + weight_decay * param
    param <- param - lr * v

    Every ``params[name].data`` is a view into ``flat``, the parameters laid
    out one after another in dict order, as ``ModelSet.flat`` is. Each
    ``velocities[name]`` is the matching view into one velocity buffer, so a
    step is a few array operations over all parameters.

    ``step`` copies each ``grad`` into its view of a third buffer of the
    same layout, a ``grad`` of None as zero, uses that buffer as scratch
    space and sets every ``grad`` to None.
    """

    def __init__(self, params: dict, flat: np.ndarray, momentum: float, weight_decay: float):
        self.params = params
        self.momentum = momentum
        self.weight_decay = weight_decay
        self._flat = flat
        self._velocity = np.zeros_like(flat)
        self._grad = np.empty_like(flat)
        self.velocities = {}
        self._grads = {}
        lo = 0
        for name, p in params.items():
            shape, hi = p.data.shape, lo + p.data.size
            self.velocities[name] = self._velocity[lo:hi].reshape(shape)
            self._grads[name] = self._grad[lo:hi].reshape(shape)
            lo = hi

    def step(self, lr: float):
        if lr < 0:
            raise ValueError("learning rate must be >= 0")
        for p, view in zip(self.params.values(), self._grads.values()):
            view[...] = 0 if p.grad is None else p.grad
        g = self._grad
        # min propagates NaN, warns about nothing and needs no bool array
        if np.isnan(g.min()):
            name = next(name for name, view in self._grads.items() if np.isnan(view).any())
            raise DivergenceError(f"NaN gradient in parameter {name!r}")
        # This order, ((momentum * v) + grad) + (weight_decay * param), fixes
        # every step's float32 rounding. Once added, g is scratch space.
        v = self._velocity
        np.multiply(v, self.momentum, out=v)
        v += g
        np.multiply(self._flat, self.weight_decay, out=g)
        v += g
        np.multiply(v, lr, out=g)
        self._flat -= g
        for p in self.params.values():
            p.grad = None

    def first_nonfinite(self) -> str | None:
        """The name of the first parameter, then ``velocity.<name>``, that
        holds an inf or NaN; None when every value is finite."""
        if np.isfinite(self._flat).all() and np.isfinite(self._velocity).all():
            return None
        for name, p in self.params.items():
            if not np.isfinite(p.data).all():
                return name
        return "velocity." + next(name for name, v in self.velocities.items() if not np.isfinite(v).all())


def lr_at(cfg: dict, epoch: int) -> float:
    """``optim.lr`` times ``optim.step_ratio`` for each milestone fraction
    of ``train.epochs`` that ``epoch`` has reached."""
    passed = sum(1 for m in cfg["optim.milestones"] if epoch >= m * cfg["train.epochs"])
    return cfg["optim.lr"] * cfg["optim.step_ratio"]**passed


def alpha_at(cfg: dict, epoch: int) -> float:
    """The bootstrap loss's supervision weight: ``alpha.constant`` for the
    constant kind; otherwise 1 up to the window's start epoch, 0 from its
    end epoch on, and falling linearly, along a half cosine, or in one step
    at the midpoint in between. The window is ``alpha.start_frac`` and
    ``alpha.end_frac`` of ``train.epochs``, rounded, one epoch at least."""
    total = cfg["train.epochs"]
    if not 0 <= epoch < total:
        raise ValueError(f"epoch {epoch} outside [0, {total})")
    kind = cfg["alpha.kind"]
    if kind == "constant":
        return cfg["alpha.constant"]
    start = int(round(cfg["alpha.start_frac"] * total))
    end = max(start + 1, int(round(cfg["alpha.end_frac"] * total)))
    if epoch <= start:
        return 1.0
    if epoch >= end:
        return 0.0
    frac = (epoch - start) / (end - start)
    if kind == "linear":
        return 1.0 - frac
    if kind == "cosine":
        return 0.5 * (1.0 + math.cos(math.pi * frac))
    return 1.0 if frac < 0.5 else 0.0  # step


# ---------------------------------------------------------------------------
# Checkpoints
# ---------------------------------------------------------------------------

# each metadata value's check; bools are ints in Python but never valid here
_CKPT_META = {
    "config_hash": lambda v: isinstance(v, str),
    "epoch": lambda v: type(v) is int and v >= 0,
    "best_acc": lambda v: type(v) in (int, float) and math.isfinite(v),
    "best_epoch": lambda v: type(v) is int and v >= -1,
}


class CheckpointError(IOError):
    pass


def save_checkpoint(paths, arrays: dict, config_hash: str, epoch: int, best_acc: float, best_epoch: int) -> None:
    """Write one checkpoint, serialized once, to each of ``paths`` in order."""
    meta = {"config_hash": config_hash, "epoch": int(epoch),
            "best_acc": float(best_acc), "best_epoch": int(best_epoch)}
    write_arrays(paths, {name: arrays[name] for name in sorted(arrays)}, meta)


def load_checkpoint(path):
    try:
        arrays, meta = read_arrays(path)
        meta = {key: meta[key] for key in _CKPT_META}
    except DatasetFileError as exc:
        raise CheckpointError(str(exc)) from exc
    except KeyError as exc:
        raise CheckpointError(f"{path}: not a checkpoint, {exc} is missing") from None
    for key, valid in _CKPT_META.items():
        if not valid(meta[key]):
            raise CheckpointError(f"{path}: invalid {key} {meta[key]!r}")
    # before the first epoch nothing is best yet; after it, the best is an
    # earlier epoch's accuracy
    epoch, best_epoch, best_acc = meta["epoch"], meta["best_epoch"], meta["best_acc"]
    if not (epoch == 0 and best_epoch == -1 and best_acc == -1.0
            or 0 <= best_epoch < epoch and 0 <= best_acc <= 1):
        raise CheckpointError(f"{path}: invalid best_epoch {best_epoch} with best_acc {best_acc!r} "
                              f"at epoch {epoch}")
    return arrays, meta


# ---------------------------------------------------------------------------
# Experiment wiring
# ---------------------------------------------------------------------------

@dataclass
class Experiment:
    cfg: dict
    dataset: LabeledDataset
    train_idx: np.ndarray
    val_idx: np.ndarray
    models: ModelSet
    optimizer: SgdOptimizer
    policy: AugmentPolicy


def _input_shape(cfg: dict) -> tuple:
    """One sample's feature shape in the dataset of ``cfg``."""
    if cfg["data.kind"] == "images":
        return (cfg["data.image_size"], cfg["data.image_size"])
    return (cfg["data.dims"],)


def build_dataset(cfg: dict) -> LabeledDataset:
    shape = _input_shape(cfg)
    ds = generate_blobs(cfg["data.samples"], cfg["data.classes"], shape[0] if len(shape) == 1 else shape,
                        cfg["data.separation"], cfg["seeds.data"])
    if cfg["noise.kind"] != "none" and cfg["noise.epsilon"] > 0:
        spec = NoiseSpec(kind=cfg["noise.kind"], epsilon=cfg["noise.epsilon"], seed=cfg["seeds.data"] + 1,
                         wrap_last_class=cfg["noise.wrap_last_class"])
        ds = inject_noise(ds, spec)
    return ds


def split_indices(cfg: dict, n: int):
    """(train, validation) indices of ``n`` samples: a seeded permutation's
    first ``max(1, round(data.val_fraction * n))`` go to validation. A split
    that leaves no training sample raises ConfigError."""
    n_val = max(1, int(round(cfg["data.val_fraction"] * n)))
    if n_val >= n:
        raise config_mod.ConfigError(f"data.val_fraction = {cfg['data.val_fraction']!r} leaves no training "
                                     f"sample of data.samples = {n}")
    rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence((cfg["seeds.data"], 17))))
    order = rng.permutation(n)
    return order[n_val:], order[:n_val]


def build_experiment(cfg: dict, dataset: LabeledDataset | None = None,
                     checkpoint: dict | None = None) -> Experiment:
    """Wire a config into an experiment. The parameters are drawn from
    ``seeds.init``; given a checkpoint's arrays, the parameters and velocities
    are copied from them instead and nothing is drawn. The model is sized
    from the dataset: a given one whose sample count, class count or input
    shape differs from the dataset ``build_dataset`` makes for ``cfg``
    raises DatasetFileError. A checkpoint whose names, shapes or dtypes do
    not fit the model, or that holds an inf or NaN, raises CheckpointError."""
    cfg = config_mod.validate(dict(cfg))
    if dataset is None:
        ds = build_dataset(cfg)
    else:
        ds = dataset
        for what, have, want in (("samples", len(ds), cfg["data.samples"]),
                                 ("classes", ds.num_classes, cfg["data.classes"]),
                                 ("input shape", ds.input_shape, _input_shape(cfg))):
            if have != want:
                raise DatasetFileError(f"dataset does not fit the config: {what} {have}, expected {want}")
    train_idx, val_idx = split_indices(cfg, len(ds))
    models = ModelSet(input_shape=ds.input_shape, num_classes=ds.num_classes,
                      num_clusters=cfg["model.clusters"] or ds.num_classes,
                      feature_dim=cfg["model.feature_dim"], hidden=cfg["model.hidden"],
                      backbone_kind=cfg["model.backbone"],
                      init_seed=cfg["seeds.init"] if checkpoint is None else None)
    optimizer = SgdOptimizer(models.parameters(), models.flat, cfg["optim.momentum"], cfg["optim.weight_decay"])
    policy = AugmentPolicy(op_pool=tuple(cfg["augment.ops"]),
                           num_ops=cfg["augment.num_ops"],
                           magnitude=cfg["augment.magnitude"])
    exp = Experiment(cfg=cfg, dataset=ds, train_idx=train_idx, val_idx=val_idx,
                     models=models, optimizer=optimizer, policy=policy)
    if checkpoint is not None:
        state = _ckpt_state(exp)
        missing, extra = state.keys() - checkpoint.keys(), checkpoint.keys() - state.keys()
        if missing or extra:
            raise CheckpointError(f"checkpoint does not fit the model: missing={sorted(missing)}, "
                                  f"extra={sorted(extra)}")
        for name, a in state.items():
            if a.shape != checkpoint[name].shape:
                raise CheckpointError(f"checkpoint array {name!r} has shape "
                                      f"{checkpoint[name].shape}, expected {a.shape}")
            if checkpoint[name].dtype != a.dtype.newbyteorder("<"):  # files hold little-endian arrays
                raise CheckpointError(f"checkpoint array {name!r} has dtype "
                                      f"{checkpoint[name].dtype}, expected {a.dtype}")
        for name, a in state.items():
            a[...] = checkpoint[name]
        bad = optimizer.first_nonfinite()
        if bad is not None:
            raise CheckpointError(f"checkpoint array {bad!r} is not finite")
    return exp


def _onehot(labels, num_classes):
    out = np.zeros((len(labels), num_classes), np.float32)
    out[np.arange(len(labels)), labels] = 1.0
    return out


def predict_classes(models: ModelSet, features: np.ndarray) -> np.ndarray:
    preds = np.empty(len(features), dtype=np.int64)
    with no_grad():
        for lo in range(0, len(features), EVAL_BATCH):
            chunk = Tensor(features[lo : lo + EVAL_BATCH])
            logits = models.classifier.logits(models.backbone(chunk))
            preds[lo : lo + EVAL_BATCH] = logits.data.argmax(axis=-1)
    return preds


def _accuracy(preds, labels):
    if len(labels) == 0:
        return 1.0
    return float(np.mean(preds == labels))


@dataclass
class MetricsRecord:
    epoch: int
    lr: float
    alpha: float
    loss_total: float
    loss_bootstrap: float
    loss_rec: float
    loss_cluster_R: float
    loss_cluster_KL: float
    loss_cluster_Hcx: float
    train_acc_noisy: float
    val_acc_clean: float
    corrupted_subset_acc: float
    seconds: float


METRICS_COLUMNS = [f.name for f in fields(MetricsRecord)]
# The total, A's, B's, then C's three parts in cluster_loss's order.
LOSS_COLUMNS = [c for c in METRICS_COLUMNS if c.startswith("loss_")]


def _train_pass(exp: Experiment, epoch: int, lr: float, alpha: float) -> dict:
    """Train on the epoch's shuffled batches; returns each loss column's
    mean over the samples. Backward frees each batch's graph, so one batch
    graph is alive at a time; the epoch's arrays are freed when it returns,
    before eval."""
    cfg = exp.cfg
    ds = exp.dataset
    shuffle_rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence((cfg["seeds.data"], 23, epoch))))
    order = exp.train_idx[shuffle_rng.permutation(len(exp.train_idx))]
    # the epoch's rows in batch order, gathered once; each batch is a slice
    x_epoch = ds.features[order]
    noisy_epoch = _onehot(ds.noisy_labels[order], ds.num_classes)

    batch_size = cfg["train.batch_size"]
    sums = dict.fromkeys(LOSS_COLUMNS, 0.0)
    seen = 0
    # Each view is built only when an enabled loss reads it. Augmentation is
    # stateless per (seed, epoch, index), so a skipped view changes no other
    # number.
    use_a, use_b, use_c = cfg["losses.A"], cfg["losses.B"], cfg["losses.C"]
    classify_clean = cfg["losses.classification_view"] == "clean"
    needs_aug = use_b or use_c or (use_a and not classify_clean)
    needs_clean = use_c or (use_a and classify_clean)
    # Rows are augmented independently: one call over the epoch's order gives
    # each batch the bytes of a call per batch, for one call's fixed cost.
    x_aug_epoch = augment_batch(exp.policy, x_epoch, cfg["seeds.augment"],
                                epoch, order) if needs_aug else None

    for lo in range(0, len(order), batch_size):
        hi = lo + batch_size
        x_clean_np = x_epoch[lo:hi]
        feat_aug = None
        if needs_aug:
            feat_aug = exp.models.backbone(Tensor(x_aug_epoch[lo:hi]))

        feat_clean = None
        if needs_clean:
            feat_clean = exp.models.backbone(Tensor(x_clean_np))

        # the enabled terms in A, B, C order, each under its metrics.csv
        # column; C's columns hold its three parts, so its sum goes under
        # their prefix
        terms, parts = {}, {}
        try:
            if use_a:
                feats = feat_clean if classify_clean else feat_aug
                log_pred = exp.models.classifier.log_probs(feats)
                terms["loss_bootstrap"] = bootstrap_loss(log_pred, noisy_epoch[lo:hi], alpha)
            if use_b:
                x_hat = exp.models.decoder(feat_aug)
                terms["loss_rec"] = reconstruction_loss(x_hat, x_clean_np)
            if use_c:
                clean_probs = exp.models.cluster_head(feat_clean)
                aug_probs = exp.models.cluster_head(feat_aug)
                terms["loss_cluster"], parts = cluster_loss(clean_probs, aug_probs, cfg["losses.lambda"],
                                                            cfg["losses.block_target_grad"])
        except LossInputError:
            # A step can leave the parameters non-finite, or finite but so
            # large that this batch's forward overflows; either way the
            # loss's row check sees NaN probabilities before the guard sees
            # a loss. Finite rows give NaN only through such a model.
            bad = exp.optimizer.first_nonfinite()
            if bad is not None:
                raise DivergenceError(f"{bad} is not finite in epoch {epoch}") from None
            if np.isfinite(x_clean_np).all():
                raise DivergenceError(f"the forward pass overflowed in epoch {epoch}, with parameters "
                                      f"up to {np.abs(exp.models.flat).max():.3g}") from None
            raise

        total = total_loss(terms)
        tensors = {"loss_total": total, **terms, **dict(zip(LOSS_COLUMNS[3:], parts.values()))}
        values = {col: tensors[col].item() for col in LOSS_COLUMNS if col in tensors}
        if not math.isfinite(values["loss_total"]) or values["loss_total"] > DIVERGENCE_LIMIT:
            raise DivergenceError(
                f"loss {values['loss_total']} at epoch {epoch} exceeds the divergence guard"
            )

        # the step clears the gradients it reads
        total.backward()
        exp.optimizer.step(lr)

        n = len(x_clean_np)
        seen += n
        for col, value in values.items():
            sums[col] += value * n

    return {col: s / seen for col, s in sums.items()}


def train_epoch(exp: Experiment, epoch: int) -> MetricsRecord:
    """One pass over shuffled train batches, then a full evaluation."""
    t0 = time.perf_counter()
    lr, alpha = lr_at(exp.cfg, epoch), alpha_at(exp.cfg, epoch)
    losses = _train_pass(exp, epoch, lr, alpha)

    # A step can overflow the parameters without a NaN gradient or a loss
    # over the guard; such an epoch must not reach eval or a checkpoint.
    bad = exp.optimizer.first_nonfinite()
    if bad is not None:
        raise DivergenceError(f"{bad} is not finite after epoch {epoch}")

    ds = exp.dataset
    # a row's prediction does not depend on the other rows of its batch
    preds = predict_classes(exp.models, ds.features)
    train_preds, val_preds = preds[exp.train_idx], preds[exp.val_idx]
    corrupted_mask = ds.corrupted[exp.train_idx]
    corrupted_preds = train_preds[corrupted_mask]
    corrupted_clean = ds.clean_labels[exp.train_idx][corrupted_mask]

    return MetricsRecord(
        epoch=epoch,
        lr=lr,
        alpha=alpha,
        **losses,
        train_acc_noisy=_accuracy(train_preds, ds.noisy_labels[exp.train_idx]),
        val_acc_clean=_accuracy(val_preds, ds.clean_labels[exp.val_idx]),
        corrupted_subset_acc=_accuracy(corrupted_preds, corrupted_clean),
        seconds=time.perf_counter() - t0,
    )


# ---------------------------------------------------------------------------
# Run directories
# ---------------------------------------------------------------------------

class _RunLock:
    """An exclusive ``flock`` on the run's ``.lock`` file. The file is never
    unlinked, so every process locks the same inode; it names the holder's
    PID while the lock is held and is empty otherwise. The kernel releases
    the lock when its holder exits, however it exits, so a lock cannot go
    stale: a PID that a crash left in ``.lock`` does not block a run, and
    the next holder overwrites it."""

    def __init__(self, run_dir: Path):
        self.path = run_dir / ".lock"
        self.fd = None

    def __enter__(self):
        fd = os.open(self.path, os.O_CREAT | os.O_WRONLY, 0o666)  # os.open's default mode is 0o777
        try:
            try:
                fcntl.flock(fd, fcntl.LOCK_EX | fcntl.LOCK_NB)
            except BlockingIOError:
                raise RunLockError(f"run directory is locked: {self.path}") from None
            # only a file left by a crash holds bytes; truncating an empty
            # one still costs ~0.1 ms on ext4
            if os.fstat(fd).st_size:
                os.ftruncate(fd, 0)
            os.write(fd, str(os.getpid()).encode())
        except BaseException:
            os.close(fd)
            raise
        self.fd = fd
        return self

    def __exit__(self, *exc):
        try:
            os.ftruncate(self.fd, 0)
        finally:
            os.close(self.fd)
        return False


def _ckpt_state(exp: Experiment) -> dict:
    arrays = {name: p.data for name, p in exp.models.parameters().items()}
    for name, v in exp.optimizer.velocities.items():
        arrays[f"velocity.{name}"] = v
    return arrays


def _write_metrics_header(path):
    with open(path, "w", newline="") as fh:
        fh.write(",".join(METRICS_COLUMNS) + "\n")


def _append_metrics(path, record: MetricsRecord):
    with open(path, "a", newline="") as fh:
        fh.write(",".join(repr(getattr(record, c)) for c in METRICS_COLUMNS) + "\n")


# Whether a field parses as a float does not depend on which digits it
# holds, so a resume checks the kept rows of metrics.csv by parsing each
# distinct field once with its digits set to 0: 14 parses instead of 780 for
# a 60-epoch desk run.
_ZERO_DIGITS = bytes.maketrans(b"123456789", b"000000000")


def _parses(field: bytes) -> bool:
    try:
        float(field)
    except ValueError:
        return False
    return True


def _trim_metrics(path, epochs: int) -> MetricsRecord | None:
    """Keep the header and the first ``epochs`` rows of metrics.csv; return
    the last kept row, or None when ``epochs`` is 0. Each kept row must hold
    ``len(METRICS_COLUMNS)`` fields: its epoch, counting from 0, then
    numbers, which in the last kept row must be finite. A row that does not
    raises CheckpointError and changes nothing.

    A crash after an epoch's row was appended but before its checkpoint was
    saved leaves extra rows; only then is the file cut.
    """
    with open(path, "rb") as fh:
        lines = fh.readlines()
    if len(lines) < epochs + 1:
        raise CheckpointError(f"{path}: {len(lines) - 1} rows for {epochs} finished epochs")
    kept = lines[1 : epochs + 1]
    for epoch, line in enumerate(kept):
        if line.split(b",", 1)[0] != b"%d" % epoch:
            raise CheckpointError(f"{path}: row {epoch + 1} is not epoch {epoch}")
        if line.count(b",") != len(METRICS_COLUMNS) - 1:
            raise CheckpointError(f"{path}: row {epoch + 1} has {line.count(b',') + 1} fields, "
                                  f"expected {len(METRICS_COLUMNS)}")
    # float() ignores the newline that ends each row
    if kept and not all(map(_parses, set(b",".join(kept).translate(_ZERO_DIGITS).split(b",")))):
        row = next(i for i, line in enumerate(kept, 1) if not all(map(_parses, line.split(b","))))
        raise CheckpointError(f"{path}: row {row} holds a field that is not a number")
    record = None
    if kept:
        # the summary is built from this row, and JSON has no inf or NaN
        _, *values = map(float, kept[-1].split(b","))
        if not all(map(math.isfinite, values)):
            raise CheckpointError(f"{path}: row {epochs} holds a number that is not finite")
        record = MetricsRecord(epochs - 1, *values)
    if len(lines) > epochs + 1:
        with open(path, "r+b") as fh:
            fh.truncate(sum(len(line) for line in lines[: epochs + 1]))
    return record


def run_experiment(cfg: dict, out_dir, stop_after: int | None = None, resume: bool = False) -> dict:
    """Execute all epochs of a config into a self-describing run directory.

    Layout: config.txt, dataset.bin, metrics.csv, checkpoints/{init,best,last},
    summary.json. With ``resume=True`` the directory must hold a previous
    run; training continues from the last checkpoint, or from the initial one
    if no epoch finished, after cutting metrics.csv back to the checkpoint's
    epoch. A resume builds its summary from the checkpoint's metadata and
    the last kept row of metrics.csv; a finished run loads no dataset and
    builds no experiment, and its summary.json is written only if missing or
    different. Without ``resume``, a directory that already holds a run
    (a config.txt) is refused with FileExistsError before any of its files
    is written. A resume of a directory without a config.txt raises
    FileNotFoundError and creates nothing. ``stop_after`` stops cleanly
    after that many additional epochs (used to exercise resume).
    """
    out_dir = Path(out_dir)
    if not resume:
        out_dir.mkdir(parents=True, exist_ok=True)
    elif not (out_dir / "config.txt").is_file():
        # checked before the lock, whose file would be the first thing a
        # resume creates
        raise FileNotFoundError(errno.ENOENT, "no run to resume", str(out_dir / "config.txt"))
    ckpt_dir = out_dir / "checkpoints"
    metrics_path = out_dir / "metrics.csv"

    with _RunLock(out_dir):
        if resume:
            cfg = config_mod.load(out_dir / "config.txt")
            last = ckpt_dir / "last.ckpt"
            arrays, meta = load_checkpoint(last if last.exists() else ckpt_dir / "init.ckpt")
            chash = config_mod.config_hash(cfg)
            if meta["config_hash"] != chash:
                raise CheckpointError("checkpoint was written by a different config")
            record = _trim_metrics(metrics_path, meta["epoch"])
            start_epoch = meta["epoch"]
            best_acc, best_epoch = meta["best_acc"], meta["best_epoch"]
            if start_epoch < cfg["train.epochs"]:
                exp = build_experiment(cfg, load_dataset(out_dir / "dataset.bin"), arrays)
            # unmaps the checkpoint, whose pages would count in RSS all run
            del arrays
        else:
            if (out_dir / "config.txt").exists():
                raise FileExistsError(f"{out_dir} already holds a run; continue it with "
                                      "--resume or train into a new directory")
            cfg = config_mod.validate(dict(cfg))
            exp = build_experiment(cfg)
            chash = config_mod.config_hash(cfg)
            ckpt_dir.mkdir(exist_ok=True)
            save_dataset(exp.dataset, out_dir / "dataset.bin")
            _write_metrics_header(metrics_path)
            save_checkpoint([ckpt_dir / "init.ckpt"], _ckpt_state(exp), chash, 0, -1.0, -1)
            # config.txt marks the directory as holding a run, so it comes
            # last: a crash before it leaves a directory a fresh train reuses
            with replacing(out_dir / "config.txt") as fh:
                fh.write(config_mod.dumps(cfg).encode())
            start_epoch = 0
            best_acc, best_epoch = -1.0, -1
            record = None

        total = cfg["train.epochs"]
        end_epoch = total if stop_after is None else min(total, start_epoch + stop_after)
        for epoch in range(start_epoch, end_epoch):
            record = train_epoch(exp, epoch)
            _append_metrics(metrics_path, record)
            # best.ckpt before last.ckpt: a crash between them redoes the
            # epoch, which writes best.ckpt again
            paths = [ckpt_dir / "last.ckpt"]
            if record.val_acc_clean > best_acc:
                best_acc, best_epoch = record.val_acc_clean, epoch
                paths.insert(0, ckpt_dir / "best.ckpt")
            save_checkpoint(paths, _ckpt_state(exp), chash, epoch + 1, best_acc, best_epoch)

        finished = end_epoch == total
        summary = {
            "config_hash": chash,
            "epochs_completed": end_epoch,
            "finished": finished,
            "best_acc": best_acc,
            "best_epoch": best_epoch,
            "last_acc": record.val_acc_clean if record is not None else None,
            "gap": (best_acc - record.val_acc_clean) if record is not None else None,
            "last_corrupted_subset_acc": record.corrupted_subset_acc if record is not None else None,
        }
        if finished:
            summary_path = out_dir / "summary.json"
            text = (json.dumps(summary, indent=2, sort_keys=True) + "\n").encode()
            if not (summary_path.is_file() and summary_path.read_bytes() == text):
                with replacing(summary_path) as fh:
                    fh.write(text)
        return summary


def ablation_row_config(base_cfg: dict, row: str) -> dict:
    """Derive one grid row from the base config.

    Rows without the bootstrap component still train the classifier with a
    plain cross-entropy, expressed as the bootstrap loss pinned to alpha=1.
    """
    rows = {name: (a, b, c) for name, a, b, c in ABLATION_ROWS}
    if row not in rows:
        raise ValueError(f"unknown ablation row: {row!r}")
    use_a, use_b, use_c = rows[row]
    cfg = dict(base_cfg)
    cfg["losses.A"] = True
    cfg["losses.B"] = use_b
    cfg["losses.C"] = use_c
    if not use_a:
        cfg["alpha.kind"] = "constant"
        cfg["alpha.constant"] = 1.0
    return config_mod.validate(cfg)


_ABLATION_STATS = ("best_acc", "best_epoch", "last_acc", "gap")


def run_ablation(base_cfg: dict, out_dir) -> list:
    """Run the 7-row component grid with shared seeds.

    Returns a list of row result dicts; a failing row is reported and does
    not affect the others. Writes ``ablation.csv`` next to the row run
    directories.
    """
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    base_cfg = config_mod.validate(dict(base_cfg))
    seeds = (base_cfg["seeds.init"], base_cfg["seeds.data"], base_cfg["seeds.augment"])
    results = []
    for name, *_ in ABLATION_ROWS:
        row_cfg, row_dir = ablation_row_config(base_cfg, name), out_dir / name.replace("+", "")
        try:
            summary, status = run_experiment(row_cfg, row_dir), "ok"
        except (DivergenceError, RunLockError, CheckpointError) as exc:
            summary, status = {}, f"failed: {exc}"
        results.append({"row": name, "status": status, **{key: summary.get(key) for key in _ABLATION_STATS},
                        "seeds": seeds})
    with replacing(out_dir / "ablation.csv") as fh:
        fh.write(b"row,status,best_acc,best_epoch,last_acc,gap,seed_init,seed_data,seed_augment\n")
        for r in results:
            stats = ("" if r[key] is None else repr(r[key]) for key in _ABLATION_STATS)
            fh.write((",".join([r["row"], r["status"].split(":")[0], *stats, *map(str, seeds)]) + "\n").encode())
    return results


def format_ablation_table(results: list) -> str:
    lines = [f"{'row':8s} {'status':8s} {'best':>8s} {'last':>8s} {'gap':>8s}"]
    for r in results:
        best = "-" if r["best_acc"] is None else f"{r['best_acc']:.4f}"
        last = "-" if r["last_acc"] is None else f"{r['last_acc']:.4f}"
        gap = "-" if r["gap"] is None else f"{r['gap']:.4f}"
        lines.append(f"{r['row']:8s} {r['status'].split(':')[0]:8s} {best:>8s} {last:>8s} {gap:>8s}")
    return "\n".join(lines)
