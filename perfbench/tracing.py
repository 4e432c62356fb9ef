"""Span tracing for the traced run.

The tracer wraps the public entry points of each noisylab layer from the
benchmark's side (nothing under ``src/`` changes) and keeps one span per
call in memory: name, start, end and the index of the enclosing span. It
records only while a workload operation runs, and writes the spans out when
the run ends. Per-layer metrics are self times (a span's duration minus the
part its traced child spans cover) and call counts.
"""

import functools
import json
import time
from collections import defaultdict
from pathlib import Path

import numpy as np

from noisylab import autodiff, cli, config, export, models, training

EPOCH_LAYERS = ("augment.batch", "autodiff.matmul", "autodiff.conv2d",
                "autodiff.conv_transpose2d", "autodiff.max_pool2d", "autodiff.backward",
                "models.backbone_fwd", "models.decoder_fwd", "models.heads_fwd",
                "losses.bootstrap", "losses.reconstruction", "losses.cluster",
                "training.optimizer_step", "training.eval", "training.ckpt_save")
CALL_LAYERS = ("training.ckpt_load", "training.build_experiment",
               "data.generate", "data.noise", "data.dataset_save", "data.dataset_load",
               "data.labels_csv", "config.load", "config.validate", "config.hash",
               "export.embeddings", "export.gallery")
LOSSES = ("losses.bootstrap", "losses.reconstruction", "losses.cluster", "losses.combine")
OPS = ("matmul", "conv2d", "conv_transpose2d", "max_pool2d", "backward")
COMMANDS = ("generate", "corrupt", "train", "export")


def _entry_points():
    """(owner, attribute, span name) for every traced call site. Functions
    imported by name into another module are wrapped where they are called."""
    t, m, a, e, c = training, models, autodiff, export, cli
    return [
        (t, "augment_batch", "augment.batch"),
        (a.Tensor, "matmul", "autodiff.matmul"),
        (a.Tensor, "__matmul__", "autodiff.matmul"),
        (m, "conv2d", "autodiff.conv2d"),
        (m, "conv_transpose2d", "autodiff.conv_transpose2d"),
        (m, "max_pool2d", "autodiff.max_pool2d"),
        (m.MlpBackbone, "__call__", "models.backbone_fwd"),
        (m.ConvBackbone, "__call__", "models.backbone_fwd"),
        (m.MlpDecoder, "__call__", "models.decoder_fwd"),
        (m.ConvDecoder, "__call__", "models.decoder_fwd"),
        (m.SoftmaxHead, "__call__", "models.heads_fwd"),
        (m.SoftmaxHead, "log_probs", "models.heads_fwd"),
        (m.SoftmaxHead, "logits", "models.heads_fwd"),
        (t, "bootstrap_loss", "losses.bootstrap"),
        (t, "reconstruction_loss", "losses.reconstruction"),
        (t, "cluster_loss", "losses.cluster"),
        (t, "total_loss", "losses.combine"),
        (t.SgdOptimizer, "step", "training.optimizer_step"),
        (t, "predict_classes", "training.eval"),
        (t, "save_checkpoint", "training.ckpt_save"),
        (t, "load_checkpoint", "training.ckpt_load"),
        (e, "load_checkpoint", "training.ckpt_load"),
        (t, "train_epoch", "training.epoch"),
        (t, "build_experiment", "training.build_experiment"),
        (e, "build_experiment", "training.build_experiment"),
        (t, "generate_blobs", "data.generate"),
        (c, "generate_blobs", "data.generate"),
        (t, "inject_noise", "data.noise"),
        (c, "inject_noise", "data.noise"),
        (t, "save_dataset", "data.dataset_save"),
        (c, "save_dataset", "data.dataset_save"),
        (t, "load_dataset", "data.dataset_load"),
        (e, "load_dataset", "data.dataset_load"),
        (c, "load_dataset", "data.dataset_load"),
        (c, "export_labels_csv", "data.labels_csv"),
        (config, "load", "config.load"),
        (config, "validate", "config.validate"),
        (config, "config_hash", "config.hash"),
        (c, "export_embeddings_csv", "export.embeddings"),
        (c, "export_gallery", "export.gallery"),
    ] + [(c, f"cmd_{name}", f"cli.{name}") for name in COMMANDS]


def _reaches(loss, array):
    """Whether the loss graph reads ``array``: some input leaf of the graph
    (no parents, no gradient) views its memory."""
    stack, seen = [loss], set()
    while stack:
        node = stack.pop()
        if id(node) in seen:
            continue
        seen.add(id(node))
        if not node._parents and not node.requires_grad and np.may_share_memory(node.data, array):
            return True
        stack.extend(node._parents)
    return False


class Tracer:
    def __init__(self):
        self.spans = []  # [name, start, end, parent index or -1]
        self.active = False
        self.augmented = 0
        self.useful = 0
        self.export_rows = 0
        self._stack = []
        self._saved = []
        self._pending = None  # the last augmented batch, until its backward

    def install(self):
        for owner, attr, name in _entry_points():
            original = getattr(owner, attr)
            self._saved.append((owner, attr, original))
            setattr(owner, attr, self._wrap(name, original))
        backward = autodiff.Tensor.backward
        self._saved.append((autodiff.Tensor, "backward", backward))
        autodiff.Tensor.backward = self._backward(backward)

    def uninstall(self):
        for owner, attr, original in reversed(self._saved):
            setattr(owner, attr, original)
        self._saved = []

    def _wrap(self, name, fn):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            span = [name, 0.0, 0.0, tracer._stack[-1] if tracer._stack else -1]
            tracer._stack.append(len(tracer.spans))
            tracer.spans.append(span)
            span[1] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                tracer._stack.pop()
            if name == "augment.batch":
                tracer._pending = result
                tracer.augmented += len(result)
            elif name == "export.embeddings":
                tracer.export_rows += result
            return result

        return traced

    def _backward(self, fn):
        traced = self._wrap("autodiff.backward", fn)
        tracer = self

        @functools.wraps(fn)
        def backward(loss):
            # The graph walk runs outside the backward span: it is tracing cost.
            if tracer.active and tracer._pending is not None:
                if _reaches(loss, tracer._pending):
                    tracer.useful += len(tracer._pending)
                tracer._pending = None
            return traced(loss)

        return backward

    def layer_metrics(self, ckpt_bytes, traced_s, untraced_s) -> dict:
        """Per-layer metrics with units. In-epoch layers are per epoch
        trained, the rest per call; ``training.epoch_ms`` and ``cli.*`` are
        whole (inclusive) durations, every other time is self time."""
        spans = self.spans
        child = [0.0] * len(spans)
        for name, start, end, parent in spans:
            if parent >= 0:
                child[parent] += end - start
        self_s = defaultdict(float)
        whole_s = defaultdict(float)
        calls = defaultdict(int)
        context = [None] * len(spans)
        forwards = backbones = 0
        for i, (name, start, end, parent) in enumerate(spans):
            parent_name = spans[parent][0] if parent >= 0 else None
            self_s[name] += end - start - child[i]
            context[i] = name if name in ("training.epoch", "training.eval") else (
                context[parent] if parent >= 0 else None)
            if parent_name == name:
                continue
            calls[name] += 1
            whole_s[name] += end - start
            if name.startswith("models.") and context[i] == "training.epoch":
                forwards += 1
                backbones += name == "models.backbone_fwd"

        epochs = calls["training.epoch"]
        batches = calls["augment.batch"]
        out = {}
        for name in EPOCH_LAYERS:
            out[f"{name}_ms"] = (1e3 * self_s[name] / epochs, "ms")
        out["losses.total_ms"] = (1e3 * sum(self_s[n] for n in LOSSES) / epochs, "ms")
        out["training.epoch_ms"] = (1e3 * whole_s["training.epoch"] / epochs, "ms")
        for name in CALL_LAYERS:
            out[f"{name}_ms"] = (1e3 * self_s[name] / calls[name] if calls[name] else 0.0, "ms")
        for name in COMMANDS:
            n = calls[f"cli.{name}"]
            out[f"cli.{name}_ms"] = (1e3 * whole_s[f"cli.{name}"] / n if n else 0.0, "ms")
        for op in OPS:
            out[f"autodiff.{op}_calls"] = (calls[f"autodiff.{op}"] / epochs, "count")
        out["augment.samples"] = (self.augmented / epochs, "count")
        out["augment.useful_ratio"] = (self.useful / self.augmented, "ratio")
        out["models.fwd_calls_per_batch"] = (forwards / batches, "count")
        out["models.backbone_calls_per_batch"] = (backbones / batches, "count")
        out["training.ckpt_bytes"] = (ckpt_bytes, "bytes")
        n_exports = calls["export.embeddings"]
        out["export.rows"] = (self.export_rows / n_exports, "count")
        out["trace.spans"] = (len(spans), "count")
        out["trace.overhead_s"] = (traced_s - untraced_s, "s")
        out["trace.overhead_pct"] = (100.0 * (traced_s - untraced_s) / untraced_s, "%")
        return dict(sorted(out.items()))

    def write(self, path, workload, seed):
        names = sorted({s[0] for s in self.spans})
        index = {n: i for i, n in enumerate(names)}
        path = Path(path)
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w") as fh:
            json.dump({"workload": workload, "seed": seed, "names": names,
                       "spans": [[index[n], s, e, p] for n, s, e, p in self.spans]}, fh)
