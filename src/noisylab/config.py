"""Experiment configuration: flat-namespaced key=value files with a typed
schema, fail-closed validation, and stable hashing.

Files look like::

    schema_version = 1
    data.kind = images
    noise.epsilon = 0.6
    losses.A = true

Unknown keys are rejected; all defaults are materialized when a config is
persisted so every run directory is self-describing. The hash is a sha256
over the canonical serialization of the fully materialized config.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass

from .augment import ALL_OPS, SEED_BOUND, SPATIAL_OPS

SCHEMA_VERSION = 1


class ConfigError(ValueError):
    """One or more configuration violations; message lists all of them."""


def _report(errors):
    """Raise one ConfigError listing every violation, if there is any."""
    if errors:
        raise ConfigError("configuration invalid:\n  " + "\n  ".join(errors))


def _parse_bool(text):
    t = text.strip().lower()
    if t in ("true", "1", "yes", "on"):
        return True
    if t in ("false", "0", "no", "off"):
        return False
    raise ValueError(f"not a boolean: {text!r}")


def _parse_float_list(text):
    return [float(p) for p in text.split(",") if p.strip()]


def _parse_str_list(text):
    return [p.strip() for p in text.split(",") if p.strip()]


def _fmt(value):
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, list):
        return ",".join(_fmt(v) for v in value)
    if isinstance(value, float):
        return repr(value)
    return str(value)


@dataclass(frozen=True)
class Field:
    parse: callable
    default: object
    choices: tuple = ()
    check: callable = None
    help: str = ""


def _choice_field(default, choices, help=""):
    return Field(parse=str, default=default, choices=tuple(choices), help=help)


def _seed_field(default):
    return Field(parse=int, default=default, check=lambda v: 0 <= v < SEED_BOUND, help="seeds are in [0, 2**32)")


SCHEMA = {
    "schema_version": Field(parse=int, default=SCHEMA_VERSION),
    # dataset
    "data.kind": _choice_field("images", ("blobs", "images")),
    "data.samples": Field(parse=int, default=2000, check=lambda v: v >= 2),
    "data.classes": Field(parse=int, default=4, check=lambda v: v >= 2),
    "data.dims": Field(parse=int, default=2, check=lambda v: v >= 1),
    "data.image_size": Field(parse=int, default=12, check=lambda v: v >= 4),
    "data.separation": Field(parse=float, default=4.0, check=lambda v: v >= 0),
    "data.val_fraction": Field(parse=float, default=0.25, check=lambda v: 0 < v < 1),
    # noise
    "noise.kind": _choice_field("symmetric", ("none", "symmetric", "asymmetric")),
    "noise.epsilon": Field(parse=float, default=0.6, check=lambda v: 0 <= v <= 1),
    "noise.wrap_last_class": Field(parse=_parse_bool, default=True),
    # models
    "model.backbone": _choice_field("mlp", ("mlp", "conv")),
    "model.hidden": Field(parse=int, default=128, check=lambda v: v >= 1),
    "model.feature_dim": Field(parse=int, default=32, check=lambda v: v >= 1),
    "model.clusters": Field(parse=int, default=0, check=lambda v: v >= 0,
                            help="0 means: use the class count"),
    # losses
    "losses.A": Field(parse=_parse_bool, default=True),
    "losses.B": Field(parse=_parse_bool, default=True),
    "losses.C": Field(parse=_parse_bool, default=True),
    "losses.lambda": Field(parse=float, default=1.0, check=lambda v: v >= 0),
    "losses.block_target_grad": Field(parse=_parse_bool, default=True),
    "losses.classification_view": _choice_field("augmented", ("augmented", "clean")),
    # alpha schedule
    "alpha.kind": _choice_field("linear", ("linear", "cosine", "step", "constant")),
    "alpha.start_frac": Field(parse=float, default=0.1, check=lambda v: 0 <= v <= 1),
    "alpha.end_frac": Field(parse=float, default=0.9, check=lambda v: 0 <= v <= 1),
    "alpha.constant": Field(parse=float, default=1.0, check=lambda v: 0 <= v <= 1),
    # optimizer
    "optim.lr": Field(parse=float, default=0.1, check=lambda v: v >= 0),
    "optim.momentum": Field(parse=float, default=0.9, check=lambda v: 0 <= v < 1),
    "optim.weight_decay": Field(parse=float, default=1e-4, check=lambda v: v >= 0),
    "optim.milestones": Field(parse=_parse_float_list, default=[0.5, 0.75]),
    "optim.step_ratio": Field(parse=float, default=0.1, check=lambda v: 0 < v <= 1),
    # training loop
    "train.epochs": Field(parse=int, default=60, check=lambda v: v >= 1),
    "train.batch_size": Field(parse=int, default=64, check=lambda v: v >= 1),
    # augmentation policy
    "augment.ops": Field(parse=_parse_str_list, default=list(ALL_OPS)),
    "augment.num_ops": Field(parse=int, default=2, check=lambda v: v >= 1),
    "augment.magnitude": Field(parse=float, default=0.5, check=lambda v: 0 <= v <= 1),
    # seeds
    "seeds.init": _seed_field(1),
    "seeds.data": _seed_field(2),
    "seeds.augment": _seed_field(3),
}

def default_config() -> dict:
    return {key: (list(f.default) if isinstance(f.default, list) else f.default)
            for key, f in SCHEMA.items()}


def _semantic_errors(cfg: dict) -> list:
    errors = []
    if cfg["schema_version"] != SCHEMA_VERSION:
        errors.append(
            f"schema_version: got {cfg['schema_version']}, this build reads {SCHEMA_VERSION}"
        )
    if not (cfg["losses.A"] or cfg["losses.B"] or cfg["losses.C"]):
        errors.append("losses: at least one of losses.A/B/C must be enabled")
    if cfg["alpha.kind"] != "constant" and cfg["alpha.start_frac"] >= cfg["alpha.end_frac"]:
        errors.append("alpha: start_frac must be below end_frac")
    ms = cfg["optim.milestones"]
    if any(not 0 < m < 1 for m in ms) or sorted(ms) != ms:
        errors.append("optim.milestones: must be sorted fractions in (0, 1)")
    if not cfg["augment.ops"]:
        errors.append("augment.ops: must name at least one op")
    for op in cfg["augment.ops"]:
        if op not in ALL_OPS:
            errors.append(f"augment.ops: unknown op {op!r}")
    if cfg["data.kind"] == "blobs":
        spatial = set(SPATIAL_OPS) & set(cfg["augment.ops"])
        if spatial:
            errors.append(
                f"augment.ops: {sorted(spatial)} need image-shaped data (data.kind=images)"
            )
    if cfg["model.backbone"] == "conv" and cfg["data.kind"] != "images":
        errors.append("model.backbone=conv requires data.kind=images")
    elif cfg["model.backbone"] == "conv" and cfg["data.image_size"] % 4:
        errors.append("model.backbone=conv requires data.image_size divisible by 4")
    return errors


def validate(cfg: dict) -> dict:
    """Validate a fully-typed config dict; raises ConfigError listing every
    violation. Returns the dict unchanged on success."""
    errors = []
    for key in cfg:
        if key not in SCHEMA:
            errors.append(f"unknown key: {key}")
    for key, f in SCHEMA.items():
        if key not in cfg:
            errors.append(f"missing key: {key}")
            continue
        value = cfg[key]
        if f.choices and value not in f.choices:
            errors.append(f"{key}: {value!r} not one of {list(f.choices)}")
        elif f.parse is float and not math.isfinite(value):
            errors.append(f"{key}: invalid value {value!r} (must be finite)")
        elif f.check is not None and not f.check(value):
            errors.append(f"{key}: invalid value {value!r}" + (f" ({f.help})" if f.help else ""))
    _report(errors or _semantic_errors(cfg))
    return cfg


def parse_entries(entries) -> dict:
    """Apply raw ``key = value`` string pairs on top of defaults.

    Every value is parsed with its schema type; all violations (unknown keys,
    type errors) are collected before raising.
    """
    cfg = default_config()
    errors = []
    for key, raw in entries:
        if key not in SCHEMA:
            errors.append(f"unknown key: {key}")
            continue
        try:
            cfg[key] = SCHEMA[key].parse(raw)
        except (ValueError, TypeError) as exc:
            errors.append(f"{key}: cannot parse {raw!r} ({exc})")
    _report(errors)
    return validate(cfg)


def _split(numbered, name: str) -> list:
    """Stripped (key, value) pairs of numbered ``key = value`` texts, the
    one splitter of config files and overrides; a text with no '=', or a
    key that an earlier text set, is reported as ``name`` and its number."""
    entries, errors, first = [], [], {}
    for number, text in numbered:
        key, eq, value = (part.strip() for part in text.partition("="))
        if not eq:
            errors.append(f"{name} {number}: expected key=value, got {text!r}")
        elif key in first:
            errors.append(f"{name} {number}: {key} is already set by {name} {first[key]}")
        else:
            first[key] = number
            entries.append((key, value))
    _report(errors)
    return entries


def loads(text: str, overrides=()) -> dict:
    """Parse config text, blank lines and '#' comments skipped, then apply
    the (key, raw-value) ``overrides`` on top."""
    lines = enumerate((line.strip() for line in text.splitlines()), 1)
    entries = _split([(n, t) for n, t in lines if t and not t.startswith("#")], "line")
    return parse_entries(entries + list(overrides))


def load(path, overrides=()) -> dict:
    try:
        with open(path, encoding="utf-8") as fh:
            text = fh.read()
    except UnicodeDecodeError as exc:
        raise ConfigError(f"{path}: not UTF-8 text ({exc.reason})") from None
    return loads(text, overrides)


def dumps(cfg: dict) -> str:
    """Canonical serialization: schema order, all keys materialized."""
    lines = [f"{key} = {_fmt(cfg[key])}" for key in SCHEMA]
    return "\n".join(lines) + "\n"


def dump(cfg: dict, path) -> None:
    with open(path, "w") as fh:
        fh.write(dumps(cfg))


def config_hash(cfg: dict) -> str:
    return hashlib.sha256(dumps(cfg).encode()).hexdigest()


def parse_overrides(pairs) -> list:
    """Turn CLI ``key=value`` strings into (key, raw-value) entries."""
    return _split(enumerate(pairs, 1), "--override")
