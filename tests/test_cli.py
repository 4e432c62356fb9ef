import errno
import io
import os
import select
import shutil
import struct
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import noisylab
from noisylab import config as config_mod
from noisylab import data as data_mod
from noisylab.cli import EXIT_DIVERGENCE, EXIT_OK, EXIT_RUNTIME, EXIT_VALIDATION, _load_config, build_parser, main
from noisylab.data import load_dataset
from noisylab.export import compute_embeddings, export_embeddings_csv, export_gallery, load_run_models
from noisylab.training import ABLATION_ROWS, load_checkpoint, run_experiment, save_checkpoint


TINY = [
    "--override", "data.samples=64",
    "--override", "data.image_size=8",
    "--override", "data.separation=2.0",
    "--override", "model.hidden=16",
    "--override", "model.feature_dim=8",
    "--override", "train.epochs=2",
    "--override", "train.batch_size=32",
]


def _tiny(*pairs):
    """TINY with ``key=value`` overrides that replace its own for the same
    key, since an override may set each key once."""
    keys = {pair.split("=")[0] for pair in pairs}
    kept = [pair for pair in TINY[1::2] if pair.split("=")[0] not in keys]
    return [arg for pair in kept + list(pairs) for arg in ("--override", pair)]


def test_generate_writes_dataset(tmp_path, capsys):
    out = tmp_path / "ds.bin"
    code = main(["generate", "--samples", "50", "--classes", "3",
                 "--image", "8x8", "--separation", "2.0", "--out", str(out)])
    assert code == EXIT_OK
    ds = load_dataset(out)
    assert len(ds) == 50 and ds.num_classes == 3 and ds.input_shape == (8, 8)
    assert (tmp_path / "ds.bin.labels.csv").exists()
    assert "50 samples" in capsys.readouterr().out


def test_generate_flat(tmp_path):
    out = tmp_path / "ds.bin"
    assert main(["generate", "--samples", "20", "--dims", "3", "--out", str(out)]) == EXIT_OK
    assert load_dataset(out).input_shape == (3,)


def test_generate_defaults_follow_config_schema():
    args = build_parser().parse_args(["generate", "--out", "ds.bin"])
    assert (args.samples, args.classes, args.dims, args.separation) == tuple(
        config_mod.SCHEMA[key].default for key in ("data.samples", "data.classes", "data.dims", "data.separation"))


def test_corrupt_writes_noise_and_matrix(tmp_path, capsys):
    src = tmp_path / "clean.bin"
    main(["generate", "--samples", "200", "--classes", "4", "--out", str(src)])
    dst = tmp_path / "noisy.bin"
    code = main(["corrupt", "--input", str(src), "--kind", "symmetric",
                 "--eps", "0.5", "--out", str(dst)])
    assert code == EXIT_OK
    ds = load_dataset(dst)
    assert ds.corrupted.any()
    matrix = np.loadtxt(str(dst) + ".transition.csv", delimiter=",")
    np.testing.assert_allclose(matrix.sum(axis=1), 1.0, atol=1e-6)
    assert "transition matrix" in capsys.readouterr().out


@pytest.mark.parametrize("damage", ["float labels", "num_classes as text"])
def test_corrupt_rejects_mistyped_dataset(tmp_path, capsys, damage):
    src = tmp_path / "clean.bin"
    main(["generate", "--samples", "40", "--classes", "4", "--out", str(src)])
    arrays, meta = data_mod.read_arrays(src)
    if damage == "float labels":
        # casting would truncate these back to the clean labels
        arrays = {**arrays, "noisy_labels": arrays["noisy_labels"] + 0.7}
    else:
        meta = {**meta, "num_classes": "4"}
    data_mod.write_arrays([src], arrays, meta)
    code = main(["corrupt", "--input", str(src), "--kind", "symmetric",
                 "--eps", "0.5", "--out", str(tmp_path / "o.bin")])
    assert code == EXIT_RUNTIME
    assert capsys.readouterr().err.startswith("error:")
    assert not (tmp_path / "o.bin").exists()


def test_corrupt_missing_file(tmp_path, capsys):
    code = main(["corrupt", "--input", str(tmp_path / "nope.bin"),
                 "--kind", "symmetric", "--eps", "0.5", "--out", str(tmp_path / "o.bin")])
    assert code == EXIT_RUNTIME


@pytest.fixture(scope="module")
def trained_run(tmp_path_factory):
    run = tmp_path_factory.mktemp("trained") / "run"
    assert main(["train", "--out-dir", str(run)] + TINY) == EXIT_OK
    return run


def test_train_and_export(tmp_path, capsys):
    run = tmp_path / "run"
    assert main(["train", "--out-dir", str(run)] + TINY) == EXIT_OK
    assert (run / "summary.json").exists()
    assert "best_acc=" in capsys.readouterr().out
    assert main(["export", "--run", str(run), "--samples", "4"]) == EXIT_OK
    assert (run / "gallery.pgm").exists()
    assert (run / "gallery.pgm").read_bytes().startswith(b"P5\n")
    # the CSV text holds every float32 feature exactly
    exp, _ = load_run_models(run, "best")
    emb, cluster = compute_embeddings(exp.models, exp.dataset.features)
    table = np.loadtxt(run / "embeddings.csv", delimiter=",", skiprows=1)
    dim = emb.shape[1]
    assert table[:, 1 : dim + 1].astype(np.float32).tobytes() == emb.tobytes()
    np.testing.assert_array_equal(table[:, 0], np.arange(len(emb)))
    np.testing.assert_array_equal(table[:, dim + 3], cluster)


def test_train_resume(tmp_path, capsys):
    run = tmp_path / "run"
    assert main(["train", "--out-dir", str(run)] + TINY) == EXIT_OK
    files = ("summary.json", "metrics.csv", "checkpoints/last.ckpt", "checkpoints/best.ckpt")
    before = {name: (run / name).read_bytes() for name in files}
    capsys.readouterr()
    # a finished run resumes to a no-op: it reports its summary and writes nothing
    assert main(["train", "--out-dir", str(run), "--resume"]) == EXIT_OK
    assert {name: (run / name).read_bytes() for name in files} == before
    assert "best_acc=" in capsys.readouterr().out


@pytest.mark.parametrize("damage", [b"{bad", b"[]"], ids=["torn", "list"])
def test_resume_repairs_damaged_summary(tmp_path, capsys, damage):
    run = tmp_path / "run"
    assert main(["train", "--out-dir", str(run)] + TINY) == EXIT_OK
    written, printed = (run / "summary.json").read_bytes(), capsys.readouterr().out
    (run / "summary.json").write_bytes(damage)
    assert main(["train", "--out-dir", str(run), "--resume"]) == EXIT_OK
    assert (run / "summary.json").read_bytes() == written
    assert capsys.readouterr().out == printed


def test_config_not_utf8_rejected(tmp_path, capsys):
    bad = tmp_path / "bad.cfg"
    bad.write_bytes(b"\xff\xfe\x00")
    assert main(["train", "--config", str(bad), "--out-dir", str(tmp_path / "r")]) == EXIT_VALIDATION
    assert "not UTF-8" in capsys.readouterr().err
    assert not (tmp_path / "r").exists()
    # a run's config.txt is read the same way on resume and export
    run = tmp_path / "run"
    assert main(["train", "--out-dir", str(run)] + TINY) == EXIT_OK
    (run / "config.txt").write_bytes(b"seeds.init = 1\n# \xe9\n")
    capsys.readouterr()
    assert main(["train", "--out-dir", str(run), "--resume"]) == EXIT_VALIDATION
    assert main(["export", "--run", str(run)]) == EXIT_VALIDATION
    assert capsys.readouterr().err.count("not UTF-8") == 2


@pytest.mark.parametrize("existing", [False, True], ids=["missing", "empty"])
def test_resume_without_run_creates_nothing(tmp_path, capsys, existing):
    out = tmp_path / "nx" / "deep"
    if existing:
        out.mkdir(parents=True)
    assert main(["train", "--out-dir", str(out), "--resume"]) == EXIT_RUNTIME
    err = capsys.readouterr().err
    assert "error:" in err and str(out / "config.txt") in err
    assert [p.relative_to(tmp_path) for p in tmp_path.rglob("*")] == (
        [Path("nx"), Path("nx/deep")] if existing else [])


def _run_files(run):
    return {p.relative_to(run): p.read_bytes() for p in sorted(run.rglob("*")) if p.is_file()}


@pytest.mark.parametrize("command", ["train", "ablate"])
def test_fresh_run_into_existing_run_refused(tmp_path, capsys, command):
    out = tmp_path / "out"
    assert main([command, "--out-dir", str(out)] + _tiny("train.epochs=1")) == EXIT_OK
    before = _run_files(out)
    capsys.readouterr()
    # a second fresh run with another schedule must not replace the first
    assert main([command, "--out-dir", str(out)] + TINY) == EXIT_RUNTIME
    err = capsys.readouterr().err
    assert "error:" in err and "--resume" in err
    assert _run_files(out) == before


@pytest.mark.parametrize("extra", [["--config", "run.cfg"], ["--override", "train.epochs=100"],
                                   ["--seed", "5"]], ids=["config", "override", "seed"])
def test_resume_rejects_config_options(trained_run, capsys, extra):
    before = _run_files(trained_run)
    with pytest.raises(SystemExit) as exc:
        main(["train", "--out-dir", str(trained_run), "--resume"] + extra)
    assert exc.value.code == 2
    assert extra[0] in capsys.readouterr().err
    assert _run_files(trained_run) == before


# metadata rewrites of a finished 2-epoch run, and the key named in the error
META_DAMAGE = {
    "epoch as text": ({"epoch": "2"}, "epoch"),
    "negative epoch": ({"epoch": -1}, "epoch"),
    "bool epoch": ({"epoch": True}, "epoch"),
    "best_epoch below -1": ({"best_epoch": -2}, "best_epoch"),
    "best_acc as text": ({"best_acc": "0.5"}, "best_acc"),
    "best_acc nan": ({"best_acc": float("nan")}, "best_acc"),
    "config_hash not text": ({"config_hash": 7}, "config_hash"),
    "best after the last epoch": ({"best_epoch": 7, "best_acc": 3.5}, "best_epoch"),
    "no best after epoch 2": ({"best_epoch": -1}, "best_epoch"),
}


@pytest.mark.parametrize("damage", ["halved", "trailing bytes", *META_DAMAGE])
def test_resume_rejects_damaged_checkpoint(tmp_path, capsys, damage):
    run = tmp_path / "run"
    assert main(["train", "--out-dir", str(run)] + TINY) == EXIT_OK
    ckpt = run / "checkpoints" / "last.ckpt"
    blob = ckpt.read_bytes()
    if damage in META_DAMAGE:
        arrays, meta = data_mod.read_arrays(ckpt)
        changes, key = META_DAMAGE[damage]
        data_mod.write_arrays([ckpt], arrays, {**meta, **changes})
        expected = f"invalid {key}"
    else:
        ckpt.write_bytes(blob[: len(blob) // 2] if damage == "halved" else blob + bytes(400))
        expected = "error:"
    assert main(["train", "--out-dir", str(run), "--resume"]) == EXIT_RUNTIME
    assert expected in capsys.readouterr().err


@pytest.fixture(scope="module")
def stopped_run(tmp_path_factory):
    """A run stopped after the first of its two epochs."""
    run = tmp_path_factory.mktemp("stopped") / "run"
    run_experiment(config_mod.parse_entries(config_mod.parse_overrides(TINY[1::2])), run, stop_after=1)
    return run


# holds the run lock of the directory argv[1] until killed
HOLD_LOCK = """
import sys, time
from pathlib import Path
from noisylab.training import _RunLock
with _RunLock(Path(sys.argv[1])):
    print("holding", flush=True)
    time.sleep(600)
"""


def test_lock_held_by_another_process(stopped_run, tmp_path, capsys):
    run = tmp_path / "run"
    shutil.copytree(stopped_run, run)
    env = {**os.environ, "PYTHONPATH": str(Path(noisylab.__file__).parents[1])}
    child = subprocess.Popen([sys.executable, "-c", HOLD_LOCK, str(run)], env=env,
                             stdout=subprocess.PIPE, text=True)
    try:
        # readline would wait forever on a child that hangs before it prints
        assert select.select([child.stdout], [], [], 60)[0] and child.stdout.readline() == "holding\n"
        assert main(["train", "--out-dir", str(run), "--resume"]) == EXIT_RUNTIME
        assert "locked" in capsys.readouterr().err
        assert (run / ".lock").read_text() == str(child.pid)
    finally:
        child.kill()
        child.wait(timeout=60)
        child.stdout.close()
    # the kernel released the killed holder's lock; its PID is overwritten
    assert main(["train", "--out-dir", str(run), "--resume"]) == EXIT_OK
    assert (run / ".lock").read_bytes() == b""


@pytest.mark.parametrize("name,shape", [
    ("velocity.backbone.w1", (3,)),
    ("backbone.b1", (3,)),
    ("velocity.backbone.b1", (1,)),  # would broadcast into the velocity
])
def test_checkpoint_shape_mismatch_rejected(stopped_run, tmp_path, capsys, name, shape):
    run = tmp_path / "run"
    shutil.copytree(stopped_run, run)
    ckpt = run / "checkpoints" / "last.ckpt"
    arrays, meta = load_checkpoint(ckpt)
    assert arrays[name].shape != shape
    arrays[name] = np.zeros(shape, np.float32)
    save_checkpoint([ckpt], arrays, **meta)
    assert main(["train", "--out-dir", str(run), "--resume"]) == EXIT_RUNTIME
    assert name.removeprefix("velocity.") in capsys.readouterr().err
    assert main(["export", "--run", str(run), "--checkpoint", "last",
                 "--out-dir", str(tmp_path / "out")]) == EXIT_RUNTIME
    assert name.removeprefix("velocity.") in capsys.readouterr().err
    assert load_checkpoint(ckpt)[0][name].shape == shape


def test_checkpoint_dtype_mismatch_rejected(stopped_run, tmp_path, capsys):
    run = tmp_path / "run"
    shutil.copytree(stopped_run, run)
    ckpt = run / "checkpoints" / "last.ckpt"
    arrays, meta = load_checkpoint(ckpt)
    # an int64 copy truncates every weight toward zero
    arrays["backbone.w1"] = arrays["backbone.w1"].astype(np.int64)
    save_checkpoint([ckpt], arrays, **meta)
    assert main(["train", "--out-dir", str(run), "--resume"]) == EXIT_RUNTIME
    assert "'backbone.w1' has dtype int64, expected float32" in capsys.readouterr().err
    assert main(["export", "--run", str(run), "--checkpoint", "last",
                 "--out-dir", str(tmp_path / "out")]) == EXIT_RUNTIME
    assert "'backbone.w1' has dtype int64, expected float32" in capsys.readouterr().err


@pytest.mark.parametrize("name", ["backbone.w1", "velocity.cluster.w"])
def test_non_finite_checkpoint_rejected(stopped_run, tmp_path, capsys, name):
    run = tmp_path / "run"
    shutil.copytree(stopped_run, run)
    ckpt = run / "checkpoints" / "last.ckpt"
    arrays, meta = load_checkpoint(ckpt)
    arrays[name].flat[-1] = np.nan
    save_checkpoint([ckpt], arrays, **meta)
    out = tmp_path / "out"
    assert main(["export", "--run", str(run), "--checkpoint", "last", "--out-dir", str(out)]) == EXIT_RUNTIME
    assert f"checkpoint array {name!r} is not finite" in capsys.readouterr().err
    assert not (out / "embeddings.csv").exists()
    assert main(["train", "--out-dir", str(run), "--resume"]) == EXIT_RUNTIME
    assert f"checkpoint array {name!r} is not finite" in capsys.readouterr().err


@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf], ids=["nan", "inf", "-inf"])
def test_non_finite_dataset_feature_rejected(stopped_run, tmp_path, capsys, value):
    run = tmp_path / "run"
    shutil.copytree(stopped_run, run)
    arrays, meta = data_mod.read_arrays(run / "dataset.bin")
    features = arrays["features"].copy()
    features[[5, 9], 3, 4] = value
    data_mod.write_arrays([run / "dataset.bin"], {**arrays, "features": features}, meta)
    before = _run_files(run)
    message = "sample 5 has a feature that is not finite"
    assert main(["train", "--out-dir", str(run), "--resume"]) == EXIT_RUNTIME
    err = capsys.readouterr().err
    assert err.startswith("error:") and message in err
    assert main(["export", "--run", str(run)]) == EXIT_RUNTIME
    err = capsys.readouterr().err
    assert err.startswith("error:") and message in err
    out = tmp_path / "noisy.bin"
    assert main(["corrupt", "--input", str(run / "dataset.bin"), "--kind", "symmetric",
                 "--eps", "0.5", "--out", str(out)]) == EXIT_RUNTIME
    err = capsys.readouterr().err
    assert err.startswith("error:") and message in err
    assert _run_files(run) == before
    assert sorted(p.name for p in tmp_path.iterdir()) == ["run"]


@pytest.mark.parametrize("damage", ["empty", "9 bytes", "directory"])
def test_unreadable_container_files_exit_1(stopped_run, tmp_path, capsys, damage):
    """A file too short to map or to hold a header, or a directory, in
    place of dataset.bin or last.ckpt."""
    for name in ("dataset.bin", "checkpoints/last.ckpt"):
        run = tmp_path / name.replace("/", "-")
        shutil.copytree(stopped_run, run)
        path = run / name
        path.unlink()
        if damage == "directory":
            path.mkdir()
        else:
            path.write_bytes(b"NLDS\x02\x00\x00\x00\x00" if damage == "9 bytes" else b"")
        expected = "Is a directory" if damage == "directory" else "truncated header"
        assert main(["train", "--out-dir", str(run), "--resume"]) == EXIT_RUNTIME
        assert expected in capsys.readouterr().err
        assert main(["export", "--run", str(run), "--checkpoint", "last",
                     "--out-dir", str(tmp_path / "out")]) == EXIT_RUNTIME
        assert expected in capsys.readouterr().err
        if name == "dataset.bin":
            assert main(["corrupt", "--input", str(path), "--kind", "symmetric",
                         "--eps", "0.5", "--out", str(tmp_path / "o.bin")]) == EXIT_RUNTIME
            assert expected in capsys.readouterr().err
    assert not (tmp_path / "out").exists() and not (tmp_path / "o.bin").exists()


def test_dataset_read_from_a_pipe_exits_1(tmp_path, capsys):
    """A pipe cannot be mapped: the error names the path and the cause."""
    dataset = tmp_path / "ds.bin"
    assert main(["generate", "--samples", "40", "--image", "8x8", "--seed", "1", "--out", str(dataset)]) == EXIT_OK
    capsys.readouterr()
    blob = dataset.read_bytes()
    assert len(blob) < 16384  # written whole into the pipe's buffer, no reader needed
    read_end, write_end = os.pipe()
    try:
        os.write(write_end, blob)
        os.close(write_end)
        path = f"/dev/fd/{read_end}"
        assert main(["corrupt", "--input", path, "--kind", "symmetric", "--eps", "0.5",
                     "--out", str(tmp_path / "o.bin")]) == EXIT_RUNTIME
    finally:
        os.close(read_end)
    assert f"error: {path}: not a regular file" in capsys.readouterr().err
    assert not (tmp_path / "o.bin").exists()


def _main_in_child(argv):
    """``noisylab argv`` in a child process: a command that hangs is killed
    at the timeout, which fails the test instead of hanging the suite."""
    env = {**os.environ, "PYTHONPATH": str(Path(noisylab.__file__).parents[1])}
    return subprocess.run([sys.executable, "-m", "noisylab.cli", *argv], env=env, stdin=subprocess.DEVNULL,
                          capture_output=True, text=True, timeout=30)


def test_dataset_fifo_exits_1(tmp_path):
    """Opening a FIFO that no process writes blocks, unless it does not
    wait: corrupt fails at once."""
    fifo = tmp_path / "ds.bin"
    os.mkfifo(fifo)
    result = _main_in_child(["corrupt", "--input", str(fifo), "--kind", "symmetric", "--eps", "0.5",
                             "--out", str(tmp_path / "o.bin")])
    assert result.returncode == EXIT_RUNTIME
    assert f"error: {fifo}: not a regular file" in result.stderr
    assert [p.name for p in tmp_path.iterdir()] == ["ds.bin"]


@pytest.mark.parametrize("name", ["dataset.bin", "checkpoints/last.ckpt", "metrics.csv"],
                         ids=["dataset.bin", "last.ckpt", "metrics.csv"])
def test_run_file_fifo_exits_1(stopped_run, tmp_path, name):
    run = tmp_path / "run"
    shutil.copytree(stopped_run, run)
    (run / name).unlink()
    os.mkfifo(run / name)
    before = _run_files(run)
    result = _main_in_child(["train", "--out-dir", str(run), "--resume"])
    assert result.returncode == EXIT_RUNTIME
    assert f"error: {run / name}: not a regular file" in result.stderr
    assert _run_files(run) == before


def test_version_1_files_rejected(tmp_path, capsys):
    # version-1 dataset: magic, u16 version, classes, samples, ndim, dims, payload
    old_dataset = tmp_path / "old.bin"
    old_dataset.write_bytes(struct.pack("<4sHII BI", b"NLDS", 1, 2, 2, 1, 1) + bytes(2 * 13))
    code = main(["corrupt", "--input", str(old_dataset), "--kind", "symmetric",
                 "--eps", "0.5", "--out", str(tmp_path / "o.bin")])
    assert code == EXIT_RUNTIME
    assert "format version 1" in capsys.readouterr().err

    run = tmp_path / "run"
    assert main(["train", "--out-dir", str(run)] + TINY) == EXIT_OK
    # version-1 checkpoint: magic, u16 version, hash, epoch, best_acc, best_epoch, count
    (run / "checkpoints" / "last.ckpt").write_bytes(
        struct.pack("<4sH64sidiI", b"NLCK", 1, b"a" * 64, 2, 0.5, 1, 0))
    assert main(["train", "--out-dir", str(run), "--resume"]) == EXIT_RUNTIME
    assert "error:" in capsys.readouterr().err


def test_train_rejects_bad_config(tmp_path, capsys):
    code = main(["train", "--out-dir", str(tmp_path / "r"),
                 "--override", "train.epochs=0"])
    assert code == EXIT_VALIDATION
    assert "error:" in capsys.readouterr().err


@pytest.mark.parametrize("overrides", [
    ["augment.ops="],
    ["model.backbone=conv", "data.image_size=10"],
    ["seeds.augment=-1"],
    ["seeds.init=4294967296"],
], ids=["empty-ops", "conv-image-size-10", "augment-seed-negative", "init-seed-2**32"])
def test_train_rejects_input_before_writing(tmp_path, capsys, overrides):
    # each passed validation once and then crashed in the run
    run = tmp_path / "run"
    code = main(["train", "--out-dir", str(run)] + _tiny(*overrides))
    assert code == EXIT_VALIDATION
    assert overrides[0].split("=")[0] in capsys.readouterr().err
    assert not run.exists()


def test_train_rejects_split_without_training_sample(tmp_path, capsys):
    # passed validation, wrote the run's files and then divided by zero
    # training samples
    run = tmp_path / "run"
    code = main(["train", "--out-dir", str(run), "--override", "data.samples=4", "--override", "data.classes=2",
                 "--override", "data.val_fraction=0.9", "--override", "train.epochs=1"])
    assert code == EXIT_VALIDATION
    err = capsys.readouterr().err
    assert err.startswith("error:") and "data.val_fraction" in err and "data.samples" in err
    # the lock is taken before the split is drawn; no config.txt is written
    assert list(run.iterdir()) == [run / ".lock"]
    assert (run / ".lock").read_bytes() == b""


def test_train_rejects_override_set_twice(tmp_path, capsys):
    # the last of the two used to win silently
    run = tmp_path / "run"
    code = main(["train", "--out-dir", str(run)] + TINY + ["--override", "train.epochs=1"])
    assert code == EXIT_VALIDATION
    err = capsys.readouterr().err
    assert err.startswith("error:") and "--override 8: train.epochs is already set by --override 6" in err
    assert not run.exists()


def test_generate_rejects_one_class(tmp_path, capsys):
    # wrote a dataset that every reader rejects
    code = main(["generate", "--samples", "8", "--classes", "1", "--out", str(tmp_path / "one.bin")])
    assert code == EXIT_VALIDATION
    assert capsys.readouterr().err.startswith("error:")
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("argv", [["--separation", "nan"], ["--dims", "3", "--separation", "inf"]],
                         ids=["nan", "inf"])
def test_generate_rejects_non_finite_separation(tmp_path, capsys, argv):
    # wrote features that were all or partly not finite
    code = main(["generate", "--samples", "16", "--classes", "2", "--out", str(tmp_path / "x.bin")] + argv)
    assert code == EXIT_VALIDATION
    assert "separation must be finite" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("key", ["seeds.init", "seeds.data", "seeds.augment"])
def test_seed_flag_rejects_seed_override(tmp_path, capsys, key):
    # --seed used to replace the override's value silently
    run = tmp_path / "run"
    code = main(["train", "--out-dir", str(run), "--seed", "7"] + _tiny(f"{key}=5"))
    assert code == EXIT_VALIDATION
    assert f"--override 8: {key} is also set by --seed" in capsys.readouterr().err
    assert not run.exists()


def test_seed_flag_replaces_config_file_seeds(tmp_path):
    path = tmp_path / "cfg.txt"
    path.write_text("seeds.init = 5\nseeds.augment = 3\n")
    args = build_parser().parse_args(["train", "--out-dir", "run", "--config", str(path), "--seed", "7"])
    cfg = _load_config(args)
    assert (cfg["seeds.init"], cfg["seeds.data"], cfg["seeds.augment"]) == (7, 8, 9)


@pytest.mark.parametrize("argv", [
    ["generate", "--out", "ds.bin", "--seed", "-1"],
    ["corrupt", "--input", "ds.bin", "--kind", "symmetric", "--eps", "0.5", "--out", "o.bin", "--seed", "-1"],
    ["train", "--out-dir", "run", "--seed", "4294967296"],
    ["ablate", "--out-dir", "run", "--seed", "-1"],
    # train and ablate set seeds.augment to the seed + 2, which must stay below 2**32
    ["train", "--out-dir", "run", "--seed", "4294967294"],
    ["ablate", "--out-dir", "run", "--seed", "4294967295"],
], ids=["generate", "corrupt", "train", "ablate", "train-2**32-2", "ablate-2**32-1"])
def test_seed_flag_out_of_range(tmp_path, monkeypatch, capsys, argv):
    monkeypatch.chdir(tmp_path)
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    bound = "2**32 - 2" if argv[0] in ("train", "ablate") else "2**32"
    assert f"argument --seed: expected a seed in [0, {bound})" in capsys.readouterr().err
    assert not list(tmp_path.iterdir())


def test_largest_base_seed_accepted(tmp_path):
    run = tmp_path / "run"
    assert main(["train", "--out-dir", str(run), "--seed", "4294967293"] + TINY) == EXIT_OK
    assert "seeds.augment = 4294967295" in (run / "config.txt").read_text()


def test_train_reports_divergence(tmp_path, capsys):
    code = main(["train", "--out-dir", str(tmp_path / "r")] + TINY
                + ["--override", "optim.lr=1e6", "--override", "losses.lambda=100.0"])
    assert code == EXIT_DIVERGENCE


@pytest.mark.parametrize("command", ["train", "ablate"])
def test_mid_epoch_overflow_is_divergence(tmp_path, capsys, command):
    # several batches per epoch: the first step leaves parameters so large
    # that the next batch's forward overflows to NaN probabilities
    run = tmp_path / "r"
    with np.errstate(over="ignore", invalid="ignore"):
        code = main([command, "--out-dir", str(run)] + _tiny("train.batch_size=16", "optim.lr=1e20"))
    if command == "train":
        assert code == EXIT_DIVERGENCE
        assert "training diverged: the forward pass overflowed in epoch 0" in capsys.readouterr().err
        assert [p.name for p in (run / "checkpoints").iterdir()] == ["init.ckpt"]
    else:
        # every row diverges, and each is recorded
        assert code == EXIT_RUNTIME
        rows = (run / "ablation.csv").read_text().splitlines()[1:]
        assert [row.split(",")[:2] for row in rows] == [[name, "failed"] for name, *_ in ABLATION_ROWS]


def test_seed_flag_sets_all_seeds(tmp_path):
    run_a, run_b = tmp_path / "a", tmp_path / "b"
    main(["train", "--out-dir", str(run_a), "--seed", "7"] + TINY)
    main(["train", "--out-dir", str(run_b), "--seed", "7"] + TINY)
    cfg_a = (run_a / "config.txt").read_text()
    assert "seeds.init = 7" in cfg_a and "seeds.data = 8" in cfg_a
    strip = lambda text: [",".join(l.split(",")[:-1]) for l in text.splitlines()]
    assert strip((run_a / "metrics.csv").read_text()) == strip((run_b / "metrics.csv").read_text())


def test_ablate_runs_grid(tmp_path, capsys):
    grid = tmp_path / "grid"
    code = main(["ablate", "--out-dir", str(grid)] + _tiny("train.epochs=1"))
    assert code == EXIT_OK
    assert (grid / "ablation.csv").exists()
    out = capsys.readouterr().out
    assert "+A+B+C" in out


def test_usage_error_exit_code():
    with pytest.raises(SystemExit) as exc:
        main(["train"])  # missing --out-dir
    assert exc.value.code == 2


@pytest.mark.parametrize("argv", [["--classes", "0"], ["--image", "abc"], ["--image", "5x"]],
                         ids=["classes-0", "image-abc", "image-5x"])
def test_generate_rejects_bad_arguments(tmp_path, capsys, argv):
    with pytest.raises(SystemExit) as exc:
        main(["generate", "--samples", "20", "--out", str(tmp_path / "ds.bin")] + argv)
    assert exc.value.code == 2
    assert f"argument {argv[0]}" in capsys.readouterr().err
    assert not (tmp_path / "ds.bin").exists()


@pytest.mark.parametrize("samples", ["0", "-3"])
def test_export_rejects_non_positive_samples(trained_run, tmp_path, capsys, samples):
    out = tmp_path / "out"
    with pytest.raises(SystemExit) as exc:
        main(["export", "--run", str(trained_run), "--samples", samples, "--out-dir", str(out)])
    assert exc.value.code == 2
    assert "argument --samples" in capsys.readouterr().err
    assert not out.exists()


class _DiskFull(io.FileIO):
    """A file that takes half of the first write and then fails, as a full
    disk would."""

    def write(self, data):
        super().write(bytes(data[: len(data) // 2]))
        raise OSError(errno.ENOSPC, "No space left on device")


def test_failed_csv_writes_keep_previous_files(tmp_path, monkeypatch):
    src, dst = tmp_path / "clean.bin", tmp_path / "noisy.bin"
    generate = ["generate", "--samples", "40", "--out", str(src)]
    corrupt = ["corrupt", "--input", str(src), "--kind", "symmetric", "--eps", "0.5", "--out", str(dst)]
    assert main(generate) == EXIT_OK and main(corrupt) == EXIT_OK
    names = ["clean.bin", "clean.bin.labels.csv", "noisy.bin", "noisy.bin.transition.csv"]
    assert sorted(p.name for p in tmp_path.iterdir()) == names
    before = [(tmp_path / name).read_bytes() for name in names]

    def csv_disk_full(path, mode):
        return (_DiskFull if str(path).endswith(".csv.tmp") else io.FileIO)(path, mode.replace("b", ""))

    monkeypatch.setattr(data_mod, "open", csv_disk_full, raising=False)
    assert main(generate) == EXIT_RUNTIME
    assert main(corrupt) == EXIT_RUNTIME
    assert [(tmp_path / name).read_bytes() for name in names] == before
    assert sorted(p.name for p in tmp_path.iterdir()) == names


def test_failed_export_keeps_previous_files(trained_run, tmp_path, monkeypatch):
    out = tmp_path / "out"
    assert main(["export", "--run", str(trained_run), "--samples", "4", "--out-dir", str(out)]) == EXIT_OK
    names = ["embeddings.csv", "gallery.pgm"]
    before = [(out / name).read_bytes() for name in names]
    exp, _ = load_run_models(trained_run, "best")
    monkeypatch.setattr(data_mod, "open", lambda path, mode: _DiskFull(path, mode.replace("b", "")),
                        raising=False)
    with pytest.raises(OSError, match="No space"):
        export_embeddings_csv(exp, out / "embeddings.csv")
    with pytest.raises(OSError, match="No space"):
        export_gallery(exp, out / "gallery.pgm", num_samples=6)
    assert [(out / name).read_bytes() for name in names] == before
    assert sorted(p.name for p in out.iterdir()) == names
