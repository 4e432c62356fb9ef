import csv
import io
import json
import struct

import numpy as np
import pytest

from noisylab.data import (
    CorruptHeaderError,
    DatasetError,
    DatasetFileError,
    DoubleInjectionError,
    LabeledDataset,
    NoiseSpec,
    PayloadShapeError,
    VersionMismatchError,
    empirical_transition_matrix,
    export_labels_csv,
    generate_blobs,
    inject_noise,
    load_dataset,
    read_arrays,
    save_dataset,
    write_arrays,
)


def _linear_probe_accuracy(ds):
    """Independent check of separability: ridge regression to one-hot
    targets, evaluated on the training data itself."""
    x = ds.features.reshape(len(ds), -1).astype(np.float64)
    x = np.hstack([x, np.ones((len(x), 1))])
    y = np.zeros((len(ds), ds.num_classes))
    y[np.arange(len(ds)), ds.clean_labels] = 1.0
    w = np.linalg.solve(x.T @ x + 1e-3 * np.eye(x.shape[1]), x.T @ y)
    return float(np.mean((x @ w).argmax(axis=1) == ds.clean_labels))


class TestGenerateBlobs:
    def test_flat_shapes_and_dtypes(self):
        ds = generate_blobs(100, 4, 2, 3.0, seed=0)
        assert ds.features.shape == (100, 2)
        assert ds.features.dtype == np.float32
        assert ds.clean_labels.dtype == np.int32
        assert not ds.is_image

    def test_image_values_in_unit_interval(self):
        ds = generate_blobs(50, 3, (8, 8), 2.0, seed=1)
        assert ds.features.shape == (50, 8, 8)
        assert ds.is_image
        assert ds.features.min() >= 0.0 and ds.features.max() <= 1.0

    def test_every_class_present(self):
        for seed in range(5):
            ds = generate_blobs(10, 5, 2, 1.0, seed=seed)
            assert set(np.unique(ds.clean_labels)) == set(range(5))

    def test_deterministic(self):
        a = generate_blobs(64, 4, (8, 8), 2.0, seed=7)
        b = generate_blobs(64, 4, (8, 8), 2.0, seed=7)
        assert a == b

    def test_seed_changes_data(self):
        a = generate_blobs(64, 4, 2, 2.0, seed=7)
        b = generate_blobs(64, 4, 2, 2.0, seed=8)
        assert a != b

    def test_high_separation_linearly_separable(self):
        ds = generate_blobs(400, 4, 2, 8.0, seed=3)
        assert _linear_probe_accuracy(ds) > 0.99

    def test_zero_separation_not_separable(self):
        ds = generate_blobs(400, 4, 2, 0.0, seed=3)
        assert _linear_probe_accuracy(ds) < 0.5

    def test_separation_zero_allowed_negative_rejected(self):
        generate_blobs(10, 2, 2, 0.0, seed=0)
        with pytest.raises(DatasetError):
            generate_blobs(10, 2, 2, -1.0, seed=0)

    @pytest.mark.parametrize("separation", [np.nan, np.inf])
    def test_non_finite_separation_rejected(self, separation):
        # nan passed the check and gave all-NaN features, inf gave NaN and inf
        with pytest.raises(DatasetError, match="finite"):
            generate_blobs(10, 2, 3, separation, seed=0)

    def test_too_few_samples_rejected(self):
        with pytest.raises(DatasetError):
            generate_blobs(3, 4, 2, 1.0, seed=0)

    def test_one_class_rejected(self):
        # no reader accepts a dataset of fewer than 2 classes
        with pytest.raises(DatasetError, match="at least 2 classes"):
            generate_blobs(8, 1, 2, 1.0, seed=0)

    def test_bad_shapes_rejected(self):
        with pytest.raises(DatasetError):
            generate_blobs(10, 2, 0, 1.0, seed=0)
        with pytest.raises(DatasetError):
            generate_blobs(10, 2, (8,), 1.0, seed=0)


class TestLabeledDataset:
    def test_invariants_enforced(self):
        feats = np.zeros((4, 2), dtype=np.float32)
        labels = np.zeros(4, dtype=np.int32)
        with pytest.raises(DatasetError):
            LabeledDataset(feats, labels, labels[:3], np.zeros(4, bool), 2)
        with pytest.raises(DatasetError):
            LabeledDataset(feats, labels + 5, labels + 5, np.zeros(4, bool), 2)
        with pytest.raises(DatasetError):
            LabeledDataset(feats, labels, labels, np.ones(4, bool), 2)


class TestInjectNoise:
    def test_exact_flip_counts_symmetric(self):
        ds = generate_blobs(1000, 4, 2, 2.0, seed=0)
        out = inject_noise(ds, NoiseSpec("symmetric", 0.3, seed=1))
        for k in range(4):
            members = ds.clean_labels == k
            expected = int(round(0.3 * members.sum()))
            assert (out.corrupted & members).sum() == expected

    def test_symmetric_never_flips_to_self(self):
        ds = generate_blobs(2000, 4, 2, 2.0, seed=0)
        out = inject_noise(ds, NoiseSpec("symmetric", 0.5, seed=1))
        assert np.all(out.noisy_labels[out.corrupted] != out.clean_labels[out.corrupted])

    def test_asymmetric_next_class_only(self):
        ds = generate_blobs(1000, 4, 2, 2.0, seed=0)
        out = inject_noise(ds, NoiseSpec("asymmetric", 0.4, seed=1))
        flipped = out.corrupted
        np.testing.assert_array_equal(
            out.noisy_labels[flipped], (out.clean_labels[flipped] + 1) % 4
        )

    def test_asymmetric_no_wrap_leaves_last_class(self):
        ds = generate_blobs(1000, 4, 2, 2.0, seed=0)
        out = inject_noise(ds, NoiseSpec("asymmetric", 0.4, seed=1, wrap_last_class=False))
        last = ds.clean_labels == 3
        assert not out.corrupted[last].any()
        assert out.corrupted[~last].any()

    def test_double_injection_rejected(self):
        ds = generate_blobs(100, 4, 2, 2.0, seed=0)
        out = inject_noise(ds, NoiseSpec("symmetric", 0.2, seed=1))
        with pytest.raises(DoubleInjectionError):
            inject_noise(out, NoiseSpec("symmetric", 0.2, seed=2))

    def test_epsilon_zero_is_identity(self):
        ds = generate_blobs(100, 4, 2, 2.0, seed=0)
        out = inject_noise(ds, NoiseSpec("symmetric", 0.0, seed=1))
        assert out == ds

    def test_original_untouched(self):
        ds = generate_blobs(100, 4, 2, 2.0, seed=0)
        inject_noise(ds, NoiseSpec("symmetric", 0.5, seed=1))
        assert not ds.corrupted.any()
        np.testing.assert_array_equal(ds.clean_labels, ds.noisy_labels)

    def test_spec_validation(self):
        with pytest.raises(DatasetError):
            NoiseSpec("diagonal", 0.2, seed=0)
        with pytest.raises(DatasetError):
            NoiseSpec("symmetric", 1.5, seed=0)
        with pytest.warns(UserWarning):
            NoiseSpec("asymmetric", 0.7, seed=0)


class TestTransitionMatrix:
    def test_rows_stochastic(self):
        ds = generate_blobs(1000, 4, 2, 2.0, seed=0)
        out = inject_noise(ds, NoiseSpec("symmetric", 0.4, seed=1))
        matrix, undefined = empirical_transition_matrix(out)
        assert not undefined.any()
        np.testing.assert_allclose(matrix.sum(axis=1), 1.0)

    def test_undefined_rows_flagged(self):
        feats = np.zeros((3, 2), dtype=np.float32)
        labels = np.zeros(3, dtype=np.int32)
        ds = LabeledDataset(feats, labels, labels.copy(), np.zeros(3, bool), 3)
        matrix, undefined = empirical_transition_matrix(ds)
        assert undefined.tolist() == [False, True, True]
        assert np.isnan(matrix[1]).all() and np.isnan(matrix[2]).all()
        np.testing.assert_allclose(matrix[0], [1.0, 0.0, 0.0])

    @pytest.mark.parametrize("n", [0, 1, 9, 300])
    def test_matches_per_class_loop(self, n):
        rng = np.random.default_rng(n)
        for _ in range(40):
            c = int(rng.integers(2, 9))
            # some classes have no clean sample, so their rows are undefined
            present = rng.choice(c, size=int(rng.integers(1, c + 1)), replace=False)
            clean = rng.choice(present, size=n).astype(np.int32)
            noisy = rng.integers(0, c, size=n).astype(np.int32)
            ds = LabeledDataset(np.zeros((n, 2), np.float32), clean, noisy, clean != noisy, c)
            for got, want in zip(empirical_transition_matrix(ds), _loop_transition_matrix(ds)):
                assert (got.dtype, got.shape, got.tobytes()) == (want.dtype, want.shape, want.tobytes())


def _loop_transition_matrix(ds):
    """empirical_transition_matrix as a loop over the clean classes."""
    c = ds.num_classes
    matrix = np.zeros((c, c))
    undefined = np.zeros(c, dtype=bool)
    for i in range(c):
        members = ds.clean_labels == i
        total = int(members.sum())
        if total == 0:
            matrix[i] = np.nan
            undefined[i] = True
            continue
        matrix[i] = np.bincount(ds.noisy_labels[members], minlength=c) / total
    return matrix, undefined


class TestPersistence:
    def test_roundtrip_bit_exact(self, tmp_path):
        ds = generate_blobs(64, 4, (8, 8), 2.0, seed=0)
        ds = inject_noise(ds, NoiseSpec("symmetric", 0.4, seed=1))
        path = tmp_path / "ds.bin"
        save_dataset(ds, path)
        assert load_dataset(path) == ds

    def test_flat_roundtrip(self, tmp_path):
        ds = generate_blobs(32, 2, 3, 1.0, seed=5)
        path = tmp_path / "ds.bin"
        save_dataset(ds, path)
        assert load_dataset(path) == ds

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "junk.bin"
        path.write_bytes(b"XXXX" + bytes(64))
        with pytest.raises(CorruptHeaderError):
            load_dataset(path)

    def test_truncated_header(self, tmp_path):
        path = tmp_path / "short.bin"
        path.write_bytes(b"NL")
        with pytest.raises(CorruptHeaderError):
            load_dataset(path)

    def test_version_mismatch(self, tmp_path):
        ds = generate_blobs(8, 2, 2, 1.0, seed=0)
        path = tmp_path / "ds.bin"
        save_dataset(ds, path)
        blob = bytearray(path.read_bytes())
        blob[4] = 99
        path.write_bytes(bytes(blob))
        with pytest.raises(VersionMismatchError):
            load_dataset(path)

    def test_truncated_payload(self, tmp_path):
        ds = generate_blobs(8, 2, 2, 1.0, seed=0)
        path = tmp_path / "ds.bin"
        save_dataset(ds, path)
        path.write_bytes(path.read_bytes()[:-3])
        with pytest.raises(PayloadShapeError):
            load_dataset(path)

    def test_trailing_bytes_rejected(self, tmp_path):
        ds = generate_blobs(8, 2, 2, 1.0, seed=0)
        path = tmp_path / "ds.bin"
        save_dataset(ds, path)
        path.write_bytes(path.read_bytes() + bytes(16))
        with pytest.raises(PayloadShapeError):
            load_dataset(path)

    def test_v1_file_rejected(self, tmp_path):
        # version-1 layout: magic, u16 version, u32 classes, u32 samples,
        # u8 ndim, u32 dims, then features, labels and flags
        path = tmp_path / "v1.bin"
        path.write_bytes(struct.pack("<4sHII BI", b"NLDS", 1, 2, 2, 1, 1) + bytes(2 * 13))
        with pytest.raises(VersionMismatchError):
            load_dataset(path)

    @pytest.mark.parametrize("name,stored", [
        ("noisy_labels", lambda a: a + 0.7),  # float64 that casts back to the labels
        ("clean_labels", lambda a: a.astype(np.int64)),
        ("features", lambda a: a.astype(np.float64)),
        ("corrupted", lambda a: a.astype(np.uint8)),
    ], ids=["float-labels", "int64-labels", "float64-features", "uint8-flags"])
    def test_wrong_array_dtype_rejected(self, tmp_path, name, stored):
        ds = generate_blobs(8, 2, 2, 1.0, seed=0)
        arrays = {n: getattr(ds, n) for n in ("features", "clean_labels", "noisy_labels", "corrupted")}
        arrays[name] = stored(arrays[name])
        path = tmp_path / "ds.bin"
        write_arrays([path], arrays, {"num_classes": 2})
        with pytest.raises(CorruptHeaderError, match=f"array '{name}' is stored as"):
            load_dataset(path)

    @pytest.mark.parametrize("num_classes", ["2", 2.0, True, 1, -2, None])
    def test_bad_num_classes_rejected(self, tmp_path, num_classes):
        ds = generate_blobs(8, 2, 2, 1.0, seed=0)
        path = tmp_path / "ds.bin"
        write_arrays([path], {n: getattr(ds, n) for n in ("features", "clean_labels", "noisy_labels", "corrupted")},
                     {"num_classes": num_classes})
        with pytest.raises(CorruptHeaderError, match="num_classes must be an integer >= 2"):
            load_dataset(path)

    def test_not_a_dataset(self, tmp_path):
        path = tmp_path / "x.bin"
        write_arrays([path], {"features": np.zeros((2, 3), np.float32)}, {"num_classes": 2})
        with pytest.raises(CorruptHeaderError):
            load_dataset(path)

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf], ids=["nan", "inf", "-inf"])
    def test_non_finite_feature_rejected(self, tmp_path, value):
        ds = generate_blobs(16, 2, (4, 4), 1.0, seed=0)
        ds.features[[3, 11], 2, 1] = value
        path = tmp_path / "ds.bin"
        save_dataset(ds, path)
        with pytest.raises(DatasetFileError, match="sample 3 has a feature that is not finite"):
            load_dataset(path)

    def test_labels_csv(self, tmp_path):
        ds = generate_blobs(10, 2, 2, 1.0, seed=0)
        path = tmp_path / "labels.csv"
        export_labels_csv(ds, path)
        lines = path.read_text().strip().splitlines()
        assert lines[0] == "index,clean_label,noisy_label,corrupted"
        assert len(lines) == 11

    def test_labels_csv_bytes_match_csv_writer(self, tmp_path):
        ds = inject_noise(generate_blobs(40, 4, 3, 1.0, seed=0), NoiseSpec("symmetric", 0.5, seed=1))
        want = io.StringIO(newline="")
        writer = csv.writer(want)
        writer.writerow(["index", "clean_label", "noisy_label", "corrupted"])
        for i in range(len(ds)):
            writer.writerow([i, int(ds.clean_labels[i]), int(ds.noisy_labels[i]), int(ds.corrupted[i])])
        export_labels_csv(ds, tmp_path / "labels.csv")
        assert (tmp_path / "labels.csv").read_bytes() == want.getvalue().encode()


def _container(block: dict, payload: bytes = b"") -> bytes:
    raw = json.dumps(block).encode()
    return b"NLDS" + (2).to_bytes(2, "little") + len(raw).to_bytes(4, "little") + raw + payload


class TestArrayContainer:
    def test_roundtrip_dtypes_shapes_and_meta(self, tmp_path):
        arrays = {
            "scalar": np.array(2.5),
            "empty": np.zeros((0, 3), dtype=np.int32),
            "big_endian": np.arange(4, dtype=">f8"),
            "transposed": np.arange(6, dtype=np.int64).reshape(2, 3).T,
            "bytes": np.array([0, 255], dtype=np.uint8),
            "flags": np.array([True, False]),
        }
        meta = {"hash": "ab", "epoch": 3, "acc": -1.0}
        path = tmp_path / "a.bin"
        write_arrays([path], arrays, meta)
        out, out_meta = read_arrays(path)
        assert out_meta == meta and list(out) == list(arrays)
        for name, arr in arrays.items():
            assert out[name].dtype == arr.dtype.newbyteorder("<")
            np.testing.assert_array_equal(out[name], arr)
            assert out[name].flags.writeable
        assert not (tmp_path / "a.bin.tmp").exists()

    def test_writing_into_arrays_leaves_the_file(self, tmp_path):
        path = tmp_path / "a.bin"
        write_arrays([path], {"x": np.arange(6, dtype=np.float32), "y": np.ones((2, 2), np.int64)}, {"k": 1})
        blob = path.read_bytes()
        arrays, _ = read_arrays(path)
        arrays["x"][:] = -7.0
        arrays["y"] += 40
        assert path.read_bytes() == blob
        again, _ = read_arrays(path)
        np.testing.assert_array_equal(again["x"], np.arange(6))
        np.testing.assert_array_equal(again["y"], np.ones((2, 2)))
        np.testing.assert_array_equal(arrays["x"], np.full(6, -7.0))

    @pytest.mark.parametrize("content,error,message", [
        (b"", CorruptHeaderError, "truncated header"),  # an empty file cannot be mapped
        (b"NLDS\x02\x00\x00\x00\x00", CorruptHeaderError, "truncated header"),
        (None, IsADirectoryError, "Is a directory"),
    ], ids=["empty", "9-bytes", "directory"])
    def test_short_file_or_directory_rejected(self, tmp_path, content, error, message):
        path = tmp_path / "a.bin"
        if content is None:
            path.mkdir()
        else:
            path.write_bytes(content)
        for read in (read_arrays, load_dataset):
            with pytest.raises(error, match=message):
                read(path)

    def test_unsupported_dtype_not_written(self, tmp_path):
        with pytest.raises(DatasetFileError):
            write_arrays([tmp_path / "a.bin"], {"c": np.zeros(2, np.complex64)}, {})
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("blob", [
        b"NLDS\x02\x00\xff\x00\x00\x00{}",
        _container({"arrays": []}),
        _container({"meta": {}, "arrays": [["x", "|O", [1]]]}, bytes(8)),
        _container({"meta": {}, "arrays": [["x", "<f4", [-1]]]}),
        _container({"meta": {}, "arrays": [["x", "<f4", [1.5]]]}),
        _container({"meta": {}, "arrays": [[7, "<f4", [1]]]}, bytes(4)),
        _container({"meta": {}, "arrays": [["x", "<f4"]]}),
        _container({"meta": 3, "arrays": []}),
    ])
    def test_malformed_layout_rejected(self, tmp_path, blob):
        path = tmp_path / "bad.bin"
        path.write_bytes(blob)
        with pytest.raises(CorruptHeaderError):
            read_arrays(path)

    def test_array_named_twice_rejected(self, tmp_path):
        # only the second "x" used to be returned
        path = tmp_path / "bad.bin"
        path.write_bytes(_container({"meta": {}, "arrays": [["x", "<f4", [1]], ["y", "<f4", [1]],
                                                            ["x", "<i8", [1]]]}, bytes(16)))
        with pytest.raises(CorruptHeaderError, match="array 'x' is named twice"):
            read_arrays(path)

    @pytest.mark.parametrize("payload", [bytes(7), bytes(9), b""])
    def test_payload_must_end_at_end_of_file(self, tmp_path, payload):
        path = tmp_path / "bad.bin"
        path.write_bytes(_container({"meta": {}, "arrays": [["x", "<f4", [2]]]}, payload))
        with pytest.raises(PayloadShapeError):
            read_arrays(path)
