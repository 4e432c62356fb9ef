import pytest

from noisylab import config as config_mod
from noisylab.config import (
    ConfigError,
    config_hash,
    default_config,
    dump,
    dumps,
    load,
    loads,
    parse_entries,
    parse_overrides,
    validate,
)


class TestDefaults:
    def test_defaults_validate(self):
        validate(default_config())

    def test_defaults_are_fresh_copies(self):
        a, b = default_config(), default_config()
        a["optim.milestones"].append(0.9)
        assert b["optim.milestones"] == [0.5, 0.75]


class TestValidate:
    def test_unknown_key_rejected(self):
        cfg = default_config()
        cfg["data.banana"] = 1
        with pytest.raises(ConfigError, match="unknown key"):
            validate(cfg)

    def test_missing_key_rejected(self):
        cfg = default_config()
        del cfg["train.epochs"]
        with pytest.raises(ConfigError, match="missing key"):
            validate(cfg)

    def test_all_errors_collected(self):
        cfg = default_config()
        cfg["train.epochs"] = 0
        cfg["noise.epsilon"] = 2.0
        with pytest.raises(ConfigError) as exc:
            validate(cfg)
        assert "train.epochs" in str(exc.value) and "noise.epsilon" in str(exc.value)

    def test_all_losses_disabled_rejected(self):
        cfg = default_config()
        cfg["losses.A"] = cfg["losses.B"] = cfg["losses.C"] = False
        with pytest.raises(ConfigError, match="at least one"):
            validate(cfg)

    def test_alpha_window_order(self):
        cfg = default_config()
        cfg["alpha.start_frac"], cfg["alpha.end_frac"] = 0.9, 0.1
        with pytest.raises(ConfigError, match="alpha"):
            validate(cfg)

    @pytest.mark.parametrize("key,value,match", [
        ("alpha.kind", "exponential", "alpha.kind"),
        ("alpha.constant", 1.5, "alpha.constant"),
        ("alpha.end_frac", 0.1, "start_frac must be below end_frac"),  # equal to start_frac
    ], ids=["unknown-kind", "constant-above-1", "empty-window"])
    def test_alpha_settings_rejected(self, key, value, match):
        cfg = default_config()
        cfg[key] = value
        with pytest.raises(ConfigError, match=match):
            validate(cfg)

    def test_constant_alpha_ignores_window(self):
        cfg = default_config()
        cfg["alpha.kind"] = "constant"
        cfg["alpha.start_frac"], cfg["alpha.end_frac"] = 0.9, 0.1
        validate(cfg)

    def test_milestones_sorted_fractions(self):
        cfg = default_config()
        cfg["optim.milestones"] = [0.75, 0.5]
        with pytest.raises(ConfigError, match="milestones"):
            validate(cfg)
        cfg["optim.milestones"] = [0.5, 1.5]
        with pytest.raises(ConfigError, match="milestones"):
            validate(cfg)

    def test_spatial_ops_need_images(self):
        cfg = default_config()
        cfg["data.kind"] = "blobs"
        with pytest.raises(ConfigError, match="image-shaped"):
            validate(cfg)
        cfg["augment.ops"] = ["gaussian-noise", "brightness-shift"]
        validate(cfg)

    def test_conv_needs_images(self):
        cfg = default_config()
        cfg["data.kind"] = "blobs"
        cfg["augment.ops"] = ["gaussian-noise"]
        cfg["model.backbone"] = "conv"
        with pytest.raises(ConfigError, match="conv"):
            validate(cfg)

    def test_conv_needs_image_size_divisible_by_4(self):
        cfg = default_config()
        cfg["model.backbone"] = "conv"
        cfg["data.image_size"] = 10
        with pytest.raises(ConfigError, match="divisible by 4"):
            validate(cfg)
        cfg["data.image_size"] = 8
        validate(cfg)

    def test_empty_augment_ops_rejected(self):
        cfg = default_config()
        cfg["augment.ops"] = []
        with pytest.raises(ConfigError, match="augment.ops"):
            validate(cfg)

    @pytest.mark.parametrize("key", ["seeds.init", "seeds.data", "seeds.augment"])
    def test_seeds_are_32_bit(self, key):
        for value in (-1, 2**32):
            cfg = default_config()
            cfg[key] = value
            with pytest.raises(ConfigError, match=rf"{key}: invalid value {value} \(seeds are in \[0, 2\*\*32\)\)"):
                validate(cfg)
        for value in (0, 2**32 - 1):
            cfg[key] = value
            validate(cfg)

    @pytest.mark.parametrize("key", [k for k, f in config_mod.SCHEMA.items() if f.parse is float])
    def test_float_fields_must_be_finite(self, key):
        # optim.lr, optim.weight_decay, losses.lambda and data.separation
        # only had lower bounds, which inf passes
        for raw in ("inf", "-inf", "nan"):
            with pytest.raises(ConfigError, match=rf"{key}: invalid value {raw} \(must be finite\)"):
                parse_entries([(key, raw)])

    def test_bad_choice_rejected(self):
        cfg = default_config()
        cfg["noise.kind"] = "pairwise"
        with pytest.raises(ConfigError):
            validate(cfg)

    def test_schema_version_checked(self):
        cfg = default_config()
        cfg["schema_version"] = 99
        with pytest.raises(ConfigError, match="schema_version"):
            validate(cfg)


class TestParsing:
    def test_loads_basic(self):
        cfg = loads("noise.epsilon = 0.3\nlosses.A = false\n")
        assert cfg["noise.epsilon"] == 0.3
        assert cfg["losses.A"] is False

    def test_comments_and_blank_lines(self):
        cfg = loads("# a comment\n\ntrain.epochs = 5\n")
        assert cfg["train.epochs"] == 5

    def test_bad_line_reports_lineno(self):
        with pytest.raises(ConfigError, match="line 2"):
            loads("train.epochs = 5\nnot a pair\n")

    def test_type_errors_reported(self):
        with pytest.raises(ConfigError, match="train.epochs"):
            loads("train.epochs = soon\n")

    def test_unknown_key_in_text(self):
        with pytest.raises(ConfigError, match="unknown key"):
            loads("velocity.max = 3\n")

    def test_list_values(self):
        cfg = loads("optim.milestones = 0.25,0.5\naugment.ops = cutout,translate\n")
        assert cfg["optim.milestones"] == [0.25, 0.5]
        assert cfg["augment.ops"] == ["cutout", "translate"]

    def test_bool_spellings(self):
        for text, expect in (("true", True), ("1", True), ("off", False), ("no", False)):
            assert loads(f"losses.B = {text}\n")["losses.B"] is expect

    def test_parse_overrides(self):
        entries = parse_overrides(["train.epochs=3", "noise.epsilon = 0.1"])
        cfg = parse_entries(entries)
        assert cfg["train.epochs"] == 3 and cfg["noise.epsilon"] == 0.1

    def test_bad_override_shape(self):
        with pytest.raises(ConfigError, match="key=value"):
            parse_overrides(["train.epochs"])

    def test_key_set_twice_in_one_source_rejected(self):
        # the last value used to win silently
        with pytest.raises(ConfigError, match=r"line 3: losses\.B is already set by line 1"):
            loads("losses.B = true\n# a comment\nlosses.B = false\n")
        with pytest.raises(ConfigError, match=r"--override 3: train\.epochs is already set by --override 1"):
            parse_overrides(["train.epochs=3", "noise.epsilon=0.1", " train.epochs = 4"])

    def test_override_replaces_file_key(self):
        cfg = loads("losses.B = true\ntrain.epochs = 5\n", parse_overrides(["losses.B=false"]))
        assert cfg["losses.B"] is False and cfg["train.epochs"] == 5


class TestRoundtripAndHash:
    def test_dump_load_roundtrip(self, tmp_path):
        cfg = default_config()
        cfg["noise.epsilon"] = 0.12345678901234
        cfg["optim.milestones"] = [0.3, 0.6]
        path = tmp_path / "config.txt"
        dump(cfg, path)
        assert load(path) == cfg

    def test_non_utf8_file_rejected(self, tmp_path):
        path = tmp_path / "config.txt"
        path.write_bytes(b"\xff\xfe\x00")
        with pytest.raises(ConfigError, match="not UTF-8"):
            load(path)

    def test_dumps_canonical_order(self):
        lines = dumps(default_config()).strip().splitlines()
        keys = [line.split(" = ")[0] for line in lines]
        assert keys == list(config_mod.SCHEMA)

    def test_hash_stable_and_sensitive(self):
        cfg = default_config()
        assert config_hash(cfg) == config_hash(dict(cfg))
        changed = dict(cfg)
        changed["seeds.init"] = 99
        assert config_hash(changed) != config_hash(cfg)

    def test_hash_is_sha256_hex(self):
        digest = config_hash(default_config())
        assert len(digest) == 64
        int(digest, 16)
