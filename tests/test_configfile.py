"""Flat config parsing, schema validation, and file loading."""

import pytest

from metacross.cli import main
from metacross.configfile import SCHEMAS, load_config, parse_flat, validate_config
from metacross.errors import ConfigError


def test_parse_flat_basics():
    text = """
    # a comment
    seed = 7
    out = results   # trailing comment
    encoder_channels = 8, 16
    """
    pairs = parse_flat(text)
    assert pairs == {"seed": "7", "out": "results", "encoder_channels": "8, 16"}


def test_parse_flat_errors_name_line_numbers():
    with pytest.raises(ConfigError, match="line 2"):
        parse_flat("a = 1\nnot an assignment\n")
    with pytest.raises(ConfigError, match="line 1: empty key"):
        parse_flat("= 3\n")
    with pytest.raises(ConfigError, match="line 3: duplicate key 'seed'"):
        parse_flat("seed = 1\n\nseed = 2\n")


def test_validate_defaults_per_task():
    seg = validate_config({}, "seg")
    assert seg["extent"] == 32
    assert seg["steps"] == 900
    assert seg["n_train"] == 24
    assert seg["encoder_channels"] == (8,)
    assert seg["decoder_channels"] == (16, 8, 8)
    assert seg["availability_training"] == "shared"
    assert seg["flair_lesion"] == 0.70

    cls = validate_config({}, "cls")
    assert cls["stage_channels"] == (16, 32, 64, 128)
    assert cls["film_stages"] == (2, 3)
    assert cls["trials"] == 20

    cx = validate_config({}, "complexity")
    assert cx["embed_dim"] == 256
    assert cx["input_extent"] == 64

    assert validate_config({}, "gradcheck")["seed"] == 0


def test_validate_converts_types():
    values = validate_config({
        "seed": "5",
        "lr": "1e-3",
        "deep_supervision": "no",
        "gate_missing": "on",
        "decoder_channels": "4, 4",
    }, "seg")
    assert values["seed"] == 5
    assert values["lr"] == 1e-3
    assert values["deep_supervision"] is False
    assert values["gate_missing"] is True
    assert values["decoder_channels"] == (4, 4)


def test_validate_rejects_unknown_key():
    with pytest.raises(ConfigError, match="unknown config key 'typo' for task 'seg'"):
        validate_config({"typo": "1"}, "seg")


def test_validate_rejects_bad_values():
    with pytest.raises(ConfigError, match="'seed': cannot parse 'abc' as int"):
        validate_config({"seed": "abc"}, "seg")
    with pytest.raises(ConfigError, match="'deep_supervision'.*as bool"):
        validate_config({"deep_supervision": "maybe"}, "seg")
    with pytest.raises(ConfigError, match="'encoder_channels'.*as int_list"):
        validate_config({"encoder_channels": "8, x"}, "seg")


def test_validate_rejects_values_below_lower_bound():
    with pytest.raises(ConfigError, match="'lr': '0' must be > 0"):
        validate_config({"lr": "0"}, "seg")
    with pytest.raises(ConfigError, match="'lr': 'nan' must be > 0"):
        validate_config({"lr": "nan"}, "cls")
    with pytest.raises(ConfigError, match="'trials': '0' must be >= 1"):
        validate_config({"trials": "0"}, "cls")
    with pytest.raises(ConfigError, match="'weight_decay': '-1e-4' must be >= 0"):
        validate_config({"weight_decay": "-1e-4"}, "seg")
    # the bounds are inclusive where zero means something
    assert validate_config({"ffn_hidden": "0", "weight_decay": "0"}, "seg")["ffn_hidden"] == 0
    assert validate_config({"encoder_downsamples": "0"}, "complexity")["encoder_downsamples"] == 0


def test_validate_rejects_unknown_task():
    with pytest.raises(ConfigError, match="unknown task"):
        validate_config({}, "nope")


def test_schemas_share_common_keys():
    for schema in SCHEMAS.values():
        assert "seed" in schema
        assert "out" in schema


def test_load_config_reads_and_overrides(tmp_path):
    path = tmp_path / "run.cfg"
    path.write_text("seed = 3\nsteps = 10\n")
    values = load_config(path, "seg", overrides={"seed": 9, "out": None})
    assert values["seed"] == 9  # override wins
    assert values["steps"] == 10
    assert values["out"] == "out"  # None override ignored, default kept


def test_load_config_none_means_defaults():
    values = load_config(None, "cls")
    assert values == validate_config({}, "cls")


def test_load_config_missing_file(tmp_path):
    with pytest.raises(ConfigError, match="cannot read config file"):
        load_config(tmp_path / "absent.cfg", "seg")


def test_cls_rejects_checkpoint_key(tmp_path, capsys):
    # nothing in train-cls or probe-permutation reads a checkpoint, so the key is unknown
    assert "checkpoint" not in SCHEMAS["cls"]
    assert "checkpoint" in SCHEMAS["seg"]  # sweep loads one
    path = tmp_path / "cls.cfg"
    path.write_text("checkpoint = model.ckpt\n")
    for command in ("train-cls", "probe-permutation"):
        assert main([command, "--config", str(path), "--out", str(tmp_path / "out")]) == 1
        assert "unknown config key 'checkpoint' for task 'cls'" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()
