"""Flat config parsing, schema validation, and file loading."""

from dataclasses import replace
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from metacross.cli import main
from metacross.configfile import SCHEMAS, load_config, parse_flat, validate_config
from metacross.errors import ConfigError
from metacross.classifier import FilmClassifier
from metacross.harness import (_cls_loss, _cls_phantom_spec, _phantom_spec,
                               classifier_config_from_values, seg_config_from_values)
from metacross.nn import Adam, optimize
from metacross.phantoms import PhantomSpec, generate_cls_phantoms, generate_seg_phantoms
from metacross.segmentation import SegModel, train_step


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
        "decoder_channels": "4, 4",
    }, "seg")
    assert values["seed"] == 5
    assert values["lr"] == 1e-3
    assert values["deep_supervision"] is False
    assert validate_config({"deep_supervision": "on"}, "seg")["deep_supervision"] is True
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
    # an empty entry is a typo, not a shorter list
    for task, key, raw in (("seg", "decoder_channels", "16,,8,8"), ("seg", "encoder_channels", ", 8"),
                           ("cls", "film_stages", "3,"), ("cls", "stage_channels", "16, 32, ,64")):
        with pytest.raises(ConfigError, match=f"config key '{key}': cannot parse {raw!r} as int_list"):
            validate_config({key: raw}, task)
    # an empty value is the empty list: film_stages = leaves the classifier image-only
    assert validate_config({"film_stages": " "}, "cls")["film_stages"] == ()


def test_validate_rejects_values_below_lower_bound():
    with pytest.raises(ConfigError, match="'lr': '0' must be > 0"):
        validate_config({"lr": "0"}, "seg")
    with pytest.raises(ConfigError, match="'lr': 'nan' must be > 0"):
        validate_config({"lr": "nan"}, "cls")
    with pytest.raises(ConfigError, match="'trials': '0' must be >= 1"):
        validate_config({"trials": "0"}, "cls")
    with pytest.raises(ConfigError, match="'weight_decay': '-1e-4' must be >= 0"):
        validate_config({"weight_decay": "-1e-4"}, "seg")
    # phantom contrasts: a noise of 1e308 overflowed the phantom volumes
    with pytest.raises(ConfigError, match=r"'t1_noise': '1e308' must be within \(0.0, 1000.0\)"):
        validate_config({"t1_noise": "1e308"}, "seg")
    with pytest.raises(ConfigError, match=r"'flair_noise': '-0.1' must be within"):
        validate_config({"flair_noise": "-0.1"}, "seg")
    with pytest.raises(ConfigError, match=r"'t2_background': '-1001' must be within \(-1000.0, 1000.0\)"):
        validate_config({"t2_background": "-1001"}, "seg")
    # the bounds are inclusive where zero means something
    assert validate_config({"ffn_hidden": "0", "weight_decay": "0"}, "seg")["ffn_hidden"] == 0
    assert validate_config({"t1_noise": "0", "t1_lesion": "1000"}, "seg")["t1_lesion"] == 1000.0
    assert validate_config({"encoder_downsamples": "0"}, "complexity")["encoder_downsamples"] == 0


def test_validate_rejects_non_finite_floats():
    with pytest.raises(ConfigError, match="'flair_noise': 'nan' is not a finite number"):
        validate_config({"flair_noise": "nan"}, "seg")
    with pytest.raises(ConfigError, match="'t2_lesion': 'inf' is not a finite number"):
        validate_config({"t2_lesion": "inf"}, "seg")
    with pytest.raises(ConfigError, match="'radius_max': '-inf' is not a finite number"):
        validate_config({"radius_max": "-inf"}, "seg")
    # inf passes the lower bound of lr and is caught by the finiteness check
    with pytest.raises(ConfigError, match="'lr': 'inf' is not a finite number"):
        validate_config({"lr": "inf"}, "cls")
    assert validate_config({"lr": "1e308", "weight_decay": "0"}, "seg")["lr"] == 1e308


def test_lr_times_weight_decay_below_two_names_both_keys():
    # from a product of 2 on, decoupled decay multiplies each weight by |1 - lr * weight_decay| >= 1
    for task in ("seg", "cls"):
        for lr, wd in (("10", "1e308"), ("1", "2"), ("1e308", "1e-4")):
            with pytest.raises(ConfigError, match="config keys 'lr', 'weight_decay'"):
                validate_config({"lr": lr, "weight_decay": wd}, task)
        assert validate_config({"lr": "1", "weight_decay": "1.99"}, task)["weight_decay"] == 1.99
        with pytest.raises(ConfigError, match="config keys 'lr', 'weight_decay'"):
            validate_config({}, task, {"lr": 4.0, "weight_decay": 0.5})
    assert all({"lr", "weight_decay"} <= SCHEMAS[t].keys() for t in ("seg", "cls"))
    assert not {"lr", "weight_decay"} & (SCHEMAS["complexity"].keys() | SCHEMAS["gradcheck"].keys())


def test_availability_training_accepts_only_shared():
    assert validate_config({"availability_training": "shared"}, "seg")["availability_training"] == "shared"
    for bad in ("per_scenario", "both"):
        with pytest.raises(ConfigError, match=f"'availability_training': '{bad}' must be in"):
            validate_config({"availability_training": bad}, "seg")
    # the benchmark's training config sets the key and still loads
    values = load_config(Path(__file__).resolve().parents[1] / "perfbench/weights/train_seg.cfg", "seg")
    assert values["availability_training"] == "shared"


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


def test_cls_extent_bound_fits_the_phantom_radius():
    # cls phantoms use PhantomSpec's default radii; a sphere's centre is drawn from
    # [r, extent - 1 - r], so the largest radius needs extent 2 * r + 1. At the old floor
    # of 18, generation failed with numpy's "high - low < 0" whenever r > 8.5 was drawn.
    op, low = SCHEMAS["cls"]["extent"][2]
    largest = PhantomSpec().radius_range[1]
    assert (op, low) == (">=", 2 * largest + 1)
    spec = _cls_phantom_spec(validate_config({"extent": str(low)}, "cls"), 4, 0)
    assert len(generate_cls_phantoms(spec)) == 12
    generate_cls_phantoms(replace(spec, radius_range=(largest, largest)))  # the largest radius at the floor


def test_phantom_sets_past_the_byte_ceiling_name_their_key():
    # 1 GiB holds 819 seg samples of 40 bytes per voxel at 32^3, and one cls volume
    # of 8 bytes per voxel up to extent 512
    assert validate_config({"n_train": "819", "n_eval": "819"}, "seg")["n_train"] == 819
    for key in ("n_train", "n_eval"):
        with pytest.raises(ConfigError, match=f"config key '{key}': 820 needs"):
            validate_config({key: "820"}, "seg")
    assert validate_config({"extent": "512", "n_train": "1", "n_eval": "1"}, "cls")["extent"] == 512
    with pytest.raises(ConfigError, match="config key 'extent': 513 needs"):
        validate_config({"extent": "513", "n_train": "1", "n_eval": "1"}, "cls")


def _assert_capped(task, key, top, over):
    validate_config({key: top}, task)  # the cap itself is accepted
    with pytest.raises(ConfigError, match=f"config key {key!r}: {over!r} must be"):
        validate_config({key: over}, task)


def test_seg_width_and_depth_keys_have_caps_that_name_them():
    # embed_dim = 100000 went on to an uncaught numpy memory-error traceback
    for key, top in (("embed_dim", "1024"), ("metadata_embed_dim", "1024"), ("ffn_hidden", "4096"),
                     ("n_layers", "24"), ("n_seg_classes", "16")):
        _assert_capped("seg", key, top, str(int(top) + 1))
    _assert_capped("seg", "embed_dim", "1024", "1" + "0" * 400)  # compared exactly, not as a float
    _assert_capped("seg", "encoder_channels", "256", "8, 257")
    _assert_capped("seg", "decoder_channels", "256, 256, 256", "16, 8, 257")
    with pytest.raises(ConfigError, match="config key 'decoder_channels': '16, 0, 8' must be all within"):
        validate_config({"decoder_channels": "16, 0, 8"}, "seg")


def test_cls_stage_channels_have_a_cap_that_names_the_key():
    # stage_channels = 16,32,64,1000000 went on to an uncaught numpy memory-error traceback
    _assert_capped("cls", "stage_channels", "512, 512, 512, 512", "16,32,64,1000000")


def test_complexity_depth_has_a_cap_that_names_the_key():
    _assert_capped("complexity", "n_layers", "24", "25")


@pytest.mark.parametrize("task, pairs, keys", [
    # each passed the per-key caps and then ended in a numpy memory-error traceback
    ("seg", {"extent": "128", "patch_size": "64", "decoder_channels": "8, 8, 8, 8, 8, 8, 8"},
     "'encoder_channels', 'patch_size', 'embed_dim'"),  # a 67 M-weight tokenizer
    ("seg", {"embed_dim": "1024", "n_layers": "24"}, "'embed_dim', 'ffn_hidden', 'n_layers'"),
    ("seg", {"extent": "256"}, "'extent', 'decoder_channels'"),  # a 1 GB decoder activation
    ("cls", {"batch": "1000000000"}, "'batch', 'extent', 'stage_channels'"),
    ("cls", {"n_eval": "4096", "slices_per_volume": "32"},  # one 4 GB evaluation forward
     "'n_eval', 'slices_per_volume', 'extent', 'stage_channels'"),
])
def test_model_byte_ceiling_names_the_keys_in_the_product(task, pairs, keys):
    with pytest.raises(ConfigError, match=f"config keys {keys}: the {task} model needs about"):
        validate_config({"n_train": "1", "n_eval": "1", **pairs}, task)


def test_load_config_none_means_defaults():
    values = load_config(None, "cls")
    assert values == validate_config({}, "cls")


def test_load_config_missing_file(tmp_path):
    with pytest.raises(ConfigError, match="cannot read config file"):
        load_config(tmp_path / "absent.cfg", "seg")


def test_load_config_names_a_file_that_is_not_utf8(tmp_path, capsys):
    path = tmp_path / "latin1.cfg"
    path.write_bytes(b"steps = 10  # caf\xe9\n")
    with pytest.raises(ConfigError, match=r"cannot read config file .*latin1\.cfg: 'utf-8' codec"):
        load_config(path, "seg")
    assert main(["train-seg", "--config", str(path), "--out", str(tmp_path / "out")]) == 1
    assert "cannot read config file" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


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


# ---------------------------------------------------------------------------
# property: any assignment either builds the model and phantoms and runs one
# training step through the shared optimizer step, or is a ValueError; a
# NumericError is not a ValueError, so a step that goes non-finite fails

_JUNK = st.sampled_from(["", "x", "1.5", "-0", "99999999999999999999"])
_RAW = {
    "int": st.one_of(st.sampled_from([0, 1, 2, 4, 8, 16, 32]), st.integers(-2, 70)).map(str) | _JUNK,
    "float": st.floats(-20.0, 20.0).map(repr) | st.sampled_from(["nan", "inf", "-inf", "1e308", "0"]) | _JUNK,
    "bool": st.sampled_from(["true", "off", "yes", "0", "maybe", ""]),
    "str": st.sampled_from(["shared", "per_scenario", "", "run.ckpt"]),
    "int_list": st.lists(st.integers(-1, 40), max_size=5).map(lambda xs: ", ".join(map(str, xs))) | _JUNK,
}
# drawn keys override a small valid seg run, so most accepted seg draws take a step
_BASE = {"seg": {"extent": "16", "radius_min": "2", "radius_max": "4"}, "cls": {}}
_STEP_MAX_SEG_EXTENT = 16  # larger seg volumes are built but not stepped, to keep the property fast


def _build_and_step_seg(v):
    model = SegModel(seg_config_from_values(v))
    batch = generate_seg_phantoms(_phantom_spec(v, 1, 0))[0]
    if v["extent"] <= _STEP_MAX_SEG_EXTENT:
        train_step(model, batch, Adam(), lr=v["lr"], weight_decay=v["weight_decay"], clip=v["clip"],
                   total_epochs=v["steps"])


def _build_and_step_cls(v):
    model = FilmClassifier(classifier_config_from_values(v))
    sample = generate_cls_phantoms(_cls_phantom_spec(v, 1, 0), v["slices_per_volume"])[0]
    optimize(model, lambda: _cls_loss(model, [sample]), Adam(), v["lr"], v["weight_decay"], v["clip"])


_BUILD = {"seg": _build_and_step_seg, "cls": _build_and_step_cls}


@pytest.mark.parametrize("task", sorted(_BUILD))
@settings(derandomize=True, max_examples=300, deadline=None, database=None)
@given(data=st.data())
def test_any_assignment_builds_or_is_value_error(task, data):
    schema = SCHEMAS[task]
    keys = data.draw(st.lists(st.sampled_from(sorted(schema)), max_size=6, unique=True))
    pairs = {**_BASE[task], **{k: data.draw(_RAW[schema[k][0]]) for k in keys}}
    try:
        values = validate_config(pairs, task)
        _BUILD[task](values)
    except ValueError:
        pass
