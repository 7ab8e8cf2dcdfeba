"""CLI exit codes, artifacts, and output contracts.

All commands run in-process through ``main(argv)`` so exit codes and stdout
can be asserted directly, except the BLAS thread-count check, which sets the
count in fresh processes. Training commands use micro configs.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import metacross.cli as cli
import metacross.harness as harness
import metacross.segmentation as segmentation
from metacross.cli import GRADCHECK_THRESHOLD, main
from metacross.configfile import load_config


MICRO_SEG = """
extent = 8
n_train = 2
n_eval = 2
steps = 4
embed_dim = 8
patch_size = 2
encoder_channels = 4
decoder_channels = 8, 4
metadata_embed_dim = 8
radius_min = 2.0
radius_max = 3.5
"""

MICRO_CLS = """
extent = 20
n_train = 4
n_eval = 2
steps = 3
batch = 4
stage_channels = 4, 8
film_stages = 1
slices_per_volume = 2
trials = 3
"""


def _write(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


# ---------------------------------------------------------------------------
# exit codes


def test_no_subcommand_is_usage_error(capsys):
    assert main([]) == 1
    assert "subcommand is required" in capsys.readouterr().err


def test_unknown_subcommand_is_usage_error(capsys):
    assert main(["frobnicate"]) == 1
    assert "error:" in capsys.readouterr().err


def test_bad_flag_is_usage_error(capsys):
    assert main(["gradcheck", "--no-such-flag"]) == 1


def test_missing_config_file(capsys):
    assert main(["sweep", "--config", "/nonexistent/path.cfg"]) == 1
    assert "cannot read config file" in capsys.readouterr().err


def test_unknown_config_key_names_it(tmp_path, capsys):
    cfg = _write(tmp_path, "bad.cfg", "not_a_key = 1\n")
    assert main(["sweep", "--config", cfg]) == 1
    assert "not_a_key" in capsys.readouterr().err


def test_unparseable_config_value_names_key(tmp_path, capsys):
    cfg = _write(tmp_path, "bad.cfg", "steps = many\n")
    assert main(["sweep", "--config", cfg]) == 1
    err = capsys.readouterr().err
    assert "steps" in err and "many" in err


def test_zero_steps_is_config_error(tmp_path, capsys):
    # steps = 0 used to end train-seg in an IndexError on the empty loss curve
    cfg = _write(tmp_path, "seg.cfg", MICRO_SEG.replace("steps = 4", "steps = 0"))
    out = tmp_path / "out"
    assert main(["train-seg", "--config", cfg, "--out", str(out)]) == 1
    assert "config key 'steps'" in capsys.readouterr().err
    assert not out.exists()


def test_zero_batch_is_config_error(tmp_path, capsys):
    # batch = 0 used to end probe-permutation in a ZeroDivisionError in the loss
    cfg = _write(tmp_path, "cls.cfg", MICRO_CLS.replace("batch = 4", "batch = 0"))
    out = tmp_path / "out"
    assert main(["probe-permutation", "--config", cfg, "--out", str(out)]) == 1
    assert "config key 'batch'" in capsys.readouterr().err
    assert not out.exists()


def test_negative_seed_flag_names_key(tmp_path, capsys):
    # --seed used to bypass the schema and end in numpy's unnamed "expected non-negative integer"
    out = tmp_path / "out"
    for command in ("gradcheck", "train-seg"):
        assert main([command, "--seed", "-1", "--out", str(out)]) == 1
        assert "config key 'seed'" in capsys.readouterr().err
    assert not out.exists()


def test_negative_seed_in_config_names_key(tmp_path, capsys):
    cfg = _write(tmp_path, "seg.cfg", MICRO_SEG + "seed = -1\n")
    out = tmp_path / "out"
    assert main(["train-seg", "--config", cfg, "--out", str(out)]) == 1
    assert "config key 'seed'" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning",
                            "ignore:invalid value encountered:RuntimeWarning")
def test_non_finite_config_float_names_key(tmp_path, capsys):
    # nan and inf used to reach the phantoms and exit 2 as a numeric failure
    for command, line in (("train-seg", "flair_noise = nan"), ("sweep", "t2_lesion = inf")):
        cfg = _write(tmp_path, "seg.cfg", MICRO_SEG + line + "\n")
        out = tmp_path / "out"
        assert main([command, "--config", cfg, "--out", str(out)]) == 1
        key = line.split(" = ")[0]
        assert f"config key '{key}'" in capsys.readouterr().err
        assert not out.exists()
    # a finite value that makes training diverge is still a numeric failure, in both pipelines
    for command, micro in (("train-seg", MICRO_SEG), ("train-cls", MICRO_CLS), ("probe-permutation", MICRO_CLS)):
        cfg = _write(tmp_path, "diverge.cfg", micro + "lr = 1e308\nweight_decay = 0\n")
        out = tmp_path / "out"
        assert main([command, "--config", cfg, "--out", str(out)]) == 2
        assert "numeric failure" in capsys.readouterr().err
        assert not out.exists()


@pytest.mark.filterwarnings("ignore:invalid value encountered:RuntimeWarning")
@pytest.mark.parametrize("command, first", [
    ("train-seg", "stems.0.0.weight"),
    ("train-cls", "embeddings.sequence_table"),
    ("probe-permutation", "embeddings.sequence_table"),
])
def test_an_update_that_leaves_a_parameter_non_finite_exits_two(tmp_path, capsys, command, first):
    # lr * weight_decay overflows, so the update would leave `first` non-finite; a product
    # of 2 or more is a bad input, refused before anything runs, and the post-update guard
    # is not reached (test_nn drives that guard directly)
    micro = MICRO_SEG if command == "train-seg" else MICRO_CLS
    lines = [line for line in micro.splitlines() if not line.startswith("steps")]
    cfg = _write(tmp_path, "blowup.cfg", "\n".join(lines + ["steps = 1", "lr = 10", "weight_decay = 1e308"]))
    out = tmp_path / "out"
    assert main([command, "--config", cfg, "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert "config keys 'lr', 'weight_decay'" in err and first not in err
    assert not out.exists()


def test_seg_radius_errors_name_their_keys(tmp_path, capsys):
    # radius_max 3.6 at extent 8 left no room for a sphere's centre: numpy's unnamed "high - low < 0"
    for radii, keys in (("radius_min = 9\nradius_max = 4\n", ("radius_min 9.0", "radius_max 4.0")),
                        ("radius_min = 2\nradius_max = 5\n", ("radius_max 5.0", "extent")),
                        ("radius_min = 3.5\nradius_max = 3.6\n", ("radius_max 3.6", "extent"))):
        cfg = _write(tmp_path, "seg.cfg", MICRO_SEG.replace("radius_min = 2.0\nradius_max = 3.5\n", radii))
        out = tmp_path / "out"
        assert main(["train-seg", "--config", cfg, "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert all(key in err for key in keys), err
        assert not out.exists()


def test_cls_extent_too_small_names_key_and_minimum(tmp_path, capsys):
    # the cls schema has no radius key: the phantoms' fixed radii set the smallest extent;
    # extent 18 used to pass and end in numpy's unnamed "high - low < 0" in the phantoms
    cfg = _write(tmp_path, "cls.cfg", MICRO_CLS.replace("extent = 20", "extent = 18"))
    for command in ("train-cls", "probe-permutation"):
        out = tmp_path / "out"
        assert main([command, "--config", cfg, "--out", str(out)]) == 1
        assert "config key 'extent': '18' must be >= 19" in capsys.readouterr().err
        assert not out.exists()


@pytest.mark.parametrize("command, key, value", [
    ("train-seg", "n_train", "99999999999999999999"),
    ("train-seg", "n_eval", "99999999999999999999"),
    ("train-seg", "extent", "2048"),
    ("train-cls", "n_train", "99999999999999999999"),
    ("train-cls", "n_eval", "99999999999999999999"),
    ("train-cls", "extent", "4096"),
])
def test_phantom_set_too_large_names_key_before_generating(tmp_path, capsys, monkeypatch, command, key, value):
    # the sets were generated whole until memory ran out: a numpy memory-error traceback
    def refuse(*args, **kwargs):
        pytest.fail("phantoms were generated")

    monkeypatch.setattr(harness, "generate_seg_phantoms", refuse)
    monkeypatch.setattr(harness, "generate_cls_phantoms", refuse)
    base = MICRO_SEG if command == "train-seg" else MICRO_CLS
    text = "\n".join(f"{key} = {value}" if raw.split("=")[0].strip() == key else raw for raw in base.splitlines())
    out = tmp_path / "out"
    assert main([command, "--config", _write(tmp_path, "big.cfg", text), "--out", str(out)]) == 1
    assert f"config key {key!r}: {value} needs" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("command, key, value", [
    ("train-seg", "embed_dim", "100000"),
    ("train-seg", "encoder_channels", "1000000"),
    ("train-cls", "stage_channels", "4, 1000000"),
    ("complexity", "n_layers", "99999999999999999999"),
])
def test_oversized_width_or_depth_names_key_before_building(tmp_path, capsys, monkeypatch, command, key, value):
    def refuse(*args, **kwargs):
        pytest.fail("the run went past config validation")

    for name in ("generate_seg_phantoms", "generate_cls_phantoms", "SegModel", "FilmClassifier"):
        monkeypatch.setattr(harness, name, refuse)
    monkeypatch.setattr(cli, "compare_bottlenecks", refuse)
    base = {"train-seg": MICRO_SEG, "train-cls": MICRO_CLS, "complexity": ""}[command]
    text = "\n".join(raw for raw in base.splitlines() if raw.split("=")[0].strip() != key) + f"\n{key} = {value}\n"
    out = tmp_path / "out"
    assert main([command, "--config", _write(tmp_path, "big.cfg", text), "--out", str(out)]) == 1
    assert f"config key {key!r}: {value!r} must be" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("command", ["train-seg", "train-cls", "sweep", "complexity", "probe-permutation"])
def test_unusable_out_names_key_before_any_work(tmp_path, capsys, monkeypatch, command):
    # an existing file as --out used to fail with an unnamed "[Errno 17] File exists"
    # once training had finished
    def refuse(*args, **kwargs):
        pytest.fail("the run went past config validation")

    for name in ("generate_seg_phantoms", "generate_cls_phantoms", "SegModel", "FilmClassifier"):
        monkeypatch.setattr(harness, name, refuse)
    monkeypatch.setattr(cli, "compare_bottlenecks", refuse)
    micro = {"train-seg": MICRO_SEG, "sweep": MICRO_SEG, "complexity": ""}.get(command, MICRO_CLS)
    cfg = _write(tmp_path, "run.cfg", micro)
    taken = tmp_path / "taken"
    taken.write_text("keep")
    for out in (taken, taken / "sub"):
        assert main([command, "--config", cfg, "--out", str(out)]) == 1
        assert f"config key 'out': {taken} exists and is not a directory" in capsys.readouterr().err
    assert taken.read_text() == "keep"


@pytest.mark.parametrize("command, line, key", [
    ("train-seg", "encoder_channels = 4, 4", "decoder_channels"),
    ("train-cls", "film_stages = 0", "film_stages"),
    ("train-seg", "encoder_channels = ", "encoder_channels"),
    ("train-seg", "decoder_channels = ", "decoder_channels"),
    ("sweep", "patch_size = 3", "patch_size"),
    ("train-cls", "stage_channels = ", "stage_channels"),
    ("train-seg", "flair_lesion = 0.2\nt1c_lesion = 0.3\nt1_lesion = 0.5\nt2_lesion = 0.25", "flair_lesion"),
    ("train-cls", "extent = 19\nstage_channels = 4, 4, 4, 4, 4\nfilm_stages = 3, 4",
     "config keys 'extent', 'stage_channels': extent 19 is too small for 5 halving stages (needs >= 32)"),
])
def test_model_geometry_errors_name_their_key(tmp_path, capsys, monkeypatch, command, line, key):
    # they ended "decoder must undo a x8 downsample: ...", "modulation is injected
    # progressively ...", "encoder channel list is empty", "decoder needs at least one
    # stage", "total downsample factor 6 must be a power of two", "classifier needs at
    # least one stage", "lesion level must differ from background ..." and, in the first
    # forward, "input 19x19 too small for 5 halving stages (min 32)", naming no key; the
    # first two and the last after the phantom sets were made
    def refuse(*args, **kwargs):
        pytest.fail("phantoms were generated")

    monkeypatch.setattr(harness, "generate_seg_phantoms", refuse)
    monkeypatch.setattr(harness, "generate_cls_phantoms", refuse)
    micro = MICRO_SEG if command in ("train-seg", "sweep") else MICRO_CLS
    names = {raw.split(" = ")[0] for raw in line.splitlines()}
    text = "\n".join(raw for raw in micro.splitlines() if raw.split("=")[0].strip() not in names) + f"\n{line}\n"
    out = tmp_path / "out"
    assert main([command, "--config", _write(tmp_path, "bad.cfg", text), "--out", str(out)]) == 1
    assert f"error: {key}" in capsys.readouterr().err
    assert not out.exists()


def test_removed_seg_options_exit_one(tmp_path, capsys):
    for line in ("direct_patch = true", "gate_missing = false"):
        cfg = _write(tmp_path, "seg.cfg", MICRO_SEG + line + "\n")
        assert main(["train-seg", "--config", cfg, "--out", str(tmp_path / "out")]) == 1
        assert f"unknown config key '{line.split(' = ')[0]}'" in capsys.readouterr().err
    # rejected at load, so a checkpointed sweep no longer skips the check
    cfg = _write(tmp_path, "seg.cfg",
                 MICRO_SEG + "availability_training = per_scenario\ncheckpoint = model.ckpt\n")
    assert main(["sweep", "--config", cfg, "--out", str(tmp_path / "out")]) == 1
    assert "config key 'availability_training'" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_train_seg_refuses_checkpoint_before_any_work(tmp_path, capsys, monkeypatch):
    # train-seg used to ignore the key and write a freshly trained model; only sweep reads one
    def refuse(*args, **kwargs):
        pytest.fail("the run went past the checkpoint check")

    for name in ("generate_seg_phantoms", "SegModel"):
        monkeypatch.setattr(harness, name, refuse)
    cfg = _write(tmp_path, "seg.cfg", MICRO_SEG + "checkpoint = /nonexistent.ckpt\n")
    out = tmp_path / "out"
    assert main(["train-seg", "--config", cfg, "--out", str(out)]) == 1
    assert "config key 'checkpoint'" in capsys.readouterr().err
    assert not out.exists()


def test_numeric_failure_exits_two(monkeypatch, capsys):
    monkeypatch.setattr(cli, "gradcheck_suite", lambda seed: {"matmul": 1.0})
    assert main(["gradcheck"]) == 2
    out = capsys.readouterr()
    assert "FAIL" in out.out
    assert "numeric failure" in out.err


# ---------------------------------------------------------------------------
# gradcheck


def test_gradcheck_passes_and_reports(capsys):
    assert main(["gradcheck", "--seed", "0"]) == 0
    out = capsys.readouterr().out
    for name in ("matmul", "masked_softmax", "layer_norm", "conv2d", "conv3d",
                 "film", "attention_block", "combined_loss"):
        assert name in out
    assert out.count("ok") == 8
    assert "FAIL" not in out
    assert GRADCHECK_THRESHOLD == 1e-4


# ---------------------------------------------------------------------------
# complexity


def test_complexity_writes_csv_and_prints_summary(tmp_path, capsys):
    out = tmp_path / "cx"
    assert main(["complexity", "--out", str(out)]) == 0
    printed = capsys.readouterr().out
    assert "parameter reduction: 32.2%" in printed
    assert "flop reduction:      49.6%" in printed
    csv_path = out / "complexity_comparison.csv"
    assert csv_path.exists()
    assert f"wrote {csv_path}" in printed
    body = csv_path.read_text()
    assert body.splitlines()[0].startswith("# counting convention")


def test_complexity_is_byte_identical_across_runs(tmp_path, capsys):
    out_a, out_b = tmp_path / "a", tmp_path / "b"
    assert main(["complexity", "--out", str(out_a)]) == 0
    first = capsys.readouterr().out.replace(str(out_a), "OUT")
    assert main(["complexity", "--out", str(out_b)]) == 0
    second = capsys.readouterr().out.replace(str(out_b), "OUT")
    assert first == second
    assert (out_a / "complexity_comparison.csv").read_bytes() == \
        (out_b / "complexity_comparison.csv").read_bytes()


def test_complexity_token_count_errors_exit_one(tmp_path, capsys):
    for line in ("input_extent = 60", "encoder_downsamples = 99999999999999999999"):
        cfg = _write(tmp_path, "cx.cfg", line + "\n")
        assert main(["complexity", "--config", cfg, "--out", str(tmp_path / "cx")]) == 1
        assert "not divisible by downsample" in capsys.readouterr().err
    assert not (tmp_path / "cx").exists()


# ---------------------------------------------------------------------------
# training commands on micro configs


def test_train_seg_writes_artifacts(tmp_path, capsys):
    cfg = _write(tmp_path, "seg.cfg", MICRO_SEG)
    out = tmp_path / "run"
    assert main(["train-seg", "--config", cfg, "--out", str(out)]) == 0
    printed = capsys.readouterr().out
    assert "trained 4 steps" in printed
    assert (out / "checkpoint.ckpt").exists()
    loss_lines = (out / "loss_curve.csv").read_text().strip().split("\n")
    assert loss_lines[0] == "step,loss"
    assert len(loss_lines) == 5


def test_sweep_prints_table_and_writes_artifacts(tmp_path, capsys):
    cfg = _write(tmp_path, "seg.cfg", MICRO_SEG)
    out = tmp_path / "run"
    assert main(["sweep", "--config", cfg, "--out", str(out)]) == 0
    printed = capsys.readouterr().out
    assert "FLAIR" in printed and "average dice" in printed
    csv_lines = (out / "scenarios.csv").read_text().strip().split("\n")
    assert csv_lines[0] == "flair,t1c,t1,t2,dice,n"
    assert len(csv_lines) == 17
    payload = json.loads((out / "scenarios.json").read_text())
    assert len(payload["scenarios"]) == 15
    assert (out / "checkpoint.ckpt").exists()
    assert (out / "loss_curve.csv").exists()


def test_sweep_seed_override_changes_json(tmp_path):
    cfg = _write(tmp_path, "seg.cfg", MICRO_SEG)
    assert main(["sweep", "--config", cfg, "--out", str(tmp_path / "s0"), "--seed", "0"]) == 0
    assert main(["sweep", "--config", cfg, "--out", str(tmp_path / "s5"), "--seed", "5"]) == 0
    a = json.loads((tmp_path / "s0" / "scenarios.json").read_text())
    b = json.loads((tmp_path / "s5" / "scenarios.json").read_text())
    assert a["seed"] == 0 and b["seed"] == 5


def test_sweep_rejects_non_finite_checkpoint(tmp_path, capsys):
    # a NaN head weight used to give exit 0 with dice 0.0000 in every scenario
    assert main(["train-seg", "--config", _write(tmp_path, "seg.cfg", MICRO_SEG),
                 "--out", str(tmp_path / "run")]) == 0
    ckpt = tmp_path / "run" / "checkpoint.ckpt"
    raw = bytearray(ckpt.read_bytes())
    data = raw.index(b"head.weight") + len(b"head.weight") + 1 + 4 * 5  # past the rank byte and shape
    raw[data:data + 8] = np.float64(np.nan).tobytes()
    ckpt.write_bytes(bytes(raw))
    capsys.readouterr()
    cfg = _write(tmp_path, "sweep.cfg", MICRO_SEG + f"checkpoint = {ckpt}\n")
    assert main(["sweep", "--config", cfg, "--out", str(tmp_path / "out")]) == 1
    assert "parameter head.weight has non-finite values" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


@pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning",
                            "ignore:invalid value encountered:RuntimeWarning")
def test_sweep_exits_two_when_the_logits_overflow(tmp_path, capsys):
    # finite decoder weights of 1e308 overflow the logits past the attention; the
    # arg-max used to turn them into labels and the sweep wrote dice from them
    assert main(["train-seg", "--config", _write(tmp_path, "seg.cfg", MICRO_SEG),
                 "--out", str(tmp_path / "run")]) == 0
    values = load_config(_write(tmp_path, "seg.cfg", MICRO_SEG), "seg")
    model = segmentation.SegModel(harness.seg_config_from_values(values))
    ckpt = tmp_path / "run" / "checkpoint.ckpt"
    segmentation.load_checkpoint(model, ckpt)
    for conv in model.decoder + [model.head]:
        conv.weight.data[...] = 1e308
    segmentation.save_checkpoint(model, ckpt)
    capsys.readouterr()
    cfg = _write(tmp_path, "sweep.cfg", MICRO_SEG + f"checkpoint = {ckpt}\n")
    assert main(["sweep", "--config", cfg, "--out", str(tmp_path / "out")]) == 2
    assert "numeric failure: predict_labels: the logits are not finite" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_train_cls_writes_artifacts(tmp_path, capsys):
    cfg = _write(tmp_path, "cls.cfg", MICRO_CLS)
    out = tmp_path / "run"
    assert main(["train-cls", "--config", cfg, "--out", str(out)]) == 0
    assert "trained 3 steps" in capsys.readouterr().out
    assert (out / "checkpoint.ckpt").exists()
    assert (out / "loss_curve.csv").exists()


def test_probe_permutation_writes_json(tmp_path, capsys):
    cfg = _write(tmp_path, "cls.cfg", MICRO_CLS)
    out = tmp_path / "run"
    assert main(["probe-permutation", "--config", cfg, "--out", str(out)]) == 0
    printed = capsys.readouterr().out
    assert "true accuracy" in printed
    assert "delta" in printed
    payload = json.loads((out / "probe.json").read_text())
    assert set(payload) == {"true_accuracy", "mean_shuffled_accuracy", "delta",
                            "delta_ci_low", "delta_ci_high", "trials", "n_eval_samples"}
    assert payload["trials"] == 3
    assert "model" not in payload


def _assert_same_at_one_and_two_blas_threads(tmp_path, command, cfg, files):
    """Run ``command`` in a subprocess at 1 and at 2 BLAS threads; ``files`` must be byte-identical."""
    src = Path(__file__).resolve().parents[1] / "src"
    payloads = []
    for threads in ("1", "2"):
        out = tmp_path / f"threads_{threads}"
        env = {**os.environ, "PYTHONPATH": str(src), "OPENBLAS_NUM_THREADS": threads, "OMP_NUM_THREADS": threads}
        subprocess.run([sys.executable, "-m", "metacross.cli", command, "--config", cfg, "--out", str(out)],
                       env=env, check=True, capture_output=True, timeout=300)
        payloads.append([(out / f).read_bytes() for f in files])
    for name, one, two in zip(files, *payloads):
        assert one == two, f"{name} differs between 1 and 2 BLAS threads"


@pytest.mark.slow
def test_sweep_outputs_do_not_depend_on_blas_thread_count(tmp_path):
    # at extent 32, decoder2's phase GEMM ([64 x 64] @ [64 x 5,508]) is large enough for
    # OpenBLAS to split across threads
    cfg = _write(tmp_path, "sweep.cfg", "steps = 20\nn_train = 4\nn_eval = 2\nseed = 5\n")
    _assert_same_at_one_and_two_blas_threads(
        tmp_path, "sweep", cfg, ("scenarios.csv", "scenarios.json", "loss_curve.csv", "checkpoint.ckpt"))


@pytest.mark.slow
def test_probe_outputs_do_not_depend_on_blas_thread_count(tmp_path):
    # the default classifier geometry: its strided conv GEMMs and the probe's one-forward evaluation
    cfg = _write(tmp_path, "cls.cfg", "steps = 40\nn_train = 8\nn_eval = 8\ntrials = 3\nseed = 5\n")
    _assert_same_at_one_and_two_blas_threads(tmp_path, "probe-permutation", cfg, ("probe.json", "checkpoint.ckpt"))
