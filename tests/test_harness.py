"""Scenario enumeration, artifact rendering, and the training harnesses.

Full-length training runs live in the acceptance module; here the harness
is exercised on reduced geometry so the whole file stays fast.
"""

from itertools import combinations

import numpy as np
import pytest

from metacross.configfile import validate_config
from metacross.errors import NumericError
from metacross.harness import (
    FULL_PATTERN_BIAS,
    LESION_CLASS,
    ScenarioResult,
    _cls_loss,
    _phantom_spec,
    classifier_config_from_values,
    enumerate_scenarios,
    gradcheck_suite,
    render_loss_csv,
    render_probe_json,
    render_sweep_csv,
    render_sweep_json,
    run_sweep,
    seg_config_from_values,
    train_classifier,
    train_segmentation,
    write_sweep_outputs,
)
from metacross.phantoms import DEFAULT_CONTRASTS, PhantomSpec, generate_cls_phantoms
from metacross.classifier import FilmClassifier, ClassifierConfig
from metacross.segmentation import SegConfig
from metacross.tensor import Tensor
import metacross.tensor as T


MICRO_SEG = {
    "extent": "8",
    "n_train": "2",
    "n_eval": "2",
    "steps": "4",
    "embed_dim": "8",
    "patch_size": "2",
    "encoder_channels": "4",
    "decoder_channels": "8, 4",
    "metadata_embed_dim": "8",
    "radius_min": "2.0",
    "radius_max": "3.5",
}


def _micro_seg_values(**kw):
    pairs = dict(MICRO_SEG)
    pairs.update({k: str(v) for k, v in kw.items()})
    return validate_config(pairs, "seg")


def test_constants():
    assert LESION_CLASS == 1
    assert 0.0 < FULL_PATTERN_BIAS < 1.0


def test_enumerate_scenarios_matches_subset_enumeration():
    got = enumerate_scenarios()
    want = []
    for k in range(1, 5):
        for combo in combinations(range(4), k):
            want.append(tuple(i in combo for i in range(4)))
    assert got == want
    assert len(got) == 15
    assert got[0] == (True, False, False, False)   # FLAIR alone comes first
    assert got[-1] == (True, True, True, True)     # the full set comes last
    assert len(set(got)) == 15


def test_seg_config_from_values_roundtrip():
    values = _micro_seg_values()
    cfg = seg_config_from_values(values)
    assert cfg.extent == 8
    assert cfg.attention.embed_dim == 8
    assert cfg.attention.ffn_hidden == 32  # 0 in the file means 4x default
    assert cfg.encoder_channels == (4,)
    assert cfg.decoder_channels == (8, 4)


def test_cli_defaults_build_the_api_defaults():
    seg = validate_config({}, "seg")
    assert seg_config_from_values(seg) == SegConfig()
    assert classifier_config_from_values(validate_config({}, "cls")) == ClassifierConfig()
    spec, default = _phantom_spec(seg, 8, 0), PhantomSpec()
    assert (spec.extent, spec.radius_range) == (default.extent, default.radius_range)
    assert spec.contrasts == DEFAULT_CONTRASTS


def test_train_segmentation_returns_losses():
    values = _micro_seg_values()
    model, losses = train_segmentation(values)
    assert len(losses) == 4
    assert all(np.isfinite(v) for v in losses)
    assert model.cfg.extent == 8


def test_run_sweep_covers_all_scenarios():
    values = _micro_seg_values()
    sweep = run_sweep(values)
    assert len(sweep["results"]) == 15
    assert [r.available for r in sweep["results"]] == enumerate_scenarios()
    assert all(r.n_samples == 2 for r in sweep["results"])
    assert all(0.0 <= r.dice <= 1.0 for r in sweep["results"])
    assert sweep["average"] == pytest.approx(np.mean([r.dice for r in sweep["results"]]))


def test_run_sweep_from_checkpoint_skips_training(tmp_path):
    values = _micro_seg_values()
    sweep = run_sweep(values)
    paths = write_sweep_outputs(tmp_path, sweep)
    again = run_sweep(_micro_seg_values(checkpoint=str(paths["checkpoint"])))
    assert again["losses"] == []
    for a, b in zip(sweep["results"], again["results"]):
        assert a.dice == b.dice


def test_write_sweep_outputs_files(tmp_path):
    values = _micro_seg_values()
    sweep = run_sweep(values)
    paths = write_sweep_outputs(tmp_path, sweep)
    assert paths["csv"].read_text() == sweep["csv"]
    assert paths["json"].read_text() == sweep["json"]
    assert paths["loss"].read_text().startswith("step,loss\n")
    assert paths["checkpoint"].read_bytes()[:4] == b"MCKP"


# ---------------------------------------------------------------------------
# rendering


def _fake_results():
    out = []
    for i, pattern in enumerate(enumerate_scenarios()):
        out.append(ScenarioResult(pattern, (i + 1) / 16.0, 3, 0.01 * i))
    return out


def test_render_sweep_csv_layout():
    text = render_sweep_csv(_fake_results())
    lines = text.strip().split("\n")
    assert lines[0] == "flair,t1c,t1,t2,dice,n"
    assert len(lines) == 17  # header + 15 scenarios + average row
    assert lines[1] == "1,0,0,0,0.062500,3"
    assert lines[-2] == "1,1,1,1,0.937500,3"
    avg = np.mean([(i + 1) / 16.0 for i in range(15)])
    assert lines[-1] == f"avg,avg,avg,avg,{avg:.6f},3"


def test_render_sweep_json_layout():
    import json

    text = render_sweep_json(_fake_results(), seed=9)
    payload = json.loads(text)
    assert payload["modality_order"] == ["FLAIR", "T1c", "T1", "T2"]
    assert payload["seed"] == 9
    assert len(payload["scenarios"]) == 15
    assert payload["scenarios"][0]["available"] == {
        "FLAIR": True, "T1c": False, "T1": False, "T2": False}
    assert payload["scenarios"][0]["dice"] == 0.0625
    # wall time must never leak into artifacts
    assert "wall" not in text and "time" not in text


def test_render_loss_csv_layout():
    text = render_loss_csv([1.5, 0.25])
    assert text == "step,loss\n0,1.50000000\n1,0.25000000\n"


def test_render_probe_json_drops_model_and_rounds():
    import json

    probe = {"model": object(), "losses": [1.0], "true_accuracy": 0.8123456789,
             "delta": 0.1, "trials": 5, "n_eval_samples": 12,
             "mean_shuffled_accuracy": 0.7, "delta_ci_low": 0.05, "delta_ci_high": 0.15}
    payload = json.loads(render_probe_json(probe))
    assert "model" not in payload and "losses" not in payload
    assert payload["true_accuracy"] == 0.812346
    assert payload["trials"] == 5


# ---------------------------------------------------------------------------
# classifier harness


def test_cls_loss_grouping_matches_per_sample_oracle():
    rng = np.random.default_rng(0)
    model = FilmClassifier(ClassifierConfig(stage_channels=(4, 8), film_stages=(1,)),
                           rng=np.random.default_rng(1))
    spec = PhantomSpec(extent=16, n_samples=4, radius_range=(3.0, 6.0), seed=2)
    batch = generate_cls_phantoms(spec, slices_per_volume=2)
    got = _cls_loss(model, batch).item()

    per_sample = []
    for s in batch:
        logits = model.forward(Tensor(s.image[None]), model.context(s.sequence, s.plane))
        logp = T.log_softmax(logits, axis=1)
        per_sample.append(-logp.data[0, s.label])
    assert abs(got - np.mean(per_sample)) < 1e-12


# extent must fit the fixed lesion radius range of the cls task
MICRO_CLS = {
    "extent": "20", "n_train": "4", "n_eval": "2", "steps": "3",
    "batch": "4", "stage_channels": "4, 8", "film_stages": "1",
    "slices_per_volume": "2",
}


def test_train_classifier_micro_run():
    values = validate_config(MICRO_CLS, "cls")
    model, losses, train_samples, eval_samples = train_classifier(values)
    assert len(losses) == 3
    assert all(np.isfinite(v) for v in losses)
    assert len(train_samples) == 8   # 4 volumes x 2 slices
    assert len(eval_samples) == 4
    assert isinstance(model, FilmClassifier)


@pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning",
                            "ignore:invalid value encountered:RuntimeWarning")
def test_train_classifier_raises_on_divergence():
    # the first update overflows the weights; the next loss must not be recorded as nan
    values = validate_config(dict(MICRO_CLS, lr="1e308", weight_decay="0"), "cls")
    with pytest.raises(NumericError, match="first bad op"):
        train_classifier(values)


# ---------------------------------------------------------------------------
# gradient-check suite


def test_gradcheck_suite_names_every_component():
    results = gradcheck_suite(seed=0)
    assert set(results) == {
        "matmul", "masked_softmax", "layer_norm", "conv2d", "conv3d",
        "film", "attention_block", "combined_loss",
    }
    for name, err in results.items():
        assert err < 1e-4, f"{name} gradient error {err}"
