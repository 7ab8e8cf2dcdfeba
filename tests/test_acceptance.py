"""Acceptance gate: nine end-to-end guarantees the package must hold.

Each test records a verdict with the conftest registry so the terminal
summary prints one pass/fail line per criterion. Tolerances and time
budgets are pinned in the asserts; the expensive sweep and probe runs
come from session fixtures shared across criteria.
"""

import itertools
import math
import time

import numpy as np
import pytest
from scipy.special import erf

import metacross.tensor as T
from metacross import cli
from metacross.attention import AttentionConfig, CrossAttentionBlock
from metacross.classifier import ClassifierConfig, FilmClassifier, film_apply
from metacross.complexity import bottleneck_tokens, compare_bottlenecks
from metacross.configfile import validate_config
from metacross.harness import enumerate_scenarios, gradcheck_suite, train_segmentation
from metacross.metadata import ModalityMask, N_MODALITIES
from metacross.segmentation import SegBatch, SegConfig, SegModel
from metacross.tensor import Tensor

from conftest import record


def _partial_patterns() -> list[tuple[bool, ...]]:
    return [p for p in enumerate_scenarios() if sum(p) < N_MODALITIES]


def test_criterion_1_masked_attention_exactness():
    start = time.perf_counter()
    rng = np.random.default_rng(11)
    patterns = enumerate_scenarios()
    worst_sum = 0.0
    cases = 0
    for pattern, n, d in itertools.product(patterns, (1, 8, 64), (4, 16)):
        q = rng.normal(size=(n, d))
        k = rng.normal(size=(N_MODALITIES, d))
        scores = Tensor(q @ k.T / math.sqrt(d))
        mask = ModalityMask(pattern)
        weights = T.masked_softmax_rows(scores, mask.additive).data
        missing = [i for i, a in enumerate(pattern) if not a]
        sub = weights[:, missing]
        assert np.all(sub == 0.0) and not np.signbit(sub).any(), \
            f"masked columns {missing} of pattern {pattern} are not an exact +0.0"
        worst_sum = max(worst_sum, float(np.abs(weights.sum(axis=1) - 1.0).max()))
        cases += 1
    elapsed = time.perf_counter() - start
    detail = (f"{cases} pattern/shape cases, masked entries +0.0 bitwise, "
              f"max |row sum - 1| = {worst_sum:.2e}, {elapsed:.2f}s")
    record(1, worst_sum <= 1e-12 and elapsed < 1.0, detail)
    assert worst_sum <= 1e-12
    assert elapsed < 1.0


def _layer_norm_np(x, norm):
    mu = x.mean(axis=1, keepdims=True)
    centered = x - mu
    var = (centered * centered).mean(axis=1, keepdims=True)
    return centered / np.sqrt(var + norm.EPS) * norm.gain.data + norm.bias.data


def test_criterion_2_subset_oracle_equivalence():
    start = time.perf_counter()
    rng = np.random.default_rng(23)
    patterns = enumerate_scenarios()
    worst = 0.0
    for _ in range(100):
        n = int(rng.integers(1, 17))
        d = int(rng.integers(1, 9))
        pattern = patterns[int(rng.integers(len(patterns)))]
        avail = [i for i, a in enumerate(pattern) if a]
        block = CrossAttentionBlock(AttentionConfig(embed_dim=d, patch_size=1),
                                    rng=np.random.default_rng(int(rng.integers(2 ** 31))))
        q = rng.normal(size=(n, d))
        k = rng.normal(size=(N_MODALITIES, d))
        v = rng.normal(size=(N_MODALITIES, d))

        out = block(Tensor(q), Tensor(k), Tensor(v),
                    ModalityMask(pattern)).data

        # reference model assembled from the available dictionary rows only
        logits = q @ k[avail].T / math.sqrt(d)
        shifted = logits - logits.max(axis=1, keepdims=True)
        weights = np.exp(shifted)
        weights /= weights.sum(axis=1, keepdims=True)
        h = _layer_norm_np(q + weights @ v[avail], block.norm_attn)
        pre = h @ block.ffn_in.weight.data + block.ffn_in.bias.data
        act = pre * 0.5 * (1.0 + erf(pre / math.sqrt(2.0)))
        ffn = act @ block.ffn_out.weight.data + block.ffn_out.bias.data
        ref = _layer_norm_np(h + ffn, block.norm_ffn)

        worst = max(worst, float(np.abs(out - ref).max()))
    elapsed = time.perf_counter() - start
    detail = f"100 random blocks at N<=16, D<=8: max |full - subset| = {worst:.2e}, {elapsed:.2f}s"
    record(2, worst <= 1e-12 and elapsed < 10.0, detail)
    assert worst <= 1e-12
    assert elapsed < 10.0


def test_criterion_3_missing_modality_isolation():
    start = time.perf_counter()
    cfg = SegConfig(extent=16, attention=AttentionConfig(embed_dim=16, patch_size=2),
                    encoder_channels=(8,), decoder_channels=(16, 8),
                    deep_supervision=False, metadata_embed_dim=8)
    model = SegModel(cfg, rng=np.random.default_rng(31))
    rng = np.random.default_rng(37)
    base = rng.normal(size=(4, 16, 16, 16))
    target = np.zeros((16, 16, 16), dtype=np.int64)
    table = model.meta_encoder.table
    checked = 0
    for pattern in _partial_patterns():
        missing = [i for i, a in enumerate(pattern) if not a]
        mask = ModalityMask(pattern)
        ref, _ = model.forward(SegBatch(Tensor(base.copy()), mask, target))

        poked = base.copy()
        poked[missing] += rng.normal(size=(len(missing), 16, 16, 16)) * 1e5
        got, _ = model.forward(SegBatch(Tensor(poked), mask, target))
        assert np.array_equal(got.data, ref.data), \
            f"perturbed missing input channels changed the output for {pattern}"

        saved = table.data.copy()
        table.data[missing] += rng.normal(size=(len(missing), table.shape[1])) * 1e5
        got, _ = model.forward(SegBatch(Tensor(base.copy()), mask, target))
        table.data[...] = saved
        assert np.array_equal(got.data, ref.data), \
            f"perturbed missing dictionary rows changed the output for {pattern}"
        checked += 1
    elapsed = time.perf_counter() - start
    detail = f"{checked} partial scenarios bitwise clean at extent 16, {elapsed:.2f}s"
    record(3, checked == 14 and elapsed < 30.0, detail)
    assert checked == 14
    assert elapsed < 30.0


def test_criterion_4_gradient_correctness():
    start = time.perf_counter()
    worst_name, worst = "", 0.0
    for seed in range(10):
        for name, err in gradcheck_suite(seed).items():
            if err > worst:
                worst_name, worst = name, err
    elapsed = time.perf_counter() - start
    detail = f"10 seeds x 8 checks, worst {worst_name} = {worst:.2e}, {elapsed:.1f}s"
    record(4, worst < 1e-4 and elapsed < 60.0, detail)
    assert worst < 1e-4, f"{worst_name} reached {worst:.3e}"
    assert elapsed < 60.0


def test_criterion_5_complexity_ratios():
    start = time.perf_counter()
    reference = compare_bottlenecks(AttentionConfig(embed_dim=256), 4096, 16)
    dense, cross = (next(r.flops for r in side.rows if r.kind == "attention")
                    for side in (reference.baseline, reference.ours))
    assert dense % cross == 0
    ratio = dense // cross
    assert ratio == 4096 // N_MODALITIES == 1024

    values = validate_config({}, "complexity")
    geometry = AttentionConfig(embed_dim=values["embed_dim"], patch_size=values["patch_size"],
                               ffn_hidden=values["ffn_hidden"] or None, n_layers=values["n_layers"])
    n = bottleneck_tokens(values["input_extent"], values["encoder_downsamples"], values["patch_size"])
    comparison = compare_bottlenecks(geometry, n, values["metadata_embed_dim"])
    p_red = comparison.params_reduction_pct
    f_red = comparison.flops_reduction_pct
    elapsed = time.perf_counter() - start
    detail = (f"attend flop ratio {ratio}x, stand-in reductions "
              f"params {p_red}% and flops {f_red}%, {elapsed:.2f}s")
    ok = ratio == 1024 and 30.0 <= p_red <= 50.0 and 40.0 <= f_red <= 60.0 and elapsed < 1.0
    record(5, ok, detail)
    assert 30.0 <= p_red <= 50.0
    assert 40.0 <= f_red <= 60.0
    assert elapsed < 1.0


def test_criterion_6_neutral_modulation_identity():
    start = time.perf_counter()
    rng = np.random.default_rng(41)

    zero = (Tensor(np.zeros((1, 3))), Tensor(np.zeros((1, 3))))
    x = Tensor(rng.normal(size=(2, 3, 5, 5)))
    assert np.array_equal(film_apply(x, zero).data, x.data)

    model = FilmClassifier(ClassifierConfig(stage_channels=(4, 8), film_stages=(1,)),
                           rng=np.random.default_rng(43))
    for gen in model.film.values():
        gen.zero_()
    image = Tensor(rng.normal(size=(3, 1, 8, 8)))
    ctx = model.context(2, 1)
    with_film = model.forward(image, ctx, use_film=True).data
    without = model.forward(image, ctx, use_film=False).data
    assert np.array_equal(with_film, without)

    params = (Tensor(np.array([[0.5, 0.5]])), Tensor(np.array([[0.1, 0.1]])))
    feature = Tensor(np.array([1.0, 2.0]).reshape(1, 2, 1, 1))
    out = film_apply(feature, params).data.reshape(2)
    err = float(np.abs(out - np.array([1.6, 3.1])).max())
    elapsed = time.perf_counter() - start
    detail = (f"zeroed generators bit-identical, worked example err {err:.1e}, "
              f"{elapsed:.2f}s")
    record(6, err <= 1e-15 and elapsed < 1.0, detail)
    assert err <= 1e-15
    assert elapsed < 1.0


@pytest.mark.slow
def test_criterion_7_training_trend(sweep_run):
    values, sweep, sweep_elapsed = sweep_run
    start = time.perf_counter()
    drops = []
    for seed in (0, 1, 2):
        trial = dict(values, steps=200, seed=seed)
        _, losses = train_segmentation(trial)
        assert losses[-1] < losses[0], \
            f"seed {seed}: loss went {losses[0]:.4f} -> {losses[-1]:.4f}"
        drops.append(f"{losses[0]:.2f}->{losses[-1]:.2f}")

    results = sweep["results"]
    full = [r for r in results if all(r.available)]
    assert len(full) == 1
    full_dice = full[0].dice
    partial_best = max(r.dice for r in results if not all(r.available))
    margin = full_dice - partial_best
    elapsed = time.perf_counter() - start + sweep_elapsed
    detail = (f"200-step loss {', '.join(drops)}; sweep full dice {full_dice:.4f} "
              f"vs best partial {partial_best:.4f} (margin {margin:+.4f}), {elapsed:.0f}s")
    ok = margin >= -0.02 and elapsed < 600.0
    record(7, ok, detail)
    assert margin >= -0.02, detail
    assert elapsed < 600.0


@pytest.mark.slow
def test_criterion_8_permutation_probe_sign(probe_run):
    values, probe, elapsed = probe_run
    delta = probe["delta"]
    lo, hi = probe["delta_ci_low"], probe["delta_ci_high"]
    detail = (f"delta {delta:+.4f}, 95% CI [{lo:+.4f}, {hi:+.4f}] "
              f"over {probe['trials']} trials, {elapsed:.0f}s")
    ok = values["trials"] == 20 and delta > 0.0 and lo > 0.0 and elapsed < 300.0
    record(8, ok, detail)
    assert values["trials"] == 20
    assert delta > 0.0
    assert lo > 0.0, f"95% CI includes zero: [{lo:+.4f}, {hi:+.4f}]"
    assert elapsed < 300.0


@pytest.mark.slow
def test_criterion_9_artifact_determinism(tmp_path, capsys):
    start = time.perf_counter()
    cfg = tmp_path / "sweep.cfg"
    cfg.write_text("steps = 120\nn_train = 8\nn_eval = 8\nseed = 3\n")
    sweep_files = ("scenarios.csv", "scenarios.json", "loss_curve.csv", "checkpoint.ckpt")
    payloads = []
    for run in ("a", "b"):
        out = tmp_path / f"sweep_{run}"
        assert cli.main(["sweep", "--config", str(cfg), "--out", str(out)]) == 0
        payloads.append([(out / f).read_bytes() for f in sweep_files])
    capsys.readouterr()
    sweep_same = payloads[0] == payloads[1]
    for name, first, second in zip(sweep_files, payloads[0], payloads[1]):
        assert first == second, f"sweep artifact {name} differs between identical runs"

    reports = []
    for run in ("a", "b"):
        out = tmp_path / f"cx_{run}"
        assert cli.main(["complexity", "--out", str(out)]) == 0
        reports.append((out / "complexity_comparison.csv").read_bytes())
    capsys.readouterr()
    cx_same = reports[0] == reports[1]
    elapsed = time.perf_counter() - start
    detail = (f"sweep outputs {'identical' if sweep_same else 'DIFFER'}, "
              f"complexity outputs {'identical' if cx_same else 'DIFFER'}, {elapsed:.0f}s")
    record(9, sweep_same and cx_same and elapsed < 600.0, detail)
    assert reports[0] == reports[1], "complexity artifact differs between identical runs"
    assert elapsed < 600.0
