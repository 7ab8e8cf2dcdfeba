"""2D classifier with per-channel metadata modulation and the shuffle probe."""

import numpy as np
import pytest

from metacross.classifier import (
    ClassifierConfig,
    ClsSample,
    FilmClassifier,
    bootstrap_delta_interval,
    evaluate_accuracy,
    film_apply,
    gamma_statistics,
    permutation_probe,
)
from metacross.errors import ConfigError, EmptyInputError, ShapeError
from metacross.tensor import Tensor


def _samples(n, rng, extent=8):
    out = []
    for i in range(n):
        out.append(ClsSample(
            image=rng.normal(size=(1, extent, extent)),
            sequence=int(rng.integers(0, 4)),
            plane=int(rng.integers(0, 3)),
            label=int(i % 2),
        ))
    return out


# ---------------------------------------------------------------------------
# config


def test_config_accepts_deepest_contiguous_film_stages():
    ClassifierConfig(stage_channels=(8, 16, 32, 64), film_stages=(2, 3))
    ClassifierConfig(stage_channels=(8, 16), film_stages=(1,))
    ClassifierConfig(stage_channels=(8, 16), film_stages=())


def test_config_rejects_non_deepest_film_stages():
    with pytest.raises(ConfigError, match="deepest"):
        ClassifierConfig(stage_channels=(8, 16, 32, 64), film_stages=(0, 1))
    with pytest.raises(ConfigError, match="deepest"):
        ClassifierConfig(stage_channels=(8, 16, 32), film_stages=(1,))


def test_config_rejects_out_of_range_and_empty():
    with pytest.raises(ConfigError):
        ClassifierConfig(stage_channels=(8,), film_stages=(1,))
    with pytest.raises(ConfigError):
        ClassifierConfig(stage_channels=())


def test_min_extent_doubles_per_stage():
    assert ClassifierConfig(stage_channels=(8,), film_stages=()).min_extent == 2
    assert ClassifierConfig(stage_channels=(8, 16, 32, 64), film_stages=()).min_extent == 16


# ---------------------------------------------------------------------------
# modulation


def test_film_apply_worked_example():
    # out = x + gamma*x + beta, per channel:
    # c0: 1.0 + 0.5*1.0 + 0.1 = 1.6 ; c1: 2.0 + 0.5*2.0 + 0.1 = 3.1
    x = Tensor(np.array([1.0, 2.0]).reshape(1, 2, 1, 1))
    params = (Tensor([[0.5, 0.5]]), Tensor([[0.1, 0.1]]))
    out = film_apply(x, params)
    assert abs(out.data[0, 0, 0, 0] - 1.6) < 1e-15
    assert abs(out.data[0, 1, 0, 0] - 3.1) < 1e-15


def test_film_apply_zero_params_is_bit_identity():
    rng = np.random.default_rng(0)
    x = Tensor(rng.normal(size=(2, 3, 4, 4)))
    params = (Tensor(np.zeros((1, 3))), Tensor(np.zeros((1, 3))))
    out = film_apply(x, params)
    assert np.array_equal(out.data, x.data)


def test_film_apply_validates_inputs():
    params = (Tensor(np.zeros((1, 3))), Tensor(np.zeros((1, 3))))
    with pytest.raises(ShapeError):
        film_apply(Tensor(np.zeros((3, 4, 4))), params)
    with pytest.raises(ConfigError, match="3 channels but the feature map has 5"):
        film_apply(Tensor(np.zeros((1, 5, 4, 4))), params)


def test_film_apply_per_sample_rows():
    x = Tensor(np.ones((2, 2, 1, 1)))
    params = (Tensor([[0.5, 0.5], [-1.0, 0.0]]), Tensor([[0.1, 0.1], [0.0, 2.0]]))
    out = film_apply(x, params).data.reshape(2, 2)
    assert np.array_equal(out, [[1.6, 1.6], [0.0, 3.0]])


def test_film_apply_rejects_row_count_other_than_one_or_batch():
    params = (Tensor(np.zeros((2, 3))), Tensor(np.zeros((2, 3))))
    film_apply(Tensor(np.zeros((2, 3, 4, 4))), params)
    with pytest.raises(ShapeError, match="2 rows for a batch of 3"):
        film_apply(Tensor(np.zeros((3, 3, 4, 4))), params)
    with pytest.raises(ShapeError):
        film_apply(Tensor(np.zeros((1, 3, 4, 4))), params)
    with pytest.raises(ShapeError):
        film_apply(Tensor(np.zeros((1, 3, 4, 4))), (Tensor(np.zeros((1, 2, 3))), Tensor(np.zeros((1, 2, 3)))))


# ---------------------------------------------------------------------------
# model


def _tiny_model(seed=0):
    cfg = ClassifierConfig(stage_channels=(4, 8), film_stages=(1,))
    return FilmClassifier(cfg, rng=np.random.default_rng(seed))


def test_forward_shapes_and_min_extent():
    model = _tiny_model()
    ctx = model.context(0, 0)
    logits = model.forward(Tensor(np.zeros((3, 1, 8, 8))), ctx)
    assert logits.shape == (3, 2)
    with pytest.raises(ShapeError, match="too small"):
        model.forward(Tensor(np.zeros((1, 1, 2, 2))), ctx)
    with pytest.raises(ShapeError):
        model.forward(Tensor(np.zeros((1, 2, 8, 8))), ctx)


def test_mixed_metadata_batch_matches_single_slice_forwards():
    # T1 and T2 slices in one batch, each with its own context, in one forward
    rng = np.random.default_rng(9)
    model = FilmClassifier(ClassifierConfig(stage_channels=(4, 8, 16), film_stages=(1, 2)),
                           rng=np.random.default_rng(10))
    images = rng.normal(size=(5, 1, 8, 8))
    sequences, planes = [2, 3, 3, 2, 2], [0, 0, 1, 2, 0]
    batched = model.forward(Tensor(images), model.context(sequences, planes)).data
    single = np.concatenate([model.forward(Tensor(images[i:i + 1]), model.context(seq, plane)).data
                             for i, (seq, plane) in enumerate(zip(sequences, planes))])
    assert batched.shape == (5, 2)
    assert np.max(np.abs(batched - single)) <= 1e-12
    # a per-sample context is not a shared one: swapping two samples' metadata moves their logits
    swapped = model.forward(Tensor(images), model.context([3, 2, 3, 2, 2], planes)).data
    assert not np.array_equal(swapped[:2], batched[:2])
    assert np.array_equal(swapped[2:], batched[2:])


def test_zeroed_generators_match_film_disabled():
    rng = np.random.default_rng(1)
    model = _tiny_model(seed=1)
    image = Tensor(rng.normal(size=(2, 1, 8, 8)))
    ctx = model.context(2, 1)
    off = model.forward(image, ctx, use_film=False)
    for gen in model.film.values():
        gen.zero_()
    on = model.forward(image, ctx, use_film=True)
    assert np.array_equal(on.data, off.data)


def test_metadata_changes_logits():
    rng = np.random.default_rng(2)
    model = _tiny_model(seed=2)
    image = Tensor(rng.normal(size=(1, 1, 8, 8)))
    a = model.forward(image, model.context(0, 0))
    b = model.forward(image, model.context(3, 2))
    assert not np.array_equal(a.data, b.data)
    # without modulation the context cannot reach the logits
    a_off = model.forward(image, model.context(0, 0), use_film=False)
    b_off = model.forward(image, model.context(3, 2), use_film=False)
    assert np.array_equal(a_off.data, b_off.data)


# ---------------------------------------------------------------------------
# evaluation and the shuffle probe


def test_evaluate_accuracy_matches_predict_loop():
    rng = np.random.default_rng(4)
    model = _tiny_model(seed=4)
    samples = _samples(10, rng)
    acc = evaluate_accuracy(model, samples)
    want = sum(
        int(np.argmax(model.forward(Tensor(s.image[None]), model.context(s.sequence, s.plane)).data[0]) == s.label)
        for s in samples) / len(samples)
    assert acc == want


def test_evaluate_accuracy_rejects_empty():
    with pytest.raises(EmptyInputError):
        evaluate_accuracy(_tiny_model(), [])


def test_evaluate_accuracy_with_substituted_metadata():
    rng = np.random.default_rng(5)
    model = _tiny_model(seed=5)
    samples = _samples(6, rng)
    fixed = [(0, 0)] * len(samples)
    acc = evaluate_accuracy(model, samples, metadata=fixed)
    ctx = model.context(0, 0)
    want = sum(
        int(np.argmax(model.forward(Tensor(s.image[None]), ctx).data[0]) == s.label)
        for s in samples) / len(samples)
    assert acc == want


def test_permutation_probe_contract():
    rng = np.random.default_rng(6)
    model = _tiny_model(seed=6)
    samples = _samples(8, rng)
    res = permutation_probe(model, samples, trials=5, seed=11)
    assert set(res) == {"true_accuracy", "shuffled_accuracies", "delta"}
    assert len(res["shuffled_accuracies"]) == 5
    assert abs(res["delta"] - (res["true_accuracy"] - np.mean(res["shuffled_accuracies"]))) < 1e-15
    again = permutation_probe(model, samples, trials=5, seed=11)
    assert res == again  # same seed, same permutations


def test_permutation_probe_rejects_degenerate_calls():
    model = _tiny_model()
    samples = _samples(4, np.random.default_rng(7))
    with pytest.raises(EmptyInputError):
        permutation_probe(model, samples, trials=0, seed=0)
    with pytest.raises(EmptyInputError):
        permutation_probe(model, [], trials=3, seed=0)


def test_bootstrap_interval_basics():
    lo, hi = bootstrap_delta_interval(0.9, [0.5, 0.6, 0.4, 0.55], seed=0)
    assert lo <= hi
    # constant shuffled accuracies give a zero-width interval
    lo_c, hi_c = bootstrap_delta_interval(0.8, [0.5, 0.5, 0.5], seed=1)
    assert lo_c == hi_c == pytest.approx(0.3)
    with pytest.raises(EmptyInputError):
        bootstrap_delta_interval(0.9, [])


def test_gamma_statistics_contract():
    rng = np.random.default_rng(8)
    model = _tiny_model(seed=8)
    samples = _samples(3, rng)
    stats = gamma_statistics(model, samples)
    assert set(stats) == {1}
    want = np.mean([
        np.mean(np.abs(model.film["1"].params_for(model.context(s.sequence, s.plane))[0].data))
        for s in samples])
    assert abs(stats[1] - want) < 1e-15

    plain = FilmClassifier(ClassifierConfig(stage_channels=(4,), film_stages=()))
    with pytest.raises(ConfigError):
        gamma_statistics(plain, samples)
    with pytest.raises(EmptyInputError):
        gamma_statistics(model, [])
