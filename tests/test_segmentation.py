"""3D pipeline: model geometry, losses, training step, and checkpoints."""

import math
import struct
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import metacross.tensor as T
from metacross.attention import AttentionConfig
from metacross.configfile import load_config
from metacross.errors import CheckpointError, ConfigError, NumericError, ShapeError
from metacross.harness import seg_config_from_values
from metacross.metadata import ModalityMask
from metacross.nn import Adam, Linear, Module
from metacross.segmentation import (
    CHECKPOINT_MAGIC,
    CHECKPOINT_VERSION,
    SegBatch,
    SegConfig,
    SegModel,
    _ce_plus_dice_gap,
    combined_loss,
    dice_score,
    load_checkpoint,
    predict_labels,
    save_checkpoint,
    train_step,
)
from metacross.tensor import Tape, Tensor

# the seg config's optimizer settings, which train_step takes from its caller
STEP = {key: load_config(None, "seg")[key] for key in ("lr", "weight_decay", "clip")}


def _tiny_cfg(**kw):
    base = dict(
        extent=8,
        attention=AttentionConfig(embed_dim=8, patch_size=2),
        encoder_channels=(4,),
        decoder_channels=(8, 4),
        metadata_embed_dim=8,
    )
    base.update(kw)
    return SegConfig(**base)


def _batch(cfg, seed=0, available=(True, True, True, True)):
    rng = np.random.default_rng(seed)
    e = cfg.extent
    vols = rng.normal(size=(4, e, e, e))
    target = (rng.random((e, e, e)) < 0.3).astype(np.int64)
    return SegBatch(Tensor(vols), ModalityMask(available), target)


# ---------------------------------------------------------------------------
# config geometry


def test_default_config_geometry():
    cfg = SegConfig()
    assert cfg.n_encoder_stages == 1
    assert cfg.total_downsample == 8
    assert cfg.encoded_extent == 16
    assert cfg.grid_extent == 4
    assert cfg.n_tokens == 64
    # decoder extents run 8, 16, 32; the stem features live at 16
    assert cfg.skip_stage == 1


def test_config_rejects_mismatched_decoder_depth():
    with pytest.raises(ConfigError, match="expected 3 stages, got 2"):
        SegConfig(decoder_channels=(16, 8))


def test_config_rejects_non_power_of_two_downsample():
    with pytest.raises(ConfigError, match="power of two"):
        SegConfig(attention=AttentionConfig(embed_dim=8, patch_size=3),
                  decoder_channels=(8, 8))


def test_config_rejects_indivisible_extent():
    with pytest.raises(ConfigError, match="not divisible"):
        SegConfig(extent=20)


def test_config_rejects_bad_scalars():
    with pytest.raises(ConfigError):
        SegConfig(ds_decay=0.0)
    with pytest.raises(ConfigError):
        SegConfig(ds_decay_epoch_fraction=1.5)
    with pytest.raises(ConfigError):
        SegConfig(n_seg_classes=1)
    with pytest.raises(ConfigError):
        SegConfig(metadata_embed_dim=0)
    with pytest.raises(ConfigError):
        SegConfig(decoder_channels=())


# ---------------------------------------------------------------------------
# batch validation


def test_batch_validation():
    e = 8
    good = np.zeros((4, e, e, e))
    target = np.zeros((e, e, e), dtype=np.int64)
    SegBatch(Tensor(good), ModalityMask([True] * 4), target)
    with pytest.raises(ShapeError):
        SegBatch(Tensor(np.zeros((3, e, e, e))), ModalityMask([True] * 4), target)
    with pytest.raises(ShapeError, match="does not match"):
        SegBatch(Tensor(good), ModalityMask([True] * 4), np.zeros((4, 4, 4), dtype=np.int64))
    with pytest.raises(ShapeError, match="integers"):
        SegBatch(Tensor(good), ModalityMask([True] * 4), target.astype(np.float64))
    with pytest.raises(ShapeError, match="non-negative"):
        SegBatch(Tensor(good), ModalityMask([True] * 4), target - 1)
    bad = good.copy()
    bad[0, 0, 0, 0] = np.nan
    with pytest.raises(NumericError):
        SegBatch(Tensor(bad), ModalityMask([True] * 4), target)


# ---------------------------------------------------------------------------
# model forward


def test_forward_shapes_and_aux_extents():
    cfg = _tiny_cfg()
    model = SegModel(cfg, rng=np.random.default_rng(0))
    with Tape():
        logits, aux = model.forward(_batch(cfg))
    assert logits.shape == (2, 8, 8, 8)
    assert len(aux) == len(cfg.decoder_channels) - 1
    assert aux[0].shape == (2, 4, 4, 4)


def test_forward_without_deep_supervision():
    cfg = _tiny_cfg(deep_supervision=False)
    model = SegModel(cfg, rng=np.random.default_rng(0))
    with Tape():
        _, aux = model.forward(_batch(cfg))
    assert aux == []


def test_forward_without_tape_skips_the_aux_heads():
    # only the loss reads the deep-supervision logits, and inference records no tape
    cfg = _tiny_cfg()
    model = SegModel(cfg, rng=np.random.default_rng(0))
    batch = _batch(cfg)
    with Tape():
        want, _ = model.forward(batch)
    model.aux_heads = [None] * len(model.aux_heads)  # calling one would raise
    logits, aux = model.forward(batch)
    assert aux == []
    assert np.array_equal(logits.data, want.data)


def test_forward_validates_batch():
    cfg = _tiny_cfg()
    model = SegModel(cfg, rng=np.random.default_rng(0))
    other = SegConfig(extent=16, attention=AttentionConfig(embed_dim=8, patch_size=2),
                      encoder_channels=(4,), decoder_channels=(8, 4), metadata_embed_dim=8)
    with pytest.raises(ShapeError, match="built for extent 8"):
        model.forward(_batch(other))
    bad = _batch(cfg)
    bad.target[0, 0, 0] = 5
    with pytest.raises(ShapeError, match="outside"):
        model.forward(bad)


def test_model_construction_is_deterministic():
    cfg = _tiny_cfg()
    a = SegModel(cfg, rng=np.random.default_rng(3))
    b = SegModel(cfg, rng=np.random.default_rng(3))
    for (na, pa), (nb, pb) in zip(a.named_parameters(), b.named_parameters()):
        assert na == nb
        assert np.array_equal(pa.data, pb.data)


def test_gated_stems_ignore_missing_channels_bitwise():
    # data in a masked channel must never reach the output
    cfg = _tiny_cfg()
    model = SegModel(cfg, rng=np.random.default_rng(1))
    available = (True, False, True, False)
    base = _batch(cfg, seed=2, available=available)
    logits0, _ = model.forward(base)

    poked = base.volumes.data.copy()
    poked[1] += 1000.0
    poked[3] -= 777.0
    logits1, _ = model.forward(SegBatch(Tensor(poked), ModalityMask(available), base.target))
    assert np.array_equal(logits0.data, logits1.data)


def test_forward_lays_tokens_out_on_the_grid(monkeypatch):
    # token row (i*g + j)*g + k becomes grid cell (i, j, k) of the first decoder conv's input
    cfg = _tiny_cfg()
    model = SegModel(cfg, rng=np.random.default_rng(6))
    g, d = cfg.grid_extent, cfg.attention.embed_dim
    tokens = np.random.default_rng(7).normal(size=(cfg.n_tokens, d))
    model.blocks = [lambda q, keys, values, mask: Tensor(tokens)]
    seen = []
    conv3d = T.conv3d

    def recording(x, weight, *args, **kwargs):
        if kwargs.get("upsample_phases"):
            seen.append(x.data.copy())
        return conv3d(x, weight, *args, **kwargs)

    monkeypatch.setattr(T, "conv3d", recording)
    model.forward(_batch(cfg))
    grid = seen[0]
    assert grid.shape == (1, d, g, g, g)
    for i, j, k in np.ndindex(g, g, g):
        assert np.array_equal(grid[0, :, i, j, k], tokens[(i * g + j) * g + k])


def test_skip_connection_widens_decoder_input():
    cfg = _tiny_cfg()
    assert cfg.skip_stage == 0  # grid 2 -> 4 after one upsample == encoded 4
    model = SegModel(cfg, rng=np.random.default_rng(0))
    assert model.decoder[0].in_ch == cfg.attention.embed_dim + cfg.encoder_channels[-1]
    assert model.decoder[1].in_ch == cfg.decoder_channels[0]


def _forward_interleaving_first(model, batch, concat_skip=False):
    """SegModel.forward with every stage's phases interleaved before its ReLU,
    the last stage's before its head too. With ``concat_skip`` the skip stage
    is upsample, concat and one conv over all its input channels. These are
    the references the model's interleave-last tail and split skip-stage convs
    must match."""
    cfg = model.cfg
    fused = model._encode(batch)
    tokens = model.tokenizer(fused)
    keys, values = model.meta_encoder.tokens()
    for block in model.blocks:
        tokens = block(tokens, keys, values, batch.mask)
    g = cfg.grid_extent
    x = T.reshape(T.transpose(tokens, (1, 0)), (1, cfg.attention.embed_dim, g, g, g))
    aux = []
    for i, conv in enumerate(model.decoder):
        f = T.reshape(fused, (1,) + fused.shape)
        if i == cfg.skip_stage and concat_skip:
            x = conv(T.concat([T.upsample3d_nearest(x, 2), f], axis=1))
        elif i == cfg.skip_stage:
            c = x.shape[1]
            x = T.add(T.interleave_phases(T.conv3d(x, T.narrow(conv.weight, 1, 0, c), conv.bias, padding=1,
                                                   upsample_phases=True)),
                      T.conv3d(f, T.narrow(conv.weight, 1, c, conv.in_ch - c), None, padding=1))
        else:
            x = T.interleave_phases(T.conv3d(x, conv.weight, conv.bias, padding=1, upsample_phases=True))
        x = T.relu(x)
        if i < len(model.decoder) - 1:
            a = model.aux_heads[i](x)
            aux.append(T.reshape(a, (cfg.n_seg_classes,) + a.shape[2:]))
    logits = model.head(x)
    return T.reshape(logits, (cfg.n_seg_classes,) + (cfg.extent,) * 3), aux


def _logits_and_grads(model, batch, forward):
    for _, p in model.named_parameters():
        p.grad = None
    with Tape() as tape:
        logits, aux = forward(batch)
        tape.backward(combined_loss(logits, batch.target, aux, cfg=model.cfg))
    return logits.data, {name: p.grad for name, p in model.named_parameters()}


@pytest.mark.parametrize("cfg", [_tiny_cfg(), SegConfig()], ids=["tiny", "default"])
def test_skip_stage_split_convs_match_upsample_concat_conv(monkeypatch, cfg):
    # conv(concat(up(x), f), W) = conv(up(x), W[:, :c]) + conv(f, W[:, c:]): the model runs
    # the right side and never builds the upsample or the concat
    model = SegModel(cfg, rng=np.random.default_rng(18))
    batch = _batch(cfg, seed=19)
    with monkeypatch.context() as m:
        for name in ("upsample3d_nearest", "concat"):
            m.setattr(T, name, lambda *args, name=name, **kwargs: pytest.fail(f"forward called {name}"))
        logits, grads = _logits_and_grads(model, batch, model.forward)
    want_logits, want_grads = _logits_and_grads(model, batch,
                                              lambda b: _forward_interleaving_first(model, b, concat_skip=True))

    assert np.abs(logits - want_logits).max() <= 1e-13 * np.abs(want_logits).max()
    _assert_grads_agree(grads, want_grads)
    skip = model.decoder[cfg.skip_stage]
    assert grads[f"decoder.{cfg.skip_stage}.weight"].shape == (skip.out_ch, skip.in_ch, 3, 3, 3)


def _assert_grads_agree(grads, want_grads):
    """Every parameter gradient within 1e-13 of the reference's, relative to its largest entry."""
    assert grads.keys() == want_grads.keys()
    top = max(np.abs(want).max() for want in want_grads.values())
    for name, want in want_grads.items():
        # the masked softmax cancels a key bias, so its exact gradient is zero and both
        # paths hold rounding noise: that one is measured against the largest gradient
        scale = top if name == "meta_encoder.k_proj.bias" else np.abs(want).max()
        assert grads[name].shape == want.shape, name
        assert np.abs(grads[name] - want).max() <= 1e-13 * scale, name


@pytest.mark.parametrize("cfg", [_tiny_cfg(), SegConfig()], ids=["tiny", "default"])
def test_last_stage_interleaves_after_the_head(cfg):
    # bias, ReLU and the 1x1 head are pointwise, so running them on the phases
    # and interleaving the logits changes no value; only the head's weight
    # gradient sums its columns in another order
    model = SegModel(cfg, rng=np.random.default_rng(20))
    batch = _batch(cfg, seed=21)
    logits, grads = _logits_and_grads(model, batch, model.forward)
    want_logits, want_grads = _logits_and_grads(model, batch, lambda b: _forward_interleaving_first(model, b))
    assert np.array_equal(logits, want_logits)
    assert np.array_equal(model.forward(batch)[0].data, want_logits)  # and without a tape
    _assert_grads_agree(grads, want_grads)


def test_forward_without_tape_never_builds_the_full_resolution_feature_map():
    # the last stage's 8 channels at 32^3 stay phase-split: only the 2 logit
    # channels are interleaved. Every array an op returns is live when its
    # Tensor is built, so a snapshot there sees any such map
    cfg = SegConfig()
    model = SegModel(cfg, rng=np.random.default_rng(22))
    batch = _batch(cfg, seed=23)
    model.forward(batch)  # warm-up
    full = 8 * cfg.decoder_channels[-1] * cfg.extent ** 3
    init = Tensor.__init__
    largest = []

    def snapshot(self, data, requires_grad=False):
        init(self, data, requires_grad)
        traces = tracemalloc.take_snapshot().traces
        largest.append(max(t.size for t in traces))
        assert all(t.size != full for t in traces), f"a {full}-byte block is live after an op returned {self.shape}"

    tracemalloc.start()
    Tensor.__init__ = snapshot
    try:
        logits, _ = model.forward(batch)
    finally:
        Tensor.__init__ = init
        tracemalloc.stop()
    assert logits.shape == (2,) + (cfg.extent,) * 3
    # the phase buffer is the largest: [8 phases, 8 channels, 17, 18, 18]
    assert max(largest) >= 8 * 8 * 8 * 17 * 18 * 18


def test_predict_labels_values():
    cfg = _tiny_cfg()
    model = SegModel(cfg, rng=np.random.default_rng(4))
    labels = predict_labels(model, _batch(cfg, seed=5))
    assert labels.shape == (8, 8, 8)
    assert set(np.unique(labels)) <= {0, 1}


class _FixedLogits:
    """A stand-in model whose forward returns the given logits."""

    def __init__(self, logits):
        self.logits = logits

    def forward(self, batch):
        return Tensor(self.logits), []


@pytest.mark.parametrize("n_classes", [2, 4])
def test_predict_labels_matches_argmax_with_ties(n_classes):
    # integer logits in [-1, 1] tie often: the first maximum wins, as in np.argmax
    rng = np.random.default_rng(n_classes)
    logits = rng.integers(-1, 2, size=(n_classes, 6, 5, 4)).astype(np.float64)
    logits[:, 0, 0, 0] = 0.5  # all classes tied
    logits[:, 0, 0, 1] = [-0.0] + [0.0] * (n_classes - 1)  # -0.0 == +0.0 is a tie too
    labels = predict_labels(_FixedLogits(logits), None)
    want = np.argmax(logits, axis=0)
    assert np.array_equal(labels, want) and labels.dtype == want.dtype
    assert labels[0, 0, 0] == 0 and labels[0, 0, 1] == 0
    assert (np.sum(logits == logits.max(axis=0), axis=0) > 1).sum() > 10

    cfg = _tiny_cfg(n_seg_classes=n_classes)
    model = SegModel(cfg, rng=np.random.default_rng(24))
    batch = _batch(cfg, seed=25)
    assert np.array_equal(predict_labels(model, batch), np.argmax(model.forward(batch)[0].data, axis=0))


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_predict_labels_rejects_non_finite_logits(bad):
    logits = np.zeros((2, 4, 4, 4))
    logits[1, 2, 3, 1] = bad
    with pytest.raises(NumericError, match="logits are not finite"):
        predict_labels(_FixedLogits(logits), None)


def test_predict_labels_raises_on_an_overflowing_model():
    # no filterwarnings mark: numpy's overflow warnings used to come first, and the
    # project's warning filter turns them into exceptions
    cfg = _tiny_cfg()
    model = SegModel(cfg, rng=np.random.default_rng(26))
    for conv in model.decoder + [model.head]:
        conv.weight.data[...] = 1e308
    with pytest.raises(NumericError, match="logits are not finite"):
        predict_labels(model, _batch(cfg, seed=27))


# ---------------------------------------------------------------------------
# metrics


def test_dice_score_examples():
    assert dice_score([1, 1, 0], [1, 0, 0], 1) == pytest.approx(2 / 3)
    assert dice_score([1, 1], [1, 1], 1) == 1.0
    assert dice_score([0, 0], [0, 0], 1) == 1.0  # both empty
    assert dice_score([1, 0], [0, 1], 1) == 0.0
    assert dice_score([1, 1, 0], [1, 0, 0], 0) == pytest.approx(2 / 3)
    with pytest.raises(ShapeError):
        dice_score([1, 0], [1, 0, 0], 1)


def _ce_and_dice(logits: np.ndarray, target: np.ndarray) -> tuple[float, float]:
    """Mean cross entropy and mean soft Dice (smoothing 1e-7), in plain numpy."""
    m = logits.max(axis=0, keepdims=True)
    e = np.exp(logits - m)
    logp = logits - m - np.log(e.sum(axis=0, keepdims=True))
    ce = -np.take_along_axis(logp, target[None], axis=0).mean()
    probs = e / e.sum(axis=0, keepdims=True)
    onehot = np.moveaxis(np.eye(logits.shape[0])[target], -1, 0)
    s = 1e-7
    vals = []
    for c in range(logits.shape[0]):
        num = 2.0 * (probs[c] * onehot[c]).sum() + s
        den = probs[c].sum() + onehot[c].sum() + s
        vals.append(num / den)
    return ce, np.mean(vals)


def _gap(logits: np.ndarray, target: np.ndarray) -> float:
    return _ce_plus_dice_gap(Tensor(logits), target).item()


def test_cross_entropy_uniform_logits_is_log2():
    logits = np.zeros((2, 4, 4, 4))
    target = np.zeros((4, 4, 4), dtype=np.int64)
    _, dice = _ce_and_dice(logits, target)
    assert abs(_gap(logits, target) - (math.log(2.0) + 1.0 - dice)) < 1e-15


def test_cross_entropy_matches_numpy_oracle():
    rng = np.random.default_rng(6)
    logits = rng.normal(size=(3, 4, 4, 4))
    target = rng.integers(0, 3, size=(4, 4, 4))
    ce, dice = _ce_and_dice(logits, target)
    assert abs(_gap(logits, target) - (ce + 1.0 - dice)) < 1e-12


def test_cross_entropy_saturates_near_zero():
    target = (np.arange(8).reshape(2, 2, 2) % 2).astype(np.int64)
    logits = np.zeros((2, 2, 2, 2))
    onehot = np.moveaxis(np.eye(2)[target], -1, 0)
    logits += 30.0 * onehot  # confident and correct
    _, dice = _ce_and_dice(logits, target)
    assert _gap(logits, target) - (1.0 - dice) < 1e-10


def test_soft_dice_matches_numpy_oracle():
    rng = np.random.default_rng(7)
    logits = rng.normal(size=(2, 4, 4, 4))
    target = rng.integers(0, 2, size=(4, 4, 4))
    ce, dice = _ce_and_dice(logits, target)
    assert abs(_gap(logits, target) - (ce + 1.0 - dice)) < 1e-12


def test_soft_dice_rewards_confident_overlap():
    target = np.zeros((4, 4, 4), dtype=np.int64)
    target[:2] = 1
    sharp = np.zeros((2, 4, 4, 4))
    sharp[1] = 40.0 * target - 20.0
    sharp[0] = -sharp[1]
    ce, _ = _ce_and_dice(sharp, target)
    assert 1.0 - (_gap(sharp, target) - ce) > 0.999999


def test_combined_loss_aux_weight_schedule():
    cfg = _tiny_cfg()  # ds_decay 0.4, fraction 0.5
    rng = np.random.default_rng(8)
    target = (rng.random((8, 8, 8)) < 0.4).astype(np.int64)
    logits = Tensor(rng.normal(size=(2, 8, 8, 8)))
    aux = [Tensor(rng.normal(size=(2, 4, 4, 4)))]

    base = combined_loss(logits, target, [], cfg=cfg).item()
    ce, dice = _ce_and_dice(aux[0].data, target[::2, ::2, ::2])
    aux_term = ce + 1.0 - dice

    early = combined_loss(logits, target, aux, epoch=0, total_epochs=10, cfg=cfg).item()
    late = combined_loss(logits, target, aux, epoch=5, total_epochs=10, cfg=cfg).item()
    assert abs(early - (base + aux_term)) < 1e-12
    assert abs(late - (base + 0.4 * aux_term)) < 1e-12


def _composed_ce_dice_gap(x: Tensor, target: np.ndarray) -> Tensor:
    """The same loss term from generic tape ops, CE and Dice each on its own log_softmax."""
    onehot = np.moveaxis(np.eye(x.shape[0])[target], -1, 0)
    spatial = tuple(range(1, x.ndim))
    ce = T.scale(T.sum_(T.mul(Tensor(onehot), T.log_softmax(x, axis=0))), -1.0 / target.size)
    probs = T.exp(T.log_softmax(x, axis=0))
    num = T.add(T.scale(T.sum_(T.mul(probs, Tensor(onehot)), axis=spatial), 2.0), Tensor(1e-7))
    den = T.add(T.add(T.sum_(probs, axis=spatial), Tensor(onehot.sum(axis=spatial))), Tensor(1e-7))
    return T.add(ce, T.sub(Tensor(1.0), T.mean(T.div(num, den))))


def test_combined_loss_records_one_ce_dice_gap_per_logits_tensor():
    cfg = _tiny_cfg()
    rng = np.random.default_rng(10)
    target = (rng.random((8, 8, 8)) < 0.4).astype(np.int64)
    logits = Tensor(rng.normal(size=(2, 8, 8, 8)), requires_grad=True)
    aux = Tensor(rng.normal(size=(2, 4, 4, 4)), requires_grad=True)
    with Tape() as tape:
        loss = combined_loss(logits, target, [aux], cfg=cfg)
        tape.backward(loss)
    names = [name for name, _, _ in tape.nodes]
    assert names.count("ce_dice_gap") == 2 and "log_softmax" not in names
    # the generic-op composition of each term (aux weight 1.0 at epoch 0)
    for t, tgt in ((logits, target), (aux, target[::2, ::2, ::2])):
        x = Tensor(t.data, requires_grad=True)
        with Tape() as tape:
            tape.backward(_composed_ce_dice_gap(x, tgt))
        assert np.allclose(t.grad, x.grad, rtol=0, atol=1e-15)


def test_ce_dice_gap_keeps_the_gradient_of_strided_logits_without_a_copy(monkeypatch):
    rng = np.random.default_rng(11)
    target = (rng.random((8, 8, 8)) < 0.4).astype(np.int64)
    # laid out [d, class, h, w] in memory, as the model's head logits are
    logits = Tensor(rng.normal(size=(8, 2, 8, 8)).transpose(1, 0, 2, 3), requires_grad=True)
    handed = []
    accumulate = Tensor.accumulate

    def recording(self, g):
        if self is logits:
            handed.append(g)
        accumulate(self, g)

    monkeypatch.setattr(Tensor, "accumulate", recording)
    with Tape() as tape:
        tape.backward(_ce_plus_dice_gap(logits, target))
    assert len(handed) == 1 and logits.grad is handed[0]


def test_combined_loss_without_aux_is_ce_plus_dice_gap():
    cfg = _tiny_cfg()
    rng = np.random.default_rng(9)
    target = (rng.random((8, 8, 8)) < 0.5).astype(np.int64)
    logits = rng.normal(size=(2, 8, 8, 8))
    got = combined_loss(Tensor(logits), target, [], cfg=cfg).item()
    ce, dice = _ce_and_dice(logits, target)
    assert abs(got - (ce + 1.0 - dice)) < 1e-14


def test_one_byte_labels_give_the_int64_labels_loss_gradients_and_dice_bitwise():
    # the phantoms hold uint8 labels; API callers may pass any integer dtype
    cfg = _tiny_cfg(n_seg_classes=3)
    rng = np.random.default_rng(12)
    wide = rng.integers(0, 3, size=(8, 8, 8))
    logits, aux = rng.normal(size=(3, 8, 8, 8)), rng.normal(size=(3, 4, 4, 4))
    runs = []
    for target in (wide, wide.astype(np.uint8)):
        x, a = Tensor(logits.copy(), requires_grad=True), Tensor(aux.copy(), requires_grad=True)
        with Tape() as tape:
            loss = combined_loss(x, target, [a], epoch=1, total_epochs=4, cfg=cfg)
            tape.backward(loss)
        pred = np.argmax(logits, axis=0)
        runs.append((loss.data.tobytes(), x.grad.tobytes(), a.grad.tobytes(),
                     [dice_score(pred, target, c) for c in range(3)]))
    assert runs[0] == runs[1]


# ---------------------------------------------------------------------------
# training


def test_train_step_reduces_loss_on_repetition():
    cfg = _tiny_cfg()
    model = SegModel(cfg, rng=np.random.default_rng(10))
    batch = _batch(cfg, seed=11)
    opt = Adam()
    first = train_step(model, batch, opt, **{**STEP, "lr": 3e-3}, total_epochs=40)
    last = first
    for epoch in range(1, 40):
        last = train_step(model, batch, opt, **{**STEP, "lr": 3e-3}, epoch=epoch, total_epochs=40)
    assert np.isfinite(first) and np.isfinite(last)
    assert last < first


def test_default_train_step_releases_the_tape_as_it_goes():
    # a default-config step peaked at about 29 MB of traced allocations while every
    # first gradient was zero-filled and added and backward kept every gradient and
    # tape node to the end of the step; handed over and released, about 12.7 MB while
    # the tape kept every op's output, and about 9.0 MB with rules that keep only
    # the arrays they read
    model = SegModel(seg_config_from_values(load_config(None, "seg")), rng=np.random.default_rng(14))
    batch = _batch(model.cfg, seed=15)
    opt = Adam()
    train_step(model, batch, opt, **STEP, total_epochs=2)  # warm-up: Adam's moments are made once
    tracemalloc.start()
    try:
        train_step(model, batch, opt, **STEP, epoch=1, total_epochs=2)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 10.5e6, f"{peak / 1e6:.1f} MB traced peak"


def test_default_train_step_keeps_every_handed_over_gradient(monkeypatch):
    # while accumulate kept only gradients laid out like their data, a step copied
    # 20 arrays (4.8 MB): conv dX out of the kn2row buffer, the head logits, concat slices
    model = SegModel(SegConfig(), rng=np.random.default_rng(16))
    batch = _batch(model.cfg, seed=17)
    copied, kept = [], []
    accumulate = T.GradTarget.accumulate

    def recording(self, g):  # leaves and the tape's slots alike
        fresh = self.grad is None
        accumulate(self, g)
        if fresh:
            (kept if self.grad is g else copied).append((type(self), g.shape))

    monkeypatch.setattr(T.GradTarget, "accumulate", recording)
    train_step(model, batch, Adam(), **STEP, total_epochs=2)
    assert all(math.prod(shape) == 1 for _, shape in copied), copied
    assert {T.Slot, Tensor} <= {kind for kind, _ in kept}


def test_default_phase_convs_gather_and_the_rest_run_kn2row(monkeypatch):
    # at the default widths every decoder phase conv's offsets stack, so it
    # gathers its windows for one GEMM and differentiates through the same
    # windows: neither kn2row nor its offset runs see its 2x2x2 phase rows,
    # forward or flipped for dX; the skip stage's stem half and the 1x1 heads
    # do not stack, so they run kn2row forward and backward
    model = SegModel(SegConfig(), rng=np.random.default_rng(18))
    cfg = model.cfg
    batch = _batch(cfg, seed=19)
    seen, kernels = [], []
    kn2row, runs = T._kn2row, T._runs

    def recording(xp, layout, rows):
        seen.append(rows.shape)
        return kn2row(xp, layout, rows)

    def recording_runs(xp, layout, kernel):
        kernels.append(tuple(kernel))
        return runs(xp, layout, kernel)

    monkeypatch.setattr(T, "_kn2row", recording)
    monkeypatch.setattr(T, "_runs", recording_runs)
    enc, classes = cfg.encoder_channels[-1], cfg.n_seg_classes
    phase_in = [cfg.attention.embed_dim] + list(cfg.decoder_channels[:-1])
    phase_rows = {(8 * c, 2, 2, 2, i) for c, i in zip(cfg.decoder_channels, phase_in)}
    phase_rows |= {(i, 2, 2, 2, 8 * c) for c, i in zip(cfg.decoder_channels, phase_in)}
    stem_half = (cfg.decoder_channels[cfg.skip_stage], 3, 3, 3, enc)
    heads = {(classes, 1, 1, 1, c) for c in cfg.decoder_channels}
    train_step(model, batch, Adam(), **STEP, total_epochs=2)
    assert not phase_rows & set(seen), seen
    assert {stem_half} | heads <= set(seen), seen
    assert (2, 2, 2) not in kernels and {(3, 3, 3), (1, 1, 1)} <= set(kernels), kernels
    seen.clear()
    predict_labels(model, batch)
    assert not phase_rows & set(seen), seen
    assert {stem_half, (classes, 1, 1, 1, cfg.decoder_channels[-1])} <= set(seen), seen


def test_train_step_raises_on_poisoned_parameters():
    cfg = _tiny_cfg()
    model = SegModel(cfg, rng=np.random.default_rng(12))
    model.head.weight.data[0, 0, 0, 0, 0] = np.nan
    with pytest.raises(NumericError, match="first bad op"):
        train_step(model, _batch(cfg, seed=13), Adam(), **STEP)


# ---------------------------------------------------------------------------
# checkpoints


class _Pair(Module):
    def __init__(self, seed=0, wide=False):
        rng = np.random.default_rng(seed)
        self.first = Linear(3, 4 if not wide else 5, rng=rng)
        self.second = Linear(4 if not wide else 5, 2, rng=rng)


class _Extra(_Pair):
    def __init__(self, seed=0):
        super().__init__(seed)
        self.third = Linear(2, 2, rng=np.random.default_rng(seed + 1))


def test_checkpoint_roundtrip_is_bit_exact(tmp_path):
    src = _Pair(seed=1)
    path = tmp_path / "m.ckpt"
    save_checkpoint(src, path)
    dst = _Pair(seed=2)
    assert not np.array_equal(dst.first.weight.data, src.first.weight.data)
    load_checkpoint(dst, path)
    for (_, a), (_, b) in zip(src.named_parameters(), dst.named_parameters()):
        assert np.array_equal(a.data, b.data)


def test_checkpoint_format_header(tmp_path):
    path = tmp_path / "m.ckpt"
    save_checkpoint(_Pair(), path)
    raw = path.read_bytes()
    assert raw[:4] == CHECKPOINT_MAGIC
    assert raw[4] == CHECKPOINT_VERSION


def test_checkpoint_rejects_bad_magic(tmp_path):
    path = tmp_path / "m.ckpt"
    save_checkpoint(_Pair(), path)
    raw = bytearray(path.read_bytes())
    raw[:4] = b"XXXX"
    path.write_bytes(bytes(raw))
    with pytest.raises(CheckpointError, match="bad magic"):
        load_checkpoint(_Pair(), path)


def test_checkpoint_rejects_wrong_version(tmp_path):
    path = tmp_path / "m.ckpt"
    save_checkpoint(_Pair(), path)
    raw = bytearray(path.read_bytes())
    raw[4] = 9
    path.write_bytes(bytes(raw))
    with pytest.raises(CheckpointError, match=r"m\.ckpt: version 9"):
        load_checkpoint(_Pair(), path)


def test_checkpoint_rejects_truncation_and_trailing(tmp_path):
    path = tmp_path / "m.ckpt"
    save_checkpoint(_Pair(), path)
    raw = path.read_bytes()
    path.write_bytes(raw[:-3])
    with pytest.raises(CheckpointError, match="truncated"):
        load_checkpoint(_Pair(), path)
    path.write_bytes(raw + b"\x00\x00")
    with pytest.raises(CheckpointError, match="trailing"):
        load_checkpoint(_Pair(), path)


def test_checkpoint_rejects_name_mismatch(tmp_path):
    path = tmp_path / "m.ckpt"
    save_checkpoint(_Pair(), path)
    with pytest.raises(CheckpointError, match=r"m\.ckpt does not match the model: missing \['third"):
        load_checkpoint(_Extra(), path)
    save_checkpoint(_Extra(), path)
    with pytest.raises(CheckpointError, match=r"m\.ckpt does not match.*unexpected \['third"):
        load_checkpoint(_Pair(), path)


def test_checkpoint_rejects_a_repeated_entry_name(tmp_path):
    # weight, bias, then weight + 100 again: the third entry used to be loaded without a word
    model = Linear(3, 2, rng=np.random.default_rng(0))
    path = tmp_path / "m.ckpt"
    save_checkpoint(model, path)
    raw = path.read_bytes()
    again = struct.pack("<H", 6) + b"weight" + struct.pack("<B2I", 2, 3, 2) + (model.weight.data + 100.0).astype("<f8").tobytes()
    path.write_bytes(raw[:5] + struct.pack("<I", 3) + raw[9:] + again)
    before = model.weight.data.copy()
    with pytest.raises(CheckpointError, match=r"m\.ckpt: entry 2 repeats the name weight"):
        load_checkpoint(model, path)
    assert np.array_equal(model.weight.data, before)


def test_checkpoint_rejects_shape_mismatch(tmp_path):
    path = tmp_path / "m.ckpt"
    save_checkpoint(_Pair(), path)
    with pytest.raises(CheckpointError, match=r"m\.ckpt: parameter first.weight has shape \(3, 4\), the model \(3, 5\)"):
        load_checkpoint(_Pair(wide=True), path)


def test_checkpoint_rank_byte_mutations_are_checkpoint_errors(tmp_path):
    # a garbage rank reads later bytes as extents: numpy builds no rank above 64,
    # and the product of the extents can overflow int64
    path = tmp_path / "m.ckpt"
    save_checkpoint(_Pair(), path)
    raw = path.read_bytes()
    rank_at = raw.index(b"first.weight") + len(b"first.weight")  # entry 0
    assert raw[rank_at] == 2
    for rank in range(256):
        mutated = bytearray(raw)
        mutated[rank_at] = rank
        path.write_bytes(bytes(mutated))
        if rank == 2:
            load_checkpoint(_Pair(), path)
            continue
        with pytest.raises(CheckpointError, match=r"m\.ckpt") as info:
            load_checkpoint(_Pair(), path)
        if rank > 8:
            assert f"entry 0 has rank {rank}" in str(info.value)


def test_checkpoint_rejects_shape_larger_than_the_file(tmp_path):
    path = tmp_path / "m.ckpt"
    save_checkpoint(_Pair(), path)
    raw = bytearray(path.read_bytes())
    extents_at = raw.index(b"first.weight") + len(b"first.weight") + 1
    raw[extents_at:extents_at + 8] = (2**32 - 1).to_bytes(4, "little") * 2
    path.write_bytes(bytes(raw))
    with pytest.raises(CheckpointError, match=r"m\.ckpt truncated: entry 0 of shape \(4294967295, 4294967295\)"):
        load_checkpoint(_Pair(), path)


@settings(derandomize=True, max_examples=300, deadline=None, database=None)
@given(data=st.data())
def test_any_one_byte_mutation_loads_or_is_checkpoint_error(tmp_path_factory, data):
    path = tmp_path_factory.getbasetemp() / "mutation.ckpt"
    save_checkpoint(_Pair(), path)
    raw = bytearray(path.read_bytes())
    at = data.draw(st.integers(0, len(raw) - 1))
    raw[at] ^= data.draw(st.integers(1, 255))
    path.write_bytes(bytes(raw))
    try:
        load_checkpoint(_Pair(), path)
    except CheckpointError as exc:
        assert str(path) in str(exc)


def test_checkpoint_rejects_non_finite_values(tmp_path):
    src = _Pair()
    src.second.weight.data[1, 0] = np.nan
    path = tmp_path / "m.ckpt"
    save_checkpoint(src, path)
    dst = _Pair(seed=3)
    before = dst.first.weight.data.copy()
    with pytest.raises(CheckpointError, match="parameter second.weight has non-finite values"):
        load_checkpoint(dst, path)
    assert np.array_equal(dst.first.weight.data, before)  # nothing is loaded
    src.second.weight.data[1, 0] = np.inf
    save_checkpoint(src, path)
    with pytest.raises(CheckpointError, match="second.weight"):
        load_checkpoint(_Pair(), path)


def test_checkpoint_rejects_non_utf8_name(tmp_path):
    path = tmp_path / "m.ckpt"
    save_checkpoint(_Pair(), path)
    raw = bytearray(path.read_bytes())
    second = raw.index(b"first.bias")  # entry 1; its name follows a 2-byte length
    raw[second] = 0xFF
    path.write_bytes(bytes(raw))
    with pytest.raises(CheckpointError, match=r"m\.ckpt: entry 1 has a name that is not UTF-8"):
        load_checkpoint(_Pair(), path)


def test_checkpoint_truncated_inside_an_entry_header_names_the_entry(tmp_path):
    weights = Path(__file__).resolve().parents[1] / "perfbench/weights"
    model = SegModel(seg_config_from_values(load_config(weights / "train_seg.cfg", "seg")))
    raw = (weights / "seg_default_seed0.ckpt").read_bytes()
    path = tmp_path / "seg.ckpt"
    path.write_bytes(raw)
    load_checkpoint(model, path)  # the whole file loads
    # entry 1's header: name length, name, rank byte, extents
    name_len = int.from_bytes(raw[9:11], "little")
    rank = raw[11 + name_len]
    shape = struct.unpack(f"<{rank}I", raw[12 + name_len:12 + name_len + 4 * rank])
    start = 12 + name_len + 4 * rank + 8 * math.prod(shape)
    name_len = int.from_bytes(raw[start:start + 2], "little")
    end = start + 2 + name_len + 1 + 4 * raw[start + 2 + name_len]
    for cut in range(start, end + 1):
        path.write_bytes(raw[:cut])
        with pytest.raises(CheckpointError, match=r"seg\.ckpt truncated.*entry 1"):
            load_checkpoint(model, path)


def test_checkpoint_missing_file(tmp_path):
    with pytest.raises(CheckpointError, match="cannot read"):
        load_checkpoint(_Pair(), tmp_path / "absent.ckpt")


def test_seg_model_checkpoint_roundtrip(tmp_path):
    cfg = _tiny_cfg()
    src = SegModel(cfg, rng=np.random.default_rng(20))
    path = tmp_path / "seg.ckpt"
    save_checkpoint(src, path)
    dst = SegModel(cfg, rng=np.random.default_rng(21))
    load_checkpoint(dst, path)
    batch = _batch(cfg, seed=22)
    a, _ = src.forward(batch)
    b, _ = dst.forward(batch)
    assert np.array_equal(a.data, b.data)
