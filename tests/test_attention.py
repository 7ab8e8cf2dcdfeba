"""Patch tokenizer and the masked metadata cross-attention block."""

import numpy as np
import pytest

import metacross.tensor as T
from metacross.attention import (
    AttentionConfig,
    CrossAttentionBlock,
    PatchTokenizer,
    attention_flops,
)
from metacross.errors import ConfigError, ShapeError
from metacross.metadata import MetadataEncoder, ModalityMask
from metacross.tensor import Tensor


def test_config_defaults_and_validation():
    cfg = AttentionConfig(embed_dim=32)
    assert cfg.ffn_hidden == 128  # defaults to 4x width
    with pytest.raises(ConfigError):
        AttentionConfig(embed_dim=0)
    with pytest.raises(ConfigError):
        AttentionConfig(embed_dim=8, patch_size=0)
    with pytest.raises(ConfigError):
        AttentionConfig(embed_dim=8, n_layers=0)
    with pytest.raises(ConfigError):
        AttentionConfig(embed_dim=8, ffn_hidden=-1)


# ---------------------------------------------------------------------------
# tokenizer


def test_token_counts_for_standard_geometries():
    cfg = AttentionConfig(embed_dim=16, patch_size=4)
    tok = PatchTokenizer(1, (64, 64, 64), cfg, rng=np.random.default_rng(0))
    assert tok.n_tokens == 4096
    small = PatchTokenizer(1, (8, 8, 8), cfg, rng=np.random.default_rng(0))
    assert small.n_tokens == 8


def test_tokenizer_rejects_indivisible_extent():
    cfg = AttentionConfig(embed_dim=16, patch_size=4)
    with pytest.raises(ShapeError, match="not divisible"):
        PatchTokenizer(1, (10, 10, 10), cfg)


def test_tokenizer_rejects_wrong_input_shape():
    cfg = AttentionConfig(embed_dim=16, patch_size=2)
    tok = PatchTokenizer(2, (4, 4, 4), cfg, rng=np.random.default_rng(0))
    with pytest.raises(ShapeError):
        tok(Tensor(np.zeros((1, 4, 4, 4))))
    with pytest.raises(ShapeError):
        tok(Tensor(np.zeros((4, 4, 4))))


def test_tokenizer_matches_patch_oracle():
    # oracle: gather each cube by loops, flatten channel-major, run the linear
    rng = np.random.default_rng(13)
    cfg = AttentionConfig(embed_dim=5, patch_size=2)
    tok = PatchTokenizer(2, (4, 4, 4), cfg, rng=np.random.default_rng(1))
    vol = rng.normal(size=(2, 4, 4, 4))
    got = tok(Tensor(vol)).data

    idx = 0
    for i in range(2):
        for j in range(2):
            for k in range(2):
                patch = vol[:, 2 * i:2 * i + 2, 2 * j:2 * j + 2, 2 * k:2 * k + 2]
                flat = patch.reshape(-1)
                want = flat @ tok.proj.weight.data + tok.proj.bias.data + tok.positional.data[idx]
                assert np.all(np.abs(got[idx] - want) < 1e-12)
                idx += 1


# ---------------------------------------------------------------------------
# cross-attention block


def _block(d, seed=0):
    cfg = AttentionConfig(embed_dim=d, patch_size=2)
    return CrossAttentionBlock(cfg, rng=np.random.default_rng(seed))


def test_enrich_with_zero_values_is_identity():
    rng = np.random.default_rng(3)
    block = _block(6)
    q = Tensor(rng.normal(size=(5, 6)))
    k = Tensor(rng.normal(size=(4, 6)))
    v = Tensor(np.zeros((4, 6)))
    out = block.enrich(q, k, v, ModalityMask((True, True, True, True)))
    assert np.array_equal(out.data, q.data)


def test_enrich_single_modality_copies_its_value_row():
    # with one column available the weights are exactly 1, so every token
    # gains exactly that value row
    rng = np.random.default_rng(4)
    block = _block(8)
    q = Tensor(rng.normal(size=(3, 8)))
    k = Tensor(rng.normal(size=(4, 8)))
    v = Tensor(rng.normal(size=(4, 8)))
    out = block.enrich(q, k, v, ModalityMask((False, False, True, False)))
    assert np.array_equal(out.data, q.data + v.data[2])


def test_enrich_ignores_masked_dictionary_rows():
    # perturbing K and V rows of unavailable modalities must not move a bit
    rng = np.random.default_rng(5)
    block = _block(6)
    q = Tensor(rng.normal(size=(4, 6)))
    k = rng.normal(size=(4, 6))
    v = rng.normal(size=(4, 6))
    mask = ModalityMask((True, False, True, False))
    base = block.enrich(q, Tensor(k), Tensor(v), mask)
    k2, v2 = k.copy(), v.copy()
    k2[1] += 100.0
    v2[3] -= 50.0
    again = block.enrich(q, Tensor(k2), Tensor(v2), mask)
    assert np.array_equal(base.data, again.data)


def test_enrich_matches_dense_softmax_when_all_available():
    rng = np.random.default_rng(6)
    block = _block(4)
    q = rng.normal(size=(5, 4))
    k = rng.normal(size=(4, 4))
    v = rng.normal(size=(4, 4))
    out = block.enrich(Tensor(q), Tensor(k), Tensor(v),
                       ModalityMask((True, True, True, True)))
    scores = q @ k.T / 2.0
    e = np.exp(scores - scores.max(axis=1, keepdims=True))
    a = e / e.sum(axis=1, keepdims=True)
    assert np.all(np.abs(out.data - (q + a @ v)) < 1e-12)


def test_enrich_validates_dictionary_shapes():
    block = _block(6)
    q = Tensor(np.zeros((3, 6)))
    mask = ModalityMask((True, True, True, True))
    with pytest.raises(ShapeError):
        block.enrich(q, Tensor(np.zeros((3, 6))), Tensor(np.zeros((4, 6))), mask)
    with pytest.raises(ShapeError):
        block.enrich(q, Tensor(np.zeros((4, 6))), Tensor(np.zeros((4, 5))), mask)


def test_forward_tokens_rows_are_normalized():
    # the block ends in a layer norm with fresh unit gain, so each output row
    # has zero mean and unit variance
    rng = np.random.default_rng(7)
    block = _block(16)
    enc = MetadataEncoder(embed_dim=16, model_dim=16, rng=np.random.default_rng(8))
    k, v = enc.tokens()
    q = Tensor(rng.normal(size=(6, 16)))
    out = block(q, k, v, ModalityMask((True, False, True, True)))
    assert out.shape == (6, 16)
    assert np.all(np.abs(out.data.mean(axis=1)) < 1e-12)
    assert np.all(np.abs(out.data.var(axis=1) - 1.0) < 1e-3)


def test_call_preserves_grid_extent():
    # tokenizer then block: still one row per cell of the 2x3x2 patch grid
    rng = np.random.default_rng(9)
    block = _block(8)
    tok = PatchTokenizer(3, (4, 6, 4), block.cfg, rng=np.random.default_rng(11))
    tokens = tok(Tensor(rng.normal(size=(3, 4, 6, 4))))
    enc = MetadataEncoder(embed_dim=16, model_dim=8, rng=np.random.default_rng(10))
    k, v = enc.tokens()
    out = block(tokens, k, v, ModalityMask((True, True, True, True)))
    assert tok.grid == (2, 3, 2)
    assert out.shape == tokens.shape == (12, 8)


# ---------------------------------------------------------------------------
# flop accounting


def test_attention_flops_reference_points():
    cfg = AttentionConfig(embed_dim=256, patch_size=4)
    assert attention_flops(cfg, 4096, "self_attention") == 17_179_869_184
    assert attention_flops(cfg, 4096, "metadata_cross") == 16_777_216
    ratio = attention_flops(cfg, 4096, "self_attention") / attention_flops(cfg, 4096, "metadata_cross")
    assert ratio == 4096 / 4  # N/M exactly


def test_attention_flops_scaling_laws():
    cfg = AttentionConfig(embed_dim=64, patch_size=4)
    # cross mode is linear in token count, self mode quadratic
    assert attention_flops(cfg, 200, "metadata_cross") == 2 * attention_flops(cfg, 100, "metadata_cross")
    assert attention_flops(cfg, 200, "self_attention") == 4 * attention_flops(cfg, 100, "self_attention")


def test_attention_flops_rejects_bad_inputs():
    cfg = AttentionConfig(embed_dim=8)
    with pytest.raises(ShapeError):
        attention_flops(cfg, 0, "metadata_cross")
    with pytest.raises(ConfigError, match="self_attention.*metadata_cross"):
        attention_flops(cfg, 8, "typo_mode")
