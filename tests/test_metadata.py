"""Modality identities, availability masks, and the FiLM generator."""

import numpy as np
import pytest

import metacross.tensor as T
from metacross.classifier import film_apply
from metacross.errors import ConfigError, NoModalityError, ShapeError
from metacross.metadata import (
    CONTEXT_EMBED_DIM,
    FILM_CONTEXT_DIM,
    FILM_HIDDEN_DIM,
    MODALITY_NAMES,
    N_PLANES,
    FilmGenerator,
    MetadataEmbeddings,
    MetadataEncoder,
    Modality,
    ModalityMask,
)
from metacross.tensor import Tape, Tensor


def test_modality_order_is_canonical():
    assert MODALITY_NAMES == ("FLAIR", "T1c", "T1", "T2")
    assert [m.value for m in Modality] == [0, 1, 2, 3]


def test_context_dims():
    assert CONTEXT_EMBED_DIM == 16
    assert FILM_CONTEXT_DIM == 2 * CONTEXT_EMBED_DIM
    assert FILM_HIDDEN_DIM == 64
    assert N_PLANES == 3


# ---------------------------------------------------------------------------
# availability masks


def test_mask_requires_four_flags():
    with pytest.raises(ShapeError):
        ModalityMask((True, False, True))


def test_mask_requires_some_modality():
    with pytest.raises(NoModalityError):
        ModalityMask((False, False, False, False))


def test_mask_counts_available():
    mask = ModalityMask((True, False, False, True))
    assert mask.available == (True, False, False, True)


def test_additive_mask_values():
    mask = ModalityMask((True, False, True, False))
    add = mask.additive
    assert add.shape == (1, 4)
    assert np.all(add.data[:, 0] == 0.0)
    assert np.all(add.data[:, 2] == 0.0)
    assert np.all(np.isneginf(add.data[:, 1]))
    assert np.all(np.isneginf(add.data[:, 3]))


# ---------------------------------------------------------------------------
# context embeddings for the 2D classifier


def test_embeddings_context_reads_tables():
    emb = MetadataEmbeddings(rng=np.random.default_rng(0))
    ctx = emb.context(sequence=2, plane=1)
    assert ctx.shape == (1, FILM_CONTEXT_DIM)
    assert np.array_equal(ctx.data[0], np.concatenate([emb.sequence_table.data[2], emb.plane_table.data[1]]))

    batch = emb.context(sequence=[3, 2, 3], plane=[0, 1, 2])
    assert batch.shape == (3, FILM_CONTEXT_DIM)
    assert np.array_equal(batch.data, np.concatenate([emb.sequence_table.data[[3, 2, 3]],
                                                      emb.plane_table.data[[0, 1, 2]]], axis=1))


def test_embeddings_reject_bad_ids():
    emb = MetadataEmbeddings(rng=np.random.default_rng(0))
    with pytest.raises(ConfigError, match="sequence id 4"):
        emb.context(sequence=4, plane=0)
    with pytest.raises(ConfigError, match="plane id 3"):
        emb.context(sequence=0, plane=3)
    with pytest.raises(ConfigError):
        emb.context(sequence=-1, plane=0)
    with pytest.raises(ConfigError, match="sequence id 5"):
        emb.context(sequence=[0, 5], plane=[0, 0])
    with pytest.raises(ShapeError, match="equal-length"):
        emb.context(sequence=[0, 1], plane=[0])
    with pytest.raises(ShapeError):
        emb.context(sequence=[], plane=[])


def test_embeddings_deterministic_per_seed():
    a = MetadataEmbeddings(rng=np.random.default_rng(42))
    b = MetadataEmbeddings(rng=np.random.default_rng(42))
    assert np.array_equal(a.sequence_table.data, b.sequence_table.data)
    assert np.array_equal(a.plane_table.data, b.plane_table.data)


# ---------------------------------------------------------------------------
# FiLM generator


def test_film_generator_parameter_counts():
    gen = FilmGenerator(channels=128, rng=np.random.default_rng(1))
    counts = {name: p.size for name, p in gen.named_parameters()}
    # hidden: 32*64 + 64; head: 64*256 + 256
    assert sum(v for k, v in counts.items() if "hidden" in k) == 2112
    assert sum(v for k, v in counts.items() if "head" in k) == 16640
    assert sum(counts.values()) == 18752


def test_film_generator_head_is_damped():
    gen = FilmGenerator(channels=8, rng=np.random.default_rng(2))
    # head weights start 10x smaller than the hidden layer's scale
    assert np.abs(gen.head.weight.data).std() < np.abs(gen.hidden.weight.data).std()


def test_film_generator_split_order_gamma_then_beta():
    rng = np.random.default_rng(3)
    gen = FilmGenerator(channels=5, rng=rng)
    emb = MetadataEmbeddings(rng=rng)
    ctx = emb.context(sequence=[1, 3], plane=[2, 0])
    gamma, beta = gen.params_for(ctx)
    assert gamma.shape == (2, 5)
    assert beta.shape == (2, 5)

    # oracle: run the two linear layers by hand on each row and split the 2C vector
    for row, (seq, plane) in enumerate([(1, 2), (3, 0)]):
        context = np.concatenate([emb.sequence_table.data[seq], emb.plane_table.data[plane]])
        h = np.maximum(context @ gen.hidden.weight.data + gen.hidden.bias.data, 0.0)
        raw = h @ gen.head.weight.data + gen.head.bias.data
        assert np.allclose(gamma.data[row], raw[:5], atol=1e-15)
        assert np.allclose(beta.data[row], raw[5:], atol=1e-15)


def test_film_generator_zero_collapses_output():
    rng = np.random.default_rng(4)
    gen = FilmGenerator(channels=6, rng=rng)
    gen.zero_()
    emb = MetadataEmbeddings(rng=rng)
    for seq in range(2):
        gamma, beta = gen.params_for(emb.context(sequence=seq, plane=0))
        assert np.all(gamma.data == 0.0)
        assert np.all(beta.data == 0.0)


def test_film_generator_rejects_bad_channel_count():
    with pytest.raises(ConfigError):
        FilmGenerator(channels=0, rng=np.random.default_rng(0))


def test_params_for_channel_mismatch():
    rng = np.random.default_rng(5)
    gen = FilmGenerator(channels=4, rng=rng)
    emb = MetadataEmbeddings(rng=rng)
    params = gen.params_for(emb.context(sequence=0, plane=0))
    with pytest.raises(ConfigError, match="4 channels but the feature map has 7"):
        film_apply(Tensor(np.zeros((1, 7, 2, 2))), params)


def test_film_generator_gradients_flow_to_tables():
    rng = np.random.default_rng(6)
    gen = FilmGenerator(channels=3, rng=rng)
    emb = MetadataEmbeddings(rng=rng)
    for p in gen.parameters() + emb.parameters():
        p.needs_grad = True
    with Tape() as tape:
        gamma, beta = gen.params_for(emb.context(sequence=1, plane=2))
        y = T.sum_(T.add(T.mul(gamma, gamma), beta))
        tape.backward(y)
    assert emb.sequence_table.grad is not None
    assert np.any(emb.sequence_table.grad[1] != 0.0)
    assert np.all(emb.sequence_table.grad[0] == 0.0)  # unused id stays untouched
    assert gen.head.weight.grad is not None


def test_only_used_embedding_rows_get_gradients():
    rng = np.random.default_rng(6)
    gen = FilmGenerator(channels=3, rng=rng)
    emb = MetadataEmbeddings(rng=rng)
    with Tape() as tape:
        gamma, beta = gen.params_for(emb.context(sequence=[1, 3, 1], plane=[2, 2, 2]))
        tape.backward(T.sum_(T.add(T.mul(gamma, gamma), beta)))
    used_seq = np.any(emb.sequence_table.grad != 0.0, axis=1)
    used_plane = np.any(emb.plane_table.grad != 0.0, axis=1)
    assert used_seq.tolist() == [False, True, False, True]
    assert used_plane.tolist() == [False, False, True]


# ---------------------------------------------------------------------------
# key/value encoder for the 3D pipeline


def test_encoder_token_shapes():
    enc = MetadataEncoder(embed_dim=16, model_dim=12, rng=np.random.default_rng(7))
    k, v = enc.tokens()
    assert k.shape == (4, 12)
    assert v.shape == (4, 12)


def test_encoder_rows_are_independent():
    # K/V row i depends only on identity table row i, so perturbing one
    # identity must leave the other rows bit-identical
    enc = MetadataEncoder(embed_dim=16, model_dim=10, rng=np.random.default_rng(8))
    k0, v0 = enc.tokens()
    enc.table.data[2] += 1.0
    k1, v1 = enc.tokens()
    for row in (0, 1, 3):
        assert np.array_equal(k0.data[row], k1.data[row])
        assert np.array_equal(v0.data[row], v1.data[row])
    assert not np.array_equal(k0.data[2], k1.data[2])
    assert not np.array_equal(v0.data[2], v1.data[2])


def test_encoder_matches_linear_oracle():
    enc = MetadataEncoder(embed_dim=16, model_dim=6, rng=np.random.default_rng(9))
    k, v = enc.tokens()
    want_k = enc.table.data @ enc.k_proj.weight.data + enc.k_proj.bias.data
    want_v = enc.table.data @ enc.v_proj.weight.data + enc.v_proj.bias.data
    assert np.allclose(k.data, want_k, atol=1e-15)
    assert np.allclose(v.data, want_v, atol=1e-15)


def test_encoder_rejects_bad_dims():
    with pytest.raises(ConfigError):
        MetadataEncoder(embed_dim=0, model_dim=4)
