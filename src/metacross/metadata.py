"""Acquisition metadata: modality registry, availability masks, embeddings.

The modality dictionary is fixed at four MRI sequences in canonical order
FLAIR, T1c, T1, T2 (indices 0..3). The serialized names are exactly these
strings; every mask, attention column, and sweep artifact uses this order.
"""

from __future__ import annotations

from enum import IntEnum

import numpy as np

from . import tensor as T
from .errors import ConfigError, NoModalityError, ShapeError
from .nn import Linear, Module, parameter
from .tensor import Tensor

MODALITY_NAMES = ("FLAIR", "T1c", "T1", "T2")
N_MODALITIES = 4

CONTEXT_EMBED_DIM = 16  # each context field embeds to 16 numbers
FILM_CONTEXT_DIM = 2 * CONTEXT_EMBED_DIM
FILM_HIDDEN_DIM = 64

N_PLANES = 3  # axial, sagittal, coronal


class Modality(IntEnum):
    FLAIR = 0
    T1C = 1
    T1 = 2
    T2 = 3


class ModalityMask:
    """Which of the four modalities are present, plus the additive mask.

    ``additive`` is a [1 x 4] row holding 0.0 for available columns and
    -inf for missing ones, ready to be added to (and broadcast over) the
    rows of attention logits. At least one modality must be available.
    """

    def __init__(self, available):
        avail = tuple(bool(a) for a in available)
        if len(avail) != N_MODALITIES:
            raise ShapeError(f"availability needs {N_MODALITIES} flags, got {len(avail)}")
        if not any(avail):
            raise NoModalityError("no modality available: the attention rows would be fully masked")
        self.available = avail
        self.additive = Tensor(np.where(np.array([avail]), 0.0, -np.inf))

    def __repr__(self) -> str:
        names = [MODALITY_NAMES[i] for i, a in enumerate(self.available) if a]
        return f"ModalityMask({'+'.join(names)})"


class MetadataEmbeddings(Module):
    """Lookup tables for sequence and plane identifiers (16 dims each)."""

    def __init__(self, rng: np.random.Generator | None = None):
        rng = rng if rng is not None else np.random.default_rng(0)
        self.sequence_table = parameter(rng, (N_MODALITIES, CONTEXT_EMBED_DIM), 0.5)
        self.plane_table = parameter(rng, (N_PLANES, CONTEXT_EMBED_DIM), 0.5)

    def context(self, sequence, plane) -> Tensor:
        """[rows, 32] FiLM context of one (sequence, plane) id pair, or of equal-length id lists.

        Each row is the sequence embedding followed by the plane embedding.
        """
        seq, pl = np.atleast_1d(sequence), np.atleast_1d(plane)
        if seq.ndim != 1 or seq.shape != pl.shape or seq.size == 0:
            raise ShapeError(f"need one id pair or equal-length id lists, got shapes {seq.shape} and {pl.shape}")
        for field, ids, n in (("sequence", seq, N_MODALITIES), ("plane", pl, N_PLANES)):
            bad = ids[(ids < 0) | (ids >= n)]
            if bad.size:
                raise ConfigError(f"{field} id {bad[0]} outside [0, {n})")
        return T.concat([T.take_rows(self.sequence_table, seq), T.take_rows(self.plane_table, pl)], axis=1)


class FilmGenerator(Module):
    """Two-layer MLP mapping a 32-dim metadata context to gamma and beta.

    Hidden width is fixed at 64 with ReLU; the head emits 2*channels values,
    gamma first. For 128 channels the generator holds 18,752 parameters.
    """

    def __init__(self, channels: int, rng: np.random.Generator | None = None):
        rng = rng if rng is not None else np.random.default_rng(0)
        if channels < 1:
            raise ConfigError(f"film generator needs at least one channel, got {channels}")
        self.channels = int(channels)
        self.hidden = Linear(FILM_CONTEXT_DIM, FILM_HIDDEN_DIM, rng=rng)
        self.head = Linear(FILM_HIDDEN_DIM, 2 * self.channels, rng=rng)
        # start near identity so modulation grows only as training asks for it
        self.head.weight.data *= 0.1

    def params_for(self, ctx: Tensor) -> tuple[Tensor, Tensor]:
        """(gamma, beta), ``[rows, channels]`` each, from a ``[rows, 32]`` context."""
        both = self.head(T.relu(self.hidden(ctx)))  # [rows, 2C]
        return T.narrow(both, 1, 0, self.channels), T.narrow(both, 1, self.channels, self.channels)

    def zero_(self) -> None:
        """Zero every weight so gamma = beta = 0 for any context."""
        for p in self.parameters():
            p.data[...] = 0.0


class MetadataEncoder(Module):
    """Learned four-entry modality dictionary projected to K and V rows.

    The keys and values depend only on these parameters, never on image
    content; row i corresponds to modality i in canonical order.
    """

    def __init__(self, embed_dim: int, model_dim: int, rng: np.random.Generator | None = None):
        rng = rng if rng is not None else np.random.default_rng(0)
        if embed_dim < 1 or model_dim < 1:
            raise ConfigError(f"encoder dims must be positive, got E={embed_dim} D={model_dim}")
        self.embed_dim = int(embed_dim)
        self.model_dim = int(model_dim)
        self.table = parameter(rng, (N_MODALITIES, self.embed_dim), 0.5)
        self.k_proj = Linear(self.embed_dim, self.model_dim, rng=rng)
        self.v_proj = Linear(self.embed_dim, self.model_dim, rng=rng)

    def tokens(self) -> tuple[Tensor, Tensor]:
        """Return (K, V), each of shape [4 x model_dim]."""
        return self.k_proj(self.table), self.v_proj(self.table)
