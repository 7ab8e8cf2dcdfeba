"""Acquisition metadata: modality registry, availability masks, embeddings.

The modality dictionary is fixed at four MRI sequences in canonical order
FLAIR, T1c, T1, T2 (indices 0..3). The serialized names are exactly these
strings; every mask, attention column, and sweep artifact uses this order.
"""

from __future__ import annotations

from dataclasses import dataclass
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
PLANE_NAMES = ("axial", "sagittal", "coronal")


class Modality(IntEnum):
    FLAIR = 0
    T1C = 1
    T1 = 2
    T2 = 3

    @property
    def label(self) -> str:
        return MODALITY_NAMES[int(self)]


class ModalityMask:
    """Which of the four modalities are present, plus the additive mask.

    ``additive`` is an [n_tokens x 4] tensor holding 0.0 for available
    columns and -inf for missing ones, ready to be added to attention
    logits. At least one modality must be available.
    """

    def __init__(self, available, n_tokens: int | None = None):
        avail = tuple(bool(a) for a in available)
        if len(avail) != N_MODALITIES:
            raise ShapeError(f"availability needs {N_MODALITIES} flags, got {len(avail)}")
        if not any(avail):
            raise NoModalityError("no modality available: the attention rows would be fully masked")
        self.available = avail
        self.n_tokens = None if n_tokens is None else int(n_tokens)
        self._additive: Tensor | None = None

    @property
    def n_available(self) -> int:
        return sum(self.available)

    @property
    def additive(self) -> Tensor:
        if self.n_tokens is None:
            raise ShapeError("mask has no token count; call resize(n_tokens) first")
        if self._additive is None:
            row = np.where(np.array(self.available), 0.0, -np.inf)
            self._additive = Tensor(np.tile(row, (self.n_tokens, 1)))
        return self._additive

    def resize(self, n_tokens: int) -> "ModalityMask":
        if self.n_tokens == n_tokens:
            return self
        return ModalityMask(self.available, n_tokens)

    def __eq__(self, other) -> bool:
        return isinstance(other, ModalityMask) and self.available == other.available and self.n_tokens == other.n_tokens

    def __repr__(self) -> str:
        names = [MODALITY_NAMES[i] for i, a in enumerate(self.available) if a]
        return f"ModalityMask({'+'.join(names)}, n_tokens={self.n_tokens})"


@dataclass
class MetadataContext:
    """Sequence and plane identifiers with their learned embeddings, one row per sample."""

    sequence: tuple[int, ...]
    plane: tuple[int, ...]
    sequence_embedding: Tensor  # [rows, 16]
    plane_embedding: Tensor  # [rows, 16]

    def __post_init__(self):
        want = (len(self.sequence), CONTEXT_EMBED_DIM)
        for field, emb in (("sequence", self.sequence_embedding), ("plane", self.plane_embedding)):
            if emb.shape != want:
                raise ShapeError(f"{field} embedding must have shape {want}, got {emb.shape}")


@dataclass
class FilmParams:
    """Per-channel multiplicative (gamma) and additive (beta) modulation.

    Shapes are ``[rows, C]``, one row per sample or one row shared by the
    whole batch; a rank-1 ``[C]`` pair is one shared row.
    """

    gamma: Tensor
    beta: Tensor

    def __post_init__(self):
        if self.gamma.ndim not in (1, 2) or self.gamma.shape != self.beta.shape:
            raise ShapeError(f"gamma {self.gamma.shape} and beta {self.beta.shape} must be equal [C] or [rows, C] shapes")

    @property
    def channels(self) -> int:
        return self.gamma.shape[-1]

    @property
    def rows(self) -> int:
        return self.gamma.shape[0] if self.gamma.ndim == 2 else 1


class MetadataEmbeddings(Module):
    """Lookup tables for sequence and plane identifiers (16 dims each)."""

    def __init__(self, n_sequences: int = N_MODALITIES, n_planes: int = N_PLANES,
                 rng: np.random.Generator | None = None):
        rng = rng if rng is not None else np.random.default_rng(0)
        if n_sequences < 1 or n_planes < 1:
            raise ConfigError("embedding tables need at least one row each")
        self.n_sequences = int(n_sequences)
        self.n_planes = int(n_planes)
        self.sequence_table = parameter(rng, (self.n_sequences, CONTEXT_EMBED_DIM), 0.5)
        self.plane_table = parameter(rng, (self.n_planes, CONTEXT_EMBED_DIM), 0.5)

    def context(self, sequence, plane) -> MetadataContext:
        """Embeddings of one (sequence, plane) id pair, or of equal-length id lists."""
        seq, pl = np.atleast_1d(sequence), np.atleast_1d(plane)
        if seq.ndim != 1 or seq.shape != pl.shape or seq.size == 0:
            raise ShapeError(f"need one id pair or equal-length id lists, got shapes {seq.shape} and {pl.shape}")
        for field, ids, n in (("sequence", seq, self.n_sequences), ("plane", pl, self.n_planes)):
            bad = ids[(ids < 0) | (ids >= n)]
            if bad.size:
                raise ConfigError(f"{field} id {bad[0]} outside [0, {n})")
        return MetadataContext(tuple(seq.tolist()), tuple(pl.tolist()),
                               T.take_rows(self.sequence_table, seq), T.take_rows(self.plane_table, pl))


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

    def params_for(self, ctx: MetadataContext) -> FilmParams:
        """Gamma and beta, ``[rows, channels]`` each, one row per context row."""
        context = T.concat([ctx.sequence_embedding, ctx.plane_embedding], axis=1)  # [rows, 32]
        both = self.head(T.relu(self.hidden(context)))  # [rows, 2C]
        return FilmParams(T.narrow(both, 1, 0, self.channels), T.narrow(both, 1, self.channels, self.channels))

    def __call__(self, ctx: MetadataContext) -> FilmParams:
        return self.params_for(ctx)

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
