"""Patch tokenization and the masked metadata cross-attention block.

Queries come from image patches; keys and values come from the fixed
four-entry modality dictionary. Missing modalities are removed from the
attention normalization by an additive {0, -inf} mask, so a masked column
contributes an exact zero weight and an exact zero gradient.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import tensor as T
from .errors import ConfigError, ShapeError
from .metadata import ModalityMask, N_MODALITIES
from .nn import LayerNorm, Linear, Module, parameter
from .tensor import Tensor


@dataclass
class AttentionConfig:
    """Geometry of the cross-attention bottleneck."""

    embed_dim: int
    patch_size: int = 4
    ffn_hidden: int | None = None
    n_layers: int = 1

    def __post_init__(self):
        if self.embed_dim < 1:
            raise ConfigError(f"embed_dim must be positive, got {self.embed_dim}")
        if self.patch_size < 1:
            raise ConfigError(f"patch_size must be positive, got {self.patch_size}")
        if self.ffn_hidden is None:
            self.ffn_hidden = 4 * self.embed_dim
        if self.ffn_hidden < 1:
            raise ConfigError(f"ffn_hidden must be positive, got {self.ffn_hidden}")
        if self.n_layers < 1:
            raise ConfigError(f"n_layers must be positive, got {self.n_layers}")


class PatchTokenizer(Module):
    """Partition a volume into cubic patches and project each to a token.

    Construction fixes the expected channel count and volume extent; the
    learned positional embedding has one row per patch. Extents must divide
    evenly by the patch size.
    """

    def __init__(self, in_channels: int, extent: tuple[int, int, int], cfg: AttentionConfig,
                 *, rng: np.random.Generator):
        p = cfg.patch_size
        for e in extent:
            if e % p != 0:
                raise ShapeError(f"extent {extent} not divisible by patch size {p}")
        self.cfg = cfg
        self.in_channels = int(in_channels)
        self.extent = tuple(int(e) for e in extent)
        self.grid = tuple(e // p for e in self.extent)
        self.n_tokens = self.grid[0] * self.grid[1] * self.grid[2]
        patch_len = self.in_channels * p ** 3
        self.proj = Linear(patch_len, cfg.embed_dim, rng=rng)
        self.positional = parameter(rng, (self.n_tokens, cfg.embed_dim), 0.02)

    def __call__(self, volume: Tensor) -> Tensor:
        """[channels, d, h, w] to [n_tokens, embed_dim]; rows follow the patch grid in row-major order."""
        if volume.ndim != 4:
            raise ShapeError(f"tokenizer expects [channels, d, h, w], got {volume.shape}")
        if volume.shape[0] != self.in_channels or volume.shape[1:] != self.extent:
            raise ShapeError(
                f"tokenizer built for {self.in_channels} channels at {self.extent}, got {volume.shape}")
        p = self.cfg.patch_size
        gd, gh, gw = self.grid
        c = self.in_channels
        x = T.reshape(volume, (c, gd, p, gh, p, gw, p))
        x = T.transpose(x, (1, 3, 5, 0, 2, 4, 6))  # [gd, gh, gw, c, p, p, p]
        patches = T.reshape(x, (self.n_tokens, c * p ** 3))
        return T.add(self.proj(patches), self.positional)

    def cost_rows(self, name: str = "tokenizer"):
        from .complexity import LayerCost, linear_flops

        patch_len = self.proj.in_features
        params = self.proj.weight.size + self.proj.bias.size + self.positional.size
        flops = linear_flops(self.n_tokens, patch_len, self.cfg.embed_dim) + self.n_tokens * self.cfg.embed_dim
        return [LayerCost(name, "tokenizer", params, flops)]


class CrossAttentionBlock(Module):
    """One enrichment layer: masked cross-attention, then norm and FFN.

    Layout (post-norm): ``h = LN1(Q + A @ V)`` with A the masked softmax of
    Q K^T / sqrt(D), then ``out = LN2(h + FFN(h))`` with a two-layer
    GELU feed-forward. Queries and output are both [N, D] token rows.
    """

    def __init__(self, cfg: AttentionConfig, *, rng: np.random.Generator):
        self.cfg = cfg
        d = cfg.embed_dim
        self.norm_attn = LayerNorm(d)
        self.norm_ffn = LayerNorm(d)
        self.ffn_in = Linear(d, cfg.ffn_hidden, rng=rng)
        self.ffn_out = Linear(cfg.ffn_hidden, d, rng=rng)

    def enrich(self, q: Tensor, keys: Tensor, values: Tensor, mask: ModalityMask) -> Tensor:
        """Q + A @ V with availability-masked attention weights."""
        _, d = q.shape
        if keys.shape != (N_MODALITIES, d) or values.shape != (N_MODALITIES, d):
            raise ShapeError(
                f"keys/values must be [{N_MODALITIES} x {d}], got {keys.shape} and {values.shape}")
        scores = T.scale(T.matmul(q, T.transpose(keys, (1, 0))), 1.0 / math.sqrt(d))
        weights = T.masked_softmax_rows(scores, mask.additive)
        return T.add(q, T.matmul(weights, values))

    def __call__(self, q: Tensor, keys: Tensor, values: Tensor, mask: ModalityMask) -> Tensor:
        h = self.norm_attn(self.enrich(q, keys, values, mask))
        ffn = self.ffn_out(T.gelu(self.ffn_in(h)))
        return self.norm_ffn(T.add(h, ffn))

