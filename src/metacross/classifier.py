"""Metadata-conditioned 2D classifier.

FiLM modulation is residual per channel, ``out = x + gamma*x + beta``, with
gamma and beta predicted from the metadata context. Injection happens only
at the deepest configured stages; shallower stages carry no modulation
parameters at all.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import tensor as T
from .errors import ConfigError, EmptyInputError, ShapeError
from .metadata import (FILM_CONTEXT_DIM, FILM_HIDDEN_DIM, FilmGenerator,
                       MetadataEmbeddings)
from .nn import Conv, Linear, Module
from .tensor import Tensor

IN_CHANNELS = 1  # single-channel slices
N_CLASSES = 2  # lesion present or absent
BOOTSTRAP_RESAMPLES = 2000
BOOTSTRAP_COVERAGE = 0.95


@dataclass
class ClassifierConfig:
    stage_channels: tuple[int, ...] = (16, 32, 64, 128)
    film_stages: tuple[int, ...] = (2, 3)

    def __post_init__(self):
        self.stage_channels = tuple(int(c) for c in self.stage_channels)
        self.film_stages = tuple(sorted(int(s) for s in self.film_stages))
        if not self.stage_channels:
            raise ConfigError("stage_channels is empty: the classifier needs at least one stage")
        if any(c < 1 for c in self.stage_channels):
            raise ConfigError(f"stage channels must be positive, got {self.stage_channels}")
        n = len(self.stage_channels)
        bad = [s for s in self.film_stages if not 0 <= s < n]
        if bad:
            raise ConfigError(f"film_stages {bad} outside valid range [0, {n})")
        deepest = tuple(range(n - len(self.film_stages), n))
        if self.film_stages and self.film_stages != deepest:
            raise ConfigError(f"film_stages: modulation is injected progressively from the deepest stage; "
                              f"expected {deepest}, got {self.film_stages}")

    @property
    def min_extent(self) -> int:
        return 2 ** len(self.stage_channels)


def film_apply(x: Tensor, params: tuple[Tensor, Tensor]) -> Tensor:
    """Residual per-channel modulation of a [batch, C, H, W] feature map.

    ``params`` is a (gamma, beta) pair of equal ``[rows, C]`` shapes, with one
    row shared by the whole batch or one row per sample.
    """
    gamma, beta = params
    if x.ndim != 4:
        raise ShapeError(f"film_apply expects [batch, C, H, W], got {x.shape}")
    if gamma.ndim != 2 or gamma.shape != beta.shape:
        raise ShapeError(f"gamma {gamma.shape} and beta {beta.shape} must be equal [rows, C] shapes")
    b, c = x.shape[:2]
    rows, channels = gamma.shape
    if channels != c:
        raise ConfigError(f"film parameters carry {channels} channels but the feature map has {c}")
    if rows not in (1, b):
        raise ShapeError(f"film parameters carry {rows} rows for a batch of {b}; need 1 or {b}")
    shape = (rows, c, 1, 1)
    return T.add(x, T.add(T.mul(x, T.reshape(gamma, shape)), T.reshape(beta, shape)))


@dataclass
class ClsSample:
    """One labeled slice with its acquisition metadata."""

    image: np.ndarray  # [1, H, W] float64
    sequence: int
    plane: int
    label: int


class FilmClassifier(Module):
    """Stride-2 conv stages with FiLM at the deepest ones, then a linear head."""

    def __init__(self, cfg: ClassifierConfig, rng: np.random.Generator | None = None):
        rng = rng if rng is not None else np.random.default_rng(0)
        self.cfg = cfg
        self.embeddings = MetadataEmbeddings(rng=rng)
        stages = []
        prev = IN_CHANNELS
        for ch in cfg.stage_channels:
            stages.append(Conv(2, prev, ch, kernel=3, stride=2, padding=1, rng=rng))
            prev = ch
        self.stages = stages
        self.film = {str(s): FilmGenerator(cfg.stage_channels[s], rng=rng) for s in cfg.film_stages}
        self.head = Linear(prev, N_CLASSES, rng=rng)

    def context(self, sequence, plane) -> Tensor:
        """[rows, 32] context of one (sequence, plane) id pair, or of equal-length id lists."""
        return self.embeddings.context(sequence, plane)

    def forward(self, image: Tensor, ctx: Tensor, use_film: bool = True) -> Tensor:
        """Logits [batch x 2]; ``ctx`` has one row shared by the batch or one per sample."""
        if image.ndim != 4 or image.shape[1] != IN_CHANNELS:
            raise ShapeError(f"expected [batch, {IN_CHANNELS}, H, W], got {image.shape}")
        h, w = image.shape[2], image.shape[3]
        if h < self.cfg.min_extent or w < self.cfg.min_extent:
            raise ShapeError(f"input {h}x{w} too small for {len(self.stages)} halving stages (min {self.cfg.min_extent})")
        x = image
        for i, conv in enumerate(self.stages):
            x = T.relu(conv(x))
            if use_film and i in self.cfg.film_stages:
                x = film_apply(x, self.film[str(i)].params_for(ctx))
        pooled = T.mean(x, axis=(2, 3))
        return self.head(pooled)

    def cost_rows(self, input_shape: tuple[int, ...], name: str = "classifier"):
        from .complexity import LayerCost, linear_flops

        rows = []
        b, _, h, w = input_shape
        shape = tuple(input_shape)
        for i, conv in enumerate(self.stages):
            rows.extend(conv.cost_rows(shape, name=f"{name}.stage{i}"))
            h, w = conv.output_extent(h), conv.output_extent(w)
            shape = (b, conv.out_ch, h, w)
            if i in self.cfg.film_stages:
                gen = self.film[str(i)]
                params = gen.n_parameters()
                flops = linear_flops(b, FILM_CONTEXT_DIM, FILM_HIDDEN_DIM, True) \
                    + linear_flops(b, FILM_HIDDEN_DIM, 2 * gen.channels, True) \
                    + 4 * b * conv.out_ch * h * w  # apply: mul + two adds + broadcast copy
                rows.append(LayerCost(f"{name}.film{i}", "film", params, flops))
        rows.extend(self.head.cost_rows((b, self.stages[-1].out_ch), name=f"{name}.head"))
        return rows


def evaluate_accuracy(model: FilmClassifier, samples: list[ClsSample],
                      metadata: list[tuple[int, int]] | None = None) -> float:
    """Fraction of correct argmax predictions, optionally with substituted metadata."""
    if not samples:
        raise EmptyInputError("cannot evaluate an empty sample list")
    pairs = [(s.sequence, s.plane) for s in samples] if metadata is None else list(metadata)
    if len(pairs) != len(samples):
        raise ShapeError(f"{len(pairs)} metadata pairs for {len(samples)} samples")
    ctx = model.context(*zip(*pairs))
    logits = model.forward(Tensor(np.stack([s.image for s in samples])), ctx)
    correct = np.argmax(logits.data, axis=1) == np.array([s.label for s in samples])
    return int(correct.sum()) / len(samples)


def permutation_probe(model: FilmClassifier, samples: list[ClsSample], trials: int, seed: int) -> dict:
    """Accuracy drop when metadata is shuffled across the dataset.

    Each trial permutes the observed (sequence, plane) pairs uniformly at
    random and re-evaluates. Returns the true accuracy, per-trial shuffled
    accuracies, and their difference delta = true - mean(shuffled).
    """
    if trials < 1:
        raise EmptyInputError(f"permutation probe needs at least one trial, got {trials}")
    if not samples:
        raise EmptyInputError("permutation probe needs a non-empty dataset")
    rng = np.random.default_rng(seed)
    true_acc = evaluate_accuracy(model, samples)
    pairs = [(s.sequence, s.plane) for s in samples]
    shuffled = []
    for _ in range(trials):
        order = rng.permutation(len(pairs))
        shuffled.append(evaluate_accuracy(model, samples, [pairs[j] for j in order]))
    delta = true_acc - float(np.mean(shuffled))
    return {"true_accuracy": true_acc, "shuffled_accuracies": shuffled, "delta": delta}


def bootstrap_delta_interval(true_acc: float, shuffled: list[float], seed: int) -> tuple[float, float]:
    """Percentile bootstrap interval for delta over the shuffling trials."""
    if not shuffled:
        raise EmptyInputError("bootstrap needs at least one shuffled accuracy")
    rng = np.random.default_rng(seed)
    arr = np.asarray(shuffled)
    deltas = np.empty(BOOTSTRAP_RESAMPLES)
    for i in range(BOOTSTRAP_RESAMPLES):
        pick = rng.integers(0, arr.size, size=arr.size)
        deltas[i] = true_acc - arr[pick].mean()
    lo = (1.0 - BOOTSTRAP_COVERAGE) / 2.0
    return float(np.quantile(deltas, lo)), float(np.quantile(deltas, 1.0 - lo))


def gamma_statistics(model: FilmClassifier, samples: list[ClsSample]) -> dict[int, float]:
    """Mean |gamma| per FiLM stage across the dataset's metadata contexts.

    Gamma depends only on metadata, so image content never enters.
    """
    if not model.cfg.film_stages:
        raise ConfigError("model has no FiLM stages to summarize")
    if not samples:
        raise EmptyInputError("gamma statistics need a non-empty dataset")
    ctx = model.context([s.sequence for s in samples], [s.plane for s in samples])
    return {stage: float(np.mean(np.abs(model.film[str(stage)].params_for(ctx)[0].data)))
            for stage in model.cfg.film_stages}
