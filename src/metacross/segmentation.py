"""3D segmentation with a metadata cross-attention bottleneck.

Each modality owns a small conv encoder stem. Stems of missing modalities
are gated off (skipped entirely), the survivors are summed, tokenized,
enriched under the availability mask, and decoded back to voxel logits.
"""

from __future__ import annotations

import math
import struct
from dataclasses import dataclass, field as dc_field

import numpy as np

from . import tensor as T
from .attention import AttentionConfig, CrossAttentionBlock, PatchTokenizer
from .errors import CheckpointError, ConfigError, NumericError, ShapeError
from .metadata import MetadataEncoder, ModalityMask, N_MODALITIES
from .nn import Adam, Conv, Module, optimize
from .tensor import Tensor

CHECKPOINT_MAGIC = b"MCKP"
CHECKPOINT_VERSION = 1
_MAX_RANK = 8  # parameters here are rank 1-5; a larger rank byte is corruption
_DICE_SMOOTH = 1e-7  # added to each class's soft Dice numerator and denominator


@dataclass
class SegConfig:
    extent: int = 32
    attention: AttentionConfig = dc_field(default_factory=lambda: AttentionConfig(embed_dim=32))
    encoder_channels: tuple[int, ...] = (8,)
    decoder_channels: tuple[int, ...] = (16, 8, 8)
    n_seg_classes: int = 2
    deep_supervision: bool = True
    ds_decay: float = 0.4
    ds_decay_epoch_fraction: float = 0.5
    metadata_embed_dim: int = 16

    def __post_init__(self):
        self.encoder_channels = tuple(int(c) for c in self.encoder_channels)
        self.decoder_channels = tuple(int(c) for c in self.decoder_channels)
        if not self.decoder_channels:
            raise ConfigError("decoder_channels is empty: the decoder needs at least one stage")
        if not self.encoder_channels:
            raise ConfigError("encoder_channels is empty: the encoder needs at least one stage")
        if any(c < 1 for c in self.encoder_channels + self.decoder_channels):
            raise ConfigError("channel counts must be positive")
        if not 0.0 < self.ds_decay <= 1.0:
            raise ConfigError(f"ds_decay must lie in (0, 1], got {self.ds_decay}")
        if not 0.0 <= self.ds_decay_epoch_fraction <= 1.0:
            raise ConfigError(f"ds_decay_epoch_fraction must lie in [0, 1], got {self.ds_decay_epoch_fraction}")
        if self.n_seg_classes < 2:
            raise ConfigError(f"need at least two segmentation classes, got {self.n_seg_classes}")
        if self.metadata_embed_dim < 1:
            raise ConfigError("metadata_embed_dim must be positive")
        p = self.attention.patch_size
        if p & (p - 1):  # the encoder's part of the downsample is a power of two, so only this can spoil it
            raise ConfigError(f"patch_size {p} must be a power of two, as the total downsample factor must be")
        down = self.total_downsample
        if self.extent % down:
            raise ConfigError(f"config keys 'extent', 'encoder_channels', 'patch_size': "
                              f"extent {self.extent} not divisible by total downsample {down}")
        needed = down.bit_length() - 1
        if len(self.decoder_channels) != needed:
            raise ConfigError(
                f"decoder_channels must undo a x{down} downsample: expected {needed} stages, "
                f"got {len(self.decoder_channels)}")

    @property
    def n_encoder_stages(self) -> int:
        return len(self.encoder_channels)

    @property
    def total_downsample(self) -> int:
        return (2 ** self.n_encoder_stages) * self.attention.patch_size

    @property
    def encoded_extent(self) -> int:
        return self.extent // (2 ** self.n_encoder_stages)

    @property
    def grid_extent(self) -> int:
        return self.extent // self.total_downsample

    @property
    def n_tokens(self) -> int:
        return self.grid_extent ** 3

    @property
    def skip_stage(self) -> int | None:
        """Decoder stage whose post-upsample extent matches the fused stem
        features, which join it as a skip connection: its conv weight's
        trailing input channels read them."""
        ext = self.grid_extent
        for i in range(len(self.decoder_channels)):
            ext *= 2
            if ext == self.encoded_extent:
                return i
        return None


@dataclass
class SegBatch:
    """One volume: four channels (zero-filled where missing), mask, labels."""

    volumes: Tensor  # [4, d, h, w]
    mask: ModalityMask
    target: np.ndarray  # [d, h, w] non-negative labels of any integer dtype (the phantoms use uint8)

    def __post_init__(self):
        if self.volumes.ndim != 4 or self.volumes.shape[0] != N_MODALITIES:
            raise ShapeError(f"volumes must be [{N_MODALITIES}, d, h, w], got {self.volumes.shape}")
        self.target = np.asarray(self.target)
        if self.target.shape != self.volumes.shape[1:]:
            raise ShapeError(f"target {self.target.shape} does not match volume extent {self.volumes.shape[1:]}")
        if not np.issubdtype(self.target.dtype, np.integer):
            raise ShapeError(f"target labels must be integers, got dtype {self.target.dtype}")
        if self.target.min() < 0:
            raise ShapeError("target labels must be non-negative")
        if not np.all(np.isfinite(self.volumes.data)):
            raise NumericError("volumes contain non-finite values")


class SegModel(Module):
    def __init__(self, cfg: SegConfig, rng: np.random.Generator | None = None):
        rng = rng if rng is not None else np.random.default_rng(0)
        self.cfg = cfg
        att = cfg.attention
        self.stems = [self._build_stem(cfg, rng) for _ in range(N_MODALITIES)]
        e = cfg.encoded_extent
        self.tokenizer = PatchTokenizer(cfg.encoder_channels[-1], (e, e, e), att, rng=rng)
        self.meta_encoder = MetadataEncoder(cfg.metadata_embed_dim, att.embed_dim, rng=rng)
        self.blocks = [CrossAttentionBlock(att, rng=rng) for _ in range(att.n_layers)]
        decoder = []
        prev = att.embed_dim
        for i, ch in enumerate(cfg.decoder_channels):
            in_ch = prev + (cfg.encoder_channels[-1] if i == cfg.skip_stage else 0)
            decoder.append(Conv(3, in_ch, ch, kernel=3, stride=1, padding=1, rng=rng))
            prev = ch
        self.decoder = decoder
        if cfg.deep_supervision:
            self.aux_heads = [Conv(3, ch, cfg.n_seg_classes, kernel=1, rng=rng)
                              for ch in cfg.decoder_channels[:-1]]
        else:
            self.aux_heads = []
        self.head = Conv(3, prev, cfg.n_seg_classes, kernel=1, rng=rng)

    @staticmethod
    def _build_stem(cfg: SegConfig, rng: np.random.Generator) -> list[Conv]:
        stem = []
        prev = 1
        for ch in cfg.encoder_channels:
            stem.append(Conv(3, prev, ch, kernel=3, stride=2, padding=1, rng=rng))
            prev = ch
        return stem

    def _encode(self, batch: SegBatch) -> Tensor:
        """Fuse the features of the available modalities; missing stems never execute."""
        cfg = self.cfg
        e = cfg.extent
        # Sum, not mean: a subset's features are then a partial sum of the
        # full set's, so adding a modality adds evidence instead of diluting
        # strong channels with weak ones.  Downstream layer norm bounds scale.
        fused = None
        for m in (i for i, ok in enumerate(batch.mask.available) if ok):
            x = T.reshape(T.narrow(batch.volumes, 0, m, 1), (1, 1, e, e, e))
            for conv in self.stems[m]:
                x = T.relu(conv(x))
            fused = x if fused is None else T.add(fused, x)
        ee = cfg.encoded_extent
        return T.reshape(fused, (fused.shape[1], ee, ee, ee))

    def forward(self, batch: SegBatch) -> tuple[Tensor, list[Tensor]]:
        """The logits and, while a tape records, the deep-supervision logits ([] otherwise)."""
        cfg = self.cfg
        if batch.volumes.shape[1:] != (cfg.extent,) * 3:
            raise ShapeError(f"model built for extent {cfg.extent}, got volume {batch.volumes.shape}")
        if batch.target.max() >= cfg.n_seg_classes:
            raise ShapeError(f"target label {batch.target.max()} outside [0, {cfg.n_seg_classes})")

        fused = self._encode(batch)
        tokens = self.tokenizer(fused)
        keys, values = self.meta_encoder.tokens()
        for block in self.blocks:
            tokens = block(tokens, keys, values, batch.mask)
        # token rows are the grid cells in row-major order
        g = cfg.grid_extent
        x = T.reshape(T.transpose(tokens, (1, 0)), (1, cfg.attention.embed_dim, g, g, g))

        # Each stage convolves the nearest x2 upsample of x as its eight output
        # phases and interleaves them into voxel order. The last stage's bias,
        # ReLU and 1x1 head are pointwise, so they run on the phases, and only
        # the logit channels are interleaved; the ReLU overwrites the phases,
        # which nothing else reads. Only the loss reads the deep-supervision
        # logits, so they are built only while a tape records.
        aux: list[Tensor] = []
        supervise = cfg.deep_supervision and T.active_tape() is not None
        for i, conv in enumerate(self.decoder[:-1]):
            if i == cfg.skip_stage:  # conv(concat(up(x), f), W) = conv(up(x), W[:, :c]) + conv(f, W[:, c:])
                c = x.shape[1]
                x = T.add(T.interleave_phases(T.conv3d(x, T.narrow(conv.weight, 1, 0, c), conv.bias, padding=1,
                                                       upsample_phases=True)),
                          T.conv3d(T.reshape(fused, (1,) + fused.shape), T.narrow(conv.weight, 1, c, conv.in_ch - c),
                                   None, padding=1))
            else:
                x = T.interleave_phases(T.conv3d(x, conv.weight, conv.bias, padding=1, upsample_phases=True))
            x = T.relu(x)
            if supervise:
                a = self.aux_heads[i](x)
                ext = a.shape[2]
                aux.append(T.reshape(a, (cfg.n_seg_classes, ext, ext, ext)))
        # the skip stage is never the last: the stem features are at most half the extent
        conv = self.decoder[-1]
        phases = T.relu(T.conv3d(x, conv.weight, conv.bias, padding=1, upsample_phases=True), inplace=True)
        logits = T.interleave_phases(self.head(phases))
        return T.reshape(logits, (cfg.n_seg_classes,) + (cfg.extent,) * 3), aux

    def cost_rows(self, name: str = "seg"):
        from .complexity import LayerCost, metadata_cross_rows

        cfg = self.cfg
        rows: list[LayerCost] = []
        e = cfg.extent
        for m, stem in enumerate(self.stems):
            ext = e
            for j, conv in enumerate(stem):
                rows.extend(conv.cost_rows((1, conv.in_ch, ext, ext, ext), name=f"{name}.stem{m}.{j}"))
                ext = conv.output_extent(ext)
        rows.extend(self.tokenizer.cost_rows(name=f"{name}.tokenizer"))
        rows.extend(metadata_cross_rows(name, cfg.attention, cfg.n_tokens, cfg.metadata_embed_dim))
        ext = cfg.grid_extent
        for i, conv in enumerate(self.decoder):
            ext *= 2
            rows.extend(conv.cost_rows((1, conv.in_ch, ext, ext, ext), name=f"{name}.decoder{i}"))
        for i, head in enumerate(self.aux_heads):
            ext_i = cfg.grid_extent * (2 ** (i + 1))
            rows.extend(head.cost_rows((1, head.in_ch, ext_i, ext_i, ext_i), name=f"{name}.aux{i}"))
        rows.extend(self.head.cost_rows((1, self.head.in_ch, e, e, e), name=f"{name}.head"))
        return rows


# ---------------------------------------------------------------------------
# metrics and losses


def dice_score(pred, target, class_id: int) -> float:
    """Hard overlap 2|P & T| / (|P| + |T|); defined as 1.0 when both empty."""
    p = np.asarray(pred)
    t = np.asarray(target)
    if p.shape != t.shape:
        raise ShapeError(f"dice: prediction {p.shape} and target {t.shape} differ")
    pm = p == class_id
    tm = t == class_id
    denom = int(pm.sum()) + int(tm.sum())
    if denom == 0:
        return 1.0
    return 2.0 * int((pm & tm).sum()) / denom


def _one_hot(target: np.ndarray, n_classes: int) -> np.ndarray:
    """[C, *spatial] float64 indicator of each class."""
    # class ids in the labels' own dtype when they fit, so the compare casts no label
    fits = np.issubdtype(target.dtype, np.integer) and n_classes - 1 <= np.iinfo(target.dtype).max
    classes = np.arange(n_classes, dtype=target.dtype if fits else None).reshape((n_classes,) + (1,) * target.ndim)
    return (classes == target).astype(np.float64)


def _ce_plus_dice_gap(logits: Tensor, target: np.ndarray) -> Tensor:
    """Mean cross entropy plus (1 - mean soft Dice) over the leading class axis, as one tape op.

    Both read one softmax p. The gradient is (p - onehot) / N plus the Dice
    gap's gradient in p pulled back through the softmax Jacobian."""
    x, n_classes, n = logits.data, logits.shape[0], target.size
    spatial = tuple(range(1, x.ndim))
    z = x - x.max(axis=0, keepdims=True)
    log_p = z - np.log(np.exp(z).sum(axis=0, keepdims=True))
    onehot, p = _one_hot(target, n_classes), np.exp(log_p)
    num = (p * onehot).sum(axis=spatial) * 2.0 + _DICE_SMOOTH
    den = p.sum(axis=spatial) + onehot.sum(axis=spatial) + _DICE_SMOOTH
    out = Tensor((onehot * log_p).sum() * (-1.0 / n) + (1.0 - (num / den).sum() * (1.0 / n_classes)))
    dst = T._target(logits)  # the rule keeps p and onehot, not the logits

    def rule(g: np.ndarray) -> None:
        per_class = (n_classes,) + (1,) * len(spatial)
        # d(1 - Dice)/dp, less its p-weighted sum over classes (the softmax Jacobian)
        d = ((num / (den * den)).reshape(per_class) - onehot * (2.0 / den).reshape(per_class)) * (1.0 / n_classes)
        d -= (p * d).sum(axis=0, keepdims=True)
        gx = p * d
        gx += (p - onehot) * (1.0 / n)
        gx *= g
        dst.accumulate(gx)

    return T._record("ce_dice_gap", out, (logits,), rule)


def combined_loss(logits: Tensor, target: np.ndarray, aux_logits: list[Tensor] = (),
                  *, epoch: int = 0, total_epochs: int = 1, cfg: SegConfig) -> Tensor:
    """Cross entropy plus (1 - soft Dice), with decaying auxiliary terms.

    Each head's term is one ``ce_dice_gap`` tape op: both parts read one
    softmax, and its gradient is closed form. Auxiliary heads compare
    against nearest-subsampled targets and carry weight 1.0 until
    ``ds_decay_epoch_fraction`` of training has elapsed, then exactly
    ``ds_decay``.
    """
    loss = _ce_plus_dice_gap(logits, target)
    if not aux_logits:
        return loss
    progress = epoch / total_epochs if total_epochs > 0 else 1.0
    weight = 1.0 if progress < cfg.ds_decay_epoch_fraction else cfg.ds_decay
    full = target.shape[0]
    for a in aux_logits:
        f = full // a.shape[1]
        loss = T.add(loss, T.scale(_ce_plus_dice_gap(a, target[::f, ::f, ::f]), weight))
    return loss


def train_step(model: SegModel, batch: SegBatch, optimizer: Adam,
               lr: float, weight_decay: float, clip: float,
               *, epoch: int = 0, total_epochs: int = 1) -> float:
    """One optimization step; returns the loss value before the update."""
    def loss_of() -> Tensor:
        logits, aux = model.forward(batch)
        return combined_loss(logits, batch.target, aux, epoch=epoch, total_epochs=total_epochs, cfg=model.cfg)

    return optimize(model, loss_of, optimizer, lr, weight_decay, clip)


def predict_labels(model: SegModel, batch: SegBatch) -> np.ndarray:
    """Arg-max segmentation labels, computed without recording a tape.

    A strict compare over the classes, one class at a time, keeps the first
    maximum as ``np.argmax`` does, without its per-voxel loop over the class
    axis. A non-finite logit raises NumericError; numpy's floating-point
    warnings are silenced in the forward, so an overflow surfaces only as that.
    """
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        logits, _ = model.forward(batch)
    x = logits.data
    if not np.isfinite(x).all():
        raise NumericError("predict_labels: the logits are not finite")
    best, labels = x[0], (x[1] > x[0]).astype(np.intp)
    for c in range(2, x.shape[0]):
        best = np.maximum(best, x[c - 1])
        np.putmask(labels, x[c] > best, c)
    return labels


# ---------------------------------------------------------------------------
# checkpoint container: magic, version byte, then (name, shape, f64 LE data)


def save_checkpoint(model: Module, path) -> None:
    entries = model.named_parameters()
    with open(path, "wb") as fh:
        fh.write(CHECKPOINT_MAGIC)
        fh.write(struct.pack("<B", CHECKPOINT_VERSION))
        fh.write(struct.pack("<I", len(entries)))
        for name, p in entries:
            raw = name.encode("utf-8")
            fh.write(struct.pack("<H", len(raw)))
            fh.write(raw)
            fh.write(struct.pack("<B", p.ndim))
            fh.write(struct.pack(f"<{p.ndim}I", *p.shape))
            fh.write(p.data.astype("<f8").tobytes())


def load_checkpoint(model: Module, path) -> None:
    try:
        with open(path, "rb") as fh:
            blob = fh.read()
    except OSError as exc:
        raise CheckpointError(f"cannot read checkpoint {path}: {exc}") from exc
    view = memoryview(blob)
    off = 0

    def take(n: int, index: int | None = None) -> memoryview:
        nonlocal off
        if off + n > len(view):
            where = "" if index is None else f" inside the header of entry {index}"
            raise CheckpointError(f"checkpoint {path} truncated at byte {off}{where}")
        chunk = view[off:off + n]
        off += n
        return chunk

    if bytes(take(4)) != CHECKPOINT_MAGIC:
        raise CheckpointError(f"{path} is not a parameter checkpoint (bad magic)")
    version = struct.unpack("<B", take(1))[0]
    if version != CHECKPOINT_VERSION:
        raise CheckpointError(f"checkpoint {path}: version {version} unsupported (expected {CHECKPOINT_VERSION})")
    count = struct.unpack("<I", take(4))[0]
    loaded: dict[str, np.ndarray] = {}
    for index in range(count):
        name_len = struct.unpack("<H", take(2, index))[0]
        try:
            name = bytes(take(name_len, index)).decode("utf-8")
        except UnicodeDecodeError as exc:
            raise CheckpointError(f"checkpoint {path}: entry {index} has a name that is not UTF-8") from exc
        if name in loaded:
            raise CheckpointError(f"checkpoint {path}: entry {index} repeats the name {name}")
        rank = struct.unpack("<B", take(1, index))[0]
        if rank > _MAX_RANK:
            raise CheckpointError(f"checkpoint {path}: entry {index} has rank {rank} (at most {_MAX_RANK})")
        shape = struct.unpack(f"<{rank}I", take(4 * rank, index))
        nbytes = 8 * math.prod(shape)
        if nbytes > len(view) - off:
            raise CheckpointError(f"checkpoint {path} truncated: entry {index} of shape {shape} needs "
                                  f"{nbytes} bytes, {len(view) - off} remain")
        arr = np.frombuffer(take(nbytes), dtype="<f8").reshape(shape).astype(np.float64)
        if not np.all(np.isfinite(arr)):
            raise CheckpointError(f"checkpoint {path}: parameter {name} has non-finite values")
        loaded[name] = arr
    if off != len(view):
        raise CheckpointError(f"checkpoint {path} has {len(view) - off} trailing bytes")

    params = dict(model.named_parameters())
    missing = sorted(set(params) - set(loaded))
    extra = sorted(set(loaded) - set(params))
    if missing or extra:
        raise CheckpointError(f"checkpoint {path} does not match the model: "
                              f"missing {missing[:3]}, unexpected {extra[:3]}")
    for name, p in params.items():
        if loaded[name].shape != p.shape:
            raise CheckpointError(f"checkpoint {path}: parameter {name} has shape {loaded[name].shape}, "
                                  f"the model {p.shape}")
        p.data = loaded[name].copy()
