"""Flat key = value run configuration.

One assignment per line, ``#`` starts a comment, no sections. Every key is
validated against the schema of the requested task before any computation
starts; unknown keys, unparseable or non-finite values and values outside
a key's bound name the offending key.
"""

from __future__ import annotations

import math
import operator
from pathlib import Path

from .classifier import ClassifierConfig
from .errors import ConfigError
from .metadata import N_MODALITIES
from .phantoms import DEFAULT_CONTRASTS, SEG_LABEL_DTYPE, PhantomSpec
from .segmentation import SegConfig


def _to_bool(raw: str) -> bool:
    low = raw.strip().lower()
    if low in ("true", "yes", "1", "on"):
        return True
    if low in ("false", "no", "0", "off"):
        return False
    raise ValueError(f"not a boolean: {raw!r}")


def _to_int_list(raw: str) -> tuple[int, ...]:
    """An empty value is the empty list; an empty entry in a non-empty one is an error."""
    return tuple(int(s) for s in raw.split(",")) if raw.strip() else ()


_CONVERTERS = {
    "int": int,
    "float": float,
    "bool": _to_bool,
    "str": lambda s: s.strip(),
    "int_list": _to_int_list,
}

# bounds a value must meet: at least / greater than / one of / inside a closed interval /
# every list entry inside one
_AT_LEAST_1, _AT_LEAST_0, _POSITIVE = (">=", 1), (">=", 0), (">", 0.0)
# phantom levels are normalized image intensities: a noise near 1e308 overflows the
# phantoms and values past about 1e154 overflow a layer norm's squares, so both are capped far below
_LEVEL, _NOISE = ("within", (-1e3, 1e3)), ("within", (0.0, 1e3))
# The model and phantom defaults live on their dataclasses; the schemas read them from here.
_SEG_DEFAULT, _CLS_DEFAULT, _PHANTOM_DEFAULT = SegConfig(), ClassifierConfig(), PhantomSpec()
# cls phantoms keep PhantomSpec's default lesion radii, the largest of which must be at most
# (extent - 1) / 2 for a sphere's centre to exist
_CLS_MIN_EXTENT = (">=", math.ceil(2 * _PHANTOM_DEFAULT.radius_range[1] + 1))
# A run generates its phantom sets whole before it starts. Each sample costs this many
# bytes per voxel of its extent^3 volume (seg: four float64 channels and a one-byte label,
# 33 bytes; cls: the float64 volume its slices are cut from), and a set may hold at most
# _PHANTOM_BYTES_MAX, about 41x the default seg training set. Steps and trials only make a
# run long, so they stay unbounded.
_PHANTOM_BYTES_MAX = 1 << 30
_PHANTOM_VOXEL_BYTES = {"seg": N_MODALITIES * 8 + SEG_LABEL_DTYPE.itemsize, "cls": 8}
# Width and depth caps, each far above the defaults, so a typo cannot ask numpy for
# more memory than the machine has. Each bounds one key; the model's size is their product.
# Token width: 4x the 256-wide bottleneck the complexity report costs by default; the two
# D x 4D FFN weights then hold 8.4 M float64 parameters (67 MB before gradients and moments).
_WIDTH = ("within", (1, 1024))
# FFN width: the default 4x ratio at the widest embed_dim; 0 means that default.
_FFN_HIDDEN = ("within", (0, 4096))
# Bottleneck depth: twice the 12 layers of UNETR's ViT-Base encoder. The complexity
# report costs the same bottleneck, so it takes the same range.
_DEPTH = ("within", (1, 24))
# Seg classes: BraTS labels four; each class is one more extent^3 logit volume.
_SEG_CLASSES = ("within", (2, 16))
# Seg conv channels: 16x the widest default stage, under nnU-Net's 320-channel cap; one
# 256-channel float64 map at the default extent 32 is 67 MB.
_SEG_CHANNELS = ("all within", (1, 256))
# Cls stage channels: 4x the default deepest 128; a 512-channel 3x3 conv holds 2.4 M weights.
_CLS_CHANNELS = ("all within", (1, 512))
# A model's size is a product of several keys, so both tasks also cap the float64 bytes of
# its parameters plus its largest activation (seg: one volume; cls: one training batch or
# the evaluation set).
# A training step peaked at 6-10x these bytes, measured on 2 CPUs (seg at extent 64 and 128,
# embed_dim 1024 and 256-channel decoders; cls batches of 256 and 1024 at extent 64): the
# forward keeps its activations for backward, and every parameter has a gradient and two
# Adam moments. 256 MiB thus keeps a run under about 2.5 GB and holds 3x the largest
# single-cap seg model (embed_dim 1024: 9.5 M parameters, 76 MB).
_MODEL_BYTES_MAX = 1 << 28
_BOUND_OPS = {">=": operator.ge, ">": operator.gt, "in": lambda value, allowed: value in allowed,
              # a non-finite float passes here so the finiteness check names it; an int of
              # any size is compared exactly, never converted to float
              "within": lambda value, span: (span[0] <= value <= span[1]
                                             or isinstance(value, float) and not math.isfinite(value)),
              "all within": lambda values, span: all(span[0] <= v <= span[1] for v in values)}

# schema entries: key -> (type name, default[, bound]); complexity draws nothing at random
# and gradcheck writes no file, so each takes only the one of these it reads
_SEED = {"seed": ("int", 0, _AT_LEAST_0)}
_OUT = {"out": ("str", "out")}

_SEG = {
    **_SEED, **_OUT,
    "extent": ("int", _SEG_DEFAULT.extent, _AT_LEAST_1),
    "n_train": ("int", 24, _AT_LEAST_1),
    "n_eval": ("int", 24, _AT_LEAST_1),
    "steps": ("int", 900, _AT_LEAST_1),
    "lr": ("float", 2e-4, _POSITIVE),
    "weight_decay": ("float", 1e-4, _AT_LEAST_0),
    "clip": ("float", 1.0, _POSITIVE),
    "embed_dim": ("int", _SEG_DEFAULT.attention.embed_dim, _WIDTH),
    "patch_size": ("int", _SEG_DEFAULT.attention.patch_size, _AT_LEAST_1),
    "n_layers": ("int", _SEG_DEFAULT.attention.n_layers, _DEPTH),
    "ffn_hidden": ("int", 0, _FFN_HIDDEN),  # 0 means the 4x embed_dim default
    "encoder_channels": ("int_list", _SEG_DEFAULT.encoder_channels, _SEG_CHANNELS),
    "decoder_channels": ("int_list", _SEG_DEFAULT.decoder_channels, _SEG_CHANNELS),
    "n_seg_classes": ("int", _SEG_DEFAULT.n_seg_classes, _SEG_CLASSES),
    "deep_supervision": ("bool", _SEG_DEFAULT.deep_supervision),
    "ds_decay": ("float", _SEG_DEFAULT.ds_decay),
    "ds_decay_epoch_fraction": ("float", _SEG_DEFAULT.ds_decay_epoch_fraction),
    "metadata_embed_dim": ("int", _SEG_DEFAULT.metadata_embed_dim, _WIDTH),
    "radius_min": ("float", _PHANTOM_DEFAULT.radius_range[0]),
    "radius_max": ("float", _PHANTOM_DEFAULT.radius_range[1]),
    # one value left; the key stays so existing configs that set it still load
    "availability_training": ("str", "shared", ("in", ("shared",))),
    "checkpoint": ("str", ""),
}
for _mod, _c in DEFAULT_CONTRASTS.items():
    _SEG[f"{_mod.lower()}_background"] = ("float", _c.background, _LEVEL)
    _SEG[f"{_mod.lower()}_lesion"] = ("float", _c.lesion, _LEVEL)
    _SEG[f"{_mod.lower()}_noise"] = ("float", _c.noise, _NOISE)

_CLS = {
    **_SEED, **_OUT,
    "extent": ("int", _PHANTOM_DEFAULT.extent, _CLS_MIN_EXTENT),
    "n_train": ("int", 48, _AT_LEAST_1),
    "n_eval": ("int", 40, _AT_LEAST_1),
    "slices_per_volume": ("int", 3, _AT_LEAST_1),
    "steps": ("int", 300, _AT_LEAST_1),
    "batch": ("int", 8, _AT_LEAST_1),
    "lr": ("float", 1e-3, _POSITIVE),
    "weight_decay": ("float", 1e-4, _AT_LEAST_0),
    "clip": ("float", 1.0, _POSITIVE),
    "stage_channels": ("int_list", _CLS_DEFAULT.stage_channels, _CLS_CHANNELS),
    "film_stages": ("int_list", _CLS_DEFAULT.film_stages),
    "trials": ("int", 20, _AT_LEAST_1),
}

_COMPLEXITY = {
    **_OUT,
    "embed_dim": ("int", 256, _AT_LEAST_1),
    "input_extent": ("int", 64, _AT_LEAST_1),
    "patch_size": ("int", _SEG_DEFAULT.attention.patch_size, _AT_LEAST_1),
    "encoder_downsamples": ("int", 1, _AT_LEAST_0),
    "ffn_hidden": ("int", 0, _AT_LEAST_0),
    "n_layers": ("int", _SEG_DEFAULT.attention.n_layers, _DEPTH),
    "metadata_embed_dim": ("int", _SEG_DEFAULT.metadata_embed_dim, _AT_LEAST_1),
}

SCHEMAS: dict[str, dict[str, tuple]] = {
    "seg": _SEG,
    "cls": _CLS,
    "complexity": _COMPLEXITY,
    "gradcheck": _SEED,
}


def parse_flat(text: str) -> dict[str, str]:
    pairs: dict[str, str] = {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        body = line.split("#", 1)[0].strip()
        if not body:
            continue
        if "=" not in body:
            raise ConfigError(f"line {lineno}: expected 'key = value', got {line.strip()!r}")
        key, value = body.split("=", 1)
        key = key.strip()
        if not key:
            raise ConfigError(f"line {lineno}: empty key")
        if key in pairs:
            raise ConfigError(f"line {lineno}: duplicate key {key!r}")
        pairs[key] = value.strip()
    return pairs


def _spec(schema: dict, key: str, task: str) -> tuple:
    if key not in schema:
        raise ConfigError(f"unknown config key {key!r} for task {task!r}")
    return schema[key]


def _checked(spec: tuple, key: str, value, raw):
    """``value`` if it meets the key's bound and is finite, else a ConfigError naming the key."""
    if len(spec) == 3:
        op, low = spec[2]
        if not _BOUND_OPS[op](value, low):
            raise ConfigError(f"config key {key!r}: {raw!r} must be {op} {low}")
    if spec[0] == "float" and not math.isfinite(value):
        raise ConfigError(f"config key {key!r}: {raw!r} is not a finite number")
    return value


def validate_config(pairs: dict[str, str], task: str, overrides: dict | None = None) -> dict:
    """Schema defaults, replaced by the parsed ``pairs`` and then by the
    already-typed ``overrides`` (``None`` entries skipped), all checked
    against the task's schema."""
    if task not in SCHEMAS:
        raise ConfigError(f"unknown task {task!r}; choose from {sorted(SCHEMAS)}")
    schema = SCHEMAS[task]
    values: dict[str, object] = {key: spec[1] for key, spec in schema.items()}
    for key, raw in pairs.items():
        spec = _spec(schema, key, task)
        try:
            value = _CONVERTERS[spec[0]](raw)
        except (ValueError, TypeError) as exc:
            raise ConfigError(f"config key {key!r}: cannot parse {raw!r} as {spec[0]}") from exc
        values[key] = _checked(spec, key, value, raw)
    for key, value in (overrides or {}).items():
        if value is not None:
            values[key] = _checked(_spec(schema, key, task), key, value, value)
    # decoupled decay scales every weight by 1 - lr * weight_decay, which shrinks none from a product of 2 on
    if {"lr", "weight_decay"} <= schema.keys() and values["lr"] * values["weight_decay"] >= 2:
        raise ConfigError(f"config keys 'lr', 'weight_decay': their product {values['lr'] * values['weight_decay']} "
                          f"must be below 2, where weight decay alone can no longer shrink a weight")
    if task in _PHANTOM_VOXEL_BYTES:
        _check_phantom_bytes(values, _PHANTOM_VOXEL_BYTES[task])
        _check_model_bytes(values, task)
    return values


def _check_phantom_bytes(values: dict, voxel_bytes: int) -> None:
    """A ConfigError naming ``extent`` if one phantom sample, else the count key of a
    phantom set, needs more than _PHANTOM_BYTES_MAX."""
    sample = voxel_bytes * values["extent"] ** 3
    for key, n in (("extent", 1), ("n_train", values["n_train"]), ("n_eval", values["n_eval"])):
        if n * sample > _PHANTOM_BYTES_MAX:
            raise ConfigError(f"config key {key!r}: {values[key]} needs {n * sample} bytes of phantoms, "
                              f"more than the {_PHANTOM_BYTES_MAX} a set may hold")


def _seg_sizes(v: dict) -> tuple[list, list]:
    """(keys, float64 count) of the seg model's larger parameter blocks and of its activations."""
    e, p, d, enc, dec = v["extent"], v["patch_size"], v["embed_dim"], v["encoder_channels"], v["decoder_channels"]
    grid = e // (2 ** len(enc) * p)
    params = [(("encoder_channels",), 4 * 27 * sum(a * b for a, b in zip((1,) + enc, enc))),  # four stems
              (("encoder_channels", "patch_size", "embed_dim"), enc[-1] * p ** 3 * d),
              (("extent", "patch_size", "embed_dim"), grid ** 3 * d),
              (("metadata_embed_dim", "embed_dim"), 2 * v["metadata_embed_dim"] * d),
              (("embed_dim", "ffn_hidden", "n_layers"), v["n_layers"] * 2 * d * (v["ffn_hidden"] or 4 * d)),
              (("embed_dim", "decoder_channels"), 27 * sum(a * b for a, b in zip((d,) + dec, dec)))]
    acts = [(("extent",), 4 * e ** 3), (("extent", "n_seg_classes"), v["n_seg_classes"] * e ** 3)]
    acts += [(("extent", "encoder_channels"), c * (e >> j + 1) ** 3) for j, c in enumerate(enc)]
    acts += [(("extent", "decoder_channels"), c * (grid << i + 1) ** 3) for i, c in enumerate(dec)]
    return params, acts


def _cls_sizes(v: dict) -> tuple[list, list]:
    """(keys, float64 count) of the classifier's conv weights and of the activations of a
    training batch and of the evaluation set, which runs as one forward."""
    e, chans = v["extent"], v["stage_channels"]
    params = [(("stage_channels",), 9 * sum(a * c for a, c in zip((1,) + chans, chans)))]
    acts = []
    for rows, keys in ((v["batch"], ("batch",)), (v["n_eval"] * v["slices_per_volume"], ("n_eval", "slices_per_volume"))):
        acts.append((keys + ("extent",), rows * e * e))
        acts += [(keys + ("extent", "stage_channels"), rows * c * (e >> i + 1) ** 2) for i, c in enumerate(chans)]
    return params, acts


def _check_model_bytes(values: dict, task: str) -> None:
    """A ConfigError naming the keys of the largest product if the parameters plus the largest
    activation need more than _MODEL_BYTES_MAX; an empty channel list is left to the
    model's own check."""
    if task == "seg" and values["encoder_channels"] and values["decoder_channels"]:
        params, acts = _seg_sizes(values)
    elif task == "cls" and values["stage_channels"]:
        params, acts = _cls_sizes(values)
    else:
        return
    largest = max(acts, key=lambda t: t[1])
    need = 8 * (sum(n for _, n in params) + largest[1])
    if need > _MODEL_BYTES_MAX:
        keys = max(params + [largest], key=lambda t: t[1])[0]
        raise ConfigError(f"config keys {', '.join(map(repr, keys))}: the {task} model needs about {need} bytes "
                          f"of parameters and largest activation, more than the {_MODEL_BYTES_MAX} a run may hold")


def load_config(path: str | Path | None, task: str, overrides: dict | None = None) -> dict:
    """Read, parse, and validate a config file; ``None`` means all defaults."""
    pairs: dict[str, str] = {}
    if path is not None:
        p = Path(path)
        try:
            text = p.read_text()
        except (OSError, UnicodeDecodeError) as exc:
            raise ConfigError(f"cannot read config file {p}: {exc}") from exc
        pairs = parse_flat(text)
    return validate_config(pairs, task, overrides)
