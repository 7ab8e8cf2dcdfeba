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

from .errors import ConfigError


def _to_bool(raw: str) -> bool:
    low = raw.strip().lower()
    if low in ("true", "yes", "1", "on"):
        return True
    if low in ("false", "no", "0", "off"):
        return False
    raise ValueError(f"not a boolean: {raw!r}")


def _to_int_list(raw: str) -> tuple[int, ...]:
    items = [s.strip() for s in raw.split(",") if s.strip()]
    return tuple(int(s) for s in items)


_CONVERTERS = {
    "int": int,
    "float": float,
    "bool": _to_bool,
    "str": lambda s: s.strip(),
    "int_list": _to_int_list,
}

# bounds a value must meet: at least / greater than / one of / inside a closed interval
_AT_LEAST_1, _AT_LEAST_0, _POSITIVE = (">=", 1), (">=", 0), (">", 0.0)
# phantom levels are normalized image intensities: a noise near 1e308 overflows the
# phantoms and values past about 1e154 overflow a layer norm's squares, so both are capped far below
_LEVEL, _NOISE = ("within", (-1e3, 1e3)), ("within", (0.0, 1e3))
# cls phantoms keep PhantomSpec's default lesion radii (up to 9.0), which must fit in half the extent
_CLS_MIN_EXTENT = (">=", 18)
# A run generates its phantom sets whole before it starts. Each sample costs this many
# bytes per voxel of its extent^3 volume (seg: four float64 channels and an int64 target;
# cls: the float64 volume its slices are cut from), and a set may hold at most
# _PHANTOM_BYTES_MAX, about 30x the default seg training set. Steps and trials only make a
# run long, so they stay unbounded.
_PHANTOM_BYTES_MAX = 1 << 30
_PHANTOM_VOXEL_BYTES = {"seg": 40, "cls": 8}
_BOUND_OPS = {">=": operator.ge, ">": operator.gt, "in": lambda value, allowed: value in allowed,
              # a non-finite value passes here so the finiteness check names it
              "within": lambda value, span: not math.isfinite(value) or span[0] <= value <= span[1]}

# schema entries: key -> (type name, default[, bound])
_COMMON = {
    "seed": ("int", 0, _AT_LEAST_0),
    "out": ("str", "out"),
}

_SEG = {
    **_COMMON,
    "extent": ("int", 32, _AT_LEAST_1),
    "n_train": ("int", 24, _AT_LEAST_1),
    "n_eval": ("int", 24, _AT_LEAST_1),
    "steps": ("int", 900, _AT_LEAST_1),
    "lr": ("float", 2e-4, _POSITIVE),
    "weight_decay": ("float", 1e-4, _AT_LEAST_0),
    "clip": ("float", 1.0, _POSITIVE),
    "embed_dim": ("int", 32, _AT_LEAST_1),
    "patch_size": ("int", 4, _AT_LEAST_1),
    "n_layers": ("int", 1, _AT_LEAST_1),
    "ffn_hidden": ("int", 0, _AT_LEAST_0),  # 0 means the 4x embed_dim default
    "encoder_channels": ("int_list", (8,)),
    "decoder_channels": ("int_list", (16, 8, 8)),
    "n_seg_classes": ("int", 2),
    "deep_supervision": ("bool", True),
    "ds_decay": ("float", 0.4),
    "ds_decay_epoch_fraction": ("float", 0.5),
    "metadata_embed_dim": ("int", 16, _AT_LEAST_1),
    "radius_min": ("float", 4.0),
    "radius_max": ("float", 9.0),
    # one value left; the key stays so existing configs that set it still load
    "availability_training": ("str", "shared", ("in", ("shared",))),
    "checkpoint": ("str", ""),
}
for _mod, (_bg, _fg, _sigma) in {
    "flair": (0.20, 0.70, 0.20),
    "t1c": (0.30, 0.80, 0.20),
    "t1": (0.50, 0.05, 0.18),
    "t2": (0.25, 0.75, 0.20),
}.items():
    _SEG[f"{_mod}_background"] = ("float", _bg, _LEVEL)
    _SEG[f"{_mod}_lesion"] = ("float", _fg, _LEVEL)
    _SEG[f"{_mod}_noise"] = ("float", _sigma, _NOISE)

_CLS = {
    **_COMMON,
    "extent": ("int", 32, _CLS_MIN_EXTENT),
    "n_train": ("int", 48, _AT_LEAST_1),
    "n_eval": ("int", 40, _AT_LEAST_1),
    "slices_per_volume": ("int", 3, _AT_LEAST_1),
    "steps": ("int", 300, _AT_LEAST_1),
    "batch": ("int", 8, _AT_LEAST_1),
    "lr": ("float", 1e-3, _POSITIVE),
    "weight_decay": ("float", 1e-4, _AT_LEAST_0),
    "clip": ("float", 1.0, _POSITIVE),
    "stage_channels": ("int_list", (16, 32, 64, 128)),
    "film_stages": ("int_list", (2, 3)),
    "trials": ("int", 20, _AT_LEAST_1),
}

_COMPLEXITY = {
    **_COMMON,
    "embed_dim": ("int", 256, _AT_LEAST_1),
    "input_extent": ("int", 64, _AT_LEAST_1),
    "patch_size": ("int", 4, _AT_LEAST_1),
    "encoder_downsamples": ("int", 1, _AT_LEAST_0),
    "ffn_hidden": ("int", 0, _AT_LEAST_0),
    "n_layers": ("int", 1, _AT_LEAST_1),
    "metadata_embed_dim": ("int", 16, _AT_LEAST_1),
}

_GRADCHECK = {**_COMMON}

SCHEMAS: dict[str, dict[str, tuple]] = {
    "seg": _SEG,
    "cls": _CLS,
    "complexity": _COMPLEXITY,
    "gradcheck": _GRADCHECK,
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
    if task in _PHANTOM_VOXEL_BYTES:
        _check_phantom_bytes(values, _PHANTOM_VOXEL_BYTES[task])
    return values


def _check_phantom_bytes(values: dict, voxel_bytes: int) -> None:
    """A ConfigError naming ``extent`` if one phantom sample, else the count key of a
    phantom set, needs more than _PHANTOM_BYTES_MAX."""
    sample = voxel_bytes * values["extent"] ** 3
    for key, n in (("extent", 1), ("n_train", values["n_train"]), ("n_eval", values["n_eval"])):
        if n * sample > _PHANTOM_BYTES_MAX:
            raise ConfigError(f"config key {key!r}: {values[key]} needs {n * sample} bytes of phantoms, "
                              f"more than the {_PHANTOM_BYTES_MAX} a set may hold")


def load_config(path: str | Path | None, task: str, overrides: dict | None = None) -> dict:
    """Read, parse, and validate a config file; ``None`` means all defaults."""
    pairs: dict[str, str] = {}
    if path is not None:
        p = Path(path)
        try:
            text = p.read_text()
        except OSError as exc:
            raise ConfigError(f"cannot read config file {p}: {exc}") from exc
        pairs = parse_flat(text)
    return validate_config(pairs, task, overrides)
