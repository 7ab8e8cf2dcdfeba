"""Seeded spherical-lesion phantoms for the toy pipelines.

Each 3D sample is a sphere of random radius at a random interior position.
Every modality renders it with its own background level, lesion level, and
Gaussian noise, so modalities differ in how informative they are. Generation
is bit-reproducible for a fixed ``PhantomSpec``.

The 2D classification mode slices volumes axially and labels each slice by
whether it contains at least ``MIN_LESION_PIXELS`` lesion pixels. Lesion
contrast polarity is keyed to the sequence id (bright on T1-like series,
dark on T2-like series) while distractor spheres use the opposite polarity,
so the label is unreadable from pixel intensities alone: resolving it
requires the sequence metadata.
"""

from __future__ import annotations

from dataclasses import dataclass, field as dc_field

import numpy as np

from .classifier import ClsSample
from .errors import ConfigError
from .metadata import MODALITY_NAMES, ModalityMask
from .segmentation import SegBatch
from .tensor import Tensor

MIN_LESION_PIXELS = 30  # below this a slice does not count as lesion-positive
# seg labels take one byte per voxel: the config caps n_seg_classes at 16
SEG_LABEL_DTYPE = np.dtype(np.uint8)


@dataclass(frozen=True)
class ModalityContrast:
    background: float
    lesion: float
    noise: float

    def __post_init__(self):
        if self.noise < 0:
            raise ConfigError(f"noise must be non-negative, got {self.noise}")


DEFAULT_CONTRASTS: dict[str, ModalityContrast] = {
    # Noise is deliberately high relative to contrast: one channel alone is a
    # mediocre detector, so pooling several noisy looks at the same lesion
    # measurably helps and the all-available scenario has the most evidence.
    # Contrast-to-noise is matched across modalities (lesion polarity and
    # levels differ) so no single channel dominates the fused sum.
    "FLAIR": ModalityContrast(0.20, 0.70, 0.20),
    "T1c": ModalityContrast(0.30, 0.80, 0.20),
    "T1": ModalityContrast(0.50, 0.05, 0.18),
    "T2": ModalityContrast(0.25, 0.75, 0.20),
}


@dataclass
class PhantomSpec:
    extent: int = 32
    n_samples: int = 8
    radius_range: tuple[float, float] = (4.0, 9.0)
    contrasts: dict[str, ModalityContrast] = dc_field(default_factory=lambda: dict(DEFAULT_CONTRASTS))
    seed: int = 0

    def __post_init__(self):
        if self.extent < 8:
            raise ConfigError(f"extent {self.extent} too small for a sensible phantom")
        if self.n_samples < 1:
            raise ConfigError("need at least one sample")
        lo, hi = self.radius_range
        if not 0 < lo <= hi:
            raise ConfigError(f"radius_min {lo} and radius_max {hi} must satisfy 0 < radius_min <= radius_max")
        # a sphere's centre is drawn from [r, extent - 1 - r] on each axis, empty past this
        if hi > (self.extent - 1) / 2:
            raise ConfigError(f"radius_max {hi} exceeds (extent - 1) / 2 = {(self.extent - 1) / 2}: "
                              f"no centre would keep the sphere inside extent {self.extent}")
        missing = [m for m in MODALITY_NAMES if m not in self.contrasts]
        if missing:
            raise ConfigError(f"contrast map missing modalities {missing}")
        if all(c.lesion == c.background for c in self.contrasts.values()):
            keys = ", ".join(f"{m.lower()}_lesion" for m in MODALITY_NAMES)
            raise ConfigError(f"{keys} each equal their _background level: "
                              "lesion level must differ from background in at least one modality")


def sphere_mask(extent: int, center: tuple[float, float, float], radius: float) -> np.ndarray:
    """Boolean voxel grid: inside iff squared distance to center <= radius^2."""
    axis = np.arange(extent, dtype=np.float64)
    cz, cy, cx = center
    # three broadcast axes give each voxel the sums a meshgrid would, in the same order
    return ((axis[:, None, None] - cz) ** 2 + (axis[:, None] - cy) ** 2) + (axis - cx) ** 2 <= radius ** 2


def _sample_sphere(rng: np.random.Generator, extent: int, radius_range) -> tuple[np.ndarray, float]:
    r = rng.uniform(*radius_range)
    lo, hi = r, extent - 1 - r
    center = tuple(rng.uniform(lo, hi) for _ in range(3))
    return sphere_mask(extent, center, r), r


def generate_seg_phantoms(spec: PhantomSpec) -> list[SegBatch]:
    """Fully-available volumes; availability scenarios are applied downstream."""
    rng = np.random.default_rng(spec.seed)
    batches = []
    for _ in range(spec.n_samples):
        inside, _ = _sample_sphere(rng, spec.extent, spec.radius_range)
        chans = np.empty((len(MODALITY_NAMES), spec.extent, spec.extent, spec.extent))
        for m, name in enumerate(MODALITY_NAMES):
            c = spec.contrasts[name]
            level = np.where(inside, c.lesion, c.background)
            chans[m] = level + c.noise * rng.standard_normal(level.shape)
        batches.append(SegBatch(Tensor(chans), ModalityMask([True] * 4), inside.astype(SEG_LABEL_DTYPE)))
    return batches


def apply_availability(batch: SegBatch, available) -> SegBatch:
    """Zero-fill the missing channels and attach the matching mask."""
    mask = ModalityMask(available)
    vols = batch.volumes.data.copy()
    for m, ok in enumerate(mask.available):
        if not ok:
            vols[m] = 0.0
    return SegBatch(Tensor(vols), mask, batch.target)


# ---------------------------------------------------------------------------
# 2D classification mode

CLS_SEQUENCES = (MODALITY_NAMES.index("T1"), MODALITY_NAMES.index("T2"))
CLS_PLANE = 0  # slices are taken axially
_CLS_BACKGROUND = 0.5
_CLS_DELTA = 0.25
_CLS_NOISE = 0.05


def _polarity(sequence: int, is_lesion: bool) -> float:
    """Lesions are bright on T1, dark on T2; distractors are the opposite."""
    bright = (sequence == MODALITY_NAMES.index("T1")) == is_lesion
    return _CLS_DELTA if bright else -_CLS_DELTA


def generate_cls_phantoms(spec: PhantomSpec, slices_per_volume: int) -> list[ClsSample]:
    """Axial slices labeled by lesion presence at the 30-pixel floor.

    Half the volumes carry a lesion, half carry a look-alike distractor
    whose contrast polarity is swapped, which ties the label to the
    sequence id.
    """
    # more slices than the extent would only repeat clamped edge slices
    if not 1 <= slices_per_volume <= spec.extent:
        raise ConfigError(f"slices_per_volume {slices_per_volume} must lie in [1, extent {spec.extent}]")
    rng = np.random.default_rng(spec.seed)
    samples: list[ClsSample] = []
    for i in range(spec.n_samples):
        inside, _ = _sample_sphere(rng, spec.extent, spec.radius_range)
        sequence = CLS_SEQUENCES[int(rng.integers(2))]
        is_lesion = bool(i % 2 == 0)
        level = _CLS_BACKGROUND + _polarity(sequence, is_lesion) * inside.astype(np.float64)
        volume = level + _CLS_NOISE * rng.standard_normal(level.shape)
        truth = inside if is_lesion else np.zeros_like(inside)

        # slice around the sphere's densest section so labels are informative
        counts = truth.sum(axis=(1, 2)) if is_lesion else inside.sum(axis=(1, 2))
        center_z = int(np.argmax(counts))
        half = slices_per_volume // 2
        for dz in range(-half, -half + slices_per_volume):
            z = min(max(center_z + dz, 0), spec.extent - 1)
            samples.append(ClsSample(volume[z][None].copy(), sequence, CLS_PLANE, slice_label(truth[z])))
    return samples


def slice_label(truth_slice: np.ndarray) -> int:
    """The cls label rule: 1 iff the slice holds >= 30 lesion pixels."""
    return int(int(truth_slice.sum()) >= MIN_LESION_PIXELS)
