"""Synthetic sphere volumes and labeled slices."""

import numpy as np
import pytest

import metacross.phantoms as ph
from metacross.errors import ConfigError
from metacross.phantoms import (
    DEFAULT_CONTRASTS,
    MIN_LESION_PIXELS,
    ModalityContrast,
    PhantomSpec,
    apply_availability,
    generate_cls_phantoms,
    generate_seg_phantoms,
    sphere_mask,
    slice_label,
)


def test_sphere_mask_matches_distance_loop():
    extent, center, radius = 7, (3.0, 2.5, 4.0), 2.5
    got = sphere_mask(extent, center, radius)
    for z in range(extent):
        for y in range(extent):
            for x in range(extent):
                d2 = (z - center[0]) ** 2 + (y - center[1]) ** 2 + (x - center[2]) ** 2
                assert got[z, y, x] == (d2 <= radius ** 2)


def test_sphere_mask_is_nonempty_within_bounds():
    m = sphere_mask(16, (8.0, 8.0, 8.0), 4.0)
    assert m.any()
    assert not m[0].any()  # sphere fits inside, never touches the border


# ---------------------------------------------------------------------------
# spec validation


def test_spec_rejects_bad_geometry():
    with pytest.raises(ConfigError):
        PhantomSpec(extent=4)
    with pytest.raises(ConfigError):
        PhantomSpec(n_samples=0)
    with pytest.raises(ConfigError):
        PhantomSpec(radius_range=(0.0, 4.0))
    with pytest.raises(ConfigError):
        PhantomSpec(radius_range=(5.0, 4.0))
    with pytest.raises(ConfigError, match=r"radius_max 12.0 exceeds \(extent - 1\) / 2 = 7.5"):
        PhantomSpec(extent=16, radius_range=(4.0, 12.0))


def test_spec_radius_bound_leaves_room_for_a_centre():
    # the centre is drawn from [r, extent - 1 - r] on each axis: r = (extent - 1) / 2 pins it
    # to the middle voxel, and past that the range is empty
    with pytest.raises(ConfigError, match="radius_max 8.0 exceeds"):
        PhantomSpec(extent=16, radius_range=(8.0, 8.0))
    (batch,) = generate_seg_phantoms(PhantomSpec(extent=16, n_samples=1, radius_range=(7.5, 7.5)))
    assert batch.target[7, 7, 7] == 1 and batch.target.sum() > 1


def test_spec_requires_complete_contrast_map():
    partial = {k: v for k, v in DEFAULT_CONTRASTS.items() if k != "T1"}
    with pytest.raises(ConfigError, match="T1"):
        PhantomSpec(contrasts=partial)


def test_spec_requires_visible_lesion():
    flat = {k: ModalityContrast(0.5, 0.5, 0.1) for k in DEFAULT_CONTRASTS}
    with pytest.raises(ConfigError, match="differ from background"):
        PhantomSpec(contrasts=flat)


def test_contrast_rejects_negative_noise():
    with pytest.raises(ConfigError):
        ModalityContrast(0.5, 0.7, -0.1)


# ---------------------------------------------------------------------------
# 3D volumes


def test_seg_phantoms_shapes_and_determinism():
    spec = PhantomSpec(extent=16, n_samples=3, radius_range=(3.0, 6.0), seed=5)
    a = generate_seg_phantoms(spec)
    b = generate_seg_phantoms(spec)
    assert len(a) == 3
    for ba, bb in zip(a, b):
        assert ba.volumes.shape == (4, 16, 16, 16)
        assert ba.target.shape == (16, 16, 16)
        assert ba.target.dtype == np.int64
        assert ba.mask.available == (True, True, True, True)
        assert np.array_equal(ba.volumes.data, bb.volumes.data)
        assert np.array_equal(ba.target, bb.target)
    different = generate_seg_phantoms(PhantomSpec(extent=16, n_samples=3,
                                                  radius_range=(3.0, 6.0), seed=6))
    assert not np.array_equal(a[0].volumes.data, different[0].volumes.data)


def test_seg_phantom_levels_track_contrast_spec():
    # noise-free generation exposes the exact two-level structure
    clean = {k: ModalityContrast(c.background, c.lesion, 0.0)
             for k, c in DEFAULT_CONTRASTS.items()}
    spec = PhantomSpec(extent=16, n_samples=1, radius_range=(3.0, 5.0),
                       contrasts=clean, seed=2)
    batch = generate_seg_phantoms(spec)[0]
    inside = batch.target.astype(bool)
    for m, name in enumerate(("FLAIR", "T1c", "T1", "T2")):
        c = clean[name]
        assert np.all(batch.volumes.data[m][inside] == c.lesion)
        assert np.all(batch.volumes.data[m][~inside] == c.background)


def test_apply_availability_zeroes_missing_channels_only():
    spec = PhantomSpec(extent=16, n_samples=1, radius_range=(3.0, 5.0), seed=3)
    full = generate_seg_phantoms(spec)[0]
    partial = apply_availability(full, (True, False, True, False))
    assert partial.mask.available == (True, False, True, False)
    assert np.array_equal(partial.volumes.data[0], full.volumes.data[0])
    assert np.array_equal(partial.volumes.data[2], full.volumes.data[2])
    assert np.all(partial.volumes.data[1] == 0.0)
    assert np.all(partial.volumes.data[3] == 0.0)
    # the source batch is untouched
    assert not np.all(full.volumes.data[1] == 0.0)
    assert partial.target is full.target


# ---------------------------------------------------------------------------
# 2D slices


def test_cls_phantoms_counts_and_metadata():
    spec = PhantomSpec(extent=16, n_samples=4, radius_range=(3.0, 6.0), seed=7)
    samples = generate_cls_phantoms(spec, slices_per_volume=3)
    assert len(samples) == 12
    for s in samples:
        assert s.image.shape == (1, 16, 16)
        assert s.sequence in (2, 3)  # T1 or T2 ids
        assert s.plane == 0
        assert s.label in (0, 1)


def test_cls_labels_match_pixel_count_oracle(monkeypatch):
    # with noise silenced the lesion region is exactly the off-background set,
    # so the label must equal the 30-pixel threshold rule applied to it
    monkeypatch.setattr(ph, "_CLS_NOISE", 0.0)
    spec = PhantomSpec(extent=16, n_samples=6, radius_range=(3.0, 6.0), seed=11)
    per = 3
    samples = generate_cls_phantoms(spec, slices_per_volume=per)
    for i, s in enumerate(samples):
        volume_index = i // per
        if volume_index % 2 == 1:
            assert s.label == 0  # distractor volumes never carry lesion labels
            continue
        lesion_pixels = int((s.image[0] != ph._CLS_BACKGROUND).sum())
        assert s.label == int(lesion_pixels >= MIN_LESION_PIXELS)


def test_cls_distractors_swap_polarity(monkeypatch):
    monkeypatch.setattr(ph, "_CLS_NOISE", 0.0)
    spec = PhantomSpec(extent=16, n_samples=2, radius_range=(4.0, 6.0), seed=13)
    samples = generate_cls_phantoms(spec, slices_per_volume=1)
    lesion, distractor = samples[0], samples[1]
    for s, is_lesion in ((lesion, True), (distractor, False)):
        blob = s.image[0][s.image[0] != ph._CLS_BACKGROUND]
        if blob.size == 0:
            continue
        bright = blob.mean() > ph._CLS_BACKGROUND
        # bright iff (sequence is T1) == (volume carries a lesion)
        assert bright == ((s.sequence == 2) == is_lesion)


def test_cls_phantoms_deterministic():
    spec = PhantomSpec(extent=16, n_samples=4, radius_range=(3.0, 6.0), seed=17)
    a = generate_cls_phantoms(spec)
    b = generate_cls_phantoms(spec)
    for sa, sb in zip(a, b):
        assert np.array_equal(sa.image, sb.image)
        assert (sa.sequence, sa.plane, sa.label) == (sb.sequence, sb.plane, sb.label)


def test_cls_phantoms_rejects_zero_slices():
    spec = PhantomSpec(extent=16, radius_range=(3.0, 6.0))
    with pytest.raises(ConfigError):
        generate_cls_phantoms(spec, slices_per_volume=0)
    # past the extent only clamped edge slices repeat, one copy per count
    with pytest.raises(ConfigError, match=r"slices_per_volume 17 must lie in \[1, extent 16\]"):
        generate_cls_phantoms(spec, slices_per_volume=17)


def test_slice_label_threshold():
    ones = np.zeros((16, 16), dtype=np.int64)
    ones.flat[:MIN_LESION_PIXELS - 1] = 1
    assert slice_label(ones) == 0
    ones.flat[MIN_LESION_PIXELS - 1] = 1
    assert slice_label(ones) == 1
