"""The test image (``brain_phantom``) and perturbing it before it is
screened (``inject_artifact``)."""

import hashlib

import numpy as np
import pytest

from poistomo import Grid, ScalarField, brain_phantom, inject_artifact
from poistomo.config import parse_config


@pytest.mark.parametrize("preset, digest", [
    ("desk",
     "5e54f26a963c78cb5deca99b7301632462ee66f8720121573ca95765afae8063"),
    ("paper",
     "c697504a42276f27648927bc9b4c16edde796c32bf16b848474b6f812617d942"),
])
def test_preset_phantoms_keep_their_values(preset, digest):
    # the image `poistomo phantom` writes, pinned by the sha256 of its
    # row-major float64 values
    cfg = parse_config(preset=preset)
    lo, hi = cfg.reparam.bounds
    values = brain_phantom(cfg.grid, low=lo + 0.05, high=hi - 0.05).values
    assert values.dtype == np.float64 and values.shape == cfg.grid.shape
    assert hashlib.sha256(np.ascontiguousarray(values)).hexdigest() == digest


@pytest.fixture
def image():
    grid = Grid(16, 16)
    values = np.full(grid.shape, 0.3)
    values[0, 0] = 2.0
    return ScalarField(grid, values)


def _disk(grid, center, radius):
    x, y = grid.centers()
    return ((x[:, None] - center[0]) ** 2 + (y[None, :] - center[1]) ** 2
            <= radius ** 2)


@pytest.mark.parametrize("kind, sign", [("add_blob", 1.0),
                                        ("remove_blob", -1.0)])
def test_blob_moves_the_disk_by_the_magnitude(image, kind, sign):
    disk = _disk(image.grid, (0.5, 0.5), 0.25)
    assert 0 < disk.sum() < disk.size and not disk[0, 0]
    out = inject_artifact(image, kind, 0.2, center=(0.5, 0.5), radius=0.25)
    assert np.array_equal(out.values[disk], image.values[disk] + sign * 0.2)
    assert np.array_equal(out.values[~disk], image.values[~disk])
    assert out.grid == image.grid


def test_removed_blob_is_clamped_at_zero(image):
    disk = _disk(image.grid, (0.5, 0.5), 0.25)
    out = inject_artifact(image, "remove_blob", 1.0, center=(0.5, 0.5),
                          radius=0.25)
    assert np.all(out.values[disk] == 0.0)
    assert np.array_equal(out.values[~disk], image.values[~disk])


def test_noise_needs_an_rng_and_repeats_with_its_seed(image):
    with pytest.raises(ValueError, match="rng"):
        inject_artifact(image, "add_noise", 0.1)
    a = inject_artifact(image, "add_noise", 0.1,
                        rng=np.random.default_rng(5))
    b = inject_artifact(image, "add_noise", 0.1,
                        rng=np.random.default_rng(5))
    assert np.array_equal(a.values, b.values)
    assert not np.array_equal(a.values, image.values)
    assert np.all(a.values >= 0.0)


@pytest.mark.parametrize("kind, magnitude, kwargs, match", [
    ("add_stripe", 0.1, {"center": (0.5, 0.5), "radius": 0.1}, "kind"),
    ("add_blob", -0.1, {"center": (0.5, 0.5), "radius": 0.1}, "magnitude"),
    ("add_blob", 0.1, {"center": (0.5, 0.5)}, "radius"),
    ("remove_blob", 0.1, {"radius": 0.1}, "center"),
    ("add_blob", 0.1, {"center": (0.5, 0.5), "radius": 0.0}, "positive"),
    ("add_blob", 0.1, {"center": (0.5, 0.5), "radius": -0.1}, "positive"),
    ("add_blob", 0.1, {"center": (0.05, 0.5), "radius": 0.1}, "unit square"),
    ("add_blob", 0.1, {"center": (0.5, 0.95), "radius": 0.1}, "unit square"),
])
def test_bad_perturbations_are_refused(image, kind, magnitude, kwargs, match):
    with pytest.raises(ValueError, match=match):
        inject_artifact(image, kind, magnitude, **kwargs)


@pytest.mark.parametrize("kind", ["add_blob", "remove_blob", "add_noise"])
@pytest.mark.parametrize("magnitude", [np.nan, np.inf])
def test_non_finite_magnitude_is_refused(image, kind, magnitude):
    # a nan disk would reach the level screen as a nan pixel
    with pytest.raises(ValueError, match="magnitude must be finite"):
        inject_artifact(image, kind, magnitude, center=(0.5, 0.5),
                        radius=0.1, rng=np.random.default_rng(0))
