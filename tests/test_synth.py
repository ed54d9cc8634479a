import numpy as np
import pytest

from cmc.errors import CmcError, PlacementFailure
from cmc.hierarchy import seeded_watershed
from cmc.synth import BACKGROUND_RAW, generate_synthetic


def test_deterministic_per_seed():
    a = generate_synthetic(2, 3, 0.2, rng_seed=5)
    b = generate_synthetic(2, 3, 0.2, rng_seed=5)
    for (r1, b1, g1), (r2, b2, g2) in zip(a, b):
        assert np.array_equal(r1, r2)
        assert np.array_equal(b1, b2)
        assert np.array_equal(g1, g2)


def test_image_k_independent_of_n_images():
    long = generate_synthetic(3, 2, 0.1, rng_seed=11)
    short = generate_synthetic(1, 2, 0.1, rng_seed=11)
    assert all(np.array_equal(x, y) for x, y in zip(long[0], short[0]))


def test_different_seeds_differ():
    a = generate_synthetic(1, 3, 0.0, rng_seed=1)[0]
    b = generate_synthetic(1, 3, 0.0, rng_seed=2)[0]
    assert not np.array_equal(a[2], b[2])


def test_empty_scene():
    raw, boundary, gt = generate_synthetic(1, 0, 0.0, rng_seed=0)[0]
    assert not gt.any()
    assert np.all(raw == BACKGROUND_RAW)
    assert not boundary.any()


def test_clean_image_structure():
    raw, boundary, gt = generate_synthetic(1, 3, 0.0, rng_seed=42)[0]
    assert sorted(np.unique(gt)) == [0, 1, 2, 3]
    assert raw.min() >= 0.0 and raw.max() <= 1.0
    assert boundary.min() >= 0.0 and boundary.max() <= 1.0
    # cells keep clear of the frame; the blurred ridges cannot reach it
    for strip in (boundary[0], boundary[-1], boundary[:, 0], boundary[:, -1]):
        assert strip.max() == 0.0
    assert np.all(raw[gt == 0] == BACKGROUND_RAW)
    # every cell sits inside its own watershed basin
    assert seeded_watershed(boundary, 0.5).max() >= 3


def test_noise_perturbs_but_respects_range():
    clean = generate_synthetic(1, 2, 0.0, rng_seed=9)[0]
    noisy = generate_synthetic(1, 2, 0.5, rng_seed=9)[0]
    assert np.array_equal(clean[2], noisy[2])  # same geometry
    assert not np.array_equal(clean[0], noisy[0])
    assert noisy[0].min() >= 0.0 and noisy[0].max() <= 1.0
    assert noisy[1].min() >= 0.0 and noisy[1].max() <= 1.0


def test_chord_fraction_controls_interior_ridges():
    with_chords = generate_synthetic(1, 3, 0.0, 7, chord_fraction=1.0)[0][1]
    without = generate_synthetic(1, 3, 0.0, 7, chord_fraction=0.0)[0][1]
    assert not np.array_equal(with_chords, without)


def test_parameter_validation():
    with pytest.raises(CmcError):
        generate_synthetic(1, -1, 0.0, 0)
    with pytest.raises(CmcError):
        generate_synthetic(1, 1, 1.5, 0)
    with pytest.raises(CmcError):
        generate_synthetic(1, 1, -0.1, 0)
    with pytest.raises(CmcError):
        generate_synthetic(1, 1, 0.0, 0, chord_fraction=2.0)
    with pytest.raises(CmcError, match="rng_seed"):
        generate_synthetic(1, 1, 0.0, -1)


def test_placement_failure_when_crowded():
    with pytest.raises(PlacementFailure):
        generate_synthetic(1, 6, 0.0, rng_seed=0, image_size=48)
