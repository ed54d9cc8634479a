import math

import numpy as np
import pytest

from cmc import synth
from cmc.errors import CmcError, PlacementFailure
from cmc.hierarchy import seeded_watershed
from cmc.synth import BACKGROUND_RAW, BORDER_CLEAR, generate_synthetic

from util import ref_make_image


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
    with pytest.raises(CmcError, match="n_images"):
        generate_synthetic(-1, 1, 0.0, 0)
    for size in (30.5, "64", True, None):
        with pytest.raises(CmcError, match="image_size"):
            generate_synthetic(1, 1, 0.0, 0, image_size=size)
    # each used to end in a TypeError, or for n_cells=True draw one cell
    for bad in (1.5, "2", True, None):
        with pytest.raises(CmcError, match="n_images"):
            generate_synthetic(bad, 1, 0.0, 0)
        with pytest.raises(CmcError, match="n_cells"):
            generate_synthetic(1, bad, 0.0, 0)
        with pytest.raises(CmcError, match="rng_seed"):
            generate_synthetic(1, 1, 0.0, bad)
    with pytest.raises(CmcError, match="n_cells"):
        generate_synthetic(1, -1, 0.0, 0)
    # "0.5" and None used to end in a TypeError, True to draw noise 1
    for bad in ("0.5", True, None):
        with pytest.raises(CmcError, match="^noise_level is not a valid float: "):
            generate_synthetic(1, 1, bad, 0)
    with pytest.raises(CmcError, match="^chord_fraction is not a valid float: '1'$"):
        generate_synthetic(1, 1, 0.0, 0, chord_fraction="1")
    assert len(generate_synthetic(np.int64(2), np.int64(1), 0.0, np.int64(3))) == 2
    for size in (-1, 0, 15, 2 * BORDER_CLEAR - 1):
        with pytest.raises(CmcError, match="image_size"):
            generate_synthetic(1, 1, 0.0, 0, image_size=size)
    # without cells any canvas works, down to 0 x 0
    for size in (0, 1, 15):
        raw, boundary, gt = generate_synthetic(1, 0, 1.0, 0, image_size=size)[0]
        assert raw.shape == boundary.shape == gt.shape == (size, size)
    assert generate_synthetic(0, 3, 0.0, 0) == []


def test_placement_failure_when_crowded():
    with pytest.raises(PlacementFailure):
        generate_synthetic(1, 6, 0.0, rng_seed=0, image_size=48)


# (image size, cells, noise, chord fraction, images): the crowded 48 px
# canvas where placement fails; small canvases, where the canvas clips
# many attempts' windows and cells sit at the BORDER_CLEAR margin;
# 128-256 px; 512 px with 40 cells
WINDOW_SWEEP = [
    (48, 6, 0.0, 0.5, 2),
    (64, 1, 0.0, 1.0, 40),
    (72, 2, 1.0, 0.5, 160),
    (96, 4, 0.5, 1.0, 4),
    (128, 3, 0.0, 0.0, 4),
    (128, 6, 1.0, 0.5, 4),
    (160, 8, 0.3, 1.0, 3),
    (256, 12, 1.0, 0.5, 2),
    (256, 12, 0.0, 1.0, 1),
    (512, 40, 1.0, 0.5, 1),
]


def test_windowed_image_equals_full_canvas_reference(monkeypatch):
    """Each cell is drawn on its own window; the full-canvas drawer must
    give the same bytes, or fail the same way, from the same draws."""
    spans = []
    span = synth._span

    def spy(center, half, size):
        spans.append((center, half, size))
        return span(center, half, size)

    monkeypatch.setattr(synth, "_span", spy)
    failed = set()
    margin = 0
    for case, (size, cells, noise, chord, count) in enumerate(WINDOW_SWEEP):
        for k in range(count):
            args = (cells, noise, size, chord)
            try:
                got = synth._make_image(np.random.default_rng((case, k)), *args)
            except PlacementFailure as exc:
                with pytest.raises(PlacementFailure) as want:
                    ref_make_image(np.random.default_rng((case, k)), *args)
                assert want.value.args == exc.args
                failed.add(size)
                continue
            want = ref_make_image(np.random.default_rng((case, k)), *args)
            for g, w in zip(got, want):
                assert (g.dtype, g.shape) == (w.dtype, w.shape)
                assert g.tobytes() == w.tobytes(), (case, k)
            rows, cols = np.nonzero(got[2])
            margin += min(rows.min(), cols.min()) == BORDER_CLEAR
            margin += max(rows.max(), cols.max()) == size - BORDER_CLEAR - 1
    assert 48 in failed
    # cells placed on the margin; attempts whose window the canvas clipped
    # at each of the four edges
    assert margin >= 4
    for calls in (spans[0::2], spans[1::2]):
        assert any(math.floor(c - h) < 0 for c, h, _ in calls)
        assert any(math.ceil(c + h) + 1 > size for c, h, size in calls)
