"""Synthetic cell images for desk-scale experiments.

Each image places non-overlapping random ellipses on a square canvas.
The boundary map carries a blurred ridge ring just outside every cell;
a configurable fraction of cells additionally get an interior chord
ridge, brighter than the outer ring, which splits the cell into two
fragments that only a merge of two separately selected regions can
reassemble — the situation that distinguishes the joint model from
plain hierarchy selection.  Chords live only in the boundary map; raw
intensity and ground truth treat the cell as one object.
"""

import numpy as np
from scipy import ndimage

from .errors import CmcError, PlacementFailure

CANVAS = 128
BORDER_CLEAR = 10  # min pixel distance of any cell from the image edge
GAP = 7.0  # min distance between cells, keeps a background corridor
RING_WIDTH = 2.5  # ridge band thickness outside the cell mask
# Stamp heights are pre-blur; only the blurred map is clipped to [0, 1].
# A 2.5 px band at 1.0 keeps a blurred crest near 0.79, comfortably
# above the 0.5 seed threshold; the chord crest stays higher still, so
# background absorbs each fragment before the fragments absorb each
# other and no single candidate ever covers a chorded cell.
RIDGE_VALUE = 1.0
CHORD_VALUE = 1.3
CHORD_HALF_WIDTH = 1.25
BACKGROUND_RAW = 0.15
CELL_RAW_LOW, CELL_RAW_HIGH = 0.5, 0.9
AXIS_LOW, AXIS_HIGH = 7.5, 13.5
BLUR_SIGMA = 1.0
NOISE_SCALE = 0.1  # noise std = NOISE_SCALE * noise_level
MAX_ATTEMPTS_PER_CELL = 250


def _ellipse_mask(rows, cols, cy, cx, a, b, theta):
    dy = rows - cy
    dx = cols - cx
    xr = dx * np.cos(theta) + dy * np.sin(theta)
    yr = -dx * np.sin(theta) + dy * np.cos(theta)
    return (xr / a) ** 2 + (yr / b) ** 2 <= 1.0


def _make_image(rng, n_cells, noise_level, size, chord_fraction):
    rows, cols = np.mgrid[0:size, 0:size].astype(np.float64)
    gt = np.zeros((size, size), dtype=np.int64)
    raw = np.full((size, size), BACKGROUND_RAW)
    boundary = np.zeros((size, size))
    blocked = np.zeros((size, size), dtype=bool)

    placed = []  # (mask, ring, cy, cx)
    for label in range(1, n_cells + 1):
        for _ in range(MAX_ATTEMPTS_PER_CELL):
            cy = rng.uniform(BORDER_CLEAR, size - BORDER_CLEAR)
            cx = rng.uniform(BORDER_CLEAR, size - BORDER_CLEAR)
            a = rng.uniform(AXIS_LOW, AXIS_HIGH)
            b = rng.uniform(AXIS_LOW, AXIS_HIGH)
            theta = rng.uniform(0.0, np.pi)
            intensity = rng.uniform(CELL_RAW_LOW, CELL_RAW_HIGH)
            mask = _ellipse_mask(rows, cols, cy, cx, a, b, theta)
            clear = mask.copy()
            clear[BORDER_CLEAR:-BORDER_CLEAR, BORDER_CLEAR:-BORDER_CLEAR] = False
            if clear.any() or (mask & blocked).any():
                continue
            dist = ndimage.distance_transform_edt(~mask)
            ring = (dist > 0) & (dist <= RING_WIDTH)
            gt[mask] = label
            raw[mask] = intensity
            boundary = np.maximum(boundary, np.where(ring, RIDGE_VALUE, 0.0))
            blocked |= dist <= GAP
            placed.append((mask, ring, cy, cx))
            break
        else:
            raise PlacementFailure(len(placed), n_cells)

    n_chord = int(round(chord_fraction * n_cells))
    chorded = sorted(rng.choice(n_cells, size=n_chord, replace=False)) if n_chord else []
    for idx in chorded:
        mask, ring, cy, cx = placed[idx]
        phi = rng.uniform(0.0, np.pi)
        # signed distance to the diameter line through the center
        offset = (cols - cx) * (-np.sin(phi)) + (rows - cy) * np.cos(phi)
        band = (np.abs(offset) <= CHORD_HALF_WIDTH) & (mask | ring)
        boundary = np.maximum(boundary, np.where(band, CHORD_VALUE, 0.0))

    boundary = ndimage.gaussian_filter(boundary, BLUR_SIGMA)
    if noise_level > 0.0:
        sigma = NOISE_SCALE * noise_level
        raw = raw + rng.normal(0.0, 1.0, raw.shape) * sigma
        boundary = boundary + rng.normal(0.0, 1.0, boundary.shape) * sigma
    raw = np.clip(raw, 0.0, 1.0)
    boundary = np.clip(boundary, 0.0, 1.0)
    return raw, boundary, gt


def generate_synthetic(
    n_images,
    n_cells,
    noise_level,
    rng_seed,
    image_size=CANVAS,
    chord_fraction=0.5,
):
    """List of (raw, boundary, gt) triples, deterministic per seed.

    Image k draws from its own generator seeded with (rng_seed, k), so
    the content of image k does not depend on n_images.
    """
    if n_cells < 0:
        raise CmcError("n_cells must be non-negative")
    if not 0.0 <= noise_level <= 1.0:
        raise CmcError("noise_level must be within [0, 1]")
    if not 0.0 <= chord_fraction <= 1.0:
        raise CmcError("chord_fraction must be within [0, 1]")
    if rng_seed < 0:
        raise CmcError(f"rng_seed must be >= 0, got {rng_seed}")
    triples = []
    for k in range(n_images):
        rng = np.random.default_rng((rng_seed, k))
        triples.append(
            _make_image(rng, n_cells, noise_level, image_size, chord_fraction)
        )
    return triples
