"""Synthetic cell images for desk-scale experiments.

Each image places non-overlapping random ellipses on a square canvas.
The boundary map carries a blurred ridge ring just outside every cell;
a configurable fraction of cells additionally get an interior chord
ridge, brighter than the outer ring, which splits the cell into two
fragments that only a merge of two separately selected regions can
reassemble — the situation that distinguishes the joint model from
plain hierarchy selection.  Chords live only in the boundary map; raw
intensity and ground truth treat the cell as one object.

A chorded cell is beyond plain hierarchy selection: no merge-tree
candidate covers it at IoU > 0.5, so `merge_tree_only` recall is at most
1 - round(chord_fraction * n_cells) / n_cells.  Seen on 48 candidate
graphs, max_merges None, seed thresholds 0.5 and 0.15, of 24 images
(generate_synthetic(6, 12, 1.0, seed, image_size=256) for seeds 21 and
22 and chord fractions 0.5 and 1): the best IoU of any candidate with a
chorded cell was 0.474.

Each cell is drawn in its own window, not over the whole canvas, with
the same values the whole canvas would give.  A placement attempt
evaluates its ellipse on the rows and columns within max(a, b) of its
center, which hold every pixel of the ellipse.  An accepted cell does
the rest of its work on its mask's bounding box grown by GAP_PX:
distance transform, ring, stamp, blocked update and chord band.  That
box holds every pixel within GAP of the mask, so every distance the
code reads (up to GAP) is the one a full-canvas transform gives; the
full-canvas stamps change no pixel outside it.  The draws come in the
same order, and each pixel takes the same arithmetic.  Blur, noise and
clipping work on the whole canvas.
"""

import math
import numbers

import numpy as np
from scipy import ndimage

from .errors import CmcError, PlacementFailure

CANVAS = 128
BORDER_CLEAR = 10  # min pixel distance of any cell from the image edge
GAP = 7.0  # min distance between cells, keeps a background corridor
GAP_PX = math.ceil(GAP)  # a pixel GAP_PX + 1 rows or columns off is beyond GAP
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


def _span(center, half, size):
    """Slice of the canvas rows (or columns) from floor(center - half) to
    ceil(center + half), clipped to the canvas: every row within `half`
    of `center`, rounded outward."""
    return slice(max(math.floor(center - half), 0),
                 min(math.ceil(center + half) + 1, size))


def _grid(window):
    """Row and column coordinates of a window (a pair of slices) as
    broadcastable float64 arrays: the values a full-canvas grid holds."""
    ys, xs = window
    rows = np.arange(ys.start, ys.stop, dtype=np.float64)[:, None]
    cols = np.arange(xs.start, xs.stop, dtype=np.float64)[None, :]
    return rows, cols


def _ellipse_mask(rows, cols, cy, cx, a, b, theta):
    dy = rows - cy
    dx = cols - cx
    xr = dx * np.cos(theta) + dy * np.sin(theta)
    yr = -dx * np.sin(theta) + dy * np.cos(theta)
    return (xr / a) ** 2 + (yr / b) ** 2 <= 1.0


def _extent(window, mask):
    """The smallest window holding every pixel of `mask`, a mask on
    `window`.  An ellipse's mask always has its center pixel."""
    ys, xs = window
    rows = np.flatnonzero(mask.any(axis=1))
    cols = np.flatnonzero(mask.any(axis=0))
    return (slice(ys.start + rows[0], ys.start + rows[-1] + 1),
            slice(xs.start + cols[0], xs.start + cols[-1] + 1))


def _grow(span, size):
    """`span` widened by GAP_PX on both sides, clipped to the canvas."""
    return slice(max(span.start - GAP_PX, 0), min(span.stop + GAP_PX, size))


def _within(outer, inner):
    """Window `inner` in the coordinates of window `outer`, which holds it."""
    return tuple(slice(i.start - o.start, i.stop - o.start)
                 for o, i in zip(outer, inner))


def _make_image(rng, n_cells, noise_level, size, chord_fraction):
    gt = np.zeros((size, size), dtype=np.int64)
    raw = np.full((size, size), BACKGROUND_RAW)
    boundary = np.zeros((size, size))
    blocked = np.zeros((size, size), dtype=bool)

    placed = []  # (window, mask, ring, cy, cx), mask and ring on the window
    for label in range(1, n_cells + 1):
        for _ in range(MAX_ATTEMPTS_PER_CELL):
            cy = rng.uniform(BORDER_CLEAR, size - BORDER_CLEAR)
            cx = rng.uniform(BORDER_CLEAR, size - BORDER_CLEAR)
            a = rng.uniform(AXIS_LOW, AXIS_HIGH)
            b = rng.uniform(AXIS_LOW, AXIS_HIGH)
            theta = rng.uniform(0.0, np.pi)
            intensity = rng.uniform(CELL_RAW_LOW, CELL_RAW_HIGH)
            # every pixel of the ellipse lies within max(a, b) of its center
            near = _span(cy, max(a, b), size), _span(cx, max(a, b), size)
            mask = _ellipse_mask(*_grid(near), cy, cx, a, b, theta)
            box = _extent(near, mask)
            if (any(s.start < BORDER_CLEAR or s.stop > size - BORDER_CLEAR
                    for s in box)
                    or (mask & blocked[near]).any()):
                continue
            # every pixel within GAP of the mask lies in its box grown by
            # GAP_PX, so dist matches the full-canvas transform up to GAP
            win = _grow(box[0], size), _grow(box[1], size)
            cell = np.zeros([s.stop - s.start for s in win], dtype=bool)
            cell[_within(win, box)] = mask[_within(near, box)]
            dist = ndimage.distance_transform_edt(~cell)
            ring = (dist > 0) & (dist <= RING_WIDTH)
            gt[win][cell] = label
            raw[win][cell] = intensity
            np.maximum(boundary[win], np.where(ring, RIDGE_VALUE, 0.0),
                       out=boundary[win])
            blocked[win] |= dist <= GAP
            placed.append((win, cell, ring, cy, cx))
            break
        else:
            raise PlacementFailure(len(placed), n_cells)

    n_chord = int(round(chord_fraction * n_cells))
    chorded = sorted(rng.choice(n_cells, size=n_chord, replace=False)) if n_chord else []
    for idx in chorded:
        win, mask, ring, cy, cx = placed[idx]
        phi = rng.uniform(0.0, np.pi)
        rows, cols = _grid(win)
        # signed distance to the diameter line through the center
        offset = (cols - cx) * (-np.sin(phi)) + (rows - cy) * np.cos(phi)
        band = (np.abs(offset) <= CHORD_HALF_WIDTH) & (mask | ring)
        np.maximum(boundary[win], np.where(band, CHORD_VALUE, 0.0),
                   out=boundary[win])

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
    counts = {"n_images": n_images, "n_cells": n_cells,
              "image_size": image_size, "rng_seed": rng_seed}
    for name, value in counts.items():
        if isinstance(value, bool) or not isinstance(value, numbers.Integral):
            raise CmcError(f"{name} must be an int, got {value!r}")
        if value < 0:
            raise CmcError(f"{name} must be >= 0, got {value}")
    if n_cells > 0 and image_size < 2 * BORDER_CLEAR:
        raise CmcError(
            f"image_size {image_size} is below {2 * BORDER_CLEAR}: no cell "
            f"fits {BORDER_CLEAR} px clear of each edge"
        )
    if not 0.0 <= noise_level <= 1.0:
        raise CmcError("noise_level must be within [0, 1]")
    if not 0.0 <= chord_fraction <= 1.0:
        raise CmcError("chord_fraction must be within [0, 1]")
    triples = []
    for k in range(n_images):
        rng = np.random.default_rng((rng_seed, k))
        triples.append(
            _make_image(rng, n_cells, noise_level, image_size, chord_fraction)
        )
    return triples
