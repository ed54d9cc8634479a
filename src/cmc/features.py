"""Node and edge feature vectors.

Per candidate: size, circularity, eccentricity, a 16-bin contour
tangent angle histogram, and intensity statistics of the raw image and
the boundary map over all pixels and over contour pixels.  Per edge:
contact area, interface intensity statistics, and the symmetric
combinators (|u-v|, min, max, u+v) of the endpoint node features.

compute_features(crag, raw, boundary) is the one entry point: it
computes the vectors of every candidate and every adjacency edge of a
Crag at once.  Pixels come from the Crag's leaf label image: a candidate
is a boolean mask over its bounding box, looked up by leaf id, and raw
and boundary are checked once, over every pixel a leaf covers.  All
pixel statistics are taken in row-major pixel order; interface values
are taken in the order of their (pixel in the smaller region, pixel in
the larger region) pairs, sorted row-major, with the edge's first
candidate counting as the smaller one on equal sizes.

Each statistics block costs a few multiply-adds per pixel.  Moments come
from the deviations d about the mean, recentred on their own mean, with
d*d formed once and reused in place for d**3 and d**4.  Histograms count
a uint8 image of bin indices, built once per image for raw and boundary
over the covered pixels, that reproduces np.histogram(v, 20, (0, 1))
exactly.  Eccentricity takes the 2x2 covariance as np.cov does.
Quantiles come from one sort, with np.quantile's linear interpolation
applied by hand.  The Moore contour walk looks up its next step in a
table, by backtrack direction and an 8-bit code of the pixel's
neighbors; each of the 8 step directions has one fixed angle bin (taken
at import with atan2), so the angle histogram counts step directions.
Contour pixels, those with a 4-neighbor outside the candidate, come
from four shifted slices of the padded mask.

Tolerance: the moments agree with exact rational arithmetic to within
1e-12 * (1 + |v|) (tested on up to 500 16-bit levels k/65535).  Earlier
releases formed d**3 and d**4 with pow, did not recentre, and summed
contour pixels in hash-set order; on every image compared, no value
moved from theirs by more than 1e-12 * (1 + |v|), and size, the angle
and intensity histograms, the quantiles and the eccentricity are
bit-identical.  The sorted quantiles and the counted step directions
changed no value: they are bit-identical to np.quantile and to a walk
that takes atan2 of every step.
"""

import math

import numpy as np
from scipy import ndimage

from .crag import (
    UNCOVERED,
    edge_to_str,
    json_edge,
    json_id,
    json_member,
    pixel_pairs,
)
from .errors import (
    CmcError,
    DegenerateInput,
    DimensionMismatch,
)

TWO_PI = 2.0 * math.pi

_QUANTILES = (0.05, 0.1, 0.25, 0.5, 0.75, 0.9, 0.95)
_HIST_EDGES = np.linspace(0.0, 1.0, 21)

# Moore neighborhood, clockwise starting north (rows grow downward)
_MOORE = ((-1, 0), (-1, 1), (0, 1), (1, 1), (1, 0), (1, -1), (0, -1), (-1, -1))

_SQUARE = ndimage.generate_binary_structure(2, 2)


def _first_inside(back, code):
    """Direction of the first neighbor in `code` clockwise after the
    backtrack direction `back` (back itself last), or 8 for none."""
    for k in range(1, 9):
        d = (back + k) % 8
        if code >> d & 1:
            return d
    return 8


# the walk's step from backtrack direction b at a pixel whose neighbor
# code is c goes in direction _NEXT[b * 256 + c]; after a step in
# direction d, the backtrack lies in direction _BACK[d] of the new pixel
_NEXT = bytes(_first_inside(b, c) for b in range(8) for c in range(256))
_BACK = tuple(
    _MOORE.index((_MOORE[d - 1][0] - dr, _MOORE[d - 1][1] - dc))
    for d, (dr, dc) in enumerate(_MOORE)
)
# angle-histogram bin of a step in each direction
_STEP_BIN = np.array(
    [int((math.atan2(dr, dc) % TWO_PI) / (TWO_PI / 16)) % 16 for dr, dc in _MOORE]
)


def _stat_names(prefix):
    names = [f"{prefix}_{s}" for s in ("sum", "mean", "var", "skew", "kurt")]
    names += [f"{prefix}_hist_{b:02d}" for b in range(20)]
    names += [f"{prefix}_q{int(q * 100):02d}" for q in _QUANTILES]
    return names


def node_feature_names():
    names = ["size", "circularity", "eccentricity"]
    names += [f"angle_hist_{b:02d}" for b in range(16)]
    for prefix in ("raw_all", "raw_contour", "boundary_all", "boundary_contour"):
        names += _stat_names(prefix)
    return names


def edge_feature_names():
    names = ["contact_area", "interface_mean", "interface_var", "interface_skew"]
    for name in node_feature_names():
        names += [f"absdiff_{name}", f"min_{name}", f"max_{name}", f"sum_{name}"]
    return names


def _moments(values):
    """sum, mean, population variance/skewness, excess kurtosis.

    var, skew and kurt are exactly 0 when all values are equal.  The
    deviations are recentred on their own mean, which is the rounding
    error of `mean`: left in, it would shift skew and kurt by about
    eps * mean / std, far beyond rounding when the values nearly agree.
    """
    n = len(values)
    total = float(values.sum())
    mean = total / n
    if values.min() == values.max():
        return total, mean, 0.0, 0.0, 0.0
    d = values - mean
    d -= d.sum() / n
    d2 = d * d
    m2 = float(d2.sum()) / n
    if m2 == 0.0:  # the squared deviations underflow
        return total, mean, 0.0, 0.0, 0.0
    d *= d2  # cubed deviations
    d2 *= d2  # fourth powers
    skew = float(d.sum()) / n / m2**1.5
    kurt = float(d2.sum()) / n / (m2 * m2) - 3.0
    return total, mean, m2, skew, kurt


def _bin_image(image, where):
    """uint8 image of each pixel's bin in np.histogram(v, 20, (0, 1)),
    over the pixels set in `where` (0 elsewhere).

    Bin k holds _HIST_EDGES[k] <= v < _HIST_EDGES[k + 1]; bin 19 also
    holds 1.0.  Values must lie in [0, 1].
    """
    bins = np.zeros(image.shape, dtype=np.uint8)
    k = np.searchsorted(_HIST_EDGES, image[where], side="right") - 1
    bins[where] = np.minimum(k, 19)
    return bins


def _quantiles(values):
    """np.quantile(values, _QUANTILES), bit for bit, from one sort.

    The steps of numpy's default linear method: the virtual index is
    v = (n - 1) * q; its floor and the next index both become the last
    index once v >= n - 1; t is v minus that floor; and a + (b - a) * t
    is taken from the upper end, b - (b - a) * (1 - t), when t >= 0.5.
    """
    ordered = np.sort(values)
    n = len(ordered)
    out = []
    for q in _QUANTILES:
        v = (n - 1) * q
        lo = math.floor(v)
        hi = lo + 1
        if v >= n - 1:
            lo = hi = -1
        t = v - lo
        a, b = float(ordered[lo]), float(ordered[hi])
        diff = b - a
        out.append(b - diff * (1 - t) if t >= 0.5 else a + diff * t)
    return out


def _stats_block(values, bins):
    """Moments, 20-bin histogram and quantiles of `values`, whose
    histogram bins (from _bin_image) are `bins`."""
    hist = np.bincount(bins, minlength=20)
    return np.concatenate([_moments(values), hist, _quantiles(values)])


def _pad(mask):
    """The mask with one False pixel added on every side."""
    padded = np.zeros((mask.shape[0] + 2, mask.shape[1] + 2), dtype=bool)
    padded[1:-1, 1:-1] = mask
    return padded


def _contour(padded):
    """Pixels of the mask inside `padded` (a _pad result) that have a
    4-neighbor outside it."""
    inner = padded[:-2, 1:-1] & padded[2:, 1:-1] & padded[1:-1, :-2] & padded[1:-1, 2:]
    return padded[1:-1, 1:-1] & ~inner


def _moore_walk(mask):
    """Moore boundary walk over a 2-d boolean mask: one full cycle of
    flat (row-major) positions in the mask (may repeat pixels), and the
    _MOORE direction of the step out of each.

    The walk over (pixel, backtrack) states is eventually periodic; one
    period is returned, which for compact blobs is the classic closed
    clockwise trace.  (A plain return-to-start check can miss: on thin
    shapes the start pixel is only ever re-entered from directions other
    than the initial backtrack.)  A lone pixel gives itself and no step.
    The mask must have a pixel set.
    """
    h, w = mask.shape
    padded = _pad(mask).view(np.uint8)
    # bit d of a pixel's code: its neighbor in direction d is in the mask
    codes = np.zeros(mask.shape, dtype=np.uint8)
    for d, (dr, dc) in enumerate(_MOORE):
        codes |= padded[1 + dr : 1 + dr + h, 1 + dc : 1 + dc + w] << d
    codes = codes.tobytes()
    moves = [dr * w + dc for dr, dc in _MOORE]
    cur, back = int(mask.argmax()), 6  # row-major first pixel: west is out
    if not codes[cur]:
        return [cur], []
    # state -> direction of its step, in walk order
    steps = {}
    while (state := cur << 3 | back) not in steps:
        steps[state] = d = _NEXT[back << 8 | codes[cur]]
        cur += moves[d]
        back = _BACK[d]
    states = list(steps)
    first = states.index(state)
    return [s >> 3 for s in states[first:]], list(steps.values())[first:]


def _angle_histogram(mask):
    """16-bin histogram of contour displacement angles over [0, 2pi).

    All-zero for single pixels and for regions that are not one
    8-connected component (no unambiguous contour to walk).
    """
    _, n = ndimage.label(mask, structure=_SQUARE)
    if n != 1:
        return np.zeros(16)
    _, steps = _moore_walk(mask)  # no step for a single pixel
    return np.bincount(_STEP_BIN[steps], minlength=16).astype(np.float64)


def _node_kernel(mask, origin, planes):
    """147-entry feature vector of the pixels set in a box mask.

    `origin` is the image position of the box's top-left pixel; `planes`
    holds (image, bins) for raw and boundary: the same box of the image
    and of its _bin_image.
    """
    padded = _pad(mask)
    size = float(np.count_nonzero(mask))
    # 4-neighbor pixel sides between the region and the rest
    perimeter = np.count_nonzero(padded[:, 1:] != padded[:, :-1])
    perimeter += np.count_nonzero(padded[1:, :] != padded[:-1, :])
    circularity = 4.0 * math.pi * size / (perimeter * perimeter)

    if size == 1.0:
        eccentricity = 0.0
    else:
        # centred (row, col) columns; X.T @ X is the product np.cov forms
        coords = np.argwhere(mask).astype(np.float64)
        coords += origin
        coords -= coords.sum(axis=0) / size
        cov = np.dot(coords.T, coords)
        cov *= 1.0 / size
        lo, hi = np.linalg.eigvalsh(cov)
        eccentricity = math.sqrt(1.0 - max(lo, 0.0) / hi) if hi > 0.0 else 0.0

    angles = _angle_histogram(mask)

    contour = _contour(padded)
    blocks = [
        _stats_block(image[pixels], bins[pixels])
        for image, bins in planes
        for pixels in (mask, contour)
    ]
    return np.concatenate([[size, circularity, eccentricity], angles] + blocks)


def _checked_images(labels, raw, boundary):
    """raw and boundary as float64, checked over every pixel a leaf covers.

    Every candidate is a union of leaves, so this is the range check
    of every candidate at once.
    """
    covered = labels != UNCOVERED
    images = []
    for name, image in (("raw", raw), ("boundary", boundary)):
        image = np.asarray(image, dtype=np.float64)
        if image.shape != labels.shape:
            raise DimensionMismatch(labels.shape, image.shape)
        values = image[covered]
        # written so that NaN fails too
        if not np.all((values >= 0.0) & (values <= 1.0)):
            raise DegenerateInput(
                f"{name} values non-finite or outside [0, 1] under a candidate"
            )
        images.append(image)
    return images


def _lookup(leaves, n):
    """Boolean table over leaf ids, True on `leaves`.

    Indexing it with the leaf label image masks the candidate.  Its
    last slot lies past every leaf id and stays False; UNCOVERED (-1)
    indexes it.
    """
    lut = np.zeros(n, dtype=bool)
    lut[list(leaves)] = True
    return lut


def _edge_kernel(pairs, lut_i, lut_j, i_smaller, u, v):
    """592-entry feature vector of the edge between two candidates.

    `pairs` is crag.pixel_pairs of the leaf label image, (leaf_p, leaf_q,
    p, q), plus each pair's value max(boundary[p], boundary[q]).  lut_i /
    lut_j are the candidates' leaf lookups, u / v their node features;
    i_smaller says whether candidate i has at most as many pixels as j.
    """
    leaf_p, leaf_q, p, q, value = pairs
    ij = lut_i[leaf_p] & lut_j[leaf_q]
    ji = lut_j[leaf_p] & lut_i[leaf_q]
    in_i = np.concatenate([p[ij], q[ji]])
    in_j = np.concatenate([q[ij], p[ji]])
    # pairs sorted by (pixel in the smaller region, pixel in the larger)
    order = np.lexsort((in_j, in_i) if i_smaller else (in_i, in_j))
    vals = np.concatenate([value[ij], value[ji]])[order]
    _, mean, var, skew, _ = _moments(vals)
    combo = np.empty(4 * len(u))
    combo[0::4] = np.abs(u - v)
    combo[1::4] = np.minimum(u, v)
    combo[2::4] = np.maximum(u, v)
    combo[3::4] = u + v
    return np.concatenate([[float(len(vals)), mean, var, skew], combo])


def compute_features(crag, raw, boundary):
    """Feature vectors for every candidate and adjacency edge of a Crag."""
    labels = crag.leaf_labels()
    raw, boundary = _checked_images(labels, raw, boundary)
    covered = labels != UNCOVERED
    planes = [(im, _bin_image(im, covered)) for im in (raw, boundary)]
    leaf_boxes = ndimage.find_objects(labels + 1)  # leaf id k -> leaf_boxes[k]
    node_feats, luts = {}, {}
    for cid in crag.ids():
        leaves = crag.leaves_under(cid)
        luts[cid] = _lookup(leaves, len(leaf_boxes) + 1)
        rows, cols = zip(*(leaf_boxes[k] for k in leaves))
        r0, c0 = min(s.start for s in rows), min(s.start for s in cols)
        box = np.s_[r0 : max(s.stop for s in rows), c0 : max(s.stop for s in cols)]
        mask = luts[cid][labels[box]]
        boxed = [(im[box], bins[box]) for im, bins in planes]
        node_feats[cid] = _node_kernel(mask, (r0, c0), boxed)
    leaf_p, leaf_q, p, q = pixel_pairs(labels)
    flat = boundary.ravel()
    pairs = leaf_p, leaf_q, p, q, np.maximum(flat[p], flat[q])
    edge_feats = {}
    for i, j in crag.adjacency:
        u, v = node_feats[i], node_feats[j]
        # entry 0 is the size
        edge_feats[(i, j)] = _edge_kernel(pairs, luts[i], luts[j], u[0] <= v[0], u, v)
    return node_feats, edge_feats


def features_to_json(node_feats, edge_feats):
    return {
        "node_schema": node_feature_names(),
        "edge_schema": edge_feature_names(),
        "nodes": {str(i): list(map(float, v)) for i, v in sorted(node_feats.items())},
        "edges": {
            edge_to_str(e): list(map(float, v)) for e, v in sorted(edge_feats.items())
        },
    }


def _json_vector(values, length, where):
    """float64 array of a JSON list of `length` finite numbers, else CmcError."""
    if not (
        isinstance(values, list)
        and len(values) == length
        and set(map(type, values)) <= {float, int}  # bool is no number here
    ):
        raise CmcError(f"features.json: {where} is not a list of {length} numbers")
    try:
        vector = np.array(values, dtype=np.float64)
    except OverflowError:  # a JSON integer beyond the float range
        vector = None
    if vector is None or not np.isfinite(vector).all():
        raise CmcError(f"features.json: {where} holds a non-finite value")
    return vector


def features_from_json(obj):
    """Node and edge features from their JSON form; malformed input
    (vector lengths other than the schema's included) raises CmcError."""
    doc = "features.json"
    nodes, edges = (
        json_member(doc, obj, key, dict, "features") for key in ("nodes", "edges")
    )
    n_node, n_edge = len(node_feature_names()), len(edge_feature_names())
    node_feats = {
        json_id(doc, i): _json_vector(v, n_node, f"node {i}") for i, v in nodes.items()
    }
    edge_feats = {
        json_edge(doc, k): _json_vector(v, n_edge, f"edge {k}")
        for k, v in edges.items()
    }
    return node_feats, edge_feats
