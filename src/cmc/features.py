"""Node and edge feature vectors.

Per candidate: size, circularity, eccentricity, a 16-bin contour
tangent angle histogram, and intensity statistics of the raw image and
the boundary map over all pixels and over contour pixels.  Per edge:
contact area, interface intensity statistics, and the symmetric
combinators (|u-v|, min, max, u+v) of the endpoint node features.

compute_features(crag, raw, boundary) is the one entry point: it
computes the vectors of every candidate and every adjacency edge of a
Crag at once.  Pixels come from the Crag's leaf label image, and raw
and boundary are checked once, over every pixel a leaf covers.  All
pixel statistics are taken in row-major pixel order; interface values
are taken in the order of their (pixel in the smaller region, pixel in
the larger region) pairs, sorted row-major, with the edge's first
candidate counting as the smaller one on equal sizes.

The merge tree nests the candidates, so each pixel lies in several of
them.  What the leaves fix is computed once per image, per leaf
(_Leaves, which numbers the leaves 0..L-1 so that its tables are sized
by the leaf count, not by the ids), and each candidate combines its
leaves' facts:
- Size, perimeter (4-neighbor pixel sides to anything outside the
  leaf) and the 20-bin raw and boundary histograms.  A candidate's are
  integer sums over its leaves, less 2 sides per 4-neighbor pixel pair
  between two of its leaves for the perimeter: exact.
- The coordinate moments: the sums of r, c, r*r, c*c and r*c over the
  leaf's pixels, taken in int64 from its row runs.  A candidate's are
  integer sums over its leaves, and give its eccentricity (Hu's
  second-order moments) with no pass over its pixels.
- The 8-connected component count.  A candidate whose leaves are each
  one component and connected by 4-neighbor pixel pairs is one
  component; only other unions are labelled.  The angle histogram is
  all-zero unless the candidate is one component.
- The rim: every pixel with an 8-neighbor in another leaf, in
  UNCOVERED or outside the image, with its 8 neighbors' leaf ids.  A
  candidate's pixel with a neighbor outside the candidate is on its
  leaf's rim, so the candidate's rim rows, through its leaf lookup,
  give every neighbor code the contour walk reads (its backtrack pixel
  is always outside), and its contour pixels (a 4-neighbor outside)
  are the rows whose N, E, S and W bits are not all set.  The rim is
  row-major, so contour statistics see the same values in the same
  order as a scan of the candidate's mask.
- The 4-neighbor pixel pairs between leaves, grouped by leaf pair.  An
  edge gathers the groups between its candidates' leaves and sorts its
  interface values by pixel pair, a key no two pairs share, so the
  order of gathering does not matter.  The combinators of all edges
  are formed in one step.
Only the all-pixel moments and quantiles scan the candidate's bounding
box (the union of its leaves' boxes), in row-major order.

Each statistics block costs a few multiply-adds per pixel.  Moments come
from the deviations d about the mean, recentred on their own mean, with
d*d formed once and reused in place for d**3 and d**4.  Histograms count
a uint8 image of bin indices, built once per image for raw and boundary
over the covered pixels, that reproduces np.histogram(v, 20, (0, 1))
exactly.  Eccentricity is sqrt(2 s / (a + b + s)), with a, b and c n**2
times the covariance entries, formed exactly from the integer moments,
and s = sqrt((a - b)**2 + 4 c**2) (_eccentricity).  Quantiles come from
one sort, with np.quantile's linear interpolation applied by hand.  The
Moore contour walk looks up its next step in a table, by backtrack
direction and an 8-bit code of the pixel's neighbors; each of the 8
step directions has one fixed angle bin (taken at import with atan2),
so the angle histogram counts step directions.

Tolerance: the moments agree with exact rational arithmetic to within
1e-12 * (1 + |v|) (tested on up to 500 16-bit levels k/65535).  The
eccentricity lies within 1 ulp of its exact value (tested on masks
shifted by up to 2**14 pixels).  The sorted quantiles are bit-identical
to np.quantile, and the counted step directions to a walk that takes
atan2 of every step.

Digests: a change inside these tolerances can still move a feature's
bits across a forest split, and with it a cost.  So the contract is on
the answers: solution.json and segmentation.pgm stay bit-identical on
the acceptance tests, while a perfbench digest may move only where a
feature's bits move, and each move is reported with its cause.
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
    row_runs,
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
_NESW = 0b01010101  # neighbor-code bits of the 4-neighbors


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
    holds 1.0.  Values must lie in [0, 1].  The estimate min(int(20 v),
    19) is never below the bin: 20 * _HIST_EDGES[k] rounds to k or
    more for every k, and rounding is monotone.  It is one above it
    just below an edge, and is corrected there against _HIST_EDGES.
    """
    v = image[where]
    k = (v * 20.0).astype(np.uint8)
    np.minimum(k, 19, out=k)
    k -= v < _HIST_EDGES[k]
    bins = np.zeros(image.shape, dtype=np.uint8)
    bins[where] = k
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


def _stats_block(values, hist):
    """Moments, the given 20-bin histogram and quantiles of `values`."""
    return np.concatenate([_moments(values), hist, _quantiles(values)])


def _moore_walk(codes, start, width):
    """Moore boundary walk over a region of an image `width` pixels
    wide, from `start`, the flat position of its row-major first pixel:
    one full cycle of flat positions in the region (may repeat pixels),
    and the _MOORE direction of the step out of each.

    codes[p] is the 8-bit code of pixel p's neighbors (bit d: the
    neighbor in direction d is in the region).  The backtrack pixel lies
    outside the region, so the walk reads codes only at region pixels
    with an 8-neighbor outside it.  The walk over (pixel, backtrack)
    states is eventually periodic; one period is returned, which for
    compact blobs is the classic closed clockwise trace.  (A plain
    return-to-start check can miss: on thin shapes the start pixel is
    only ever re-entered from directions other than the initial
    backtrack.)  A lone pixel gives itself and no step.
    """
    moves = [dr * width + dc for dr, dc in _MOORE]
    cur, back = start, 6  # row-major first pixel: west is out
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


def _squares_below(x):
    """Sum of k * k over 0 <= k < x, elementwise."""
    return (x - 1) * x * (2 * x - 1) // 6


def _eccentricity(n, sr, sc, srr, scc, src):
    """sqrt(1 - lmin / lmax) of the covariance of n pixel coordinates
    (r, c), from their exact sums (Python ints) of r, c, r*r, c*c, r*c;
    0 when the eigenvalues are equal.

    a, b and c are n**2 times the covariance entries, exactly, and the
    eigenvalues are n**-2 (a + b -+ s) / 2 with s = sqrt((a-b)**2 + 4 c**2),
    so 1 - lmin / lmax = 2 s / (a + b + s): no difference of near-equal
    terms.  s, that ratio and its square root are each rounded down in
    integers scaled by 2**64 or 2**128, and the float division at the
    end is the one rounding to double.  The result lies within 1 ulp of
    the exact value.
    """
    a = n * srr - sr * sr
    b = n * scc - sc * sc
    c = n * src - sr * sc
    d = (a - b) ** 2 + 4 * c * c
    if not d:
        return 0.0
    s = math.isqrt(d << 128)  # s * 2**64
    ratio = (s << 129) // ((a + b << 64) + s)  # 2 s / (a + b + s) * 2**128
    return math.isqrt(ratio << 128) / 2.0**128


def _spans(starts, stops):
    """Concatenated np.arange(starts[k], stops[k]) over all k."""
    lengths = stops - starts
    shift = starts - np.cumsum(lengths) + lengths
    return np.repeat(shift, lengths) + np.arange(lengths.sum())


class _Leaves:
    """What the leaves of a Crag fix, computed once.

    The leaves are renumbered 0..L-1 in id order (renumber()), so every
    table is sized by the leaf count, whatever the ids; `labels` is the
    leaf label image in these numbers.  Arrays over leaves have one slot
    past the last, which UNCOVERED (-1) indexes, as it indexes a
    lookup() table.  Methods take a candidate as the list of its leaves'
    numbers and its lookup() table.
    """

    def __init__(self, crag, raw, boundary):
        ids = crag.leaf_labels()
        leaf_ids = crag.leaves()
        self.number = {leaf: k for k, leaf in enumerate(leaf_ids)}
        covered = ids != UNCOVERED
        labels = np.searchsorted(leaf_ids, ids)
        labels[~covered] = UNCOVERED
        h, w = labels.shape
        self.labels, self.width = labels, w
        self.boxes = ndimage.find_objects(labels + 1)  # leaf k -> boxes[k]
        n = len(leaf_ids) + 1
        leaf_of = labels[covered]
        self.size = np.bincount(leaf_of, minlength=n)
        # sums of r, c, r*r, c*c and r*c per leaf, from its row runs
        # (c0 <= c < c1 in row r): int64 per run, each term below
        # 2 * max(h, w)**3, and summed per leaf as Python ints, so exact
        leaf, r, c0, c1 = row_runs(labels)
        count = c1 - c0
        sum_c = (c0 + c1 - 1) * count // 2
        sum_cc = _squares_below(c1) - _squares_below(c0)
        per_run = np.stack([r * count, sum_c, r * r * count, sum_cc, r * sum_c], 1)
        self.moments = np.zeros((n, 5), dtype=object)
        np.add.at(self.moments, leaf, per_run.astype(object))
        # per image: (image, flat image, flat bin image, histogram per leaf)
        self.planes = []
        for image in (raw, boundary):
            bins = _bin_image(image, covered)
            hist = np.bincount(leaf_of * 20 + bins[covered], minlength=20 * n)
            planes = image, image.ravel(), bins.ravel(), hist.reshape(n, 20)
            self.planes.append(planes)
        # 4 sides per pixel, less 2 per 4-neighbor pixel pair inside the leaf
        inner = [
            a[(a == b) & (a != UNCOVERED)]
            for a, b in ((labels[:, :-1], labels[:, 1:]), (labels[:-1], labels[1:]))
        ]
        inner = np.bincount(np.concatenate(inner), minlength=n)
        self.perimeter = 4 * self.size - 2 * inner
        # 8-connected components per leaf
        self.components = np.zeros(n, dtype=np.int64)
        for k, box in enumerate(self.boxes):
            self.components[k] = ndimage.label(labels[box] == k, _SQUARE)[1]
        # the rim: pixels with an 8-neighbor in another leaf, in UNCOVERED
        # or outside the image, row-major, with their neighbors' labels
        on_rim = np.ones((h, w), dtype=bool)  # the border has one outside
        on_rim[1:-1, 1:-1] = False
        for dr, dc in _MOORE:
            here = np.s_[max(-dr, 0) : h - max(dr, 0), max(-dc, 0) : w - max(dc, 0)]
            there = np.s_[max(dr, 0) : h + min(dr, 0), max(dc, 0) : w + min(dc, 0)]
            on_rim[here] |= labels[here] != labels[there]
        on_rim &= covered
        self.rim = np.flatnonzero(on_rim)
        self.rim_leaf = labels[on_rim]
        r, c = np.divmod(self.rim, w)
        self.rim_around = np.full((len(self.rim), 8), UNCOVERED, dtype=labels.dtype)
        for d, (dr, dc) in enumerate(_MOORE):
            rr, cc = r + dr, c + dc
            inside = (rr >= 0) & (rr < h) & (cc >= 0) & (cc < w)
            self.rim_around[inside, d] = labels[rr[inside], cc[inside]]
        # neighbor codes by flat position; each walk fills the rim it reads
        self.code_table = np.zeros(h * w, dtype=np.uint8)
        # 4-neighbor pixel pairs across leaves, grouped by (leaf_p, leaf_q)
        leaf_p, leaf_q, p, q = pixel_pairs(labels)
        key = leaf_p * n + leaf_q
        order = np.argsort(key)
        flat = boundary.ravel()
        self.p, self.q = p[order], q[order]
        self.value = np.maximum(flat[self.p], flat[self.q])
        groups, self.group_start, size = np.unique(
            key[order], return_index=True, return_counts=True
        )
        self.group_stop = self.group_start + size
        self.group_a, self.group_b = np.divmod(groups, n)
        self.touching = {}  # leaf -> the leaves it shares a pixel pair with
        for a, b in zip(self.group_a.tolist(), self.group_b.tolist()):
            self.touching.setdefault(a, set()).add(b)
            self.touching.setdefault(b, set()).add(a)

    def renumber(self, leaf_ids):
        """The numbers of the leaves with these ids, in order."""
        return [self.number[leaf] for leaf in leaf_ids]

    def lookup(self, leaves):
        """Boolean table over leaf numbers, True on `leaves`.

        Indexing it with the leaf label image masks the candidate; its
        last slot stays False for UNCOVERED.
        """
        lut = np.zeros(len(self.size), dtype=bool)
        lut[leaves] = True
        return lut

    def perimeter_of(self, leaves, lut):
        """4-neighbor pixel sides between the candidate and the rest."""
        inside = lut[self.group_a] & lut[self.group_b]
        inner = self.group_stop[inside] - self.group_start[inside]
        return int(self.perimeter[leaves].sum() - 2 * inner.sum())

    def one_component(self, leaves):
        """Whether each of `leaves` is one 8-connected component and the
        leaves are connected through 4-neighbor pixel pairs, which makes
        their union one 8-connected component."""
        if (self.components[leaves] != 1).any():
            return False
        members = set(leaves)
        todo, reached = [leaves[0]], {leaves[0]}
        while todo:
            for b in self.touching.get(todo.pop(), ()):
                if b in members and b not in reached:
                    reached.add(b)
                    todo.append(b)
        return len(reached) == len(members)

    def rim_of(self, lut):
        """Flat positions (row-major) of the candidate's pixels on its
        leaves' rims, and their 8-bit codes of neighbors in the candidate."""
        rows = lut[self.rim_leaf]
        inside = lut[self.rim_around[rows]]
        return self.rim[rows], np.packbits(inside, axis=1, bitorder="little")[:, 0]

    def walk(self, rim, codes):
        """_moore_walk over the candidate whose rim pixels and codes
        these are (a rim_of result)."""
        self.code_table[rim] = codes
        return _moore_walk(memoryview(self.code_table), int(rim[0]), self.width)


def _node_vector(facts, leaves, lut):
    """147-entry feature vector of the candidate that is the union of
    the list `leaves`, with lookup table `lut`."""
    rows, cols = zip(*(facts.boxes[k] for k in leaves))
    r0, c0 = min(s.start for s in rows), min(s.start for s in cols)
    box = np.s_[r0 : max(s.stop for s in rows), c0 : max(s.stop for s in cols)]
    mask = lut[facts.labels[box]]
    count = int(facts.size[leaves].sum())
    size = float(count)
    perimeter = facts.perimeter_of(leaves, lut)
    circularity = 4.0 * math.pi * size / (perimeter * perimeter)
    eccentricity = _eccentricity(count, *facts.moments[leaves].sum(axis=0).tolist())

    rim, codes = facts.rim_of(lut)
    # the angle histogram is all-zero unless the candidate is one
    # 8-connected component; a lone pixel makes no step
    if len(leaves) == 1:
        whole = facts.components[leaves[0]] == 1
    else:
        whole = facts.one_component(leaves) or ndimage.label(mask, _SQUARE)[1] == 1
    if whole:
        _, steps = facts.walk(rim, codes)
        angles = np.bincount(_STEP_BIN[steps], minlength=16).astype(np.float64)
    else:
        angles = np.zeros(16)

    contour = rim[(codes & _NESW) != _NESW]
    blocks = []
    for image, flat, bins, hist in facts.planes:
        blocks.append(_stats_block(image[box][mask], hist[leaves].sum(axis=0)))
        blocks.append(
            _stats_block(flat[contour], np.bincount(bins[contour], minlength=20))
        )
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


def _edge_vectors(facts, adjacency, luts, node_feats):
    """592-entry feature vectors of the edges in `adjacency`, one per row.

    An edge's interface is every pixel pair between its candidates,
    gathered by leaf pair; its values are sorted by (pixel in the
    smaller candidate, pixel in the larger), a key no two pairs share.
    """
    u = np.array([node_feats[i] for i, _ in adjacency])
    v = np.array([node_feats[j] for _, j in adjacency])
    lut_i = np.array([luts[i] for i, _ in adjacency])
    lut_j = np.array([luts[j] for _, j in adjacency])
    # (edge, group) pairs whose leaf_p lies in candidate i (forward) or j
    ends = []
    for lut_p, lut_q in ((lut_i, lut_j), (lut_j, lut_i)):
        edge, group = np.nonzero(lut_p[:, facts.group_a] & lut_q[:, facts.group_b])
        start, stop = facts.group_start[group], facts.group_stop[group]
        ends.append((np.repeat(edge, stop - start), _spans(start, stop)))
    (edge_f, fwd), (edge_r, rev) = ends
    edge = np.concatenate([edge_f, edge_r])
    in_i = np.concatenate([facts.p[fwd], facts.q[rev]])
    in_j = np.concatenate([facts.q[fwd], facts.p[rev]])
    i_smaller = (u[:, 0] <= v[:, 0])[edge]  # entry 0 is the size
    order = np.lexsort(
        (np.where(i_smaller, in_j, in_i), np.where(i_smaller, in_i, in_j), edge)
    )
    values = np.concatenate([facts.value[fwd], facts.value[rev]])[order]
    bounds = np.cumsum(np.bincount(edge, minlength=len(adjacency)))
    out = np.empty((len(adjacency), 4 + 4 * u.shape[1]))
    for row, lo, hi in zip(out, np.r_[0, bounds[:-1]].tolist(), bounds.tolist()):
        _, mean, var, skew, _ = _moments(values[lo:hi])
        row[:4] = float(hi - lo), mean, var, skew
    out[:, 4::4] = np.abs(u - v)
    out[:, 5::4] = np.minimum(u, v)
    out[:, 6::4] = np.maximum(u, v)
    out[:, 7::4] = u + v
    return out


def compute_features(crag, raw, boundary):
    """Feature vectors for every candidate and adjacency edge of a Crag."""
    raw, boundary = _checked_images(crag.leaf_labels(), raw, boundary)
    facts = _Leaves(crag, raw, boundary)
    node_feats, luts = {}, {}
    for cid in crag.ids():
        leaves = facts.renumber(crag.leaves_under(cid))
        luts[cid] = facts.lookup(leaves)
        node_feats[cid] = _node_vector(facts, leaves, luts[cid])
    if not crag.adjacency:
        return node_feats, {}
    vectors = _edge_vectors(facts, crag.adjacency, luts, node_feats)
    # one array per edge: a view would keep the whole block alive
    return node_feats, {e: row.copy() for e, row in zip(crag.adjacency, vectors)}


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


def _check_schema(obj, key, names):
    """CmcError unless obj[key] lists `names`, naming the first entry that differs."""
    schema = json_member("features.json", obj, key, list, "features")
    if schema != names:
        at = next(
            (k for k, (got, want) in enumerate(zip(schema, names)) if got != want),
            min(len(schema), len(names)),
        )
        got, want = (repr(s[at]) if at < len(s) else "missing" for s in (schema, names))
        raise CmcError(f"features.json: {key} entry {at} is {got}, expected {want}")


def features_from_json(obj):
    """Node and edge features from their JSON form; malformed input
    (a schema other than this release's feature names, or vector
    lengths other than the schema's, included) raises CmcError."""
    doc = "features.json"
    node_names, edge_names = node_feature_names(), edge_feature_names()
    _check_schema(obj, "node_schema", node_names)
    _check_schema(obj, "edge_schema", edge_names)
    nodes, edges = (
        json_member(doc, obj, key, dict, "features") for key in ("nodes", "edges")
    )
    n_node, n_edge = len(node_names), len(edge_names)
    node_feats = {
        json_id(doc, i): _json_vector(v, n_node, f"node {i}") for i, v in nodes.items()
    }
    edge_feats = {
        json_edge(doc, k): _json_vector(v, n_edge, f"edge {k}")
        for k, v in edges.items()
    }
    if len(node_feats) < len(nodes) or len(edge_feats) < len(edges):
        raise CmcError(f"{doc}: two keys name the same candidate or edge")
    return node_feats, edge_feats
