"""Node and edge feature vectors.

Per candidate: size, circularity, eccentricity, a 16-bin contour
tangent angle histogram, and intensity statistics of the raw image and
the boundary map over all pixels and over contour pixels.  Per edge:
contact area and the interface's intensity mean, variance and skew.
The edge forest reads wider rows, formed where it reads them
(edge_rows): the edge's 4 statistics, then the symmetric combinators
(|u-v|, min, max, u+v) of its two candidates' node vectors.

compute_features(crag, raw, boundary) is the one entry point: it
computes the vectors of every candidate and every adjacency edge of a
Crag at once.  Pixels come from the Crag's leaf label image, and raw
and boundary are checked once, over every pixel a leaf covers.

The merge tree nests the candidates, so each pixel lies in several of
them.  What the leaves fix is computed once per image, per leaf
(_Leaves, whose tables are indexed by the Crag's depth-first leaf ranks,
so they are sized by the leaf count, not by the ids).  A candidate's
leaves are one range [lo, hi) of ranks (Crag.leaf_range), so the sums
over its leaves are table[hi] - table[lo] of prefix tables, formed for
every candidate at once (node_matrix):
- Size, perimeter (4-neighbor pixel sides to anything outside the
  leaf, counted on the rim below: the N, E, S and W neighbors of its
  rim pixels that lie outside it) less 2 sides per 4-neighbor pixel pair
  inside, and the 20-bin raw and boundary histograms: exact integers.
- The count and the sums of r, c, r*r, c*c and r*c, from the row runs,
  as Python ints: the eccentricity (Hu's second-order moments), exact.
- The raw and boundary moments: each leaf's count, sum and central sums
  (_part_sums), combined (_combined) in one call over every (candidate,
  leaf) incidence of both planes.  Each union's parts are added in input
  order, so the bits are those of a call per candidate.
- The 8-connected component count.  A candidate whose leaves are each
  one component and connected by 4-neighbor pixel pairs is one
  component; only other unions are labelled.  The angle histogram is
  all-zero unless the candidate is one component.
- The rim: every pixel with an 8-neighbor in another leaf or UNCOVERED,
  in the rank image framed by one pixel of UNCOVERED, leaf by leaf and
  row-major in each.  A candidate's pixel with a neighbor outside it is
  on its leaf's rim, so its rim rows are one slice.  A row keeps the
  least and greatest rank of its N, E, S and W neighbors; as UNCOVERED
  (-1) lies below every range, it is on the contour of ranks [lo, hi)
  (a 4-neighbor outside) iff low < lo or high >= hi.  Only a candidate
  that walks afresh forms its slice's neighbor codes, every code the
  walk reads (its backtrack pixel is always outside; it starts at the
  slice's least position, the candidate's row-major first pixel).
- The 4-neighbor pixel pairs between leaves by leaf pair, as the Crag
  groups them (leaf_pairs), and the _part_sums of each group's interface
  values, max(boundary) over each pair.  An edge's moments combine its
  groups' (Crag.edge_groups).

What is not a sum over a candidate's leaves, its walk, contour values
and quantiles, is taken children first.  Its contour values are sorted
once per plane, for the contour quantiles and one _part_sums column per
plane; after the loop, one _combined call over every candidate's
columns gives the contour moments.  So every contour statistic depends
on the values alone, not on their order.  An inner candidate takes from
its children what they already hold (_Held), dropping it once it is
done; the records held at any time are of disjoint candidates, so they
hold at most one image of values per plane:
- Sorted values.  Its sorted raw and boundary values are its children's
  merged: each smaller child's inserted into the largest child's at
  their searchsorted positions, instead of a sort of all its pixels.
  Sorted finite values are unique up to the order of -0.0 and 0.0, and
  the quantiles do not depend on that order (_quantiles): every bit kept.
- The contour walk.  The child that holds its first pixel walked from
  that pixel too.  Where no other child's leaf is an 8-neighbor of a
  pixel that walk visited, the candidate's codes at those pixels are
  the child's, and the walk, which reads codes only where it goes, is
  the same walk; it is taken over with its angle histogram.  Otherwise
  the candidate walks afresh.

Moments come from the deviations d about the mean, recentred on their
own mean, with d*d formed once and reused for d**3 and d**4; a union's
central sums combine its parts' (Chan, Golub & LeVeque, 1979; Pebay,
SAND2008-6212).  The parts' sums are np.add.reduceat segments, whose
order numpy leaves open: they gave other bits than ndarray.sum on 896
of 2000 random arrays, and on one array of 100,000 uniform values an
error of 7.3e-12 against math.fsum (a running sum: 7.9e-10).  var,
skew and kurt are exactly 0 when the least and the greatest value are
equal.  Histograms count a uint8 image of bin indices, built once per
image for raw and boundary over the covered pixels, that reproduces
np.histogram(v, 20, (0, 1)) exactly.  Eccentricity is
sqrt(2 s / (a + b + s)), with a, b and c n**2 times the covariance
entries, formed exactly from the integer moments, and
s = sqrt((a - b)**2 + 4 c**2) (_eccentricity).  Quantiles come from
the sorted values, with np.quantile's linear interpolation applied by
hand.  The Moore contour walk looks up its next step in a table, by
backtrack direction and an 8-bit code of the pixel's neighbors; each of
the 8 step directions has one fixed angle bin (taken at import with
atan2), so the angle histogram counts step directions.

Tolerance: every moment agrees with exact rational arithmetic to within
1e-12 * (1 + |v|) (tested on up to 500 16-bit levels k/65535 in 1 to 8
parts, and on a 512 px image of such levels).  The eccentricity lies
within 1 ulp of its exact value (tested on masks shifted by up to 2**14
pixels).  The sorted quantiles are bit-identical to np.quantile, except
that a zero quantile is always 0.0, and the counted step directions to
a walk that takes atan2 of every step.

Digests: a change inside these tolerances can still move a feature's
bits across a forest split, and with it a cost.  So the contract is on
the answers: solution.json and segmentation.pgm stay bit-identical on
the acceptance tests, while a perfbench digest may move only where a
feature's bits move, and each move is reported with its cause.
"""

import math
from collections import namedtuple

import numpy as np
from scipy import ndimage

from .crag import (
    UNCOVERED,
    edge_to_str,
    json_keyed,
    json_known,
    json_member,
    real_array,
    row_runs,
    spans,
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
    """The entries of an edge's own vector, as compute_features returns it."""
    return ["contact_area", "interface_mean", "interface_var", "interface_skew"]


def edge_row_names():
    """The entries of an edge_rows row, which the edge forest reads."""
    names = edge_feature_names()
    for name in node_feature_names():
        names += [f"absdiff_{name}", f"min_{name}", f"max_{name}", f"sum_{name}"]
    return names


def _part_sums(values, starts):
    """One column per part values[starts[k]:starts[k + 1]] (the last to
    the end; none empty): its count, sum and shift, the central sums of
    the 2nd to 4th powers of its deviations, and its least and greatest
    value.  The deviations about sum / count are recentred on their own
    mean, the shift (its rounding error, which left in would move skew
    and kurt by about eps * mean / std); the centre is sum / count + shift."""
    count = np.diff(np.append(starts, len(values)))
    total = np.add.reduceat(values, starts)
    d = values - np.repeat(total / count, count)
    shift = np.add.reduceat(d, starts) / count
    d -= np.repeat(shift, count)
    d2 = d * d
    sums = [np.add.reduceat(x, starts) for x in (d2, d2 * d, d2 * d2)]
    ends = [f.reduceat(values, starts) for f in (np.minimum, np.maximum)]
    return np.array([count, total, shift, *sums, *ends])


def _combined(parts, owner, count):
    """Size, sum, mean, population variance and skewness, and excess
    kurtosis of each union 0..count-1 of the parts (columns of a
    _part_sums array) that `owner` assigns to it.  e_k, part k's centre
    less its union's mean, is (sum_k / n_k - mean) + shift_k, recentred on
    its weighted mean, the rounding error of `mean`, as _part_sums
    recentres the deviations.  var, skew and kurt are 0 where the least
    and greatest values are equal or var underflows."""
    n, total, shift, m2, m3, m4, low, high = parts
    size, union_total = (np.bincount(owner, x, count) for x in (n, total))
    mean = union_total / size
    e = total / n - mean[owner] + shift
    e -= (np.bincount(owner, n * e, count) / size)[owner]
    ne2 = n * e * e
    sums = (m2 + ne2, m3 + e * (3.0 * m2 + ne2),
            m4 + e * (4.0 * m3 + e * (6.0 * m2 + ne2)))
    var, third, fourth = (np.bincount(owner, x, count) / size for x in sums)
    least, most = np.full(count, np.inf), np.full(count, -np.inf)
    np.minimum.at(least, owner, low)
    np.maximum.at(most, owner, high)
    flat = (least == most) | (var == 0.0)
    with np.errstate(divide="ignore", invalid="ignore"):  # var is 0 only where flat
        spread = np.where(flat, 0.0, [var, third / var**1.5, fourth / (var * var) - 3.0])
    return np.column_stack([size, union_total, mean, *spread])


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


def _quantiles(ordered):
    """np.quantile(values, _QUANTILES), bit for bit, from the sorted
    values `ordered`, except that a zero comes out as 0.0, never -0.0.

    The steps of numpy's default linear method: the virtual index is
    v = (n - 1) * q; its floor and the next index both become the last
    index once v >= n - 1; t is v minus that floor; and a + (b - a) * t
    is taken from the upper end, b - (b - a) * (1 - t), when t >= 0.5.
    Sorted finite values are unique up to the order of -0.0 and 0.0,
    and that order only decides the sign of a zero result (-0.0 between
    two -0.0 at t >= 0.5, 0.0 between -0.0 and 0.0), so adding 0.0,
    which turns -0.0 into 0.0 and leaves every other value alone, makes
    the result the same for every sorted order of the same values.
    """
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
        out.append((b - diff * (1 - t) if t >= 0.5 else a + diff * t) + 0.0)
    return out


def _merge_sorted(parts):
    """The sorted concatenation of the sorted arrays `parts`, equal (==)
    to np.sort of it: each smaller part is inserted into the largest at
    its searchsorted positions, a pass over the largest per part."""
    parts = sorted(parts, key=len)
    merged = parts.pop()
    for part in parts:
        merged = np.insert(merged, np.searchsorted(merged, part), part)
    return merged


def _moore_walk(codes, start, moves):
    """Moore boundary walk over a region of an image, from `start`, the
    flat position of its row-major first pixel, where a step in _MOORE
    direction d moves moves[d] flat: one full cycle of flat positions in
    the region (may repeat pixels), and the direction of the step out of
    each.

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


class _Leaves:
    """What the leaves of a Crag fix, computed once.

    The leaves are numbered by their ranks (Crag.leaf_ranks), so every
    table is sized by the leaf count, whatever the ids; `labels` is the
    rank image, UNCOVERED kept (`framed`, where rim positions and walks
    live, is it framed).  Methods take a candidate as its range (lo, hi)
    of ranks (Crag.leaf_range): its leaves are lo..hi-1, and a label x
    lies in it iff lo <= x < hi, never for UNCOVERED.
    """

    def __init__(self, crag, raw, boundary):
        labels = crag.leaf_ranks()
        covered = labels != UNCOVERED
        h, w = labels.shape
        self.labels = labels
        n = len(crag.leaf_order)
        leaf_of = labels[covered]
        leaf, r, c0, c1 = row_runs(labels)
        # leaf k -> boxes[k] = (r0, r1, c0, c1), from its runs (every leaf
        # has one): the least and greatest run row, least col_start,
        # greatest col_end
        self.boxes = np.tile(np.array([h, 0, w, 0]), (n, 1))
        np.minimum.at(self.boxes[:, 0], leaf, r)
        np.maximum.at(self.boxes[:, 1], leaf, r + 1)
        np.minimum.at(self.boxes[:, 2], leaf, c0)
        np.maximum.at(self.boxes[:, 3], leaf, c1)
        # prefix tables: row k sums the leaves below rank k.  The count and
        # sums of r, c, r*r, c*c and r*c from the row runs (c0 <= c < c1 in
        # row r): int64 per run, each term below 2 * max(h, w)**3, then
        # summed as Python ints, so exact
        count = c1 - c0
        sum_c = (c0 + c1 - 1) * count // 2
        sum_cc = _squares_below(c1) - _squares_below(c0)
        per_run = np.stack([count, r * count, sum_c, r * r * count, sum_cc, r * sum_c], 1)
        self.moments = np.zeros((n + 1, 6), dtype=object)
        np.add.at(self.moments, leaf + 1, per_run.astype(object))
        self.moments = self.moments.cumsum(axis=0)
        # the covered pixels leaf by leaf: leaf k's are by_leaf[start[k]:start[k + 1]]
        uncovered = labels.size - len(leaf_of)  # sorted first
        by_leaf = np.argsort(labels, axis=None, kind="stable")[uncovered:]
        self.start = np.bincount(leaf_of + 1, minlength=n + 1).cumsum()
        # the rank image framed by one pixel of UNCOVERED, so that each
        # covered pixel's 8 neighbors lie a fixed flat move away in it, and
        # neighbor codes by framed position, filled by each walk where it reads
        framed = np.pad(labels, 1, constant_values=UNCOVERED)
        self.framed, self.width = framed.ravel(), w + 2
        self.moves = np.array([dr * (w + 2) + dc for dr, dc in _MOORE])
        self.code_table = np.zeros(len(self.framed), dtype=np.uint8)
        # the rim: pixels with an 8-neighbor in another leaf or UNCOVERED,
        # leaf by leaf (row-major in each), leaf k's from row rim_start[k]
        on_rim = np.zeros((h, w), dtype=bool)
        for dr, dc in _MOORE:
            on_rim |= framed[1 + dr : h + 1 + dr, 1 + dc : w + 1 + dc] != labels
        on_rim = on_rim.ravel()[by_leaf]
        at = by_leaf[on_rim]  # flat in the image; (r, c) is (r + 1, c + 1) framed
        self.rim = at + 2 * (at // w) + self.width + 1
        self.rim_start = np.append(0, on_rim.cumsum())[self.start]
        # the sides of a rim pixel's N, E, S and W neighbors outside its leaf
        # (off the rim, all 8 are in it), and their least and greatest rank
        nesw = self.framed[self.rim[:, None] + self.moves[::2]]
        sides = (nesw != self.framed[self.rim, None]).sum(axis=1)
        self.perimeter = np.append(0, sides.cumsum())[self.rim_start]
        self.low, self.high = nesw.min(axis=1), nesw.max(axis=1)
        # per image, checked over every covered pixel (every candidate's):
        # (rim values, rim bins, prefix histograms, values by leaf), and
        # each leaf's _part_sums, sums[:, plane, leaf]
        self.planes, sums = [], []
        for name, image in (("raw", raw), ("boundary", boundary)):
            values = image.ravel()[by_leaf]
            if not np.all((values >= 0.0) & (values <= 1.0)):  # NaN fails too
                raise DegenerateInput(
                    f"{name} values non-finite or outside [0, 1] under a candidate"
                )
            bins = _bin_image(image, covered)
            hist = np.bincount((leaf_of + 1) * 20 + bins[covered], minlength=20 * (n + 1))
            sums.append(_part_sums(values, self.start[:-1]))
            hist = hist.reshape(n + 1, 20).cumsum(axis=0)
            self.planes.append((values[on_rim], bins.ravel()[at], hist, values))
        self.sums = np.stack(sums, axis=1)
        # 8-connected components per leaf
        self.components = np.zeros(n, dtype=np.int64)
        for k, (r0, r1, c0, c1) in enumerate(self.boxes.tolist()):
            self.components[k] = ndimage.label(labels[r0:r1, c0:c1] == k, _SQUARE)[1]
        # 4-neighbor pixel pairs across leaves, grouped by (leaf_p, leaf_q),
        # and the _part_sums of each group's interface values
        self.pairs = pairs = crag.leaf_pairs
        value = np.maximum(boundary.ravel()[pairs.p], boundary.ravel()[pairs.q])
        self.group_sums = _part_sums(value, pairs.start)
        self.pair_count = pairs.stop - pairs.start
        self.touching = {}  # leaf -> the leaves it shares a pixel pair with
        for a, b in zip(pairs.a.tolist(), pairs.b.tolist()):
            self.touching.setdefault(a, set()).add(b)
            self.touching.setdefault(b, set()).add(a)

    def node_matrix(self, lo, hi):
        """The node vectors of the candidates whose leaves are the ranks
        lo[k]..hi[k]-1, one row each, with what sums over their leaves
        filled in: size, circularity, eccentricity, and per plane the
        all-pixel moments and histogram.  Every other entry is 0."""
        n, nodes = len(lo), np.zeros((len(lo), 147))
        # perimeter: the leaves' sides less 2 per pixel pair inside; groups
        # are sorted by a, so those with a in [lo, hi) are one block
        i, j = self.pairs.a.searchsorted(lo), self.pairs.a.searchsorted(hi)
        group, row = spans(i, j), np.repeat(np.arange(n), j - i)
        b = self.pairs.b[group]
        inside = (lo[row] <= b) & (b < hi[row])
        inner = np.bincount(row[inside], self.pair_count[group[inside]], n).astype(np.int64)
        del group, row, b, inside  # (candidate, group) incidences: free before the combine
        perimeter = self.perimeter[hi] - self.perimeter[lo] - 2 * inner
        nodes[:, 0] = self.start[hi] - self.start[lo]
        nodes[:, 1] = 4.0 * math.pi * nodes[:, 0] / (perimeter * perimeter)
        moments = (self.moments[hi] - self.moments[lo]).tolist()
        nodes[:, 2] = [_eccentricity(*sums) for sums in moments]
        # both planes' moments in one _combined call: owner plane * n + row
        leaf, row = spans(lo, hi), np.repeat(np.arange(n), hi - lo)
        parts = self.sums[:, :, leaf].reshape(8, -1)
        moments = _combined(parts, np.append(row, row + n), 2 * n)[:, 1:]
        for plane, (_, _, hist, _) in enumerate(self.planes):
            at = 19 + 64 * plane  # the plane's all-pixel block
            nodes[:, at : at + 5] = moments[plane * n : (plane + 1) * n]
            nodes[:, at + 5 : at + 25] = hist[hi] - hist[lo]
        return nodes

    def one_component(self, lo, hi):
        """Whether the union of the leaves lo..hi-1 is one 8-connected
        component.  It is when each leaf is one and the leaves are
        connected through 4-neighbor pixel pairs; only a union of several
        leaves that this does not decide is labelled, over its box."""
        if hi - lo == 1:
            return self.components[lo] == 1
        todo, reached = [lo], {lo}
        while todo:
            for b in self.touching.get(todo.pop(), ()):
                if lo <= b < hi and b not in reached:
                    reached.add(b)
                    todo.append(b)
        if len(reached) == hi - lo and (self.components[lo:hi] == 1).all():
            return True
        boxes = self.boxes[lo:hi]
        (r0, c0), (r1, c1) = boxes[:, ::2].min(axis=0), boxes[:, 1::2].max(axis=0)
        ranks = self.labels[r0:r1, c0:c1]
        return ndimage.label((lo <= ranks) & (ranks < hi), _SQUARE)[1] == 1

    def walk(self, lo, hi, first):
        """_moore_walk over the candidate of ranks lo..hi-1 from `first`,
        the framed position of its row-major first pixel.  Its leaves'
        rim rows get their codes of neighbors in the candidate first."""
        rim = self.rim[self.rim_start[lo] : self.rim_start[hi]]
        around = self.framed[rim[:, None] + self.moves]
        inside = (lo <= around) & (around < hi)
        self.code_table[rim] = np.packbits(inside, axis=1, bitorder="little")[:, 0]
        return _moore_walk(memoryview(self.code_table), first, self.moves.tolist())


# what a candidate hands its parent: the framed position of its row-major
# first pixel, its leaf range, its sorted raw and boundary values, and
# its walk (positions, angle histogram), None unless it was walked
_Held = namedtuple("_Held", "first span ordered walk")


def _reused_walk(facts, span, first, kids):
    """The walk of the child in `kids` that holds the candidate's first
    pixel `first`, where it is the candidate's own walk, else None.

    It is when no other child's leaf is an 8-neighbor of a pixel that
    walk visited: the walk reads codes only at the pixels it visits,
    from the same start, and those codes are then the same."""
    kid = next((kid for kid in kids if kid.first == first), None)
    if kid is None or kid.walk is None:
        return None
    around = facts.framed[np.add.outer(kid.walk[0], facts.moves)]
    (lo, hi), (kid_lo, kid_hi) = span, kid.span
    other = (lo <= around) & (around < hi) & ((around < kid_lo) | (kid_hi <= around))
    return None if other.any() else kid.walk


def _node_vector(facts, vector, contour_sums, span, kids):
    """Fill in the angle histogram, all-pixel quantiles and contour
    histograms and quantiles of `vector`, the node_matrix row of the
    candidate of ranks span = (lo, hi), and the _part_sums of its sorted
    contour values, one column per plane, into `contour_sums`; return its
    _Held record.  `kids` holds its children's."""
    lo, hi = span
    rows = np.s_[facts.rim_start[lo] : facts.rim_start[hi]]
    first = int(facts.rim[rows].min())  # the row-major first pixel is on a leaf's rim
    # the angle histogram is all-zero unless the candidate is one
    # 8-connected component; a lone pixel makes no step
    walk = None
    if facts.one_component(lo, hi):
        walk = _reused_walk(facts, span, first, kids)
        if walk is None:
            positions, steps = facts.walk(lo, hi, first)
            walk = positions, np.bincount(_STEP_BIN[steps], minlength=16)
        vector[3:19] = walk[1]

    # a rim row is on the contour iff a 4-neighbor's rank is outside [lo, hi)
    contour = (facts.low[rows] < lo) | (facts.high[rows] >= hi)
    start, stop = facts.start[lo], facts.start[hi]
    ordered, merged = [], []
    for plane, (rim_values, rim_bins, _, values) in enumerate(facts.planes):
        parts = [kid.ordered[plane] for kid in kids] or [np.sort(values[start:stop])]
        ordered.append(_merge_sorted(parts))
        merged.append(np.sort(rim_values[rows][contour]))
        at = 19 + 64 * plane  # the plane's all-pixel block, then its contour block
        vector[at + 25 : at + 32] = _quantiles(ordered[plane])
        vector[at + 37 : at + 57] = np.bincount(rim_bins[rows][contour], minlength=20)
        vector[at + 57 : at + 64] = _quantiles(merged[plane])
    contour_sums[:] = _part_sums(np.concatenate(merged), np.array([0, len(merged[0])]))
    return _Held(first, span, ordered, walk)


def compute_features(crag, raw, boundary):
    """Feature vectors for every candidate and adjacency edge of a Crag.

    An edge's vector holds its 4 statistics (edge_feature_names); the
    rows that the edge forest reads are formed from them and the node
    vectors by edge_rows.
    """
    shape = crag.height, crag.width
    raw, boundary = real_array(raw, "raw image"), real_array(boundary, "boundary map")
    for image in (raw, boundary):
        if image.shape != shape:
            raise DimensionMismatch(shape, image.shape)
    facts = _Leaves(crag, raw, boundary)
    ids = crag.ids()
    lo, hi = np.array([crag.leaf_range(cid) for cid in ids], np.int64).reshape(-1, 2).T
    nodes, row = facts.node_matrix(lo, hi), dict(zip(ids, range(len(ids))))
    # per plane and candidate, the _part_sums column of its contour values
    contour_sums = np.empty((8, 2, len(ids)))
    # children first: the reverse of a walk down from the roots
    order = crag.roots()
    for cid in order:
        order.extend(crag.candidates[cid].children)
    held = {}
    for cid in reversed(order):
        kids = [held.pop(kid) for kid in crag.candidates[cid].children]
        k, span = row[cid], crag.leaf_range(cid)
        record = _node_vector(facts, nodes[k], contour_sums[:, :, k], span, kids)
        if cid in crag.subset:
            held[cid] = record
    # every candidate's contour moments, both planes, in one _combined call
    unions = 2 * len(ids)
    moments = _combined(contour_sums.reshape(8, unions), np.arange(unions), unions)
    for plane, block in enumerate(moments[:, 1:].reshape(2, len(ids), 5)):
        at = 19 + 64 * plane + 32  # the plane's contour block
        nodes[:, at : at + 5] = block
    # an edge's own vector: contact area, interface mean, var and skew
    edge, group = crag.edge_groups
    stats = _combined(facts.group_sums[:, group], edge, len(crag.adjacency))
    return dict(zip(ids, nodes)), dict(zip(crag.adjacency, stats[:, [0, 2, 3, 4]]))


def edge_rows(node_rows, ends, edge_stats):
    """The rows the edge forest reads, one per edge, formed in one block
    (edge_row_names): the edge's 4 statistics, then for each node
    feature |u - v|, min(u, v), max(u, v) and u + v of the values u and
    v of the edge's two candidates.

    node_rows is the matrix of node vectors, one per row; ends holds
    the row numbers in it of each edge's two candidates, one edge per
    row; edge_stats holds each edge's 4 statistics, one edge per row.
    """
    u, v = node_rows[ends[:, 0]], node_rows[ends[:, 1]]
    out = np.empty((len(edge_stats), 4 + 4 * node_rows.shape[1]))
    out[:, :4] = edge_stats
    out[:, 4::4] = np.abs(u - v)
    out[:, 5::4] = np.minimum(u, v)
    out[:, 6::4] = np.maximum(u, v)
    out[:, 7::4] = u + v
    return out


def features_to_json(node_feats, edge_feats):
    return {
        "node_schema": node_feature_names(),
        "edge_schema": edge_feature_names(),
        "nodes": {str(i): list(map(float, v)) for i, v in sorted(node_feats.items())},
        "edges": {
            edge_to_str(e): list(map(float, v)) for e, v in sorted(edge_feats.items())
        },
    }


def _json_vector(doc, values, length, where):
    """float64 array of a JSON list of `length` finite numbers, else
    CmcError naming doc and where."""
    if not (
        isinstance(values, list)
        and len(values) == length
        and set(map(type, values)) <= {float, int}  # bool is no number here
    ):
        raise CmcError(f"{doc}: {where} is not a list of {length} numbers")
    try:
        vector = np.array(values, dtype=np.float64)
    except OverflowError:  # a JSON integer beyond the float range
        vector = None
    if vector is None or not np.isfinite(vector).all():
        raise CmcError(f"{doc}: {where} holds a non-finite value")
    return vector


def _check_schema(doc, obj, key, names):
    """CmcError naming doc unless obj[key] lists `names`, naming the
    first entry that differs."""
    schema = json_member(doc, obj, key, list, "features")
    if schema != names:
        at = next(
            (k for k, (got, want) in enumerate(zip(schema, names)) if got != want),
            min(len(schema), len(names)),
        )
        got, want = (repr(s[at]) if at < len(s) else "missing" for s in (schema, names))
        raise CmcError(f"{doc}: {key} entry {at} is {got}, expected {want}")


def features_from_json(obj, doc="features.json"):
    """Node and edge features from their JSON form; malformed input
    (a schema other than this release's feature names, or vector
    lengths other than the schema's, included) raises CmcError naming
    `doc`."""
    node_names, edge_names = node_feature_names(), edge_feature_names()
    _check_schema(doc, obj, "node_schema", node_names)
    _check_schema(doc, obj, "edge_schema", edge_names)
    nodes, edges = (
        json_member(doc, obj, key, dict, "features") for key in ("nodes", "edges")
    )
    json_known(doc, obj, ("node_schema", "edge_schema", "nodes", "edges"), "features")
    n_node, n_edge = len(node_names), len(edge_names)
    return json_keyed(
        doc,
        nodes,
        edges,
        lambda i, v: _json_vector(doc, v, n_node, f"node {i}"),
        lambda k, v: _json_vector(doc, v, n_edge, f"edge {k}"),
    )
