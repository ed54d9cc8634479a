import json
import math
from decimal import Decimal, localcontext
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st
from scipy import ndimage

from cmc.crag import UNCOVERED, Candidate, build_crag
from cmc.errors import CmcError, DegenerateInput, DimensionMismatch
from cmc.features import (
    _QUANTILES,
    _bin_image,
    _eccentricity,
    _Leaves,
    _moments,
    _quantiles,
    compute_features,
    edge_feature_names,
    features_from_json,
    features_to_json,
    node_feature_names,
)
from cmc.pipeline import PipelineConfig, build_graph
from cmc.synth import generate_synthetic

from util import leaf_image, pixels_of, quad_crag, random_sparse_crag

NODE_NAMES = node_feature_names()
EDGE_NAMES = edge_feature_names()


def idx(name):
    return NODE_NAMES.index(name)


def flat_images(h=16, w=16, value=0.0):
    return np.full((h, w), value), np.full((h, w), value)


def region_features(pixels, raw, boundary):
    """compute_features' vector of the one candidate of a one-leaf Crag
    whose leaf is `pixels`, over images of raw's shape."""
    height, width = np.shape(raw)
    crag = build_crag([Candidate(0, 0)], [], leaf_image({0: pixels}, width, height))
    return compute_features(crag, raw, boundary)[0][0]


ANGLES = np.s_[3:19]


def angle_histogram(pixels):
    """The angle histogram of the one candidate of a one-leaf Crag."""
    return region_features(pixels, *flat_images())[ANGLES]


def crag_walk(crag, cid):
    """(row, col) positions of one cycle of the Moore walk over a
    candidate, from the codes compute_features reads: its leaves' rim
    rows through its leaf lookup."""
    blank = np.zeros(crag.leaf_labels().shape)
    facts = _Leaves(crag, blank, blank)
    lut = facts.lookup(facts.renumber(crag.leaves_under(cid)))
    positions, _ = facts.walk(*facts.rim_of(lut))
    return [divmod(p, crag.width) for p in positions]


def walk_positions(pixels):
    """crag_walk over the one candidate of a one-leaf Crag."""
    height, width = (max(p[k] for p in pixels) + 1 for k in (0, 1))
    crag = build_crag([Candidate(0, 0)], [], leaf_image({0: pixels}, width, height))
    return crag_walk(crag, 0)


def count_labels(monkeypatch):
    """Count the ndimage.label calls from here on: a one-item list."""
    calls = [0]
    label = ndimage.label

    def counted(*args, **kwargs):
        calls[0] += 1
        return label(*args, **kwargs)

    monkeypatch.setattr(ndimage, "label", counted)
    return calls


# ---------------------------------------------------------------------------
# per-pixel reference: the frozenset implementation the label-image kernel
# replaced, kept as the oracle it must reproduce

_MOORE = ((-1, 0), (-1, 1), (0, 1), (1, 1), (1, 0), (1, -1), (0, -1), (-1, -1))
_NEIGHBORS4 = ((-1, 0), (1, 0), (0, -1), (0, 1))


def ref_moore_trace(pixels):
    """Moore walk over a pixel set; one period of the (pixel, backtrack) walk."""
    start = min(pixels)
    seen = {}
    seq = []
    cur, back = start, (start[0], start[1] - 1)
    while (cur, back) not in seen:
        seen[(cur, back)] = len(seq)
        seq.append(cur)
        idx = _MOORE.index((back[0] - cur[0], back[1] - cur[1]))
        nxt = None
        for k in range(1, 9):
            off = _MOORE[(idx + k) % 8]
            q = (cur[0] + off[0], cur[1] + off[1])
            if q in pixels:
                prev = _MOORE[(idx + k - 1) % 8]
                nxt, nback = q, (cur[0] + prev[0], cur[1] + prev[1])
                break
        if nxt is None:
            return seq
        cur, back = nxt, nback
    return seq[seen[(cur, back)]:]


def ref_angle_histogram(pixels):
    hist = np.zeros(16)
    if len(pixels) < 2:
        return hist
    # one 8-connected component, by flood fill
    todo, reached = [min(pixels)], {min(pixels)}
    while todo:
        r, c = todo.pop()
        for dr, dc in _MOORE:
            q = (r + dr, c + dc)
            if q in pixels and q not in reached:
                reached.add(q)
                todo.append(q)
    if len(reached) != len(pixels):
        return hist
    contour = ref_moore_trace(pixels)
    if len(contour) < 2:
        return hist
    closed = contour + [contour[0]]
    for (ra, ca), (rb, cb) in zip(closed, closed[1:]):
        angle = math.atan2(rb - ra, cb - ca) % (2.0 * math.pi)
        hist[int(angle / (2.0 * math.pi / 16)) % 16] += 1.0
    return hist


def ref_contour_pixels(pixels):
    """Pixels with a 4-neighbor outside the set, in set iteration order."""
    return [
        (r, c)
        for (r, c) in pixels
        if any((r + dr, c + dc) not in pixels for dr, dc in _NEIGHBORS4)
    ]


def exact_eccentricity(pixels):
    """sqrt(1 - lmin / lmax) of the pixels' coordinate covariance, from
    exact rational entries and the textbook eigenvalues at 100 digits;
    0 when the eigenvalues are equal."""
    n = len(pixels)
    mean_r = Fraction(sum(r for r, _ in pixels), n)
    mean_c = Fraction(sum(c for _, c in pixels), n)
    var_r = sum((r - mean_r) ** 2 for r, _ in pixels) / n
    var_c = sum((c - mean_c) ** 2 for _, c in pixels) / n
    cov = sum((r - mean_r) * (c - mean_c) for r, c in pixels) / n
    if var_r == var_c and cov == 0:
        return 0.0
    with localcontext() as ctx:
        ctx.prec = 100
        a, b, c = (Decimal(x.numerator) / x.denominator for x in (var_r, var_c, cov))
        root = ((a - b) ** 2 + 4 * c * c).sqrt()
        lo, hi = (a + b - root) / 2, (a + b + root) / 2
        return float((1 - lo / hi).sqrt())


def ref_stats_block(values):
    """Moments, np.histogram's 20 bins over [0, 1] and the quantiles."""
    hist = np.histogram(values, bins=20, range=(0.0, 1.0))[0]
    quant = np.quantile(values, (0.05, 0.1, 0.25, 0.5, 0.75, 0.9, 0.95))
    return np.concatenate([_moments(values), hist, quant])


def ref_node_vector(pixels, raw, boundary):
    pixels = frozenset(pixels)
    size = float(len(pixels))
    perimeter = sum(
        (r + dr, c + dc) not in pixels for (r, c) in pixels for dr, dc in _NEIGHBORS4
    )
    circularity = 4.0 * math.pi * size / (perimeter * perimeter)
    ordered = sorted(pixels)
    eccentricity = exact_eccentricity(ordered)
    contour = ref_contour_pixels(pixels)
    blocks = [
        ref_stats_block(np.array([image[p] for p in coords]))
        for image in (raw, boundary)
        for coords in (ordered, contour)
    ]
    return np.concatenate(
        [[size, circularity, eccentricity], ref_angle_histogram(pixels)] + blocks
    )


def ref_edge_vector(pixels_i, pixels_j, boundary, u, v):
    """Interface pairs sorted by (pixel of the smaller region, pixel of
    the larger), ties going to i; values max(boundary[p], boundary[q])."""
    small, large = (
        (pixels_i, pixels_j) if len(pixels_i) <= len(pixels_j) else (pixels_j, pixels_i)
    )
    pairs = sorted(
        ((r, c), (r + dr, c + dc))
        for (r, c) in small
        for dr, dc in _NEIGHBORS4
        if (r + dr, c + dc) in large
    )
    vals = np.array([max(float(boundary[p]), float(boundary[q])) for p, q in pairs])
    _, mean, var, skew, _ = _moments(vals)
    combo = np.stack([np.abs(u - v), np.minimum(u, v), np.maximum(u, v), u + v], axis=1)
    return np.concatenate([[float(len(vals)), mean, var, skew], combo.ravel()])


# node entries whose order of summation changed (contour pixels used to be
# summed in hash-set order, now row-major), and the edge entries built from them
CONTOUR_MOMENTS = [
    NODE_NAMES.index(f"{image}_contour_{stat}")
    for image in ("raw", "boundary")
    for stat in ("sum", "mean", "var", "skew", "kurt")
]
CONTOUR_COMBOS = [4 + 4 * k + d for k in CONTOUR_MOMENTS for d in range(4)]
# the eccentricity, against an exact value, and the edge entries built from it
ECCENTRICITY = NODE_NAMES.index("eccentricity")
ECCENTRICITY_COMBOS = [4 + 4 * ECCENTRICITY + d for d in range(4)]


def exact_moments(values):
    """_moments in exact rational arithmetic; one rounding per output
    (skew: of its square, then one square root)."""
    xs = [Fraction(float(v)) for v in values]
    n = len(xs)
    total = sum(xs)
    mean = total / n
    d = [x - mean for x in xs]
    m2 = sum(x * x for x in d) / n
    if m2 == 0:
        return float(total), float(mean), 0.0, 0.0, 0.0
    m3 = sum(x**3 for x in d) / n
    m4 = sum(x**4 for x in d) / n
    skew = math.copysign(math.sqrt(m3 * m3 / m2**3), m3)
    return float(total), float(mean), float(m2), skew, float(m4 / (m2 * m2) - 3)


# 16-bit PGM intensities k/65535 in three shapes: arbitrary; mirrored
# about 1/2 (skew exactly 0) with up to one extra value (skew near 0);
# and nearly equal, a few steps apart, where a mean one rounding off
# would shift skew and kurt by far more than rounding
_LEVELS = st.integers(0, 65535)
_ARBITRARY = st.lists(_LEVELS, min_size=1, max_size=500)
_NEAR_SYMMETRIC = st.tuples(
    st.lists(_LEVELS, min_size=1, max_size=249), st.lists(_LEVELS, max_size=1)
).map(lambda t: t[0] + [65535 - k for k in t[0]] + t[1])
_NEARLY_EQUAL = st.tuples(
    _LEVELS, st.lists(st.integers(0, 3), min_size=1, max_size=500)
).map(lambda t: [min(t[0] + k, 65535) for k in t[1]])


@settings(
    derandomize=True,
    database=None,
    max_examples=300,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(st.one_of(_ARBITRARY, _NEAR_SYMMETRIC, _NEARLY_EQUAL))
@example([32768] * 499 + [32769])
@example([65534] * 200 + [65535] * 3)
def test_moments_match_exact_reference(levels):
    values = np.array(levels) / 65535.0
    got, want = _moments(values), exact_moments(values)
    for g, w in zip(got, want):
        assert abs(g - w) <= 1e-12 * (1.0 + abs(w))


def test_moments_of_equal_values_are_zero():
    """The mean of equal values can be an ulp off them; var, skew and
    kurt must still be exactly 0."""
    for n in (2, 3, 7, 100):
        for value in (0.1, 0.3, 1.0 / 3.0, 0.7, 32768 / 65535):
            total, mean, var, skew, kurt = _moments(np.full(n, value))
            assert (var, skew, kurt) == (0.0, 0.0, 0.0)
            assert mean == pytest.approx(value, rel=1e-15)


# quantiles of 16-bit levels k/65535: one or two values; any length;
# heavy ties from a few distinct levels; lengths 21 and 101, where
# (n - 1) * q is a whole number for some q (weight t = 0); all equal
_FEW_LEVELS = st.lists(st.sampled_from([0, 1, 32767, 32768, 65535]), min_size=1)
_INTEGRAL_INDEX = st.sampled_from([21, 101]).flatmap(
    lambda n: st.lists(_LEVELS, min_size=n, max_size=n)
)


@settings(
    derandomize=True,
    database=None,
    max_examples=300,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(
    st.one_of(
        st.lists(_LEVELS, min_size=1, max_size=2),
        st.lists(_LEVELS, min_size=1, max_size=300),
        _FEW_LEVELS,
        _INTEGRAL_INDEX,
        st.tuples(_LEVELS, st.integers(1, 300)).map(lambda t: [t[0]] * t[1]),
    )
)
@example([0])
@example([65535, 0])
@example([12345] * 21)
@example(list(range(101)))
def test_quantiles_bit_equal_to_np_quantile(levels):
    values = np.array(levels) / 65535.0
    assert np.array_equal(_quantiles(values), np.quantile(values, _QUANTILES))


def test_bin_image_matches_np_histogram():
    """Bit-exact against np.histogram(v, 20, (0, 1)) on the edges k/20,
    their neighbors on both sides, 0, 1 and random values."""
    edges = np.linspace(0.0, 1.0, 21)
    # the estimate int(20 v) is never below the bin, so only the edges
    # themselves can make it low, and they do not
    assert all(int(e * 20.0) >= k for k, e in enumerate(edges))
    values = [0.0, 1.0, *edges, *np.nextafter(edges, -1.0), *np.nextafter(edges, 2.0)]
    values = np.clip(values, 0.0, 1.0)
    rng = np.random.default_rng(61)
    arrays = [values, rng.random(1000), rng.integers(0, 65536, 1000) / 65535.0]
    for array in arrays:
        bins = _bin_image(array, np.ones(array.shape, dtype=bool))
        assert bins.dtype == np.uint8
        for v, b in zip(array, bins):
            want = np.histogram([v], bins=20, range=(0.0, 1.0))[0]
            assert want[b] == 1, (v, b)
        got = np.bincount(bins, minlength=20)
        assert np.array_equal(got, np.histogram(array, bins=20, range=(0.0, 1.0))[0])
    # pixels outside `where` are not binned, whatever they hold
    image = np.array([[0.5, np.nan], [-3.0, 1.0]])
    where = np.array([[True, False], [False, True]])
    assert _bin_image(image, where).tolist() == [[10, 0], [0, 19]]


def test_schema_lengths_and_uniqueness():
    assert len(NODE_NAMES) == 147
    assert len(EDGE_NAMES) == 592
    assert len(set(NODE_NAMES)) == 147
    assert len(set(EDGE_NAMES)) == 592
    assert NODE_NAMES[:3] == ["size", "circularity", "eccentricity"]
    assert NODE_NAMES[3] == "angle_hist_00"
    assert EDGE_NAMES[:4] == [
        "contact_area",
        "interface_mean",
        "interface_var",
        "interface_skew",
    ]
    # node block repeated through the four pairwise combinations
    assert EDGE_NAMES[4:8] == ["absdiff_size", "min_size", "max_size", "sum_size"]
    assert len(EDGE_NAMES) == 4 + 4 * len(NODE_NAMES)


def test_vector_lengths_match_schema():
    raw, boundary = flat_images()
    f = region_features({(3, 3), (3, 4)}, raw, boundary)
    assert f.shape == (147,)
    crag = quad_crag()
    nf, ef = compute_features(crag, np.zeros((4, 4)), np.zeros((4, 4)))
    assert all(v.shape == (147,) for v in nf.values())
    assert all(v.shape == (592,) for v in ef.values())
    assert set(nf) == set(crag.ids())
    assert set(ef) == set(crag.adjacency)


def test_single_pixel_candidate():
    """One pixel: 4-sided cell, degenerate shape stats, point distributions."""
    raw = np.full((8, 8), 0.25)
    boundary = np.full((8, 8), 0.75)
    f = region_features({(2, 5)}, raw, boundary)
    assert f[idx("size")] == 1.0
    assert f[idx("circularity")] == math.pi / 4  # 4*pi/16, exact
    assert f[idx("eccentricity")] == 0.0
    assert all(f[idx(f"angle_hist_{b:02d}")] == 0.0 for b in range(16))
    assert f[idx("raw_all_sum")] == 0.25
    assert f[idx("raw_all_mean")] == 0.25
    assert f[idx("raw_all_var")] == 0.0
    assert f[idx("raw_all_skew")] == 0.0
    assert f[idx("raw_all_kurt")] == 0.0
    # 0.25 lands in bin 5 of 20 over [0, 1)
    hist = [f[idx(f"raw_all_hist_{b:02d}")] for b in range(20)]
    assert hist[5] == 1.0 and sum(hist) == 1.0
    for q in (5, 10, 25, 50, 75, 90, 95):
        assert f[idx(f"raw_all_q{q:02d}")] == 0.25
        assert f[idx(f"boundary_all_q{q:02d}")] == 0.75


def test_square_circularity_exact():
    raw, boundary = flat_images()
    square = {(r + 1, c + 1) for r in range(10) for c in range(10)}
    f = region_features(square, raw, boundary)
    # 4*pi*100 / 40^2 collapses back to pi/4 exactly in doubles
    assert f[idx("circularity")] == math.pi / 4
    assert f[idx("eccentricity")] == 0.0


def test_line_eccentricity_one():
    raw, boundary = flat_images()
    line = {(2, c) for c in range(1, 6)}
    f = region_features(line, raw, boundary)
    assert f[idx("eccentricity")] == 1.0


# a mask of up to 9 x 9 pixels (one at least), and where to place it
_MASKS = st.tuples(st.integers(1, 9), st.integers(1, 9)).flatmap(
    lambda hw: st.lists(
        st.booleans(), min_size=hw[0] * hw[1], max_size=hw[0] * hw[1]
    ).map(lambda bits: np.array(bits).reshape(hw))
).filter(np.any)
_OFFSETS = st.tuples(st.integers(0, 2**14), st.integers(0, 2**14))


@settings(
    derandomize=True,
    database=None,
    max_examples=300,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.filter_too_much],
)
@given(_MASKS, _OFFSETS, st.booleans())
@example(np.ones((1, 9), dtype=bool), (2**14, 2**14), True)
@example(np.ones((9, 9), dtype=bool), (2**14, 2**14), False)
@example(np.eye(9, dtype=bool), (2**14, 0), True)
@example(np.ones((1, 1), dtype=bool), (2**14, 2**14), False)
def test_eccentricity_within_one_ulp_of_exact(mask, offset, along_rows):
    """compute_features' eccentricity lies within 1 ulp of the exact
    value.  The mask is placed in a one-leaf Crag, shifted by one of the
    offsets along rows or columns; a shift along both goes straight to
    _eccentricity, from the integer sums of the shifted pixels."""
    rows, cols = np.nonzero(mask)
    want = exact_eccentricity(list(zip(rows.tolist(), cols.tolist())))
    shift = (offset[0], 0) if along_rows else (0, offset[1])
    shape = (mask.shape[0] + shift[0], mask.shape[1] + shift[1])
    pixels = set(zip((rows + shift[0]).tolist(), (cols + shift[1]).tolist()))
    got = region_features(pixels, np.zeros(shape), np.zeros(shape))
    assert abs(got[idx("eccentricity")] - want) <= math.ulp(want)
    r, c = (rows + offset[0]).tolist(), (cols + offset[1]).tolist()
    sums = sum(r), sum(c), sum(x * x for x in r), sum(x * x for x in c)
    sums += (sum(x * y for x, y in zip(r, c)),)
    # the integer sums fix a, b and c exactly, whatever the offset
    assert _eccentricity(len(r), *sums) == got[idx("eccentricity")]


def test_contour_trace_domino():
    # one full cycle of the boundary walk: two pixels, east then west
    tr = walk_positions({(0, 0), (0, 1)})
    assert sorted(tr) == [(0, 0), (0, 1)]
    assert len(tr) == 2


def test_contour_trace_square_ring():
    sq = frozenset((r, c) for r in range(3) for c in range(3))
    tr = walk_positions(sq)
    assert len(tr) == 8
    assert set(tr) == sq - {(1, 1)}


def test_angle_histogram_oracles():
    def bins(pixels):
        h = angle_histogram(pixels)
        assert np.array_equal(h, ref_angle_histogram(frozenset(pixels)))
        return {b: h[b] for b in np.nonzero(h)[0].tolist()}

    assert bins({(0, 0), (0, 1)}) == {0: 1.0, 8: 1.0}
    assert bins({(0, 0), (1, 0)}) == {4: 1.0, 12: 1.0}
    assert bins({(0, 0), (1, 1)}) == {2: 1.0, 10: 1.0}
    # thin line is walked out and back
    assert bins({(0, c) for c in range(5)}) == {0: 4.0, 8: 4.0}
    sq = {(r, c) for r in range(3) for c in range(3)}
    assert bins(sq) == {0: 2.0, 4: 2.0, 8: 2.0, 12: 2.0}


def test_angle_histogram_degenerate_regions():
    assert not angle_histogram({(4, 4)}).any()
    # two 8-disconnected pixels: no single contour
    assert not angle_histogram({(0, 0), (0, 2)}).any()
    assert not angle_histogram({(0, 0), (2, 2), (4, 0)}).any()


def test_angle_histogram_translation_exact():
    blob = frozenset({(1, 1), (1, 2), (2, 1), (2, 2), (3, 2), (2, 3)})
    moved = frozenset((r + 7, c + 5) for (r, c) in blob)
    hist = angle_histogram(blob)
    assert hist.any()
    assert np.array_equal(hist, angle_histogram(moved))


def test_intensity_histograms_sum_to_pixel_counts():
    rng = np.random.default_rng(41)
    raw = rng.random((12, 12))
    boundary = rng.random((12, 12))
    blob = {(2, 2), (2, 3), (2, 4), (3, 3), (4, 3), (3, 4)}
    f = region_features(blob, raw, boundary)
    n_contour = len(ref_contour_pixels(frozenset(blob)))
    for prefix, total in (
        ("raw_all", len(blob)),
        ("boundary_all", len(blob)),
        ("raw_contour", n_contour),
        ("boundary_contour", n_contour),
    ):
        s = sum(f[idx(f"{prefix}_hist_{b:02d}")] for b in range(20))
        assert s == float(total)


def test_quantiles_monotone():
    rng = np.random.default_rng(5)
    raw = rng.random((15, 15))
    boundary = rng.random((15, 15))
    blob = {(r, c) for r in range(4, 9) for c in range(6, 10)}
    f = region_features(blob, raw, boundary)
    for prefix in ("raw_all", "raw_contour", "boundary_all", "boundary_contour"):
        qs = [f[idx(f"{prefix}_q{q:02d}")] for q in (5, 10, 25, 50, 75, 90, 95)]
        assert all(a <= b for a, b in zip(qs, qs[1:]))


def test_node_features_translation_invariant():
    """Geometry exactly; intensity stats to rounding (summation order shifts)."""
    rng = np.random.default_rng(7)
    raw = rng.random((20, 20))
    boundary = rng.random((20, 20))
    blob = {(2, 2), (2, 3), (3, 2), (3, 3), (4, 3), (4, 4), (3, 4)}
    dr, dc = 9, 8
    raw2 = np.zeros((20, 20))
    boundary2 = np.zeros((20, 20))
    for (r, c) in blob:
        raw2[r + dr, c + dc] = raw[r, c]
        boundary2[r + dr, c + dc] = boundary[r, c]
    f1 = region_features(blob, raw, boundary)
    f2 = region_features({(r + dr, c + dc) for (r, c) in blob}, raw2, boundary2)
    geometry = [
        i
        for i, n in enumerate(NODE_NAMES)
        if not (n.startswith("raw_") or n.startswith("boundary_"))
    ]
    assert all(f1[i] == f2[i] for i in geometry)
    assert np.allclose(f1, f2, rtol=1e-9, atol=1e-12)


def test_node_features_deterministic():
    rng = np.random.default_rng(11)
    raw = rng.random((10, 10))
    boundary = rng.random((10, 10))
    blob = {(1, 1), (1, 2), (2, 2), (3, 2), (3, 3)}
    assert np.array_equal(
        region_features(blob, raw, boundary), region_features(blob, raw, boundary)
    )


def test_interface_stats_oracle():
    """Two stacked strips, three interface pairs with intensities .2/.4/.6."""
    leaves = [Candidate(1, 0), Candidate(2, 0)]
    pixels = {1: {(0, 0), (0, 1), (0, 2)}, 2: {(1, 0), (1, 1), (1, 2)}}
    crag = build_crag(leaves, [(1, 2)], leaf_image(pixels, 3, 2))
    boundary = np.array([[0.2, 0.4, 0.6], [0.0, 0.0, 0.0]])
    raw = np.zeros((2, 3))
    nf, ef = compute_features(crag, raw, boundary)
    f = ef[(1, 2)]
    assert f[EDGE_NAMES.index("contact_area")] == 3.0
    assert f[EDGE_NAMES.index("interface_mean")] == pytest.approx(0.4)
    assert f[EDGE_NAMES.index("interface_var")] == pytest.approx(0.08 / 3)
    assert f[EDGE_NAMES.index("interface_skew")] == pytest.approx(0.0, abs=1e-12)


def test_edge_combination_block():
    crag = quad_crag()
    rng = np.random.default_rng(3)
    raw = rng.random((4, 4))
    boundary = rng.random((4, 4))
    nf, ef = compute_features(crag, raw, boundary)
    for (i, j), f in ef.items():
        u, v = nf[i], nf[j]
        assert np.array_equal(f[4::4], np.abs(u - v))
        assert np.array_equal(f[5::4], np.minimum(u, v))
        assert np.array_equal(f[6::4], np.maximum(u, v))
        assert np.array_equal(f[7::4], u + v)
    # sizes 4 and 3 across the (1, 2) edge
    f = ef[(1, 2)]
    assert f[EDGE_NAMES.index("absdiff_size")] == 1.0
    assert f[EDGE_NAMES.index("min_size")] == 3.0
    assert f[EDGE_NAMES.index("max_size")] == 4.0
    assert f[EDGE_NAMES.index("sum_size")] == 7.0


def test_out_of_range_image_rejected():
    raw = np.full((4, 4), 1.5)
    with pytest.raises(DegenerateInput):
        region_features({(1, 1)}, raw, np.zeros((4, 4)))
    with pytest.raises(DegenerateInput):
        region_features({(1, 1)}, np.zeros((4, 4)), np.full((4, 4), -0.1))


def test_parent_size_is_sum_of_children():
    crag = quad_crag()
    rng = np.random.default_rng(13)
    nf, _ = compute_features(crag, rng.random((4, 4)), rng.random((4, 4)))
    assert nf[5][0] == nf[1][0] + nf[2][0]
    assert nf[6][0] == nf[3][0] + nf[4][0]
    assert nf[7][0] == nf[5][0] + nf[6][0]


def test_features_json_roundtrip():
    crag = quad_crag()
    rng = np.random.default_rng(17)
    nf, ef = compute_features(crag, rng.random((4, 4)), rng.random((4, 4)))
    obj = json.loads(json.dumps(features_to_json(nf, ef)))
    nf2, ef2 = features_from_json(obj)
    assert set(nf2) == set(nf) and set(ef2) == set(ef)
    assert all(np.array_equal(nf[k], nf2[k]) for k in nf)
    assert all(np.array_equal(ef[k], ef2[k]) for k in ef)
    assert obj["node_schema"] == NODE_NAMES
    assert obj["edge_schema"] == EDGE_NAMES


MALFORMED_FEATURES = {
    "no nodes": lambda obj: obj.pop("nodes"),
    "edges not an object": lambda obj: obj.update(edges=[]),
    "short node vector": lambda obj: obj["nodes"]["1"].pop(),
    "long edge vector": lambda obj: obj["edges"]["1-2"].append(0.0),
    "string value": lambda obj: obj["nodes"]["1"].__setitem__(0, "4"),
    "boolean value": lambda obj: obj["edges"]["1-2"].__setitem__(5, True),
    "NaN value": lambda obj: obj["nodes"]["7"].__setitem__(9, float("nan")),
    "integer beyond float range": lambda obj: obj["edges"]["1-2"].__setitem__(3, 10**400),
    "bad node key": lambda obj: obj["nodes"].update({"1.0": obj["nodes"]["1"]}),
    "bad edge key": lambda obj: obj["edges"].update({"1_2": obj["edges"]["1-2"]}),
    "no node schema": lambda obj: obj.pop("node_schema"),
    "node schema of another release": lambda obj: obj.update(node_schema=["bogus"]),
    "edge schema not a list": lambda obj: obj.update(edge_schema=5),
    "edge schema reordered": lambda obj: obj["edge_schema"].reverse(),
    "node schema one name short": lambda obj: obj["node_schema"].pop(),
}


@pytest.mark.parametrize("case", sorted(MALFORMED_FEATURES))
def test_malformed_features_json_rejected(case):
    crag = quad_crag()
    nf, ef = compute_features(crag, np.zeros((4, 4)), np.zeros((4, 4)))
    obj = json.loads(json.dumps(features_to_json(nf, ef)))
    MALFORMED_FEATURES[case](obj)
    with pytest.raises(CmcError, match="features.json"):
        features_from_json(json.loads(json.dumps(obj)))


def test_features_schema_error_names_first_difference():
    """A schema from a release with a reordered or longer feature list
    fails naming the first entry that differs."""
    obj = features_to_json({}, {})
    names = obj["edge_schema"]
    names[3], names[4] = names[4], names[3]
    with pytest.raises(
        CmcError, match="edge_schema entry 3 is 'absdiff_size', expected 'interface_skew'"
    ):
        features_from_json(obj)
    obj = features_to_json({}, {})
    obj["node_schema"].append("extra")
    with pytest.raises(CmcError, match="node_schema entry 147 is 'extra', expected missing"):
        features_from_json(obj)


def test_random_blob_properties():
    """Grown random blobs: sane shape stats and exact histogram accounting."""
    rng = np.random.default_rng(101)
    for _ in range(25):
        h, w = 10, 10
        blob = {(5, 5)}
        for _ in range(int(rng.integers(1, 20))):
            r, c = list(blob)[int(rng.integers(0, len(blob)))]
            dr, dc = ((-1, 0), (1, 0), (0, -1), (0, 1))[int(rng.integers(0, 4))]
            q = (r + dr, c + dc)
            if 0 <= q[0] < h and 0 <= q[1] < w:
                blob.add(q)
        raw = rng.random((h, w))
        boundary = rng.random((h, w))
        f = region_features(blob, raw, boundary)
        assert f[idx("size")] == float(len(blob))
        assert f[idx("circularity")] > 0.0
        assert 0.0 <= f[idx("eccentricity")] <= 1.0
        hist_sum = sum(f[idx(f"raw_all_hist_{b:02d}")] for b in range(20))
        assert hist_sum == float(len(blob))
        assert f[idx("raw_all_sum")] == pytest.approx(
            sum(raw[r, c] for (r, c) in blob)
        )


def sparse_instances(seed, count):
    """Random sparse CRAGs with random images; uncovered pixels hold NaN."""
    rng = np.random.default_rng(seed)
    for _ in range(count):
        crag = random_sparse_crag(rng)
        raw = rng.random((crag.height, crag.width))
        boundary = rng.random((crag.height, crag.width))
        uncovered = crag.leaf_labels() < 0
        raw[uncovered] = np.nan
        boundary[uncovered] = np.nan
        yield crag, raw, boundary


def test_trace_contour_matches_reference():
    for crag, _, _ in sparse_instances(31, 40):
        for cid in crag.ids():
            assert crag_walk(crag, cid) == ref_moore_trace(pixels_of(crag, cid))


def random_masks(seed, count):
    """Boolean box masks, cycling through seven shapes: straight
    one-pixel lines, 8-connected paths (diagonal-only chains among them),
    square rings, blobs with holes and notches, unions of rectangles (may
    be disconnected), sparse noise and one 8-connected piece of noise.
    Each gets a margin of 0-2 False pixels per side; with margin 0 the
    shape touches the box edge.  The walks over 2500 of them look up all
    387 entries of the walk table that walks over 60,000 random masks of
    up to 7 x 7 pixels reach."""
    rng = np.random.default_rng(seed)
    for k in range(count):
        h, w = (int(x) for x in rng.integers(1, 13, size=2))
        core = np.zeros((h, w), dtype=bool)
        kind = k % 7
        if kind == 0:
            if rng.random() < 0.5:
                core[rng.integers(h), rng.integers(w) :] = True
            else:
                core[rng.integers(h) :, rng.integers(w)] = True
        elif kind == 1:
            diagonal_only = rng.random() < 0.5
            moves = [(dr, dc) for dr in (-1, 0, 1) for dc in (-1, 0, 1) if dr or dc]
            if diagonal_only:
                moves = [(dr, dc) for dr, dc in moves if dr and dc]
            r, c = int(rng.integers(h)), int(rng.integers(w))
            for _ in range(int(rng.integers(1, 20))):
                core[r, c] = True
                dr, dc = moves[rng.integers(len(moves))]
                r, c = min(max(r + dr, 0), h - 1), min(max(c + dc, 0), w - 1)
        elif kind == 2:
            t = int(rng.integers(1, 3))
            core[:] = True
            core[t : h - t, t : w - t] = False
            if rng.random() < 0.5:  # cut corners: diagonal joins
                core[[0, 0, -1, -1], [0, -1, 0, -1]] = False
        elif kind == 3:  # holes inside, notches on the border
            core = rng.random((h, w)) >= 0.15
        elif kind == 4:
            for _ in range(int(rng.integers(1, 4))):
                r0, c0 = int(rng.integers(h)), int(rng.integers(w))
                core[r0 : r0 + rng.integers(1, 5), c0 : c0 + rng.integers(1, 5)] = True
        elif kind == 5:
            core = rng.random((h, w)) < 0.45
        else:  # the first 8-connected piece of noise: lacy, one component
            labels, _ = ndimage.label(rng.random((h, w)) < 0.5, np.ones((3, 3)))
            core = labels == 1
        if not core.any():
            core[rng.integers(h), rng.integers(w)] = True
        yield np.pad(core, rng.integers(0, 3, size=(2, 2)))


# leaf label images that random splits rarely make: a union of two leaves
# joined only diagonally; a leaf in two pieces joined through another
# leaf; and a leaf in two pieces that another leaf meets only diagonally
SPLIT_CASES = [
    [[0, 0, -1], [-1, -1, 1], [-1, -1, 1]],
    [[0, 1, 0]],
    [[0, -1, 0], [-1, 1, -1]],
]


def labels_crag(labels):
    """A Crag of the leaves of a leaf label image, plus one root over
    them all when there are two or more."""
    labels = np.asarray(labels, dtype=np.int64)
    leaves = np.unique(labels[labels != UNCOVERED]).tolist()
    candidates = [Candidate(k, 0) for k in leaves]
    if len(leaves) > 1:
        root = leaves[-1] + 1
        candidates.append(Candidate(root, 1, children=tuple(leaves)))
    return build_crag(candidates, [], labels)


def random_crags(seed, count):
    """The SPLIT_CASES, then labels_crag of random_masks split into 2-4
    leaves (2 or more wherever the mask has 2 pixels): row bands,
    column bands or random draws per pixel, so leaves may fall apart
    and touch each other only diagonally."""
    for labels in SPLIT_CASES:
        yield labels_crag(labels)
    rng = np.random.default_rng(seed)
    for mask in random_masks(seed, count):
        rows, cols = np.nonzero(mask)
        parts = int(rng.integers(2, 5))
        kind = int(rng.integers(3))
        if kind < 2:
            key = (rows, cols)[kind]
            key = (key - key.min()) * parts // (key.max() - key.min() + 1)
        else:
            key = rng.integers(parts, size=len(rows))
        leaf = np.unique(key, return_inverse=True)[1]
        if leaf.max() == 0 and len(rows) > 1:
            leaf = np.arange(len(rows)) % 2
        labels = np.full(mask.shape, UNCOVERED, dtype=np.int64)
        labels[rows, cols] = leaf
        yield labels_crag(labels)


def test_trace_contour_on_random_masks():
    for crag in random_crags(71, 2500):
        for cid in crag.ids():
            assert crag_walk(crag, cid) == ref_moore_trace(pixels_of(crag, cid))


def test_angle_histogram_on_random_masks(monkeypatch):
    """Bit-equal to the flood-fill oracle, with the one-component verdict
    taken from the leaves for some unions and by labelling for others."""
    calls = count_labels(monkeypatch)
    walked = derived = labelled = 0
    for crag in random_crags(73, 2500):
        blank = np.zeros((crag.height, crag.width))
        before = calls[0]
        nf, _ = compute_features(crag, blank, blank)
        for cid in crag.ids():
            got = nf[cid][ANGLES]
            assert np.array_equal(got, ref_angle_histogram(pixels_of(crag, cid)))
            walked += bool(got.any())
        unions = len(crag.ids()) - len(crag.leaves())
        extra = calls[0] - before - len(crag.leaves())  # one label per leaf
        assert 0 <= extra <= unions
        labelled += extra
        derived += unions - extra
    # most candidates are one 8-connected component and get walked
    assert walked > 3000
    assert derived > 300 and labelled > 300


def test_contour_slices_on_random_masks():
    """Contour statistics bit-equal to those of the pixels that 4-erosion
    removes, taken in row-major order."""
    cross = ndimage.generate_binary_structure(2, 1)
    contour = np.s_[idx("raw_contour_sum") : idx("boundary_all_sum")]
    rng = np.random.default_rng(83)
    for crag in random_crags(79, 1200):
        raw = rng.random((crag.height, crag.width))
        nf, _ = compute_features(crag, raw, np.zeros(raw.shape))
        for cid in crag.ids():
            mask = np.isin(crag.leaf_labels(), crag.leaves_under(cid))
            want = mask & ~ndimage.binary_erosion(mask, cross)
            assert np.array_equal(nf[cid][contour], ref_stats_block(raw[want]))


def test_pipeline_crag_labels_each_leaf_once(monkeypatch):
    """On a merge-tree Crag every union's verdict comes from its leaves:
    ndimage.label runs once per leaf and never per union."""
    raw, boundary, _ = generate_synthetic(1, 4, 1.0, 5, image_size=128)[0]
    crag = build_graph(boundary, PipelineConfig())
    assert len(crag.ids()) > len(crag.leaves())
    calls = count_labels(monkeypatch)
    compute_features(crag, raw, boundary)
    assert calls[0] <= len(crag.leaves())


def test_compute_features_matches_per_pixel_reference():
    """Label-image kernel against the frozenset reference: bit-identical
    except the contour moments, whose summation order changed, and the
    eccentricity, which must lie within 1 ulp of its exact value.  Its
    edge combinators then lie within 2**-51 of the reference's: an ulp
    of each operand, at most 2**-53 below 1 (and 0 at 1, which is
    exact), plus half an ulp of a sum below 2 on each side."""
    other = np.ones(len(NODE_NAMES), dtype=bool)
    other[CONTOUR_MOMENTS + [ECCENTRICITY]] = False
    edge_other = np.ones(len(EDGE_NAMES), dtype=bool)
    edge_other[CONTOUR_COMBOS + ECCENTRICITY_COMBOS] = False
    seen = {"uncovered": 0, "disconnected": 0, "edges": 0}
    for crag, raw, boundary in sparse_instances(37, 60):
        seen["uncovered"] += int((crag.leaf_labels() < 0).any())
        nf, ef = compute_features(crag, raw, boundary)
        ref = {
            cid: ref_node_vector(pixels_of(crag, cid), raw, boundary)
            for cid in crag.ids()
        }
        for cid in crag.ids():
            angles = ref[cid][3:19]
            seen["disconnected"] += len(pixels_of(crag, cid)) > 1 and not angles.any()
            assert np.array_equal(nf[cid][other], ref[cid][other])
            assert np.allclose(
                nf[cid][CONTOUR_MOMENTS],
                ref[cid][CONTOUR_MOMENTS],
                rtol=1e-12,
                atol=1e-12,
            )
            want = ref[cid][ECCENTRICITY]
            assert abs(nf[cid][ECCENTRICITY] - want) <= math.ulp(want)
        for i, j in crag.adjacency:
            want = ref_edge_vector(
                pixels_of(crag, i), pixels_of(crag, j), boundary, ref[i], ref[j]
            )
            got = ef[(i, j)]
            seen["edges"] += 1
            assert np.array_equal(got[edge_other], want[edge_other])
            # |u - v| cancels, so bound the error by the operands' size
            scale = np.repeat(np.abs(ref[i]) + np.abs(ref[j]), 4)[
                np.array(CONTOUR_COMBOS) - 4
            ]
            err = np.abs(got[CONTOUR_COMBOS] - want[CONTOUR_COMBOS])
            assert np.all(err <= 1e-12 * (1.0 + scale))
            err = np.abs(got[ECCENTRICITY_COMBOS] - want[ECCENTRICITY_COMBOS])
            assert np.all(err <= 2.0**-51)
    # the instances exercise what the kernel must get right
    assert seen["uncovered"] > 30 and seen["disconnected"] > 10 and seen["edges"] > 200


def test_non_finite_image_rejected():
    crag = quad_crag()
    half = np.full((4, 4), 0.5)
    raw = half.copy()
    raw[1, 2] = np.nan
    with pytest.raises(DegenerateInput):
        compute_features(crag, raw, half)
    with pytest.raises(DegenerateInput):
        region_features({(1, 2)}, raw, half)
    for bad in (np.inf, -np.inf):
        boundary = half.copy()
        boundary[3, 0] = bad
        with pytest.raises(DegenerateInput):
            compute_features(crag, half, boundary)
    # pixels no leaf covers are not looked at
    leaf = leaf_image({1: {(0, 0), (0, 1)}}, 3, 1)
    crag = build_crag([Candidate(1, 0)], [], leaf)
    raw = np.array([[0.5, 0.5, np.nan]])
    nf, _ = compute_features(crag, raw, np.array([[0.5, 0.5, np.inf]]))
    assert np.isfinite(nf[1]).all()


def test_image_shape_must_match_crag():
    crag = quad_crag()
    with pytest.raises(DimensionMismatch):
        compute_features(crag, np.zeros((5, 4)), np.zeros((4, 4)))
    with pytest.raises(DimensionMismatch):
        compute_features(crag, np.zeros((4, 4)), np.zeros((4, 3)))
