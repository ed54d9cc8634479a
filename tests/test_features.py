import hashlib
import itertools
import json
import math
from decimal import Decimal, localcontext
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st
from scipy import ndimage

from cmc import costmodel, features
from cmc.cli import main
from cmc.crag import UNCOVERED, Candidate, build_crag, crag_to_json
from cmc.errors import CmcError, DegenerateInput, DimensionMismatch
from cmc.features import (
    _QUANTILES,
    _SQUARE,
    _bin_image,
    _combined,
    _eccentricity,
    _Leaves,
    _merge_sorted,
    _part_sums,
    _quantiles,
    compute_features,
    edge_feature_names,
    edge_row_names,
    features_from_json,
    features_to_json,
    node_feature_names,
)
from cmc.hierarchy import build_merge_tree, seeded_watershed
from cmc.pgm import write_probability
from cmc.pipeline import PipelineConfig, build_graph, model_to_json, train_from_instances
from cmc.solver import extract_segmentation
from cmc.synth import generate_synthetic

from util import (
    inner,
    leaf_image,
    pixels_of,
    quad_crag,
    quad_gt,
    random_sparse_crag,
    ref_edge_block,
    ref_interface_values,
    ref_moments,
)

NODE_NAMES = node_feature_names()
EDGE_NAMES = edge_feature_names()
ROW_NAMES = edge_row_names()


def idx(name):
    return NODE_NAMES.index(name)


def flat_images(h=16, w=16, value=0.0):
    return np.full((h, w), value), np.full((h, w), value)


def formed_rows(crag, node_feats, edge_feats):
    """The rows the edge forest reads, one per adjacency edge in order."""
    return costmodel._forest_rows(crag, node_feats, edge_feats)[1]


def region_features(pixels, raw, boundary):
    """compute_features' vector of the one candidate of a one-leaf Crag
    whose leaf is `pixels`, over images of raw's shape."""
    height, width = np.shape(raw)
    crag = build_crag([], [], leaf_image({0: pixels}, width, height))
    return compute_features(crag, raw, boundary)[0][0]


ANGLES = np.s_[3:19]


def angle_histogram(pixels):
    """The angle histogram of the one candidate of a one-leaf Crag."""
    return region_features(pixels, *flat_images())[ANGLES]


def crag_walk(crag, cid):
    """(row, col) positions of one cycle of the Moore walk over a
    candidate, as compute_features walks it afresh: from the codes of its
    leaves' rim rows, their neighbors' ranks in the framed rank image
    compared with its range, from the least framed position of those rows."""
    blank = np.zeros(crag.leaf_labels().shape)
    facts = _Leaves(crag, blank, blank)
    lo, hi = crag.leaf_range(cid)
    first = int(facts.rim[facts.rim_start[lo] : facts.rim_start[hi]].min())
    positions, _ = facts.walk(lo, hi, first)
    return [(r - 1, c - 1) for r, c in (divmod(p, facts.width) for p in positions)]


def walk_positions(pixels):
    """crag_walk over the one candidate of a one-leaf Crag."""
    height, width = (max(p[k] for p in pixels) + 1 for k in (0, 1))
    crag = build_crag([], [], leaf_image({0: pixels}, width, height))
    return crag_walk(crag, 0)


def count_calls(monkeypatch, owner, name):
    """Count the calls of owner.name from here on: a one-item list."""
    calls = [0]
    function = getattr(owner, name)

    def counted(*args, **kwargs):
        calls[0] += 1
        return function(*args, **kwargs)

    monkeypatch.setattr(owner, name, counted)
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
    return np.concatenate([ref_moments(values, values.min() == values.max()), hist, quant])


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
    _, mean, var, skew, _ = ref_moments(vals, vals.min() == vals.max())
    combo = np.stack([np.abs(u - v), np.minimum(u, v), np.maximum(u, v), u + v], axis=1)
    return np.concatenate([[float(len(vals)), mean, var, skew], combo.ravel()])


# node entries whose order of summation changed (contour pixels used to be
# summed in hash-set order, now sorted; all pixels are combined from
# per-leaf sums), the edge entries built from them, and the interface
# moments, combined from per-group sums
MOMENTS = [
    NODE_NAMES.index(f"{image}_{part}_{stat}")
    for image in ("raw", "boundary")
    for part in ("all", "contour")
    for stat in ("sum", "mean", "var", "skew", "kurt")
]
MOMENT_COMBOS = [4 + 4 * k + d for k in MOMENTS for d in range(4)]
INTERFACE_MOMENTS = [EDGE_NAMES.index(f"interface_{stat}") for stat in ("mean", "var", "skew")]
# the eccentricity, against an exact value, and the edge entries built from it
ECCENTRICITY = NODE_NAMES.index("eccentricity")
ECCENTRICITY_COMBOS = [4 + 4 * ECCENTRICITY + d for d in range(4)]


def exact_moments(values):
    """ref_moments in exact rational arithmetic; one rounding per output
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
    got = ref_moments(values, values.min() == values.max())
    for g, w in zip(got, exact_moments(values)):
        assert abs(g - w) <= 1e-12 * (1.0 + abs(w))


_ALL_EQUAL = st.tuples(_LEVELS, st.integers(1, 500)).map(lambda t: [t[0]] * t[1])


@settings(
    derandomize=True,
    database=None,
    max_examples=300,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(
    st.one_of(_ARBITRARY, _NEAR_SYMMETRIC, _NEARLY_EQUAL, _ALL_EQUAL),
    st.sets(st.integers(1, 499), max_size=7),
)
@example([32768] * 499 + [32769], {1, 250, 499})
@example([65534] * 200 + [65535] * 3, {100, 201})
# nearly equal: a part's centre taken without its shift moves skew past the bound
@example((57527 + np.random.default_rng(25).integers(0, 4, 200)).tolist(), {25, 100, 175})
def test_combined_moments_match_exact_reference(levels, cuts):
    """The values, cut into 1-8 parts (at the cuts below their length),
    the parts taken in turn by two unions (one if there is one part):
    each union's combined moments agree with exact arithmetic, and var,
    skew and kurt are exactly 0 when its values are all equal."""
    values = np.array(levels) / 65535.0
    starts = np.array([0, *sorted(c for c in cuts if c < len(values))], dtype=np.intp)
    owner = np.arange(len(starts)) % 2
    unions = [np.concatenate(np.split(values, starts[1:])[k::2]) for k in range(owner.max() + 1)]
    got = _combined(_part_sums(values, starts), owner, len(unions))
    for row, union in zip(got, unions):
        assert row[0] == len(union)
        for g, w in zip(row[1:], exact_moments(union)):
            assert abs(g - w) <= 1e-12 * (1.0 + abs(w))
        if union.min() == union.max():
            assert tuple(row[3:]) == (0.0, 0.0, 0.0)


_PARTS = st.lists(st.lists(_LEVELS, min_size=1, max_size=20), min_size=1, max_size=4)
# a union's parts: arbitrary levels; all one level; or values whose
# squared deviations underflow, so var is 0 while its ends differ
_UNION = st.one_of(
    _PARTS.map(lambda parts: [np.array(p) / 65535.0 for p in parts]),
    st.tuples(_LEVELS, _PARTS).map(lambda t: [np.full(len(p), t[0] / 65535.0) for p in t[1]]),
    st.lists(
        st.lists(st.sampled_from([0.0, 5e-324, 1e-310]), min_size=1, max_size=20),
        min_size=1,
        max_size=4,
    ).map(lambda parts: [np.array(p) for p in parts]),
)


@settings(derandomize=True, database=None, max_examples=300, deadline=None)
@given(st.lists(_UNION, min_size=1, max_size=8), st.randoms(use_true_random=False))
@example([[np.array([0.25])]], None)  # one union of one part of one value
@example([[np.array([0.0, 5e-324])], [np.full(3, 0.1), np.full(2, 0.1)]], None)
def test_combined_in_one_call_equals_one_call_per_union(unions, random):
    """_combined over many unions in one call, their parts interleaved,
    each union's in its own order, is bit-equal to one call per union:
    np.bincount and np.minimum.at / np.maximum.at take each union's
    parts in input order, as a call of that union alone does."""
    owner = [u for u, parts in enumerate(unions) for _ in parts]
    if random is not None:
        random.shuffle(owner)
    queues = [list(parts) for parts in unions]
    values = [queues[u].pop(0) for u in owner]
    starts = np.cumsum([0] + [len(v) for v in values[:-1]])
    parts, owner = _part_sums(np.concatenate(values), starts), np.array(owner)
    got = _combined(parts, owner, len(unions))
    alone = [_combined(parts[:, owner == u], np.zeros((owner == u).sum(), np.intp), 1)
             for u in range(len(unions))]
    assert np.array_equal(got.view(np.int64), np.concatenate(alone).view(np.int64))


def exact_level_moments(levels):
    """exact_moments of the values levels / 65535 taken as exact
    rationals, from the integer power sums of the levels."""
    counts = np.bincount(levels)
    k = np.flatnonzero(counts)
    c, k = counts[k].astype(object), k.astype(object)
    n = int(c.sum())
    s1, s2, s3, s4 = (int((c * k**p).sum()) for p in range(1, 5))
    mean = Fraction(s1, n)
    m2 = Fraction(s2, n) - mean**2
    m3 = Fraction(s3, n) - 3 * mean * Fraction(s2, n) + 2 * mean**3
    m4 = Fraction(s4, n) - 4 * mean * Fraction(s3, n) + 6 * mean**2 * Fraction(s2, n) - 3 * mean**4
    total, mean = float(Fraction(s1, 65535)), float(mean / 65535)
    if m2 == 0:
        return total, mean, 0.0, 0.0, 0.0
    skew = math.copysign(math.sqrt(m3 * m3 / m2**3), m3)
    return total, mean, float(m2 / 65535**2), skew, float(m4 / (m2 * m2) - 3)


def test_moments_of_large_unions_match_exact_integers():
    """On a 512 px no-cap image of 16-bit levels k/65535, the all-pixel
    moments of the 12 largest candidates, each over 250,000 pixels and
    70 leaves, and the interface moments of 300 sampled edges agree with
    exact integer arithmetic within 1e-12 * (1 + |v|)."""
    images = generate_synthetic(1, 48, 1.0, 7, image_size=512)[0][:2]
    levels = [np.round(image * 65535).astype(np.int64) for image in images]
    raw, boundary = (level / 65535.0 for level in levels)
    crag = build_graph(boundary, PipelineConfig(max_merges=None))
    nf, ef = compute_features(crag, raw, boundary)
    ranks = crag.leaf_ranks()
    largest = sorted(crag.ids(), key=lambda cid: -nf[cid][0])[:12]
    assert all(nf[cid][0] > 250_000 and np.diff(crag.leaf_range(cid)) > 70 for cid in largest)
    for cid in largest:
        lo, hi = crag.leaf_range(cid)
        inside = (lo <= ranks) & (ranks < hi)
        for name, level in zip(("raw", "boundary"), levels):
            got = nf[cid][idx(f"{name}_all_sum") : idx(f"{name}_all_kurt") + 1]
            for g, w in zip(got, exact_level_moments(level[inside])):
                assert abs(g - w) <= 1e-12 * (1.0 + abs(w))
    interface = ref_interface_values(crag, boundary)
    rng = np.random.default_rng(97)
    for k in rng.choice(len(crag.adjacency), 300, replace=False).tolist():
        got = ef[crag.adjacency[k]]
        values = np.round(interface[k] * 65535).astype(np.int64)
        _, mean, var, skew, _ = exact_level_moments(values)
        assert got[0] == len(values)
        for g, w in zip(got[1:], (mean, var, skew)):
            assert abs(g - w) <= 1e-12 * (1.0 + abs(w))


def test_moments_of_equal_values_are_zero():
    """The mean of equal values can be an ulp off them; var, skew and
    kurt must still be exactly 0, from _combined over parts, and in
    every moment entry of constant images, where the nodes' and the
    edges' test reads their parts' least and greatest values."""
    for n in (2, 3, 7, 100):
        for value in (0.1, 0.3, 1.0 / 3.0, 0.7, 32768 / 65535):
            values = np.full(n, value)
            parts = _part_sums(values, np.array([0, n // 2]))
            _, _, mean, var, skew, kurt = _combined(parts, np.zeros(2, np.intp), 1)[0]
            assert (var, skew, kurt) == (0.0, 0.0, 0.0)
            assert mean == pytest.approx(value, rel=1e-15)
    spread = [NODE_NAMES.index(name) for name in NODE_NAMES
              if name.endswith(("_var", "_skew", "_kurt"))]
    rng = np.random.default_rng(29)
    for value in (0.1, 1.0 / 3.0, 32768 / 65535):
        crag = random_sparse_crag(rng)
        image = np.full((crag.height, crag.width), value)
        nf, ef = compute_features(crag, image, image)
        assert all(not nf[cid][spread].any() for cid in crag.ids())
        assert all(not ef[e][2:].any() for e in crag.adjacency)


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
    assert np.array_equal(_quantiles(np.sort(values)), np.quantile(values, _QUANTILES))


def bits(values):
    """The float64 values as their bit patterns, so -0.0 != 0.0."""
    return np.asarray(values, dtype=np.float64).view(np.uint64).tolist()


# one child's values: 16-bit levels k/65535, levels near the middle for
# duplicates, and the values where signs and ends matter
_CHILD_VALUES = st.lists(
    st.one_of(
        _LEVELS.map(lambda k: k / 65535.0),
        st.integers(32766, 32769).map(lambda k: k / 65535.0),
        st.sampled_from([0.0, -0.0, 1.0]),
    ),
    min_size=1,
    max_size=60,
)


@settings(
    derandomize=True,
    database=None,
    max_examples=300,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(st.lists(_CHILD_VALUES, min_size=1, max_size=5))
@example([[0.0]])
@example([[-0.0, 0.0], [0.0], [-0.0]])
@example([[1.0] * 7, [1.0], [0.5, 1.0]])
@example([[0.0, -0.0, -0.0, 0.25], [-0.0, 0.0, 1.0], [-0.0], [0.0, 0.0], [1.0]])
def test_merged_children_equal_np_sort(children):
    """An inner candidate's sorted values, merged from its children's,
    equal np.sort of their concatenation elementwise; they can differ
    from it only in the order of -0.0 and 0.0, so the quantiles and the
    equal-ends test read the same bits."""
    parts = [np.sort(np.array(child)) for child in children]
    merged = _merge_sorted(parts)
    want = np.sort(np.concatenate(parts))
    assert merged.shape == want.shape and (merged == want).all()
    assert bits(_quantiles(merged)) == bits(_quantiles(want))
    assert (merged[0] == merged[-1]) == (want[0] == want[-1])


def test_quantiles_ignore_the_order_of_signed_zeros():
    """Every order of the signs in a sorted run of zeros gives the same
    quantile bits.  The interpolation alone would not: between two -0.0
    at weight t >= 0.5 it gives -0.0, between -0.0 and 0.0 it gives 0.0
    (n = 3, q = 0.25, below); _quantiles turns a zero result into 0.0."""
    first = np.array([-0.0, -0.0, 0.0])
    assert bits(_quantiles(first)) == bits(_quantiles(np.array([-0.0, 0.0, -0.0])))
    assert bits(_quantiles(first))[2] == bits([0.0])[0]
    for zeros in range(1, 9):
        for n_neg in range(zeros + 1):
            for tail in ([], [0.5], [0.25, 1.0]):
                got = set()
                for negative in itertools.combinations(range(zeros), n_neg):
                    run = np.zeros(zeros)
                    run[list(negative)] = -0.0
                    got.add(tuple(bits(_quantiles(np.concatenate([run, tail])))))
                assert len(got) == 1


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
    assert len(set(NODE_NAMES)) == 147
    assert NODE_NAMES[:3] == ["size", "circularity", "eccentricity"]
    assert NODE_NAMES[3] == "angle_hist_00"
    assert EDGE_NAMES == [
        "contact_area",
        "interface_mean",
        "interface_var",
        "interface_skew",
    ]
    # the formed rows: the edge's own entries, then the node block
    # repeated through the four pairwise combinations
    assert len(ROW_NAMES) == 592
    assert len(set(ROW_NAMES)) == 592
    assert ROW_NAMES[:4] == EDGE_NAMES
    assert ROW_NAMES[4:8] == ["absdiff_size", "min_size", "max_size", "sum_size"]
    assert len(ROW_NAMES) == 4 + 4 * len(NODE_NAMES)


def test_vector_lengths_match_schema():
    raw, boundary = flat_images()
    f = region_features({(3, 3), (3, 4)}, raw, boundary)
    assert f.shape == (147,)
    crag = quad_crag()
    nf, ef = compute_features(crag, np.zeros((4, 4)), np.zeros((4, 4)))
    assert all(v.shape == (147,) for v in nf.values())
    assert all(v.shape == (4,) for v in ef.values())
    assert set(nf) == set(crag.ids())
    assert set(ef) == set(crag.adjacency)
    assert formed_rows(crag, nf, ef).shape == (len(crag.adjacency), 592)


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
    pixels = {1: {(0, 0), (0, 1), (0, 2)}, 2: {(1, 0), (1, 1), (1, 2)}}
    crag = build_crag([], [(1, 2)], leaf_image(pixels, 3, 2))
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
    rows = dict(zip(crag.adjacency, formed_rows(crag, nf, ef)))
    for (i, j), f in rows.items():
        u, v = nf[i], nf[j]
        assert np.array_equal(f[:4], ef[(i, j)])
        assert np.array_equal(f[4::4], np.abs(u - v))
        assert np.array_equal(f[5::4], np.minimum(u, v))
        assert np.array_equal(f[6::4], np.maximum(u, v))
        assert np.array_equal(f[7::4], u + v)
    # sizes 4 and 3 across the (1, 2) edge
    f = rows[(1, 2)]
    assert f[ROW_NAMES.index("absdiff_size")] == 1.0
    assert f[ROW_NAMES.index("min_size")] == 3.0
    assert f[ROW_NAMES.index("max_size")] == 4.0
    assert f[ROW_NAMES.index("sum_size")] == 7.0


def test_formed_rows_equal_the_old_edge_block():
    """The rows formed from the edges' 4 statistics and the node vectors
    are bit-equal to the 592-entry edge vectors compute_features once
    returned, on 60 random sparse graphs and on synthetic 256 px graphs
    with and without a merge cap, except the interface moments: those
    combine per-group sums, and lie within 1e-12 * (1 + |v|) of the
    moments of the values formed from the pixel pairs."""
    rng = np.random.default_rng(61)
    cases = []
    for _ in range(60):
        crag = random_sparse_crag(rng)
        shape = (crag.height, crag.width)
        cases.append((crag, rng.random(shape), rng.random(shape)))
    for seed, max_merges in ((7, 5), (8, None)):
        raw, boundary, _ = generate_synthetic(1, 12, 1.0, seed, image_size=256)[0]
        crag = build_graph(boundary, PipelineConfig(max_merges=max_merges))
        cases.append((crag, raw, boundary))
    edges = 0
    for crag, raw, boundary in cases:
        nf, ef = compute_features(crag, raw, boundary)
        want = ref_edge_block(crag, boundary, nf)
        got = formed_rows(crag, nf, ef)
        exact = np.ones(want.shape[1], dtype=bool)
        exact[INTERFACE_MOMENTS] = False
        assert np.array_equal(got[:, exact], want[:, exact])
        err = np.abs(got[:, INTERFACE_MOMENTS] - want[:, INTERFACE_MOMENTS])
        assert (err <= 1e-12 * (1.0 + np.abs(want[:, INTERFACE_MOMENTS]))).all()
        assert np.array_equal(np.array([ef[e] for e in crag.adjacency]), got[:, :4])
        edges += len(crag.adjacency)
    assert edges > 900


def test_out_of_range_image_rejected():
    raw = np.full((4, 4), 1.5)
    with pytest.raises(DegenerateInput):
        region_features({(1, 1)}, raw, np.zeros((4, 4)))
    with pytest.raises(DegenerateInput):
        region_features({(1, 1)}, np.zeros((4, 4)), np.full((4, 4), -0.1))


# images that a float64 cast takes badly: a bare numpy ValueError
# (strings, ragged rows) or a silently dropped imaginary part
HALF = np.full((4, 4), 0.5)
BAD_IMAGES = {
    "string": np.full((4, 4), "a"),
    "ragged": [[0.5] * 4] * 3 + [[0.5] * 3],
    "complex": HALF + 0.25j,
}
IMAGE_ENTRY_POINTS = {
    "compute_features raw": lambda image: compute_features(quad_crag(), image, HALF),
    "compute_features boundary": lambda image: compute_features(quad_crag(), HALF, image),
    "seeded_watershed": lambda image: seeded_watershed(image, 0.75),
    "build_merge_tree": lambda image: build_merge_tree(np.arange(16).reshape(4, 4) // 8, image),
}


@pytest.mark.parametrize("case", sorted(BAD_IMAGES))
@pytest.mark.parametrize("entry", sorted(IMAGE_ENTRY_POINTS))
def test_images_of_no_real_numbers_rejected(entry, case):
    with pytest.raises(DegenerateInput, match="raw image|boundary map"):
        IMAGE_ENTRY_POINTS[entry](BAD_IMAGES[case])


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
    "boolean value": lambda obj: obj["edges"]["1-2"].__setitem__(1, True),
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
    names[2], names[3] = names[3], names[2]
    with pytest.raises(
        CmcError, match="edge_schema entry 2 is 'interface_skew', expected 'interface_var'"
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
    candidates = []
    if len(leaves) > 1:
        candidates.append(Candidate(leaves[-1] + 1, children=tuple(leaves)))
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


def border_crags(seed):
    """Crags whose leaves lie on the image border: 60 random_sparse_crag
    graphs (UNCOVERED pixels, leaves on the border), four one-pixel
    leaves, and 1 x 9, 9 x 1 and 1 x 1 images of random ranks."""
    rng = np.random.default_rng(seed)
    crags = [random_sparse_crag(rng) for _ in range(60)]
    crags.append(labels_crag([[0, 1], [2, 3]]))  # four one-pixel leaves
    for shape in ((1, 9), (9, 1), (1, 1)):
        for _ in range(10):
            labels = rng.integers(-1, 3, size=shape)
            if (labels == UNCOVERED).all():
                labels[0, 0] = 0
            crags.append(labels_crag(labels))
    return crags


def test_trace_contour_on_random_masks():
    """The walk over every candidate of random_crags and border_crags
    equals the per-pixel reference's."""
    for crag in itertools.chain(random_crags(71, 2500), border_crags(43)):
        for cid in crag.ids():
            assert crag_walk(crag, cid) == ref_moore_trace(pixels_of(crag, cid))


def test_angle_histogram_on_random_masks(monkeypatch):
    """Bit-equal to the flood-fill oracle, with the one-component verdict
    taken from the leaves for some unions and by labelling for others."""
    calls = count_calls(monkeypatch, ndimage, "label")
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
    """Contour statistics of the pixels that 4-erosion removes: the
    histogram and quantiles bit-equal to the reference's, the moments
    (summed there in row-major order) within 1e-12 * (1 + |v|).  The
    border_crags put leaves on the frame, where the image ends."""
    cross = ndimage.generate_binary_structure(2, 1)
    contour = np.s_[idx("raw_contour_sum") : idx("boundary_all_sum")]
    rng = np.random.default_rng(83)
    for crag in itertools.chain(random_crags(79, 1200), border_crags(43)):
        raw = rng.random((crag.height, crag.width))
        nf, _ = compute_features(crag, raw, np.zeros(raw.shape))
        for cid in crag.ids():
            mask = np.isin(crag.leaf_labels(), crag.leaves_under(cid))
            want = ref_stats_block(raw[mask & ~ndimage.binary_erosion(mask, cross)])
            got = nf[cid][contour]
            assert np.array_equal(got[5:], want[5:])  # histogram and quantiles
            assert np.all(np.abs(got[:5] - want[:5]) <= 1e-12 * (1.0 + np.abs(want[:5])))


def test_contour_blocks_do_not_change_when_transposed():
    """A contour is the same set of values in the transposed image, seen
    in another order; every contour statistic (moments, histogram and
    quantiles, both planes) depends on the values alone, so each
    candidate's contour blocks keep every bit."""
    images = generate_synthetic(3, 12, 1.0, 1003, image_size=256)
    instances = [
        (build_graph(boundary, PipelineConfig(max_merges=None)), raw, boundary)
        for raw, boundary, _ in images
    ]
    instances += list(sparse_instances(89, 20))
    contour = np.concatenate([np.arange(at + 32, at + 64) for at in (19, 19 + 64)])
    for crag, raw, boundary in instances:
        flipped = build_crag(inner(crag), None, crag.leaf_labels().T)
        nf, _ = compute_features(crag, raw, boundary)
        flipped_nf, _ = compute_features(flipped, raw.T, boundary.T)
        assert sorted(flipped_nf) == sorted(nf)
        for cid in nf:
            assert nf[cid][contour].tobytes() == flipped_nf[cid][contour].tobytes()


def test_pipeline_crag_labels_each_leaf_once(monkeypatch):
    """On a merge-tree Crag every union's verdict comes from its leaves:
    ndimage.label runs once per leaf and never per union."""
    raw, boundary, _ = generate_synthetic(1, 4, 1.0, 5, image_size=128)[0]
    crag = build_graph(boundary, PipelineConfig())
    assert len(crag.ids()) > len(crag.leaves())
    calls = count_calls(monkeypatch, ndimage, "label")
    compute_features(crag, raw, boundary)
    assert calls[0] <= len(crag.leaves())


def test_children_listed_in_reverse_change_nothing():
    """A merge-tree graph rebuilt with every candidate's children
    reversed gives bit-identical node and edge vectors and the same
    segmentation of its best-effort assignment."""
    raw, boundary, gt = generate_synthetic(1, 12, 1.0, 5, image_size=256)[0]
    crag = build_graph(boundary, PipelineConfig(max_merges=None))
    reversed_kids = [Candidate(c.id, c.children[::-1]) for c in inner(crag)]
    assert any(len(c.children) > 1 for c in reversed_kids)
    flipped = build_crag(reversed_kids, crag.adjacency, crag.leaf_labels())
    assert flipped.leaf_order == crag.leaf_order
    for ours, theirs in zip(compute_features(crag, raw, boundary),
                            compute_features(flipped, raw, boundary)):
        assert list(ours) == list(theirs)
        assert all(ours[k].tobytes() == theirs[k].tobytes() for k in ours)
    segmentations = [
        extract_segmentation(c, costmodel.best_effort(c, gt)) for c in (crag, flipped)
    ]
    assert np.array_equal(*segmentations)


def feature_digest(feats):
    """sha256 over the keys and vector bytes of a features dict, in key order."""
    digest = hashlib.sha256()
    for key in sorted(feats):
        digest.update(repr(key).encode())
        digest.update(feats[key].tobytes())
    return digest.hexdigest()


# (count, cells, noise, seed, size, merge cap) -> digests of the node and
# the edge vectors of the first image.  The edge digests were recorded
# while every candidate's sums were still taken over its own leaves, one
# candidate at a time; the node digests since the contour moments come
# from the sorted contour values
FEATURE_DIGESTS = {
    (6, 12, 1.0, 1003, 256, 5): (  # pipeline-256 at seed 1, image0
        "10cc6658736aedcc1cdcab37332fbbdd2765f3dafc141cce7e04d1c39e668c68",
        "d3a027d01d4e68cc0c1cd073ead28140145b1ff7472670f43752be65e0fb09e7",
    ),
    (2, 48, 1.0, 7, 512, None): (  # 512 px, no merge cap
        "1df68bffcc76b0ba77843d7056d8548145cbf55917fd2c491a228b2b1aa34bb6",
        "3511b38199229d905a3d21e959daa68058e29fee6f0769b6ff94747113a606d8",
    ),
}


@pytest.mark.parametrize("case", sorted(FEATURE_DIGESTS, key=str))
def test_feature_bits_pinned(case):
    """Every bit of every node and edge vector on two images: any moved
    bit changes a digest."""
    count, cells, noise, seed, size, cap = case
    raw, boundary, _ = generate_synthetic(count, cells, noise, seed, image_size=size)[0]
    crag = build_graph(boundary, PipelineConfig(max_merges=cap))
    nf, ef = compute_features(crag, raw, boundary)
    assert (feature_digest(nf), feature_digest(ef)) == FEATURE_DIGESTS[case]


def one_piece(crag, cid):
    """Whether the candidate is one 8-connected component."""
    mask = np.isin(crag.leaf_labels(), crag.leaves_under(cid))
    return ndimage.label(mask, _SQUARE)[1] == 1


def test_inner_walks_reused_and_fresh_on_nested_crags(monkeypatch):
    """Merge-tree crags at 128 and 256 px and random sparse crags: every
    candidate's angle histogram is bit-equal to the per-pixel oracle's,
    while some inner candidates take a child's walk and others walk
    afresh.  One walk runs per leaf that is one piece; the walks beyond
    those are inner candidates' fresh walks."""
    calls = count_calls(monkeypatch, features, "_moore_walk")
    crags = []
    for cells, size, seed in ((3, 128, 7), (3, 128, 8), (12, 256, 8)):
        raw, boundary, _ = generate_synthetic(1, cells, 1.0, seed, image_size=size)[0]
        crags.append((build_graph(boundary, PipelineConfig()), raw, boundary))
    crags += list(sparse_instances(41, 60))
    reused = fresh = 0
    for crag, raw, boundary in crags:
        before = calls[0]
        nf, _ = compute_features(crag, raw, boundary)
        whole = {cid for cid in crag.ids() if one_piece(crag, cid)}
        for cid in crag.ids():
            got = nf[cid][ANGLES]
            assert np.array_equal(got, ref_angle_histogram(pixels_of(crag, cid)))
        inner_fresh = calls[0] - before - len(whole & set(crag.leaves()))
        inner_whole = len(whole - set(crag.leaves()))
        assert 0 <= inner_fresh <= inner_whole
        fresh += inner_fresh
        reused += inner_whole - inner_fresh
    assert reused > 10 and fresh > 40


# hand-built unions of two leaves, 0 then 1, whose parent 2 must walk
# afresh: (i) leaf 1 touches the contour that leaf 0's walk visits only
# diagonally; (ii) leaf 1, a pixel, holds the parent's first pixel
FRESH_WALK_CASES = {
    "diagonal touch": [[0, 0, -1], [0, 0, -1], [-1, -1, 1]],
    "other child first": [[-1, 1, -1], [0, 0, 0], [0, 0, 0]],
}


@pytest.mark.parametrize("case", sorted(FRESH_WALK_CASES))
def test_parent_walks_afresh(monkeypatch, case):
    labels = np.array(FRESH_WALK_CASES[case])
    crag = build_crag([Candidate(2, (0, 1))], [], labels)
    calls = count_calls(monkeypatch, features, "_moore_walk")
    blank = np.zeros(labels.shape)
    nf, _ = compute_features(crag, blank, blank)
    assert calls[0] == 3
    for cid in crag.ids():
        assert np.array_equal(nf[cid][ANGLES], ref_angle_histogram(pixels_of(crag, cid)))


def test_parent_reuses_the_walk_of_a_ring_around_its_sibling(monkeypatch):
    """Leaf 1 fills the hole of leaf 0, a ring two pixels thick: the walk
    around the ring's outside never meets leaf 1, so the parent takes it."""
    labels = np.zeros((6, 6), dtype=np.int64)
    labels[2:4, 2:4] = 1
    crag = build_crag([Candidate(2, (0, 1))], [], labels)
    calls = count_calls(monkeypatch, features, "_moore_walk")
    blank = np.zeros(labels.shape)
    nf, _ = compute_features(crag, blank, blank)
    assert calls[0] == 2
    assert np.array_equal(nf[2][ANGLES], nf[0][ANGLES])
    for cid in crag.ids():
        assert np.array_equal(nf[cid][ANGLES], ref_angle_histogram(pixels_of(crag, cid)))


def ref_leaf_perimeters(labels, n):
    """4 sides per pixel of each leaf 0..n-1, less 2 per 4-neighbor pixel
    pair inside the leaf."""
    covered = labels[labels != UNCOVERED]
    inner = [
        a[(a == b) & (a != UNCOVERED)]
        for a, b in ((labels[:, :-1], labels[:, 1:]), (labels[:-1], labels[1:]))
    ]
    size = np.bincount(covered, minlength=n)
    return 4 * size - 2 * np.bincount(np.concatenate(inner), minlength=n)


def test_leaf_perimeters_from_the_rim():
    """_Leaves counts each leaf's sides from its rim; they equal the
    pixel-pair count on random sparse crags (UNCOVERED pixels, leaves on
    the border), on one-pixel leaves and on 1 x n and n x 1 images."""
    crags = border_crags(43) + [labels_crag(labels) for labels in SPLIT_CASES]
    one_pixel = 0
    for crag in crags:
        blank = np.zeros((crag.height, crag.width))
        facts = _Leaves(crag, blank, blank)
        n = len(crag.leaves())
        perimeters = np.diff(facts.perimeter)
        assert np.array_equal(perimeters, ref_leaf_perimeters(facts.labels, n))
        one_pixel += int((np.diff(facts.start) == 1).sum())
    assert one_pixel > 20


def test_compute_features_matches_per_pixel_reference():
    """Label-image kernel against the frozenset reference: bit-identical
    except the moments, whose summation order changed, and the
    eccentricity, which must lie within 1 ulp of its exact value.  Its
    edge combinators then lie within 2**-51 of the reference's: an ulp
    of each operand, at most 2**-53 below 1 (and 0 at 1, which is
    exact), plus half an ulp of a sum below 2 on each side."""
    other = np.ones(len(NODE_NAMES), dtype=bool)
    other[MOMENTS + [ECCENTRICITY]] = False
    edge_other = np.ones(len(ROW_NAMES), dtype=bool)
    edge_other[INTERFACE_MOMENTS + MOMENT_COMBOS + ECCENTRICITY_COMBOS] = False
    seen = {"uncovered": 0, "disconnected": 0, "edges": 0}
    for crag, raw, boundary in sparse_instances(37, 60):
        seen["uncovered"] += int((crag.leaf_labels() < 0).any())
        nf, ef = compute_features(crag, raw, boundary)
        rows = dict(zip(crag.adjacency, formed_rows(crag, nf, ef)))
        ref = {
            cid: ref_node_vector(pixels_of(crag, cid), raw, boundary)
            for cid in crag.ids()
        }
        for cid in crag.ids():
            angles = ref[cid][3:19]
            seen["disconnected"] += len(pixels_of(crag, cid)) > 1 and not angles.any()
            assert np.array_equal(nf[cid][other], ref[cid][other])
            assert np.allclose(
                nf[cid][MOMENTS],
                ref[cid][MOMENTS],
                rtol=1e-12,
                atol=1e-12,
            )
            want = ref[cid][ECCENTRICITY]
            assert abs(nf[cid][ECCENTRICITY] - want) <= math.ulp(want)
        for i, j in crag.adjacency:
            want = ref_edge_vector(
                pixels_of(crag, i), pixels_of(crag, j), boundary, ref[i], ref[j]
            )
            got = rows[(i, j)]
            seen["edges"] += 1
            assert np.array_equal(got[edge_other], want[edge_other])
            err = np.abs(got[INTERFACE_MOMENTS] - want[INTERFACE_MOMENTS])
            assert np.all(err <= 1e-12 * (1.0 + np.abs(want[INTERFACE_MOMENTS])))
            # |u - v| cancels, so bound the error by the operands' size
            scale = np.repeat(np.abs(ref[i]) + np.abs(ref[j]), 4)[
                np.array(MOMENT_COMBOS) - 4
            ]
            err = np.abs(got[MOMENT_COMBOS] - want[MOMENT_COMBOS])
            assert np.all(err <= 1e-12 * (1.0 + scale))
            err = np.abs(got[ECCENTRICITY_COMBOS] - want[ECCENTRICITY_COMBOS])
            assert np.all(err <= 2.0**-51)
    # the instances exercise what the kernel must get right
    assert seen["uncovered"] > 30 and seen["disconnected"] > 10 and seen["edges"] > 200


def test_leaf_boxes_equal_find_objects():
    """_Leaves takes each leaf's box from its row runs; the boxes are
    find_objects' on synthetic images at 256 and 512 px and on random
    sparse graphs, whose leaves leave pixels uncovered."""
    rng = np.random.default_rng(71)
    cases = []
    for cells, size in ((12, 256), (40, 512)):
        raw, boundary, _ = generate_synthetic(1, cells, 1.0, 7, image_size=size)[0]
        cases.append((build_graph(boundary, PipelineConfig()), raw, boundary))
    for _ in range(20):
        crag = random_sparse_crag(rng)
        shape = (crag.height, crag.width)
        cases.append((crag, rng.random(shape), rng.random(shape)))
    for crag, raw, boundary in cases:
        facts = _Leaves(crag, raw, boundary)
        boxes = [(slice(a, b), slice(c, d)) for a, b, c, d in facts.boxes.tolist()]
        assert boxes == ndimage.find_objects(facts.labels + 1)


def quad_model_json():
    """model.json text of small forests trained on the quad graph."""
    crag = quad_crag()
    rng = np.random.default_rng(5)
    nf, ef = compute_features(crag, rng.random((4, 4)), rng.random((4, 4)))
    return json.dumps(model_to_json(train_from_instances([(crag, nf, ef, quad_gt())], 3, 0)))


def test_cli_features_of_empty_image(tmp_path, capsys):
    """A valid crag.json of a 2x0 image with 2x0 PGMs: `cmc features`
    exits 0 with a features.json of no node and no edge, and `cmc costs`
    and `cmc solve` on it exit 0 with empty costs and an empty solution
    (the rows of no key have the forests' widths)."""
    crag = tmp_path / "crag.json"
    crag.write_text(json.dumps(
        {"width": 0, "height": 2, "leaf_labels": [], "candidates": [], "adjacency": []}
    ))
    raw, boundary = str(tmp_path / "raw.pgm"), str(tmp_path / "boundary.pgm")
    for path in (raw, boundary):
        write_probability(path, np.zeros((2, 0)))
    out = tmp_path / "features.json"
    assert main(["features", "--crag", str(crag), "--raw", raw, "--boundary", boundary,
                 "--out", str(out)]) == 0
    feats = json.loads(out.read_text())
    assert feats["nodes"] == {} and feats["edges"] == {}
    model, costs = tmp_path / "model.json", tmp_path / "costs.json"
    model.write_text(quad_model_json())
    assert main(["costs", "--model", str(model), "--crag", str(crag),
                 "--features", str(out), "--out", str(costs)]) == 0
    assert json.loads(costs.read_text()) == {"f": {}, "g": {}}
    solution = tmp_path / "solution.json"
    assert main(["solve", "--crag", str(crag), "--costs", str(costs),
                 "--out", str(solution)]) == 0
    assert json.loads(solution.read_text())["y"] == {}
    assert "error" not in capsys.readouterr().err


def old_form_features(crag, raw, boundary):
    """features.json as it was written when each edge vector held the
    592 entries that the edge forest reads."""
    nf, _ = compute_features(crag, raw, boundary)
    obj = features_to_json(nf, {})
    obj["edge_schema"] = ROW_NAMES
    rows = ref_edge_block(crag, boundary, nf)
    obj["edges"] = {f"{i}-{j}": row.tolist() for (i, j), row in zip(crag.adjacency, rows)}
    return json.loads(json.dumps(obj))


def test_old_form_features_json_rejected(tmp_path, capsys):
    """A features.json of 592-entry edge vectors fails the schema check,
    naming edge_schema; `cmc costs` on it exits 1 with `error:` and
    writes no costs.json."""
    crag = quad_crag()
    rng = np.random.default_rng(19)
    obj = old_form_features(crag, rng.random((4, 4)), rng.random((4, 4)))
    assert all(len(v) == 592 for v in obj["edges"].values())
    with pytest.raises(
        CmcError, match="features.json: edge_schema entry 4 is 'absdiff_size', expected missing"
    ):
        features_from_json(obj)
    paths = {name: tmp_path / name for name in ("crag", "features", "model", "costs")}
    paths["crag"].write_text(json.dumps(crag_to_json(crag)))
    paths["features"].write_text(json.dumps(obj))
    paths["model"].write_text(quad_model_json())
    code = main(["costs", "--model", str(paths["model"]), "--crag", str(paths["crag"]),
                 "--features", str(paths["features"]), "--out", str(paths["costs"])])
    assert code == 1
    assert capsys.readouterr().err.startswith("error: features.json: edge_schema")
    assert not paths["costs"].exists()


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
    crag = build_crag([], [], leaf)
    raw = np.array([[0.5, 0.5, np.nan]])
    nf, _ = compute_features(crag, raw, np.array([[0.5, 0.5, np.inf]]))
    assert np.isfinite(nf[1]).all()


def test_image_without_leaves_has_no_features():
    """An image that no leaf covers, or that has no pixels, gives no
    vectors; its pixels are not looked at."""
    for labels in (np.full((3, 4), UNCOVERED), np.zeros((0, 5), dtype=np.int64)):
        raw, boundary = np.full(labels.shape, np.nan), np.zeros(labels.shape)
        assert compute_features(build_crag([], None, labels), raw, boundary) == ({}, {})


def test_image_shape_must_match_crag():
    crag = quad_crag()
    with pytest.raises(DimensionMismatch):
        compute_features(crag, np.zeros((5, 4)), np.zeros((4, 4)))
    with pytest.raises(DimensionMismatch):
        compute_features(crag, np.zeros((4, 4)), np.zeros((4, 3)))
