import itertools

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from cmc.errors import CmcError, DegenerateInput, NoSeeds, NotAdjacent
from cmc.hierarchy import MergeEvent, build_merge_tree, extract_candidates, seeded_watershed
from cmc.synth import generate_synthetic

from util import (
    brute_merge_score,
    check_lift,
    pixels_of,
    ref_build_merge_tree,
    ref_regions_touch,
    ref_seeded_watershed,
    subtree_heights,
)


def strip_tree():
    """1x8 strip, four 2-pixel superpixels; scores force (1,2), (3,4), (5,6)."""
    boundary = np.array([[0, 0, 0, 0, 0.5, 0.1, 0.1, 0]], dtype=float)
    superpixels = np.array([[1, 1, 2, 2, 3, 3, 4, 4]])
    return build_merge_tree(superpixels, boundary), boundary


def chain_tree():
    """1x8 strip of single pixels with ramping boundary: merges run left to
    right, producing levels 1..7."""
    boundary = np.arange(8).reshape(1, 8) / 10.0
    superpixels = np.arange(1, 9).reshape(1, 8)
    return build_merge_tree(superpixels, boundary)


# ---------------------------------------------------------------------------
# watershed


def test_watershed_constant_zero():
    labels = seeded_watershed(np.zeros((5, 4)), 0.5)
    assert np.array_equal(labels, np.ones((5, 4), dtype=labels.dtype))


def test_watershed_column_barrier():
    """Full-height barrier at col 2 splits the image into two seeds; the
    barrier pixels themselves drain to the first seed in queue order."""
    boundary = np.zeros((4, 4))
    boundary[:, 2] = 1.0
    labels = seeded_watershed(boundary, 0.5)
    assert len(np.unique(labels)) == 2
    expected = np.ones((4, 4), dtype=labels.dtype)
    expected[:, 3] = 2
    assert np.array_equal(labels, expected)


def test_watershed_no_seeds():
    with pytest.raises(NoSeeds):
        seeded_watershed(np.ones((2, 2)), 0.5)


def test_watershed_is_partition():
    rng = np.random.default_rng(2)
    boundary = rng.random((16, 16))
    labels = seeded_watershed(boundary, 0.5)
    uniq = np.unique(labels)
    assert uniq[0] == 1 and uniq[-1] == len(uniq)  # labels are 1..K
    assert labels.shape == boundary.shape


def test_watershed_deterministic():
    rng = np.random.default_rng(3)
    boundary = rng.random((12, 12))
    a = seeded_watershed(boundary, 0.6)
    b = seeded_watershed(boundary.copy(), 0.6)
    assert np.array_equal(a, b)


def test_watershed_rejects_bad_boundary():
    with pytest.raises(DegenerateInput):
        seeded_watershed(np.full((2, 2), 1.5), 0.5)
    with pytest.raises(DegenerateInput):
        seeded_watershed(np.full((2, 2), np.nan), 0.5)
    with pytest.raises(DegenerateInput):
        seeded_watershed(np.zeros(4), 0.5)
    # .min() of an empty map used to raise a bare ValueError
    with pytest.raises(DegenerateInput, match="empty"):
        seeded_watershed(np.zeros((0, 3)), 0.5)


@pytest.mark.parametrize(
    "threshold", ["0.5", None, True, 0.5 + 0j, 0.0, np.float64(-1)]
)
def test_watershed_rejects_bad_threshold(threshold):
    """Its rule in crag.PARAMS, as config.json states it.  "0.5" and None
    used to end in a bare TypeError, True and 0.5+0j to flood as 1 and
    as 0.5, and 0 to find no seed."""
    with pytest.raises(CmcError, match="^seed_threshold "):
        seeded_watershed(np.zeros((2, 2)), threshold)


def test_watershed_takes_numpy_threshold():
    boundary = np.array([[0.0, 1.0, 0.0]])
    for threshold in (np.float32(0.5), np.int64(1), 1):
        assert seeded_watershed(boundary, threshold).tolist() == [[1, 1, 2]]


def assert_same_flood(boundary, seed_threshold):
    got = seeded_watershed(boundary, seed_threshold)
    want = ref_seeded_watershed(boundary, seed_threshold)
    assert got.dtype == want.dtype
    assert np.array_equal(got, want)


def test_watershed_matches_reference_on_plateaus():
    """Boundaries quantized to 1/4 and 1/255 make ties common; the
    integer-key flood must pop them in the same FIFO order."""
    rng = np.random.default_rng(41)
    for k in range(300):
        h, w = (int(v) for v in rng.integers(1, 24, size=2))
        q = (4, 255)[k % 2]
        boundary = np.round(rng.random((h, w)) * q) / q
        boundary.flat[int(rng.integers(boundary.size))] = 0.0  # at least one seed
        assert_same_flood(boundary, float(rng.choice([0.1, 0.3, 0.5, 0.7])))


def test_watershed_matches_reference_on_thin_and_degenerate_shapes():
    rng = np.random.default_rng(42)
    for shape in [(1, 1), (1, 2), (2, 1), (1, 17), (17, 1), (1, 64), (64, 1)]:
        for _ in range(10):
            boundary = np.round(rng.random(shape) * 4) / 4
            boundary.flat[int(rng.integers(boundary.size))] = 0.0
            assert_same_flood(boundary, 0.5)
    # every pixel a seed: one push index per pixel, nothing to claim
    for shape in [(1, 1), (3, 5), (6, 6)]:
        boundary = np.round(rng.random(shape) * 4) / 4
        assert_same_flood(boundary, 1.5)
        assert_same_flood(np.zeros(shape), 0.5)
    # a single seed floods everything
    for shape in [(1, 1), (1, 9), (9, 1), (7, 11)]:
        boundary = 0.5 + np.round(rng.random(shape) * 2) / 4
        boundary.flat[int(rng.integers(boundary.size))] = 0.0
        labels = seeded_watershed(boundary, 0.5)
        assert_same_flood(boundary, 0.5)
        assert np.all(labels == 1)


def test_watershed_signed_zero_ties_stay_fifo():
    """-0.0 == 0.0: the seed pushed first pops first and claims the gap."""
    assert_same_flood(np.array([[0.0, 1.0, -0.0]]), 0.5)
    assert seeded_watershed(np.array([[0.0, 1.0, -0.0]]), 0.5).tolist() == [[1, 1, 2]]
    assert seeded_watershed(np.array([[-0.0, 1.0, 0.0]]), 0.5).tolist() == [[1, 1, 2]]
    rng = np.random.default_rng(43)
    for _ in range(50):
        h, w = (int(v) for v in rng.integers(1, 12, size=2))
        boundary = np.round(rng.random((h, w)) * 2) / 2
        zeros = boundary == 0.0
        boundary[zeros] = rng.choice([0.0, -0.0], size=int(zeros.sum()))
        if (boundary < 0.5).any():
            assert_same_flood(boundary, 0.5)


@pytest.mark.parametrize("size,n_cells,seed", [(128, 3, 1), (256, 8, 2)])
def test_watershed_matches_reference_on_synthetic(size, n_cells, seed):
    _, boundary, _ = generate_synthetic(1, n_cells, 1.0, seed, image_size=size)[0]
    for threshold in (0.3, 0.5, 0.7):
        assert_same_flood(boundary, threshold)


# The seeds pop first, in one array pass; the pixels they claim go on the
# heap only if they still have an unclaimed neighbour.


def test_watershed_seeds_of_equal_value_meet_at_one_pixel():
    """Four one-pixel seeds around a non-seed centre: the seed with the
    least (value, push index) claims it, whichever side it is on; -0.0
    and 0.0 tie and fall back to the push order."""
    sides = [(0, 1), (1, 0), (1, 2), (2, 1)]  # push order = label order
    for values in itertools.product([0.0, -0.0, 0.25], repeat=4):
        boundary = np.ones((3, 3))
        for side, value in zip(sides, values):
            boundary[side] = value
        labels = seeded_watershed(boundary, 0.5)
        assert_same_flood(boundary, 0.5)
        first = min(range(4), key=lambda k: (values[k], k))
        assert labels[1, 1] == first + 1


def test_watershed_seed_claims_in_four_directions():
    """Seed 2 claims up, down, left and right at once; seed 1, of the
    same value and pushed first, pops first and takes what it reaches."""
    boundary = np.full((3, 5), 0.5)
    boundary[0, 4] = 0.0
    boundary[1, 2] = -0.0
    labels = seeded_watershed(boundary, 0.25)
    assert_same_flood(boundary, 0.25)
    assert labels.tolist() == [[2, 2, 2, 1, 1], [2, 2, 2, 2, 1], [2, 2, 2, 2, 1]]


def test_watershed_claimed_pixels_closed_at_once():
    """A checkerboard: every seed is its own region and every non-seed is
    closed in once the seeds have claimed, so nothing is left for the
    heap.  A solid block of seeds beside it has closed seeds inside."""
    rng = np.random.default_rng(44)
    rows, cols = np.indices((7, 9))
    for _ in range(20):
        seed_values = rng.choice([0.0, -0.0, 0.1, 0.2], size=(7, 9))
        boundary = np.where((rows + cols) % 2 == 0, seed_values, 0.75)
        assert_same_flood(boundary, 0.5)
        boundary[1:6, :4] = seed_values[1:6, :4]  # a block with closed seeds
        assert_same_flood(boundary, 0.5)
    # seeds of one value pop in push order, which is label order, so each
    # non-seed goes to its least neighbouring seed label
    boundary = np.where((rows + cols) % 2 == 0, 0.0, 1.0)
    labels = seeded_watershed(boundary, 0.5)
    assert_same_flood(boundary, 0.5)
    framed = np.pad(labels, 1, constant_values=labels.max() + 1)
    least = np.minimum.reduce(
        [framed[:-2, 1:-1], framed[2:, 1:-1], framed[1:-1, :-2], framed[1:-1, 2:]]
    )
    odd = (rows + cols) % 2 == 1
    assert np.array_equal(labels[odd], least[odd])


def test_watershed_all_seeds_and_single_seeds():
    rng = np.random.default_rng(45)
    for shape in [(1, 1), (1, 6), (6, 1), (4, 5)]:
        # all seeds, signed zeros among them: nothing is claimed
        boundary = rng.choice([0.0, -0.0, 0.25, 0.5], size=shape)
        assert_same_flood(boundary, 1.5)
        # one seed at every position: at a corner, an edge or inside
        for k in range(boundary.size):
            boundary = 0.5 + rng.choice([0.0, 0.25, 0.5], size=shape)
            boundary.flat[k] = rng.choice([0.0, -0.0])
            assert_same_flood(boundary, 0.5)
            assert np.all(seeded_watershed(boundary, 0.5) == 1)


QUANTIZED_VALUES = st.sampled_from([0.0, -0.0, 0.25, 0.5, 0.75, 1.0])


@st.composite
def quantized_maps(draw):
    h, w = draw(st.integers(1, 8)), draw(st.integers(1, 8))
    values = draw(st.lists(QUANTIZED_VALUES, min_size=h * w, max_size=h * w))
    threshold = draw(st.floats(0.0, 1.5, exclude_min=True))
    return np.array(values).reshape(h, w), threshold


@settings(derandomize=True, database=None, max_examples=400, deadline=None)
@given(quantized_maps())
@example((np.array([[0.5, 0.0, 0.5], [-0.0, 0.5, 0.0]]), 0.25))
def test_watershed_matches_reference_on_quantized_maps(case):
    boundary, threshold = case
    if (boundary < threshold).any():
        assert_same_flood(boundary, threshold)
    else:
        with pytest.raises(NoSeeds):
            seeded_watershed(boundary, threshold)


# ---------------------------------------------------------------------------
# merge score, read off the score of build_merge_tree's events


def event_tuples(superpixels, boundary):
    tree = build_merge_tree(np.array(superpixels), np.array(boundary, dtype=float))
    return [(e.child_a, e.child_b, e.score) for e in tree.events]


def test_merge_score_formula():
    # |a|=3, |b|=6, interface intensities {0.2, 0.4, 0.6} -> 3 * 0.4,
    # whichever region carries the smaller id
    boundary = np.zeros((3, 3))
    boundary[0] = [0.2, 0.4, 0.6]
    for small, big in ((1, 2), (2, 1)):
        superpixels = [[small] * 3, [big] * 3, [big] * 3]
        [(_, _, score)] = event_tuples(superpixels, boundary)
        assert score == pytest.approx(3 * 0.4)


def test_merge_score_even_median():
    # |a|=|b|=2, intensities {0.1, 0.3} -> 2 * 0.2
    boundary = np.array([[0.1, 0.1], [0.3, 0.3]])
    [(_, _, score)] = event_tuples([[1, 2], [1, 2]], boundary)
    assert score == pytest.approx(2 * 0.2)


def test_merge_score_zero_boundary():
    events = event_tuples([[1, 1, 2, 3]], np.zeros((1, 4)))
    assert events[0] == (1, 2, 0.0)


def test_merge_score_not_adjacent():
    # 1 and 2 never touch: no event merges them directly
    events = event_tuples([[1, 3, 2]], np.zeros((1, 3)))
    assert (1, 2) not in [(a, b) for a, b, _ in events]
    assert events[0][:2] in ((1, 3), (2, 3))
    with pytest.raises(NotAdjacent):
        brute_merge_score([(0, 0)], [(0, 2)], np.zeros((1, 3)))


def test_interface_intensities_max_of_pair():
    # the single interface value is max(0.2, 0.7), and min(|a|, |b|) = 1
    assert event_tuples([[1, 2]], [[0.2, 0.7]]) == [(1, 2, 0.7)]


# ---------------------------------------------------------------------------
# merge tree


def test_single_region_tree():
    tree = build_merge_tree(np.ones((3, 3), dtype=int), np.zeros((3, 3)))
    assert tree.events == []


def test_first_merge_is_cheapest():
    # collinear A-B-C, interface medians 0.1 (A,B) and 0.9 (B,C); the
    # interface intensity is the max of the two facing pixels
    boundary = np.array([[0.1, 0.1, 0.1, 0.9, 0.9, 0.9]]) * np.ones((2, 1))
    superpixels = np.array([[1, 1, 2, 2, 3, 3]]) * np.ones((2, 1), dtype=int)
    tree = build_merge_tree(superpixels, boundary)
    assert (tree.events[0].child_a, tree.events[0].child_b) == (1, 2)


def test_strip_tree_events():
    tree, _ = strip_tree()
    got = [(e.child_a, e.child_b, e.new_id, e.score) for e in tree.events]
    assert got == [(1, 2, 5, 0.0), (3, 4, 6, 0.2), (5, 6, 7, 2.0)]


def test_tree_event_count_and_id_consumption():
    rng = np.random.default_rng(4)
    boundary = rng.random((10, 10))
    superpixels = seeded_watershed(boundary, 0.7)
    k = superpixels.max()
    tree = build_merge_tree(superpixels, boundary)
    assert len(tree.events) == k - 1
    consumed = [e.child_a for e in tree.events] + [e.child_b for e in tree.events]
    assert len(consumed) == len(set(consumed))  # each id merged at most once
    assert [e.new_id for e in tree.events] == list(range(k + 1, 2 * k))


def test_tree_deterministic():
    rng = np.random.default_rng(5)
    boundary = rng.random((8, 8))
    superpixels = seeded_watershed(boundary, 0.6)
    a = build_merge_tree(superpixels, boundary)
    b = build_merge_tree(superpixels.copy(), boundary.copy())
    assert a.events == b.events


def test_replay_each_merge_is_minimal():
    """Recompute every live pair score from scratch at each step: the chosen
    pair must be a minimizer, with ties going to the smallest (id, id)."""
    rng = np.random.default_rng(6)
    boundary = rng.random((8, 8))
    superpixels = seeded_watershed(boundary, 0.6)
    tree = build_merge_tree(superpixels, boundary)

    regions = {
        int(lab): {tuple(p) for p in np.argwhere(superpixels == lab)}
        for lab in np.unique(superpixels)
    }
    for event in tree.events:
        scores = {}
        live = sorted(regions)
        for i_pos, a in enumerate(live):
            for b in live[i_pos + 1:]:
                try:
                    scores[(a, b)] = brute_merge_score(
                        regions[a], regions[b], boundary
                    )
                except NotAdjacent:
                    pass
        best = min(scores.items(), key=lambda kv: (kv[1], kv[0]))
        assert (event.child_a, event.child_b) == best[0]
        assert event.score == best[1]
        regions[event.new_id] = regions.pop(event.child_a) | regions.pop(
            event.child_b
        )


def same_events(superpixels, boundary):
    """build_merge_tree's events equal the list-and-np.median reference's,
    scores compared by repr."""
    got = build_merge_tree(superpixels, boundary).events
    want = ref_build_merge_tree(superpixels, boundary)
    assert [(e.child_a, e.child_b, e.new_id, repr(e.score)) for e in got] == [
        (e.child_a, e.child_b, e.new_id, repr(e.score)) for e in want
    ]


# both zeros and repeated values, so that ties and even-count medians occur
BOUNDARY_VALUES = st.sampled_from([0.0, -0.0, 0.0, 0.25, 0.25, 0.5, 1.0])
# ids with gaps, and ids near 2**62
LABEL_IDS = st.one_of(st.integers(0, 40), st.integers(2**62 - 8, 2**62 + 8))


@st.composite
def label_maps(draw):
    """A label image over a few ids, each pixel drawn at random, and a
    boundary map of its shape."""
    h, w = draw(st.integers(1, 9)), draw(st.integers(1, 9))
    ids = draw(st.lists(LABEL_IDS, min_size=1, max_size=7, unique=True))
    picks = draw(st.lists(st.integers(0, len(ids) - 1), min_size=h * w, max_size=h * w))
    values = draw(st.lists(BOUNDARY_VALUES, min_size=h * w, max_size=h * w))
    superpixels = np.array(ids, dtype=np.int64)[picks].reshape(h, w)
    return superpixels, np.array(values).reshape(h, w)


@settings(derandomize=True, database=None, max_examples=300, deadline=None)
@given(label_maps())
@example((np.full((3, 4), 2**62), np.zeros((3, 4))))
@example((np.array([[7, 7, 2**62, 3, 3, 2**62 + 1]]),
          np.array([[0.0, -0.0, -0.0, 0.5, 0.25, 0.25]])))
def test_merge_tree_matches_reference(case):
    same_events(*case)


@pytest.mark.parametrize("size,n_cells,seed", [(256, 12, 2), (512, 40, 7)])
def test_merge_tree_matches_reference_on_synthetic(size, n_cells, seed):
    _, boundary, _ = generate_synthetic(1, n_cells, 1.0, seed, image_size=size)[0]
    for threshold in (0.5, 0.15):
        same_events(seeded_watershed(boundary, threshold), boundary)


# ---------------------------------------------------------------------------
# candidate extraction


def test_extract_all_levels():
    tree, _ = strip_tree()
    crag = extract_candidates(tree, None)
    assert crag.ids() == list(range(1, 8))  # 2K-1 candidates
    heights = subtree_heights(crag)
    assert heights[5] == 1 and heights[7] == 2
    assert crag.roots() == [7]


def test_extract_leaves_only():
    tree, _ = strip_tree()
    crag = extract_candidates(tree, 0)
    assert crag.ids() == [1, 2, 3, 4]
    assert crag.adjacency == ((1, 2), (2, 3), (3, 4))


def test_extract_level_cap():
    tree, _ = strip_tree()
    crag = extract_candidates(tree, 1)
    assert crag.ids() == [1, 2, 3, 4, 5, 6]
    assert set(crag.adjacency) == {
        (1, 2), (2, 3), (3, 4), (3, 5), (2, 6), (5, 6),
    }
    assert crag.roots() == [5, 6]


def test_extract_chain_level_cap():
    tree = chain_tree()
    crag = extract_candidates(tree, 5)
    assert crag.ids() == list(range(1, 14))  # levels 6 and 7 dropped
    assert crag.roots() == [7, 8, 13]


def test_extract_chain_unlimited():
    tree = chain_tree()
    crag = extract_candidates(tree, None)
    assert len(crag.ids()) == 15  # 2K-1 for K=8


def test_extract_score_threshold():
    tree, _ = strip_tree()
    # event scores are 0.0, 0.2, 2.0; a threshold of 0.2 keeps only node 5
    crag = extract_candidates(tree, None, score_threshold=0.2)
    assert crag.ids() == [1, 2, 3, 4, 5]
    assert crag.roots() == [3, 4, 5]
    assert crag.parent(1) == 5 and crag.parent(3) is None


def test_extract_reattaches_across_dropped_nodes():
    """With an inner node dropped by the score filter, its children hang
    from the nearest surviving ancestor and stay exact unions."""
    from cmc.hierarchy import MergeEvent, MergeTree

    # hand-built tree with a high-score merge below a low-score one, so
    # the middle node is dropped while its parent survives
    superpixels = np.array([[1, 1, 2, 2, 3, 3]])
    tree = MergeTree(
        superpixels, [MergeEvent(1, 2, 4, 0.5), MergeEvent(3, 4, 5, 0.1)]
    )
    crag = extract_candidates(tree, None, score_threshold=0.3)
    assert crag.ids() == [1, 2, 3, 5]
    assert crag.parent(1) == 5 and crag.parent(2) == 5 and crag.parent(3) == 5
    assert crag.candidates[5].children == (1, 2, 3)
    assert pixels_of(crag, 5) == frozenset((0, c) for c in range(6))
    assert set(crag.adjacency) == {(1, 2), (2, 3)}


def test_extract_negative_max_merges_rejected():
    """Every superpixel is a leaf, so no level cap may drop the leaves."""
    tree, _ = strip_tree()
    with pytest.raises(CmcError, match="^max_merges -1 is negative$"):
        extract_candidates(tree, -1)


@pytest.mark.parametrize("max_merges", [1.5, True, "3"])
def test_extract_max_merges_must_be_an_int(max_merges):
    """1.5 and True used to be taken as caps, "3" to end in a TypeError."""
    tree, _ = strip_tree()
    with pytest.raises(CmcError, match="^max_merges is not a valid int: "):
        extract_candidates(tree, max_merges)
    assert extract_candidates(tree, np.int64(1)) == extract_candidates(tree, 1)


@pytest.mark.parametrize("threshold", [float("nan"), float("inf"), float("-inf")])
def test_extract_non_finite_score_threshold_rejected(threshold):
    """A NaN threshold compares false against every score, so it used to
    keep every candidate, as no threshold does."""
    tree, _ = strip_tree()
    with pytest.raises(CmcError, match="score_threshold"):
        extract_candidates(tree, 5, threshold)


def test_extract_max_merges_zero_on_random():
    rng = np.random.default_rng(8)
    boundary = rng.random((10, 10))
    superpixels = seeded_watershed(boundary, 0.6)
    crag = extract_candidates(build_merge_tree(superpixels, boundary), 0)
    assert crag.leaves() == crag.ids()


def test_merge_tree_rejects_negative_labels():
    boundary = np.zeros((1, 4))
    with pytest.raises(CmcError):
        build_merge_tree(np.array([[1, 1, -1, 2]]), boundary)


@pytest.mark.parametrize(
    "superpixels",
    [
        np.full((4, 4), "a"),
        np.full((4, 4), 0.5),
        np.arange(16.0).reshape(4, 4),
        np.full((4, 4), 2**63, dtype=np.uint64),
        np.full((4, 4), None),
    ],
    ids=["string", "half", "whole-floats", "uint64-past-int64", "object"],
)
def test_merge_tree_rejects_labels_that_are_not_integers(superpixels):
    """The rule of evaluate.int_labels: a string image ended in a bare
    TypeError, and floats were taken as labels."""
    with pytest.raises(DegenerateInput, match="superpixel labels"):
        build_merge_tree(superpixels, np.zeros((4, 4)))


@pytest.mark.parametrize(
    "dtype", [np.int8, np.int16, np.int32, np.uint8, np.uint16, np.uint32, np.uint64]
)
def test_merge_tree_same_for_every_integer_dtype(dtype):
    _, boundary, _ = generate_synthetic(1, 3, 1.0, 0, image_size=96)[0]
    superpixels = seeded_watershed(boundary, 0.5)
    assert superpixels.max() < 128
    want = build_merge_tree(superpixels, boundary)
    got = build_merge_tree(superpixels.astype(dtype), boundary)
    assert got.events == want.events
    assert got.superpixels.dtype == np.int64
    assert np.array_equal(got.superpixels, superpixels)
    same_events(superpixels.astype(dtype), boundary)


def test_merge_tree_same_for_bool_labels():
    boundary = np.array([[0.0, 0.25, 0.5], [1.0, 0.5, 0.25]])
    superpixels = np.array([[True, True, False], [True, False, False]])
    got = build_merge_tree(superpixels, boundary)
    assert got.events == build_merge_tree(superpixels.astype(np.int64), boundary).events
    assert got.events == [MergeEvent(0, 1, 2, 3 * 0.5)]


def ref_adjacency(crag):
    """Every candidate pair with disjoint pixel sets and a 4-neighbour
    pixel pair between them, from the pixel sets."""
    region = {i: pixels_of(crag, i) for i in crag.ids()}
    return {
        (i, j)
        for i, j in itertools.combinations(crag.ids(), 2)
        if region[i].isdisjoint(region[j]) and ref_regions_touch(region[i], region[j])
    }


@pytest.mark.parametrize(
    "max_merges, score_threshold", [(0, None), (3, None), (None, None), (None, 1.0)]
)
def test_extract_adjacency_is_complete(max_merges, score_threshold):
    """extract_candidates emits every disjoint touching candidate pair, on
    watershed graphs of synthetic cells and of noise."""
    rng = np.random.default_rng(31)
    boundaries = [generate_synthetic(1, 3, 1.0, seed, image_size=96)[0][1]
                  for seed in range(3)]
    boundaries += [rng.random((12, 12)) for _ in range(3)]
    inner_edges = 0
    for boundary in boundaries:
        superpixels = seeded_watershed(boundary, 0.5)
        tree = build_merge_tree(superpixels, boundary)
        crag = extract_candidates(tree, max_merges, score_threshold)
        assert set(crag.adjacency) == ref_adjacency(crag)
        check_lift(crag)
        inner_edges += sum(1 for i, j in crag.adjacency if crag.candidates[j].children)
    # the graphs hold edges above the leaves wherever merges are kept
    assert (inner_edges > 0) == (max_merges != 0)
