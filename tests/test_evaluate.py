import numpy as np
import pytest

from cmc.errors import DegenerateInput, DimensionMismatch, EmptyOverlap
from cmc.evaluate import (
    _detection_score,
    contingency_table,
    detection_score,
    rand_index,
    segmentation_metrics,
    voi,
)

from util import ref_detection_score


def random_labels(rng, shape=(8, 8), n_labels=3):
    return rng.integers(0, n_labels + 1, size=shape)


def test_voi_identity():
    rng = np.random.default_rng(0)
    for _ in range(50):
        x = random_labels(rng)
        assert voi(x, x) == (0.0, 0.0, 0.0)


def test_voi_four_pixel_split():
    gt = np.array([[1, 1, 1, 1]])
    pred = np.array([[1, 1, 2, 2]])
    assert voi(pred, gt) == (1.0, 0.0, 1.0)
    assert voi(gt, pred) == (0.0, 1.0, 1.0)


def test_voi_split_merge_swap_exact():
    rng = np.random.default_rng(1)
    for _ in range(50):
        a = random_labels(rng)
        b = random_labels(rng)
        sa, ma, ta = voi(a, b)
        sb, mb, tb = voi(b, a)
        assert sa == mb and ma == sb and ta == tb


def test_voi_nonnegative():
    rng = np.random.default_rng(2)
    for _ in range(30):
        s, m, t = voi(random_labels(rng), random_labels(rng))
        assert s >= 0.0 and m >= 0.0 and t == s + m


def test_voi_label_permutation_invariant():
    rng = np.random.default_rng(3)
    a = random_labels(rng)
    b = random_labels(rng)
    perm = {0: 0, 1: 3, 2: 1, 3: 2}
    a2 = np.vectorize(perm.get)(a)
    assert voi(a2, b) == voi(a, b)
    assert rand_index(a2, b) == rand_index(a, b)


def test_rand_identity_and_split():
    rng = np.random.default_rng(4)
    for _ in range(50):
        x = random_labels(rng)
        assert rand_index(x, x) == 1.0
    gt = np.array([[1, 1, 1, 1]])
    pred = np.array([[1, 1, 2, 2]])
    assert rand_index(pred, gt) == pytest.approx(1 / 3)


def test_rand_all_singletons():
    gt = np.arange(1, 10).reshape(3, 3)
    assert rand_index(gt, gt) == 1.0
    # every pair split in pred, every pair joined in gt: no agreement
    assert rand_index(gt, np.ones((3, 3), dtype=np.int64)) == 0.0


def test_rand_range():
    rng = np.random.default_rng(5)
    for _ in range(30):
        r = rand_index(random_labels(rng), random_labels(rng))
        assert 0.0 <= r <= 1.0


def test_ignore_background_restricts_to_foreground():
    rng = np.random.default_rng(6)
    gt = random_labels(rng, n_labels=2)
    pred = random_labels(rng, n_labels=2)
    noisy = pred.copy()
    noisy[gt == 0] = rng.integers(0, 5, size=int((gt == 0).sum()))
    assert voi(noisy, gt, ignore_background=True) == voi(
        pred, gt, ignore_background=True
    )
    keep = gt != 0
    assert voi(pred, gt, ignore_background=True) == voi(
        pred[keep].reshape(1, -1), gt[keep].reshape(1, -1)
    )


def test_empty_overlap_and_degenerate():
    zeros = np.zeros((3, 3), dtype=np.int64)
    with pytest.raises(EmptyOverlap):
        voi(zeros, zeros, ignore_background=True)
    with pytest.raises(DegenerateInput):
        rand_index(np.array([[1]]), np.array([[1]]))
    with pytest.raises(DimensionMismatch):
        voi(np.zeros((2, 2)), np.zeros((3, 3)))


def test_contingency_invariants():
    rng = np.random.default_rng(7)
    pred = random_labels(rng)
    gt = random_labels(rng)
    t = contingency_table(pred, gt)
    assert sum(t.counts.values()) == t.total == pred.size
    assert sum(t.gt_marginals.values()) == t.total
    assert sum(t.pred_marginals.values()) == t.total
    for (gl, pl), c in t.counts.items():
        assert c <= t.gt_marginals[gl] and c <= t.pred_marginals[pl]


def test_detection_identity():
    rng = np.random.default_rng(8)
    for _ in range(10):
        x = random_labels(rng)
        if not x.any():
            continue
        assert detection_score(x, x) == (1.0, 1.0, 1.0)


def test_detection_spurious_and_missed():
    gt = np.array([[1, 1, 1, 1, 2, 2, 2, 2]])
    pred = np.array([[1, 1, 1, 1, 0, 0, 3, 3]])
    # one true match, one unmatched prediction, one unmatched object:
    # IoU of the half-covered object is exactly 0.5, below the strict cut
    assert detection_score(pred, gt) == (0.5, 0.5, 0.5)


def test_detection_empty_sides():
    zeros = np.zeros((2, 2), dtype=np.int64)
    ones = np.array([[1, 1], [1, 1]])
    assert detection_score(zeros, zeros) == (1.0, 1.0, 1.0)
    assert detection_score(zeros, ones) == (0.0, 0.0, 0.0)
    assert detection_score(ones, zeros) == (0.0, 0.0, 0.0)


def test_detection_one_to_one_matching():
    # two predictions overlap one object; only the better one may match
    gt = np.array([[1, 1, 1, 1, 1, 1, 0, 0]])
    pred = np.array([[2, 2, 2, 2, 2, 3, 3, 3]])
    p, r, f = detection_score(pred, gt)
    assert p == 0.5 and r == 1.0
    assert f == pytest.approx(2 / 3)


def test_detection_counts_what_greedy_matching_matches():
    """Each pair of IoU > 0.5 is the only such pair of both its objects,
    so counting them scores as the greedy matching did: on random label
    images with background, tied overlaps and sides without objects."""
    rng = np.random.default_rng(44)
    for _ in range(2000):
        shape = tuple(rng.integers(1, 7, size=2))
        pred, gt = (random_labels(rng, shape, int(rng.integers(0, 5))) for _ in "pg")
        t = contingency_table(pred, gt)
        assert _detection_score(t) == ref_detection_score(t)
    # two tied IoU pairs, two objects left unmatched, and empty sides
    pred = np.array([[1, 1, 2, 2, 3, 0, 4, 4]])
    gt = np.array([[5, 5, 6, 6, 6, 0, 0, 7]])
    for p, g in ((pred, gt), (gt, pred), (pred * 0, gt), (pred, gt * 0)):
        t = contingency_table(p, g)
        assert _detection_score(t) == ref_detection_score(t)


def test_segmentation_metrics_dict():
    rng = np.random.default_rng(9)
    pred, gt = random_labels(rng), random_labels(rng)
    out = segmentation_metrics(pred, gt)
    assert set(out) == {
        "voi_split",
        "voi_merge",
        "voi",
        "rand",
        "precision",
        "recall",
        "f_score",
    }
    s, m, t = voi(pred, gt)
    assert (out["voi_split"], out["voi_merge"], out["voi"]) == (s, m, t)
    assert out["rand"] == rand_index(pred, gt)
    assert (out["precision"], out["recall"], out["f_score"]) == detection_score(
        pred, gt
    )


def ref_contingency_table(pred, gt, ignore_background=False):
    """Joint counts from np.unique over stacked (gt, pred) rows."""
    g = np.asarray(gt).ravel().astype(np.int64)
    p = np.asarray(pred).ravel().astype(np.int64)
    if ignore_background:
        g, p = g[g != 0], p[g != 0]
    pairs, counts = np.unique(np.stack([g, p], axis=1), axis=0, return_counts=True)
    table, gt_marginals, pred_marginals = {}, {}, {}
    for (gl, pl), n in zip(pairs.tolist(), counts.tolist()):
        table[(gl, pl)] = n
        gt_marginals[gl] = gt_marginals.get(gl, 0) + n
        pred_marginals[pl] = pred_marginals.get(pl, 0) + n
    return table, gt_marginals, pred_marginals, int(g.size)


def test_contingency_table_matches_stacked_rows_reference():
    """Same counts, marginals and dict order as the row-wise table, also
    for negative, huge and bool labels and with the background left out;
    the metrics dict equals the three public measures."""
    rng = np.random.default_rng(10)
    for k in range(60):
        shape = tuple(int(v) for v in rng.integers(1, 12, size=2))
        pred = random_labels(rng, shape, n_labels=int(rng.integers(1, 6)))
        gt = random_labels(rng, shape, n_labels=int(rng.integers(1, 6)))
        if k % 3 == 1:
            pred = pred * 2**40 - 7
        if k % 3 == 2:
            gt = np.where(gt == 2, -(2**50), gt)
            pred = pred.astype(np.uint16) + 60000
        if k % 4 == 3:
            pred = pred > 1
        if k % 8 == 7:
            gt = gt > 0
        for ignore in (False, True):
            if ignore and not gt.any():
                continue
            t = contingency_table(pred, gt, ignore)
            counts, gm, pm, total = ref_contingency_table(pred, gt, ignore)
            assert list(t.counts.items()) == list(counts.items())
            assert list(t.gt_marginals.items()) == list(gm.items())
            assert list(t.pred_marginals.items()) == list(pm.items())
            assert t.total == total
            if total < 2:
                continue
            out = segmentation_metrics(pred, gt, ignore_background=ignore)
            assert (out["voi_split"], out["voi_merge"], out["voi"]) == voi(
                pred, gt, ignore
            )
            assert out["rand"] == rand_index(pred, gt, ignore)
            assert (out["precision"], out["recall"], out["f_score"]) == (
                detection_score(pred, gt)
            )


# labels no int64 holds exactly; each used to be cast to int64 in silence
BAD_LABELS = {
    "fractional": np.array([[0.5, 1.5], [2.7, 3.0]]),
    "NaN": np.array([[np.nan, 1.0], [2.0, 2.0]]),
    "uint64 past the int64 maximum": np.array([[2**63, 1], [2, 2]], dtype=np.uint64),
    "Python ints past int64": np.array([[2**70, 1], [2, 2]], dtype=object),
}


@pytest.mark.parametrize("case", sorted(BAD_LABELS))
def test_labels_that_int64_cannot_hold_rejected(case):
    bad, good = BAD_LABELS[case], np.array([[0, 1], [2, 2]])
    for pred, gt in ((bad, good), (good, bad)):
        for measure in (
            contingency_table, voi, rand_index, detection_score, segmentation_metrics
        ):
            with pytest.raises(DegenerateInput, match="labels"):
                measure(pred, gt)


def test_uint64_labels_up_to_the_int64_maximum_accepted():
    top = np.iinfo(np.int64).max
    pred = np.array([[top, 1], [2, 2]])
    gt = np.array([[0, 1], [2, 2]])
    assert segmentation_metrics(pred.astype(np.uint64), gt) == segmentation_metrics(
        pred, gt
    )
    assert contingency_table(pred.astype(np.uint64), gt).counts[(0, top)] == 1
