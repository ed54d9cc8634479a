"""Segmentation quality measures.

All three measures are computed from one joint label-count table:
variation of information (split/merge conditional entropies, in bits),
Rand index (pairwise agreement in closed form), and a detection score
(greedy one-to-one object matching at IoU > 0.5).
"""

import math
from dataclasses import dataclass

import numpy as np

from .crag import sorted_distinct
from .errors import DegenerateInput, DimensionMismatch, EmptyOverlap


@dataclass
class ContingencyTable:
    counts: dict  # (gt_label, pred_label) -> pixel count
    gt_marginals: dict
    pred_marginals: dict
    total: int


def contingency_table(pred, gt, ignore_background=False):
    """Joint label counts; optionally restricted to gt-foreground pixels."""
    table = _full_table(pred, gt)
    return _foreground(table) if ignore_background else table


def _full_table(pred, gt):
    """Counts over all pixels, in ascending (gt_label, pred_label) order.

    Each pixel's pair is one integer key gt_rank * n_pred + pred_rank,
    where the ranks index the sorted distinct labels (found by
    searchsorted), so any int64 labels work and sorted keys are sorted
    pairs.
    """
    pred, gt = np.asarray(pred), np.asarray(gt)
    if pred.shape != gt.shape:
        raise DimensionMismatch(gt.shape, pred.shape)
    if gt.size == 0:
        raise EmptyOverlap()
    pred, gt = int_labels(pred, "predicted"), int_labels(gt, "ground-truth")
    gu, pu = sorted_distinct(gt), sorted_distinct(pred)
    gi = np.searchsorted(gu, gt.ravel())
    pi = np.searchsorted(pu, pred.ravel())
    keys, counts = np.unique(gi * len(pu) + pi, return_counts=True)
    return _table(
        gu[keys // len(pu)].tolist(), pu[keys % len(pu)].tolist(), counts.tolist()
    )


def int_labels(labels, side):
    """Labels as int64; DegenerateInput for a dtype that would not cast
    exactly (floats, NaN, uint64 above the int64 maximum, objects)."""
    kind = labels.dtype.kind
    if kind not in "biu":
        raise DegenerateInput(
            f"{side} labels must be integers or bools, got {labels.dtype}"
        )
    if kind == "u" and labels.size and int(labels.max()) >= 2**63:
        raise DegenerateInput(f"{side} labels exceed the int64 maximum")
    return labels.astype(np.int64, copy=False)


def _foreground(table):
    """The table restricted to pixels whose gt label is not 0."""
    kept = [(gl, pl, n) for (gl, pl), n in table.counts.items() if gl != 0]
    if not kept:
        raise EmptyOverlap()
    return _table(*zip(*kept))


def _table(gt_labels, pred_labels, counts):
    table = {}
    gt_marginals = {}
    pred_marginals = {}
    for gl, pl, n in zip(gt_labels, pred_labels, counts):
        table[(gl, pl)] = n
        gt_marginals[gl] = gt_marginals.get(gl, 0) + n
        pred_marginals[pl] = pred_marginals.get(pl, 0) + n
    return ContingencyTable(table, gt_marginals, pred_marginals, sum(counts))


def voi(pred, gt, ignore_background=False):
    """(split, merge, total) in bits.

    split = H(pred | gt) counts over-segmentation of gt regions, merge =
    H(gt | pred) under-segmentation.  Sums use fsum, so the split of one
    orientation equals the merge of the swapped orientation exactly.
    """
    return _voi(contingency_table(pred, gt, ignore_background))


def _voi(t):
    n = t.total
    split_terms = []
    merge_terms = []
    for (gl, pl), c in t.counts.items():
        pij = c / n
        split_terms.append(pij * math.log2(t.gt_marginals[gl] / c))
        merge_terms.append(pij * math.log2(t.pred_marginals[pl] / c))
    split = math.fsum(split_terms)
    merge = math.fsum(merge_terms)
    return split, merge, split + merge


def rand_index(pred, gt, ignore_background=False):
    """Fraction of unordered pixel pairs classified the same way by both."""
    return _rand_index(contingency_table(pred, gt, ignore_background))


def _rand_index(t):
    n = t.total
    if n < 2:
        raise DegenerateInput("need at least 2 pixels to form a pair")
    total_pairs = n * (n - 1) // 2
    same_gt = sum(v * (v - 1) // 2 for v in t.gt_marginals.values())
    same_pred = sum(v * (v - 1) // 2 for v in t.pred_marginals.values())
    same_both = sum(v * (v - 1) // 2 for v in t.counts.values())
    return (total_pairs - same_gt - same_pred + 2 * same_both) / total_pairs


def detection_score(pred, gt):
    """(precision, recall, f_score) under greedy IoU > 0.5 matching.

    Label 0 is background on both sides and never an object.  When one
    side has objects and the other has none, the empty side's ratio is
    0; when both are empty, all three scores are 1.
    """
    return _detection_score(contingency_table(pred, gt))


def _detection_score(t):
    n_gt = sum(1 for l in t.gt_marginals if l != 0)
    n_pred = sum(1 for l in t.pred_marginals if l != 0)

    candidates = []
    for (gl, pl), inter in t.counts.items():
        if gl == 0 or pl == 0:
            continue
        union = t.gt_marginals[gl] + t.pred_marginals[pl] - inter
        iou = inter / union
        if iou > 0.5:
            candidates.append((-iou, gl, pl))
    candidates.sort()

    matched_gt = set()
    matched_pred = set()
    for _, gl, pl in candidates:
        if gl in matched_gt or pl in matched_pred:
            continue
        matched_gt.add(gl)
        matched_pred.add(pl)
    tp = len(matched_gt)

    if n_pred:
        precision = tp / n_pred
    else:
        precision = 1.0 if n_gt == 0 else 0.0
    if n_gt:
        recall = tp / n_gt
    else:
        recall = 1.0 if n_pred == 0 else 0.0
    if precision + recall > 0:
        f_score = 2 * precision * recall / (precision + recall)
    else:
        f_score = 0.0
    return precision, recall, f_score


def segmentation_metrics(pred, gt, ignore_background=False):
    """All measures in one flat dict (the shape written by the CLI).

    One table over all pixels serves detection; VOI and Rand read it, or
    its gt-foreground part when ignore_background is set.
    """
    full = _full_table(pred, gt)
    t = _foreground(full) if ignore_background else full
    split, merge, total = _voi(t)
    rand = _rand_index(t)
    precision, recall, f_score = _detection_score(full)
    return {
        "voi_split": split,
        "voi_merge": merge,
        "voi": total,
        "rand": rand,
        "precision": precision,
        "recall": recall,
        "f_score": f_score,
    }
