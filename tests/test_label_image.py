"""Consumers of Crag.leaf_labels() against per-pixel references over the
candidates' pixel sets, on random CRAGs with uncovered pixels and
multi-component candidates."""

import numpy as np

from cmc.costmodel import leaf_gt_labels
from cmc.crag import UNCOVERED, Candidate, Solution, build_crag, validate_solution
from cmc.solver import extract_segmentation

from util import pixels_of, random_sparse_crag


def ref_segmentation(crag, solution):
    """Components of selected candidates joined by merged edges, labelled
    1..C by their smallest pixel in row-major order."""
    group = {i: {i} for i in crag.ids() if solution.y[i]}
    for (i, j), merged in sorted(solution.m.items()):
        if merged and group[i] is not group[j]:
            joined = group[i] | group[j]
            for k in joined:
                group[k] = joined
    components = {id(g): g for g in group.values()}.values()
    keyed = sorted(
        (min(min(pixels_of(crag, i)) for i in members), sorted(members))
        for members in components
    )
    labels = np.zeros((crag.height, crag.width), dtype=np.int64)
    for label, (_, members) in enumerate(keyed, start=1):
        for cid in members:
            for (r, c) in pixels_of(crag, cid):
                labels[r, c] = label
    return labels


def random_feasible_solution(rng, crag):
    """Disjoint candidates in random groups; edges merged within a group."""
    taken = set()
    y = dict.fromkeys(crag.ids(), 0)
    for cid in rng.permutation(crag.ids()).tolist():
        if rng.random() < 0.7 and taken.isdisjoint(pixels_of(crag, cid)):
            y[cid] = 1
            taken |= pixels_of(crag, cid)
    group = {cid: int(rng.integers(3)) for cid in crag.ids()}
    m = {
        (i, j): int(bool(y[i] and y[j] and group[i] == group[j]))
        for i, j in crag.adjacency
    }
    return Solution(y=y, m=m, objective=0.0)


def shifted(crag, solution, by):
    """crag and solution with every candidate id raised by `by`."""
    cands = [
        Candidate(i + by, tuple(k + by for k in c.children))
        for i, c in crag.candidates.items() if c.children
    ]
    labels = crag.leaf_labels()
    labels = np.where(labels == UNCOVERED, UNCOVERED, labels + by)
    edges = [(i + by, j + by) for i, j in crag.adjacency]
    y = {i + by: v for i, v in solution.y.items()}
    m = {(i + by, j + by): v for (i, j), v in solution.m.items()}
    return build_crag(cands, edges, labels), Solution(y, m, solution.objective)


def test_extract_segmentation_matches_reference():
    """Also with every id shifted by 2**62: ids that large are valid, and
    no table may be sized by them."""
    rng = np.random.default_rng(53)
    multi = 0
    for _ in range(60):
        crag = random_sparse_crag(rng)
        sol = random_feasible_solution(rng, crag)
        for graph, solution in ((crag, sol), shifted(crag, sol, 2**62)):
            assert validate_solution(graph, solution) == []
            seg = extract_segmentation(graph, solution)
            assert seg.dtype == np.int64
            assert np.array_equal(seg, ref_segmentation(graph, solution))
        multi += seg.max() > 1
    assert multi > 20


def test_leaf_gt_labels_matches_reference():
    rng = np.random.default_rng(59)
    for _ in range(40):
        crag = random_sparse_crag(rng)
        gt = rng.integers(0, 3, size=(crag.height, crag.width))
        want = {
            leaf: int(np.argmax(np.bincount([gt[p] for p in pixels_of(crag, leaf)])))
            for leaf in crag.leaves()
        }
        assert leaf_gt_labels(crag, gt) == want
