import itertools
import json
import os
import tempfile
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cmc.crag import (
    UNCOVERED,
    Candidate,
    Solution,
    _selected_neighbors,
    _shortest_path,
    build_crag,
    conflict_cliques,
    crag_from_json,
    crag_to_json,
    edge_key,
    edge_to_str,
    json_edge,
    objective_value,
    solution_from_json,
    solution_to_json,
    sorted_distinct,
    validate_solution,
)
from cmc.errors import (
    AdjacencyBetweenOverlapping,
    CmcError,
    KeyMismatch,
    LeavesDoNotCoverImage,
    NotAdjacent,
    SubsetNotForest,
)
from cmc import cli
from cmc.features import compute_features, edge_feature_names, features_to_json
from cmc.pgm import write_labels, write_probability
from cmc.pipeline import PipelineConfig, build_graph, dump_json
from cmc.synth import generate_synthetic
from util import (
    check_lift,
    inner,
    leaf_image,
    old_crag_json,
    pixel_owners,
    pixels_of,
    quad_crag,
    quad_gt,
    random_crag,
    random_sparse_crag,
    ref_candidate_adjacency,
    ref_check_leaves_and_edges,
    ref_crag_from_json,
    ref_crag_json,
    ref_leaves_under,
    ref_regions_touch,
    same_outcome,
    strip_crag,
    subtree_heights,
    zero_solution,
)


def test_edge_key_canonical():
    assert edge_key(3, 1) == (1, 3)
    assert edge_key(1, 3) == (1, 3)
    assert json_edge("crag.json", edge_to_str((2, 7))) == (2, 7)


def test_quad_structure():
    crag = quad_crag()
    assert crag.ids() == [1, 2, 3, 4, 5, 6, 7]
    assert crag.leaves() == [1, 2, 3, 4]
    assert crag.roots() == [7]
    assert crag.parent(1) == 5 and crag.parent(6) == 7 and crag.parent(7) is None
    assert crag.ancestors(1) == [5, 7]
    assert crag.leaves_under(6) == (3, 4)
    assert crag.leaves_under(7) == (1, 2, 3, 4)
    assert len(crag.adjacency) == 11
    assert len(pixels_of(crag, 7)) == 16
    assert pixels_of(crag, 5) == pixels_of(crag, 1) | pixels_of(crag, 2)


def test_single_leaf_whole_image():
    pixels = frozenset((r, c) for r in range(3) for c in range(3))
    crag = build_crag([], [], leaf_image({1: pixels}, 3, 3))
    assert crag.ids() == [1]
    assert conflict_cliques(crag) == [frozenset([1])]


def test_duplicate_id_rejected():
    cands = [Candidate(3, (1,)), Candidate(3, (2,))]
    with pytest.raises(CmcError, match="duplicate candidate id 3"):
        build_crag(cands, [], leaf_image({1: [(0, 0)], 2: [(0, 1)]}, 2, 1))


def test_negative_id_rejected():
    # negative ids would collide with the UNCOVERED label
    with pytest.raises(CmcError):
        build_crag([Candidate(-1, (1,))], [], leaf_image({1: [(0, 0)]}, 1, 1))


def test_labels_are_the_leaves():
    """An image and no candidates give a Crag whose leaves are the
    image's labels, UNCOVERED left out, each a root without children."""
    crag = build_crag([], None, np.array([[3, UNCOVERED, 7], [7, 0, 3]]))
    assert crag.leaves() == crag.ids() == crag.roots() == [0, 3, 7]
    assert crag.candidates == {i: Candidate(i) for i in (0, 3, 7)}
    assert crag.adjacency == ((0, 3), (0, 7), (3, 7))


def test_childless_candidate_rejected():
    """A leaf is stated by its label alone: a candidate without children
    is rejected, whether or not its id is a label."""
    for cid in (1, 2):
        with pytest.raises(CmcError) as info:
            build_crag([Candidate(cid)], [], leaf_image({1: [(0, 0)]}, 1, 1))
        assert str(info.value) == f"candidate {cid} has no children; a leaf is a label"
    with pytest.raises(CmcError, match="candidate 3 has no children"):
        build_crag([Candidate(2, (1,)), Candidate(3, ())], [], np.array([[1]]))


def test_children_and_pixels_rejected():
    # an inner node's id painted into the label image
    cands = [Candidate(2, children=(1,))]
    labels = leaf_image({1: [(0, 0)], 2: [(0, 1)]}, 2, 1)
    with pytest.raises(LeavesDoNotCoverImage) as info:
        build_crag(cands, [], labels)
    assert str(info.value).endswith(": inner candidate 2 is also a label")


def test_child_without_pixels_rejected():
    """A child with no pixel is no label, so it is an unknown id."""
    with pytest.raises(CmcError, match="candidate 2 has unknown child 1"):
        build_crag([Candidate(2, (1,))], [], leaf_image({}, 1, 1))


def test_ids_beyond_int64_rejected():
    """An inner id or an unsigned label at or above 2**63 used to end in
    a bare OverflowError; a label of 2**64 - 1 must not wrap to
    UNCOVERED."""
    with pytest.raises(CmcError) as info:
        build_crag([Candidate(2**63, (1, 2))], None, np.array([[1, 2]]))
    assert str(info.value) == f"candidate id {2**63} is outside [0, 2**63)"
    for label in (2**63, 2**64 - 1):
        with pytest.raises(LeavesDoNotCoverImage) as info:
            build_crag([], [], np.array([[1, label]], dtype=np.uint64))
        assert str(info.value).endswith(f": label {label} is not below 2**63")


def test_leaf_label_image_checked():
    """A 2-d integer image of leaf ids and UNCOVERED; the Crag keeps a
    read-only int64 copy."""
    with pytest.raises(LeavesDoNotCoverImage) as info:  # below UNCOVERED
        build_crag([], [], np.array([[1, -2]]))
    assert str(info.value).endswith(": label -2 is below -1")
    with pytest.raises(CmcError):
        build_crag([], [], np.array([1, UNCOVERED]))
    with pytest.raises(CmcError):
        build_crag([], [], np.array([[1.0]]))
    with pytest.raises(CmcError):
        build_crag([], [], np.array([[True]]))
    image = np.array([[1, 1]], dtype=np.uint8)
    labels = build_crag([], [], image).leaf_labels()
    image[0, 0] = 2
    assert labels.dtype == np.int64 and labels.tolist() == [[1, 1]]
    assert not labels.flags.writeable


def test_unknown_child_id_rejected():
    cands = [Candidate(2, children=(1, 9))]
    with pytest.raises(CmcError, match="unknown child 9"):
        build_crag(cands, [], leaf_image({1: [(0, 0)]}, 1, 1))


def test_two_parents_rejected():
    """A child listed under two parents, or twice under one: a repeated
    child would count its pixels twice in the parent's size."""
    cands = [Candidate(4, children=(1, 2)), Candidate(5, children=(1, 3))]
    labels = leaf_image({1: [(0, 0)], 2: [(0, 1)], 3: [(0, 2)]}, 3, 1)
    with pytest.raises(SubsetNotForest):
        build_crag(cands, [], labels)
    cands = [Candidate(3, children=(1, 1, 2))]
    labels = leaf_image({1: [(0, 0)], 2: [(0, 1)]}, 2, 1)
    with pytest.raises(SubsetNotForest) as got:
        build_crag(cands, [], labels)
    assert got.value.ids == (1,)


def test_cycle_rejected():
    """No root reaches a cycle, nor the candidates hanging below it."""
    cands = [Candidate(2, children=(1, 3)), Candidate(3, children=(2,))]
    with pytest.raises(SubsetNotForest) as got:
        build_crag(cands, [], leaf_image({1: [(0, 0)], 4: [(0, 1)]}, 2, 1))
    assert got.value.ids == (1, 2, 3)
    with pytest.raises(SubsetNotForest):  # a candidate that is its own child
        build_crag([Candidate(1, children=(1,))], [], leaf_image({}, 1, 1))


def _features_argv(tmp_path, obj):
    """`cmc features` arguments that read crag.json `obj` and flat raw and
    boundary images of its size, all written to tmp_path, and write
    tmp_path / "features.json"."""
    paths = {name: str(tmp_path / name)
             for name in ("crag.json", "raw.pgm", "boundary.pgm", "features.json")}
    (tmp_path / "crag.json").write_text(json.dumps(obj))
    for name in ("raw.pgm", "boundary.pgm"):
        write_probability(paths[name], np.full((obj["height"], obj["width"]), 0.5))
    return ["--crag", paths["crag.json"], "--raw", paths["raw.pgm"],
            "--boundary", paths["boundary.pgm"], "--out", paths["features.json"]]


QUAD_SUBSET = [[1, 5], [2, 5], [3, 6], [4, 6], [5, 7], [6, 7]]


def test_subset_member_rejected(tmp_path, capsys):
    """A "subset" member, which the releases that wrote leaves as
    'pixels' carried, used to be skipped; no release wrote it beside
    'runs', so it is now an unknown member, rejected by name whatever it
    holds."""
    for subset in (QUAD_SUBSET, [[1, 7]], "junk"):
        obj = {**crag_to_json(quad_crag()), "subset": subset}
        with pytest.raises(CmcError) as info:
            crag_from_json(obj)
        assert str(info.value) == "crag.json: crag has unknown key 'subset'"
    assert cli.main(["features", *_features_argv(tmp_path, obj)]) == 1
    assert "unknown key 'subset'" in capsys.readouterr().err
    assert not (tmp_path / "features.json").exists()
    assert "subset" not in crag_to_json(quad_crag())


def test_repeated_child_rejected(tmp_path, capsys):
    """children [1, 1, 2] used to load next to the "subset" member of
    older files, which named each child once, and then counted leaf 1
    twice in candidate 5's size."""
    obj = crag_to_json(quad_crag())
    obj["candidates"][0]["children"] = [1, 1, 2]
    with pytest.raises(SubsetNotForest):
        crag_from_json(obj)
    assert cli.main(["features", *_features_argv(tmp_path, obj)]) == 1
    assert capsys.readouterr().err.startswith("error: ")
    assert not (tmp_path / "features.json").exists()


def test_image_size_numpy_refuses_rejected():
    """Image sizes whose label image numpy refuses before allocating it
    used to end in numpy's ValueError, and 10**6 x 10**6, whose 8 TB it
    fails to allocate, in its MemoryError; each a small file."""
    for height, width, leaf_labels in [
        (2**40, 2**40, []), (1, 2**62, [UNCOVERED, 2**62]), (0, 2**62, []),
        (10**6, 10**6, [UNCOVERED, 10**12]),
    ]:
        obj = {"height": height, "width": width, "leaf_labels": leaf_labels,
               "candidates": [], "adjacency": []}
        with pytest.raises(CmcError, match="too large"):
            crag_from_json(obj)


def test_bad_adjacency_rejected():
    base = [Candidate(4, children=(1, 2))]
    labels = leaf_image({1: [(0, 0)], 2: [(0, 1)], 3: [(0, 3)]}, 4, 1)
    with pytest.raises(CmcError):
        build_crag(base, [(1, 9)], labels)
    with pytest.raises(AdjacencyBetweenOverlapping):
        build_crag(base, [(1, 1)], labels)
    with pytest.raises(AdjacencyBetweenOverlapping):
        build_crag(base, [(1, 4)], labels)  # parent overlaps child
    with pytest.raises(NotAdjacent):
        build_crag(base, [(1, 3)], labels)  # gap at (0, 2)


def test_adjacency_none_is_every_touching_pair():
    """An adjacency of None gives every disjoint touching pair
    (ref_candidate_adjacency), the graph that lists it gives; the other
    checks still run."""
    rng = np.random.default_rng(47)
    for crag in [quad_crag()] + [random_sparse_crag(rng) for _ in range(30)]:
        cands, labels = inner(crag), crag.leaf_labels()
        full = build_crag(cands, None, labels)
        assert set(full.adjacency) == ref_candidate_adjacency(crag.subset, labels)
        assert full == build_crag(cands, full.adjacency, labels)
    with pytest.raises(LeavesDoNotCoverImage):
        build_crag([Candidate(2, (1,))], None, np.array([[1, 2]]))
    with pytest.raises(SubsetNotForest):
        build_crag([Candidate(2, (1, 1))], None, np.array([[1]]))


def test_duplicate_edge_rejected():
    """An edge listed twice, in either order, used to be kept once, in
    build_crag and in crag_from_json alike."""
    labels = np.array([[1, 2]])
    for adjacency in ([(1, 2), (2, 1), (1, 2)], [(2, 1), (2, 1)]):
        with pytest.raises(CmcError) as info:
            build_crag([], adjacency, labels)
        assert str(info.value) == "adjacency lists edge 1-2 twice"
    obj = crag_to_json(build_crag([], None, labels))
    obj["adjacency"] = [[1, 2], [2, 1]]
    with pytest.raises(CmcError) as info:
        crag_from_json(obj)
    assert str(info.value) == "crag.json: adjacency lists edge 1-2 twice"


def check_leaf_numbering(crag):
    """Assert that the rank image names each covered pixel's leaf through
    leaf_order and holds UNCOVERED elsewhere, and that each candidate's
    range of leaf_order holds its leaves (ref_leaves_under)."""
    labels, ranks = crag.leaf_labels(), crag.leaf_ranks()
    covered = labels != UNCOVERED
    assert (ranks[~covered] == UNCOVERED).all()
    order = np.array(crag.leaf_order, dtype=np.int64)
    assert (order[ranks[covered]] == labels[covered]).all()
    for cid in crag.ids():
        lo, hi = crag.leaf_range(cid)
        assert sorted(crag.leaf_order[lo:hi]) == sorted(ref_leaves_under(crag, cid))


def test_lift_matches_references():
    """The leaf numbering (check_leaf_numbering), the adjacency and each
    edge's leaf-pair groups equal the references: the chain lift and the
    dense-lookup incidences (check_lift).  On random graphs, with
    UNCOVERED pixels, on a strip 300 levels deep, and on a crag.json
    that keeps a strict subset of the lift, whose incidences are those
    of the edges it keeps."""
    rng = np.random.default_rng(53)
    crags = [random_crag(rng) for _ in range(40)]
    crags += [random_sparse_crag(rng) for _ in range(40)]
    assert any((c.leaf_labels() == UNCOVERED).any() for c in crags[40:])
    crags.append(strip_crag(301))
    assert max(subtree_heights(crags[-1]).values()) == 300
    for crag in crags:
        check_leaf_numbering(crag)
        check_lift(crag)
    for crag in crags[40:]:
        obj = crag_to_json(crag)
        if len(obj["adjacency"]) < 2:
            continue
        kept = sorted(rng.choice(len(obj["adjacency"]), len(obj["adjacency"]) // 2,
                             replace=False).tolist())
        part = crag_from_json({**obj, "adjacency": [obj["adjacency"][k] for k in kept]})
        assert part.adjacency == tuple(crag.adjacency[k] for k in kept)
        check_lift(part)


def test_children_held_in_id_order():
    """build_crag holds children in id order, so children listed out of
    it give the same Crag and leaf order, and it survives crag.json."""
    labels = np.array([[1, 2, 3, 4]])
    listed = build_crag([Candidate(5, (3, 2)), Candidate(6, (4, 1))], None, labels)
    ordered = build_crag([Candidate(5, (2, 3)), Candidate(6, (1, 4))], None, labels)
    back = crag_from_json(json.loads(json.dumps(crag_to_json(listed))))
    assert back == listed and back.leaf_order == listed.leaf_order
    assert listed == ordered and listed.leaf_order == ordered.leaf_order == (2, 3, 1, 4)
    assert listed.candidates[5].children == (2, 3)


def test_bad_edge_classified_at_depth():
    """A given edge between a candidate and any of its ancestors, or
    itself, is AdjacencyBetweenOverlapping; a disjoint pair with no
    pixel pair between them is NotAdjacent; an unknown id is CmcError;
    the first bad edge in input order is the one reported."""
    rng = np.random.default_rng(59)
    crags = [strip_crag(301)] + [random_sparse_crag(rng) for _ in range(40)]
    for crag in crags:
        cands, labels = inner(crag), crag.leaf_labels()
        good = list(crag.adjacency)
        ids = crag.ids()
        overlapping = [(i, a) for i in ids for a in [i] + crag.ancestors(i)]
        leaves = {i: ref_leaves_under(crag, i) for i in ids}
        pairs = [rng.choice(ids, 2, replace=False).tolist() for _ in range(200)]
        apart = [
            (i, j) for i, j in pairs
            if leaves[i].isdisjoint(leaves[j]) and edge_key(i, j) not in crag.adjacency
        ]
        for k in rng.choice(len(overlapping), min(len(overlapping), 30), replace=False):
            i, j = overlapping[k]
            bad = (i, j) if rng.random() < 0.5 else (j, i)
            with pytest.raises(AdjacencyBetweenOverlapping) as info:
                build_crag(cands, good + [bad] + good[:1] * 2, labels)
            assert info.value.ids == bad
        for k in rng.choice(len(apart), min(len(apart), 30), replace=False):
            i, j = apart[k]
            with pytest.raises(NotAdjacent):
                build_crag(cands, good + [(j, i), (i, i)], labels)
        unknown = max(ids) + 1
        with pytest.raises(CmcError) as info:
            build_crag(cands, good + [(ids[0], unknown), (ids[0], ids[0])], labels)
        assert str(info.value) == (
            f"adjacency edge ({ids[0]}, {unknown}) references unknown id"
        )
        if good:
            with pytest.raises(CmcError) as info:
                build_crag(cands, good + good[::-1] + [(unknown, unknown)], labels)
            assert str(info.value) == (
                f"adjacency lists edge {edge_to_str(good[-1])} twice"
            )


def test_conflict_cliques_quad():
    crag = quad_crag()
    expected = {
        frozenset([1, 5, 7]),
        frozenset([2, 5, 7]),
        frozenset([3, 6, 7]),
        frozenset([4, 6, 7]),
    }
    assert set(conflict_cliques(crag)) == expected


def test_conflict_cliques_flat():
    labels = leaf_image({i: [(0, i - 1)] for i in (1, 2, 3)}, 3, 1)
    crag = build_crag([], [], labels)
    assert conflict_cliques(crag) == [
        frozenset([1]),
        frozenset([2]),
        frozenset([3]),
    ]


def test_conflict_cliques_chain_with_lone_leaf():
    # chain 1 -> 3 -> 4 plus a parentless leaf 2
    cands = [Candidate(3, children=(1,)), Candidate(4, children=(3,))]
    labels = leaf_image({1: [(0, 0)], 2: [(0, 1)]}, 2, 1)
    crag = build_crag(cands, [], labels)
    assert set(conflict_cliques(crag)) == {frozenset([1, 3, 4]), frozenset([2])}


def test_clique_properties_random():
    rng = np.random.default_rng(7)
    for _ in range(40):
        crag = random_crag(rng)
        cliques = conflict_cliques(crag)
        chains = {
            frozenset([leaf] + crag.ancestors(leaf)) for leaf in crag.leaves()
        }
        for clique in cliques:
            assert clique in chains
            for a in clique:
                for b in clique:
                    assert not pixels_of(crag, a).isdisjoint(pixels_of(crag, b))
        assert set().union(*cliques) == set(crag.ids())


def test_validate_accepts_quad_selection():
    crag = quad_crag()
    y = {i: 0 for i in crag.ids()}
    m = {e: 0 for e in crag.adjacency}
    y[5] = y[3] = y[4] = 1
    m[(3, 5)] = 1
    assert validate_solution(crag, Solution(y=y, m=m, objective=0.0)) == []


def test_validate_rejects_overlap_and_path():
    """Selecting a leaf together with its parent, then chaining merges
    around an unmerged edge, must produce both violation families."""
    crag = quad_crag()
    y = {i: 0 for i in crag.ids()}
    m = {e: 0 for e in crag.adjacency}
    y[1] = y[2] = y[3] = y[5] = 1
    m[(1, 2)] = m[(1, 3)] = 1
    violations = validate_solution(crag, Solution(y=y, m=m, objective=0.0))
    families = {v.family for v in violations}
    assert "overlap" in families and "path" in families
    overlaps = {v.ids for v in violations if v.family == "overlap"}
    assert (1, 5) in overlaps and (2, 5) in overlaps
    paths = [v for v in violations if v.family == "path"]
    assert len(paths) == 1
    assert paths[0].ids == (2, 3)
    assert paths[0].path == ((1, 2), (1, 3))


def test_validate_incidence():
    crag = quad_crag()
    sol = zero_solution(crag)
    sol.m[(1, 2)] = 1  # merge an edge with unselected endpoints
    violations = validate_solution(crag, sol)
    assert [v.family for v in violations] == ["incidence"]
    assert violations[0].ids == (1, 2)


def test_validate_all_zero_feasible_random():
    rng = np.random.default_rng(11)
    for _ in range(40):
        crag = random_crag(rng)
        assert validate_solution(crag, zero_solution(crag)) == []


def test_validate_key_mismatch():
    crag = quad_crag()
    sol = zero_solution(crag)
    del sol.y[3]
    with pytest.raises(KeyMismatch):
        validate_solution(crag, sol)
    sol = zero_solution(crag)
    sol.m[(1, 7)] = 0
    with pytest.raises(KeyMismatch):
        validate_solution(crag, sol)
    sol = zero_solution(crag)
    sol.y[3] = 2
    with pytest.raises(KeyMismatch):
        validate_solution(crag, sol)


def test_shortest_selected_path():
    m = {
        (1, 2): 1,
        (2, 3): 1,
        (1, 3): 0,
        (3, 4): 1,
        (1, 4): 1,
    }
    nbrs = _selected_neighbors(m)
    assert _shortest_path(nbrs, 1, 1) == ()
    assert _shortest_path(nbrs, 1, 3) == ((1, 2), (2, 3))
    # direct 1-4 beats 1-2-3-4
    assert _shortest_path(nbrs, 4, 1) == ((1, 4),)
    assert _shortest_path(nbrs, 1, 9) is None


def test_interface_pairs_and_touch():
    """Two 2x1 columns share two 4-neighbor pairs, ((0,0),(0,1)) and
    ((1,0),(1,1)); the edge features see exactly those pairs."""
    a = {(0, 0), (1, 0)}
    b = {(0, 1), (1, 1)}
    crag = build_crag([], [(1, 2)], leaf_image({1: a, 2: b}, 2, 2))
    boundary = np.array([[0.1, 0.5], [0.3, 0.2]])
    f = compute_features(crag, np.zeros((2, 2)), boundary)[1][(1, 2)]
    names = edge_feature_names()
    # pair maxima 0.5 and 0.3
    assert f[names.index("contact_area")] == 2.0
    assert f[names.index("interface_mean")] == pytest.approx(0.4)
    assert f[names.index("interface_var")] == pytest.approx(0.01)
    assert f[names.index("interface_skew")] == pytest.approx(0.0, abs=1e-12)
    # touching is a 4-neighbor pixel pair: the reference and build_crag's
    # accept / NotAdjacent agree
    assert ref_regions_touch(a, b)  # build_crag accepted (1, 2) above
    assert not ref_regions_touch(a, {(0, 2)})
    with pytest.raises(NotAdjacent):
        build_crag([], [(1, 2)], leaf_image({1: a, 2: {(0, 2)}}, 3, 2))
    assert not ref_regions_touch({(0, 0)}, {(1, 1)})  # diagonals do not touch
    with pytest.raises(NotAdjacent):
        build_crag([], [(1, 2)], leaf_image({1: {(0, 0)}, 2: {(1, 1)}}, 2, 2))


def test_objective_value():
    f = {1: 0.5, 2: -0.25}
    g = {(1, 2): -1.0}
    assert objective_value(f, g, {1: 1, 2: 1}, {(1, 2): 1}) == -0.75
    assert objective_value(f, g, {1: 0, 2: 0}, {(1, 2): 0}) == 0.0


def test_rle_roundtrip_random():
    """A one-leaf crag survives crag_to_json / crag_from_json pixel for pixel."""
    rng = np.random.default_rng(3)
    for _ in range(50):
        pixels = frozenset(
            (int(r), int(c))
            for r, c in rng.integers(0, 9, size=(rng.integers(1, 30), 2))
        )
        crag = build_crag([], [], leaf_image({1: pixels}, 9, 9))
        back = crag_from_json(json.loads(json.dumps(crag_to_json(crag))))
        assert pixels_of(back, 1) == pixels


def test_rle_is_compact():
    """One (label, length) pair per run of the row-major image; runs go
    on across rows."""
    pixels = {(0, 0), (0, 1), (0, 2), (0, 4), (1, 0)}
    crag = build_crag([], [], leaf_image({1: pixels}, 5, 2))
    assert crag_to_json(crag)["leaf_labels"] == [1, 3, -1, 1, 1, 2, -1, 4]
    empty = build_crag([], [], np.zeros((0, 3), dtype=np.int64))
    assert crag_to_json(empty)["leaf_labels"] == []


def test_crag_json_roundtrip():
    rng = np.random.default_rng(5)
    crags = [quad_crag()] + [random_crag(rng) for _ in range(20)]
    for crag in crags:
        blob = json.dumps(crag_to_json(crag), sort_keys=True)
        assert crag_from_json(json.loads(blob)) == crag
    # equality sees the pixels: pixel (1, 1) moves from leaf 3 to leaf 1
    quad = quad_crag()
    labels = quad.leaf_labels().copy()
    labels[1, 1] = 1
    moved = build_crag(inner(quad), quad.adjacency, labels)
    assert moved != quad and moved.candidates == quad.candidates


@st.composite
def _label_crags(draw):
    """A Crag over a random label image of at most 6x6 pixels, 0 rows or
    0 columns included: up to four leaf ids anywhere in int64's range,
    UNCOVERED pixels, a root over the leaves when there are two or
    more, and every adjacency."""
    height, width = draw(st.integers(0, 6)), draw(st.integers(0, 6))
    palette = draw(st.lists(st.integers(0, 2**63 - 2), min_size=1, max_size=4,
                            unique=True))
    picks = draw(st.lists(st.integers(-1, len(palette) - 1),
                          min_size=height * width, max_size=height * width))
    labels = np.array([palette[k] if k >= 0 else UNCOVERED for k in picks],
                      dtype=np.int64).reshape(height, width)
    leaves = sorted(set(labels.ravel().tolist()) - {UNCOVERED})
    candidates = [Candidate(2**63 - 1, tuple(leaves))] if len(leaves) > 1 else []
    return build_crag(candidates, None, labels)


@settings(derandomize=True, database=None, max_examples=300, deadline=None)
@given(_label_crags())
def test_crag_json_roundtrip_on_label_images(crag):
    """load(dump(crag)) == crag, and dumping it again gives the same
    bytes; its leaf numbering passes check_leaf_numbering."""
    check_leaf_numbering(crag)
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "crag.json")
        dump_json(path, crag_to_json(crag))
        text = open(path).read()
        back = crag_from_json(cli._load_json(path))
        dump_json(path, crag_to_json(back))
        assert open(path).read() == text
    assert back == crag and back.leaf_labels().shape == (crag.height, crag.width)


def test_leaf_labels_quad_and_uncovered():
    crag = quad_crag()
    labels = crag.leaf_labels()
    assert labels.dtype == np.int64
    assert labels.tolist() == [[1, 1, 2, 2], [1, 3, 3, 2], [1, 3, 3, 4], [4, 4, 4, 4]]
    assert not labels.flags.writeable
    assert crag.leaf_labels() is labels
    crag = build_crag([], [], leaf_image({1: [(0, 1)]}, 3, 1))
    assert crag.leaf_labels().tolist() == [[UNCOVERED, 1, UNCOVERED]]


def test_leaf_labels_json_roundtrip():
    rng = np.random.default_rng(23)
    crags = [quad_crag()] + [random_sparse_crag(rng) for _ in range(20)]
    assert any((c.leaf_labels() == UNCOVERED).any() for c in crags)
    for crag in crags:
        labels = crag.leaf_labels()
        assert labels.shape == (crag.height, crag.width)
        obj = crag_to_json(crag)
        flat = [v for v, n in zip(obj["leaf_labels"][::2], obj["leaf_labels"][1::2])
                for _ in range(n)]
        assert flat == labels.ravel().tolist()
        assert all(set(e) == {"id", "children"} and e["children"]
                   for e in obj["candidates"])
        back = crag_from_json(json.loads(json.dumps(obj)))
        assert np.array_equal(back.leaf_labels(), labels)


def test_readme_crag_json_example():
    """The crag.json example under "On disk" in README.md is what
    crag_to_json writes for the 3x2 graph the text describes, and
    crag_from_json loads it to that graph."""
    readme = open(os.path.join(os.path.dirname(__file__), "..", "README.md")).read()
    block = readme[readme.index("On disk"):].split("```json\n", 1)[1].split("```", 1)[0]
    want = build_crag(
        [Candidate(3, (1, 2))],
        [(1, 2)],
        np.array([[1, 1, 2], [1, 2, 2]]),
    )
    assert json.loads(block) == crag_to_json(want)
    assert crag_from_json(json.loads(block)) == want


def test_crag_to_json_matches_reference_encoder():
    """crag_to_json writes the leaf_labels that the pixel-by-pixel
    encoder writes, on quad_crag, 60 random sparse graphs and 6
    synthetic graphs at 256 px."""
    rng = np.random.default_rng(29)
    crags = [quad_crag()] + [random_sparse_crag(rng) for _ in range(60)]
    for seed in (1, 2, 3):
        for noise in (0.1, 1.0):
            boundary = generate_synthetic(1, 12, noise, seed, image_size=256)[0][1]
            crags.append(build_graph(boundary, PipelineConfig()))
    for crag in crags:
        want = ref_crag_json(
            pixel_owners(crag),
            inner(crag),
            crag.adjacency,
            crag.width,
            crag.height,
        )
        assert crag_to_json(crag) == want


def _edited(edit):
    def text(obj):
        edit(obj)
        return json.dumps(obj)

    return text


# quad_crag's crag.json, broken one way each; its leaf_labels begins
# 1, 2 (leaf 1 for two pixels), 2, 2, and candidates[0] is 5 = {1, 2}
MALFORMED_CRAG_JSON = {
    "missing width": _edited(lambda obj: obj.pop("width")),
    "float run length": _edited(lambda obj: obj["leaf_labels"].__setitem__(1, 2.0)),
    "3-element adjacency entry": _edited(lambda obj: obj["adjacency"][0].append(7)),
    "negative width": _edited(lambda obj: obj.update(width=-4)),
    "zero run length": _edited(lambda obj: obj["leaf_labels"].extend([3, 0])),
    "negative run length": _edited(lambda obj: obj["leaf_labels"].extend([3, -1])),
    "string label": _edited(lambda obj: obj["leaf_labels"].__setitem__(0, "1")),
    "odd leaf_labels length": _edited(lambda obj: obj["leaf_labels"].append(3)),
    "nested list in leaf_labels": _edited(
        lambda obj: obj["leaf_labels"].__setitem__(2, [2, 2])
    ),
    "runs past the image": _edited(lambda obj: obj["leaf_labels"].extend([4, 1])),
    "runs short of the image": _edited(lambda obj: obj["leaf_labels"].__setitem__(1, 1)),
    "missing leaf_labels": _edited(lambda obj: obj.pop("leaf_labels")),
    "boolean id": _edited(lambda obj: obj["candidates"][0].update(id=True)),
    # the entry forms of older releases, rejected by name on any entry
    "inner node with runs": _edited(
        lambda obj: obj["candidates"][0].update(runs=[5, 0, 1])
    ),
    "inner node with pixels": _edited(
        lambda obj: obj["candidates"][0].update(
            pixels=[{"row": 5, "col_start": 0, "col_end": 1}]
        )
    ),
    "inner node with level": _edited(lambda obj: obj["candidates"][0].update(level=1)),
    "leaf entry": _edited(lambda obj: obj["candidates"].insert(0, {"id": 1, "level": 0})),
    "entry without children": _edited(lambda obj: obj["candidates"][0].pop("children")),
    "entry with no child": _edited(lambda obj: obj["candidates"][0].update(children=[])),
    "invalid JSON text": lambda obj: json.dumps(obj)[:-1],
    # faults found by build_crag, which named no file
    "child listed twice": _edited(
        lambda obj: obj["candidates"][0].update(children=[1, 1, 2])
    ),
    "pixel of an inner node": _edited(lambda obj: obj["leaf_labels"].__setitem__(0, 5)),
    "label below UNCOVERED": _edited(lambda obj: obj["leaf_labels"].__setitem__(0, -2)),
    "unknown adjacency id": _edited(lambda obj: obj["adjacency"].append([1, 99])),
}


@pytest.mark.parametrize("case", list(MALFORMED_CRAG_JSON))
def test_malformed_crag_json_rejected(case, tmp_path, capsys):
    """Malformed crag.json raises CmcError; cmc solve exits 1 naming it."""
    path = tmp_path / "crag.json"
    path.write_text(MALFORMED_CRAG_JSON[case](crag_to_json(quad_crag())))
    with pytest.raises(CmcError):
        crag_from_json(cli._load_json(path))
    out = tmp_path / "solution.json"
    argv = ["solve", "--crag", path, "--costs", tmp_path / "costs.json", "--out", out]
    assert cli.main([str(a) for a in argv]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: {path}: ")
    assert not out.exists()


@pytest.mark.parametrize("case, kind", [
    ("child listed twice", SubsetNotForest),
    ("pixel of an inner node", LeavesDoNotCoverImage),
    ("unknown adjacency id", CmcError),
])
def test_crag_json_graph_errors_name_the_file(case, kind, tmp_path, capsys):
    """Errors from build_crag name the file first and keep their class;
    cmc train names the broken one of its --crag files."""
    text = MALFORMED_CRAG_JSON[case](crag_to_json(quad_crag()))
    with pytest.raises(kind) as caught:
        crag_from_json(json.loads(text), "b.json")
    assert str(caught.value).startswith("b.json: ")
    rng = np.random.default_rng(3)
    raw, boundary = rng.random((4, 4)), rng.random((4, 4))
    files = {name: str(tmp_path / name)
             for name in ("good.json", "bad.json", "features.json", "gt.pgm", "model.json")}
    with open(files["good.json"], "w") as fh:
        json.dump(crag_to_json(quad_crag()), fh)
    with open(files["bad.json"], "w") as fh:
        fh.write(text)
    with open(files["features.json"], "w") as fh:
        json.dump(features_to_json(*compute_features(quad_crag(), raw, boundary)), fh)
    write_labels(files["gt.pgm"], quad_gt())
    argv = ["train", "--crag", files["good.json"], "--crag", files["bad.json"]]
    argv += ["--features", files["features.json"]] * 2 + ["--gt", files["gt.pgm"]] * 2
    assert cli.main(argv + ["--out", files["model.json"]]) == 1
    assert capsys.readouterr().err.startswith(f"error: {files['bad.json']}: ")
    assert not os.path.exists(files["model.json"])


def one_fault_variants(rng, crag):
    """(fault, pixel owners, adjacency): the crag's own, then copies with
    one fault each where the crag allows it."""
    owner = pixel_owners(crag)
    adjacency = list(crag.adjacency)
    yield "none", owner, adjacency

    def with_edge(edge):
        changed = list(adjacency)
        changed.insert(int(rng.integers(len(changed) + 1)), edge)
        return changed

    pixel = sorted(owner)[int(rng.integers(len(owner)))]
    labels = [*sorted(set(crag.subset.values())), UNCOVERED - 1]
    label = labels[int(rng.integers(len(labels)))]
    yield "label no leaf", {**owner, pixel: label}, adjacency
    children = [leaf for leaf in crag.leaves() if leaf in crag.subset]
    if children:
        leaf = children[int(rng.integers(len(children)))]
        yield "leaf without pixels", {p: i for p, i in owner.items() if i != leaf}, adjacency
    region = {i: pixels_of(crag, i) for i in crag.ids()}
    apart = [
        (i, j)
        for i, j in itertools.combinations(crag.ids(), 2)
        if region[i].isdisjoint(region[j])
        and not ref_regions_touch(region[i], region[j])
    ]
    if apart:
        yield "non-touching edge", owner, with_edge(
            apart[int(rng.integers(len(apart)))]
        )
    if crag.subset:
        pair = sorted(crag.subset.items())[int(rng.integers(len(crag.subset)))]
        yield "child-parent edge", owner, with_edge(
            pair if rng.random() < 0.5 else pair[::-1]
        )


def test_build_crag_matches_pixel_set_reference():
    """crag_from_json (the label image expanded from leaf_labels, then
    build_crag's checks on it) raises what the per-pixel checks raise and
    gives the same leaf_labels()."""
    rng = np.random.default_rng(44)
    crags = [quad_crag()]
    crags += [random_crag(rng) for _ in range(60)]
    crags += [random_sparse_crag(rng) for _ in range(60)]
    outcomes = Counter()
    for crag in crags:
        cands = inner(crag)
        for fault, owner, adjacency in one_fault_variants(rng, crag):
            size = (crag.width, crag.height)
            obj = ref_crag_json(owner, cands, adjacency, *size)
            try:
                want = ref_check_leaves_and_edges(owner, cands, adjacency, *size)
            except CmcError as exc:
                with pytest.raises(CmcError) as got:
                    crag_from_json(obj)
                assert type(got.value) is type(exc), fault
                outcomes[fault, type(exc).__name__] += 1
                continue
            labels = crag_from_json(obj).leaf_labels()
            assert labels.dtype == want.dtype and np.array_equal(labels, want), fault
            assert not labels.flags.writeable
            outcomes[fault, "accepted"] += 1
    # every variant got the fault's own outcome, and each fault was tried
    assert set(outcomes) == {
        ("none", "accepted"),
        ("label no leaf", "LeavesDoNotCoverImage"),
        ("leaf without pixels", "CmcError"),
        ("non-touching edge", "NotAdjacent"),
        ("child-parent edge", "AdjacencyBetweenOverlapping"),
    }
    assert min(outcomes.values()) > 50


def test_bulk_decoder_matches_run_by_run_on_malformed_files():
    """Every MALFORMED_CRAG_JSON case that parses as JSON raises the
    same class and message through crag_from_json as through the
    pixel-by-pixel reference."""
    seen = 0
    for case, text_of in MALFORMED_CRAG_JSON.items():
        try:
            obj = json.loads(text_of(crag_to_json(quad_crag())))
        except ValueError:
            continue
        assert isinstance(same_outcome(crag_from_json, ref_crag_from_json, obj), CmcError)
        seen += 1
    assert seen == len(MALFORMED_CRAG_JSON) - 1


def test_bulk_decoder_matches_run_by_run_on_valid_graphs():
    """Equal Crags and equal leaf_labels() on random graphs, random
    sparse graphs with uncovered pixels, and synthetic images at 128 and
    256 px, one at 256 px with no cap on merges."""
    rng = np.random.default_rng(61)
    crags = [quad_crag()]
    crags += [random_crag(rng) for _ in range(30)]
    crags += [random_sparse_crag(rng) for _ in range(30)]
    graphs = ((1, 4, 128, 5), (2, 12, 256, 5), (3, 12, 256, None))
    for seed, cells, size, merges in graphs:
        boundary = generate_synthetic(1, cells, 1.0, seed, image_size=size)[0][1]
        crags.append(build_graph(boundary, PipelineConfig(max_merges=merges)))
    for crag in crags:
        obj = json.loads(json.dumps(crag_to_json(crag)))
        assert same_outcome(crag_from_json, ref_crag_from_json, obj) == crag


def _with_leaf_labels(edits):
    """quad_crag's crag.json with entries of its leaf_labels replaced:
    {index: value}, index None to append."""
    obj = crag_to_json(quad_crag())
    for at, value in edits.items():
        if at is None:
            obj["leaf_labels"].append(value)
        else:
            obj["leaf_labels"][at] = value
    return obj


# one fault each in quad_crag's leaf_labels, (label, length) pairs
# (1, 2) (2, 2) (1, 1) (3, 2) (2, 1) (1, 1) (3, 2) (4, 5), and the
# error it raises
LEAF_LABEL_FAULTS = {
    "odd length": ({None: 4}, CmcError, "crag.json: leaf_labels has odd length 17"),
    "length at 2**63": (
        {15: 2**63}, CmcError,
        "crag.json: leaf_labels[15] is not a valid int: 9223372036854775808",
    ),
    "label below -2**63": (
        {0: -(2**63) - 1}, CmcError,
        "crag.json: leaf_labels[0] is not a valid int: -9223372036854775809",
    ),
    "bool length": (
        {3: True}, CmcError, "crag.json: leaf_labels[3] is not a valid int: True",
    ),
    "float label": (
        {2: 2.0}, CmcError, "crag.json: leaf_labels[2] is not a valid int: 2.0",
    ),
    "pair as one entry": (
        {3: [2]}, CmcError, "crag.json: leaf_labels[3] is not a valid int: [2]",
    ),
    "zero length": (
        {5: 0}, CmcError, "crag.json: run length leaf_labels[5] is 0, below 1",
    ),
    "negative last length": (
        {15: -1}, CmcError, "crag.json: run length leaf_labels[15] is -1, below 1",
    ),
    "one pixel short": (
        {15: 4}, CmcError, "crag.json: leaf_labels covers 15 pixels, not 4x4",
    ),
    "one pixel past": (
        {15: 6}, CmcError, "crag.json: leaf_labels covers 17 pixels, not 4x4",
    ),
    "label of an inner node": (
        {0: 5}, LeavesDoNotCoverImage,
        "crag.json: invalid leaf label image: "
        "inner candidate 5 is also a label",
    ),
    "label below UNCOVERED": (
        {14: -2}, LeavesDoNotCoverImage,
        "crag.json: invalid leaf label image: label -2 is below -1",
    ),
    # a leaf is a label, so leaf 3 without pixels is no id at all
    "leaf without pixels": (
        {6: 1, 12: 1}, CmcError, "crag.json: candidate 6 has unknown child 3",
    ),
}


@pytest.mark.parametrize("case", list(LEAF_LABEL_FAULTS))
def test_leaf_labels_fault_names_the_entry(case):
    """crag_from_json raises this class and message, naming the entry at
    fault, as the pixel-by-pixel reference does."""
    edits, kind, message = LEAF_LABEL_FAULTS[case]
    error = same_outcome(crag_from_json, ref_crag_from_json, _with_leaf_labels(edits))
    assert (type(error), str(error)) == (kind, message)


# values put in place of ends of quad_crag's adjacency pairs, {(pair,
# end): value}, and the message, which names the first in file order
ADJACENCY_FAULTS = {
    "bool": ({(0, 1): True}, "True"),
    "float, then string": ({(1, 0): 1.0, (2, 1): "2"}, "1.0"),
    "string, then float": ({(1, 0): "2", (2, 1): 1.0}, "'2'"),
    "past int64, then null": ({(3, 1): 2**63, (5, 0): None}, "9223372036854775808"),
    "below int64": ({(4, 0): -(2**63) - 1}, "-9223372036854775809"),
    "list in the last pair": ({(10, 1): [1]}, "[1]"),
}


@pytest.mark.parametrize("case", list(ADJACENCY_FAULTS))
def test_adjacency_fault_names_the_first_bad_end(case):
    """One int pass checks every end of the adjacency pairs; the first
    bad end in file order is named, as the value-by-value reference
    does."""
    edits, shown = ADJACENCY_FAULTS[case]
    obj = crag_to_json(quad_crag())
    for (pair, end), value in edits.items():
        obj["adjacency"][pair][end] = value
    error = same_outcome(crag_from_json, ref_crag_from_json, obj)
    assert (type(error), str(error)) == (
        CmcError, f"crag.json: adjacency is not a valid int: {shown}"
    )


# values put in place of one leaf_labels entry: labels and lengths in
# and out of range, the int64 limits and past them, bools and other
# JSON types
RUN_VALUES = [
    -2, -1, 0, 1, 2, 3, 4, 5, 16, 2**63 - 1, 2**63, -(2**63), -(2**63) - 1,
    True, False, 1.0, None, "1", [1, 1],
]


def test_bulk_decoder_matches_run_by_run_on_one_changed_coordinate():
    """One entry of leaf_labels replaced, on quad_crag (every entry) and
    on random sparse graphs (six entries each): the same outcome as the
    pixel-by-pixel reference, and each outcome is met."""
    rng = np.random.default_rng(62)
    graphs = [(quad_crag(), None)]
    graphs += [(random_sparse_crag(rng), 6) for _ in range(20)]
    outcomes = Counter()
    for crag, picks in graphs:
        obj = crag_to_json(crag)
        spots = range(len(obj["leaf_labels"]))
        if picks is not None:
            spots = rng.choice(len(spots), picks, replace=False).tolist()
        for at in spots:
            for value in RUN_VALUES:
                changed = json.loads(json.dumps(obj))
                changed["leaf_labels"][at] = value
                outcome = same_outcome(crag_from_json, ref_crag_from_json, changed)
                outcomes[type(outcome).__name__] += 1
    assert {"Crag", "CmcError", "LeavesDoNotCoverImage"} <= set(outcomes)


def test_old_runs_leaf_rejected_by_name(tmp_path, capsys):
    """A crag.json of the last release, leaves under 'runs', is rejected
    by name, with or without a leaf_labels beside it; cmc solve exits 1
    naming the file."""
    obj = old_crag_json(quad_crag())
    message = (
        "crag.json: candidate 1 holds 'runs', the form of an older "
        "release; run build-crag again"
    )
    error = same_outcome(crag_from_json, ref_crag_from_json, obj)
    assert (type(error), str(error)) == (CmcError, message)
    obj["leaf_labels"] = crag_to_json(quad_crag())["leaf_labels"]
    error = same_outcome(crag_from_json, ref_crag_from_json, obj)
    assert (type(error), str(error)) == (CmcError, message)
    path = tmp_path / "crag.json"
    path.write_text(json.dumps(old_crag_json(quad_crag())))
    argv = ["solve", "--crag", path, "--costs", tmp_path / "costs.json",
            "--out", tmp_path / "solution.json"]
    assert cli.main([str(a) for a in argv]) == 1
    assert capsys.readouterr().err == f"error: {path}: {message[len('crag.json: '):]}\n"


def test_old_pixels_leaf_rejected_by_name():
    """A leaf of an older release's crag.json, run objects under
    'pixels', is rejected by name, with or without leaf_labels beside it."""
    obj = old_crag_json(quad_crag())
    for leaf in obj["candidates"][:4]:
        runs = leaf.pop("runs")
        leaf["pixels"] = [
            {"row": r, "col_start": a, "col_end": b}
            for r, a, b in zip(runs[::3], runs[1::3], runs[2::3])
        ]
    message = (
        "crag.json: candidate 1 holds 'pixels', the form of an older "
        "release; run build-crag again"
    )
    error = same_outcome(crag_from_json, ref_crag_from_json, obj)
    assert (type(error), str(error)) == (CmcError, message)
    obj["leaf_labels"] = crag_to_json(quad_crag())["leaf_labels"]
    with pytest.raises(CmcError) as got:
        crag_from_json(obj)
    assert str(got.value) == message


def test_previous_release_rejected_by_name(tmp_path, capsys):
    """A crag.json of the previous release, which listed the leaves as
    entries and every entry's 'level', is rejected by name, as is an
    entry without 'children'; cmc solve exits 1 naming the file, with no
    traceback."""
    obj = old_crag_json(quad_crag())
    obj["leaf_labels"] = crag_to_json(quad_crag())["leaf_labels"]
    for entry in obj["candidates"]:
        entry.pop("runs", None)
    assert obj["candidates"][0] == {"id": 1, "level": 0}
    assert obj["candidates"][4] == {"id": 5, "level": 1, "children": [1, 2]}
    tail = "the form of an older release; run build-crag again"
    error = same_outcome(crag_from_json, ref_crag_from_json, obj)
    assert (type(error), str(error)) == (
        CmcError, f"crag.json: candidate 1 holds 'level', {tail}"
    )
    path = tmp_path / "crag.json"
    path.write_text(json.dumps(obj))
    argv = ["solve", "--crag", path, "--costs", tmp_path / "costs.json",
            "--out", tmp_path / "solution.json"]
    assert cli.main([str(a) for a in argv]) == 1
    assert capsys.readouterr().err == f"error: {path}: candidate 1 holds 'level', {tail}\n"
    assert not (tmp_path / "solution.json").exists()
    del obj["candidates"][:4]
    error = same_outcome(crag_from_json, ref_crag_from_json, obj)
    assert str(error) == f"crag.json: candidate 5 holds 'level', {tail}"
    obj = crag_to_json(quad_crag())
    del obj["candidates"][1]["children"]
    error = same_outcome(crag_from_json, ref_crag_from_json, obj)
    assert str(error) == f"crag.json: candidate 6 has no 'children', {tail}"


def test_solution_json_roundtrip():
    crag = quad_crag()
    sol = zero_solution(crag)
    sol.y[5] = sol.y[3] = sol.y[4] = 1
    sol.m[(3, 5)] = 1
    sol.objective = -4.0
    blob = json.dumps(solution_to_json(sol))
    assert solution_from_json(json.loads(blob)) == sol


def test_sorted_distinct_equals_np_unique():
    """Same values and dtype as np.unique: empty, one-element and 2-d
    arrays, UNCOVERED, int64 and uint64 extremes, bools."""
    i64 = np.iinfo(np.int64)
    cases = [
        np.array([], dtype=np.int64),
        np.zeros((0, 3), dtype=np.uint8),
        np.array([7]),
        np.array([[3, UNCOVERED, 3], [UNCOVERED, 0, 2]]),
        np.array([i64.max, i64.min, 0, i64.max, i64.min, -1]),
        np.array([2**64 - 1, 0, 2**63, 0], dtype=np.uint64),
        np.array([[True, False], [True, True]]),
        np.random.default_rng(12).integers(-3, 4, size=(9, 11)),
    ]
    for values in cases:
        got, want = sorted_distinct(values), np.unique(values)
        assert got.dtype == want.dtype and np.array_equal(got, want)
