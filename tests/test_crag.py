import itertools
import json
import os
from collections import Counter

import numpy as np
import pytest

from cmc.crag import (
    UNCOVERED,
    Candidate,
    Solution,
    _selected_neighbors,
    _shortest_path,
    build_crag,
    candidate_adjacency,
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
    OverlappingLeaves,
    SubsetNotForest,
)
from cmc import cli
from cmc.features import compute_features, edge_feature_names, features_to_json
from cmc.pgm import write_labels, write_probability
from cmc.pipeline import PipelineConfig, build_graph
from cmc.synth import generate_synthetic
from util import (
    leaf_image,
    pixels_of,
    quad_crag,
    quad_gt,
    random_crag,
    random_sparse_crag,
    ref_check_leaves_and_edges,
    ref_crag_json,
    ref_decode_pixels,
    ref_regions_touch,
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
    crag = build_crag([Candidate(1, 0)], [], leaf_image({1: pixels}, 3, 3))
    assert crag.ids() == [1]
    assert conflict_cliques(crag) == [frozenset([1])]


def test_duplicate_id_rejected():
    cands = [Candidate(1, 0), Candidate(1, 0)]
    with pytest.raises(CmcError):
        build_crag(cands, [], leaf_image({1: [(0, 0), (0, 1)]}, 2, 1))


def test_negative_id_rejected():
    # negative ids would collide with the UNCOVERED label
    with pytest.raises(CmcError):
        build_crag([Candidate(-1, 0)], [], leaf_image({-1: [(0, 0)]}, 1, 1))


def test_negative_level_rejected():
    with pytest.raises(CmcError):
        build_crag([Candidate(1, -1)], [], leaf_image({1: [(0, 0)]}, 1, 1))


def test_children_and_pixels_rejected():
    # an inner node's id painted into the label image
    cands = [Candidate(1, 0), Candidate(2, 1, children=(1,))]
    labels = leaf_image({1: [(0, 0)], 2: [(0, 1)]}, 2, 1)
    with pytest.raises(CmcError):
        build_crag(cands, [], labels)


def test_pixelless_leaf_rejected():
    with pytest.raises(LeavesDoNotCoverImage):
        build_crag([Candidate(1, 0)], [], leaf_image({}, 1, 1))


def test_leaf_label_image_checked():
    """A 2-d integer image of leaf ids and UNCOVERED; the Crag keeps a
    read-only int64 copy."""
    cands = [Candidate(1, 0)]
    with pytest.raises(LeavesDoNotCoverImage):  # 9 is not a leaf id
        build_crag(cands, [], np.array([[1, 9]]))
    with pytest.raises(CmcError):
        build_crag(cands, [], np.array([1, UNCOVERED]))
    with pytest.raises(CmcError):
        build_crag(cands, [], np.array([[1.0]]))
    with pytest.raises(CmcError):
        build_crag(cands, [], np.array([[True]]))
    image = np.array([[1, 1]], dtype=np.uint8)
    labels = build_crag(cands, [], image).leaf_labels()
    image[0, 0] = 2
    assert labels.dtype == np.int64 and labels.tolist() == [[1, 1]]
    assert not labels.flags.writeable


def test_unknown_child_id_rejected():
    cands = [Candidate(1, 0), Candidate(2, 1, children=(1, 9))]
    with pytest.raises(CmcError, match="unknown child 9"):
        build_crag(cands, [], leaf_image({1: [(0, 0)]}, 1, 1))


def test_two_parents_rejected():
    """A child listed under two parents, or twice under one: a repeated
    child would count its pixels twice in the parent's size."""
    cands = [
        Candidate(1, 0),
        Candidate(2, 0),
        Candidate(3, 0),
        Candidate(4, 1, children=(1, 2)),
        Candidate(5, 1, children=(1, 3)),
    ]
    labels = leaf_image({1: [(0, 0)], 2: [(0, 1)], 3: [(0, 2)]}, 3, 1)
    with pytest.raises(SubsetNotForest):
        build_crag(cands, [], labels)
    cands = [Candidate(1, 0), Candidate(2, 0), Candidate(3, 1, children=(1, 1, 2))]
    labels = leaf_image({1: [(0, 0)], 2: [(0, 1)]}, 2, 1)
    with pytest.raises(SubsetNotForest) as got:
        build_crag(cands, [], labels)
    assert got.value.ids == (1,)


def test_cycle_rejected():
    """No root reaches a cycle, nor the candidates hanging below it."""
    cands = [
        Candidate(1, 0),
        Candidate(2, 1, children=(1, 3)),
        Candidate(3, 1, children=(2,)),
        Candidate(4, 0),
    ]
    with pytest.raises(SubsetNotForest) as got:
        build_crag(cands, [], leaf_image({1: [(0, 0)], 4: [(0, 1)]}, 2, 1))
    assert got.value.ids == (1, 2, 3)
    with pytest.raises(SubsetNotForest):  # a candidate that is its own child
        build_crag([Candidate(1, 1, children=(1,))], [], leaf_image({}, 1, 1))


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


def test_subset_member_not_read(tmp_path):
    """A "subset" member, which older files carry, is not read: the
    children alone state the nesting."""
    for subset in (QUAD_SUBSET, [[1, 7]], "junk"):
        obj = {**crag_to_json(quad_crag()), "subset": subset}
        assert crag_from_json(obj) == quad_crag()
    assert cli.main(["features", *_features_argv(tmp_path, obj)]) == 0
    assert "subset" not in crag_to_json(quad_crag())


def test_repeated_child_rejected(tmp_path, capsys):
    """children [1, 1, 2] used to load next to a "subset" member naming
    each child once, and then counted leaf 1 twice in candidate 5's size."""
    obj = {**crag_to_json(quad_crag()), "subset": QUAD_SUBSET}
    obj["candidates"][4]["children"] = [1, 1, 2]
    with pytest.raises(SubsetNotForest):
        crag_from_json(obj)
    assert cli.main(["features", *_features_argv(tmp_path, obj)]) == 1
    assert capsys.readouterr().err.startswith("error: ")
    assert not (tmp_path / "features.json").exists()


def test_out_of_bounds_pixel_rejected():
    """A crag.json run that leaves the 2x2 image, in each direction."""
    for pixel in [(0, 5), (0, 2), (2, 0), (-1, 0), (0, -1)]:
        obj = ref_crag_json({1: [pixel]}, [Candidate(1, 0)], [], 2, 2)
        with pytest.raises(LeavesDoNotCoverImage):
            crag_from_json(obj)


def test_image_size_numpy_refuses_rejected():
    """Image sizes whose label image numpy refuses before allocating it
    used to end in numpy's ValueError."""
    for height, width in [(2**40, 2**40), (1, 2**62), (0, 2**62)]:
        obj = {"height": height, "width": width, "candidates": [], "adjacency": []}
        with pytest.raises(CmcError, match="too large"):
            crag_from_json(obj)


def test_overlapping_leaves_rejected():
    """Runs (0, 0:2) of leaf 1 and (0, 1:2) of leaf 2 share pixel (0, 1)."""
    pixels = {1: [(0, 0), (0, 1)], 2: [(0, 1)]}
    obj = ref_crag_json(pixels, [Candidate(1, 0), Candidate(2, 0)], [], 2, 1)
    with pytest.raises(OverlappingLeaves) as got:
        crag_from_json(obj)
    assert got.value.ids == (1, 2)


def test_bad_adjacency_rejected():
    base = [
        Candidate(1, 0),
        Candidate(2, 0),
        Candidate(3, 0),
        Candidate(4, 1, children=(1, 2)),
    ]
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
    """An adjacency of None gives all of candidate_adjacency, the graph
    that lists it gives; the other checks still run."""
    rng = np.random.default_rng(47)
    for crag in [quad_crag()] + [random_sparse_crag(rng) for _ in range(30)]:
        cands, labels = list(crag.candidates.values()), crag.leaf_labels()
        full = build_crag(cands, None, labels)
        assert set(full.adjacency) == candidate_adjacency(crag.subset, labels)
        assert full == build_crag(cands, full.adjacency, labels)
    with pytest.raises(LeavesDoNotCoverImage):
        build_crag([Candidate(1, 0)], None, np.array([[1, 2]]))
    with pytest.raises(SubsetNotForest):
        build_crag([Candidate(1, 0), Candidate(2, 1, (1, 1))], None, np.array([[1]]))


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
    cands = [Candidate(i, 0) for i in (1, 2, 3)]
    labels = leaf_image({i: [(0, i - 1)] for i in (1, 2, 3)}, 3, 1)
    crag = build_crag(cands, [], labels)
    assert conflict_cliques(crag) == [
        frozenset([1]),
        frozenset([2]),
        frozenset([3]),
    ]


def test_conflict_cliques_chain_with_lone_leaf():
    # chain 1 -> 3 -> 4 plus a parentless leaf 2
    cands = [
        Candidate(1, 0),
        Candidate(2, 0),
        Candidate(3, 1, children=(1,)),
        Candidate(4, 2, children=(3,)),
    ]
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
    leaves = [Candidate(1, 0), Candidate(2, 0)]
    crag = build_crag(leaves, [(1, 2)], leaf_image({1: a, 2: b}, 2, 2))
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
        build_crag(leaves, [(1, 2)], leaf_image({1: a, 2: {(0, 2)}}, 3, 2))
    assert not ref_regions_touch({(0, 0)}, {(1, 1)})  # diagonals do not touch
    with pytest.raises(NotAdjacent):
        build_crag(leaves, [(1, 2)], leaf_image({1: {(0, 0)}, 2: {(1, 1)}}, 2, 2))


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
        crag = build_crag([Candidate(1, 0)], [], leaf_image({1: pixels}, 9, 9))
        back = crag_from_json(json.loads(json.dumps(crag_to_json(crag))))
        assert pixels_of(back, 1) == pixels


def test_rle_is_compact():
    pixels = {(0, 0), (0, 1), (0, 2), (0, 4), (1, 0)}
    crag = build_crag([Candidate(1, 0)], [], leaf_image({1: pixels}, 5, 2))
    runs = crag_to_json(crag)["candidates"][0]["pixels"]
    assert runs == [
        {"row": 0, "col_start": 0, "col_end": 3},
        {"row": 0, "col_start": 4, "col_end": 5},
        {"row": 1, "col_start": 0, "col_end": 1},
    ]


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
    moved = build_crag(quad.candidates.values(), quad.adjacency, labels)
    assert moved != quad and moved.candidates == quad.candidates


def test_leaf_labels_quad_and_uncovered():
    crag = quad_crag()
    labels = crag.leaf_labels()
    assert labels.dtype == np.int64
    assert labels.tolist() == [[1, 1, 2, 2], [1, 3, 3, 2], [1, 3, 3, 4], [4, 4, 4, 4]]
    assert not labels.flags.writeable
    assert crag.leaf_labels() is labels
    crag = build_crag([Candidate(1, 0)], [], leaf_image({1: [(0, 1)]}, 3, 1))
    assert crag.leaf_labels().tolist() == [[UNCOVERED, 1, UNCOVERED]]


def test_leaf_labels_json_roundtrip():
    rng = np.random.default_rng(23)
    crags = [quad_crag()] + [random_sparse_crag(rng) for _ in range(20)]
    assert any((c.leaf_labels() == UNCOVERED).any() for c in crags)
    for crag in crags:
        labels = crag.leaf_labels()
        assert labels.shape == (crag.height, crag.width)
        obj = crag_to_json(crag)
        leaves = [e for e in obj["candidates"] if "pixels" in e]
        assert [e["id"] for e in leaves] == crag.leaves()
        for entry in leaves:
            assert ref_decode_pixels(entry["pixels"]) == {
                tuple(p) for p in np.argwhere(labels == entry["id"]).tolist()
            }
        back = crag_from_json(json.loads(json.dumps(obj)))
        assert np.array_equal(back.leaf_labels(), labels)


def test_crag_to_json_matches_reference_encoder():
    """crag_to_json splits label-image rows into the same runs, in the
    same order, as the per-leaf pixel-set encoder, on quad_crag, 60
    random sparse graphs and 6 synthetic graphs at 256 px."""
    rng = np.random.default_rng(29)
    crags = [quad_crag()] + [random_sparse_crag(rng) for _ in range(60)]
    for seed in (1, 2, 3):
        for noise in (0.1, 1.0):
            boundary = generate_synthetic(1, 12, noise, seed, image_size=256)[0][1]
            crags.append(build_graph(boundary, PipelineConfig()))
    for crag in crags:
        pixels = {leaf: pixels_of(crag, leaf) for leaf in crag.leaves()}
        want = ref_crag_json(
            pixels,
            crag.candidates.values(),
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


# quad_crag's crag.json, broken one way each; candidates[0] is leaf 1,
# whose first run is {"row": 0, "col_start": 0, "col_end": 2}
MALFORMED_CRAG_JSON = {
    "missing width": _edited(lambda obj: obj.pop("width")),
    "float col_end": _edited(
        lambda obj: obj["candidates"][0]["pixels"][0].update(col_end=2.0)
    ),
    "3-element adjacency entry": _edited(lambda obj: obj["adjacency"][0].append(7)),
    "negative width": _edited(lambda obj: obj.update(width=-4)),
    "col_start == col_end": _edited(
        lambda obj: obj["candidates"][0]["pixels"].append(
            {"row": 3, "col_start": 2, "col_end": 2}
        )
    ),
    "col_start > col_end": _edited(
        lambda obj: obj["candidates"][0]["pixels"].append(
            {"row": 3, "col_start": 3, "col_end": 1}
        )
    ),
    "string row": _edited(
        lambda obj: obj["candidates"][0]["pixels"][0].update(row="0")
    ),
    "boolean id": _edited(lambda obj: obj["candidates"][0].update(id=True)),
    # candidate 5's pixels, even a run at row 5 of the 4-row image, used
    # to be dropped without a word
    "inner node with pixels": _edited(
        lambda obj: obj["candidates"][4].update(
            pixels=[{"row": 5, "col_start": 0, "col_end": 1}]
        )
    ),
    "invalid JSON text": lambda obj: json.dumps(obj)[:-1],
    # faults found by build_crag and by run painting, which named no file
    "child listed twice": _edited(
        lambda obj: obj["candidates"][4].update(children=[1, 1, 2])
    ),
    "leaf run over another leaf's pixel": _edited(
        lambda obj: obj["candidates"][0]["pixels"].append(
            {"row": 0, "col_start": 2, "col_end": 3}
        )
    ),
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
    ("leaf run over another leaf's pixel", OverlappingLeaves),
    ("unknown adjacency id", CmcError),
])
def test_crag_json_graph_errors_name_the_file(case, kind, tmp_path, capsys):
    """Errors from build_crag and run painting name the file first and
    keep their class; cmc train names the broken one of its --crag files."""
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
    """(fault, leaf pixels, adjacency): the crag's own, then copies with
    one fault each where the crag allows it."""
    pixels = {leaf: pixels_of(crag, leaf) for leaf in crag.leaves()}
    adjacency = list(crag.adjacency)
    leaves = crag.leaves()
    yield "none", pixels, adjacency

    def with_pixel(leaf, pixel):
        return {**pixels, leaf: pixels[leaf] | {pixel}}

    def with_edge(edge):
        changed = list(adjacency)
        changed.insert(int(rng.integers(len(changed) + 1)), edge)
        return changed

    if len(leaves) > 1:
        a, b = (int(v) for v in rng.choice(leaves, size=2, replace=False))
        shared = sorted(pixels[b])[int(rng.integers(len(pixels[b])))]
        yield "duplicate pixel", with_pixel(a, shared), adjacency
    h, w = crag.height, crag.width
    r, c = int(rng.integers(h)), int(rng.integers(w))
    outside = [(-1, c), (h, c), (r, -1), (r, w)][int(rng.integers(4))]
    leaf = leaves[int(rng.integers(len(leaves)))]
    yield "outside pixel", with_pixel(leaf, outside), adjacency
    region = {i: pixels_of(crag, i) for i in crag.ids()}
    apart = [
        (i, j)
        for i, j in itertools.combinations(crag.ids(), 2)
        if region[i].isdisjoint(region[j])
        and not ref_regions_touch(region[i], region[j])
    ]
    if apart:
        yield "non-touching edge", pixels, with_edge(
            apart[int(rng.integers(len(apart)))]
        )
    if crag.subset:
        pair = sorted(crag.subset.items())[int(rng.integers(len(crag.subset)))]
        yield "child-parent edge", pixels, with_edge(
            pair if rng.random() < 0.5 else pair[::-1]
        )


def test_build_crag_matches_pixel_set_reference():
    """crag_from_json (run painting, then build_crag's checks on the label
    image) raises what the per-pixel checks raise and paints the same
    leaf_labels(); OverlappingLeaves names two leaves that share a pixel."""
    rng = np.random.default_rng(44)
    crags = [quad_crag()]
    crags += [random_crag(rng) for _ in range(60)]
    crags += [random_sparse_crag(rng) for _ in range(60)]
    outcomes = Counter()
    for crag in crags:
        cands = [crag.candidates[i] for i in crag.ids()]
        for fault, pixels, adjacency in one_fault_variants(rng, crag):
            size = (crag.width, crag.height)
            obj = ref_crag_json(pixels, cands, adjacency, *size)
            try:
                want = ref_check_leaves_and_edges(pixels, cands, adjacency, *size)
            except CmcError as exc:
                with pytest.raises(CmcError) as got:
                    crag_from_json(obj)
                assert type(got.value) is type(exc), fault
                if isinstance(exc, OverlappingLeaves):
                    a, b = got.value.ids
                    assert a != b and not pixels[a].isdisjoint(pixels[b])
                outcomes[fault, type(exc).__name__] += 1
                continue
            labels = crag_from_json(obj).leaf_labels()
            assert labels.dtype == want.dtype and np.array_equal(labels, want), fault
            assert not labels.flags.writeable
            outcomes[fault, "accepted"] += 1
    # every variant got the fault's own outcome, and each fault was tried
    assert set(outcomes) == {
        ("none", "accepted"),
        ("duplicate pixel", "OverlappingLeaves"),
        ("outside pixel", "LeavesDoNotCoverImage"),
        ("non-touching edge", "NotAdjacent"),
        ("child-parent edge", "AdjacencyBetweenOverlapping"),
    }
    assert min(outcomes.values()) > 50


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
