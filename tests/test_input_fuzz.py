"""Hypothesis properties over malformed crag.json, costs.json,
solution.json, features.json and pipeline config files, and over
mutated model.json and PGM headers.

Each object drawn here is a valid file of the quad graph broken in one
way: a non-finite or out-of-range number, a value of the wrong JSON
type, a missing or mistyped member, a key that is no id or edge, two
keys naming one id or edge, keys that do not match the CRAG, a feature
vector of the wrong length, edge vectors of the old 592-entry form, or
children that do not nest into a forest.
Each must raise a CmcError, from the loader or from the step that first
meets the CRAG (solve for costs, validate_solution for a solution), and
`cmc features`, `cmc solve` and `cmc costs` must exit 1 with `error:`
and write nothing, never a traceback.  A model.json with one value
replaced, deleted, added or copied anywhere in it either loads or
raises a CmcError, the same as the node-by-node reference loader's in
class and message, and `cmc costs` on a rejected one exits 1 the same
way.  crag_from_json raises what the pixel-by-pixel reference decoder
raises, class and message, on every broken crag.json.  A PGM file with
one header token or byte replaced, deleted or inserted either loads or
raises a CmcError, and `cmc build-crag --boundary` and `cmc eval --gt`
on a rejected one exit 1 with `error:`.  `cmc pipeline --config` on a
config file with one field of the wrong kind, negative or non-finite,
an unknown mode, or a key missing or added either runs or exits 1 with
`error: <file>: `.  A member that no release writes, at any level of
any of these files, raises a CmcError naming it.
"""

import contextlib
import io
import json
import os
import tempfile

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cmc.cli import main
from cmc.costmodel import costs_from_json, costs_to_json
from cmc.crag import (
    crag_from_json,
    crag_to_json,
    edge_to_str,
    json_member,
    solution_from_json,
    solution_to_json,
    validate_solution,
)
from cmc.errors import CmcError
from cmc.features import (
    compute_features,
    edge_row_names,
    features_from_json,
    features_to_json,
)
from cmc.pgm import read_pgm, write_labels, write_probability
from cmc.pipeline import (
    config_from_json,
    model_from_json,
    model_to_json,
    train_from_instances,
)
from cmc.synth import generate_synthetic
from cmc.solver import solve

from util import (
    DELETE,
    json_with,
    quad_costs,
    quad_crag,
    quad_gt,
    ref_crag_from_json,
    ref_edge_block,
    ref_forest_from_json,
    same_outcome,
)

CRAG = quad_crag()
# leaves 1-4 are labels; entries 0, 1 and 2 are 5 = {1, 2}, 6 = {3, 4}, 7 = {5, 6}
CRAG_JSON = crag_to_json(CRAG)
COSTS = costs_to_json(quad_costs(CRAG))
SOLUTION = solution_to_json(solve(CRAG, quad_costs(CRAG)))
_rng = np.random.default_rng(23)
_raw, _boundary = _rng.random((4, 4)), _rng.random((4, 4))
_feats = compute_features(CRAG, _raw, _boundary)
# each edge vector holds the edge's 4 statistics
FEATURES = features_to_json(*_feats)
# the same edges as written when each vector held the 592 entries the
# edge forest reads
OLD_EDGES = {
    edge_to_str(e): row.tolist()
    for e, row in zip(CRAG.adjacency, ref_edge_block(CRAG, _boundary, _feats[0]))
}
MODEL = model_to_json(train_from_instances([(CRAG, *_feats, quad_gt())], 3, 0))
# stands for the number 1e400 (inf once parsed) until _text writes it
HUGE = "<1e400>"

NON_FINITE = st.sampled_from([float("nan"), float("inf"), float("-inf"), HUGE])
NOT_A_NUMBER = st.one_of(
    st.booleans(),
    st.none(),
    st.text(max_size=3),
    st.lists(st.integers(0, 1), max_size=2),
    st.dictionaries(st.text(max_size=2), st.integers(0, 1), max_size=2),
)
BEYOND_INT64 = st.one_of(st.integers(2**63, 2**70), st.integers(-(2**70), -(2**63) - 1))
BEYOND_FLOAT = st.one_of(
    st.integers(2**1024, 2**1100), st.integers(-(2**1100), -(2**1024))
)
NOT_AN_OBJECT = st.one_of(
    st.none(), st.booleans(), st.integers(), st.text(max_size=3),
    st.lists(st.integers(), max_size=2),
)
NOT_AN_ID = st.sampled_from(["", "x", "1.5", " 1", "+1", "1e3", "1-2", "٣"])
NOT_AN_EDGE = st.sampled_from(["", "1", "1-", "-2", "a-b", "1-2-3", "1_2", "1 - 2"])
# keys that parse but name no candidate or edge of the quad graph
UNKNOWN_ID = st.sampled_from(["0", "8", "-1", "99"])
UNKNOWN_EDGE = st.sampled_from(["1-1", "1-5", "3-7", "98-99"])


def _alias(key):
    """Another spelling of an id or edge key: a leading 0, or reversed."""
    if "-" in key:
        i, j = key.split("-")
        return f"{j}-{i}"
    return "0" + key


@st.composite
def _broken(draw, valid, tables, scalar, value, bad_value):
    """`valid` with one defect.  `tables` names its id and edge tables,
    `scalar` its number member (or None), `value` a valid table value,
    `bad_value` a strategy for values a table must not hold."""
    obj = json.loads(json.dumps(valid))
    ids, edges = tables
    defect = draw(st.sampled_from([
        "bad value", "missing member", "member not an object", "not an object",
        "not an id", "not an edge", "alias", "unknown key", "missing key",
    ] + (["bad scalar"] if scalar else [])))
    table = draw(st.sampled_from(tables))
    keys = sorted(obj[table])
    if defect == "bad value":
        obj[table][draw(st.sampled_from(keys))] = draw(bad_value)
    elif defect == "bad scalar":
        obj[scalar] = draw(st.one_of(NON_FINITE, NOT_A_NUMBER))
    elif defect == "missing member":
        del obj[draw(st.sampled_from(sorted(obj)))]
    elif defect == "member not an object":
        obj[table] = draw(NOT_AN_OBJECT)
    elif defect == "not an object":
        obj = draw(st.one_of(NOT_AN_OBJECT, st.just([obj])))
    elif defect == "not an id":
        obj[ids][draw(NOT_AN_ID)] = value
    elif defect == "not an edge":
        obj[edges][draw(NOT_AN_EDGE)] = value
    elif defect == "alias":
        key = draw(st.sampled_from(keys))
        obj[table][_alias(key)] = obj[table][key]
    elif defect == "unknown key":
        key = draw(UNKNOWN_ID if table == ids else UNKNOWN_EDGE)
        obj[table][key] = value
    else:
        del obj[table][draw(st.sampled_from(keys))]
    return obj


BROKEN_COSTS = _broken(
    COSTS, ("f", "g"), None, 0.5, st.one_of(NON_FINITE, NOT_A_NUMBER, BEYOND_INT64)
)
BROKEN_SOLUTION = _broken(
    SOLUTION, ("y", "m"), "objective", 0,
    st.one_of(NON_FINITE, NOT_A_NUMBER, BEYOND_INT64, st.sampled_from([2, -1, 0.5, 1.0])),
)


@st.composite
def _broken_features(draw):
    """FEATURES with one defect in its vectors or its two tables."""
    obj = json.loads(json.dumps(FEATURES))
    defect = draw(st.sampled_from([
        "bad number", "not a list", "wrong length", "missing member",
        "member not an object", "not an object", "alias", "old edge form",
    ]))
    table = draw(st.sampled_from(["nodes", "edges"]))
    key = draw(st.sampled_from(sorted(obj[table])))
    vector = obj[table][key]
    if defect == "bad number":
        at = draw(st.integers(0, len(vector) - 1))
        vector[at] = draw(st.one_of(
            NON_FINITE, BEYOND_FLOAT, st.booleans(), st.text(max_size=3), st.none()
        ))
    elif defect == "not a list":
        obj[table][key] = draw(st.one_of(
            st.none(), st.booleans(), st.integers(), st.floats(), st.text(max_size=3),
            st.dictionaries(st.text(max_size=2), st.integers(0, 1), max_size=2),
        ))
    elif defect == "wrong length":
        if draw(st.booleans()):
            vector.extend([0.0] * draw(st.integers(1, 3)))
        else:
            del vector[draw(st.integers(0, len(vector) - 1)):]
    elif defect == "missing member":
        del obj[table]
    elif defect == "member not an object":
        obj[table] = draw(NOT_AN_OBJECT)
    elif defect == "not an object":
        obj = draw(st.one_of(NOT_AN_OBJECT, st.just([obj])))
    elif defect == "old edge form":
        obj["edges"] = json.loads(json.dumps(OLD_EDGES))
        if draw(st.booleans()):
            obj["edge_schema"] = edge_row_names()
    else:
        obj[table][_alias(key)] = vector
    return obj


NOT_AN_INT = st.one_of(
    NOT_A_NUMBER, NON_FINITE, BEYOND_INT64, st.sampled_from([1.0, 2.5, -0.5])
)
NOT_A_LIST = st.one_of(
    st.none(), st.booleans(), st.integers(), st.floats(), st.text(max_size=3),
    st.dictionaries(st.text(max_size=2), st.integers(0, 1), max_size=2),
)


@st.composite
def _broken_crag(draw):
    """CRAG_JSON with one defect in its nesting, its entries, its
    leaf_labels or its members."""
    obj = json.loads(json.dumps(CRAG_JSON))
    entries = obj["candidates"]
    inner = entries[draw(st.integers(0, 2))]
    runs = obj["leaf_labels"]
    at = 2 * draw(st.integers(0, len(runs) // 2 - 1))  # where one run starts
    kids = inner["children"]
    defect = draw(st.sampled_from([
        "repeated child", "child of two parents", "unknown child", "cycle",
        "label as entry", "no child", "old form", "bad run", "missing member",
        "mistyped member", "non-int id",
    ]))
    if defect == "repeated child":
        kids.insert(draw(st.integers(0, len(kids))), draw(st.sampled_from(kids)))
    elif defect == "child of two parents":
        others = [i for i in range(1, 7) if i != inner["id"] and i not in kids]
        kids.append(draw(st.sampled_from(others)))
    elif defect == "unknown child":
        kids.append(draw(st.sampled_from([0, -1, 8, 99])))
    elif defect == "cycle":  # the candidate itself, or its ancestor 7
        kids.append(draw(st.sampled_from(sorted({inner["id"], 7}))))
    elif defect == "label as entry":  # a leaf is its label, never an entry
        entries.insert(draw(st.integers(0, 3)), {
            "id": draw(st.integers(1, 4)),
            "children": draw(st.lists(st.integers(1, 7), min_size=1, max_size=2)),
        })
    elif defect == "no child":
        inner["children"] = []
    elif defect == "old form":  # row 5 lies outside the 4x4 image
        old = draw(st.sampled_from(["runs", "pixels", "level", "leaf entry", "no children"]))
        if old == "leaf entry":
            leaf = {"id": draw(st.integers(1, 4)), "level": 0}
            entries.insert(draw(st.integers(0, 3)), leaf)
        elif old == "no children":
            del inner["children"]
        else:
            inner[old] = draw(st.sampled_from([[], [5, 0, 1], [0, 0, 2], 0, 1]))
    elif defect == "bad run":
        where = draw(st.sampled_from(["label", "length", "coverage"]))
        if where == "label":  # an inner id, or below UNCOVERED
            runs[at] = draw(st.sampled_from([5, 6, 7, -2]))
        elif where == "length":
            runs[at + 1] = draw(st.integers(-2, 0))
        else:
            runs[at + 1] += draw(st.sampled_from([-1, 1]))
    elif defect == "missing member":
        owner = draw(st.sampled_from([obj, inner, None]))
        if owner is None:  # one entry of leaf_labels
            del runs[at + draw(st.integers(0, 1))]
        else:
            del owner[draw(st.sampled_from(sorted(owner)))]
    elif defect == "mistyped member":
        where = draw(st.sampled_from([
            "width", "candidates", "adjacency", "entry", "leaf_labels", "children",
            "run", "adjacency pair",
        ]))
        if where == "width":
            obj[draw(st.sampled_from(["width", "height"]))] = draw(NOT_AN_INT)
        elif where in ("candidates", "adjacency", "leaf_labels"):
            obj[where] = draw(NOT_A_LIST)
        elif where == "entry":
            entries[draw(st.integers(0, 2))] = draw(NOT_AN_OBJECT)
        elif where == "children":
            inner["children"] = draw(NOT_A_LIST)
        elif where == "run":  # one value in place of a run's two
            runs[at:at + 2] = [draw(NOT_AN_OBJECT)]
        else:
            pair = obj["adjacency"][draw(st.integers(0, len(obj["adjacency"]) - 1))]
            pair[:] = draw(st.sampled_from([[], pair[:1], pair + [7]]))
    else:
        owner, key = draw(st.sampled_from([
            (inner, "id"), (runs, at), (runs, at + 1), (kids, 0),
            (obj["adjacency"][0], 1),
        ]))
        owner[key] = draw(NOT_AN_INT)
    return obj


def _text(obj):
    """JSON text of obj as a file would hold it: NaN and Infinity as
    Python's json writes them, HUGE as the literal 1e400."""
    return json.dumps(obj).replace(json.dumps(HUGE), "1e400")


def test_valid_files_load():
    """The files the defects start from are valid."""
    assert crag_from_json(json.loads(_text(CRAG_JSON))) == CRAG
    solve(CRAG, costs_from_json(json.loads(_text(COSTS))))
    assert validate_solution(CRAG, solution_from_json(json.loads(_text(SOLUTION)))) == []
    node_feats, edge_feats = features_from_json(json.loads(_text(FEATURES)))
    assert node_feats.keys() == _feats[0].keys() and edge_feats.keys() == _feats[1].keys()


# each object of each file, as (file, loader, valid file, path to the
# object); none may hold a member that its writer does not write
UNKNOWN_MEMBER_SITES = {
    "crag": ("crag.json", crag_from_json, CRAG_JSON, ()),
    "crag union": ("crag.json", crag_from_json, CRAG_JSON, ("candidates", 0)),
    "costs": ("costs.json", costs_from_json, COSTS, ()),
    "solution": ("solution.json", solution_from_json, SOLUTION, ()),
    "features": ("features.json", features_from_json, FEATURES, ()),
    "model": ("model.json", model_from_json, MODEL, ()),
    "node forest": ("model.json", model_from_json, MODEL, ("node_forest",)),
    "edge forest": ("model.json", model_from_json, MODEL, ("edge_forest",)),
    "config": ("config.json", config_from_json, {"mode": "full"}, ()),
}


@pytest.mark.parametrize("site", sorted(UNKNOWN_MEMBER_SITES))
def test_unknown_member_rejected_by_name(site):
    """A "bogus" member beside the valid ones raises CmcError naming it
    and the file; crag.json at both levels, costs.json, solution.json
    and features.json used to load with it."""
    doc, load, valid, path = UNKNOWN_MEMBER_SITES[site]
    with pytest.raises(CmcError) as info:
        load(json_with(valid, path + ("bogus",), 1))
    assert str(info.value).startswith(f"{doc}: ")
    assert str(info.value).endswith(" has unknown key 'bogus'")


@settings(derandomize=True, database=None, max_examples=200, deadline=None)
@given(_broken_crag())
def test_malformed_crag_raises_cmc_error(obj):
    with pytest.raises(CmcError):
        crag_from_json(json.loads(_text(obj)))


@settings(derandomize=True, database=None, max_examples=200, deadline=None)
@given(_broken_crag())
def test_malformed_crag_raises_as_run_by_run(obj):
    """The bulk decoder raises the pixel-by-pixel reference's class and
    message."""
    assert isinstance(
        same_outcome(crag_from_json, ref_crag_from_json, json.loads(_text(obj))),
        CmcError,
    )


@settings(derandomize=True, database=None, max_examples=40, deadline=None)
@given(_broken_crag())
def test_cli_features_on_malformed_crag_exits_1(obj):
    with tempfile.TemporaryDirectory() as tmp:
        paths = {name: os.path.join(tmp, name)
                 for name in ("crag.json", "raw.pgm", "boundary.pgm", "features.json")}
        for name in ("raw.pgm", "boundary.pgm"):
            write_probability(paths[name], np.full((4, 4), 0.5))
        with open(paths["crag.json"], "w") as fh:
            fh.write(_text(obj))
        err = io.StringIO()
        with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
            code = main(["features", "--crag", paths["crag.json"],
                         "--raw", paths["raw.pgm"], "--boundary", paths["boundary.pgm"],
                         "--out", paths["features.json"]])
        assert code == 1
        assert err.getvalue().startswith("error: ")
        assert not os.path.exists(paths["features.json"])


@settings(derandomize=True, database=None, max_examples=200, deadline=None)
@given(BROKEN_COSTS)
def test_malformed_costs_raise_cmc_error(obj):
    with pytest.raises(CmcError):
        solve(CRAG, costs_from_json(json.loads(_text(obj))))


@settings(derandomize=True, database=None, max_examples=200, deadline=None)
@given(BROKEN_SOLUTION)
def test_malformed_solution_raises_cmc_error(obj):
    with pytest.raises(CmcError):
        validate_solution(CRAG, solution_from_json(json.loads(_text(obj))))


@settings(derandomize=True, database=None, max_examples=40, deadline=None)
@given(BROKEN_COSTS)
def test_cli_solve_on_malformed_costs_exits_1(obj):
    with tempfile.TemporaryDirectory() as tmp:
        paths = {name: os.path.join(tmp, name)
                 for name in ("crag.json", "costs.json", "solution.json")}
        with open(paths["crag.json"], "w") as fh:
            json.dump(crag_to_json(CRAG), fh)
        with open(paths["costs.json"], "w") as fh:
            fh.write(_text(obj))
        err = io.StringIO()
        with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
            code = main(["solve", "--crag", paths["crag.json"],
                         "--costs", paths["costs.json"], "--out", paths["solution.json"]])
        assert code == 1
        assert err.getvalue().startswith("error: ")
        assert not os.path.exists(paths["solution.json"])


@settings(derandomize=True, database=None, max_examples=200, deadline=None)
@given(_broken_features())
def test_malformed_features_raise_cmc_error(obj):
    with pytest.raises(CmcError):
        features_from_json(json.loads(_text(obj)))


@settings(derandomize=True, database=None, max_examples=40, deadline=None)
@given(_broken_features())
def test_cli_costs_on_malformed_features_exits_1(obj):
    with tempfile.TemporaryDirectory() as tmp:
        paths = {name: os.path.join(tmp, name)
                 for name in ("crag.json", "model.json", "features.json", "costs.json")}
        for name, content in (("crag.json", crag_to_json(CRAG)), ("model.json", MODEL)):
            with open(paths[name], "w") as fh:
                json.dump(content, fh)
        with open(paths["features.json"], "w") as fh:
            fh.write(_text(obj))
        err = io.StringIO()
        with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
            code = main(["costs", "--model", paths["model.json"],
                         "--crag", paths["crag.json"],
                         "--features", paths["features.json"],
                         "--out", paths["costs.json"]])
        assert code == 1
        assert err.getvalue().startswith("error: ")
        assert not os.path.exists(paths["costs.json"])


def _paths(obj, path=()):
    """The path of obj and of every value inside it."""
    yield path
    if isinstance(obj, dict):
        for key, value in obj.items():
            yield from _paths(value, path + (key,))
    elif isinstance(obj, list):
        for at, value in enumerate(obj):
            yield from _paths(value, path + (at,))


# small ints hit node slots, feature indices, tree counts and seeds
ANY_VALUE = st.one_of(
    NON_FINITE, NOT_A_NUMBER, NOT_AN_OBJECT, BEYOND_INT64, BEYOND_FLOAT,
    st.integers(-2, 12), st.floats(allow_nan=False, allow_infinity=False),
)


@st.composite
def _mutated_model(draw):
    """MODEL with one value replaced or deleted, or one member added to
    or copied within an object or a list."""
    path = draw(st.sampled_from(list(_paths(MODEL))))
    action = draw(st.sampled_from(["replace", "delete", "add", "copy"]))
    if action == "replace":
        return json_with(MODEL, path, draw(ANY_VALUE)) if path else draw(ANY_VALUE)
    if action == "delete" and path:
        return json_with(MODEL, path, DELETE)
    obj = json.loads(json.dumps(MODEL))
    target = obj
    for key in path:
        target = target[key]
    if isinstance(target, (dict, list)):
        members = list(target.values() if isinstance(target, dict) else target)
        value = draw(st.sampled_from(members) if action == "copy" and members else ANY_VALUE)
        if isinstance(target, dict):
            target[draw(st.sampled_from(["extra", "prob", "left", "feature"]))] = value
        else:
            target.insert(draw(st.integers(0, len(target))), value)
    return obj


def _cli_costs_on_model(text):
    """(exit code, stderr) of cmc costs with model.json holding `text`."""
    with tempfile.TemporaryDirectory() as tmp:
        paths = {name: os.path.join(tmp, name)
                 for name in ("crag.json", "model.json", "features.json", "costs.json")}
        for name, content in (("crag.json", CRAG_JSON), ("features.json", FEATURES)):
            with open(paths[name], "w") as fh:
                json.dump(content, fh)
        with open(paths["model.json"], "w") as fh:
            fh.write(text)
        err = io.StringIO()
        with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
            code = main(["costs", "--model", paths["model.json"],
                         "--crag", paths["crag.json"],
                         "--features", paths["features.json"],
                         "--out", paths["costs.json"]])
        assert (code == 0) == os.path.exists(paths["costs.json"])
        return code, err.getvalue()


@settings(derandomize=True, database=None, max_examples=300, deadline=None)
@given(_mutated_model())
def test_mutated_model_loads_or_raises_cmc_error(obj):
    """As the node-by-node loader does: the same CmcError class and
    message, or an equal model.  A model that loads writes back the
    object it was read from, its top level included."""
    obj = json.loads(_text(obj))
    outcome = same_outcome(
        lambda o: model_to_json(model_from_json(o)),
        lambda o: model_to_json(_ref_model_from_json(o)),
        obj,
    )
    if not isinstance(outcome, CmcError):
        assert outcome == obj


def _ref_model_from_json(obj):
    forests = {
        key: json_member("model.json", obj, key, dict, "model")
        for key in ("node_forest", "edge_forest")
    }
    unknown = sorted(set(obj) - set(forests))
    if unknown:
        raise CmcError(f"model.json: model has unknown key {unknown[0]!r}")
    return {key: ref_forest_from_json(forest, key) for key, forest in forests.items()}


@settings(derandomize=True, database=None, max_examples=60, deadline=None)
@given(_mutated_model())
def test_cli_costs_on_mutated_model(obj):
    text = _text(obj)
    try:
        model_from_json(json.loads(text))
        rejected = False
    except CmcError:
        rejected = True
    code, err = _cli_costs_on_model(text)
    if rejected:
        assert code == 1
    # a model that loads may still fail on this graph, but by name
    assert code == 0 or (code == 1 and err.startswith("error: "))


# a valid 3x2 PGM: its header tokens, each with the whitespace after it
PGM_TOKENS = [(b"P5", b"\n"), (b"3", b" "), (b"2", b"\n"), (b"65535", b"\n")]
PGM_RASTER = bytes(range(12))
HEADER_TOKEN = st.one_of(
    st.sampled_from([
        b"", b"P2", b"P6", b"p5", b"0", b"1", b"2", b"3", b"-1", b"+3", b"3.0",
        b"1e3", b"255", b"65535", b"65536", b"0065535", b"#", b"# c\n",
        "\u0663".encode(), b"\xff", b"18446744073709551617",
    ]),
    # past Python's 4300-digit limit on int(str)
    st.integers(4301, 4310).map(lambda n: b"7" * n),
    st.integers(4300, 4310).map(lambda n: b"0" * n + b"3"),
    st.binary(max_size=4),
)


@st.composite
def _edited_pgm(draw):
    """The valid PGM with one header token replaced, deleted or inserted,
    or one header byte replaced, deleted or inserted."""
    action = draw(st.sampled_from(["replace", "delete", "insert"]))
    if draw(st.booleans()):
        tokens = list(PGM_TOKENS)
        at = draw(st.integers(0, len(tokens) - (action != "insert")))
        if action == "replace":
            tokens[at] = (draw(HEADER_TOKEN), tokens[at][1])
        elif action == "delete":
            del tokens[at]
        else:
            tokens.insert(at, (draw(HEADER_TOKEN), b" "))
        return b"".join(t + sep for t, sep in tokens) + PGM_RASTER
    header = bytearray(b"".join(t + sep for t, sep in PGM_TOKENS))
    at = draw(st.integers(0, len(header) - (action != "insert")))
    if action == "replace":
        header[at] = draw(st.integers(0, 255))
    elif action == "delete":
        del header[at]
    else:
        header.insert(at, draw(st.integers(0, 255)))
    return bytes(header) + PGM_RASTER


def test_unedited_pgm_loads():
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "a.pgm")
        with open(path, "wb") as fh:
            fh.write(b"".join(t + sep for t, sep in PGM_TOKENS) + PGM_RASTER)
        assert read_pgm(path).shape == (2, 3)


def _pgm_rejected(path):
    try:
        read_pgm(path)
    except CmcError:
        return True
    return False


@settings(derandomize=True, database=None, max_examples=300, deadline=None)
@given(_edited_pgm())
def test_edited_pgm_header_loads_or_raises_cmc_error(data):
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "a.pgm")
        with open(path, "wb") as fh:
            fh.write(data)
        _pgm_rejected(path)


@settings(derandomize=True, database=None, max_examples=60, deadline=None)
@given(_edited_pgm())
def test_cli_on_rejected_pgm_header_exits_1(data):
    """cmc build-crag with the file as --boundary and cmc eval with it as
    --gt each exit 1 with error: and write nothing."""
    with tempfile.TemporaryDirectory() as tmp:
        paths = {name: os.path.join(tmp, name)
                 for name in ("a.pgm", "pred.pgm", "crag.json", "metrics.json")}
        with open(paths["a.pgm"], "wb") as fh:
            fh.write(data)
        if not _pgm_rejected(paths["a.pgm"]):
            return
        write_labels(paths["pred.pgm"], np.zeros((2, 3), dtype=np.int64))
        for argv, out in (
            (["build-crag", "--boundary", paths["a.pgm"]], paths["crag.json"]),
            (["eval", "--pred", paths["pred.pgm"], "--gt", paths["a.pgm"]],
             paths["metrics.json"]),
        ):
            err = io.StringIO()
            with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
                code = main(argv + ["--out", out])
            assert code == 1
            assert err.getvalue().startswith("error: ")
            assert not os.path.exists(out)


# a valid pipeline config, every field given; the property runs
# `cmc pipeline --model` on a small image, so no tree is trained
PIPELINE_IMAGE = generate_synthetic(1, 2, 0.1, 5, image_size=64)[0]
CONFIG = {
    "seed_threshold": 0.5, "max_merges": 5, "score_threshold": None, "n_trees": 2,
    "rng_seed": 0, "mode": "full", "ignore_background": True, "time_limit": 10.0,
}


@st.composite
def _broken_config(draw):
    """CONFIG with one defect: a field of the wrong kind, a negative or
    non-finite number, an unknown mode, or a key missing or added."""
    obj = dict(CONFIG)
    defect = draw(st.sampled_from([
        "wrong kind", "negative", "non-finite", "unknown mode", "missing key", "extra key",
    ]))
    key = draw(st.sampled_from(sorted(obj)))
    if defect == "wrong kind":
        obj[key] = draw(st.one_of(NOT_A_NUMBER, st.floats(allow_nan=False), st.integers()))
    elif defect == "negative":
        obj[key] = draw(st.one_of(st.integers(-(2**70), -1), st.floats(max_value=-1e-300)))
    elif defect == "non-finite":
        obj[key] = draw(NON_FINITE)
    elif defect == "unknown mode":
        obj["mode"] = draw(st.text(max_size=12).filter(
            lambda m: m not in ("full", "merge_tree_only", "leaf_multicut_only")))
    elif defect == "missing key":
        del obj[key]
    else:
        obj[draw(st.text(max_size=12).filter(lambda k: k not in CONFIG))] = draw(
            st.one_of(st.integers(), NOT_A_NUMBER))
    return obj


@settings(derandomize=True, database=None, max_examples=60, deadline=None)
@given(_broken_config())
def test_cli_pipeline_on_broken_config_runs_or_names_the_file(obj):
    """`cmc pipeline --config` on a config file with one defect either
    runs (exit 0, or 2 at the time limit) or exits 1 with
    `error: <file>: `, never with a traceback."""
    raw, boundary, _ = PIPELINE_IMAGE
    with tempfile.TemporaryDirectory() as tmp:
        paths = {name: os.path.join(tmp, name)
                 for name in ("raw.pgm", "boundary.pgm", "model.json", "config.json")}
        write_probability(paths["raw.pgm"], raw)
        write_probability(paths["boundary.pgm"], boundary)
        with open(paths["model.json"], "w") as fh:
            json.dump(MODEL, fh)
        with open(paths["config.json"], "w") as fh:
            fh.write(_text(obj))
        err = io.StringIO()
        with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
            code = main(["pipeline", "--boundary", paths["boundary.pgm"],
                         "--raw", paths["raw.pgm"], "--model", paths["model.json"],
                         "--config", paths["config.json"]])
        assert code in (0, 1, 2)
        if code == 1:
            assert err.getvalue().startswith(f"error: {paths['config.json']}: ")
