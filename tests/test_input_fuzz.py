"""Hypothesis properties over malformed crag.json, costs.json,
solution.json and features.json, and over mutated model.json.

Each object drawn here is a valid file of the quad graph broken in one
way: a non-finite or out-of-range number, a value of the wrong JSON
type, a missing or mistyped member, a key that is no id or edge, two
keys naming one id or edge, keys that do not match the CRAG, a feature
vector of the wrong length, or children that do not nest into a forest.
Each must raise a CmcError, from the loader or from the step that first
meets the CRAG (solve for costs, validate_solution for a solution), and
`cmc features`, `cmc solve` and `cmc costs` must exit 1 with `error:`
and write nothing, never a traceback.  A model.json with one value
replaced, deleted, added or copied anywhere in it either loads or
raises a CmcError, and `cmc costs` on a rejected one exits 1 the same
way.
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
    solution_from_json,
    solution_to_json,
    validate_solution,
)
from cmc.errors import CmcError
from cmc.features import compute_features, features_from_json, features_to_json
from cmc.pgm import write_probability
from cmc.pipeline import model_from_json, model_to_json, train_from_instances
from cmc.solver import solve

from util import DELETE, json_with, quad_costs, quad_crag, quad_gt

CRAG = quad_crag()
# entries 0-3 are leaves 1-4; 4, 5 and 6 are 5 = {1, 2}, 6 = {3, 4}, 7 = {5, 6}
CRAG_JSON = crag_to_json(CRAG)
COSTS = costs_to_json(quad_costs(CRAG))
SOLUTION = solution_to_json(solve(CRAG, quad_costs(CRAG)))
_rng = np.random.default_rng(23)
_feats = compute_features(CRAG, _rng.random((4, 4)), _rng.random((4, 4)))
FEATURES = features_to_json(*_feats)
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
        "member not an object", "not an object", "alias",
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
    """CRAG_JSON with one defect in its nesting, its entries or its members."""
    obj = json.loads(json.dumps(CRAG_JSON))
    entries = obj["candidates"]
    leaf = entries[draw(st.integers(0, 3))]
    inner = entries[draw(st.integers(4, 6))]
    run = leaf["pixels"][draw(st.integers(0, len(leaf["pixels"]) - 1))]
    kids = inner["children"]
    defect = draw(st.sampled_from([
        "repeated child", "child of two parents", "unknown child", "cycle",
        "children and pixels", "missing member", "mistyped member", "non-int id",
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
    elif defect == "children and pixels":
        if draw(st.booleans()):
            leaf["children"] = draw(st.lists(st.integers(1, 7), max_size=2))
        else:  # row 5 lies outside the 4x4 image
            outside = [{"row": 5, "col_start": 0, "col_end": 1}]
            inner["pixels"] = draw(st.sampled_from([[], outside, leaf["pixels"]]))
    elif defect == "missing member":
        owner = draw(st.sampled_from([obj, leaf, inner, run]))
        del owner[draw(st.sampled_from(sorted(owner)))]
    elif defect == "mistyped member":
        where = draw(st.sampled_from([
            "width", "candidates", "adjacency", "entry", "pixels", "children",
            "run", "adjacency pair",
        ]))
        if where == "width":
            obj[draw(st.sampled_from(["width", "height"]))] = draw(NOT_AN_INT)
        elif where in ("candidates", "adjacency"):
            obj[where] = draw(NOT_A_LIST)
        elif where == "entry":
            entries[draw(st.integers(0, 6))] = draw(NOT_AN_OBJECT)
        elif where == "pixels":
            leaf["pixels"] = draw(NOT_A_LIST)
        elif where == "children":
            inner["children"] = draw(NOT_A_LIST)
        elif where == "run":
            leaf["pixels"][0] = draw(NOT_AN_OBJECT)
        else:
            pair = obj["adjacency"][draw(st.integers(0, len(obj["adjacency"]) - 1))]
            pair[:] = draw(st.sampled_from([[], pair[:1], pair + [7]]))
    else:
        owner, key = draw(st.sampled_from([
            (leaf, "id"), (inner, "id"), (leaf, "level"), (run, "row"),
            (run, "col_start"), (run, "col_end"), (kids, 0), (obj["adjacency"][0], 1),
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


@settings(derandomize=True, database=None, max_examples=200, deadline=None)
@given(_broken_crag())
def test_malformed_crag_raises_cmc_error(obj):
    with pytest.raises(CmcError):
        crag_from_json(json.loads(_text(obj)))


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
    try:
        model_from_json(json.loads(_text(obj)))
    except CmcError:
        pass


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
