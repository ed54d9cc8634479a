"""Hypothesis properties over malformed costs.json and solution.json.

Each object drawn here is a valid file of the quad graph broken in one
way: a non-finite or out-of-range number, a value of the wrong JSON
type, a missing or mistyped member, a key that is no id or edge, two
keys naming one id or edge, or keys that do not match the CRAG.  Each
must raise a CmcError, from the loader or from the step that first
meets the CRAG (solve for costs, validate_solution for a solution), and
`cmc solve` must exit 1 with `error:`, never a traceback.
"""

import contextlib
import io
import json
import os
import tempfile

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cmc.cli import main
from cmc.costmodel import costs_from_json, costs_to_json
from cmc.crag import (
    crag_to_json,
    solution_from_json,
    solution_to_json,
    validate_solution,
)
from cmc.errors import CmcError
from cmc.solver import solve

from util import quad_costs, quad_crag

CRAG = quad_crag()
COSTS = costs_to_json(quad_costs(CRAG))
SOLUTION = solution_to_json(solve(CRAG, quad_costs(CRAG)))
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


def _text(obj):
    """JSON text of obj as a file would hold it: NaN and Infinity as
    Python's json writes them, HUGE as the literal 1e400."""
    return json.dumps(obj).replace(json.dumps(HUGE), "1e400")


def test_valid_files_load():
    """The files the defects start from are valid."""
    solve(CRAG, costs_from_json(json.loads(_text(COSTS))))
    assert validate_solution(CRAG, solution_from_json(json.loads(_text(SOLUTION)))) == []


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
