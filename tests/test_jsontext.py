"""`jsontext.dumps` writes what json.dumps(value, ensure_ascii=False,
indent=2) writes, on every value the package emits and on arbitrary
nested values of the kinds it takes; at a depth, what that text
re-indented line by line was; and it refuses what the standard library
refuses.  A report's presentation and amalgam are the memoized renders.
"""

import ast
import json
import math
from pathlib import Path

import pytest
from hypothesis import given, strategies as st

from goeritz import presentations, report
from goeritz.classify import CASES, CaseTag, case_data, classify
from goeritz.farey import nonconnectivity_witness
from goeritz.jsontext import dumps
from goeritz.presentations import (
    amalgam_decomposition,
    amalgam_dict,
    goeritz_presentation,
    presentation_dict,
    render,
)
from goeritz.report import params_dict, structure_dict, witness_dict, write_report_json
from goeritz.sequences import make_params

from test_whitehead_powers import FIXED

PAIRS = [(p, q) for p in range(2, 61) for q in range(1, p) if math.gcd(p, q) == 1]


def reference(value, depth: int = 0) -> str:
    """The standard library's text, re-indented as the report writers once did."""
    return json.dumps(value, ensure_ascii=False, indent=2).replace("\n", "\n" + "  " * depth)


def package_values():
    """The presentation and amalgam dict of each connected row of the case
    table, the witness of every disconnected pair with p <= 60, and the
    params and structure of every pair with p <= 60."""
    rows = set()
    for p, q in PAIRS:
        params = make_params(p, q)
        yield params_dict(params)
        yield structure_dict(classify(params))
        if params.connected:
            row = case_data(params)
            if row not in rows:  # the presentation and amalgam depend on the row alone
                rows.add(row)
                yield presentation_dict(goeritz_presentation(params))
                yield amalgam_dict(amalgam_decomposition(params))
        else:
            yield witness_dict(nonconnectivity_witness(params))
    # the pairs reach every connected row of the case table
    assert rows == {row for row in CASES.values() if row.tag is not CaseTag.DISCONNECTED}


def test_the_package_values_are_written_as_json_dumps_writes_them():
    count = 0
    for value in package_values():
        for depth in (0, 1, 2, 3):
            assert dumps(value, depth) == reference(value, depth)
        count += 1
    assert count > 2 * len(PAIRS)


TEXT = st.text(
    st.one_of(
        st.characters(),
        st.sampled_from('"\\\x00\x1f\x7f\u2028\u2029\ud7ff\ufeffαβ₁\U0001f600'),
    ),
    max_size=12,
)
SCALARS = st.one_of(
    TEXT,
    st.integers(),
    st.integers(min_value=-(10**60), max_value=10**60),
    st.booleans(),
    st.none(),
)
VALUES = st.recursive(
    SCALARS,
    lambda inner: st.one_of(
        st.lists(inner, max_size=4),
        st.lists(inner, max_size=4).map(tuple),
        st.dictionaries(TEXT, inner, max_size=4),
    ),
    max_leaves=30,
)


@FIXED
@given(VALUES, st.integers(min_value=0, max_value=3))
def test_nested_values_are_written_as_json_dumps_writes_them(value, depth):
    assert dumps(value, depth) == reference(value, depth)


def test_empty_containers_and_constants():
    assert dumps({}) == "{}" and dumps([]) == "[]" and dumps(()) == "[]"
    assert dumps([True, False, None, -7, 2**70], 1) == reference([True, False, None, -7, 2**70], 1)
    assert dumps({"a": {}, "b": [[]]}, 2) == reference({"a": {}, "b": [[]]}, 2)


@pytest.mark.parametrize(
    "value",
    [{1, 2}, b"xy", {"a": [1, b""]}, {("a",): 1}, [object()]],
    ids=["value3", "xy", "value5", "value8", "value9"],  # the ids earlier runs recorded
)
def test_other_kinds_are_refused(value):
    with pytest.raises(TypeError):
        dumps(value)


def test_no_indented_json_dumps_is_left_in_the_package():
    """Outside jsontext, the one JSON style."""
    source = Path(__file__).resolve().parents[1] / "src" / "goeritz"
    calls = [
        (path.name, node.lineno)
        for path in sorted(source.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, ast.Call)
        and getattr(node.func, "id", getattr(node.func, "attr", None)) in ("dumps", "dump")
        and any(keyword.arg == "indent" for keyword in node.keywords)
    ]
    assert [name for name, _ in calls] == ["jsontext.py"]


def test_a_warm_report_reads_its_presentation_and_amalgam_from_the_render_memo(monkeypatch):
    """Once the memo of L(10,3)'s shared objects is filled, `report --json`
    builds neither dict again: its two sections are the memoized
    `render(obj, "json")`, one level deeper."""
    params = make_params(10, 3)
    write_report_json(params, [].append)

    def rebuilt(obj):
        raise AssertionError(f"rebuilt the dict of {type(obj).__name__}")

    for module in (presentations, report):
        for name in ("presentation_dict", "amalgam_dict"):
            if hasattr(module, name):
                monkeypatch.setattr(module, name, rebuilt)
    chunks = []
    write_report_json(params, chunks.append)
    text = "".join(chunks)
    for key, obj in (("presentation", goeritz_presentation(params)),
                     ("amalgam", amalgam_decomposition(params))):
        assert f'\n  "{key}": ' + render(obj, "json").replace("\n", "\n  ") + ",\n" in text
        assert json.loads(text)[key] == json.loads(render(obj, "json"))
