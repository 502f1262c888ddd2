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

from goeritz import cli, presentations, report
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
    """The one JSON style is jsontext's own encoder: no module, jsontext
    included, calls the standard library's indented encoder."""
    source = Path(__file__).resolve().parents[1] / "src" / "goeritz"
    calls = [
        (path.name, node.lineno)
        for path in sorted(source.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, ast.Call)
        and getattr(node.func, "id", getattr(node.func, "attr", None)) in ("dumps", "dump")
        and any(keyword.arg == "indent" for keyword in node.keywords)
    ]
    assert calls == []


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


# One pair per connected row of the case table, and two disconnected pairs.
ROW_PAIRS = ((2, 1), (7, 1), (8, 3), (11, 3), (3, 1), (5, 2), (7, 2), (12, 5), (13, 5))


def test_every_value_the_verbs_dump_is_written_as_json_dumps_writes_it(monkeypatch, capsys):
    """Each value a verb hands to `dumps`, recorded at the call, over the
    CASES-row pairs, at depths 0 to 3."""
    assert {case_data(make_params(p, q)) for p, q in ROW_PAIRS} == set(CASES.values())
    real, seen = dumps, []

    def recording(value, depth=0):
        seen.append(value)
        return real(value, depth)

    for module in (cli, presentations, report):
        monkeypatch.setattr(module, "dumps", recording)
    for p, q in ROW_PAIRS:
        params = make_params(p, q)
        verbs = [["classify", "--json"], ["report", "--json"], ["sequence", "--verify", "--json"],
                 ["shell", "--kind", "q2", "--json"]]
        if params.connected:
            verbs.append(["presentation", "--format", "json", "--amalgam", "--abelianization"])
            seen += [presentation_dict(goeritz_presentation(params)),
                     amalgam_dict(amalgam_decomposition(params))]
        else:
            verbs.append(["witness", "--json"])
        for verb in verbs:
            assert cli.main([verb[0], str(p), str(q), *verb[1:]]) == 0
    for argv in (["primitive", "xyXY", "--method", "filter", "--trace", "--json"],
                 ["primitive", "yx^3yx^4", "--trace", "--json"],
                 ["sweep", "symmetry", "--max-p", "12", "--json"]):
        cli.main(argv)
    capsys.readouterr()
    kinds = {frozenset(value) for value in seen if isinstance(value, dict)}
    assert len(seen) > 80 and len(kinds) > 10
    for value in seen:
        for depth in (0, 1, 2, 3):
            assert dumps(value, depth) == reference(value, depth)


def test_synthetic_values_are_written_as_json_dumps_writes_them():
    values = [
        "αβ₁ ∂ 😀", "\x00\x01\x1f\x7f\u2028", 'say "hi" \\ /', "", [], {}, (), [[]], {"": {}},
        [True, 1, False, 0, None], {"1": True, "t": 1}, 10**39 + 7, -(10**39),
        {"k": [{"a": (1, "é")}, [], {}], "ü\n": None}, [[[["deep"]]]], {1: "int key", None: 0},
    ]
    for value in values + [values]:
        for depth in (0, 1, 2, 3):
            assert dumps(value, depth) == reference(value, depth), value
    assert dumps(10**39) == "1" + "0" * 39 and len(str(10**39 + 7)) == 40


@pytest.mark.parametrize("value", [1.5, float("nan"), {1, 2}, [0, 2.0], {"a": {"b": frozenset()}}, {2.5: 1}])
def test_floats_and_sets_are_refused(value):
    with pytest.raises(TypeError):
        dumps(value)
