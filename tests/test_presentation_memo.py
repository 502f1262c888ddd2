"""The per-object memo of presentations and amalgams cannot be seen.

The presentations and amalgams of all connected (p, q) are shared per row
of classify.CASES, and each one remembers its renders and its
abelianization; each amalgam remembers its whole group too.  These tests check that a remembered answer equals
the one a memo-free rebuild computes, that the memo leaves equality,
hashing and copying alone, and that the work it saves is saved.
"""

import copy
import dataclasses
import math
import pickle

import pytest

from goeritz import presentations
from goeritz.presentations import (
    abelianize_presentation,
    amalgam_decomposition,
    goeritz_presentation,
    render,
)
from goeritz.sequences import make_params

FORMATS = ("text", "json", "gap")


def connected_params(max_p):
    for p in range(2, max_p + 1):
        for q in range(1, p // 2 + 1):
            if math.gcd(p, q) == 1:
                params = make_params(p, q)
                if params.connected:
                    yield params


def rebuilt(obj):
    """A copy of a frozen dataclass tree made with dataclasses.replace at
    every level, so no part of it carries a memo."""
    if isinstance(obj, tuple):
        return tuple(rebuilt(item) for item in obj)
    if dataclasses.is_dataclass(obj):
        return dataclasses.replace(
            obj, **{f.name: rebuilt(getattr(obj, f.name)) for f in dataclasses.fields(obj)}
        )
    return obj


def outputs(pres, amalgam):
    return (
        tuple(render(pres, fmt) for fmt in FORMATS),
        tuple(render(amalgam, fmt) for fmt in FORMATS),
        abelianize_presentation(pres),
    )


def test_shared_answers_equal_a_memo_free_rebuild():
    # a rebuild depends only on the shared objects, so it is made once per
    # (presentation, amalgam) and compared with every pair that shares them;
    # each entry holds its objects too, so no id is reused while it is a key
    fresh_by_id = {}
    for params in connected_params(400):
        pres, amalgam = goeritz_presentation(params), amalgam_decomposition(params)
        key = (id(pres), id(amalgam))
        if key not in fresh_by_id:
            fresh_by_id[key] = (pres, amalgam, outputs(rebuilt(pres), rebuilt(amalgam)))
        fresh = fresh_by_id[key][2]
        assert outputs(pres, amalgam) == fresh, params
        assert outputs(pres, amalgam) == fresh, params


def test_memo_leaves_equality_hash_and_copies_alone():
    params = make_params(10, 3)
    for obj in (goeritz_presentation(params), amalgam_decomposition(params)):
        blank = rebuilt(obj)
        assert "_memo" not in vars(blank)
        before = hash(blank)
        renders = [render(blank, fmt) for fmt in FORMATS]
        assert "_memo" in vars(blank)
        assert blank == obj and hash(blank) == before == hash(obj)
        assert "_memo" not in {f.name for f in dataclasses.fields(blank)}
        for copied in (pickle.loads(pickle.dumps(blank)), copy.deepcopy(blank)):
            assert copied == blank and hash(copied) == before
            assert [render(copied, fmt) for fmt in FORMATS] == renders
    pres = goeritz_presentation(params)
    copied = copy.deepcopy(pres)
    assert abelianize_presentation(copied) == abelianize_presentation(pres)


def test_refused_renders_leave_the_memo_empty():
    params = make_params(10, 3)
    for obj in (rebuilt(goeritz_presentation(params)), rebuilt(amalgam_decomposition(params))):
        with pytest.raises(ValueError, match="unknown format"):
            render(obj, "latex")
        assert "_memo" not in vars(obj)
    with pytest.raises(TypeError, match="cannot render int"):
        render(42)
    with pytest.raises(ValueError, match="unknown format"):
        render(42, "latex")


def test_invariant_factors_runs_once_per_presentation_object(monkeypatch):
    calls = []
    real = presentations.invariant_factors

    def counted(matrix, ncols):
        calls.append(ncols)
        return real(matrix, ncols)

    monkeypatch.setattr(presentations, "invariant_factors", counted)
    distinct, pairs = {}, 0
    for params in connected_params(400):
        pres = goeritz_presentation(params)
        abelianize_presentation(pres)
        distinct[id(pres)] = pres
        pairs += 1
    assert pairs == 3327
    assert len(distinct) == 7
    assert len(calls) <= len(distinct)
