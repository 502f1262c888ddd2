"""Connectivity refusals keep their texts while formatting them only when
read, and make_params keeps its verdicts on what is and is not an int."""

import dataclasses
import math
import pickle

import pytest

from goeritz import sequences
from goeritz.classify import DisconnectedComplexError, vertex_orbits
from goeritz.farey import ConnectedComplexError, nonconnectivity_witness
from goeritz.presentations import amalgam_decomposition, goeritz_presentation
from goeritz.sequences import InvalidParameters, PqParams, make_params

MAX_P = 60


def normalized_pairs(max_p):
    """Every coprime (p, q) with 0 < q <= p/2 and p <= max_p."""
    for p in range(2, max_p + 1):
        for q in range(1, p // 2 + 1):
            if math.gcd(p, q) == 1:
                yield p, q


def refusal(call, params, error):
    with pytest.raises(error) as caught:
        call(params)
    return caught.value


def assert_text(exc, text):
    assert str(exc) == text
    assert repr(exc) == f"{type(exc).__name__}({text!r})"


def test_disconnected_refusals_keep_their_texts():
    refused = 0
    for p, q in normalized_pairs(MAX_P):
        params = make_params(p, q)
        if params.connected:
            continue
        refused += 1
        not_covered = (
            f"L({p},{q}): not covered; the presentation requires p = +1 or -1 mod q "
            f"(here p mod q = {p % q})"
        )
        for call in (goeritz_presentation, amalgam_decomposition):
            assert_text(refusal(call, params, DisconnectedComplexError), not_covered)
        assert_text(
            refusal(vertex_orbits, params, DisconnectedComplexError),
            f"L({p},{q}): p mod q = {p % q} is neither 1 nor q - 1 = {q - 1}; the primitive "
            "disk complex is disconnected and the orbit data is only defined in the "
            "connected case",
        )
    assert refused == 275


def test_connected_refusals_keep_their_texts():
    refused = 0
    for p, q in normalized_pairs(MAX_P):
        params = make_params(p, q)
        if not params.connected:
            continue
        refused += 1
        assert_text(
            refusal(nonconnectivity_witness, params, ConnectedComplexError),
            f"L({p},{q}): p = {p} is congruent to +1 or -1 mod q = {q}; the primitive "
            "disk complex is connected and no witness exists",
        )
    assert refused == 276


def test_a_refusal_caught_and_never_read_formats_nothing(monkeypatch):
    calls = []
    text = PqParams.__str__

    def counted(self):
        calls.append(self)
        return text(self)

    monkeypatch.setattr(PqParams, "__str__", counted)
    disconnected, connected = make_params(12, 5), make_params(7, 3)
    for call, params, error in (
        (goeritz_presentation, disconnected, DisconnectedComplexError),
        (amalgam_decomposition, disconnected, DisconnectedComplexError),
        (vertex_orbits, disconnected, DisconnectedComplexError),
        (nonconnectivity_witness, connected, ConnectedComplexError),
    ):
        try:
            call(params)
        except error:
            pass
    assert calls == []
    assert str(refusal(goeritz_presentation, disconnected, DisconnectedComplexError)).startswith(
        "L(12,5): not covered"
    )
    assert calls == [disconnected]


def test_a_refusal_survives_a_pickle_round_trip():
    for call, params, error in (
        (goeritz_presentation, make_params(12, 5), DisconnectedComplexError),
        (vertex_orbits, make_params(12, 5), DisconnectedComplexError),
        (nonconnectivity_witness, make_params(7, 3), ConnectedComplexError),
    ):
        exc = refusal(call, params, error)
        for protocol in range(pickle.HIGHEST_PROTOCOL + 1):
            copy = pickle.loads(pickle.dumps(exc, protocol))
            assert type(copy) is error
            assert str(copy) == str(exc) and repr(copy) == repr(exc)


def test_a_refusal_made_from_a_string_reads_as_that_string():
    exc = DisconnectedComplexError("refused")
    assert str(exc) == "refused" and repr(exc) == "DisconnectedComplexError('refused')"


@pytest.mark.parametrize("bad", [True, 1.0, "7", None])
def test_a_non_integer_p_or_q_is_refused(bad):
    for p, q in ((bad, 3), (7, bad)):
        with pytest.raises(InvalidParameters) as caught:
            make_params(p, q)
        assert caught.value.args == ("p and q must be integers",)


class Tagged(int):
    def __repr__(self):
        return f"Tagged({int(self)})"


def generated(p, q, qn, q_prime):
    """The record the generated __init__ makes from already normalized fields."""
    r = p % qn
    return PqParams(
        p=p, q=qn, q_prime=q_prime, r=r, m=p // qn, connected=qn == 1 or r in (1, qn - 1)
    )


def test_an_int_subclass_is_accepted_and_kept():
    # q = 5 <= p - q is kept as passed; q = 7 becomes p - q, a plain int
    kept = make_params(Tagged(12), Tagged(5))
    assert kept == generated(12, 5, 5, 5)
    assert type(kept.p) is Tagged and type(kept.q) is Tagged
    assert repr(kept) == "PqParams(p=Tagged(12), q=Tagged(5), q_prime=5, r=2, m=2, connected=False)"
    turned = make_params(Tagged(12), Tagged(7))
    assert turned == kept
    assert type(turned.p) is Tagged and type(turned.q) is int
    assert repr(turned) == "PqParams(p=Tagged(12), q=5, q_prime=5, r=2, m=2, connected=False)"
    assert [f.name for f in dataclasses.fields(PqParams)] == list(vars(kept))


def test_both_guard_branches_run(monkeypatch):
    """Exact ints skip the isinstance guard; anything else is judged by it."""
    judged = []
    builtin_isinstance = isinstance

    def counted(value, cls):
        judged.append(value)
        return builtin_isinstance(value, cls)

    monkeypatch.setattr(sequences, "isinstance", counted, raising=False)
    assert make_params(12, 5) == generated(12, 5, 5, 5)
    assert judged == []
    assert make_params(Tagged(12), 5) == generated(12, 5, 5, 5)
    assert judged
    judged.clear()
    with pytest.raises(InvalidParameters):
        make_params(12, True)
    assert judged
