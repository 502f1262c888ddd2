import dataclasses
import math

import pytest

from goeritz import farey
from goeritz.farey import (
    ConnectedComplexError,
    FareyLabel,
    continued_fraction,
    nonconnectivity_witness,
    replacement,
    seed_labels,
    solve_replacement_equation,
)
from goeritz.primitivity import is_primitive_whitehead
from goeritz.sequences import make_params
from goeritz.words import parse_word


def nonconnected_pairs(max_p):
    for p in range(2, max_p + 1):
        for q in range(1, p // 2 + 1):
            if math.gcd(p, q) == 1 and not make_params(p, q).connected:
                yield p, q


def test_continued_fraction_examples():
    assert continued_fraction(3, 1) == (3,)
    assert continued_fraction(5, 2) == (2, 2)
    assert continued_fraction(7, 5) == (1, 2, 2)


def test_continued_fraction_normalization():
    # a trailing quotient of 1 is absorbed, so the last quotient is >= 2
    for num in range(2, 40):
        for den in range(1, num):
            if math.gcd(num, den) != 1:
                continue
            cf = continued_fraction(num, den)
            assert all(part >= 1 for part in cf)
            assert cf[-1] >= 2
            value = cf[-1]
            for part in reversed(cf[:-1]):
                value = part + 1 / value
            assert abs(value - num / den) < 1e-12


def test_continued_fraction_rejections():
    with pytest.raises(ValueError):
        continued_fraction(6, 4)
    with pytest.raises(ValueError):
        continued_fraction(3, 5)
    with pytest.raises(ValueError):
        continued_fraction(3, 0)


def test_seed_labels_examples():
    params = make_params(12, 5)
    d0, dm1 = seed_labels(params)
    assert (d0.a, d0.b, d0.d, d0.e) == (1, 0, 1, 7)
    assert str(d0.word(5)) == "xy^5xy^7"
    assert (dm1.a, dm1.b, dm1.d, dm1.e) == (0, 1, 0, 0)
    assert str(dm1.word(5)) == "x"

    d0, _ = seed_labels(make_params(13, 5))
    assert str(d0.word(5)) == "xy^5xy^8"
    d0, _ = seed_labels(make_params(17, 7))
    assert str(d0.word(7)) == "xy^7xy^10"


def test_seed_labels_reject_connected():
    with pytest.raises(ConnectedComplexError):
        seed_labels(make_params(5, 2))


def test_replacement_examples_12_5():
    params = make_params(12, 5)
    d0, dm1 = seed_labels(params)
    first = replacement(d0, dm1, params)
    assert (first.a, first.b, first.d, first.e) == (1, 1, 2, 2)
    assert str(first.word(5)) == "xy^5xy^5xy^2"
    second = replacement(d0, first, params)
    assert (second.a, second.b, second.d, second.e) == (2, 1, 4, 4)
    # recursion agrees with the closed forms d = a*m + b - 1, e = a*r - (b-1)*q
    assert second.matches_closed_form(params)


def test_mediant_of_seeds_is_one_over_one():
    for p, q in ((12, 5), (17, 7), (19, 7)):
        params = make_params(p, q)
        d0, dm1 = seed_labels(params)
        new = replacement(d0, dm1, params)
        assert (new.a, new.b) == (1, 1)


def test_solve_replacement_equation():
    assert solve_replacement_equation(make_params(12, 5)) == (3, 0)
    assert solve_replacement_equation(make_params(17, 7)) == (5, 1)
    for p, q in nonconnected_pairs(40):
        params = make_params(p, q)
        s, t = solve_replacement_equation(params)
        assert s >= 1 and t >= 0
        assert s * params.r - (t + 1) * params.q == 1
        # minimality of s
        assert all(
            (k * params.r - 1) % params.q != 0 or k * params.r <= params.q
            for k in range(1, s)
        )


def test_replacement_checks_raise_internal_errors(monkeypatch):
    # r = 1 is a connected case; forced through, the equation has no t >= 0
    forged = dataclasses.replace(make_params(12, 5), r=1)
    with pytest.raises(RuntimeError, match="not a positive integer"):
        solve_replacement_equation(forged)
    # a schedule cut short ends at the wrong fraction
    monkeypatch.setattr(farey, "continued_fraction", lambda a, b: (1,))
    with pytest.raises(RuntimeError, match="ended at"):
        nonconnectivity_witness(make_params(17, 7))


def test_witness_trace_12_5():
    trace = nonconnectivity_witness(make_params(12, 5))
    assert (trace.s, trace.t, trace.cf) == (3, 0, (3,))
    words = [str(step.word) for step in trace.disks]
    assert words == [
        "xy^5xy^7",
        "x",
        "xy^5xy^5xy^2",
        "xy^5xy^5xy^5xy^5xy^4",
        "xy^5xy^5xy^5xy^5xy^5xy^5xy^6",
    ]
    assert [step.tag for step in trace.disks] == ["seed", "seed", "R", "R", "R"]
    assert trace.final.label.e == 6


def test_witness_trace_17_7():
    trace = nonconnectivity_witness(make_params(17, 7))
    assert (trace.s, trace.t, trace.cf) == (5, 1, (2, 2))
    assert trace.final.label.fraction == "5/2"
    assert trace.final.label.e == 8
    assert [step.tag for step in trace.disks] == ["seed", "seed", "R", "R", "L", "L"]


def test_witness_rejects_connected():
    with pytest.raises(ConnectedComplexError, match="connected"):
        nonconnectivity_witness(make_params(5, 2))


def test_witness_oracle_verdicts_12_5():
    trace = nonconnectivity_witness(make_params(12, 5))
    assert is_primitive_whitehead(trace.final.word)
    assert not is_primitive_whitehead(trace.disks[0].word)  # D_0
    assert not is_primitive_whitehead(trace.disks[2].word)  # D_1


def test_witness_properties_sweep_small():
    for p, q in nonconnected_pairs(30):
        params = make_params(p, q)
        trace = nonconnectivity_witness(params)
        assert trace.final.label.e == q + 1
        assert (trace.final.label.a, trace.final.label.b) == (trace.s, trace.t + 1)
        for step in trace.disks:
            assert step.label.matches_closed_form(params)
            if step.tag != "seed":
                assert step.label.e >= 1
                left, right = step.pair_before
                assert abs(left.a * right.b - right.a * left.b) == 1
                assert (step.label.a, step.label.b) == (
                    left.a + right.a,
                    left.b + right.b,
                )


def test_label_word_shape():
    label = FareyLabel(a=2, b=1, d=3, e=2)
    assert str(label.word(2)) == "xy^2xy^2xy^2xy^2"
    assert label.fraction == "2/1"


def test_label_word_matches_the_letter_list():
    for q in range(1, 6):
        for d in range(5):
            for e in range(7):
                label = FareyLabel(a=1, b=1, d=d, e=e)
                assert label.word(q).codes == ((1,) + (2,) * q) * d + (1,) + (2,) * e


def test_label_word_spells_a_negative_y_exponent():
    """(1, 2, 3, -3) is the label 1/2 of L(12,5) by its closed forms; its
    word ends in y^-3, not in the y^5 of the repeated block."""
    label = FareyLabel(a=1, b=2, d=3, e=-3)
    assert label.matches_closed_form(make_params(12, 5))
    assert label.word(5) == parse_word("xy^5xy^5xy^5xy^-3")
    with pytest.raises(ValueError, match="d must be >= 0"):
        FareyLabel(a=1, b=2, d=-1, e=0).word(5)


def test_label_word_refuses_a_block_exponent_below_one():
    """q is the y exponent of the repeated block xy^q: q = 0 or q = -3 would
    spell the same wrong word x^3y for (1, 0, 2, 1)."""
    label = FareyLabel(a=1, b=0, d=2, e=1)
    for q in (0, -3):
        with pytest.raises(ValueError, match="q must be >= 1, got " + str(q)):
            label.word(q)
    assert label.word(1) == parse_word("xyxyxy")
