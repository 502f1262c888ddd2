"""The records that make_params and classify fill in one step are the
records their generated dataclass __init__ makes, on every pair."""

import dataclasses
import math
import pickle
import random

from goeritz.classify import case_data, classify
from goeritz.sequences import PqParams, make_params
from goeritz.words import _free_reduce

MAX_P = 400


def coprime_pairs(max_p):
    """Every coprime (p, q) with 0 < q < p <= max_p, q not normalized."""
    for p in range(2, max_p + 1):
        for q in range(1, p):
            if math.gcd(p, q) == 1:
                yield p, q


def field_names(cls):
    return [f.name for f in dataclasses.fields(cls)]


def generated(record):
    """The same record made through the generated __init__."""
    cls = type(record)
    return cls(**{name: getattr(record, name) for name in field_names(cls)})


def assert_same_record(fast, slow):
    assert type(fast) is type(slow)
    assert list(vars(fast)) == field_names(type(fast))
    assert fast == slow and slow == fast
    assert hash(fast) == hash(slow)
    assert repr(fast) == repr(slow)
    assert pickle.dumps(fast) == pickle.dumps(slow)
    assert pickle.loads(pickle.dumps(fast)) == slow
    assert dataclasses.replace(fast) == slow
    assert vars(dataclasses.replace(fast)) == vars(slow)


def test_make_params_equals_the_generated_record_on_every_pair():
    for p, q in coprime_pairs(MAX_P):
        qn = min(q, p - q)
        inverse = pow(qn, -1, p)
        r = p % qn
        slow = PqParams(
            p=p, q=qn, q_prime=min(inverse, p - inverse), r=r, m=p // qn,
            connected=qn == 1 or r in (1, qn - 1),
        )
        assert_same_record(make_params(p, q), slow)


def test_classify_equals_the_generated_record_on_every_pair():
    for p, q in coprime_pairs(MAX_P):
        if 2 * q > p:
            continue
        fast = classify(make_params(p, q))
        assert_same_record(fast, generated(fast))


def test_a_replaced_field_round_trips():
    params = make_params(12, 5)
    moved = dataclasses.replace(params, q=7)
    assert moved.q == 7 and moved != params
    assert dataclasses.replace(moved, q=5) == params
    report = classify(make_params(8, 3))
    other = dataclasses.replace(report, params=make_params(10, 3))
    assert other.params == make_params(10, 3) and other != report
    assert dataclasses.replace(other, params=report.params) == report


def test_reports_of_one_row_keep_their_own_params():
    first_params, second_params = make_params(8, 3), make_params(15, 4)
    assert case_data(first_params) is case_data(second_params)
    first = classify(first_params)
    second = classify(second_params)
    assert vars(first) is not vars(second)
    assert first.params is first_params and second.params is second_params
    assert first != second
    third = classify(first_params)
    assert vars(third) is not vars(first) and third == first


def _stack_reduce(spelled):
    out = []
    for ch in spelled:
        if out and out[-1] == ch.swapcase():
            out.pop()
        else:
            out.append(ch)
    return "".join(out)


def test_free_reduce_agrees_with_a_stack_reduction_on_random_spellings():
    rng = random.Random(20260)
    for _ in range(4000):
        # a narrower alphabet cancels more, and in longer cascades
        alphabet = rng.choice(("xXyYzZ", "xXyY", "xX"))
        spelled = "".join(rng.choices(alphabet, k=rng.randrange(0, 40)))
        reduced = _stack_reduce(spelled)
        assert _free_reduce(spelled) == reduced
        assert _free_reduce(reduced) == reduced
