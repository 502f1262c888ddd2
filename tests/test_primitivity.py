import math
import random
from collections import Counter
from itertools import product

import pytest

from goeritz.primitivity import (
    WHITEHEAD_AUTOMORPHISMS,
    WHITEHEAD_TYPE_I,
    WHITEHEAD_TYPE_II,
    FilterOutcome,
    WhiteheadAutomorphism,
    _PAIRS,
    _find_shortening,
    _length_change_coefficients,
    _pair_counts,
    _spelled_core,
    is_primitive_positive,
    is_primitive_whitehead,
    nonprimitivity_filter,
    oz_canonical_word,
    predicted_length_changes,
    whitehead_reduce_step,
    whitehead_trace,
)
from goeritz.words import (
    CyclicWord,
    Word,
    _spell,
    _unspell,
    abelianize,
    cyclic_reduce_codes,
    cyclically_equal,
    free_reduce_codes,
    invert,
    parse_word,
    swap_generators,
)


def w(text):
    return parse_word(text)


def cyclically_reduced_words(max_len):
    letters = (1, -1, 2, -2)
    for n in range(1, max_len + 1):
        for tup in product(letters, repeat=n):
            if any(tup[i] == -tup[i + 1] for i in range(n - 1)):
                continue
            if n > 1 and tup[0] == -tup[-1]:
                continue
            yield tup


def test_enumeration_sizes():
    assert len(WHITEHEAD_TYPE_I) == 8
    assert len(WHITEHEAD_TYPE_II) == 12
    assert len(WHITEHEAD_AUTOMORPHISMS) == 20


def test_every_enumerated_map_is_an_automorphism():
    for auto in WHITEHEAD_AUTOMORPHISMS:
        for gen in ((1,), (2,)):
            assert auto.inverse_codes(auto.apply_codes(gen)) == gen
            assert auto.apply_codes(auto.inverse_codes(gen)) == gen


def test_oz_canonical_word_examples():
    assert cyclically_equal(oz_canonical_word(3, 5), w("z y y z y y z y"))
    assert cyclically_equal(oz_canonical_word(3, 10), w("zy^4zy^3zy^3"))
    assert oz_canonical_word(1, 1) == CyclicWord(w("z y"))


def test_oz_letter_counts():
    for m, n in ((1, 4), (2, 5), (3, 8), (5, 7)):
        word = oz_canonical_word(m, n)
        assert sum(1 for c in word.codes if c == 3) == m
        assert sum(1 for c in word.codes if c == 2) == n


def test_oz_rejections():
    with pytest.raises(ValueError):
        oz_canonical_word(2, 4)
    with pytest.raises(ValueError):
        oz_canonical_word(5, 3)
    with pytest.raises(ValueError):
        oz_canonical_word(0, 1)


def test_is_primitive_positive_examples():
    assert is_primitive_positive(w("z y y z y y z y"))
    assert not is_primitive_positive(w("z y y z y y y y"))
    assert is_primitive_positive(w("y"))
    assert not is_primitive_positive(w("y y"))
    assert not is_primitive_positive(Word())


def test_is_primitive_positive_swaps_when_z_heavy():
    assert is_primitive_positive(w("z z y"))
    assert is_primitive_positive(w("z z y z y"))


def test_is_primitive_positive_rejects_inverses():
    with pytest.raises(ValueError):
        is_primitive_positive(w("z Y"))


def test_whitehead_examples():
    assert is_primitive_whitehead(w("x"))
    assert not is_primitive_whitehead(w("x y X Y"))
    assert is_primitive_whitehead(w("z y y z y y z y"))
    assert is_primitive_whitehead(w("xy^5xy^5xy^5xy^5xy^5xy^5xy^6"))
    assert not is_primitive_whitehead(Word())


def test_reduce_step_examples():
    step = whitehead_reduce_step(w("x y"))
    assert step is not None
    auto, image = step
    assert len(image) == 1
    assert whitehead_reduce_step(w("x")) is None


def test_xxyy_is_a_local_minimum():
    word = CyclicWord(w("x x y y"))
    assert whitehead_reduce_step(word) is None
    # no single automorphism helps: every image is at least as long
    for auto in WHITEHEAD_AUTOMORPHISMS:
        assert len(CyclicWord(auto.apply_codes(word.codes))) >= len(word)
    assert not is_primitive_whitehead(word)


def test_trace_matches_stepwise_reduction():
    word = w("x y^3 x y^4")
    verdict, chain = whitehead_trace(word)
    assert verdict and chain
    lengths = [len(img) for _, img in chain]
    assert lengths == sorted(lengths, reverse=True)
    assert lengths[-1] == 1
    current = CyclicWord(word)
    for auto, image in chain:
        stepped = whitehead_reduce_step(current)
        assert stepped is not None and stepped[0] is auto and stepped[1] == image
        current = image


def test_oracle_invariances_small():
    for tup in cyclically_reduced_words(6):
        word = Word(tup)
        verdict = is_primitive_whitehead(word)
        assert verdict == is_primitive_whitehead(invert(word))
        assert verdict == is_primitive_whitehead(swap_generators(word, ("x", "y")))
        for i in range(len(tup)):
            assert verdict == is_primitive_whitehead(Word(tup[i:] + tup[:i]))


def test_oracle_needs_coprime_abelianization():
    for tup in cyclically_reduced_words(7):
        word = Word(tup)
        if is_primitive_whitehead(word):
            a, b = abelianize(word)
            assert math.gcd(abs(a), abs(b)) == 1


def test_oz_agrees_with_oracle_up_to_length_nine():
    for n in range(1, 10):
        for tup in product((3, 2), repeat=n):
            word = Word(tup)
            assert is_primitive_positive(word) == is_primitive_whitehead(word)


def test_filter_examples():
    verdict = nonprimitivity_filter(w("x y x Y"))
    assert verdict.outcome is FilterOutcome.NOT_PRIMITIVE
    assert {verdict.witness.first, verdict.witness.second} == {"xy", "xy^-1"}

    verdict = nonprimitivity_filter(w("x x y y"))
    assert verdict.outcome is FilterOutcome.NOT_PRIMITIVE
    assert {verdict.witness.first, verdict.witness.second} == {"x^2", "y^2"}

    assert nonprimitivity_filter(w("x y")).outcome is FilterOutcome.INCONCLUSIVE


def test_filter_catches_higher_power_gaps():
    verdict = nonprimitivity_filter(w("x y^2 x y^5"))
    assert verdict.outcome is FilterOutcome.NOT_PRIMITIVE
    assert verdict.witness.first == "xy^2x"
    assert verdict.witness.second == "y^4"


def test_filter_uses_all_four_normalizations():
    # X Y^2 X Y^5 only matches after inverting
    assert nonprimitivity_filter(w("Xy^-2Xy^-5")).outcome is FilterOutcome.NOT_PRIMITIVE
    # x Y^2 x Y^5 only matches after the y sign flip
    assert nonprimitivity_filter(w("xY^2xY^5")).outcome is FilterOutcome.NOT_PRIMITIVE


def test_filter_does_not_fire_on_primitives_up_to_length_eight():
    for tup in cyclically_reduced_words(8):
        word = Word(tup)
        if nonprimitivity_filter(word).outcome is FilterOutcome.NOT_PRIMITIVE:
            assert not is_primitive_whitehead(word)


def test_filter_depends_only_on_the_cyclic_core():
    for tup in cyclically_reduced_words(5):
        word = Word(tup)
        conjugated = Word((1,) + tup + (-1,))
        assert (
            nonprimitivity_filter(word).outcome
            == nonprimitivity_filter(conjugated).outcome
        )
        assert is_primitive_whitehead(word) == is_primitive_whitehead(conjugated)


def test_z_words_and_x_words_agree():
    assert is_primitive_whitehead(w("z y z y y")) == is_primitive_whitehead(w("x y x y y"))
    with pytest.raises(ValueError):
        is_primitive_whitehead(w("x z"))


def test_predicted_length_change_is_exact_up_to_length_eight():
    for tup in cyclically_reduced_words(8):
        real = tuple(
            len(cyclic_reduce_codes(auto.apply_codes(tup))) - len(tup)
            for auto in WHITEHEAD_TYPE_II
        )
        assert predicted_length_changes(tup) == real, tup


def test_one_regex_pass_reduces_every_image_up_to_length_eight():
    # the stack-based free reduction inside apply_codes is the reference
    for tup in cyclically_reduced_words(8):
        spelled = _spell(tup)
        for auto in WHITEHEAD_AUTOMORPHISMS:
            assert auto.apply_spelled(spelled) == _spell(auto.apply_codes(tup)), (auto, tup)


def test_string_pair_counts_match_a_counter_of_letter_pairs():
    """The twelve str.count calls against Counter(zip(...)) over the codes,
    and the predicted changes against the same sums over the Counter."""
    code = {"x": 1, "X": -1, "y": 2, "Y": -2}
    coefficients = [_length_change_coefficients(auto) for auto in WHITEHEAD_TYPE_II]
    for tup in cyclically_reduced_words(8):
        pairs = Counter(zip(tup, tup[1:] + tup[:1]))
        assert _pair_counts(_spell(tup)) == [pairs[code[u], code[v]] for u, v in _PAIRS], tup
        assert predicted_length_changes(tup) == tuple(
            sum(c * pairs[code[u], code[v]] for (u, v), c in zip(_PAIRS, move))
            for move in coefficients
        ), tup


def reference_trace(word):
    """The greedy oracle by brute force: apply all twelve type II moves in
    enumeration order and take the first whose image is cyclically shorter."""
    codes = cyclic_reduce_codes(free_reduce_codes(word.codes))
    chain = []
    while len(codes) > 1:
        for auto in WHITEHEAD_TYPE_II:
            image = cyclic_reduce_codes(auto.apply_codes(codes))
            if len(image) < len(codes):
                break
        else:
            break
        codes = image
        chain.append((auto, CyclicWord(codes)))
    return len(codes) == 1, chain


def automorphic_image(base, length, seed):
    """Apply random lengthening Whitehead moves to base until it is at least
    length letters long (cyclically reduced after every move)."""
    rng = random.Random(seed)
    codes = cyclic_reduce_codes(free_reduce_codes(w(base).codes))
    while len(codes) < length:
        image = cyclic_reduce_codes(rng.choice(WHITEHEAD_AUTOMORPHISMS).apply_codes(codes))
        if len(image) > len(codes):
            codes = image
    return Word(codes)


def test_trace_matches_brute_force_scan_on_long_families():
    for n in (1, 4, 37, 300):
        for text in (f"xy^{n}xy^{n + 1}", f"xY^{n}xY^{n + 2}"):
            word = w(text)
            assert whitehead_trace(word) == reference_trace(word), text


def test_trace_matches_brute_force_scan_on_automorphic_images():
    for seed, (base, primitive) in enumerate(
        (("x", True), ("x^2", False), ("x^2y^3", False), ("x^3y^4", False))
    ):
        word = automorphic_image(base, 400, seed)
        verdict, chain = whitehead_trace(word)
        assert (verdict, chain) == reference_trace(word)
        assert verdict is primitive and is_primitive_whitehead(word) is primitive


def test_oracle_rejects_a_move_that_misses_its_predicted_length(monkeypatch):
    honest = WhiteheadAutomorphism.apply_spelled
    monkeypatch.setattr(
        WhiteheadAutomorphism, "apply_spelled", lambda self, spelled: honest(self, spelled) + "xx"
    )
    with pytest.raises(RuntimeError, match="predicted"):
        is_primitive_whitehead(w("xy^3xy^4"))


def old_trace(word):
    """whitehead_trace as it was: each image wrapped by the full CyclicWord
    construction, which reduces it again and rotates its codes."""
    spelled = _spelled_core(word)
    chain = []
    while len(spelled) > 1:
        found = _find_shortening(spelled)
        if found is None:
            break
        auto, spelled = found
        chain.append((auto, CyclicWord(_unspell(spelled))))
    return len(spelled) == 1, chain


def test_trace_chain_matches_the_old_construction():
    words = [Word(codes) for codes in cyclically_reduced_words(7)]
    words += [w(f"xy^{n}xy^{n + 1}") for n in (1, 4, 37, 300)]
    words += [w(f"xY^{n}xY^{n + 2}") for n in (1, 4, 37)]
    words += [automorphic_image(base, 300, seed) for seed, base in enumerate(("x", "x^3y^4"))]
    for word in words:
        verdict, chain = whitehead_trace(word)
        old_verdict, old_chain = old_trace(word)
        assert verdict is old_verdict and chain == old_chain, word
        assert [type(image.codes) for _, image in chain] == [tuple] * len(chain)
        assert [str(image) for _, image in chain] == [str(image) for _, image in old_chain]
        step = whitehead_reduce_step(word)
        assert step == (old_chain[0] if old_chain else None)
