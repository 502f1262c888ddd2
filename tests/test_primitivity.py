import math
import random
from collections import Counter
from itertools import product

import pytest

from goeritz import primitivity
from goeritz.primitivity import (
    WHITEHEAD_AUTOMORPHISMS,
    WHITEHEAD_TYPE_I,
    WHITEHEAD_TYPE_II,
    FilterOutcome,
    WhiteheadAutomorphism,
    _PAIRS,
    _GAP_FORMS,
    _TYPE_II_COEFFICIENTS,
    _cyclic_core,
    _find_shortening,
    _length_change_coefficients,
    _pair_counts,
    _power,
    _power_step,
    is_primitive_positive,
    is_primitive_whitehead,
    nonprimitivity_filter,
    oz_canonical_word,
    whitehead_reduce_step,
    whitehead_trace,
)
from goeritz.euclid import is_primitive_cmz
from goeritz.words import (
    CyclicWord,
    MixedAlphabetError,
    Word,
    _rank2_spelling,
    _spell,
    _unspell,
    abelianize,
    cyclically_equal,
    invert,
    parse_word,
    swap_generators,
)

from test_code_tuples import cyclic_reduce_codes, free_reduce_codes


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


def predicted_length_changes(codes):
    """The cyclic length change of each type II move on a cyclically
    reduced word: one count of its two-letter subwords, then a weighted sum
    per move (once the function primitivity.predicted_length_changes)."""
    counts = _pair_counts(_spell(codes))
    return tuple(sum(c * n for c, n in zip(move, counts)) for move in _TYPE_II_COEFFICIENTS)


def test_enumeration_sizes():
    assert len(WHITEHEAD_TYPE_I) == 8
    assert len(WHITEHEAD_TYPE_II) == 12
    assert len(WHITEHEAD_AUTOMORPHISMS) == 20


def test_enumeration_order():
    """The moves in the order the oracle tries them: the first type II
    move that shortens a word is the one it takes."""
    assert [str(auto) for auto in WHITEHEAD_TYPE_I] == [
        "x -> x, y -> y", "x -> x, y -> y^-1", "x -> x^-1, y -> y", "x -> x^-1, y -> y^-1",
        "x -> y, y -> x", "x -> y, y -> x^-1", "x -> y^-1, y -> x", "x -> y^-1, y -> x^-1",
    ]
    assert [str(auto) for auto in WHITEHEAD_TYPE_II] == [
        "y -> yx", "y -> x^-1y", "y -> x^-1yx", "y -> yx^-1", "y -> xy", "y -> xyx^-1",
        "x -> xy", "x -> y^-1x", "x -> y^-1xy", "x -> xy^-1", "x -> yx", "x -> yxy^-1",
    ]


def test_every_enumerated_map_is_an_automorphism():
    """Each enumerated map is undone, on both sides, by an enumerated map."""
    for auto in WHITEHEAD_AUTOMORPHISMS:
        assert any(
            all(
                other.apply_codes(auto.apply_codes(gen)) == gen == auto.apply_codes(other.apply_codes(gen))
                for gen in ((1,), (2,))
            )
            for other in WHITEHEAD_AUTOMORPHISMS
        ), auto


def test_apply_codes_refuses_a_code_outside_the_rank_two_alphabet():
    for auto in WHITEHEAD_AUTOMORPHISMS:
        for codes in ((3,), (1, -3), (2, 0), (7,)):
            with pytest.raises(KeyError):
                auto.apply_codes(codes)


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
        assert len(CyclicWord(_spell(auto.apply_codes(word.codes)))) >= len(word)
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
        assert stepped is not None and stepped[0] == auto and stepped[1] == image
        current = image


def test_oracle_invariances_small():
    for tup in cyclically_reduced_words(6):
        word = Word(_spell(tup))
        verdict = is_primitive_whitehead(word)
        assert verdict == is_primitive_whitehead(invert(word))
        assert verdict == is_primitive_whitehead(swap_generators(word, ("x", "y")))
        for i in range(len(tup)):
            assert verdict == is_primitive_whitehead(Word(_spell(tup[i:] + tup[:i])))


def test_oracle_needs_coprime_abelianization():
    for tup in cyclically_reduced_words(7):
        word = Word(_spell(tup))
        if is_primitive_whitehead(word):
            a, b = abelianize(word)
            assert math.gcd(abs(a), abs(b)) == 1


def test_oz_agrees_with_oracle_up_to_length_nine():
    for n in range(1, 10):
        for tup in product((3, 2), repeat=n):
            word = Word(_spell(tup))
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
        word = Word(_spell(tup))
        if nonprimitivity_filter(word).outcome is FilterOutcome.NOT_PRIMITIVE:
            assert not is_primitive_whitehead(word)


def test_filter_depends_only_on_the_cyclic_core():
    for tup in cyclically_reduced_words(5):
        word = Word(_spell(tup))
        conjugated = Word("x" + _spell(tup) + "X")
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


def reference_power(auto, k):
    """auto^k by brute force: its images of x and y by k applications of
    apply_codes, and the label of the enumeration (the moved generator and
    its image)."""

    def iterate(move, gen):
        codes = (gen,)
        for _ in range(k):
            codes = move(codes)
        return codes

    image_x, image_y = _spell(iterate(auto.apply_codes, 1)), _spell(iterate(auto.apply_codes, 2))
    moved, image = ("x", image_x) if image_y == "y" else ("y", image_y)
    return WhiteheadAutomorphism("II", f"{moved} -> {Word(image)}", image_x, image_y)


def reference_trace(word):
    """The greedy power oracle by brute force: apply all twelve type II
    moves in enumeration order and take the first whose image is
    cyclically shorter; then apply that move with apply_codes while the
    word strictly shortens, and record its power."""
    codes = cyclic_reduce_codes(free_reduce_codes(word.codes))
    chain = []
    while len(codes) > 1:
        for auto in WHITEHEAD_TYPE_II:
            image = cyclic_reduce_codes(auto.apply_codes(codes))
            if len(image) < len(codes):
                break
        else:
            break
        k = 0
        while len(image) < len(codes):
            codes, k = image, k + 1
            image = cyclic_reduce_codes(auto.apply_codes(codes))
        chain.append((reference_power(auto, k), CyclicWord(_spell(codes))))
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
    return Word(_spell(codes))


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
    # the step writes each positive gap it changes as a run of its gap
    # form's up letter; a forged up letter of two characters writes the
    # image x^2y of xy^3xy^4 (under x -> y^-3x) one letter too long
    monkeypatch.setattr(primitivity, "_GAP_FORMS", tuple(f._replace(up=f.up * 2) for f in _GAP_FORMS))
    with pytest.raises(RuntimeError, match="not the predicted 3"):
        is_primitive_whitehead(w("xy^3xy^4"))


def old_trace(word):
    """whitehead_trace as it was: each image wrapped by the full CyclicWord
    construction, which reduces it again and rotates its codes."""
    spelled = _cyclic_core(_rank2_spelling(word))
    chain = []
    while len(spelled) > 1:
        found = _find_shortening(spelled)
        if found is None:
            break
        index, k, spelled = found
        chain.append((_power(index, k), CyclicWord(spelled)))
    return len(spelled) == 1, chain


def test_trace_chain_matches_the_old_construction():
    words = [Word(_spell(codes)) for codes in cyclically_reduced_words(7)]
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


def test_oracle_rejects_a_gap_form_that_misses_the_cut_vertex_prediction(monkeypatch):
    # gap forms that move no gap predict no change for any power
    monkeypatch.setattr(
        primitivity,
        "_GAP_FORMS",
        tuple(f._replace(shift=dict.fromkeys(f.shift, 0)) for f in _GAP_FORMS),
    )
    with pytest.raises(RuntimeError, match="by 0 in gap form, not the predicted -2"):
        is_primitive_whitehead(w("xy^3xy^4"))


def test_power_step_matches_repeated_moves_up_to_length_nine():
    """For every move with a negative unit change, k is the number of
    apply_codes applications that strictly shorten the word, one after
    another, and the image is the cyclic word of the k-fold image."""
    checked = powers = words = 0
    for tup in cyclically_reduced_words(9):
        words += 1
        spelled = _spell(tup)
        changes = predicted_length_changes(tup)
        # the move chosen is the first of all twelve with a negative change
        first = next((i for i, change in enumerate(changes) if change < 0), None)
        found = _find_shortening(spelled)
        assert (None if found is None else found[0]) == first, tup
        for index, change in enumerate(changes):
            if change >= 0:
                continue
            auto = WHITEHEAD_TYPE_II[index]
            codes, k = tup, 0
            while True:
                image = cyclic_reduce_codes(auto.apply_codes(codes))
                if len(image) >= len(codes):
                    break
                codes, k = image, k + 1
            power, text = _power_step(spelled, index, change)
            assert (power, CyclicWord(text)) == (k, CyclicWord(_spell(codes))), (tup, auto)
            assert cyclic_reduce_codes(_unspell(text)) == _unspell(text)
            checked += 1
            powers += k > 1
    assert (words, checked, powers) == (29_540, 29_616, 8_576)


def test_conjugation_moves_never_change_the_cyclic_length():
    conjugations = [i for i, auto in enumerate(WHITEHEAD_TYPE_II) if len(auto.image_x + auto.image_y) == 4]
    assert len(conjugations) == 4
    assert all(set(_GAP_FORMS[i].shift.values()) == {0} for i in conjugations)
    for tup in cyclically_reduced_words(8):
        changes = predicted_length_changes(tup)
        assert [changes[i] for i in conjugations] == [0] * 4, tup


def test_powers_of_moves():
    assert all(_power(i, 1) is auto for i, auto in enumerate(WHITEHEAD_TYPE_II))
    labels = {str(_power(i, 5)) for i in range(12)} | {str(_power(i, 3)) for i in range(12)}
    assert {"x -> xy^5", "y -> x^-3y", "x -> y^-5xy^5", "y -> yx^-3"} <= labels
    for index in range(12):
        for k in range(1, 13):
            assert _power(index, k) == reference_power(WHITEHEAD_TYPE_II[index], k)


def test_oracle_takes_spelled_words():
    for tup in cyclically_reduced_words(6):
        spelled = _spell(tup)
        verdict = is_primitive_whitehead(Word(spelled))
        assert is_primitive_whitehead(spelled) is verdict, spelled
        # not reduced as spelled: conjugated, with a cancelling pair inside
        assert is_primitive_whitehead("y" + spelled + "xXY") is verdict, spelled
        assert is_primitive_whitehead(spelled.replace("x", "z").replace("X", "Z")) is verdict
    assert is_primitive_whitehead("zyzyy") and is_primitive_whitehead("yzz")
    assert not is_primitive_whitehead("yY") and not is_primitive_whitehead("")
    for bad in ("xy1", "x y", "xy^2", "xyw", "xé"):
        with pytest.raises(ValueError, match="letters xXyYzZ only"):
            is_primitive_whitehead(bad)
    with pytest.raises(MixedAlphabetError):
        is_primitive_whitehead("xzy")


def _outcome(decide, word):
    """A decider's result on a word, or the type of the error it raises."""
    try:
        return decide(word)
    except ValueError as exc:
        return type(exc)


def test_deciders_take_every_input_form():
    """Words and spellings over xXyY or zZyY decide alike, for every word
    of up to six letters, reduced or not."""
    to_z = str.maketrans("xX", "zZ")
    checked = 0
    for n in range(7):
        for tup in product((1, -1, 2, -2), repeat=n):
            spelled = _spell(tup)
            forms = [spelled, spelled.translate(to_z)]
            if free_reduce_codes(tup) == tup:
                forms += [Word(spelled), Word(spelled.translate(to_z))]
            for decide in (nonprimitivity_filter, is_primitive_positive, is_primitive_whitehead,
                           is_primitive_cmz):
                expected = _outcome(decide, spelled)
                assert [_outcome(decide, form) for form in forms] == [expected] * len(forms), (
                    decide.__name__,
                    spelled,
                )
            checked += 1
    assert checked == 5461
    # the normal form refuses inverse letters as given, before any reduction
    for word in ("Xyx", "xXy", "zZy", "Zyz"):
        with pytest.raises(ValueError, match="negative letters"):
            is_primitive_positive(word)
    assert is_primitive_positive(Word("xXy"))  # reduced to y when built


def test_deciders_raise_the_same_errors():
    for decide in (nonprimitivity_filter, is_primitive_positive, is_primitive_whitehead,
                   is_primitive_cmz):
        for mixed in ("xzy", Word("xzy")):
            with pytest.raises(MixedAlphabetError, match="mixes x and z"):
                decide(mixed)
        with pytest.raises(ValueError, match="letters xXyYzZ only, found '1'"):
            decide("xy1")
