from itertools import product

import pytest

from goeritz import words
from goeritz.words import (
    MAX_WORD_LETTERS,
    CyclicWord,
    Letter,
    Word,
    WordParseError,
    abelianize,
    cyclic_reduce,
    cyclically_equal,
    invert,
    parse_word,
    reduce,
    reverse,
    substitute,
    swap_generators,
)


def w(text):
    return parse_word(text)


def all_reduced_words(max_len, letters=(1, -1, 2, -2)):
    for n in range(max_len + 1):
        for tup in product(letters, repeat=n):
            if all(tup[i] != -tup[i + 1] for i in range(n - 1)):
                yield Word(tup)


def test_reduce_examples():
    assert len(w("x X")) == 0
    assert w("x y Y x") == w("x x")
    assert w("z y y z y y z y").spell() == "zyyzyyzy"


def test_reduce_is_idempotent_and_never_longer():
    for word in all_reduced_words(5):
        assert Word(word.codes) == word
        assert len(reduce(list(word.codes) + [1, -1])) <= len(word) + 2


def test_cyclic_reduce_examples():
    assert cyclic_reduce(w("y x Y")) == CyclicWord(w("x"))
    assert cyclic_reduce(w("x y")) == CyclicWord(w("x y"))
    assert cyclic_reduce(w("Y z y")) == CyclicWord(w("z"))


def test_cyclic_reduce_shrinks():
    for word in all_reduced_words(6):
        assert len(cyclic_reduce(word)) <= len(word)


def test_cyclically_equal_examples():
    assert cyclically_equal(w("z y"), w("y z"))
    assert not cyclically_equal(w("z y y"), w("z y z"))
    base = w("z z z z y z z y").codes
    rotated = base[3:] + base[:3]
    assert cyclically_equal(w("z z y z z y z z"), Word(rotated))
    # agrees with brute force over all eight rotations
    target = w("z z y z z y z z").codes
    assert any(base[i:] + base[:i] == target for i in range(8))


def test_cyclically_equal_is_rotation_invariant():
    for word in all_reduced_words(5):
        codes = cyclic_reduce(word).codes
        for i in range(len(codes)):
            assert cyclically_equal(Word(codes), Word(codes[i:] + codes[:i]))


def test_invert_reverse_swap_examples():
    assert invert(w("x y")).spell() == "YX"
    assert reverse(w("z y y")).spell() == "yyz"
    assert swap_generators(w("z y y z y y y y")).spell() == "yzzyzzzz"


def test_involutions():
    for word in all_reduced_words(5):
        assert invert(invert(word)) == word
        assert reverse(reverse(word)) == word
        assert swap_generators(swap_generators(word, ("x", "y")), ("x", "y")) == word
        a, b = abelianize(word)
        assert abelianize(invert(word)) == (-a, -b)


def test_abelianize_examples():
    assert abelianize(w("x y")) == (1, 1)
    assert abelianize(w("x y X Y")) == (0, 0)
    assert abelianize(w("x y^2 x y^3")) == (2, 5)


def test_abelianize_rejects_mixed_alphabet():
    with pytest.raises(ValueError):
        abelianize(w("x z"))


def test_substitute_examples():
    assert substitute(w("z"), w("x y")) == w("x y")
    assert substitute(w("z y z y y"), w("x y")) == w("x y^2 x y^3")
    assert substitute(w("z z z y z"), w("x y")) == w("xyxyxy^2xy")


def test_substitute_abelianization_for_positive_words():
    for n in range(1, 6):
        for tup in product((3, 2), repeat=n):
            word = Word(tup)
            zc = sum(1 for c in tup if c == 3)
            yc = n - zc
            assert abelianize(substitute(word, w("x y"))) == (zc, zc + yc)


def test_substitute_rejects_x_words():
    with pytest.raises(ValueError):
        substitute(w("x y"), w("x y"))


def test_parse_whitespace_and_caret_agree():
    assert w("x y^5 x y^-2") == w("xy^5xy^-2")
    assert w("X") == w("x^-1")
    assert w("z^0") == Word()


def test_parse_error_offsets():
    with pytest.raises(WordParseError) as err:
        parse_word("x w")
    assert err.value.offset == 2 and "generator letter" in err.value.expected
    with pytest.raises(WordParseError) as err:
        parse_word("xy^")
    assert err.value.offset == 3 and "exponent" in err.value.expected
    with pytest.raises(WordParseError) as err:
        parse_word("x^- y")
    assert err.value.offset == 2


def test_parse_caps_the_expanded_length(monkeypatch):
    # a word of about 800 letters, the longest the benchmark feeds in, parses
    assert len(parse_word("xy^399xy^400")) == 801 < MAX_WORD_LETTERS
    monkeypatch.setattr(words, "MAX_WORD_LETTERS", 10)
    assert len(parse_word("x^4 y^6")) == 10
    assert len(parse_word("xxxxxyyyyy")) == 10
    with pytest.raises(WordParseError) as err:
        parse_word("x^4 y^7")
    assert err.value.offset == 6 and "at most 10 letters" in err.value.expected
    with pytest.raises(WordParseError) as err:
        parse_word("xxxxxyyyyyx")
    assert err.value.offset == 11
    with pytest.raises(WordParseError):
        parse_word("x^-11")
    # exponents too long for int() are refused by their digit count
    with pytest.raises(WordParseError) as err:
        parse_word("x^" + "9" * 5000)
    assert err.value.offset == 2
    assert parse_word("x^-" + "0" * 5000 + "7") == w("X^7")


def test_plain_and_mixed_letter_inputs_coerce_alike():
    assert Word((1, 2, -2, 3)).codes == (1, 3)
    assert Word([1, 2, 2]).codes == Word((1, 2, 2)).codes == (1, 2, 2)
    assert Word([Letter("x", 1), 2, Letter("y", -1)]).codes == (1,)
    assert Word(iter((2, -1))).codes == (2, -1)
    for bad in ([1.0], (0,), [4], [-4], ["x"], [[1]], (1, None)):
        with pytest.raises(ValueError, match="not a letter code"):
            Word(bad)
    with pytest.raises(ValueError, match="bad letter"):
        Word([Letter("w", 1)])
    # a bool is an int and takes the item-by-item path, as it always has
    assert Word([True, 2]).codes == (1, 2)


def test_roundtrip_through_text():
    for word in all_reduced_words(5):
        assert parse_word(word.spell()) == word
        if len(word):  # the empty word displays as "1", which is not an atom
            assert parse_word(str(word)) == word


def test_letter_views():
    word = w("x Y")
    assert word.letters == (Letter("x", 1), Letter("y", -1))
    assert Letter("y", -1).inverse() == Letter("y", 1)
    assert str(Letter("y", -1)) == "Y"


def test_canonical_rotation_ordering():
    # x before y, positive before inverse
    assert str(CyclicWord(w("y x"))) == "xy"
    assert CyclicWord(w("z z y z z y z z")).codes[0] == 3
    assert str(CyclicWord(w("Y x"))) == "xy^-1"


def test_immutability_and_hash():
    word = w("x y")
    with pytest.raises(AttributeError):
        word.codes = ()
    assert len({word, w("xy"), CyclicWord(word), CyclicWord(w("y x"))}) == 2
