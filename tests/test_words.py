import ast
from itertools import product
from pathlib import Path

import pytest
from hypothesis import given, strategies as st

import goeritz
from goeritz import words
from goeritz.words import (
    MAX_WORD_LETTERS,
    CyclicWord,
    Word,
    WordParseError,
    _caret,
    _spell,
    abelianize,
    cyclic_reduce,
    cyclically_equal,
    free_reduce_codes,
    invert,
    least_rotation,
    parse_word,
    reduce,
    reverse,
    substitute,
    swap_generators,
)

from test_whitehead_powers import FIXED

SIX_LETTERS = (1, -1, 2, -2, 3, -3)
SYMBOLS = {1: "x", 2: "y", 3: "z"}


def w(text):
    return parse_word(text)


def all_reduced_words(max_len, letters=(1, -1, 2, -2)):
    for n in range(max_len + 1):
        for tup in product(letters, repeat=n):
            if all(tup[i] != -tup[i + 1] for i in range(n - 1)):
                yield Word(_spell(tup))


def test_reduce_examples():
    assert len(w("x X")) == 0
    assert w("x y Y x") == w("x x")
    assert w("z y y z y y z y").spell() == "zyyzyyzy"


def test_reduce_is_idempotent_and_never_longer():
    for word in all_reduced_words(5):
        assert Word(word.spell()) == word
        assert len(reduce(word.spell() + "xX")) <= len(word) + 2


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
    base = w("z z z z y z z y").spell()
    rotated = base[3:] + base[:3]
    assert cyclically_equal(w("z z y z z y z z"), Word(rotated))
    # agrees with brute force over all eight rotations
    target = w("z z y z z y z z").spell()
    assert any(base[i:] + base[:i] == target for i in range(8))


def test_cyclically_equal_is_rotation_invariant():
    for word in all_reduced_words(5):
        spelled = cyclic_reduce(word).spell()
        for i in range(len(spelled)):
            assert cyclically_equal(Word(spelled), Word(spelled[i:] + spelled[:i]))


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
    with pytest.raises(ValueError, match="word mixes x and z; no generating pair applies"):
        abelianize(w("x z"))


def test_substitute_examples():
    assert substitute(w("z"), w("x y")) == w("x y")
    assert substitute(w("z y z y y"), w("x y")) == w("x y^2 x y^3")
    assert substitute(w("z z z y z"), w("x y")) == w("xyxyxy^2xy")


def test_substitute_abelianization_for_positive_words():
    for n in range(1, 6):
        for tup in product((3, 2), repeat=n):
            word = Word(_spell(tup))
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


def test_parse_accepts_only_ascii_exponent_digits():
    # str.isdigit() is true for both, and int() reads the second as 3
    for text in ("x^²", "x^٣", "y x^-٣"):
        with pytest.raises(WordParseError) as err:
            parse_word(text)
        assert err.value.offset == text.index("^") + 1
        assert "integer exponent" in err.value.expected
    assert parse_word("x^0012 y^-10").codes == (1,) * 12 + (-2,) * 10


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


def test_a_bool_is_neither_a_letter_code_nor_a_sign():
    """bool is an int subclass and True == 1, yet (True,) is not the word x:
    no sequence is a word."""
    from goeritz.euclid import is_primitive_cmz

    for bad in ((True,), [1, True], True):
        for take in (Word, CyclicWord, is_primitive_cmz):
            with pytest.raises(TypeError, match="a word is a Word, a CyclicWord or a str"):
                take(bad)


def test_roundtrip_through_text():
    for word in all_reduced_words(5):
        assert parse_word(word.spell()) == word
        if len(word):  # the empty word displays as "1", which is not an atom
            assert parse_word(str(word)) == word


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


def reference_least_rotation(codes):
    """The quadratic scan that least_rotation replaced: compare each rotation
    with the best so far, in the order x < X < z < Z < y < Y."""
    rank = {1: 0, 2: 2, 3: 1}
    keys = [(rank[abs(c)], 0 if c > 0 else 1) for c in codes]
    n = len(codes)
    best = 0
    for i in range(1, n):
        for k in range(n):
            a, b = keys[(i + k) % n], keys[(best + k) % n]
            if a < b:
                best = i
                break
            if a > b:
                break
    return tuple(codes[best:] + codes[:best])


def reference_spell(codes):
    return "".join(SYMBOLS[abs(c)] if c > 0 else SYMBOLS[abs(c)].upper() for c in codes)


def reference_caret(codes):
    """Run-length rendering one letter at a time, as _caret used to do it."""
    if not codes:
        return "1"
    parts = []
    i, n = 0, len(codes)
    while i < n:
        j = i
        while j < n and codes[j] == codes[i]:
            j += 1
        exp = (j - i) if codes[i] > 0 else -(j - i)
        sym = SYMBOLS[abs(codes[i])]
        parts.append(sym if exp == 1 else f"{sym}^{exp}")
        i = j
    return "".join(parts)


def reference_free_reduce(codes):
    out = []
    for c in codes:
        if out and out[-1] == -c:
            out.pop()
        else:
            out.append(c)
    return tuple(out)


def test_least_rotation_matches_the_quadratic_scan():
    for n in range(7):
        for codes in product(SIX_LETTERS, repeat=n):
            assert least_rotation(codes) == reference_least_rotation(codes), codes
    for codes in (
        (1,) + (2,) * 400 + (1,) + (2,) * 401,
        (3, 2, 1, 2) * 50,
        (1, 2, 3, 2) * 49 + (3, 2, 1, 2),
        tuple(-c for c in (1, 2, 2, 1, 2) * 80),
    ):
        assert least_rotation(codes) == reference_least_rotation(codes)


def test_spell_caret_and_free_reduction_match_the_letter_loops():
    for n in range(6):
        for codes in product(SIX_LETTERS, repeat=n):
            assert _spell(codes) == reference_spell(codes)
            assert _caret(_spell(codes)) == reference_caret(codes), codes
            assert free_reduce_codes(codes) == reference_free_reduce(codes)
            assert free_reduce_codes(list(codes)) == reference_free_reduce(codes)
    for codes in (
        (1,) * 1000,
        (-2,) * 999 + (3,) + (-3,) * 3,
        (1, 2) * 500 + (-1,),
        (2,) * 5 + (1,) + (2,) * 400 + (-1,) * 2 + (-2,),
    ):
        assert _spell(codes) == reference_spell(codes)
        assert _caret(_spell(codes)) == reference_caret(codes)
        assert free_reduce_codes(codes + tuple(-c for c in reversed(codes))) == ()


# --- properties of the word algebra, over each two-letter alphabet in use


@st.composite
def words_over_one_alphabet(draw, count):
    """count words over {x, y} or over {z, y}, each of up to 60 letters."""
    letters = draw(st.sampled_from(((1, -1, 2, -2), (3, -3, 2, -2))))
    word = st.lists(st.sampled_from(letters), max_size=60).map(lambda codes: Word(_spell(codes)))
    return tuple(draw(word) for _ in range(count))


@FIXED
@given(words_over_one_alphabet(3))
def test_word_algebra_properties(words):
    u, v, t = words
    assert ~~u == u
    assert u * ~u == Word()
    assert (u * v) * t == u * (v * t)
    assert CyclicWord(u * v) == CyclicWord(v * u)
    # the empty word is written 1, which is not word text; it parses from ""
    assert parse_word(str(u) if len(u) else "") == u


@FIXED
@given(st.lists(st.sampled_from(SIX_LETTERS), max_size=40).map(lambda codes: Word(_spell(codes))),
       st.lists(st.sampled_from(SIX_LETTERS), max_size=40).map(lambda codes: Word(_spell(codes))))
def test_cyclic_words_are_canonical_over_all_six_letters(u, v):
    """A word may mix x and z; its cyclic word is still one per rotation class."""
    assert CyclicWord(u * v) == CyclicWord(v * u)


def test_a_word_mixing_x_and_z_has_one_cyclic_word():
    assert cyclically_equal(Word("xz"), Word("zx"))
    assert CyclicWord(w("z x")).codes == (1, 3)
    assert CyclicWord(w("Z x y z X")).codes == (1, 2, 3, -1, -3)


def test_the_package_checks_invariants_without_assert():
    """python -O strips assert statements, so the package raises instead."""
    package = Path(goeritz.__file__).resolve().parent
    found = [
        f"{path.name}:{node.lineno}"
        for path in sorted(package.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text(), str(path)))
        if isinstance(node, ast.Assert)
    ]
    assert len(list(package.glob("*.py"))) > 10 and found == []


def test_a_lone_1_parses_as_the_empty_word(capsys):
    from goeritz.cli import main

    assert str(Word()) == "1"
    for text in ("1", " 1", "1 ", "\t1\n"):
        assert parse_word(text) == Word(), repr(text)
    for text in ("11", "1x", "x 1", "1^2", "x^1 1"):
        with pytest.raises(WordParseError):
            parse_word(text)
    # `primitive 1` decides the empty word as `primitive ''` does
    assert main(["primitive", "1"]) == main(["primitive", ""]) == 1
    first, second = capsys.readouterr().out.split("method: cmz\n", 1)[0], None
    assert first == "word: 1\n"


def test_powers_and_letters_of_a_word():
    w = Word("xy")
    assert w ** 3 == Word("xyxyxy") and str(w ** 3) == "xyxyxy"
    assert w ** -2 == Word("YXYX") and str(w ** -2) == "y^-1x^-1y^-1x^-1"
    assert w ** 0 == Word() and str(w ** 0) == "1"


# --- one word format at every entry point

# The words every entry point reads, each a cyclically reduced spelling in
# its least rotation, so that its Word, its CyclicWord and the spelling
# itself stand for one word: over {x, y}, over {z, y}, mixing x and z,
# primitive and not.
SPELLINGS = ("", "x", "y", "xy", "xY", "xxyy", "xyXY", "xyxyy", "xYxYY", "zyy", "zyzyy",
             "zYY", "xz")


def _word_entry_points():
    """{name: (a call reading one word, whether a CyclicWord in gives a CyclicWord out)}
    for every public entry point that reads a word."""
    from goeritz.euclid import (
        check_certificate, cmz_trace, is_primitive_cmz, primitivity_certificate,
    )
    from goeritz.primitivity import (
        is_primitive_positive, is_primitive_whitehead, nonprimitivity_filter,
        whitehead_reduce_step, whitehead_trace,
    )

    xy_certificate = primitivity_certificate("xy")
    calls = {
        "Word": Word,
        "CyclicWord": CyclicWord,
        "reduce": reduce,
        "cyclic_reduce": cyclic_reduce,
        "cyclically_equal, first": lambda w: cyclically_equal(w, "yzy"),
        "cyclically_equal, second": lambda w: cyclically_equal("xyy", w),
        "abelianize": abelianize,
        "substitute, first": lambda w: substitute(w, "xyX"),
        "substitute, second": lambda w: substitute("zyZy", w),
        "Word * other": lambda w: Word("yX") * w,
        "is_primitive_cmz": is_primitive_cmz,
        "is_primitive_whitehead": is_primitive_whitehead,
        "is_primitive_positive": is_primitive_positive,
        "nonprimitivity_filter": nonprimitivity_filter,
        "primitivity_certificate": primitivity_certificate,
        "check_certificate": lambda w: check_certificate(w, xy_certificate),
        "cmz_trace": cmz_trace,
        "whitehead_trace": whitehead_trace,
        "whitehead_reduce_step": whitehead_reduce_step,
    }
    entry_points = {name: (call, False) for name, call in calls.items()}
    for keeps_type in (invert, reverse, swap_generators):
        entry_points[keeps_type.__name__] = (keeps_type, True)
    return entry_points


def _answer(call):
    """repr of what call() returns, or the type and text of what it raises."""
    try:
        return "returned", repr(call())
    except Exception as exc:  # the outcome is compared, not handled
        return type(exc), str(exc)


def test_every_entry_point_reads_a_word_a_cyclic_word_or_a_spelling_alike():
    """A Word, a CyclicWord and the spelling give one answer everywhere
    (a type-preserving operation returns the CyclicWord of that answer
    for a CyclicWord); a tuple, a list or bytes raises TypeError, and a
    stray character one ValueError."""
    for name, (call, keeps_type) in _word_entry_points().items():
        for spelled in SPELLINGS:
            word, cyclic = Word(spelled), CyclicWord(spelled)
            assert word.spell() == cyclic.spell() == spelled
            expected = _answer(lambda: call(spelled))
            assert _answer(lambda: call(word)) == expected, (name, spelled)
            if keeps_type:
                expected = _answer(lambda: CyclicWord(call(spelled)))
            assert _answer(lambda: call(cyclic)) == expected, (name, spelled)
        for bad in ((1, 2), [1, 2], b"xy", ()):
            with pytest.raises(TypeError, match="a word is a Word, a CyclicWord or a str"):
                call(bad)
        for bad, found in (("xw", "'w'"), ("x y", "' '"), ("xy^2", "'^'"), ("X1", "'1'")):
            with pytest.raises(ValueError) as err:
                call(bad)
            assert str(err.value) == f"a spelled word has the letters xXyYzZ only, found {found}", name
