"""`parse_word` against the character loop it replaced.

The loop below is the parser as it was, kept as the reference: for every
text it must give the same word, or raise the same exception type with
the same offset and message.  The texts are seeded random strings over
the letters, `^`, signs, a few digits, whitespace and two non-ASCII
digits (`²` is a superscript, `٣` an Arabic-Indic three; `str.isdigit()`
holds for both), plus the letter cap lowered so that its refusals are
reached.
"""

import random

import pytest

from goeritz import words
from goeritz.words import Word, WordParseError, parse_word


def reference_parse_word(text: str) -> Word:
    """The old parser: one character at a time."""
    cap = words.MAX_WORD_LETTERS
    if text.strip() == "1":
        return Word()
    runs: list[str] = []
    letters = 0
    i = 0
    n = len(text)
    while i < n:
        ch = text[i]
        if ch.isspace():
            i += 1
            continue
        if ch not in "xyzXYZ":
            raise WordParseError(text, i, "a generator letter (x, y, z, X, Y or Z)")
        i += 1
        exp = 1
        exp_at = i
        if i < n and text[i] == "^":
            i += 1
            exp_at = j = i
            if j < n and text[j] in "+-":
                j += 1
            k = j
            while k < n and "0" <= text[k] <= "9":
                k += 1
            if k == j:
                raise WordParseError(text, i, "an integer exponent")
            digits = text[j:k].lstrip("0")
            if len(digits) > len(str(cap)):
                raise words._over_the_cap(text, exp_at)
            exp = int(digits or "0")
            if text[i] == "-":
                ch = ch.swapcase()
            i = k
        letters += exp
        if letters > cap:
            raise words._over_the_cap(text, exp_at)
        runs.append(ch * exp)
    return words._word("".join(runs))


def outcome(parse, text):
    """The word, or the refusal's type, offset and message."""
    try:
        return parse(text)
    except Exception as exc:  # noqa: BLE001 -- any exception must match in kind too
        return type(exc), getattr(exc, "offset", None), str(exc)


ALPHABET = "xyzXYZ^+-0129" + " \t" + "²٣"
# letters and exponents weighted up, so that most texts parse
WEIGHTS = [6] * 6 + [4, 2, 3, 2, 2, 2, 2] + [2, 1] + [1, 1]


def texts(rng: random.Random, count: int, longest: int):
    for _ in range(count):
        yield "".join(rng.choices(ALPHABET, WEIGHTS, k=rng.randint(0, longest)))


def atom_texts(rng: random.Random, count: int):
    """Texts made of atoms, so that most parse: letters with or without
    an exponent of up to three digits, whitespace between, and now and
    then one character of the alphabet dropped in anywhere."""
    for _ in range(count):
        atoms = []
        for _ in range(rng.randint(0, 6)):
            atom = rng.choice("xyzXYZ")
            if rng.random() < 0.6:
                atom += "^" + rng.choice(["", "+", "-"]) + "".join(rng.choices("0129", k=rng.randint(1, 3)))
            atoms.append(atom + rng.choice(["", "", " ", "\t"]))
        text = "".join(atoms)
        if rng.random() < 0.2:
            at = rng.randint(0, len(text))
            text = text[:at] + rng.choice(ALPHABET) + text[at:]
        yield text


def test_the_parser_agrees_with_the_loop_on_random_texts():
    rng = random.Random(20261019)
    parsed = refused = 0
    for text in [*texts(rng, 60_000, 14), *atom_texts(rng, 60_000)]:
        got = outcome(parse_word, text)
        assert got == outcome(reference_parse_word, text), repr(text)
        parsed += isinstance(got, Word)
        refused += not isinstance(got, Word)
    # both outcomes are well represented
    assert parsed > 20_000 and refused > 20_000


@pytest.mark.parametrize("cap", [0, 1, 5, 12, 99])
def test_the_parser_agrees_with_the_loop_under_a_lowered_cap(monkeypatch, cap):
    monkeypatch.setattr(words, "MAX_WORD_LETTERS", cap)
    rng = random.Random(cap)
    over = 0
    for text in [*texts(rng, 10_000, 12), *atom_texts(rng, 10_000)]:
        got = outcome(parse_word, text)
        assert got == outcome(reference_parse_word, text), (cap, repr(text))
        over += not isinstance(got, Word) and "letters in the expanded word" in got[2]
    assert over > 1_000


@pytest.mark.parametrize("text", [
    "1", " 1\t", "", "  ", "x^", "x^+", "x^-", "x ^2", "x^ 2", "^x", "x^2^3", "x^^2", "x^y^2",
    "x^0", "X^-0", "x^+007y", "xy^3 x y^-2", "y x^-٣", "x^²", "x y² z",
    "x^" + "9" * 5000, "x^-" + "0" * 5000 + "7", "x" * 20 + " ^",
], ids=repr)
def test_the_parser_agrees_with_the_loop_on_edge_texts(text):
    assert outcome(parse_word, text) == outcome(reference_parse_word, text)


def test_the_parser_agrees_with_the_loop_at_the_real_cap():
    cap = words.MAX_WORD_LETTERS
    for text in (f"x^{cap}", f"x^{cap}y", f"x^{cap - 1} y", f"y x^{cap} ^", f"x^{cap // 2}" * 3,
                 f"xy^{cap}", f"x^{cap + 1}", f"x^0{cap}0"):
        assert outcome(parse_word, text) == outcome(reference_parse_word, text), text[:40]
