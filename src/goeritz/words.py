"""Exact algebra of words in a free group of rank two.

A word is stored as its spelling: one character per letter, x, y, z for
the generators and X, Y, Z for their inverses.  A `Word` keeps the freely
reduced spelling; a `CyclicWord` keeps the cyclically reduced spelling in
its least rotation, so equality of cyclic words is plain string equality.
Every constructor, word operation and primitivity decider reads a word
through `_coerce_spelling`: a `Word`, a `CyclicWord` or a spelling given
as a `str`; the deciders and `abelianize` read it over x, y through
`_rank2_spelling`, with z standing in for x.  The integer letter codes,
+1/-1 for x/x^-1, +2/-2 for y/y^-1 and +3/-3 for z/z^-1, remain only in
`codes` and the adapters `free_reduce_codes` and `least_rotation`.

The two-letter alphabets used in practice are {x, y} (boundary words
read off a meridian system of a handlebody) and {z, y} (an abstract
generating pair).  The rotation order is x < X < z < Z < y < Y: the
generators rank x, z, y, and each positive letter before its inverse.
"""

from __future__ import annotations

import re
from typing import Iterable, Union

# The spelling of each letter code, and back.
_SPELLING = {1: "x", -1: "X", 2: "y", -2: "Y", 3: "z", -3: "Z"}
_CODE_OF_CHAR = {ch: code for code, ch in _SPELLING.items()}

# Deletes the letters of a spelling, leaving its stray characters.
_NOT_A_LETTER = str.maketrans("", "", "xXyYzZ")

# The rotation order as a key string, total so that a word mixing x and z
# has one least rotation: x < X < z < Z < y < Y.
_ROTATION_KEYS = str.maketrans("xXzZyY", "abcdef")

# Caret rendering of a spelled word: each run of two or more of one letter,
# found by a pattern of its own (scanning for one literal letter is far
# faster than for an alternation), becomes x^n or x^-n; then each single
# inverse letter becomes x^-1.  The positive letters go first, because
# x^-n brings in a lowercase x.
_RUN_PASSES = tuple(
    (ch * 2, re.compile(f"({ch}{ch}+)"), f"{ch}^" if ch.islower() else f"{ch.lower()}^-")
    for ch in "xyzXYZ"
)
_SINGLE_INVERSES = (("X", "x^-1"), ("Y", "y^-1"), ("Z", "z^-1"))

# The most letters a parsed word, a whole sequence or a witness trace may
# have: parse_word, spelled_sequence and nonconnectivity_witness refuse more.
MAX_WORD_LETTERS = 10_000_000


class WordParseError(ValueError):
    """Malformed word text; carries the byte offset and the expected token."""

    def __init__(self, text: str, offset: int, expected: str):
        self.text = text
        self.offset = offset
        self.expected = expected
        found = repr(text[offset]) if offset < len(text) else "end of input"
        super().__init__(f"offset {offset}: expected {expected}, found {found}")


class MixedAlphabetError(ValueError):
    """The word uses both x and z, so no generating pair applies."""


def _coerce_spelling(w) -> str:
    """The spelling of a word as it stands, not reduced: the one reader of
    a word for every constructor, word operation and decider.

    w is a `Word`, a `CyclicWord` or a spelling over xXyYzZ; any other
    character of a spelling raises ValueError, any other type TypeError.
    """
    if isinstance(w, str):
        stray = w.translate(_NOT_A_LETTER)
        if stray:
            raise ValueError(f"a spelled word has the letters xXyYzZ only, found {stray[0]!r}")
        return w
    if isinstance(w, _SpelledWord):
        return w._spelled
    raise TypeError(f"a word is a Word, a CyclicWord or a str over xXyYzZ, not {type(w).__name__}")


_Z_AS_X_SPELLING = str.maketrans("zZ", "xX")


def _rank2_spelling(w) -> str:
    """The word spelled over x, X, y, Y: the one way into every decider
    and into `abelianize`.

    w is read by `_coerce_spelling`, with z standing in for x.  A word
    that mixes x and z raises MixedAlphabetError.
    """
    w = _coerce_spelling(w)
    if "z" in w or "Z" in w:
        if "x" in w or "X" in w:
            raise MixedAlphabetError("word mixes x and z; no generating pair applies")
        w = w.translate(_Z_AS_X_SPELLING)
    return w


def _free_reduce(spelled: str) -> str:
    """Cancel adjacent mutually inverse letters of a spelling until none
    remain, in one pass with a stack.  The guard is six substring scans,
    each far faster than one regex scan for the alternation of the six
    pairs."""
    if not (
        "xX" in spelled or "Xx" in spelled or "yY" in spelled
        or "Yy" in spelled or "zZ" in spelled or "Zz" in spelled
    ):
        return spelled
    out: list[str] = []
    for ch in spelled:
        if out and out[-1] == ch.swapcase():
            out.pop()
        else:
            out.append(ch)
    return "".join(out)


def _cyclic_core(spelled: str) -> str:
    """The cyclic reduction of a spelling.

    A spelling of positive letters is cyclically reduced as it is; any
    other is freely reduced in one pass, which finds nothing to cancel
    in the spelling of a `Word`, and then stripped of mutually inverse
    first and last letters.
    """
    if spelled.islower():
        return spelled
    spelled = _free_reduce(spelled)
    i, j = 0, len(spelled)
    while j - i >= 2 and spelled[i] == spelled[j - 1].swapcase():
        i += 1
        j -= 1
    return spelled[i:j]


def _inverse(spelled: str) -> str:
    return spelled[::-1].swapcase()


def free_reduce_codes(codes: Iterable[int]) -> tuple[int, ...]:
    """Cancel adjacent mutually inverse letter codes until none remain;
    a code other than 1, -1, 2, -2, 3 or -3 raises KeyError."""
    return _unspell(_free_reduce(_spell(codes)))


def least_rotation(codes: tuple[int, ...]) -> tuple[int, ...]:
    """The lexicographically least rotation under the fixed letter order."""
    return _unspell(_least_rotation(_spell(codes)))


def _least_rotation(spelled: str) -> str:
    """The least rotation of a spelled word under the fixed letter order.

    Linear time, by the two-candidate scan of the doubled key string: of
    the rotations starting at i < j, compare them letter by letter; at the
    first difference at offset k, no rotation starting within k letters
    after the larger one's start can be least, so that candidate moves on
    by k + 1.
    """
    n = len(spelled)
    keys = spelled.translate(_ROTATION_KEYS) * 2
    i, j, k = 0, 1, 0
    while j < n and k < n:
        a, b = keys[i + k], keys[j + k]
        if a == b:
            k += 1
            continue
        if a > b:
            i += k + 1
        else:
            j += k + 1
        if i == j:
            j += 1
        elif i > j:
            i, j = j, i
        k = 0
    return spelled[i:] + spelled[:i]


def _cyclic_spelling(spelled: str) -> str:
    """The spelling a `CyclicWord` keeps for a word given by any spelling."""
    return _least_rotation(_cyclic_core(spelled))


def _spell(codes: Iterable[int]) -> str:
    return "".join(map(_SPELLING.__getitem__, codes))


def _unspell(spelled: str) -> tuple[int, ...]:
    """The codes of a spelled word."""
    return tuple(map(_CODE_OF_CHAR.__getitem__, spelled))


def _caret(spelled: str) -> str:
    """Caret notation: x^3 for a run of three x, x^-1 for one X, x^-2 for two."""
    text = spelled
    for pair, run, prefix in _RUN_PASSES:
        if pair in text:
            parts = run.split(text)
            parts[1::2] = [f"{prefix}{len(letters)}" for letters in parts[1::2]]
            text = "".join(parts)
    for inverse, single in _SINGLE_INVERSES:
        text = text.replace(inverse, single)
    return text or "1"


class _SpelledWord:
    """What `Word` and `CyclicWord` share: one spelling, and the views of it."""

    __slots__ = ("_spelled",)

    @classmethod
    def _of_spelling(cls, spelled: str):
        """The word of a spelling already in the class's reduced form, as is."""
        word = object.__new__(cls)
        object.__setattr__(word, "_spelled", spelled)
        return word

    @property
    def codes(self) -> tuple[int, ...]:
        return _unspell(self._spelled)

    def __len__(self) -> int:
        return len(self._spelled)

    def __eq__(self, other) -> bool:
        return type(other) is type(self) and self._spelled == other._spelled

    def __hash__(self) -> int:
        return hash((type(self).__name__, self._spelled))

    def __repr__(self) -> str:
        return f"{type(self).__name__}({_caret(self._spelled)!r})"

    def __setattr__(self, name, value):
        raise AttributeError(f"{type(self).__name__} is immutable")

    def __reduce__(self):
        # pickling and copying rebuild the word from its spelling, not by
        # setting the slot, which __setattr__ refuses
        return type(self)._of_spelling, (self._spelled,)


class Word(_SpelledWord):
    """A freely reduced word.  Immutable; concatenation reduces."""

    __slots__ = ()

    def __init__(self, letters=""):
        object.__setattr__(self, "_spelled", _free_reduce(_coerce_spelling(letters)))

    def spell(self) -> str:
        return self._spelled

    def __mul__(self, other: "WordLike") -> "Word":
        return _word(self._spelled + _coerce_spelling(other))

    def __invert__(self) -> "Word":
        return Word._of_spelling(_inverse(self._spelled))

    def __pow__(self, n: int) -> "Word":
        if n < 0:
            return (~self) ** (-n)
        return _word(self._spelled * n)

    def __str__(self) -> str:
        return _caret(self._spelled)


class CyclicWord(_SpelledWord):
    """A cyclically reduced word up to rotation, kept as its least rotation."""

    __slots__ = ()

    def __init__(self, letters=""):
        object.__setattr__(self, "_spelled", _cyclic_spelling(_coerce_spelling(letters)))

    @classmethod
    def _of_reduced_spelling(cls, spelled: str) -> "CyclicWord":
        """The cyclic word of a spelled word that is already cyclically reduced."""
        return cls._of_spelling(_least_rotation(spelled))

    def spell(self) -> str:
        return self._spelled

    def __str__(self) -> str:
        return _caret(self._spelled)


def _word(spelled: str) -> Word:
    """The `Word` of any spelling."""
    return Word._of_spelling(_free_reduce(spelled))


WordLike = Union[Word, CyclicWord, str]


def _like(w: WordLike, spelled: str):
    """The word of a spelling: a `CyclicWord` if w is one, else a `Word`."""
    if isinstance(w, CyclicWord):
        return CyclicWord._of_spelling(_cyclic_spelling(spelled))
    return _word(spelled)


def reduce(letters: WordLike) -> Word:
    """Free reduction of a word or of a raw spelling."""
    return Word(letters)


def cyclic_reduce(w: WordLike) -> CyclicWord:
    """Cyclic reduction followed by rotation to canonical form."""
    return CyclicWord(w)


def cyclically_equal(u: WordLike, v: WordLike) -> bool:
    """True iff u is a rotation of v (after cyclic reduction)."""
    return CyclicWord(u) == CyclicWord(v)


def invert(w: WordLike):
    """w^-1: reversed sequence with all signs flipped.  Type-preserving."""
    return _like(w, _inverse(_coerce_spelling(w)))


def reverse(w: WordLike):
    """The reverse word: reversed sequence, signs kept.  Type-preserving."""
    return _like(w, _coerce_spelling(w)[::-1])


def swap_generators(w: WordLike, symbols: tuple[str, str] = ("z", "y")):
    """Apply the automorphism exchanging the two symbols of the alphabet."""
    a, b = symbols
    spelled = _coerce_spelling(w)
    if not set(spelled.lower()) <= {a, b}:
        raise ValueError(f"word is not over the alphabet {symbols}")
    swap = str.maketrans(a + a.upper() + b + b.upper(), b + b.upper() + a + a.upper())
    return _like(w, spelled.translate(swap))


def abelianize(w: WordLike) -> tuple[int, int]:
    """Signed exponent sums (first symbol, y) where the first symbol is x or z."""
    count = _rank2_spelling(w).count
    return (count("x") - count("X"), count("y") - count("Y"))


def substitute(w: WordLike, z_image: WordLike) -> Word:
    """Homomorphic image with z mapped to the given word and y fixed."""
    image = Word(z_image)._spelled
    spelled = _coerce_spelling(w)
    if "x" in spelled or "X" in spelled:
        raise ValueError("substitution input must be a word over z and y")
    return _word(spelled.translate({ord("z"): image, ord("Z"): _inverse(image)}))


def _over_the_cap(text: str, offset: int) -> WordParseError:
    return WordParseError(text, offset, f"at most {MAX_WORD_LETTERS} letters in the expanded word")


# An atom with an exponent: a letter, ^, a sign or none and ASCII digits (not all
# of str.isdigit(), which takes superscripts and other scripts' digits).  Split on
# it, a text alternates atoms with exponent-free runs of letters and whitespace.
_ATOM = re.compile(r"([xyzXYZ]\^[+-]?[0-9]+)")
_NOT_IN_RUN = re.compile(r"[^xyzXYZ\s]")


def parse_word(text: str) -> Word:
    """Parse caret notation: atoms are a letter with an optional ^exponent.

    Letters x, y, z are positive, X, Y, Z their inverses; whitespace is
    ignored, so "x y^5 x y^-2" and "xy^5xy^-2" parse identically.  A lone
    1, the way `str` writes the empty word, parses as the empty word.  Text
    that would expand to more than MAX_WORD_LETTERS letters is refused.
    """
    if text.strip() == "1":
        return Word()
    parts = _ATOM.split(text)
    runs, atoms = "".join(parts[::2]), parts[1::2]
    letters = "".join(runs.split())
    sizes = {atom: _exponent(atom) for atom in set(atoms)}  # each distinct atom once per call
    if _NOT_IN_RUN.search(runs) or len(letters) + sum(map(sizes.__getitem__, atoms)) > MAX_WORD_LETTERS:
        raise _first_fault(text, parts)
    expanded = {atom: (atom[0].swapcase() if atom[2] == "-" else atom[0]) * n for atom, n in sizes.items()}
    parts[1::2] = map(expanded.__getitem__, atoms)
    return _word("".join("".join(parts).split()))


def _exponent(atom: str) -> int:
    """An atom's exponent size; past the cap for more digits than it has (int() may refuse so many)."""
    digits = atom[2:].lstrip("+-0")
    return int(digits or "0") if len(digits) <= len(str(MAX_WORD_LETTERS)) else MAX_WORD_LETTERS + 1


def _first_fault(text: str, parts: list[str]) -> WordParseError:
    """The error of the first fault of refused `text`, split into `parts` by _ATOM: in a
    run, a character that is no letter (or the end of a letter's ^ with no exponent),
    or the letter or exponent that takes the word over MAX_WORD_LETTERS."""
    letters = at = 0
    for i, part in enumerate(parts):
        if i % 2:  # an atom
            letters += _exponent(part)
            if letters > MAX_WORD_LETTERS:
                return _over_the_cap(text, at + 2)
        else:
            for k, ch in enumerate(part, at):  # a run, one character at a time
                if ch in _CODE_OF_CHAR:
                    if text[k + 1:k + 2] == "^":
                        return WordParseError(text, k + 2, "an integer exponent")
                    letters += 1
                    if letters > MAX_WORD_LETTERS:
                        return _over_the_cap(text, k + 1)
                elif not ch.isspace():
                    return WordParseError(text, k, "a generator letter (x, y, z, X, Y or Z)")
        at += len(part)
