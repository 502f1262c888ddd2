"""Exact algebra of words in a free group of rank two.

Letters are stored as nonzero integers: +1/-1 for x/x^-1, +2/-2 for
y/y^-1 and +3/-3 for z/z^-1.  A word is a freely reduced tuple of such
codes; a cyclic word is additionally cyclically reduced and kept in a
canonical rotation, so equality of cyclic words is plain tuple equality.

The two-letter alphabets used in practice are {x, y} (boundary words
read off a meridian system of a handlebody) and {z, y} (an abstract
generating pair).  The rotation order is x < X < z < Z < y < Y: the
generators rank x, z, y, and each positive letter before its inverse.
"""

from __future__ import annotations

import re
from typing import Iterable, Iterator, NamedTuple, Union

_SYMBOL_CODES = {"x": 1, "y": 2, "z": 3}
_CODE_SYMBOLS = {1: "x", 2: "y", 3: "z"}

_VALID_CODES = frozenset(c for code in _CODE_SYMBOLS for c in (code, -code))

# The spelling of a word: one character per letter, x, y, z for the
# generators and X, Y, Z for their inverses.  Hot loops work on spelled
# words with C-level str and bytes operations.
_SPELLING = {1: "x", -1: "X", 2: "y", -2: "Y", 3: "z", -3: "Z"}
_CODE_OF_CHAR = {ch: code for code, ch in _SPELLING.items()}

# Two adjacent mutually inverse letters of a spelled word.
_CANCELLING_PAIR = re.compile("xX|Xx|yY|Yy|zZ|Zz")

# Spelled positive words as bytes (b"xyz") to their codes (1, 2, 3).
_POSITIVE_CODES = bytes.maketrans(b"xyz", b"\x01\x02\x03")

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
    """The word uses both x and z, so no two-letter alphabet applies."""


class Letter(NamedTuple):
    symbol: str
    sign: int

    @property
    def code(self) -> int:
        return _SYMBOL_CODES[self.symbol] * self.sign

    def inverse(self) -> "Letter":
        return Letter(self.symbol, -self.sign)

    def __str__(self) -> str:
        return self.symbol if self.sign > 0 else self.symbol.upper()


def _check_code(code: int) -> int:
    if not isinstance(code, int) or abs(code) not in _CODE_SYMBOLS:
        raise ValueError(f"not a letter code: {code!r}")
    return code


def _coerce_codes(letters) -> tuple[int, ...]:
    if isinstance(letters, (Word, CyclicWord)):
        return letters.codes
    # plain int codes, checked at C level; anything else goes item by item
    if (
        type(letters) in (tuple, list)
        and set(map(type, letters)) <= {int}
        and _VALID_CODES.issuperset(letters)
    ):
        return tuple(letters)
    out = []
    for item in letters:
        if isinstance(item, Letter):
            if item.symbol not in _SYMBOL_CODES or item.sign not in (1, -1):
                raise ValueError(f"bad letter {item!r}")
            out.append(item.code)
        else:
            out.append(_check_code(item))
    return tuple(out)


def free_reduce_codes(codes: Iterable[int]) -> tuple[int, ...]:
    """Cancel adjacent mutually inverse letters until none remain."""
    if type(codes) in (tuple, list) and (not codes or min(codes) > 0):
        return tuple(codes)  # no inverse letters, nothing to cancel
    out: list[int] = []
    for c in codes:
        if out and out[-1] == -c:
            out.pop()
        else:
            out.append(c)
    return tuple(out)


def cyclic_reduce_codes(codes: tuple[int, ...]) -> tuple[int, ...]:
    """Strip mutually inverse first/last letters of a freely reduced word."""
    i, j = 0, len(codes)
    while j - i >= 2 and codes[i] == -codes[j - 1]:
        i += 1
        j -= 1
    return codes[i:j]


def least_rotation(codes: tuple[int, ...]) -> tuple[int, ...]:
    """The lexicographically least rotation under the fixed letter order."""
    if len(codes) <= 1:
        return tuple(codes)
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


def _spell(codes: tuple[int, ...]) -> str:
    return "".join(map(_SPELLING.__getitem__, codes))


def _unspell(spelled: str) -> tuple[int, ...]:
    """The codes of a spelled word."""
    return tuple(map(_CODE_OF_CHAR.__getitem__, spelled))


def _positive_codes(spelled: bytes) -> tuple[int, ...]:
    """The codes of a spelled word of positive letters, given as bytes."""
    return tuple(spelled.translate(_POSITIVE_CODES))


def _caret(codes: tuple[int, ...]) -> str:
    """Caret notation: x^3 for a run of three x, x^-1 for one X, x^-2 for two."""
    text = _spell(codes)
    for pair, run, prefix in _RUN_PASSES:
        if pair in text:
            parts = run.split(text)
            parts[1::2] = [f"{prefix}{len(letters)}" for letters in parts[1::2]]
            text = "".join(parts)
    for inverse, single in _SINGLE_INVERSES:
        text = text.replace(inverse, single)
    return text or "1"


class Word:
    """A freely reduced word.  Immutable; concatenation reduces."""

    __slots__ = ("_codes",)

    def __init__(self, letters=()):
        object.__setattr__(self, "_codes", free_reduce_codes(_coerce_codes(letters)))

    @property
    def codes(self) -> tuple[int, ...]:
        return self._codes

    @property
    def letters(self) -> tuple[Letter, ...]:
        return tuple(
            Letter(_CODE_SYMBOLS[abs(c)], 1 if c > 0 else -1) for c in self._codes
        )

    def spell(self) -> str:
        return _spell(self._codes)

    def __len__(self) -> int:
        return len(self._codes)

    def __iter__(self) -> Iterator[Letter]:
        return iter(self.letters)

    def __eq__(self, other) -> bool:
        return isinstance(other, Word) and self._codes == other._codes

    def __hash__(self) -> int:
        return hash(("Word", self._codes))

    def __mul__(self, other: "Word") -> "Word":
        return Word(self._codes + _coerce_codes(other))

    def __invert__(self) -> "Word":
        return Word(tuple(-c for c in reversed(self._codes)))

    def __pow__(self, n: int) -> "Word":
        if n < 0:
            return (~self) ** (-n)
        return Word(self._codes * n)

    def __str__(self) -> str:
        return _caret(self._codes)

    def __repr__(self) -> str:
        return f"Word({_caret(self._codes)!r})"

    def __setattr__(self, name, value):
        raise AttributeError("Word is immutable")


class CyclicWord:
    """A cyclically reduced word up to rotation, stored canonically."""

    __slots__ = ("_codes",)

    def __init__(self, letters=()):
        codes = cyclic_reduce_codes(free_reduce_codes(_coerce_codes(letters)))
        object.__setattr__(self, "_codes", least_rotation(codes))

    @classmethod
    def _of_reduced_spelling(cls, spelled: str) -> "CyclicWord":
        """The cyclic word of a spelled word that is already cyclically reduced.

        Skips the reductions of __init__ and takes the least rotation
        directly on the text.
        """
        word = object.__new__(cls)
        object.__setattr__(word, "_codes", _unspell(_least_rotation(spelled)))
        return word

    @property
    def codes(self) -> tuple[int, ...]:
        return self._codes

    @property
    def letters(self) -> tuple[Letter, ...]:
        return Word(self._codes).letters

    def rotations(self) -> Iterator[tuple[int, ...]]:
        n = len(self._codes)
        for i in range(max(n, 1)):
            yield self._codes[i:] + self._codes[:i]

    def to_word(self) -> Word:
        return Word(self._codes)

    def spell(self) -> str:
        return _spell(self._codes)

    def __len__(self) -> int:
        return len(self._codes)

    def __iter__(self) -> Iterator[Letter]:
        return iter(self.letters)

    def __eq__(self, other) -> bool:
        return isinstance(other, CyclicWord) and self._codes == other._codes

    def __hash__(self) -> int:
        return hash(("CyclicWord", self._codes))

    def __str__(self) -> str:
        return _caret(self._codes)

    def __repr__(self) -> str:
        return f"CyclicWord({_caret(self._codes)!r})"

    def __setattr__(self, name, value):
        raise AttributeError("CyclicWord is immutable")


WordLike = Union[Word, CyclicWord, Iterable]


def reduce(letters: WordLike) -> Word:
    """Free reduction of a raw letter sequence."""
    return Word(letters)


def cyclic_reduce(w: WordLike) -> CyclicWord:
    """Cyclic reduction followed by rotation to canonical form."""
    return CyclicWord(w)


def cyclically_equal(u: WordLike, v: WordLike) -> bool:
    """True iff u is a rotation of v (after cyclic reduction)."""
    return CyclicWord(u) == CyclicWord(v)


def invert(w: WordLike):
    """w^-1: reversed sequence with all signs flipped.  Type-preserving."""
    codes = _coerce_codes(w)
    inv = tuple(-c for c in reversed(codes))
    return CyclicWord(inv) if isinstance(w, CyclicWord) else Word(inv)


def reverse(w: WordLike):
    """The reverse word: reversed sequence, signs kept.  Type-preserving."""
    codes = _coerce_codes(w)
    rev = tuple(reversed(codes))
    return CyclicWord(rev) if isinstance(w, CyclicWord) else Word(rev)


def swap_generators(w: WordLike, symbols: tuple[str, str] = ("z", "y")):
    """Apply the automorphism exchanging the two symbols of the alphabet."""
    a, b = (_SYMBOL_CODES[s] for s in symbols)
    codes = _coerce_codes(w)
    used = {abs(c) for c in codes}
    if not used <= {a, b}:
        raise ValueError(f"word is not over the alphabet {symbols}")
    table = {a: b, -a: -b, b: a, -b: -a}
    swapped = tuple(table[c] for c in codes)
    return CyclicWord(swapped) if isinstance(w, CyclicWord) else Word(swapped)


def abelianize(w: WordLike) -> tuple[int, int]:
    """Signed exponent sums (first symbol, y) where the first symbol is x or z."""
    first = 0
    second = 0
    bases = set()
    for c in _coerce_codes(w):
        s = 1 if c > 0 else -1
        if abs(c) == 2:
            second += s
        else:
            bases.add(abs(c))
            first += s
    if len(bases) > 1:
        raise MixedAlphabetError("word mixes x and z; no two-letter alphabet applies")
    return (first, second)


def substitute(w: WordLike, z_image: WordLike) -> Word:
    """Homomorphic image with z mapped to the given word and y fixed."""
    image = Word(z_image).codes
    image_inv = tuple(-c for c in reversed(image))
    out: list[int] = []
    for c in _coerce_codes(w):
        if c == 3:
            out.extend(image)
        elif c == -3:
            out.extend(image_inv)
        elif abs(c) == 2:
            out.append(c)
        else:
            raise ValueError("substitution input must be a word over z and y")
    return Word(out)


def _over_the_cap(text: str, offset: int) -> WordParseError:
    return WordParseError(text, offset, f"at most {MAX_WORD_LETTERS} letters in the expanded word")


def parse_word(text: str) -> Word:
    """Parse caret notation: atoms are a letter with an optional ^exponent.

    Letters x, y, z are positive, X, Y, Z their inverses; whitespace is
    ignored, so "x y^5 x y^-2" and "xy^5xy^-2" parse identically.  A lone
    1, the way `str` writes the empty word, parses as the empty word.  Text
    that would expand to more than MAX_WORD_LETTERS letters is refused.
    """
    if text.strip() == "1":
        return Word()
    codes: list[int] = []
    i = 0
    n = len(text)
    while i < n:
        ch = text[i]
        if ch.isspace():
            i += 1
            continue
        low = ch.lower()
        if low not in _SYMBOL_CODES:
            raise WordParseError(text, i, "a generator letter (x, y, z, X, Y or Z)")
        code = _SYMBOL_CODES[low] * (1 if ch.islower() else -1)
        i += 1
        exp = 1
        exp_at = i
        if i < n and text[i] == "^":
            i += 1
            exp_at = j = i
            if j < n and text[j] in "+-":
                j += 1
            k = j
            # ASCII digits only: str.isdigit() is also true for superscript
            # digits and for the digits of other scripts
            while k < n and "0" <= text[k] <= "9":
                k += 1
            if k == j:
                raise WordParseError(text, i, "an integer exponent")
            digits = text[j:k].lstrip("0")
            # more digits than the cap has is over it, and int() may refuse
            # a digit string that long
            if len(digits) > len(str(MAX_WORD_LETTERS)):
                raise _over_the_cap(text, exp_at)
            exp = int(digits or "0")
            if text[i] == "-":
                code = -code
            i = k
        if len(codes) + exp > MAX_WORD_LETTERS:
            raise _over_the_cap(text, exp_at)
        codes.extend([code] * exp)
    return Word(codes)
