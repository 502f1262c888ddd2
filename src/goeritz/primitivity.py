"""Three independent checks on primitivity in the rank-two free group.

* the Whitehead-algorithm oracle: greedily shorten the cyclic word with
  powers of Whitehead automorphisms; by peak reduction a primitive
  element admits a strictly shortening automorphism whenever its cyclic
  length exceeds one, so the terminal length decides,
* the Osborne-Zieschang normal form for words with positive letters only,
* a quick sound-but-partial filter that can certify non-primitivity.

They check the certified Euclid decision of `goeritz.euclid`, the one
every verb prints, and run on request and by the sweeps; this module
imports nothing from that one.  All three take a `Word`, a
`CyclicWord` or a spelling over x, X, y, Y, z, Z, and read it through
`words._rank2_spelling`; z is treated as the first generator in place
of x.
"""

from __future__ import annotations

import math
import re
from collections import Counter
from enum import Enum
from operator import mul
from typing import Iterator, NamedTuple, Optional

from ._records import record
from .words import (
    CyclicWord,
    _caret,
    _cyclic_core,
    _free_reduce,
    _inverse,
    _rank2_spelling,
    _spell,
    _unspell,
)


@record
class WhiteheadAutomorphism:
    """An automorphism of <x, y> given by the spellings of its images of the generators.

    kind "I" is a signed permutation of the generators; kind "II" fixes a
    multiplier letter a and sends the other generator to one of b*a,
    a^-1*b or a^-1*b*a.  The oracle's chains also hold kind "II" powers,
    which send b to b*a^k, a^-k*b or a^-k*b*a^k.  Each kind comes from
    one constructor, `_type_i` or `_type_ii`, which also builds the
    powers.
    """

    kind: str
    label: str
    image_x: str
    image_y: str

    def apply_codes(self, codes: tuple[int, ...]) -> tuple[int, ...]:
        """The freely reduced image of a word given by its letter codes;
        a code other than 1, -1, 2 or -2 raises KeyError."""
        images = _images(self)
        return _unspell(_free_reduce("".join(map(images.__getitem__, _spell(codes)))))

    def __str__(self) -> str:
        return self.label


def _images(auto: WhiteheadAutomorphism) -> dict[str, str]:
    """The spelled image of each letter x, X, y, Y under auto."""
    x, y = auto.image_x, auto.image_y
    return {"x": x, "X": _inverse(x), "y": y, "Y": _inverse(y)}


def _type_i(image_x: str, image_y: str) -> WhiteheadAutomorphism:
    """The signed permutation with the one-letter images image_x of x and image_y of y."""
    label = f"x -> {_caret(image_x)}, y -> {_caret(image_y)}"
    return WhiteheadAutomorphism("I", label, image_x, image_y)


def _type_ii(a: str, form: int, k: int = 1) -> WhiteheadAutomorphism:
    """The k-th power of the type II move with multiplier letter a,
    labelled by its image of b, the generator other than a: form 0 sends
    b to b a^k, form 1 to a^-k b and form 2 to a^-k b a^k."""
    b = "y" if a in "xX" else "x"
    up, down = a * k, a.swapcase() * k
    image = (b + up, down + b, down + b + up)[form]
    images = (a.lower(), image) if b == "y" else (image, a.lower())
    return WhiteheadAutomorphism("II", f"{b} -> {_caret(image)}", *images)


_MULTIPLIERS = ("x", "X", "y", "Y")
WHITEHEAD_TYPE_I = tuple(
    _type_i(sx, sy) for tx, ty in ("xy", "yx") for sx in (tx, tx.upper()) for sy in (ty, ty.upper())
)
WHITEHEAD_TYPE_II = tuple(_type_ii(a, form) for a in _MULTIPLIERS for form in range(3))
WHITEHEAD_AUTOMORPHISMS = WHITEHEAD_TYPE_I + WHITEHEAD_TYPE_II


# The cyclic two-letter subwords of a cyclically reduced word over x, y:
# eight of distinct letters, then the four of equal letters.
_MIXED_PAIRS = ("xy", "xY", "Xy", "XY", "yx", "yX", "Yx", "YX")
_PAIRS = _MIXED_PAIRS + ("xx", "XX", "yy", "YY")


def _moved(auto: WhiteheadAutomorphism) -> tuple[str, str]:
    """The generator a type II move does not fix, and the one it fixes."""
    return ("y", "x") if auto.image_x == "x" else ("x", "y")


def _length_change_coefficients(auto: WhiteheadAutomorphism) -> tuple[int, ...]:
    """Coefficients c(uv), one per subword uv in _PAIRS, with
    |auto(w)| - |w| = sum of c(uv) * #uv.

    The sum runs over the cyclic two-letter subwords uv of a cyclically
    reduced word w.  This is Whitehead's cut-vertex formula: the cyclic
    length changes by the number of Whitehead-graph edges crossing the
    move's set A, less the degree of its multiplier a.  The subword uv is
    the edge {u, v^-1}.  The multiplier a is the last letter of the moved
    generator's image, or the inverse of its first letter when the image
    ends in that generator; A holds the letters whose images end in a.
    """
    images = _images(auto)
    moved = _moved(auto)[0]
    image = images[moved]
    a = image[-1] if image[-1] != moved else image[0].swapcase()
    in_a = {u: images[u][-1] == a for u in images}
    return tuple((in_a[u] != in_a[v.swapcase()]) - (u.lower() == a.lower()) for u, v in _PAIRS)


# Length-change coefficients of each type II move, in enumeration order.
_TYPE_II_COEFFICIENTS = tuple(_length_change_coefficients(auto) for auto in WHITEHEAD_TYPE_II)


def _pair_counts(spelled: str) -> list[int]:
    """The counts of the cyclic two-letter subwords _PAIRS of a cyclically
    reduced spelled word.

    Twelve str.count calls.  An occurrence of a pair of distinct letters
    cannot overlap another, so str.count is exact for those; a pair uu
    is counted as the letters u not followed by a letter other than u
    (u^-1 never follows u in a cyclically reduced word).
    """
    counts = list(map((spelled + spelled[:1]).count, _MIXED_PAIRS))
    xy, xY, Xy, XY, yx, yX, Yx, YX = counts
    counts += (
        spelled.count("x") - xy - xY,
        spelled.count("X") - Xy - XY,
        spelled.count("y") - yx - yX,
        spelled.count("Y") - Yx - YX,
    )
    return counts


class _GapForm(NamedTuple):
    """How the powers of one type II move act on a word in gap form.

    The letters L_0, ..., L_{m-1} of the moved generator b (each b or
    b^-1) cut a cyclically reduced word into gaps, the gap after L_i a
    power u^e_i of the multiplier's generator u.  The k-th power of the
    move writes b^-1 and b into the gaps only: it adds
    k * shift[L_i, L_{i+1}] to e_i.
    """

    split: re.Pattern  # splits a spelled word at b and b^-1, keeping them
    up: str  # u
    down: str  # u^-1
    shift: dict[tuple[str, str], int]


def _gap_form(auto: WhiteheadAutomorphism) -> _GapForm:
    """The gap form of a type II move, read off its images of b and b^-1.

    The image of b^s is u^l b^s u^t; letter L_i brings its t to the gap
    after it and letter L_{i+1} its l, so shift[L_i, L_{i+1}] = t + l.
    For b -> b a with a = u^s this is s([L_i = b] - [L_{i+1} = b^-1]);
    for b -> a^-1 b it is s([L_i = b^-1] - [L_{i+1} = b]); for the
    conjugation b -> a^-1 b a it is 0, so that move never changes the
    cyclic length.
    """
    b, up = _moved(auto)
    b_inverse, down = b.upper(), up.upper()
    images = _images(auto)
    ends = {}  # b^s -> (l, t): the letters u less the letters u^-1 before and after b^s
    for letter in (b, b_inverse):
        sides = images[letter].partition(letter)[::2]
        ends[letter] = tuple(side.count(up) - side.count(down) for side in sides)
    shift = {(first, second): ends[first][1] + ends[second][0] for first in ends for second in ends}
    return _GapForm(re.compile(f"([{b}{b_inverse}])"), up, down, shift)


# The gap form of each type II move, in enumeration order.
_GAP_FORMS = tuple(_gap_form(auto) for auto in WHITEHEAD_TYPE_II)


def _candidate_moves() -> tuple[tuple[int, tuple[int, ...]], ...]:
    """The type II moves that can be the first shortening one, in
    enumeration order, with their length-change coefficients.

    A conjugation never changes the cyclic length, and a move with the
    coefficients of an earlier move has that move's change; so neither
    is ever the first move with a negative change.  Four moves remain.
    """
    candidates = {}
    for index, (coefficients, form) in enumerate(zip(_TYPE_II_COEFFICIENTS, _GAP_FORMS)):
        if any(form.shift.values()):
            candidates.setdefault(coefficients, index)
    return tuple((index, coefficients) for coefficients, index in candidates.items())


_CANDIDATE_MOVES = _candidate_moves()


def _power_step(spelled: str, index: int, change: int) -> tuple[int, str]:
    """Apply the best power of a type II move to a cyclically reduced word.

    `index` is the move's place in WHITEHEAD_TYPE_II and `change` its
    predicted unit length change.  Returns the exponent k and the cyclic
    word of the k-th power's image, spelled from the first moved letter.

    In gap form the image of the k-th power has cyclic length
    f(k) = m + sum |e_i + k d_i|, with d_i = shift[L_i, L_{i+1}] in
    {-1, 0, 1}: no two moved letters cancel, since the pairs b b^-1 and
    b^-1 b have d_i = 0 and no empty gap.  With t_i = -d_i e_i, each
    term with d_i != 0 is |k - t_i|, so f is convex and its smallest
    minimizer is the lower median of the t_i.  That is the k taken: f
    strictly decreases up to it, so each of the k unit moves shortens
    the word.  The gaps are handled by their distinct (L_i, gap, L_{i+1})
    keys, so the per-letter work is C-level splitting, counting and
    joining.
    """
    form = _GAP_FORMS[index]
    parts = form.split.split(spelled)
    letters = parts[1::2]
    gaps = parts[2::2]
    if gaps:
        gaps[-1] += parts[0]  # the gap after the last moved letter wraps round
    keys = list(zip(letters, gaps, letters[1:] + letters[:1]))
    distinct = Counter(keys)
    moving = []  # (key, d_i, e_i) of each distinct gap the move changes
    breakpoints = []  # (t_i, how many gaps have it)
    for key, n in distinct.items():
        d = form.shift[key[0], key[2]]
        if d:
            gap = key[1]
            e = -len(gap) if gap[:1] == form.down else len(gap)
            moving.append((key, d, e))
            breakpoints.append((-d * e, n))
    gain = lambda k: sum(n * (abs(k - t) - abs(t)) for t, n in breakpoints)
    if gain(1) != change:
        raise RuntimeError(
            f"Whitehead move {WHITEHEAD_TYPE_II[index]} changes the length of a cyclic word "
            f"of length {len(spelled)} by {gain(1)} in gap form, not the predicted {change}"
        )
    rank = (sum(n for _, n in breakpoints) - 1) // 2
    for k, n in sorted(breakpoints):
        rank -= n
        if rank < 0:
            break
    text = {key: key[0] + key[1] for key in distinct}
    for key, d, e in moving:
        e += k * d
        text[key] = key[0] + (form.up * e if e >= 0 else form.down * -e)
    image = "".join(map(text.__getitem__, keys))
    predicted = len(spelled) + gain(k)
    if len(image) != predicted:
        raise RuntimeError(
            f"Whitehead move ({WHITEHEAD_TYPE_II[index]})^{k} took a cyclic word of length "
            f"{len(spelled)} to length {len(image)}, not the predicted {predicted}"
        )
    return k, image


def _find_shortening(spelled: str) -> Optional[tuple[int, int, str]]:
    """The first enumerated type II move that shortens the word, as a power.

    The word is cyclically reduced and spelled over x, y.  Type I maps
    permute letters and never change cyclic length, so only the type II
    candidates can shorten.  Their unit length changes are predicted
    from the input's two-letter subword counts; the first move whose
    change is negative is applied as often as it keeps shortening the
    word.  Returns the move's index in WHITEHEAD_TYPE_II, the exponent
    and the image, or None when no move shortens.
    """
    counts = _pair_counts(spelled)
    for index, coefficients in _CANDIDATE_MOVES:
        change = sum(map(mul, coefficients, counts))
        if change < 0:
            return (index, *_power_step(spelled, index, change))
    return None


def _power(index: int, k: int) -> WhiteheadAutomorphism:
    """The k-th power of the type II move WHITEHEAD_TYPE_II[index]."""
    return WHITEHEAD_TYPE_II[index] if k == 1 else _type_ii(_MULTIPLIERS[index // 3], index % 3, k)


def _walk(spelled: str) -> Iterator[tuple[int, int, str]]:
    """Each (index, k, image) step of the greedy reduction, to one letter or a local minimum."""
    while len(spelled) > 1 and (found := _find_shortening(spelled)) is not None:
        yield found
        spelled = found[2]


def whitehead_reduce_step(w) -> Optional[tuple[WhiteheadAutomorphism, CyclicWord]]:
    """The first shortening Whitehead move, raised to the least power that
    leaves the word shortest, or None at a local minimum."""
    for index, k, image in _walk(_cyclic_core(_rank2_spelling(w))):
        return _power(index, k), CyclicWord._of_reduced_spelling(image)
    return None


def whitehead_trace(w) -> tuple[bool, list[tuple[WhiteheadAutomorphism, CyclicWord]]]:
    """Run the greedy reduction, returning the verdict and the chain of
    powered moves with their images."""
    spelled = _cyclic_core(_rank2_spelling(w))
    chain: list[tuple[WhiteheadAutomorphism, CyclicWord]] = []
    for index, k, spelled in _walk(spelled):
        chain.append((_power(index, k), CyclicWord._of_reduced_spelling(spelled)))
    return len(spelled) == 1, chain


def is_primitive_whitehead(w) -> bool:
    """Whitehead-algorithm primitivity oracle.

    w is a `Word`, a `CyclicWord` or a spelling over x, X, y, Y, z, Z;
    any other character raises ValueError.
    """
    spelled = _cyclic_core(_rank2_spelling(w))
    for _, _, spelled in _walk(spelled):
        pass
    return len(spelled) == 1


def _normal_form(m: int, n: int) -> str:
    """The positive normal form with m x's and n y's, spelled, for 1 <= m <= n coprime.

    Letter k (from 0) is x exactly when k*m falls in the residues
    0..m-1 modulo m+n, that is when k is the ceiling of j*(m+n)/m for
    some j; so the word is built one run of y's per x.
    """
    if m < 1 or n < m:
        raise ValueError(f"need 1 <= m <= n, got ({m}, {n})")
    if math.gcd(m, n) != 1:
        raise ValueError(f"({m}, {n}) are not coprime")
    period = m + n
    starts = [-(-j * period // m) for j in range(m + 1)]
    return "".join("x" + "y" * (end - start - 1) for start, end in zip(starts, starts[1:]))


def oz_canonical_word(m: int, n: int) -> CyclicWord:
    """The positive normal form with m z's and n y's, for 1 <= m <= n coprime.

    Letter i of the product is z exactly when 1 + (i-1)*m falls in the
    residues 1..m modulo m+n.
    """
    return CyclicWord._of_reduced_spelling(_normal_form(m, n).replace("x", "z"))


_SWAP_XY = str.maketrans("xy", "yx")


def is_primitive_positive(w) -> bool:
    """Positive-word primitivity via the normal-form characterization.

    The word must contain only positive letters over a two-letter
    alphabet; the count of the non-y symbol may exceed the y count, in
    which case the symbols are exchanged before comparison.
    """
    spelled = _rank2_spelling(w)
    if "X" in spelled or "Y" in spelled:
        raise ValueError("word has negative letters; use the Whitehead oracle")
    m = spelled.count("x")
    n = spelled.count("y")
    if m == 0 or n == 0:
        return len(spelled) == 1
    if math.gcd(m, n) != 1:
        return False
    if m > n:
        spelled, m, n = spelled.translate(_SWAP_XY), n, m
    form = _normal_form(m, n)
    return spelled in form + form  # a word of its length is a rotation of it


class FilterOutcome(Enum):
    NOT_PRIMITIVE = "not-primitive"
    INCONCLUSIVE = "inconclusive"


@record
class FilterWitness:
    """Two patterns, at their offsets, that show one normalization of a word not primitive."""

    normalization: str
    first: str
    first_offset: int
    second: str
    second_offset: int


@record
class FilterVerdict:
    """The filter's outcome, with its witness when the word is not primitive."""

    outcome: FilterOutcome
    witness: Optional[FilterWitness] = None


# A gap of an x: the x and the positive y letters up to the next x,
# which the lookahead leaves for the next match.
_CLEAN_GAP = re.compile("x(y*)(?=x)")
_Y_RUN = re.compile("y+")
_FLIP_Y = str.maketrans("yY", "Yy")


def _scan_patterns(spelled: str) -> Optional[tuple[str, int, str, int]]:
    """Look for {xy, xy^-1} or {xy^n x, y^(n+2)} in a cyclically reduced
    word spelled over x, X, y, Y; offsets are letter positions in it."""
    n = len(spelled)
    if n < 2:
        return None
    doubled = spelled + spelled
    xy_at, xY_at = doubled.find("xy"), doubled.find("xY")
    if xy_at >= 0 and xY_at >= 0:
        return ("xy", xy_at, "xy^-1", xY_at)

    if spelled.count("x") < 2:
        return None
    # clean gaps: y-power subwords flanked by two x's; the gap of the last
    # x runs on to the first x of the second copy
    end = n + spelled.index("x") + 1
    gaps = [(len(gap.group(1)), gap.start()) for gap in _CLEAN_GAP.finditer(doubled, 0, end)]
    if not gaps:
        return None
    # the longest cyclic run of positive y letters, and its first start
    # (the word has an x, so no run is the whole word)
    best_run = max(map(len, _Y_RUN.findall(doubled)), default=0)
    gap, gap_at = min(gaps)
    if best_run >= gap + 2:
        best_at = doubled.find("y" * best_run)
        first = "x^2" if gap == 0 else ("xyx" if gap == 1 else f"xy^{gap}x")
        return (first, gap_at, f"y^{gap + 2}", best_at)
    return None


def _symmetry_variants(spelled: str) -> tuple[str, str, str, str]:
    """w, w^-1, the y-flip of w and the y-flip of w^-1, spelled.

    These symmetries keep primitivity and the filter's verdict, so the
    filter scans all four and the word-level sweeps check one of each
    class.
    """
    inverted = _inverse(spelled)
    return spelled, inverted, spelled.translate(_FLIP_Y), inverted.translate(_FLIP_Y)


_VARIANT_NAMES = ("w", "w^-1", "y-flip of w", "y-flip of w^-1")


def nonprimitivity_filter(w) -> FilterVerdict:
    """Sound partial test: NOT_PRIMITIVE is definitive, INCONCLUSIVE decides nothing.

    The word is scanned cyclically under the four orientation
    normalizations: as given, inverted, with the sign of y flipped, and
    both.
    """
    core = _cyclic_core(_rank2_spelling(w))
    for name, variant in zip(_VARIANT_NAMES, _symmetry_variants(core)):
        hit = _scan_patterns(variant)
        if hit is not None:
            first, i, second, j = hit
            return FilterVerdict(
                FilterOutcome.NOT_PRIMITIVE,
                FilterWitness(name, first, i, second, j),
            )
    return FilterVerdict(FilterOutcome.INCONCLUSIVE)
