"""The power-move Whitehead oracle against the unit-step oracle it replaced.

The unit-step oracle below is the package's oracle as it was before each
step applied a power of its move, kept as the reference: the same choice
of move, applied once per step with `apply_codes`.  By Whitehead's
theorem both reach a word of least length in the automorphism orbit, so
their verdicts agree.  Hypothesis draws the
words with a fixed, derandomized profile and a bounded number of examples.
"""

from operator import mul
from typing import Optional

from hypothesis import HealthCheck, example, given, settings, strategies as st

from goeritz import primitivity
from goeritz.primitivity import (
    WHITEHEAD_AUTOMORPHISMS,
    WHITEHEAD_TYPE_II,
    WhiteheadAutomorphism,
    _TYPE_II_COEFFICIENTS,
    _pair_counts,
)
from goeritz.words import (
    MixedAlphabetError,
    Word,
    _spell,
    _unspell,
    parse_word,
)

from test_code_tuples import _coerce_codes, cyclic_reduce_codes, free_reduce_codes

FIXED = settings(
    derandomize=True,
    database=None,
    deadline=None,
    max_examples=80,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)

MAX_LETTERS = 2000


# --- the unit-step oracle


# the letter codes of x and y
_X, _Y = 1, 2
_Z_AS_X = {3: _X, -3: -_X, _X: _X, -_X: -_X, _Y: _Y, -_Y: -_Y}


def _normalize_rank2(w) -> tuple[int, ...]:
    """Codes over {1, 2}, renaming z to the first-generator slot."""
    codes = _coerce_codes(w)
    if 3 in codes or -3 in codes:
        if 1 in codes or -1 in codes:
            raise MixedAlphabetError("word mixes x and z; no generating pair applies")
        codes = tuple(map(_Z_AS_X.__getitem__, codes))
    return codes


def _cyclic_reduce_spelled(spelled: str) -> str:
    """Strip mutually inverse first/last letters of a freely reduced spelled word."""
    i, j = 0, len(spelled) - 1
    while i < j and spelled[i] == spelled[j].swapcase():
        i += 1
        j -= 1
    return spelled[i : j + 1]


def _find_shortening(spelled: str) -> Optional[tuple[WhiteheadAutomorphism, str]]:
    """First enumerated automorphism whose image is cyclically shorter.

    The word is cyclically reduced and spelled over x, y.  Type I maps
    permute letters and never change cyclic length, so only the type II
    candidates can shorten.  Their length changes are predicted from the
    input's two-letter subword counts; only the chosen move is applied,
    and its image must have exactly the predicted length.
    """
    counts = _pair_counts(spelled)
    for auto, coefficients in zip(WHITEHEAD_TYPE_II, _TYPE_II_COEFFICIENTS):
        change = sum(map(mul, coefficients, counts))
        if change < 0:
            image = _cyclic_reduce_spelled(_spell(auto.apply_codes(_unspell(spelled))))
            if len(image) != len(spelled) + change:
                raise RuntimeError(
                    f"Whitehead move {auto} took a cyclic word of length {len(spelled)} "
                    f"to length {len(image)}, not the predicted {len(spelled) + change}"
                )
            return auto, image
    return None


def _spelled_core(w) -> str:
    """The cyclically reduced word over x, y that the oracle starts from."""
    return _spell(cyclic_reduce_codes(free_reduce_codes(_normalize_rank2(w))))


def is_primitive_whitehead(w) -> bool:
    """Whitehead-algorithm primitivity oracle."""
    spelled = _spelled_core(w)
    while len(spelled) > 1:
        found = _find_shortening(spelled)
        if found is None:
            return False
        spelled = found[1]
    return len(spelled) == 1


# --- words

# runs of one letter, up to MAX_LETTERS letters in all once freely reduced
run_words = st.lists(
    st.tuples(st.sampled_from("xXyY"), st.integers(1, 400)), min_size=1, max_size=24
).map(lambda runs: Word("".join(ch * n for ch, n in runs)[:MAX_LETTERS]))

# a short base word, primitive or not, under a chain of powers of
# Whitehead moves, each applied with apply_codes and kept while the
# cyclic word stays within MAX_LETTERS letters
BASES = ("x", "y", "X", "x^2", "xy", "xyXY", "x^2y^3", "x^3y^4", "xy^2xY", "x^2Y^2")


@st.composite
def automorphic_images(draw):
    codes = parse_word(draw(st.sampled_from(BASES))).codes
    moves = draw(
        st.lists(
            st.tuples(st.integers(0, len(WHITEHEAD_AUTOMORPHISMS) - 1), st.integers(1, 40)),
            min_size=1,
            max_size=30,
        )
    )
    for index, k in moves:
        auto = WHITEHEAD_AUTOMORPHISMS[index]
        image = codes
        for _ in range(k):
            image = cyclic_reduce_codes(auto.apply_codes(image))
        if len(image) <= MAX_LETTERS:
            codes = image
    return Word(_spell(codes))


def check(word):
    verdict = is_primitive_whitehead(word)
    assert primitivity.is_primitive_whitehead(word) is verdict, word
    assert primitivity.is_primitive_whitehead(word.spell()) is verdict, word
    traced, chain = primitivity.whitehead_trace(word)
    assert traced is verdict
    lengths = [len(_spelled_core(word))] + [len(image) for _, image in chain]
    assert all(a > b for a, b in zip(lengths, lengths[1:])), word
    return verdict


@FIXED
@given(run_words)
@example(parse_word("xy^600xy^601"))
@example(parse_word("xY^500xY^502"))
@example(parse_word("x^2y^700x^3y^699"))
def test_power_oracle_agrees_with_the_unit_step_oracle_on_run_words(word):
    check(word)


@FIXED
@given(automorphic_images())
def test_power_oracle_agrees_with_the_unit_step_oracle_on_automorphic_images(word):
    check(word)
