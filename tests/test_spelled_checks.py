"""The spelled filter, normal form, sweep enumerators and symmetry check
against the code-tuple versions they replaced.

The code-tuple versions below are the package's as they were before these
routines read spelled text, kept verbatim as the references: the filter
scanned the four symmetry variants as code tuples letter by letter, the
normal form compared two `CyclicWord`s, the enumerators built code tuples
and called `least_rotation`, and the symmetry check compared `CyclicWord`s
of the sequence `Word`s.  The spelled enumerators that the sweeps used
before they generated necklaces are kept too: they spelled every
candidate word and kept those equal to their least rotation.
"""

import dataclasses
import math
import tracemalloc
from itertools import product

import pytest
from hypothesis import example, given, strategies as st

from goeritz import sweeps
from goeritz.primitivity import (
    FilterOutcome,
    FilterVerdict,
    FilterWitness,
    _SWAP_XY,
    _VARIANT_NAMES,
    _cyclic_core,
    _normal_form,
    _symmetry_variants,
    is_primitive_positive,
    nonprimitivity_filter,
    oz_canonical_word,
)
from goeritz.sequences import make_params, pq_sequence, verify_symmetry
from goeritz.sweeps import coprime_pairs, run_sweep
from goeritz.words import (
    CyclicWord,
    Word,
    _least_rotation,
    _rank2_spelling,
    _spell,
    _unspell,
    cyclically_equal,
    least_rotation,
    reverse,
    swap_generators,
)
from test_whitehead_powers import FIXED, MAX_LETTERS

# --- the code-tuple versions, verbatim but for the spelling of their words

# the letter codes of x and y
_X, _Y = 1, 2


def old_scan_patterns(codes: tuple[int, ...]):
    """Look for {xy, xy^-1} or {xy^n x, y^(n+2)} in a cyclically reduced word."""
    n = len(codes)
    if n < 2:
        return None
    xy_at = xY_at = None
    for i, c in enumerate(codes):
        if c == _X:
            nxt = codes[(i + 1) % n]
            if nxt == _Y and xy_at is None:
                xy_at = i
            elif nxt == -_Y and xY_at is None:
                xY_at = i
    if xy_at is not None and xY_at is not None:
        return ("xy", xy_at, "xy^-1", xY_at)

    x_positions = [i for i, c in enumerate(codes) if c == _X]
    if len(x_positions) < 2:
        return None
    # clean gaps: y-power subwords flanked by two x's
    gaps: list[tuple[int, int]] = []
    for k, start in enumerate(x_positions):
        end = x_positions[(k + 1) % len(x_positions)]
        width = (end - start - 1) % n
        if all(codes[(start + 1 + t) % n] == _Y for t in range(width)):
            gaps.append((width, start))
    if not gaps:
        return None
    # longest cyclic run of positive y letters
    best_run, best_at = 0, 0
    i = 0
    while i < n:
        if codes[i] == _Y and (i > 0 or codes[-1] != _Y):
            j = i
            run = 0
            while run < n and codes[j % n] == _Y:
                run += 1
                j += 1
            if run > best_run:
                best_run, best_at = run, i
            i = j
        else:
            i += 1
    gap, gap_at = min(gaps)
    if best_run >= gap + 2:
        first = "x^2" if gap == 0 else ("xyx" if gap == 1 else f"xy^{gap}x")
        return (first, gap_at, f"y^{gap + 2}", best_at)
    return None


def old_symmetry_variants(codes: tuple[int, ...]) -> tuple[tuple[int, ...], ...]:
    """w, w^-1, the y-flip of w and the y-flip of w^-1."""
    inverted = tuple(-c for c in reversed(codes))
    flip = lambda codes: tuple(-c if abs(c) == _Y else c for c in codes)
    return codes, inverted, flip(codes), flip(inverted)


def old_nonprimitivity_filter(w) -> FilterVerdict:
    core = _unspell(_cyclic_core(_rank2_spelling(w)))
    for name, codes in zip(_VARIANT_NAMES, old_symmetry_variants(core)):
        hit = old_scan_patterns(codes)
        if hit is not None:
            first, i, second, j = hit
            return FilterVerdict(
                FilterOutcome.NOT_PRIMITIVE,
                FilterWitness(name, first, i, second, j),
            )
    return FilterVerdict(FilterOutcome.INCONCLUSIVE)


def old_oz_canonical_word(m: int, n: int) -> CyclicWord:
    if m < 1 or n < m:
        raise ValueError(f"need 1 <= m <= n, got ({m}, {n})")
    if math.gcd(m, n) != 1:
        raise ValueError(f"({m}, {n}) are not coprime")
    period = m + n
    codes = []
    for k in range(period):
        i = (1 + k * m) % period
        codes.append(3 if 1 <= i <= m else 2)
    return CyclicWord(_spell(codes))


def old_is_primitive_positive(w) -> bool:
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
    return CyclicWord(spelled.replace("x", "z")) == old_oz_canonical_word(m, n)


def old_positive_cyclic_words(max_len: int):
    for n in range(1, max_len + 1):
        for mask in range(1 << n):
            codes = tuple(3 if (mask >> i) & 1 else 2 for i in range(n))
            if least_rotation(codes) == codes:
                yield codes


def old_cyclically_reduced_words(max_len: int):
    letters = (1, -1, 2, -2)
    path: list[int] = []

    def rec():
        if path and (len(path) == 1 or path[-1] != -path[0]):
            yield tuple(path)
        if len(path) == max_len:
            return
        for c in letters:
            if path and c == -path[-1]:
                continue
            path.append(c)
            yield from rec()
            path.pop()

    yield from rec()


def old_reduced_cores(max_len: int):
    for codes in old_cyclically_reduced_words(max_len):
        if least_rotation(codes) != codes:
            continue
        _, *others = old_symmetry_variants(codes)
        if codes <= min(map(least_rotation, others)):
            yield codes


def old_verify_symmetry(seq) -> bool:
    p = seq.params.p
    return all(
        cyclically_equal(seq.words[p - j], reverse(swap_generators(seq.words[j])))
        for j in range(p + 1)
    )


# --- the spelled enumerators that filtered, verbatim


def filtered_positive_cyclic_words(max_len: int):
    """Canonical rotations of all positive words over {z, y}, lengths 1..max_len, spelled."""
    for n in range(1, max_len + 1):
        for word in map("".join, product("yz", repeat=n)):
            if _least_rotation(word) == word:
                yield word


def filtered_cyclically_reduced_words(max_len: int):
    """The cyclically reduced words over x, X, y, Y of 1..max_len letters, depth first."""

    def extend(word: str):
        if word and word[0] != word[-1].swapcase():
            yield word
        if len(word) < max_len:
            # every letter but the inverse of the last (of none, for the empty word)
            for letter in "xXyY".replace(word[-1:].swapcase(), ""):
                yield from extend(word + letter)

    return extend("")


def filtered_reduced_cores(max_len: int):
    """One representative per cyclic core class, up to the symmetries the
    filter and the oracle share: rotation, inversion and the y sign flip.
    It is the least string among the least rotations of the four variants."""
    for word in filtered_cyclically_reduced_words(max_len):
        if _least_rotation(word) != word:
            continue
        _, *others = _symmetry_variants(word)
        if word <= min(map(_least_rotation, others)):
            yield word


# --- the filter


def test_filter_matches_the_code_tuple_filter_up_to_length_nine():
    words = list(filtered_cyclically_reduced_words(9))
    assert len(words) == 29540
    for spelled in words:
        assert nonprimitivity_filter(spelled) == old_nonprimitivity_filter(spelled), spelled


# runs of one letter, often short so that the patterns can occur
filter_words = st.lists(
    st.tuples(st.sampled_from("xXyY"), st.integers(1, 3) | st.integers(1, 300)),
    min_size=1,
    max_size=60,
).map(lambda runs: "".join(letter * n for letter, n in runs)[:MAX_LETTERS])


@FIXED
@given(filter_words)
@example("x" + "y" * 700 + "x" + "y" * 702)
@example("xY" * 500 + "xy")
@example("y" * 3 + "xyyx" + "Y" * 5 + "yyyyyy")
def test_filter_matches_the_code_tuple_filter_on_long_words(spelled):
    assert nonprimitivity_filter(spelled) == old_nonprimitivity_filter(spelled)


# --- the normal form


def test_normal_form_matches_the_code_tuple_normal_form():
    for n in range(1, 61):
        for m in range(1, n + 1):
            if math.gcd(m, n) == 1:
                assert oz_canonical_word(m, n) == old_oz_canonical_word(m, n), (m, n)
                # letter by letter, the residue rule of the old loop
                period = m + n
                rule = ("x" if 1 <= (1 + k * m) % period <= m else "y" for k in range(period))
                assert _normal_form(m, n) == "".join(rule), (m, n)
    for n in range(1, 13):
        for letters in product("xy", repeat=n):
            spelled = "".join(letters)
            assert is_primitive_positive(spelled) == old_is_primitive_positive(spelled), spelled
    for spelled in ("x" + "y" * 400 + "x" + "y" * 401, "zzy" * 200 + "zy", "xy" * 300):
        assert is_primitive_positive(spelled) == old_is_primitive_positive(spelled)


# --- the enumerators


def _class_key(spelled: str) -> str:
    """The least rotation of the four symmetry variants, by brute force."""
    inverted = spelled[::-1].swapcase()
    flip = str.maketrans("yY", "Yy")
    variants = (spelled, inverted, spelled.translate(flip), inverted.translate(flip))
    return min(v[i:] + v[:i] for v in variants for i in range(len(v)))


def test_enumerators_match_the_code_tuple_enumerators():
    assert list(filtered_cyclically_reduced_words(8)) == [
        _spell(codes) for codes in old_cyclically_reduced_words(8)
    ]
    assert sorted(filtered_positive_cyclic_words(14)) == sorted(
        _spell(codes) for codes in old_positive_cyclic_words(14)
    )
    new = list(filtered_reduced_cores(10))
    old = [_spell(codes) for codes in old_reduced_cores(10)]
    assert len(new) == len(old)
    assert {_class_key(word) for word in new} == {_class_key(word) for word in old}
    # one representative per class
    assert len({_class_key(word) for word in new}) == len(new)


def test_necklace_enumerators_give_the_sets_the_filtering_enumerators_gave():
    """At every bound: the same words, each once, in lexicographic order
    over x < X < y < Y (the order filter-soundness reports its failures in)
    and over z < y."""
    for generated, filtered, top, ranked in (
        (sweeps.reduced_cores, filtered_reduced_cores, 10, "xXyY"),
        (sweeps.positive_cyclic_words, filtered_positive_cyclic_words, 16, "zy"),
    ):
        reference = set(filtered(top))
        rank = str.maketrans(ranked, "abcd"[:len(ranked)])
        for bound in range(1, top + 1):
            words = list(generated(bound))
            assert len(words) == len(set(words)), (generated.__name__, bound)
            assert set(words) == {w for w in reference if len(w) <= bound}, (
                generated.__name__, bound
            )
            assert words == sorted(words, key=lambda w: w.translate(rank)), (generated.__name__, bound)
    # the representative of a class is picked by code point, X < Y < x < y
    assert list(sweeps.reduced_cores(1)) == ["X", "Y"]
    assert list(sweeps.positive_cyclic_words(3)) == [
        "z", "zz", "zzz", "zzy", "zy", "zyy", "y", "yy", "yyy"
    ]


def test_reduced_core_counts():
    assert sum(1 for _ in sweeps.reduced_cores(8)) == 385
    assert sum(1 for _ in sweeps.reduced_cores(11)) == 6574
    assert sum(1 for _ in sweeps.reduced_cores(12)) == 17805
    assert sum(1 for _ in sweeps.reduced_cores(13)) == 48649


def test_the_orbit_table_of_reduced_cores_stays_small():
    """The orbit members the walk has yet to reach are kept in a table:
    at the default bound, 12, the walk's traced peak stays under 4 MB."""
    tracemalloc.start()
    try:
        count = sum(1 for _ in sweeps.reduced_cores(12))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert count == 17805
    assert peak < 4_000_000


def test_enumerators_refuse_lengths_below_one_and_past_their_cap_at_the_call():
    """A bound below 1 yields nothing; a bound past the cap raises when the
    enumerator is called, before the FKM stack is walked.  The sweeps read
    the same caps."""
    from goeritz.sequences import InvalidParameters

    for enumerator, cap in ((sweeps.positive_cyclic_words, 22), (sweeps.reduced_cores, 14)):
        for bound in (0, -1, -10**9):
            assert list(enumerator(bound)) == [], (enumerator.__name__, bound)
        for bound in (cap + 1, 2000, 10**18):
            with pytest.raises(InvalidParameters, match=f"at most {cap}, got {bound}"):
                enumerator(bound)
        enumerator(cap)  # a lazy enumerator: nothing is made until it is read
    assert (sweeps.POSITIVE_WORD_CAP, sweeps.REDUCED_WORD_CAP) == (22, 14)
    assert sweeps._CHECKS["oz-vs-whitehead"][3] == sweeps.POSITIVE_WORD_CAP
    assert sweeps._CHECKS["filter-soundness"][3] == sweeps.REDUCED_WORD_CAP
    assert sweeps._CHECKS["cmz-vs-whitehead"][3] == sweeps.REDUCED_WORD_CAP


# --- the symmetry check


def test_symmetry_check_matches_the_code_tuple_check():
    for p, q in coprime_pairs(40):
        seq = pq_sequence(make_params(p, q))
        assert verify_symmetry(seq) and old_verify_symmetry(seq), (p, q)
        # the same verdict when one word is broken: two letters exchanged,
        # or one letter changed
        j = p // 3
        word = seq.spellings[j]
        k = word.find("zy")
        broken = [word[:k] + "yz" + word[k + 2 :]] if k >= 0 else []
        broken.append(word[:-1] + ("y" if word[-1] == "z" else "z"))
        for spelled in broken:
            spellings = seq.spellings[:j] + (spelled,) + seq.spellings[j + 1 :]
            forged = dataclasses.replace(seq, spellings=spellings)
            assert verify_symmetry(forged) == old_verify_symmetry(forged), (p, q, spelled)


# --- no Word on the spelled paths


def _count_words(monkeypatch) -> list:
    built = []
    honest = Word.__init__

    def counting_init(self, letters=""):
        built.append(self)
        honest(self, letters)

    monkeypatch.setattr(Word, "__init__", counting_init)
    return built


def test_symmetry_check_and_passing_word_sweeps_build_no_words(monkeypatch):
    built = _count_words(monkeypatch)
    for p, q in coprime_pairs(30):
        assert verify_symmetry(pq_sequence(make_params(p, q)))
    for check, bound in (("oz-vs-whitehead", 10), ("filter-soundness", 8), ("symmetry", 40)):
        result = run_sweep(check, bound)
        assert result.subjects > 100 and result.passed, check
    assert built == []
