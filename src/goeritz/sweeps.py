"""Exhaustive verification sweeps over parameter and word ranges.

Each named check machine-verifies one invariant against the independent
Whitehead oracle or against exact arithmetic, reporting every failure.
`run_sweep` is the one loop over subjects; `_CHECKS` gives each check its
subjects and a test that yields the details of what fails for a subject.
The word-level sweeps enumerate distinct cyclic cores: the filter and
the oracle depend only on the cyclic core of a word (both reduce first
and are rotation-invariant), so canonical representatives cover all
reduced words of the stated length.  The representatives are generated
as necklaces, not filtered out of all words.
"""

from __future__ import annotations

import math
from typing import Iterator

from ._records import record
from .classify import DisconnectedComplexError, classify
from .euclid import check_certificate, primitivity_certificate
from .farey import ConnectedComplexError, nonconnectivity_witness
from .presentations import amalgam_decomposition, goeritz_presentation
from .primitivity import (
    FilterOutcome,
    is_primitive_positive,
    is_primitive_whitehead,
    nonprimitivity_filter,
    _symmetry_variants,
)
from .sequences import (
    InvalidParameters, PqParams, _SEQUENCE_P, make_params, pq_sequence, verify_symmetry
)
from .words import MAX_WORD_LETTERS, _caret, _least_rotation


@record
class SweepFailure:
    """A subject a sweep found wrong, and what was wrong with it."""

    subject: str
    detail: str


@record
class SweepResult:
    """A sweep's check, bound, subject count and failures."""

    check: str
    bound: int
    subjects: int
    failures: tuple[SweepFailure, ...]

    @property
    def passed(self) -> bool:
        return not self.failures


def coprime_pairs(max_p: int) -> Iterator[tuple[int, int]]:
    """All (p, q) with 2 <= p <= max_p, 1 <= q <= p/2, gcd(p, q) = 1."""
    for p in range(2, max_p + 1):
        for q in range(1, p // 2 + 1):
            if math.gcd(p, q) == 1:
                yield p, q


# The largest word length each enumerator takes: the last length whose
# necklaces, which the enumerator builds, total at most MAX_WORD_LETTERS
# letters.  By Burnside, the necklaces of n letters total sum over d | n
# of phi(n/d) W(d) letters, with W(d) = 2^d closed words over z, y and
# 3^d + 2 + (-1)^d cyclically reduced ones over x, y.  That is 22
# (8,393,924 letters; 23 has 16,782,576) and 14 (7,178,492; 15 has
# 21,528,032).
POSITIVE_WORD_CAP = 22
REDUCED_WORD_CAP = 14


def _necklaces(letters: str, max_len: int) -> Iterator[str]:
    """The necklaces of 1..max_len letters over `letters`, ranked in the
    order given, with no letter next to its inverse, cyclically; spelled,
    in lexicographic order.  Nothing when max_len < 1.

    The Fredricksen-Kessler-Maiorana recursion, walked depth first with
    a stack: a prenecklace w of t letters whose longest Lyndon prefix has
    p letters extends by w[t-p] to a prenecklace with the same p, and by
    each later letter to a Lyndon word (p = t + 1); it is a necklace iff
    p divides t, so periodic necklaces are kept.  A letter next to the
    inverse of the one before it cuts its branch, since every extension
    keeps that pair; the wrap pair is checked on each necklace.
    """
    from_letter = {letter: letters[i:] for i, letter in enumerate(letters)}
    stack = [(letter, 1) for letter in reversed(letters)] if max_len >= 1 else []
    while stack:
        word, p = stack.pop()
        t = len(word)
        inverse = word[-1].swapcase()
        if t % p == 0 and word[0] != inverse:
            yield word
        if t < max_len:
            same, *later = from_letter[word[t - p]]
            # pushed last to first, so they pop in lexicographic order
            stack.extend((word + letter, t + 1) for letter in reversed(later) if letter != inverse)
            if same != inverse:
                stack.append((word + same, p))


def _capped(max_len: int, cap: int) -> None:
    """Refuse a word length past an enumerator's cap, before any word is made."""
    if max_len > cap:
        raise InvalidParameters(
            f"the word length must be at most {cap}, got {max_len}: longer necklaces "
            f"total more than {MAX_WORD_LETTERS} letters"
        )


def positive_cyclic_words(max_len: int) -> Iterator[str]:
    """Canonical rotations of all positive words over {z, y}, lengths 1..max_len, spelled.

    A length past POSITIVE_WORD_CAP raises InvalidParameters here, at the call."""
    _capped(max_len, POSITIVE_WORD_CAP)
    return _necklaces("zy", max_len)


def reduced_cores(max_len: int) -> Iterator[str]:
    """One representative per cyclic core class, up to the symmetries the
    filter and the oracle share: rotation, inversion and the y sign flip.
    Two orders pick it: each variant's least rotation is taken in the
    rotation order x < X < y < Y, and the four are then compared as str,
    by code point, X < Y < x < y; so reduced_cores(1) is X and Y.

    A length past REDUCED_WORD_CAP raises InvalidParameters here, at the call."""
    _capped(max_len, REDUCED_WORD_CAP)
    # the necklaces over x < X < y < Y are the least rotations of the
    # cyclically reduced words
    return _orbit_representatives(_necklaces("xXyY", max_len))


def _orbit_representatives(necklaces: Iterator[str]) -> Iterator[str]:
    """Each necklace that is the least, as str, of its orbit: the least
    rotations of its four symmetry variants, which are necklaces of the
    same walk.  At an orbit's first necklace the other members' rotations
    are taken once, and the members are kept, each with whether it is the
    representative, until the walk reaches them; a member reached is
    popped, with no rotation work."""
    ahead: dict[str, bool] = {}
    for word in necklaces:
        chosen = ahead.pop(word, None)
        if chosen is None:
            orbit = {word, *map(_least_rotation, _symmetry_variants(word)[1:])}
            least = min(orbit)
            orbit.discard(word)
            for member in orbit:
                ahead[member] = member == least
            chosen = word == least
        if chosen:
            yield word


def _pairs(max_p: int) -> Iterator[PqParams]:
    """The parameters of each coprime pair up to max_p, made as the sweep reaches it."""
    return (make_params(p, q) for p, q in coprime_pairs(max_p))


def _pair_name(params: PqParams) -> str:
    return f"({params.p},{params.q})"


def _four_primitives(params: PqParams) -> Iterator[str]:
    seq = pq_sequence(params)
    oracle = {j for j, spelling in enumerate(seq.spellings) if is_primitive_whitehead(spelling)}
    if oracle != set(seq.primitive_indices):
        yield f"oracle says {sorted(oracle)}, expected {sorted(seq.primitive_indices)}"


def _oz_vs_whitehead(word: str) -> Iterator[str]:
    by_form = is_primitive_positive(word)
    by_oracle = is_primitive_whitehead(word)
    if by_form != by_oracle:
        yield f"normal form says {by_form}, oracle says {by_oracle}"


def _filter_soundness(word: str) -> Iterator[str]:
    verdict = nonprimitivity_filter(word)
    if verdict.outcome is FilterOutcome.NOT_PRIMITIVE and is_primitive_whitehead(word):
        yield "filter fired on an oracle-primitive word"


def _cmz_vs_whitehead(word: str) -> Iterator[str]:
    """The certified decision, its checker and the oracle on every
    cyclically reduced necklace: no symmetry reduction, which could hide
    a decider that breaks a symmetry.  A certificate the checker refuses
    raises RuntimeError, which the runner reports."""
    certificate = primitivity_certificate(word)
    by_oracle = is_primitive_whitehead(word)
    check_certificate(word, certificate)
    if certificate.primitive != by_oracle:
        yield f"certified decision says {certificate.primitive}, oracle says {by_oracle}"


def _witness(params: PqParams) -> Iterator[str]:
    # the trace ends at s/(t+1) with e = q + 1: nonconnectivity_witness checks both
    trace = nonconnectivity_witness(params)
    if not is_primitive_whitehead(trace.final.word):
        yield "final disk is not oracle-primitive"
    d0 = trace.disks[0]
    d1 = next(s for s in trace.disks if s.tag in ("L", "R"))
    for name, step in (("D0", d0), ("D1", d1)):
        if is_primitive_whitehead(step.word):
            yield f"{name} is oracle-primitive"
    for step in trace.disks:
        if not step.label.matches_closed_form(params):
            yield f"label {step.label.fraction} breaks the closed form"
        if step.tag != "seed" and step.label.e < 1:
            yield f"step word not positive: e = {step.label.e}"
    # the fractions must walk a mediant path of Farey edges
    for step in trace.disks:
        if step.pair_before is None:
            continue
        left, right = step.pair_before
        if abs(left.a * right.b - right.a * left.b) != 1:
            yield "pair is not a Farey edge"
        if (step.label.a, step.label.b) != (left.a + right.a, left.b + right.b):
            yield "fraction is not the mediant"


def _symmetry(params: PqParams) -> Iterator[str]:
    if not verify_symmetry(pq_sequence(params)):
        yield "reversal symmetry fails"


def _dispatch_totality(params: PqParams) -> Iterator[str]:
    """Structural cross-consistency: four checks that compare the case
    table with code that does not read it.  The presentation and the
    witness are defined exactly as the pair is connected or not; the
    dimension is 2 exactly when q = 2 or p = 2q + 1; the amalgam has one
    edge fewer than it has factors; and its sigma generators match its
    exchangeable pair factors."""
    structure = classify(params)
    try:
        pres = goeritz_presentation(params)
        pres_defined = True
    except DisconnectedComplexError:
        pres, pres_defined = None, False
    try:
        nonconnectivity_witness(params)
        witness_defined = True
    except ConnectedComplexError:
        witness_defined = False
    if pres_defined != structure.connected or witness_defined == structure.connected:
        yield (
            f"connected={structure.connected} but presentation defined="
            f"{pres_defined}, witness defined={witness_defined}"
        )
        return
    if not structure.connected:
        return
    if (structure.dimension == 2) != (params.q == 2 or params.p == 2 * params.q + 1):
        yield "dimension disagrees with the triple criterion"
    amalgam = amalgam_decomposition(params)
    if len(amalgam.edges) != len(amalgam.factors) - 1:
        yield "edge count is not factor count - 1"
    sigma_gens = sum(1 for n in pres.generator_names() if n.startswith("sigma"))
    sigma_factors = sum(
        any(n.startswith("sigma") for n in f.presentation.generator_names()) for f in amalgam.factors
    )
    if sigma_gens != sigma_factors:
        yield f"{sigma_gens} sigma generators but {sigma_factors} exchangeable pair factors"


# Each check with its per-subject test, its default bound, the least bound
# that leaves something to check (one letter for the word-level checks,
# p = 2 for the p-level ones, p = 12 for the witness sweep, whose first
# disconnected pair is (12, 5)), the largest bound it takes, its subjects
# up to a bound and the name of a failing subject.  The largest is the
# last p before a subject passes MAX_WORD_LETTERS, so that such a bound is
# refused up front, not when the sweep reaches it: the last p with
# p(p+1) <= MAX_WORD_LETTERS where each pair makes its sequence, and 631
# where each disconnected pair makes its witness trace, the first trace
# past the cap being that of (632, 253), with 10,075,164 letters.  For the
# word-level checks it is the cap of the enumerator they walk.  The
# subjects look make_params and the enumerators up when the sweep runs, so
# that a caller who replaces those module names (to trace or to fault
# them) is heard.  A word is named in caret notation, as Word prints it.
_WITNESS_P = 631
_CHECKS = {
    "four-primitives": (_four_primitives, 40, 2, _SEQUENCE_P, _pairs, _pair_name),
    "oz-vs-whitehead": (
        _oz_vs_whitehead, 14, 1, POSITIVE_WORD_CAP, lambda n: positive_cyclic_words(n), _caret
    ),
    "filter-soundness": (
        _filter_soundness, 12, 1, REDUCED_WORD_CAP, lambda n: reduced_cores(n), _caret
    ),
    "cmz-vs-whitehead": (
        _cmz_vs_whitehead, 12, 1, REDUCED_WORD_CAP, lambda n: _necklaces("xXyY", n), _caret
    ),
    "witness": (
        _witness, 120, 12, _WITNESS_P,
        lambda n: (params for params in _pairs(n) if not params.connected), _pair_name,
    ),
    "symmetry": (_symmetry, 40, 2, _SEQUENCE_P, _pairs, _pair_name),
    "dispatch-totality": (_dispatch_totality, 60, 2, _WITNESS_P, _pairs, _pair_name),
}

DEFAULT_BOUNDS = {check: row[1] for check, row in _CHECKS.items()}


def run_sweep(check: str, bound: int | None = None) -> SweepResult:
    """Run one named check up to the given bound (a maximal p, or a maximal
    word length for the word-level checks).  A subject whose self-check
    raises RuntimeError (the witness trace, the certificate checker) fails
    with that error, after what its test yielded before, and the sweep goes on."""
    if check not in _CHECKS:
        raise ValueError(
            f"unknown check {check!r}; choose from {', '.join(sorted(_CHECKS))}"
        )
    test, default, least, most, subjects, name = _CHECKS[check]
    if bound is None:
        bound = default
    if bound < least:
        # a smaller bound leaves nothing to check, and the sweep would pass vacuously
        raise InvalidParameters(f"the {check} bound must be at least {least}, got {bound}")
    if bound > most:
        # a word-level check has the least bound 1
        reach = "necklaces totalling" if least == 1 else "a subject of"
        raise InvalidParameters(
            f"the {check} bound must be at most {most}, got {bound}: a larger bound "
            f"reaches {reach} more than {MAX_WORD_LETTERS} letters"
        )
    failures = []
    count = 0
    for subject in subjects(bound):
        count += 1
        try:
            for detail in test(subject):
                failures.append(SweepFailure(name(subject), detail))
        except RuntimeError as exc:
            failures.append(SweepFailure(name(subject), str(exc)))
    return SweepResult(check, bound, count, tuple(failures))
