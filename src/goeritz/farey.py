"""Replacement calculus along the Farey graph.

When p is not +1 or -1 modulo q, write p = q*m + r with 2 <= r <= q-2.
Starting from the disks with boundary words (xy^q)^(m-1)*x*y^(q+r) and
x, labeled 1/0 and 0/1, each replacement step creates the disk whose
fraction is the mediant of the current ordered pair and whose word is
(xy^q)^(d1+d2+1)*x*y^(e1+e2-q).  Running the L/R schedule read off the
continued fraction of s/(t+1), where s*r - (t+1)*q = 1, ends at a
primitive disk separated from the starting one by non-primitive disks,
witnessing that the primitive disk complex is disconnected.
"""

from __future__ import annotations

import math
from typing import Optional

from ._records import record
from .sequences import InvalidParameters, PqParams, _int_text, _Refusal
from .words import MAX_WORD_LETTERS, Word


class ConnectedComplexError(ValueError):
    """Witness construction refused: the complex is connected."""


@record
class FareyLabel:
    """A disk label: fraction a/b plus the word exponents d and e.

    The labeled disk has boundary word (xy^q)^d x y^e.  Against ambient
    parameters the closed forms are d = a*m + b - 1 and
    e = a*r - (b-1)*q; the replacement recursion keeps both.
    """

    a: int
    b: int
    d: int
    e: int

    @property
    def fraction(self) -> str:
        return f"{self.a}/{self.b}"

    def word(self, q: int) -> Word:
        """The boundary word (xy^q)^d x y^e; y^e is spelled with y^-1
        when e < 0, and d < 0 or q < 1 raises ValueError."""
        if self.d < 0:
            raise ValueError(f"the word exponent d must be >= 0, got {self.d}")
        if q < 1:
            raise ValueError(f"the block exponent q must be >= 1, got {q}")
        tail = "y" * self.e if self.e >= 0 else "Y" * -self.e
        return Word._of_spelling(("x" + "y" * q) * self.d + "x" + tail)

    def matches_closed_form(self, params: PqParams) -> bool:
        return (
            self.d == self.a * params.m + self.b - 1
            and self.e == self.a * params.r - (self.b - 1) * params.q
        )


def continued_fraction(numerator: int, denominator: int) -> tuple[int, ...]:
    """Partial quotients of numerator/denominator, the last one >= 2.

    All quotients are >= 1, and Euclid's last division is r/1 with r >= 2
    (n/1 with n >= 2 when the denominator is 1).  Of a fraction's two
    expansions [..., a] and [..., a - 1, 1], only this one ends in a
    quotient >= 2, which makes it unique.
    """
    if denominator < 1:
        raise ValueError(f"denominator must be positive, got {denominator}")
    if numerator <= denominator:
        raise ValueError(
            f"need numerator > denominator, got {numerator}/{denominator}"
        )
    if math.gcd(numerator, denominator) != 1:
        raise ValueError(f"{numerator}/{denominator} is not in lowest terms")
    quotients = []
    a, b = numerator, denominator
    while b:
        quotients.append(a // b)
        a, b = b, a % b
    return tuple(quotients)


def replacement(left: FareyLabel, right: FareyLabel, params: PqParams) -> FareyLabel:
    """The mediant label produced from an ordered pair; the same whether
    the new disk then takes the left or the right slot of the next pair."""
    return FareyLabel(
        a=left.a + right.a,
        b=left.b + right.b,
        d=left.d + right.d + 1,
        e=left.e + right.e - params.q,
    )


def _no_witness(params: PqParams) -> str:
    return (
        f"{params}: p = {_int_text(params.p)} is congruent to +1 or -1 mod q = {params.q}; "
        "the primitive disk complex is connected and no witness exists"
    )


def seed_labels(params: PqParams) -> tuple[FareyLabel, FareyLabel]:
    """The starting labels: D_0 = 1/0 (word of E_m) and D_-1 = 0/1 (word x)."""
    if params.connected:
        raise ConnectedComplexError(_Refusal(params, _no_witness))
    d0 = FareyLabel(a=1, b=0, d=params.m - 1, e=params.q + params.r)
    d_minus_1 = FareyLabel(a=0, b=1, d=0, e=0)
    return d0, d_minus_1


def solve_replacement_equation(params: PqParams) -> tuple[int, int]:
    """Minimal positive s with s*r - (t+1)*q = 1 for some t >= 0."""
    q, r = params.q, params.r
    s = pow(r, -1, q)
    t_plus_1 = (s * r - 1) // q
    if t_plus_1 < 1:
        raise RuntimeError(f"{params}: s = {s} gives t + 1 = {t_plus_1}, not a positive integer")
    return s, t_plus_1 - 1


@record
class ReplacementStep:
    """One disk of the trace together with the ordered pair it came from."""

    tag: str  # "seed", "L" or "R"
    label: FareyLabel
    word: Word
    pair_before: Optional[tuple[FareyLabel, FareyLabel]] = None


@record
class ReplacementTrace:
    """The replacement trace of a disconnected L(p,q): its Farey data and its disks."""

    params: PqParams
    s: int
    t: int
    cf: tuple[int, ...]
    disks: tuple[ReplacementStep, ...]

    @property
    def final(self) -> ReplacementStep:
        return self.disks[-1]


def _schedule(pair: tuple[FareyLabel, FareyLabel], cf: tuple[int, ...], params: PqParams):
    """The (tag, label, pair_before) of each disk of the trace, in order:
    the two seeds, then blocks of R- and L-replacements sized by cf."""
    yield "seed", pair[0], None
    yield "seed", pair[1], None
    for block, size in enumerate(cf):
        side = "R" if block % 2 == 0 else "L"
        for _ in range(size):
            new = replacement(pair[0], pair[1], params)
            yield side, new, pair
            pair = (pair[0], new) if side == "R" else (new, pair[1])


def nonconnectivity_witness(params: PqParams) -> ReplacementTrace:
    """Run the full replacement schedule; the final disk is primitive
    while the two starting disks next to it are not.

    The schedule alternates blocks of R- and L-replacements whose sizes
    are the partial quotients of s/(t+1); the final label is s/(t+1)
    and its word exponent e equals q + 1 exactly.  The trace is refused
    as soon as its words would pass MAX_WORD_LETTERS letters in all,
    before the word that passes it is made.
    """
    seeds = seed_labels(params)
    s, t = solve_replacement_equation(params)
    cf = continued_fraction(s, t + 1)
    q = params.q
    disks = []
    letters = 0
    for tag, label, pair_before in _schedule(seeds, cf, params):
        letters += (q + 1) * label.d + 1 + abs(label.e)
        if letters > MAX_WORD_LETTERS:
            raise InvalidParameters(
                f"{params}: the witness words have more letters in all "
                f"than the {MAX_WORD_LETTERS} allowed"
            )
        disks.append(ReplacementStep(tag, label, label.word(q), pair_before))
    final = disks[-1].label
    if (final.a, final.b) != (s, t + 1):
        raise RuntimeError(
            f"{params}: the schedule ended at {final.fraction}, not {s}/{t + 1}"
        )
    if final.e != q + 1:
        raise RuntimeError(f"{params}: the final word has e = {final.e}, not q + 1 = {q + 1}")
    return ReplacementTrace(params=params, s=s, t=t, cf=cf, disks=tuple(disks))
