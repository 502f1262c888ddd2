"""Lens-space parameters and the (p,q)-sequence of words over {z, y}.

For coprime p, q the sequence w_0, ..., w_p has w_j built from the
residue pattern: letter i of w_j is z exactly when i is congruent to
one of 1, 1+q, ..., 1+(j-1)q modulo p.  Exactly the indices 1, q',
p-q' and p-1 give primitive words, where q' is the unique integer in
[1, p/2] with q*q' = +1 or -1 modulo p.
"""

from __future__ import annotations

import math
from functools import cached_property
from typing import Iterator

from ._records import record
from .words import MAX_WORD_LETTERS, Word


class InvalidParameters(ValueError):
    """Rejected lens-space parameters; the message names the constraint."""


def _int_text(n: int) -> str:
    """n in decimal, or its bit length where str() refuses so many digits."""
    try:
        return str(n)
    except ValueError:
        return f"{'-' if n < 0 else ''}<{n.bit_length()}-bit integer>"


@record
class PqParams:
    """Validated parameters of L(p,q) with q normalized into [1, p/2].

    q_prime is the companion slope, r = p mod q, m = p // q, and
    connected records whether p = +1 or -1 modulo q (vacuous for q = 1),
    the criterion for the primitive disk complex to be connected.
    """

    p: int
    q: int
    q_prime: int
    r: int
    m: int
    connected: bool

    @property
    def shell_slopes(self) -> tuple[int, int, int, int]:
        """The four slopes q-bar of the shells, in the order of
        shells.ShellKind: q, p-q, q', p-q'."""
        return (self.q, self.p - self.q, self.q_prime, self.p - self.q_prime)

    @property
    def homeomorphism_slopes(self) -> tuple[int, ...]:
        """All slopes q-bar giving a homeomorphic lens space: the shell
        slopes, sorted, each once."""
        return tuple(sorted(set(self.shell_slopes)))

    def __str__(self) -> str:
        return f"L({_int_text(self.p)},{_int_text(self.q)})"


# make_params and classify fill a frozen record in place: object.__new__,
# then its whole instance dict in one setattr, where the record's __init__
# (goeritz._records) sets one field at a time.  Equality, hashing, repr,
# dataclasses.replace and pickling read the fields as usual.
_new = object.__new__
_set = object.__setattr__


class _Refusal:
    """The message of a refusal about `params`, formatted by
    `message(params)` only when read, so a caller that catches the
    refusal and never reads it pays for no formatting.  It is the
    exception's one argument: str() and repr() of the exception are those
    of the formatted text.  `message` is a module-level function, so that
    the refusal pickles."""

    __slots__ = ("params", "message")

    def __init__(self, params: PqParams, message) -> None:
        self.params = params
        self.message = message

    def __str__(self) -> str:
        return self.message(self.params)

    def __repr__(self) -> str:
        return repr(str(self))

    def __reduce__(self):
        return _Refusal, (self.params, self.message)


def make_params(p: int, q: int) -> PqParams:
    """Validate and normalize (p, q); computes q', r, m and connectivity."""
    if type(p) is not int or type(q) is not int:
        # bool is an int subclass, but L(5, True) is no lens space
        if not (isinstance(p, int) and isinstance(q, int)) or isinstance(p, bool) or isinstance(q, bool):
            raise InvalidParameters("p and q must be integers")
    if p < 2:
        raise InvalidParameters(f"p must be at least 2, got p = {_int_text(p)}")
    if not 0 < q < p:
        raise InvalidParameters(f"q must satisfy 0 < q < p, got q = {_int_text(q)}")
    try:
        # pow refuses exactly the q with no inverse mod p, those not coprime
        # to p; the inverse of p - q is p - inverse, so q' is the same for both
        inverse = pow(q, -1, p)
    except ValueError:
        raise InvalidParameters(
            f"p and q must be coprime, got gcd({_int_text(p)},{_int_text(q)}) = "
            f"{_int_text(math.gcd(p, q))}"
        ) from None
    # min() spelled out: the same comparison, so the same object is kept
    if p - q < q:
        q = p - q
    r = p % q
    params = _new(PqParams)
    _set(params, "__dict__", {
        "p": p,
        "q": q,
        "q_prime": p - inverse if p - inverse < inverse else inverse,
        "r": r,
        "m": p // q,
        "connected": q == 1 or r == 1 or r == q - 1,
    })
    return params


_SEQUENCE_P = (math.isqrt(4 * MAX_WORD_LETTERS + 1) - 1) // 2  # the last p with p(p+1) <= the cap


def check_sequence_size(p: int) -> None:
    """Refuse a (p, q)-sequence of more than MAX_WORD_LETTERS letters in all.

    The shells and the report of L(p,q) are made from its words, so the
    same cap refuses them.  The message prints p(p+1) only for p < 10^9.
    """
    if p > _SEQUENCE_P:
        count = f" = {p * (p + 1)}" if p < 10**9 else ""
        raise InvalidParameters(
            f"the sequence of p = {_int_text(p)} has p(p+1){count} letters, more than the "
            f"{MAX_WORD_LETTERS} allowed: p must be at most {_SEQUENCE_P}"
        )


def spelled_sequence(p: int, qbar: int) -> Iterator[str]:
    """The spellings of w_0, ..., w_p of the (p, qbar)-sequence, as `str`
    that every word reader takes.

    Each word is made from the one before: w_{j+1} is w_j with the
    letter at 0-based position (j * qbar) mod p turned from y to z, in
    one buffer that is decoded once per word.  A sequence of more than
    MAX_WORD_LETTERS letters in all is refused at the first step, before
    its first word is made.
    """
    check_sequence_size(p)
    letters = bytearray(b"y" * p)
    yield letters.decode("ascii")
    for j in range(p):
        letters[j * qbar % p] = ord("z")
        yield letters.decode("ascii")


@record
class PqSequence:
    """The words w_0, ..., w_p, kept as their spellings over z, y.

    `words` builds the `Word`s on first access.
    """

    params: PqParams
    spellings: tuple[str, ...]
    primitive_indices: frozenset[int]

    @cached_property
    def words(self) -> tuple[Word, ...]:
        return tuple(map(Word._of_spelling, self.spellings))


def primitive_indices(params: PqParams) -> frozenset[int]:
    """The primitive positions {1, q', p-q', p-1} (duplicates collapse)."""
    p, qp = params.p, params.q_prime
    return frozenset({1, qp, p - qp, p - 1})


def pq_sequence(params: PqParams) -> PqSequence:
    spellings = tuple(spelled_sequence(params.p, params.q))
    return PqSequence(params=params, spellings=spellings, primitive_indices=primitive_indices(params))


_SWAP_ZY = str.maketrans("zy", "yz")


def verify_symmetry(seq: PqSequence) -> bool:
    """Check that w_{p-j} is a rotation of the reversed symbol swap of w_j;
    as all the words have p letters, that it occurs in w_{p-j} written twice."""
    words = seq.spellings
    return all(w[::-1].translate(_SWAP_ZY) in 2 * image for w, image in zip(words, reversed(words)))
