"""The certified primitivity decision: the Euclid reduction of Cohen,
Metzler and Zimmermann, and the checker of its certificates.

This is the decision every verb prints.  `primitivity_certificate` makes
the cyclic word positive, then shortens it with x -> x y^-k until one
generator is gone, and returns the steps as a certificate;
`check_certificate` re-checks that certificate with code of its own.
`is_primitive_cmz` checks every primitive verdict before returning it,
and `cmz_trace` labels the moves the checker replays.  The Whitehead
oracle, the normal form and the filter of `goeritz.primitivity` are
independent checks on this decision.  Every function here takes a
`Word`, a `CyclicWord` or a spelling over x, X, y, Y, z, Z, and reads it
through `words._rank2_spelling`.  Of the package, this module imports
`goeritz.words` only.
"""

from __future__ import annotations

from typing import NamedTuple, Optional

from .words import CyclicWord, _caret, _cyclic_core, _rank2_spelling

# The decision's exchange of x and y; the checker builds its own.
_SWAP_XY = str.maketrans("xy", "yx")


# The conditions under which the Euclid reduction finds a word not primitive.
MIXED_SIGNS = "mixed signs"
REPEATED_LETTER = "repeated rarer letter"
SHORT_RUN = "run shorter than k"
NOT_UNIMODULAR = "non-unimodular abelianization"


class PrimitivityCertificate(NamedTuple):
    """How the Euclid reduction decided a word: the reduction's own steps.

    `flips` names the generators whose sign is flipped to make the
    cyclically reduced word positive.  Each step (swapped, k) exchanges x
    and y if `swapped` and then applies x -> x y^-k, which deletes k y's
    after each x of a positive word whose x's are isolated and followed by
    at least k y's.  A primitive word's steps end on the one letter
    `letter`; any other word's stop where the condition `failure` holds.
    `check_certificate` accepts only these steps: it recomputes each one
    from the word as it replays them.
    """

    primitive: bool
    flips: str
    steps: tuple[tuple[bool, int], ...]
    letter: Optional[str] = None
    failure: Optional[str] = None


def primitivity_certificate(w) -> PrimitivityCertificate:
    """Decide primitivity by the Euclid reduction of Cohen, Metzler and
    Zimmermann ("What does a basis of F(a,b) look like?", Math. Ann.
    1981), which extends the Osborne-Zieschang normal form to all words.

    A cyclically reduced primitive word uses each generator with one sign
    only; flip the signs so it is positive.  Then, x being the rarer
    letter, a positive primitive word has its x's isolated and its y-runs
    of lengths n and n+1 with n = #y // #x (the normal form), and the
    automorphism x -> x y^-n deletes n y's after each x: a shorter
    positive word, primitive exactly when the first is.  The word is
    primitive exactly when the steps end on one letter.  Each step
    deletes at least a quarter of the letters, with C-level string
    operations, so the decision takes O(n) time.

    w is a `Word`, a `CyclicWord` or a spelling over x, X, y, Y, z, Z;
    any other character raises ValueError.
    """
    word = _cyclic_core(_rank2_spelling(w))
    if ("x" in word and "X" in word) or ("y" in word and "Y" in word):
        return PrimitivityCertificate(False, "", (), failure=MIXED_SIGNS)
    flips = "x" * ("X" in word) + "y" * ("Y" in word)
    if flips:
        # with one sign per generator, lowering the case is the sign flip
        word = word.lower()
    steps = []
    while True:
        a, b = word.count("x"), word.count("y")
        if not a or not b:
            break
        swapped = a > b
        if swapped:
            word, a, b = word.translate(_SWAP_XY), b, a
        # x is now the rarer letter; start the word at an x
        start = word.index("x")
        word = word[start:] + word[:start]
        if "xx" in word or word[-1] == "x":
            return PrimitivityCertificate(False, flips, tuple(steps), failure=REPEATED_LETTER)
        k = b // a
        image = word.replace("x" + "y" * k, "x")
        if len(word) - len(image) < k * a:
            return PrimitivityCertificate(False, flips, tuple(steps), failure=SHORT_RUN)
        word = image
        steps.append((swapped, k))
    if len(word) != 1:
        return PrimitivityCertificate(False, flips, tuple(steps), failure=NOT_UNIMODULAR)
    return PrimitivityCertificate(True, flips, tuple(steps), letter=word)


def check_certificate(w, certificate: PrimitivityCertificate) -> list[tuple[str, object, str]]:
    """Raise RuntimeError unless `certificate` proves its verdict on w;
    return the moves that prove it.

    Shares no code with the decision past reading w.  Every verdict is
    checked by one forward replay.  After the sign flips, each step must
    equal the Euclid step recomputed from the word (swap x and y when x
    is the commoner letter, then x -> x y^-k with k = #y // #x) and must
    delete exactly k*#x letters, so every replayed move is the
    automorphism it names.  k is read off the word, never off the
    certificate, so a forged exponent cannot make the replay build a
    long word.  A primitive verdict holds when the replay ends on its
    letter, since w is then an automorphic image of a generator; any
    other verdict holds when its condition holds where the replay stops.

    The moves come in order as plain (kind, argument, spelled image)
    tuples, each with the word it leaves: ("I", images, image) for the
    signed permutation sending x and y to the two letters `images`, and
    ("II", k, image) for x -> x y^-k.
    """
    spelled = _rank2_spelling(w)  # freely reduced, then stripped of inverse ends
    if "xX" in spelled or "Xx" in spelled or "yY" in spelled or "Yy" in spelled:
        stack = []
        for c in spelled:
            if stack and stack[-1] == c.swapcase():
                stack.pop()
            else:
                stack.append(c)
        spelled = "".join(stack)
    lo, hi = 0, len(spelled)
    while hi - lo > 1 and spelled[lo] == spelled[hi - 1].swapcase():
        lo, hi = lo + 1, hi - 1
    core = spelled[lo:hi]

    def wrong(why):
        raise RuntimeError(f"the primitivity certificate of {core or '1'!r} is wrong: {why}")

    letters = ("x", "y") if certificate.primitive else (None,)
    if certificate.letter not in letters or certificate.primitive != (certificate.failure is None):
        wrong("a primitive verdict must end on one letter, any other on a failed condition")
    if certificate.failure == MIXED_SIGNS:
        if certificate.flips or certificate.steps or not any(
            g in core and g.upper() in core for g in "xy"
        ):
            wrong("no generator occurs with both signs")
        return []
    images = "".join(g.upper() if g in certificate.flips else g for g in "xy")
    word = core.translate(str.maketrans("xyXY", images + images.swapcase()))
    if "X" in word or "Y" in word:
        wrong("its sign flips leave the word not positive")
    moves = [("I", images, word)] if images != "xy" else []
    swap = str.maketrans("xy", "yx")
    steps, i = certificate.steps, 0
    while (a := word.count("x")) and (b := word.count("y")):
        swapped = a > b
        if swapped:
            word, a, b = word.translate(swap), b, a
            moves.append(("I", "yx", word))
        start, k = word.index("x"), b // a
        word = word[start:] + word[:start]
        image = word.replace("x" + "y" * k, "x")
        deleted = len(word) - len(image)
        if i == len(steps):
            held = {REPEATED_LETTER: "xx" in word + "x", SHORT_RUN: deleted < k * a}
            break
        if steps[i] != (swapped, k) or deleted != k * a:
            wrong(
                f"step {i + 1} is not the Euclid step ({swapped}, {k}) deleting {k * a} "
                "letters, so the steps do not rebuild w"
            )
        word, i = image, i + 1
        moves.append(("II", k, word))
    else:
        held = {None: word == certificate.letter, NOT_UNIMODULAR: len(word) != 1}
    if i != len(steps) or not held.get(certificate.failure):
        if certificate.primitive:
            wrong(f"the steps end on {word!r}, not on {certificate.letter!r}")
        wrong(f"the steps end on {word!r}, where {certificate.failure!r} does not hold")
    return moves


def is_primitive_cmz(w) -> bool:
    """The certified decision: `primitivity_certificate`, with the
    certificate of every primitive verdict checked before it is returned."""
    certificate = primitivity_certificate(w)
    if certificate.primitive:
        check_certificate(w, certificate)
    return certificate.primitive


def cmz_trace(w) -> tuple[PrimitivityCertificate, list[tuple[str, CyclicWord]]]:
    """The certificate and the moves `check_certificate` replays to check
    it, whatever its verdict (sign flips, swaps, Euclid steps), each
    labelled and with the cyclic word it leaves, in the shape of
    `whitehead_trace`'s chain.  Only the trace labels its moves: a signed
    permutation or swap by its images of x and y, a Euclid step as
    x -> x y^-k."""
    certificate = primitivity_certificate(w)
    chain = []
    for kind, argument, image in check_certificate(w, certificate):
        label = (f"x -> {_caret(argument[0])}, y -> {_caret(argument[1])}" if kind == "I"
                 else f"x -> xy^-{argument}")
        chain.append((label, CyclicWord._of_reduced_spelling(image)))
    return certificate, chain
