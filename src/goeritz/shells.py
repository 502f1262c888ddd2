"""Symbolic shells: the fan E_0, ..., E_p of disks around a primitive disk.

Entry j carries the boundary word obtained from the j-th sequence word
by substituting xy for z, together with its primitivity class.  The
intersection pattern inside a shell is the closed form
|E_i cap E_j| = j - i - 1.

The words are rendered as caret text one letter change at a time, in
one walk per shell; an entry parses its `Word` from that text only when
asked for it.
"""

from __future__ import annotations

from bisect import bisect
from enum import Enum
from functools import cached_property
from math import isqrt
from typing import Iterator

from ._records import record
from .classify import case_data
from .sequences import PqParams, check_sequence_size, make_params, primitive_indices
from .words import Word, parse_word


class DiskClass(Enum):
    PRIMITIVE = "primitive"
    SEMIPRIMITIVE = "semiprimitive"
    NEITHER = "neither"


class ShellKind(Enum):
    """Which of the four slopes q-bar the shell was built with, declared
    in the order of PqParams.shell_slopes."""

    Q = "q"
    P_MINUS_Q = "pq"
    Q_PRIME = "q2"
    P_MINUS_Q_PRIME = "pq2"

    def slope(self, params: PqParams) -> int:
        return params.shell_slopes[_SLOPE_POSITIONS[self]]


_SLOPE_POSITIONS = {kind: i for i, kind in enumerate(ShellKind)}


def shell_primitive_indices(params: PqParams, kind: ShellKind) -> frozenset[int]:
    """Primitive positions in a (p, q-bar)-shell: the shell is made from
    the (p, q-bar)-sequence, so they are that sequence's."""
    return primitive_indices(make_params(params.p, kind.slope(params)))


# The classes in declaration order: a class table holds each word's index here.
DISK_CLASSES = tuple(DiskClass)


def class_table(p: int, primitive: frozenset[int]) -> bytearray:
    """The class of each disk j of a shell (or word j of a sequence) of p+1 with
    primitive positions `primitive`, as its index in DISK_CLASSES; the ends are semiprimitive."""
    index = DISK_CLASSES.index
    table = bytearray([index(DiskClass.NEITHER)]) * (p + 1)
    for j in primitive:
        table[j] = index(DiskClass.PRIMITIVE)
    table[0] = table[p] = index(DiskClass.SEMIPRIMITIVE)
    return table


@record
class ShellEntry:
    """Entry j of a shell: its boundary word, the sequence word w_j with z
    replaced by xy, as caret `text`, and its class.  `boundary_word` is
    that text parsed, on first access.
    """

    index: int
    text: str
    disk_class: DiskClass

    @cached_property
    def boundary_word(self) -> Word:
        return parse_word(self.text)


@record
class Shell:
    """The (p, slope)-shell of one kind: one entry per disk j = 0, ..., p."""

    params: PqParams
    kind: ShellKind
    slope: int
    entries: tuple[ShellEntry, ...]

    def label(self) -> str:
        return f"({self.params.p}, {self.slope})-shell"


def _shell_texts(p: int, qbar: int) -> Iterator[str]:
    """The caret texts of the shell words of the (p, qbar)-sequence.

    Each z of w_j at position i renders as the token x, followed by its y
    and the y letters up to the next z; the y letters before the first z
    form the leading run.  Turning the y at position t into a z splits
    the run that covered t, so only two tokens change: the run's owner
    (the previous z, or the leading run) and t's own.  The tokens are
    kept joined in blocks of about sqrt(p) positions, and only the blocks
    of the changed tokens are joined again, so a word costs a join of
    O(sqrt(p)) strings, not of p.
    """
    # xruns[k]: the token x y^k; xruns[k][1:] is the leading run y^k
    xruns = ["x", "xy"] + [f"xy^{k}" for k in range(2, p + 1)]
    tokens = [""] * p  # the token of each z position, "" at a y
    size = isqrt(p) + 1
    blocks = [""] * (p // size + 1)  # blocks[b]: tokens[b*size:(b+1)*size] joined
    zs: list[int] = []  # the z positions, sorted
    lead = xruns[p][1:]
    yield lead
    for j in range(p):
        t = j * qbar % p
        at = bisect(zs, t)
        end = zs[at] if at < len(zs) else p
        tokens[t] = xruns[end - t]
        b = t // size
        if at:
            owner = zs[at - 1]
            tokens[owner] = xruns[t - owner]
            ob = owner // size
            if ob != b:
                blocks[ob] = "".join(tokens[ob * size:(ob + 1) * size])
        else:
            lead = xruns[t][1:]
        blocks[b] = "".join(tokens[b * size:(b + 1) * size])
        zs.insert(at, t)
        yield lead + "".join(blocks)


def shell_stream(params: PqParams, kind: ShellKind) -> tuple[bytearray, Iterator]:
    """The class table and the `_shell_texts` of the (p, q-bar)-shell; one
    past the letter cap is refused at the call, before any text."""
    check_sequence_size(params.p)
    classes = class_table(params.p, shell_primitive_indices(params, kind))
    return classes, _shell_texts(params.p, kind.slope(params))


def shell_rows(params: PqParams, kind: ShellKind) -> Iterator[tuple[int, str, DiskClass]]:
    """(j, the caret text of E_j, its class), one entry of the (p, q-bar)-shell
    at a time; a shell past the letter cap is refused at the call, before any row."""
    classes, texts = shell_stream(params, kind)
    return ((j, text, DISK_CLASSES[classes[j]]) for j, text in enumerate(texts))


def build_shell(params: PqParams, kind: ShellKind = ShellKind.Q) -> Shell:
    """All p+1 entries of a (p, q-bar)-shell, each its caret text and class,
    from one walk of the `_shell_texts` kernel."""
    rows = shell_rows(params, kind)
    entries = tuple(ShellEntry(index=j, text=text, disk_class=cls) for j, text, cls in rows)
    return Shell(params=params, kind=kind, slope=kind.slope(params), entries=entries)


def intersection_number(shell: Shell, i: int, j: int) -> int:
    """|E_i cap E_j| = j - i - 1 for 0 <= i < j <= p."""
    if not 0 <= i < j <= shell.params.p:
        raise ValueError(f"need 0 <= i < j <= {shell.params.p}, got ({i}, {j})")
    return j - i - 1


class DualPairKind(Enum):
    COMMON_DUAL = "common-dual"
    NO_COMMON_DUAL = "no-common-dual"


@record
class DualShellRelation:
    """How the shells of a primitive pair {E, D} sit inside each other."""

    edge_kind: DualPairKind
    sd_kind: ShellKind
    sd_slope: int
    d_positions_in_se: tuple[int, int]
    e_positions_in_sd: tuple[int, int]


def dual_shell_relation(params: PqParams, edge_kind: DualPairKind) -> DualShellRelation:
    """Positions of each disk of the pair in the other disk's shell: two
    of its primitive positions, the ends' neighbours 1 and p-1 for the
    model pair (E, E_1), which has a common dual disk, and the other two
    for (E, E_q'), which has none.  The latter requires q >= 2, since for
    q = 1 every primitive pair has a common dual disk.
    """
    ends = (1, params.p - 1)
    if edge_kind is DualPairKind.COMMON_DUAL:
        sd_kind, d_in_se, e_in_sd = ShellKind.Q, ends, ends
    elif case_data(params).common_dual_rule.all_pairs:
        raise ValueError(
            "q = 1: every primitive pair has a common dual disk, "
            "so no no-common-dual pair exists"
        )
    else:
        sd_kind = ShellKind.Q_PRIME
        d_in_se, e_in_sd = (
            tuple(sorted(shell_primitive_indices(params, kind).difference(ends)))
            for kind in (ShellKind.Q, sd_kind)
        )
    return DualShellRelation(
        edge_kind=edge_kind,
        sd_kind=sd_kind,
        sd_slope=sd_kind.slope(params),
        d_positions_in_se=d_in_se,
        e_positions_in_sd=e_in_sd,
    )
