"""Symbolic shells: the fan E_0, ..., E_p of disks around a primitive disk.

Entry j carries the boundary word obtained from the j-th sequence word
by substituting xy for z, together with its primitivity class.  The
intersection pattern inside a shell is the closed form
|E_i cap E_j| = j - i - 1.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

from .sequences import PqParams, spelled_sequence
from .words import Word, _positive_codes


class DiskClass(Enum):
    PRIMITIVE = "primitive"
    SEMIPRIMITIVE = "semiprimitive"
    NEITHER = "neither"


class ShellKind(Enum):
    """Which of the four slopes q-bar the shell was built with."""

    Q = "q"
    P_MINUS_Q = "pq"
    Q_PRIME = "q2"
    P_MINUS_Q_PRIME = "pq2"

    def slope(self, params: PqParams) -> int:
        return {
            ShellKind.Q: params.q,
            ShellKind.P_MINUS_Q: params.p - params.q,
            ShellKind.Q_PRIME: params.q_prime,
            ShellKind.P_MINUS_Q_PRIME: params.p - params.q_prime,
        }[self]


def shell_primitive_indices(params: PqParams, kind: ShellKind) -> frozenset[int]:
    """Primitive positions in a (p, q-bar)-shell.

    For q-bar in {q, p-q} these are {1, q', p-q', p-1}; for the other
    two slopes the roles of q and q' exchange.
    """
    p = params.p
    companion = (
        params.q_prime if kind in (ShellKind.Q, ShellKind.P_MINUS_Q) else params.q
    )
    return frozenset({1, companion, p - companion, p - 1})


@dataclass(frozen=True)
class ShellEntry:
    index: int
    boundary_word: Word
    disk_class: DiskClass


@dataclass(frozen=True)
class Shell:
    params: PqParams
    kind: ShellKind
    slope: int
    entries: tuple[ShellEntry, ...]

    def label(self) -> str:
        return f"({self.params.p}, {self.slope})-shell"


def build_shell(params: PqParams, kind: ShellKind = ShellKind.Q) -> Shell:
    """All p+1 entries of a (p, q-bar)-shell with words and classes."""
    slope = kind.slope(params)
    primitive = shell_primitive_indices(params, kind)
    entries = []
    for j, spelled in enumerate(spelled_sequence(params.p, slope)):
        word = Word(_positive_codes(spelled.replace(b"z", b"xy")))
        if j in (0, params.p):
            cls = DiskClass.SEMIPRIMITIVE
        elif j in primitive:
            cls = DiskClass.PRIMITIVE
        else:
            cls = DiskClass.NEITHER
        entries.append(ShellEntry(index=j, boundary_word=word, disk_class=cls))
    return Shell(params=params, kind=kind, slope=slope, entries=tuple(entries))


def intersection_number(shell: Shell, i: int, j: int) -> int:
    """|E_i cap E_j| = j - i - 1 for 0 <= i < j <= p."""
    if not 0 <= i < j <= shell.params.p:
        raise ValueError(f"need 0 <= i < j <= {shell.params.p}, got ({i}, {j})")
    return j - i - 1


class DualPairKind(Enum):
    COMMON_DUAL = "common-dual"
    NO_COMMON_DUAL = "no-common-dual"


@dataclass(frozen=True)
class DualShellRelation:
    """How the shells of a primitive pair {E, D} sit inside each other."""

    edge_kind: DualPairKind
    sd_kind: ShellKind
    sd_slope: int
    d_positions_in_se: tuple[int, int]
    e_positions_in_sd: tuple[int, int]


def dual_shell_relation(params: PqParams, edge_kind: DualPairKind) -> DualShellRelation:
    """Positions of each disk of the pair in the other disk's shell.

    The model pair is (E, E_1) when the pair has a common dual disk and
    (E, E_q') when it has none; the latter requires q >= 2 since for
    q = 1 every primitive pair has a common dual disk.
    """
    p, q, qp = params.p, params.q, params.q_prime
    if edge_kind is DualPairKind.COMMON_DUAL:
        return DualShellRelation(
            edge_kind=edge_kind,
            sd_kind=ShellKind.Q,
            sd_slope=q,
            d_positions_in_se=(1, p - 1),
            e_positions_in_sd=(1, p - 1),
        )
    if q == 1:
        raise ValueError(
            "q = 1: every primitive pair has a common dual disk, "
            "so no no-common-dual pair exists"
        )
    return DualShellRelation(
        edge_kind=edge_kind,
        sd_kind=ShellKind.Q_PRIME,
        sd_slope=qp,
        d_positions_in_se=(qp, p - qp),
        e_positions_in_sd=(q, p - q),
    )
