"""Classification of the primitive disk complex of L(p,q).

The complex is connected (and then contractible) exactly when p is +1
or -1 modulo q.  Connected complexes are trees except when q = 2 or
p = 2q + 1, where they are 2-dimensional.  Every fact that depends on
the case of (p, q) sits in one row of CASES, picked by case_data, or
follows from the row: the dimension and triple existence from the
simplex types, the vertex orbits from the vertex transitivity, and the
quotient graph from the amalgam, one vertex per factor.  These derived
facts are computed once per row, at import, into a template of the
report with params None; classify copies the template, sets params and
fills its frozen report with the copy in one step; equality, hashing,
repr, dataclasses.replace and pickling read the fields as they do for a
report its __init__ (goeritz._records) makes.
"""

from __future__ import annotations

from enum import Enum
from typing import Optional

from ._records import record
from .sequences import PqParams, _new, _Refusal, _set


class DisconnectedComplexError(ValueError):
    """Operation is only defined when the complex is connected."""


class CaseTag(Enum):
    T1A = "T1a"
    T1B = "T1b"
    T1C = "T1c"
    T2A = "T2a"
    T2B = "T2b"
    T2C = "T2c"
    DISCONNECTED = "Disconnected"

    @property
    def clause(self) -> str:
        """The clause of the structure theorem: "(1)(a)" for T1a."""
        if self is CaseTag.DISCONNECTED:
            return "disconnected"
        return f"({self.value[1]})({self.value[2]})"


class QuotientGraph(Enum):
    SINGLE_EDGE = "single-edge"
    PATH3 = "path-3"
    PATH4 = "path-4"
    NOT_APPLICABLE = "not-applicable"

    @property
    def vertex_count(self) -> Optional[int]:
        return {
            QuotientGraph.SINGLE_EDGE: 2,
            QuotientGraph.PATH3: 3,
            QuotientGraph.PATH4: 4,
            QuotientGraph.NOT_APPLICABLE: None,
        }[self]


@record
class EdgeOrbit:
    """An edge orbit: a representative edge, and whether its two disks can be exchanged."""

    representative: str
    exchangeable: bool


@record
class EdgeOrbitInfo:
    """The edge orbits of the complex under the Goeritz group."""

    count: int
    orbits: tuple[EdgeOrbit, ...]


@record
class CommonDualRule:
    """Which primitive pairs have a common dual disk, and how many."""

    all_pairs: bool  # every primitive pair has a common dual disk (q = 1)
    dual_count: int  # common dual disks of a pair that has one: 2 iff p = 2


@record
class ComplexStructureReport:
    """The structure of the primitive disk complex of one L(p,q)."""

    params: PqParams
    connected: bool
    dimension: int
    case_tag: CaseTag
    edge_types_present: frozenset[int]
    simplex_types_present: frozenset[int]
    triple_exists: bool
    common_dual_rule: CommonDualRule
    vertex_orbits: Optional[int]
    edge_orbits: Optional[EdgeOrbitInfo]
    quotient_graph: QuotientGraph


@record
class Factor:
    """A vertex of the quotient graph as a factor of the amalgam: the
    stabilizer of a disk, of a pair (as a set) or of a primitive triple,
    the disks it acts on, and the names of its generators beside alpha,
    which is their rho^2 in the dihedral pair factor of p = 2 (a derived
    reading; see goeritz.presentations).  Two consecutive factors share a
    generator exactly when it lies in their edge group."""

    label: str
    stabilizer: str  # "disk", "pair", "dihedral" or "triple"
    where: str
    names: tuple[str, ...] = ()


@record(eq=False)
class CaseData:
    """Every independent fact about the complex and the Goeritz group that
    depends on (p, q) only through its row of CASES.  Rows are the
    singletons of CASES, so they compare and hash by identity."""

    tag: CaseTag
    transitive: Optional[bool]  # q^2 = 1 mod p; None when disconnected
    edge_types: frozenset[int]
    simplex_types: frozenset[int]
    common_dual_rule: CommonDualRule
    edge_orbits: Optional[EdgeOrbitInfo]
    factors: tuple[Factor, ...] = ()  # the amalgam chain, one per quotient vertex
    edges: tuple[str, ...] = ()  # labels; edges[i] joins factors[i] and factors[i + 1]
    note: str = ""


def _disk(disk: str, beta: str = "beta", gamma: str = "gamma") -> Factor:
    return Factor(f"G({disk})", "disk", disk, (beta, gamma))


def _pair(first: str, second: str, sigma: str = "sigma") -> Factor:
    return Factor(f"G({first} u {second})", "pair", f"{{{first}, {second}}}", (sigma,))


_ONE_EDGE_ORBIT = EdgeOrbitInfo(1, (EdgeOrbit("{E, D}", True),))
_TWO_EDGE_ORBITS = EdgeOrbitInfo(2, (EdgeOrbit("{E, D}", True), EdgeOrbit("{E, E1}", True)))
_THREE_EDGE_ORBITS = EdgeOrbitInfo(
    3, (EdgeOrbit("{E, D}", False), EdgeOrbit("{E, E1}", True), EdgeOrbit("{D, D1}", True))
)

# CASES is keyed by case tag and vertex transitivity, both read off the
# row.  Only T1c occurs with both transitivities.
_ROWS = (
    CaseData(
        CaseTag.T1A, True, frozenset({2}), frozenset(), CommonDualRule(True, 2), _ONE_EDGE_ORBIT,
        factors=(Factor("G(E u D)", "dihedral", "{E, D}", ("rho", "gamma")), _disk("E")),
        edges=("G(E, D)",),
        note="p = 2: alpha is rho^2 in the dihedral pair stabilizer, so not a direct summand",
    ),
    CaseData(
        CaseTag.T1B, True, frozenset({1}), frozenset(), CommonDualRule(True, 1), _ONE_EDGE_ORBIT,
        factors=(_pair("E", "D"), _disk("E")),
        edges=("G(E, D)",),
    ),
    CaseData(
        CaseTag.T1C, True, frozenset({0, 1}), frozenset(), CommonDualRule(False, 1),
        _TWO_EDGE_ORBITS,
        factors=(_pair("E", "D", "sigma1"), _disk("E"), _pair("E", "E1", "sigma2")),
        edges=("G(E, D)", "G(E, E1)"),
    ),
    CaseData(
        CaseTag.T1C, False, frozenset({0, 1}), frozenset(), CommonDualRule(False, 1),
        _THREE_EDGE_ORBITS,
        factors=(
            _pair("D", "D1", "sigma1"),
            _disk("D", "beta1", "gamma1"),
            _disk("E", "beta2", "gamma2"),
            _pair("E", "E1", "sigma2"),
        ),
        edges=("G(D, D1)", "G(E, D)", "G(E, E1)"),
    ),
    CaseData(
        CaseTag.T2A, True, frozenset({1}), frozenset({3}), CommonDualRule(True, 1), _ONE_EDGE_ORBIT,
        factors=(Factor("G(E u E1 u E2)", "triple", "E, E1, E2", ("delta", "gamma")), _disk("E")),
        edges=("G(E, E1 u E2)",),
    ),
    CaseData(
        CaseTag.T2B, False, frozenset({0, 1}), frozenset({1}), CommonDualRule(False, 1),
        _THREE_EDGE_ORBITS,
        factors=(_disk("E", "beta1", "gamma1"), _disk("D", "beta2", "gamma2")),
        edges=("G(E, D)",),
    ),
    CaseData(
        CaseTag.T2C, False, frozenset({0, 1}), frozenset({1}), CommonDualRule(False, 1),
        _THREE_EDGE_ORBITS,
        factors=(_disk("D", "beta1", "gamma1"), _disk("E", "beta2", "gamma2"), _pair("E", "E1")),
        edges=("G(E, D)", "G(E, E1)"),
    ),
    CaseData(
        CaseTag.DISCONNECTED, None, frozenset({0, 1}), frozenset(), CommonDualRule(False, 1), None
    ),
)
CASES = {(row.tag, row.transitive): row for row in _ROWS}
_T1A = CASES[CaseTag.T1A, True]
_T1B = CASES[CaseTag.T1B, True]
_T1C_TRANSITIVE = CASES[CaseTag.T1C, True]
_T1C_INTRANSITIVE = CASES[CaseTag.T1C, False]
_T2A = CASES[CaseTag.T2A, True]
_T2B = CASES[CaseTag.T2B, False]
_T2C = CASES[CaseTag.T2C, False]
_DISCONNECTED = CASES[CaseTag.DISCONNECTED, None]


def case_data(params: PqParams) -> CaseData:
    """Pick the row of CASES for (p, q).

    p = 3 is tested before the generic q = 1 branch: it is the only
    overlap between q = 1 and the two-dimensional condition p = 2q + 1.
    Only T1c depends on whether q^2 = 1 mod p; every other row has one
    transitivity (true for q = 1 and p = 2, false for q = 2 and
    p = 2q + 1 > 3).
    """
    p, q = params.p, params.q
    if not params.connected:
        return _DISCONNECTED
    if p == 2:
        return _T1A
    if p == 3:
        return _T2A
    if q == 2 or p == 2 * q + 1:
        return _T2B if p == 5 else _T2C
    if q == 1:
        return _T1B
    return _T1C_TRANSITIVE if q * q % p == 1 else _T1C_INTRANSITIVE


def case_tag(params: PqParams) -> CaseTag:
    """Which clause of the structure classification applies."""
    return case_data(params).tag


def vertex_orbits(params: PqParams) -> int:
    """1 when q^2 = 1 mod p (the action is vertex-transitive), else 2."""
    return _connected_field(params, "vertex_orbits")


def edge_orbits(params: PqParams) -> EdgeOrbitInfo:
    """Orbits of edges under the Goeritz group, with exchangeability flags.

    Representatives use the standing disks E, D = E_{q'} and the shell
    neighbours E_1, D_1.
    """
    return _connected_field(params, "edge_orbits")


def quotient_graph(params: PqParams) -> QuotientGraph:
    """Shape of the quotient of the Bass-Serre tree by the group action."""
    return _connected_field(params, "quotient_graph")


_QUOTIENT_GRAPHS = {graph.vertex_count: graph for graph in QuotientGraph}


def _report_template(row: CaseData) -> dict:
    """Every field of a row's structure report, in field order, params None."""
    return {
        "params": None,
        "connected": row.transitive is not None,
        "dimension": 2 if row.simplex_types else 1,
        "case_tag": row.tag,
        "edge_types_present": row.edge_types,
        "simplex_types_present": row.simplex_types,
        "triple_exists": bool(row.simplex_types),
        "common_dual_rule": row.common_dual_rule,
        "vertex_orbits": None if row.transitive is None else 1 if row.transitive else 2,
        "edge_orbits": row.edge_orbits,
        "quotient_graph": _QUOTIENT_GRAPHS[len(row.factors) or None],
    }


# Rows are singletons compared by identity, so this lookup hashes no Enum.
_REPORT_TEMPLATES = {row: _report_template(row) for row in _ROWS}


def classify(params: PqParams) -> ComplexStructureReport:
    """The full structure report for the primitive disk complex."""
    values = _REPORT_TEMPLATES[case_data(params)].copy()
    values["params"] = params
    report = _new(ComplexStructureReport)
    _set(report, "__dict__", values)
    return report


def _no_orbit_data(params: PqParams) -> str:
    return (
        f"{params}: p mod q = {params.r} is neither 1 nor q - 1 = {params.q - 1}; "
        "the primitive disk complex is disconnected and the orbit data "
        "is only defined in the connected case"
    )


def _connected_field(params: PqParams, name: str):
    """One field of the structure report of a connected pair, read from its row."""
    if not params.connected:
        raise DisconnectedComplexError(_Refusal(params, _no_orbit_data))
    return _REPORT_TEMPLATES[case_data(params)][name]
