"""Finite presentations of genus-2 Goeritz groups of lens spaces.

Emits, for connected primitive disk complexes: the disk and pair
stabilizer presentations, the decomposition as a chain of vertex
stabilizers amalgamated over edge stabilizers (one factor per
quotient-graph vertex, read off the case's row of classify.CASES), and
the presentation of the whole group derived from that amalgam.  A relator
is a word in the generators' names, a tuple of (name, +1 or -1) letters;
the generators are numbered only where GAP and the Smith normal form need
indices.  The p = 2 amalgam, whose dihedral pair factor has alpha = rho^2,
is a derived reading (the paper's text here is only its abstract),
checked by its abelianization and homomorphism counts, not proved.

The group depends on (p, q) only through its row of classify.CASES, so
the presentations and amalgams are built once per row and shared: seven
objects serve every connected pair.  Each frozen presentation and amalgam
keeps a memo of what is derived from it (the only cache of renders, which
`report --json` and `presentation --format json` read too), so its
renders, its flattening and its abelianization are computed once per
object, however many pairs ask; the Smith normal form cross-check runs,
once, on every presentation emitted.
"""

from __future__ import annotations

import functools
from enum import Enum
from itertools import groupby
from typing import Iterator, Optional, Union

from ._records import record
from .classify import CASES, CaseData, CaseTag, DisconnectedComplexError, case_data
from .jsontext import dumps
from .sequences import PqParams, _Refusal
from .snf import invariant_factors

# Each generator stem: its Greek letter, then its GAP name.
_NAMES = {
    "alpha": ("α", "a"),
    "beta": ("β", "b"),
    "gamma": ("γ", "c"),
    "delta": ("δ", "d"),
    "rho": ("ρ", "r"),
    "sigma": ("σ", "s"),
}
_SUBSCRIPTS = str.maketrans("12", "₁₂")
_SUPERSCRIPTS = str.maketrans("0123456789-", "⁰¹²³⁴⁵⁶⁷⁸⁹⁻")


def _split_name(name: str, index: int) -> tuple[str, str]:
    """A name's stem, written as entry `index` of its row of _NAMES when
    it has one, and its numeric suffix."""
    stem = name.rstrip("12")
    return _NAMES[stem][index] if stem in _NAMES else stem, name[len(stem):]


def display_name(name: str) -> str:
    stem, suffix = _split_name(name, 0)
    return stem + suffix.translate(_SUBSCRIPTS)


def gap_name(name: str) -> str:
    return "".join(_split_name(name, 1))


@record
class Generator:
    """A named generator and its geometric gloss."""

    name: str
    description: str = ""


# A relator: (generator name, +1 or -1) letters, freely reduced.
Relator = tuple[tuple[str, int], ...]


class _Memoized:
    """A per-object memo of the results derived from a frozen record.

    `_memo` is a dict that functools.cached_property stores straight in
    the instance's __dict__, so the record stays frozen and its
    field-based ==, hash, fields() and replace() are unchanged; a copy
    made with dataclasses.replace() starts with an empty memo.  flatten(),
    render() and abelianize_presentation() read it first and fill it on a
    miss.  The objects are shared per row of classify.CASES, so a test
    that injects a fault into invariant_factors or a render helper must
    use a fresh dataclasses.replace() copy: a shared object may already
    hold the honest answer.
    """

    @functools.cached_property
    def _memo(self) -> dict:
        return {}

    def _remembered(self, key: str, make):
        """make(self), computed on the first call for `key` only."""
        memo = self._memo
        try:
            return memo[key]
        except KeyError:
            value = memo[key] = make(self)
            return value


@record
class GroupPresentation(_Memoized):
    """Generators with geometric glosses, relators as words in their names.

    A presentation either carries its own generators and relators or is
    a direct sum of summands; flatten() turns a direct sum into a single
    presentation by adding commutators between generators of distinct
    summands.
    """

    generators: tuple[Generator, ...] = ()
    relators: tuple[Relator, ...] = ()
    summands: tuple["GroupPresentation", ...] = ()

    def __post_init__(self):
        if self.summands and (self.generators or self.relators):
            raise ValueError("a direct sum carries no generators of its own")
        names = {g.name for g in self.generators}
        for rel in self.relators:
            if any(name not in names for name, _ in rel):
                raise ValueError(f"relator {rel} uses undeclared generators")

    def all_generators(self) -> tuple[Generator, ...]:
        if not self.summands:
            return self.generators
        return tuple(g for part in self.summands for g in part.all_generators())

    def generator_names(self) -> tuple[str, ...]:
        return tuple(g.name for g in self.all_generators())

    def flatten(self) -> "GroupPresentation":
        """Single presentation: union of generators and relators plus
        commutators between generators of different summands; built once
        per object."""
        if not self.summands:
            return self
        return self._remembered("flatten", GroupPresentation._flattened)

    def _flattened(self) -> "GroupPresentation":
        parts = [part.flatten() for part in self.summands]
        relators = [rel for part in parts for rel in part.relators]
        for i, left in enumerate(parts):
            for right in parts[i + 1:]:
                for g in left.generators:
                    for h in right.generators:
                        relators.append(((g.name, 1), (h.name, 1), (g.name, -1), (h.name, -1)))
        return GroupPresentation(self.all_generators(), tuple(relators))

    def named_relators(self) -> tuple[Relator, ...]:
        """The relators; a direct sum's are its summands' in turn."""
        if not self.summands:
            return self.relators
        return tuple(rel for part in self.summands for rel in part.named_relators())


def presentation(
    gens: list[tuple[str, str]], relators: list[list[tuple[str, int]]]
) -> GroupPresentation:
    """Build a presentation from (name, gloss) pairs and name/exponent
    relators, each expanded into letters and freely reduced."""
    declared = {name for name, _ in gens}
    rels = []
    for rel in relators:
        word: list[tuple[str, int]] = []
        for name, exp in rel:
            if name not in declared:  # checked here too, as its letters may cancel
                raise ValueError(f"relator {rel} uses undeclared generators")
            sign = 1 if exp > 0 else -1
            for _ in range(abs(exp)):
                if word and word[-1] == (name, -sign):
                    word.pop()
                else:
                    word.append((name, sign))
        rels.append(tuple(word))
    return GroupPresentation(tuple(Generator(name, desc) for name, desc in gens), tuple(rels))


def direct_sum(*summands: GroupPresentation) -> GroupPresentation:
    return GroupPresentation(summands=tuple(summands))


def _word_display(rel: Relator) -> str:
    """Unicode rendering; a proper power of a block renders as (block)^k."""
    n = len(rel)
    for period in range(2, n):
        block = rel[:period]
        if n % period == 0 and block * (n // period) == rel and len(set(block)) > 1:
            return f"({_run_display(block)})" + str(n // period).translate(_SUPERSCRIPTS)
    return _run_display(rel)


def _run_symbols(rel: Relator, symbol, power) -> Iterator[str]:
    """Each run of equal consecutive letters of a relator: symbol(name),
    or power(symbol(name), exponent) when the exponent is not 1."""
    for (name, sign), run in groupby(rel):
        exp = sign * sum(1 for _ in run)
        yield symbol(name) if exp == 1 else power(symbol(name), exp)


def _run_display(rel) -> str:
    power = lambda sym, exp: sym + str(exp).translate(_SUPERSCRIPTS)
    return "".join(_run_symbols(rel, display_name, power))


def _presentation_text(pres: GroupPresentation) -> str:
    if pres.summands:
        return " ⊕ ".join(_presentation_text(part) for part in pres.summands)
    gens = ", ".join(display_name(g.name) for g in pres.generators)
    rels = ", ".join(_word_display(rel) for rel in pres.relators)
    return f"⟨{gens} | {rels}⟩" if rels else f"⟨{gens} | −⟩"


def presentation_dict(pres: GroupPresentation) -> dict:
    if pres.summands:
        return {"summands": [presentation_dict(part) for part in pres.summands]}
    return {
        "generators": [
            {"name": g.name, "display": display_name(g.name), "description": g.description}
            for g in pres.generators
        ],
        "relators": [_ascii_word(rel) for rel in pres.relators],
    }


def _ascii_word(rel: Relator, symbols: Optional[dict[str, str]] = None) -> str:
    """ASCII rendering, each name written as its symbol if a map is given."""
    symbol = symbols.__getitem__ if symbols else str
    return "*".join(_run_symbols(rel, symbol, lambda sym, exp: f"{sym}^{exp}")) or "1"


def _gap_script(pres: GroupPresentation, suffix: str = "") -> str:
    """The free group on the flattened generators and the list of relators
    over it, as GAP statements; `suffix` ends every name they bind."""
    flat = pres.flatten()
    names = ", ".join(f'"{gap_name(g.name)}{suffix}"' for g in flat.generators)
    symbols = {g.name: f"F{suffix}.{i}" for i, g in enumerate(flat.generators, start=1)}
    rels = ", ".join(_ascii_word(rel, symbols) for rel in flat.relators)
    rels = f"[ {rels} ]" if rels else "[ ]"
    return f"F{suffix} := FreeGroup( {names} );;\nrelators{suffix} := {rels};;"


class StabilizerKind(Enum):
    VERTEX = "vertex"
    EDGE_UNORDERED = "edge-unordered"
    PAIR_EXCHANGEABLE = "pair-exchangeable"
    PAIR_RIGID = "pair-rigid"


_ALPHA_GLOSS = "hyperelliptic involution of both handlebodies"
_BETA_GLOSS = "half-twist along a reducing sphere"
_GAMMA_GLOSS = "exchanges two disjoint dual disks"
_SIGMA_GLOSS = "exchanges the two disks of the pair"


def _alpha() -> GroupPresentation:
    return presentation([("alpha", _ALPHA_GLOSS)], [[("alpha", 2)]])


def _vertex_stab(beta: str = "beta", gamma: str = "gamma", disk: str = "") -> GroupPresentation:
    where = f" of {disk}" if disk else ""
    return direct_sum(
        _alpha(),
        presentation(
            [(beta, _BETA_GLOSS + where), (gamma, _GAMMA_GLOSS + where)],
            [[(gamma, 2)]],
        ),
    )


def _pair_stab(sigma: str = "sigma", pair: str = "") -> GroupPresentation:
    where = f" {pair}" if pair else ""
    return direct_sum(
        _alpha(),
        presentation([(sigma, _SIGMA_GLOSS + where)], [[(sigma, 2)]]),
    )


def _dihedral(rho: str, gamma: str, pair: str) -> GroupPresentation:
    """The dihedral stabilizer of order 8 of the pair at p = 2; alpha is rho^2."""
    return presentation(
        [(rho, f"order-four element of the stabilizer of the pair {pair}"), (gamma, _GAMMA_GLOSS)],
        [[(rho, 4)], [(gamma, 2)], [(gamma, 1), (rho, 1), (gamma, 1), (rho, 1)]],
    )


def _triple_stab(delta: str, gamma: str, triple: str) -> GroupPresentation:
    _, first, second = triple.split(", ")
    return direct_sum(
        _alpha(),
        presentation(
            [
                (delta, f"order-three rotation of the triple {triple}"),
                (gamma, f"exchanges {first} and {second}"),
            ],
            [[(delta, 3)], [(gamma, 2)], [(gamma, 1), (delta, 1), (gamma, 1), (delta, 1)]],
        ),
    )


# Factor.stabilizer -> builder taking the factor's names, then its disks.
_STABILIZERS = {"disk": _vertex_stab, "pair": _pair_stab, "dihedral": _dihedral, "triple": _triple_stab}
_ALPHA: Relator = (("alpha", 1),)


def _alpha_part(factor: GroupPresentation) -> tuple[Relator, GroupPresentation]:
    """A factor's alpha as a word, and the part beside it: alpha and the
    summand beside alpha's, or rho^2 and the whole dihedral factor."""
    if factor.summands:
        return _ALPHA, factor.summands[1]
    return ((factor.generators[0].name, 1),) * 2, factor


# StabilizerKind -> its presentation: a disk or a pair factor with its
# default names, or alpha alone, as the edge group G(E, D) of a pair and a
# disk factor (T1b) and of two disk factors that cannot be exchanged (T1c).
_KIND_STABILIZERS = {
    StabilizerKind.VERTEX: _STABILIZERS["disk"],
    StabilizerKind.PAIR_EXCHANGEABLE: _STABILIZERS["pair"],
    StabilizerKind.EDGE_UNORDERED: lambda: _amalgam(CASES[CaseTag.T1B, True]).edges[0].presentation,
    StabilizerKind.PAIR_RIGID: lambda: _amalgam(CASES[CaseTag.T1C, False]).edges[1].presentation,
}


def stabilizer_presentation(kind: StabilizerKind, params: PqParams) -> GroupPresentation:
    """Stabilizer of a primitive disk, of a pair preserved disk-wise, or
    of a pair preserved as a set (exchangeable or not).  At p = 2 the pair
    stabilizer is dihedral (a derived reading), so none takes this form."""
    if params.p == 2 and kind is not StabilizerKind.VERTEX:
        raise ValueError(
            f"pair stabilizers take this form only for p >= 3, got p = {params.p}"
        )
    return _KIND_STABILIZERS[kind]()


def _not_presentable(params: PqParams) -> str:
    return (
        f"{params}: not covered; the presentation requires p = +1 or -1 mod q "
        f"(here p mod q = {params.r})"
    )


@record
class AmalgamFactor:
    """A vertex stabilizer of the quotient graph, as a factor of the amalgam."""

    label: str
    presentation: GroupPresentation


@record
class AmalgamEdge:
    """Edge stabilizer with the generator identifications into both factors."""

    label: str
    presentation: GroupPresentation
    left: str
    right: str
    inclusions: tuple[tuple[str, str, str], ...] = ()  # (edge gen, left image, right image)


@record
class AmalgamDecomposition(_Memoized):
    """The Goeritz group as a chain of factors amalgamated over edge groups."""

    factors: tuple[AmalgamFactor, ...]
    edges: tuple[AmalgamEdge, ...]
    note: str = ""


def amalgam_decomposition(params: PqParams) -> AmalgamDecomposition:
    """Chain of vertex stabilizers amalgamated over edge stabilizers;
    the factor count equals the quotient-graph vertex count."""
    if not params.connected:
        raise DisconnectedComplexError(_Refusal(params, _not_presentable))
    return _amalgam(case_data(params))


def goeritz_presentation(params: PqParams) -> GroupPresentation:
    """The genus-2 Goeritz group of L(p,q): the amalgamated product of
    its amalgam, for p = 2 too (a derived reading; see the module
    docstring)."""
    if not params.connected:
        raise DisconnectedComplexError(_Refusal(params, _not_presentable))
    return _whole_group(case_data(params))


# Both are built once per row of CASES and shared: every part is frozen.
@functools.cache
def _amalgam(row: CaseData) -> AmalgamDecomposition:
    factors = tuple(
        AmalgamFactor(f.label, _STABILIZERS[f.stabilizer](*f.names, f.where)) for f in row.factors
    )
    edges = tuple(map(_edge, row.edges, factors, factors[1:]))
    return AmalgamDecomposition(factors, edges, row.note)


def _edge(label: str, left: AmalgamFactor, right: AmalgamFactor) -> AmalgamEdge:
    """The edge group of two consecutive factors: alpha's summand plus the
    other generators both factors carry, with the relators among them;
    alpha maps to its word in each factor, the others to themselves."""
    left_alpha, rest = _alpha_part(left.presentation)
    right_alpha, _ = _alpha_part(right.presentation)
    theirs = right.presentation.generator_names()
    kept = tuple(g for g in rest.generators if g.name in theirs)
    shared = ["alpha"] + [g.name for g in kept]
    relators = tuple(rel for rel in rest.relators if all(n in shared for n, _ in rel))
    images = ("alpha", _ascii_word(left_alpha), _ascii_word(right_alpha))
    return AmalgamEdge(
        label,
        direct_sum(_alpha(), GroupPresentation(kept, relators)) if kept else _alpha(),
        left.label,
        right.label,
        (images,) + tuple((g.name,) * 3 for g in kept),
    )


@functools.cache
def _whole_group(row: CaseData) -> GroupPresentation:
    return _amalgamated_product(_amalgam(row))


def _amalgamated_product(am: AmalgamDecomposition) -> GroupPresentation:
    """The whole group from its amalgam.

    Every edge group is generated by the generators that both of its
    factors carry under the same names (alpha and, for p <= 3, gamma),
    and alpha is central in every factor.  So the product is the union of
    the factors' parts beside alpha (their generators sorted by name and
    glossed as in the first factor that declares them, their relators
    kept once and stably sorted by the name of their first generator),
    with alpha central: a direct summand, or, where a factor has alpha as
    the word rho^2 (p = 2), a commutator of rho^2 with each generator
    (alpha^2 becomes rho^4, already a relator of that factor).
    """
    generators: dict[str, Generator] = {}
    relators: dict[Relator, None] = {}
    words = set()
    for factor in am.factors:
        word, rest = _alpha_part(factor.presentation)
        words.add(word)
        for g in rest.generators:
            generators.setdefault(g.name, g)
        relators.update(dict.fromkeys(rest.relators))
    union = GroupPresentation(
        tuple(generators[name] for name in sorted(generators)),
        tuple(sorted(relators, key=lambda rel: rel[0][0])),
    )
    if words == {_ALPHA}:
        return direct_sum(_alpha(), union)
    (alpha,) = words - {_ALPHA}
    inverse = [(name, -sign) for name, sign in reversed(alpha)]
    commutators = tuple(
        (*alpha, (g.name, 1), *inverse, (g.name, -1))
        for g in union.generators
        if (g.name, 1) not in alpha
    )
    return GroupPresentation(union.generators, union.relators + commutators)


@record
class Abelianization:
    """A finitely generated abelian group: its torsion coefficients and free rank."""

    torsion: tuple[int, ...]
    free_rank: int

    def text(self) -> str:
        parts = []
        if self.free_rank == 1:
            parts.append("Z")
        elif self.free_rank > 1:
            parts.append(f"Z^{self.free_rank}")
        parts.extend(f"Z/{d}" for d in self.torsion)
        return " + ".join(parts) if parts else "0"


def abelianize_presentation(pres: GroupPresentation) -> Abelianization:
    """Invariant factors of the abelianized presentation, via integer
    Smith normal form of the relator exponent matrix; computed once per
    presentation object."""
    return pres._remembered("abelianization", _abelianization)


def _abelianization(pres: GroupPresentation) -> Abelianization:
    flat = pres.flatten()
    index = {g.name: i for i, g in enumerate(flat.generators)}
    rows = []
    for rel in flat.relators:
        row = [0] * len(index)
        for name, sign in rel:
            row[index[name]] += sign
        rows.append(row)
    torsion, free_rank = invariant_factors(rows, len(index))
    return Abelianization(torsion=torsion, free_rank=free_rank)


def _amalgam_text(am: AmalgamDecomposition) -> str:
    chain = am.factors[0].label
    for edge, factor in zip(am.edges, am.factors[1:]):
        chain += f" *_{{{edge.label}}} {factor.label}"
    lines = [chain]
    for factor in am.factors:
        lines.append(f"  {factor.label} = {_presentation_text(factor.presentation)}")
    for edge in am.edges:
        maps = "; ".join(f"{g} -> {l}, {r}" for g, l, r in edge.inclusions)
        lines.append(f"  {edge.label} = {_presentation_text(edge.presentation)}  [{maps}]")
    if am.note:
        lines.append(f"  note: {am.note}")
    return "\n".join(lines)


def amalgam_dict(am: AmalgamDecomposition) -> dict:
    return {
        "factors": [
            {"label": f.label, "presentation": presentation_dict(f.presentation)}
            for f in am.factors
        ],
        "edges": [
            {
                "label": e.label,
                "presentation": presentation_dict(e.presentation),
                "left": e.left,
                "right": e.right,
                "inclusions": [list(t) for t in e.inclusions],
            }
            for e in am.edges
        ],
        "note": am.note,
    }


def abelianization_dict(ab: Abelianization) -> dict:
    return {"torsion": list(ab.torsion), "free_rank": ab.free_rank}


def _amalgam_gap(am: AmalgamDecomposition) -> str:
    """Each factor's GAP script, its names ending in the factor's number."""
    return "\n".join(
        _gap_script(factor.presentation, str(i)) for i, factor in enumerate(am.factors, start=1)
    )


# format -> (renderer of a presentation, renderer of an amalgam)
_RENDERERS = {
    "text": (_presentation_text, _amalgam_text),
    "json": (lambda pres: dumps(presentation_dict(pres)), lambda am: dumps(amalgam_dict(am))),
    "gap": (_gap_script, _amalgam_gap),
}


def render(obj: Union[GroupPresentation, AmalgamDecomposition], fmt: str = "text") -> str:
    """Render a presentation or an amalgam as text, JSON or a GAP script;
    each format is rendered once per object."""
    if fmt not in ("text", "json", "gap"):
        raise ValueError(f"unknown format {fmt!r}")
    if isinstance(obj, GroupPresentation):
        make = _RENDERERS[fmt][0]
    elif isinstance(obj, AmalgamDecomposition):
        make = _RENDERERS[fmt][1]
    else:
        raise TypeError(f"cannot render {type(obj).__name__}")
    return obj._remembered(fmt, make)
