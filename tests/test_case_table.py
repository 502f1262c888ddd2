"""The case table against the hand-written dispatch it replaced.

The reference below is the per-case code that classify.CASES and the
amalgamated-product derivation replaced, kept verbatim: case_tag, the
edge and simplex type tables, the orbit and quotient-graph functions,
classify, and the two case tables of the presentations module (the
whole group and the amalgam).  The one exception is p = 2, whose group
and amalgam are now derived like the others: its reference entries are
the derived ones written out, and the literal group they replaced is
kept in test_presentations.py.  Every coprime pair with p <= 400 must get
the same structure report, the same amalgam in all three formats, and
the same presentation apart from the generator glosses listed in
GLOSS_CHANGES, which now come from the amalgam factors.
"""

import hashlib
import math

import pytest

from goeritz.classify import (
    CASES,
    CaseTag,
    CommonDualRule,
    ComplexStructureReport,
    DisconnectedComplexError,
    EdgeOrbit,
    EdgeOrbitInfo,
    QuotientGraph,
    case_data,
    case_tag,
    classify,
    edge_orbits,
    quotient_graph,
    vertex_orbits,
)
from goeritz.cli import main
from goeritz.presentations import (
    AmalgamDecomposition,
    AmalgamEdge,
    AmalgamFactor,
    GroupPresentation,
    amalgam_decomposition,
    direct_sum,
    goeritz_presentation,
    presentation,
    presentation_dict,
    render,
)
from goeritz.report import structure_dict
from goeritz.sequences import PqParams, make_params

MAX_P = 400


# ------------------------------------------------ reference: classify


def ref_case_tag(params: PqParams) -> CaseTag:
    p, q = params.p, params.q
    if not params.connected:
        return CaseTag.DISCONNECTED
    if p == 2:
        return CaseTag.T1A
    if p == 3:
        return CaseTag.T2A
    if q == 2 or p == 2 * q + 1:
        return CaseTag.T2B if p == 5 else CaseTag.T2C
    if q == 1:
        return CaseTag.T1B
    return CaseTag.T1C


_EDGE_TYPES = {
    CaseTag.T1A: frozenset({2}),
    CaseTag.T1B: frozenset({1}),
    CaseTag.T1C: frozenset({0, 1}),
    CaseTag.T2A: frozenset({1}),
    CaseTag.T2B: frozenset({0, 1}),
    CaseTag.T2C: frozenset({0, 1}),
    CaseTag.DISCONNECTED: frozenset({0, 1}),
}

_SIMPLEX_TYPES = {
    CaseTag.T2A: frozenset({3}),
    CaseTag.T2B: frozenset({1}),
    CaseTag.T2C: frozenset({1}),
}


def ref_vertex_orbits(params: PqParams) -> int:
    return 1 if (params.q * params.q) % params.p == 1 else 2


def ref_edge_orbits(params: PqParams) -> EdgeOrbitInfo:
    p, q = params.p, params.q
    if q == 1:
        return EdgeOrbitInfo(1, (EdgeOrbit("{E, D}", True),))
    if (q * q) % p == 1:
        return EdgeOrbitInfo(
            2,
            (EdgeOrbit("{E, D}", True), EdgeOrbit("{E, E1}", True)),
        )
    return EdgeOrbitInfo(
        3,
        (
            EdgeOrbit("{E, D}", False),
            EdgeOrbit("{E, E1}", True),
            EdgeOrbit("{D, D1}", True),
        ),
    )


def ref_quotient_graph(params: PqParams) -> QuotientGraph:
    tag = ref_case_tag(params)
    if tag in (CaseTag.T1A, CaseTag.T1B, CaseTag.T2A, CaseTag.T2B):
        return QuotientGraph.SINGLE_EDGE
    if tag is CaseTag.T2C:
        return QuotientGraph.PATH3
    # T1c: splits on vertex transitivity
    return QuotientGraph.PATH3 if ref_vertex_orbits(params) == 1 else QuotientGraph.PATH4


def ref_classify(params: PqParams) -> ComplexStructureReport:
    tag = ref_case_tag(params)
    connected = params.connected
    two_dimensional = params.q == 2 or params.p == 2 * params.q + 1
    return ComplexStructureReport(
        params=params,
        connected=connected,
        dimension=2 if (connected and two_dimensional) else 1,
        case_tag=tag,
        edge_types_present=_EDGE_TYPES[tag],
        simplex_types_present=_SIMPLEX_TYPES.get(tag, frozenset()),
        triple_exists=two_dimensional,
        common_dual_rule=CommonDualRule(
            all_pairs=params.q == 1,
            dual_count=2 if params.p == 2 else 1,
        ),
        vertex_orbits=ref_vertex_orbits(params) if connected else None,
        edge_orbits=ref_edge_orbits(params) if connected else None,
        quotient_graph=ref_quotient_graph(params) if connected else QuotientGraph.NOT_APPLICABLE,
    )


# ------------------------------------------- reference: presentations

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


_RHO_GLOSS = "order-four element of the stabilizer of the pair {E, D}"


def ref_goeritz_presentation(params: PqParams) -> GroupPresentation:
    p, q = params.p, params.q
    if p == 2:
        # not the literal table the derivation replaced (that one is the
        # reference of test_presentations.py's homomorphism counts), but the
        # product of the T1a amalgam written out: alpha is rho^2, central
        return presentation(
            [
                ("beta", _BETA_GLOSS + " of E"),
                ("gamma", _GAMMA_GLOSS),
                ("rho", _RHO_GLOSS),
            ],
            [
                [("gamma", 2)],
                [("gamma", 1), ("rho", 1), ("gamma", 1), ("rho", 1)],
                [("rho", 4)],
                [("rho", 2), ("beta", 1), ("rho", -2), ("beta", -1)],
                [("rho", 2), ("gamma", 1), ("rho", -2), ("gamma", -1)],
            ],
        )
    if p == 3:
        return direct_sum(
            _alpha(),
            presentation(
                [
                    ("beta", _BETA_GLOSS),
                    ("delta", "order-three rotation of a primitive triple"),
                    ("gamma", _GAMMA_GLOSS),
                ],
                [
                    [("delta", 3)],
                    [("gamma", 2)],
                    [("gamma", 1), ("delta", 1), ("gamma", 1), ("delta", 1)],
                ],
            ),
        )
    if q == 1:
        return direct_sum(
            _alpha(),
            presentation(
                [
                    ("beta", _BETA_GLOSS),
                    ("gamma", _GAMMA_GLOSS),
                    ("sigma", _SIGMA_GLOSS + " {E, D}"),
                ],
                [[("gamma", 2)], [("sigma", 2)]],
            ),
        )
    if p == 5:
        return direct_sum(
            _alpha(),
            presentation(
                [
                    ("beta1", _BETA_GLOSS + " of E"),
                    ("beta2", _BETA_GLOSS + " of D"),
                    ("gamma1", _GAMMA_GLOSS + " of E"),
                    ("gamma2", _GAMMA_GLOSS + " of D"),
                ],
                [[("gamma1", 2)], [("gamma2", 2)]],
            ),
        )
    if p == 2 * q + 1 or q == 2:
        return direct_sum(
            _alpha(),
            presentation(
                [
                    ("beta1", _BETA_GLOSS + " of D"),
                    ("beta2", _BETA_GLOSS + " of E"),
                    ("gamma1", _GAMMA_GLOSS + " of D"),
                    ("gamma2", _GAMMA_GLOSS + " of E"),
                    ("sigma", _SIGMA_GLOSS + " {E, E1}"),
                ],
                [[("gamma1", 2)], [("gamma2", 2)], [("sigma", 2)]],
            ),
        )
    if (q * q) % p == 1:
        return direct_sum(
            _alpha(),
            presentation(
                [
                    ("beta", _BETA_GLOSS),
                    ("gamma", _GAMMA_GLOSS),
                    ("sigma1", _SIGMA_GLOSS + " {E, D}"),
                    ("sigma2", _SIGMA_GLOSS + " {E, E1}"),
                ],
                [[("gamma", 2)], [("sigma1", 2)], [("sigma2", 2)]],
            ),
        )
    return direct_sum(
        _alpha(),
        presentation(
            [
                ("beta1", _BETA_GLOSS + " of D"),
                ("beta2", _BETA_GLOSS + " of E"),
                ("gamma1", _GAMMA_GLOSS + " of D"),
                ("gamma2", _GAMMA_GLOSS + " of E"),
                ("sigma1", _SIGMA_GLOSS + " {D, D1}"),
                ("sigma2", _SIGMA_GLOSS + " {E, E1}"),
            ],
            [[("gamma1", 2)], [("gamma2", 2)], [("sigma1", 2)], [("sigma2", 2)]],
        ),
    )


def _alpha_edge(label: str, left: str, right: str) -> AmalgamEdge:
    return AmalgamEdge(label, _alpha(), left, right, (("alpha", "alpha", "alpha"),))


def ref_amalgam_decomposition(params: PqParams) -> AmalgamDecomposition:
    tag = ref_case_tag(params)
    if tag is CaseTag.T1A:
        dihedral = presentation(
            [("rho", _RHO_GLOSS), ("gamma", _GAMMA_GLOSS)],
            [[("rho", 4)], [("gamma", 2)], [("gamma", 1), ("rho", 1), ("gamma", 1), ("rho", 1)]],
        )
        edge = AmalgamEdge(
            "G(E, D)",
            direct_sum(_alpha(), presentation([("gamma", _GAMMA_GLOSS)], [[("gamma", 2)]])),
            "G(E u D)",
            "G(E)",
            (("alpha", "rho^2", "alpha"), ("gamma", "gamma", "gamma")),
        )
        return AmalgamDecomposition(
            factors=(
                AmalgamFactor("G(E u D)", dihedral),
                AmalgamFactor("G(E)", _vertex_stab(disk="E")),
            ),
            edges=(edge,),
            note="p = 2: alpha is rho^2 in the dihedral pair stabilizer, so not a direct summand",
        )
    if tag is CaseTag.T2A:
        triple = direct_sum(
            _alpha(),
            presentation(
                [
                    ("delta", "order-three rotation of the triple E, E1, E2"),
                    ("gamma", "exchanges E1 and E2"),
                ],
                [
                    [("delta", 3)],
                    [("gamma", 2)],
                    [("gamma", 1), ("delta", 1), ("gamma", 1), ("delta", 1)],
                ],
            ),
        )
        edge = AmalgamEdge(
            "G(E, E1 u E2)",
            direct_sum(_alpha(), presentation([("gamma", "exchanges E1 and E2")], [[("gamma", 2)]])),
            "G(E u E1 u E2)",
            "G(E)",
            (("alpha", "alpha", "alpha"), ("gamma", "gamma", "gamma")),
        )
        return AmalgamDecomposition(
            factors=(
                AmalgamFactor("G(E u E1 u E2)", triple),
                AmalgamFactor("G(E)", _vertex_stab(disk="E")),
            ),
            edges=(edge,),
        )
    if tag is CaseTag.T1B:
        return AmalgamDecomposition(
            factors=(
                AmalgamFactor("G(E u D)", _pair_stab(pair="{E, D}")),
                AmalgamFactor("G(E)", _vertex_stab(disk="E")),
            ),
            edges=(_alpha_edge("G(E, D)", "G(E u D)", "G(E)"),),
        )
    if tag is CaseTag.T2B:
        return AmalgamDecomposition(
            factors=(
                AmalgamFactor("G(E)", _vertex_stab("beta1", "gamma1", "E")),
                AmalgamFactor("G(D)", _vertex_stab("beta2", "gamma2", "D")),
            ),
            edges=(_alpha_edge("G(E, D)", "G(E)", "G(D)"),),
        )
    if tag is CaseTag.T2C:
        return AmalgamDecomposition(
            factors=(
                AmalgamFactor("G(D)", _vertex_stab("beta1", "gamma1", "D")),
                AmalgamFactor("G(E)", _vertex_stab("beta2", "gamma2", "E")),
                AmalgamFactor("G(E u E1)", _pair_stab(pair="{E, E1}")),
            ),
            edges=(
                _alpha_edge("G(E, D)", "G(D)", "G(E)"),
                _alpha_edge("G(E, E1)", "G(E)", "G(E u E1)"),
            ),
        )
    if ref_vertex_orbits(params) == 1:
        return AmalgamDecomposition(
            factors=(
                AmalgamFactor("G(E u D)", _pair_stab("sigma1", "{E, D}")),
                AmalgamFactor("G(E)", _vertex_stab(disk="E")),
                AmalgamFactor("G(E u E1)", _pair_stab("sigma2", "{E, E1}")),
            ),
            edges=(
                _alpha_edge("G(E, D)", "G(E u D)", "G(E)"),
                _alpha_edge("G(E, E1)", "G(E)", "G(E u E1)"),
            ),
        )
    return AmalgamDecomposition(
        factors=(
            AmalgamFactor("G(D u D1)", _pair_stab("sigma1", "{D, D1}")),
            AmalgamFactor("G(D)", _vertex_stab("beta1", "gamma1", "D")),
            AmalgamFactor("G(E)", _vertex_stab("beta2", "gamma2", "E")),
            AmalgamFactor("G(E u E1)", _pair_stab("sigma2", "{E, E1}")),
        ),
        edges=(
            _alpha_edge("G(D, D1)", "G(D u D1)", "G(D)"),
            _alpha_edge("G(E, D)", "G(D)", "G(E)"),
            _alpha_edge("G(E, E1)", "G(E)", "G(E u E1)"),
        ),
    )


# ------------------------------------------------------------ checks

# (case tag, vertex orbits) -> generator -> its new gloss.  The derived
# presentation glosses each generator as the first amalgam factor that
# declares it; these are the only glosses that differ from the reference.
GLOSS_CHANGES = {
    ("T1b", 1): {"beta": _BETA_GLOSS + " of E", "gamma": _GAMMA_GLOSS + " of E"},
    ("T1c", 1): {"beta": _BETA_GLOSS + " of E", "gamma": _GAMMA_GLOSS + " of E"},
    ("T2a", 1): {
        "beta": _BETA_GLOSS + " of E",
        "delta": "order-three rotation of the triple E, E1, E2",
        "gamma": "exchanges E1 and E2",
    },
}


def coprime_pairs(max_p):
    for p in range(2, max_p + 1):
        for q in range(1, p // 2 + 1):
            if math.gcd(p, q) == 1:
                yield p, q


def _with_gloss_changes(data: dict, changes: dict) -> dict:
    if "summands" in data:
        return {"summands": [_with_gloss_changes(part, changes) for part in data["summands"]]}
    gens = [{**g, "description": changes.get(g["name"], g["description"])} for g in data["generators"]]
    return {**data, "generators": gens}


def test_structure_matches_the_reference_dispatch():
    for p, q in coprime_pairs(MAX_P):
        params = make_params(p, q)
        assert case_tag(params) is ref_case_tag(params), (p, q)
        assert structure_dict(classify(params)) == structure_dict(ref_classify(params)), (p, q)
        if params.connected:
            assert vertex_orbits(params) == ref_vertex_orbits(params), (p, q)
            assert edge_orbits(params) == ref_edge_orbits(params), (p, q)
            assert quotient_graph(params) is ref_quotient_graph(params), (p, q)


def test_amalgam_and_presentation_match_the_reference_tables():
    rendered = {}  # id -> (object, renderings); the package shares one object per case

    def renderings(obj):
        if id(obj) not in rendered:
            rendered[id(obj)] = (obj, tuple(render(obj, fmt) for fmt in ("text", "json", "gap")))
        return rendered[id(obj)][1]

    changed = set()
    for p, q in coprime_pairs(MAX_P):
        params = make_params(p, q)
        if not params.connected:
            continue
        amalgam, ref_amalgam = amalgam_decomposition(params), ref_amalgam_decomposition(params)
        assert renderings(amalgam) == tuple(
            render(ref_amalgam, fmt) for fmt in ("text", "json", "gap")
        ), (p, q)

        pres, ref_pres = goeritz_presentation(params), ref_goeritz_presentation(params)
        assert pres.generator_names() == ref_pres.generator_names(), (p, q)
        assert pres.named_relators() == ref_pres.named_relators(), (p, q)
        text, _, gap = renderings(pres)
        assert (text, gap) == (render(ref_pres, "text"), render(ref_pres, "gap")), (p, q)

        key = (ref_case_tag(params).value, ref_vertex_orbits(params))
        expected = _with_gloss_changes(presentation_dict(ref_pres), GLOSS_CHANGES.get(key, {}))
        assert presentation_dict(pres) == expected, (p, q)
        if key in GLOSS_CHANGES:
            changed.add(key)
    assert changed == set(GLOSS_CHANGES)


def test_amalgam_refuses_disconnected():
    with pytest.raises(DisconnectedComplexError, match="not covered"):
        amalgam_decomposition(make_params(12, 5))


# SHA-256 of the stdout of `presentation p q --format FMT --amalgam
# --abelianization`, one pair per connected row of CASES.  Recorded from the
# output of the index-relator renderer, so a change to the renderer cannot
# move both sides of this comparison.
PRESENTATION_DIGESTS = {
    ((2, 1), "text"): "0cf75c2a4f288b6d2f674d72f003455943d0299ee50195da89b5481d34e009fc",
    ((2, 1), "json"): "6c8f42fa147cd1b9b63146e3ccf484359a318c36d48eb11a87c0eeb95b761542",
    ((2, 1), "gap"): "d25d32b0d2a63625f9091aa2b67afc498236ee6b9040b84fb4031b356b85325e",
    ((3, 1), "text"): "19df01e89fbcb045b95a9aff9430639e13bd64a0a1b006cc1231f5fadd279208",
    ((3, 1), "json"): "4fb224bb025c96ca59d5a4d7ef86b7d867a42f6c285691f1944a6ac5a9a412a8",
    ((3, 1), "gap"): "a8a16c0df28e0b237394648ccdd6c007af6172a6aa024c56379433b2cc5b7b2e",
    ((4, 1), "text"): "7e2f91960780128f1d88466e19164872b65d51e17e7a09762d7985710137c26f",
    ((4, 1), "json"): "44eb39f3d926e49369982060184c94808104bf5c10ded60ef05a1ea6902b6574",
    ((4, 1), "gap"): "b8e3b6f5cd28f52b9ff664c5ee7013ab8fe3448a845ad2b2e6c4dc0ed0a9ba7b",
    ((8, 3), "text"): "6a26c50bdb6d24318418602a97d50faf986f5f118831bef5e4754dc7430f551a",
    ((8, 3), "json"): "2e69ac359d834c42d04ba44727a852c23f5154a1c1aa2c71075921554f2408fc",
    ((8, 3), "gap"): "fba36c3d9fc7c26d5d55e93d8f6eb48e5a09466e78cfa9018bfff3b42b5aa9e4",
    ((10, 3), "text"): "62c9372982d09e407bc9565928fa8b9e8a68b8cae164e2b777b869f4a3cb1af5",
    ((10, 3), "json"): "504e8df0e1911fd2c360d02e26ecf31762af03930140358156b3f833339a1a69",
    ((10, 3), "gap"): "c89d4e649743083a39e3e4bdd6d1da4768d3f50bc272a16ad8ec9c6c42b642e2",
    ((5, 2), "text"): "d7a1b3cfa624473e95750d8ea401828cfa21564177cb7e160db125a907b1b442",
    ((5, 2), "json"): "f101269a6273c255fb4a82f5703cef3b2cbd024650f5214106144aca7bdfb0dc",
    ((5, 2), "gap"): "1ad77d85e9f18fe997efcfc1dc0465fed0229b388a3b112da091991fecffd9f9",
    ((7, 2), "text"): "d7ef91105580eba2b5bbaeaafbed965c433b68773cd9c92f0372253a079dbc2e",
    ((7, 2), "json"): "98efaa810050f736e6e8bfea3b01ac8aa78e00fd9145d96add58a4842ac24127",
    ((7, 2), "gap"): "d3aa1412b36830f3f8f0216c7fe7641ce1856576ce8dff15c4caad15c8549150",
}


def test_presentation_output_matches_its_recorded_digests(capsys):
    pairs = {pair for pair, _ in PRESENTATION_DIGESTS}
    connected_rows = {row for row in CASES.values() if row.tag is not CaseTag.DISCONNECTED}
    assert {case_data(make_params(p, q)) for p, q in pairs} == connected_rows
    for ((p, q), fmt), digest in PRESENTATION_DIGESTS.items():
        argv = ["presentation", str(p), str(q), "--format", fmt, "--amalgam", "--abelianization"]
        assert main(argv) == 0
        out = capsys.readouterr().out
        assert hashlib.sha256(out.encode()).hexdigest() == digest, (p, q, fmt)
