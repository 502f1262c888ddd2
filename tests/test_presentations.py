import functools
import itertools
import math
import random
from collections import Counter

import pytest

from goeritz import presentations
from goeritz.classify import CASES, CaseTag, DisconnectedComplexError, case_data
from goeritz.presentations import (
    Abelianization,
    GroupPresentation,
    StabilizerKind,
    abelianization_dict,
    abelianize_presentation,
    amalgam_decomposition,
    display_name,
    gap_name,
    goeritz_presentation,
    presentation,
    render,
    stabilizer_presentation,
)
from goeritz.sequences import make_params
from goeritz.snf import invariant_factors, smith_normal_form


def connected_pairs(max_p):
    for p in range(2, max_p + 1):
        for q in range(1, p // 2 + 1):
            if math.gcd(p, q) == 1 and make_params(p, q).connected:
                yield p, q


def relator_multiset(pres):
    return Counter(pres.named_relators())


def rel(*pairs):
    out = []
    for name, exp in pairs:
        out.extend([(name, 1 if exp > 0 else -1)] * abs(exp))
    return tuple(out)


# ---------------------------------------------------------------- snf


def test_snf_known_small_matrices():
    assert smith_normal_form([[1, 2], [3, 4]]) == [1, 2]
    assert smith_normal_form([[2, 0], [0, 3]]) == [1, 6]
    assert smith_normal_form([[2, 4, 4], [-6, 6, 12], [10, -4, -16]]) == [2, 6, 12]
    assert smith_normal_form([[0, 0], [0, 0]]) == [0, 0]
    assert smith_normal_form([[4]]) == [4]


def test_snf_divisibility_chain():
    matrices = [
        [[6, 10], [15, 4]],
        [[2, 3, 5], [7, 11, 13], [17, 19, 23]],
        [[0, 2], [2, 0]],
        [[12, 8], [20, 28]],
    ]
    for m in matrices:
        diag = smith_normal_form(m)
        for a, b in zip(diag, diag[1:]):
            assert b == 0 or (a != 0 and b % a == 0)


def test_snf_rectangular():
    assert smith_normal_form([[1, 0, 0], [0, 2, 0]]) == [1, 2]
    assert smith_normal_form([[3], [6]]) == [3]


def test_invariant_factors():
    assert invariant_factors([[0, 4, 0], [0, 0, 2], [0, 2, 2], [0, 4, 0]], 3) == (
        (2, 2),
        1,
    )
    assert invariant_factors([[2]], 1) == ((2,), 0)
    assert invariant_factors([], 4) == ((), 4)


def determinantal_divisors_snf(m):
    """The Smith diagonal by its definition: d_k = D_k / D_(k-1), where D_k
    is the gcd of all k x k minors (D_0 = 1), and d_k = 0 once D_k = 0.

    Minors come from Laplace expansion along their first row, memoized
    on (rows, columns), so no elimination is shared with goeritz.snf.
    """

    @functools.cache
    def minor(rows, cols):
        if not rows:
            return 1
        return sum(
            (-1) ** n * m[rows[0]][c] * minor(rows[1:], cols[:n] + cols[n + 1:])
            for n, c in enumerate(cols)
            if m[rows[0]][c]
        )

    size = min(len(m), len(m[0])) if m else 0
    diag, previous = [], 1
    for k in range(1, size + 1):
        gcd_of_minors = 0
        for rows in itertools.combinations(range(len(m)), k):
            for cols in itertools.combinations(range(len(m[0])), k):
                gcd_of_minors = math.gcd(gcd_of_minors, minor(rows, cols))
        diag.append(gcd_of_minors // previous if gcd_of_minors else 0)
        if not gcd_of_minors:
            break
        previous = gcd_of_minors
    return diag + [0] * (size - len(diag))


def relation_matrix(pres):
    """The exponent-sum matrix that presentations._abelianization reduces."""
    flat = pres.flatten()
    index = {g.name: i for i, g in enumerate(flat.generators)}
    rows = []
    for relator in flat.relators:
        row = [0] * len(index)
        for name, sign in relator:
            row[index[name]] += sign
        rows.append(row)
    return rows, len(index)


def test_snf_equals_the_determinantal_divisors():
    rng = random.Random(20150034)
    cases = []
    for _ in range(3000):
        rows, cols = rng.randint(0, 4), rng.randint(1, 5)
        m = [[rng.randint(-9, 9) for _ in range(cols)] for _ in range(rows)]
        if rows and rng.random() < 0.3:
            m[rng.randrange(rows)] = [0] * cols
        if rows and rng.random() < 0.3:
            j = rng.randrange(cols)
            for row in m:
                row[j] = 0
        cases.append((m, cols))
    shared = {}
    for p, q in connected_pairs(40):
        pres = goeritz_presentation(make_params(p, q))
        shared[id(pres)] = pres
    assert len(shared) == 7
    cases.extend(relation_matrix(pres) for pres in shared.values())
    for m, cols in cases:
        diag = determinantal_divisors_snf(m)
        assert smith_normal_form(m) == diag, m
        rank = sum(1 for d in diag if d)
        assert invariant_factors(m, cols) == (tuple(d for d in diag if d > 1), cols - rank), m
    for pres in shared.values():
        m, cols = relation_matrix(pres)
        torsion, free_rank = invariant_factors(m, cols)
        assert abelianize_presentation(pres) == Abelianization(torsion=torsion, free_rank=free_rank)


# ------------------------------------------------------- stabilizers


def test_vertex_stabilizer():
    pres = stabilizer_presentation(StabilizerKind.VERTEX, make_params(10, 3))
    assert pres.generator_names() == ("alpha", "beta", "gamma")
    assert relator_multiset(pres) == Counter(
        [rel(("alpha", 2)), rel(("gamma", 2))]
    )
    glosses = {g.name: g.description for g in pres.all_generators()}
    assert "hyperelliptic" in glosses["alpha"]
    assert "half-twist" in glosses["beta"]
    assert "dual disks" in glosses["gamma"]


def test_pair_stabilizers():
    unordered = stabilizer_presentation(StabilizerKind.EDGE_UNORDERED, make_params(8, 3))
    assert unordered.generator_names() == ("alpha",)
    assert relator_multiset(unordered) == Counter([rel(("alpha", 2))])

    exchangeable = stabilizer_presentation(
        StabilizerKind.PAIR_EXCHANGEABLE, make_params(10, 3)
    )
    assert exchangeable.generator_names() == ("alpha", "sigma")
    assert relator_multiset(exchangeable) == Counter(
        [rel(("alpha", 2)), rel(("sigma", 2))]
    )

    rigid = stabilizer_presentation(StabilizerKind.PAIR_RIGID, make_params(10, 3))
    assert rigid.generator_names() == ("alpha",)


def test_pair_stabilizers_need_p_at_least_three():
    for kind in (
        StabilizerKind.EDGE_UNORDERED,
        StabilizerKind.PAIR_EXCHANGEABLE,
        StabilizerKind.PAIR_RIGID,
    ):
        with pytest.raises(ValueError):
            stabilizer_presentation(kind, make_params(2, 1))
    assert stabilizer_presentation(StabilizerKind.VERTEX, make_params(2, 1))


# -------------------------------------------------------- case table

CASE_TABLE = {
    (2, 1): (
        {"beta", "rho", "gamma"},
        [
            rel(("rho", 4)),
            rel(("gamma", 2)),
            rel(("gamma", 1), ("rho", 1), ("gamma", 1), ("rho", 1)),
            rel(("rho", 2), ("beta", 1), ("rho", -2), ("beta", -1)),
            rel(("rho", 2), ("gamma", 1), ("rho", -2), ("gamma", -1)),
        ],
    ),
    (3, 1): (
        {"alpha", "beta", "delta", "gamma"},
        [
            rel(("alpha", 2)),
            rel(("delta", 3)),
            rel(("gamma", 2)),
            rel(("gamma", 1), ("delta", 1), ("gamma", 1), ("delta", 1)),
        ],
    ),
    (4, 1): (
        {"alpha", "beta", "gamma", "sigma"},
        [rel(("alpha", 2)), rel(("gamma", 2)), rel(("sigma", 2))],
    ),
    (7, 1): (
        {"alpha", "beta", "gamma", "sigma"},
        [rel(("alpha", 2)), rel(("gamma", 2)), rel(("sigma", 2))],
    ),
    (5, 2): (
        {"alpha", "beta1", "beta2", "gamma1", "gamma2"},
        [rel(("alpha", 2)), rel(("gamma1", 2)), rel(("gamma2", 2))],
    ),
    (7, 2): (
        {"alpha", "beta1", "beta2", "gamma1", "gamma2", "sigma"},
        [rel(("alpha", 2)), rel(("gamma1", 2)), rel(("gamma2", 2)), rel(("sigma", 2))],
    ),
    (9, 2): (
        {"alpha", "beta1", "beta2", "gamma1", "gamma2", "sigma"},
        [rel(("alpha", 2)), rel(("gamma1", 2)), rel(("gamma2", 2)), rel(("sigma", 2))],
    ),
    (7, 3): (
        {"alpha", "beta1", "beta2", "gamma1", "gamma2", "sigma"},
        [rel(("alpha", 2)), rel(("gamma1", 2)), rel(("gamma2", 2)), rel(("sigma", 2))],
    ),
    (8, 3): (
        {"alpha", "beta", "gamma", "sigma1", "sigma2"},
        [
            rel(("alpha", 2)),
            rel(("gamma", 2)),
            rel(("sigma1", 2)),
            rel(("sigma2", 2)),
        ],
    ),
    (10, 3): (
        {"alpha", "beta1", "beta2", "gamma1", "gamma2", "sigma1", "sigma2"},
        [
            rel(("alpha", 2)),
            rel(("gamma1", 2)),
            rel(("gamma2", 2)),
            rel(("sigma1", 2)),
            rel(("sigma2", 2)),
        ],
    ),
}


def test_goeritz_presentation_case_table():
    for (p, q), (gens, rels) in CASE_TABLE.items():
        pres = goeritz_presentation(make_params(p, q))
        assert set(pres.generator_names()) == gens, (p, q)
        assert relator_multiset(pres) == Counter(rels), (p, q)


def test_goeritz_presentation_rejects_disconnected():
    with pytest.raises(DisconnectedComplexError, match="not covered"):
        goeritz_presentation(make_params(12, 5))


def test_more_cases_by_congruence():
    # q^2 = 1 mod p puts (15, 4) in the same shape as (8, 3)
    pres = goeritz_presentation(make_params(15, 4))
    assert set(pres.generator_names()) == {"alpha", "beta", "gamma", "sigma1", "sigma2"}
    # (11, 3) is the generic six-generator case
    pres = goeritz_presentation(make_params(11, 3))
    assert len(pres.generator_names()) == 7


# ----------------------------------------------------------- render


def test_render_text_exact():
    assert (
        render(goeritz_presentation(make_params(8, 3)), "text")
        == "⟨α | α²⟩ ⊕ ⟨β, γ, σ₁, σ₂ | γ², σ₁², σ₂²⟩"
    )
    assert (
        render(goeritz_presentation(make_params(2, 1)), "text")
        == "⟨β, γ, ρ | γ², (γρ)², ρ⁴, ρ²βρ⁻²β⁻¹, ρ²γρ⁻²γ⁻¹⟩"
    )


def test_render_gap_alpha_only():
    script = render(
        stabilizer_presentation(StabilizerKind.EDGE_UNORDERED, make_params(8, 3)),
        "gap",
    )
    lines = script.splitlines()
    assert len(lines) == 2
    assert lines[0] == 'F := FreeGroup( "a" );;'
    assert "F.1^2" in lines[1]


def test_render_gap_flattens_with_commutators():
    script = render(goeritz_presentation(make_params(4, 1)), "gap")
    assert '"a", "b", "c", "s"' in script
    # commutators of alpha with each later generator
    assert "F.1*F.2*F.1^-1*F.2^-1" in script


def test_render_json_10_3():
    import json

    data = json.loads(render(goeritz_presentation(make_params(10, 3)), "json"))
    assert len(data["summands"]) == 2
    non_alpha = data["summands"][1]
    assert len(non_alpha["generators"]) == 6
    assert len(non_alpha["relators"]) == 4


def test_render_rejects_unknown_format():
    with pytest.raises(ValueError):
        render(goeritz_presentation(make_params(4, 1)), "latex")


def test_display_and_gap_names():
    assert display_name("sigma1") == "σ₁"
    assert display_name("alpha") == "α"
    assert gap_name("gamma2") == "c2"


def test_flatten_adds_commutators():
    pres = goeritz_presentation(make_params(8, 3))
    flat = pres.flatten()
    assert len(flat.generators) == 5
    # own relators plus the four alpha commutators
    assert len(flat.relators) == 4 + 4


# --------------------------------------------------------- amalgams


def test_amalgam_examples():
    am = amalgam_decomposition(make_params(5, 2))
    assert [f.label for f in am.factors] == ["G(E)", "G(D)"]
    assert [e.label for e in am.edges] == ["G(E, D)"]

    am = amalgam_decomposition(make_params(8, 3))
    assert len(am.factors) == 3 and len(am.edges) == 2

    am = amalgam_decomposition(make_params(10, 3))
    assert [f.label for f in am.factors] == ["G(D u D1)", "G(D)", "G(E)", "G(E u E1)"]
    assert len(am.edges) == 3


def test_every_case_amalgam_is_presented_and_includes_by_words():
    """Every factor and edge of every row's amalgam has a presentation, and
    each inclusion image is a word in the generators of its own factor."""
    amalgams = {}
    for p, q in connected_pairs(13):
        params = make_params(p, q)
        amalgams[case_data(params)] = amalgam_decomposition(params)
    assert set(amalgams) == {row for row in CASES.values() if row.tag is not CaseTag.DISCONNECTED}
    for row, am in amalgams.items():
        factors = {f.label: f.presentation for f in am.factors}
        assert all(isinstance(pres, GroupPresentation) for pres in factors.values()), row.tag
        for edge in am.edges:
            assert isinstance(edge.presentation, GroupPresentation), edge.label
            assert [g for g, _, _ in edge.inclusions] == list(edge.presentation.generator_names())
            for side, images in ((edge.left, [l for _, l, _ in edge.inclusions]),
                                 (edge.right, [r for _, _, r in edge.inclusions])):
                for image in images:
                    letters = {atom.split("^")[0] for atom in image.split("*")}
                    assert letters <= set(factors[side].generator_names()), (edge.label, image)


# The p = 2 group as a literal table, before it was derived from its amalgam.
LITERAL_2_1 = presentation(
    [("beta", ""), ("rho", ""), ("gamma", "")],
    [
        [("rho", 4)],
        [("gamma", 2)],
        [("gamma", 1), ("rho", 1), ("gamma", 1), ("rho", 1)],
        [("rho", 2), ("beta", 1), ("rho", 2), ("beta", -1)],
    ],
)


def _permutation_group(*gens):
    """The elements of the permutation group the tuples `gens` generate."""
    elements = {tuple(range(len(gens[0])))}
    frontier = list(elements)
    while frontier:
        a = frontier.pop()
        for g in gens:
            b = tuple(a[i] for i in g)
            if b not in elements:
                elements.add(b)
                frontier.append(b)
    return sorted(elements)


S3 = _permutation_group((1, 0, 2), (1, 2, 0))
D4 = _permutation_group((1, 2, 3, 0), (0, 3, 2, 1))
S4 = _permutation_group((1, 0, 2, 3), (1, 2, 3, 0))


def hom_count(pres, group):
    """|Hom(G, H)| by brute force: the images of G's generators are chosen
    in order, and each relator is checked once all its letters have one."""
    flat = pres.flatten()
    names = [g.name for g in flat.generators]
    due = [[] for _ in names]
    for rel in flat.relators:
        due[max(names.index(name) for name, _ in rel)].append(rel)
    identity = tuple(range(len(group[0])))
    inverse = {h: tuple(sorted(range(len(h)), key=h.__getitem__)) for h in group}
    images = {}

    def holds(rel):
        value = identity
        for name, sign in rel:
            h = images[name] if sign > 0 else inverse[images[name]]
            value = tuple(value[i] for i in h)
        return value == identity

    def count(i):
        if i == len(names):
            return 1
        total = 0
        for h in group:
            images[names[i]] = h
            if all(holds(rel) for rel in due[i]):
                total += count(i + 1)
        return total

    return count(0)


def test_the_derived_p2_group_has_the_literal_tables_hom_counts():
    """The p = 2 group from its amalgam has as many homomorphisms into S3,
    D4 and S4 as the literal table it replaced, and the same abelianization."""
    derived = goeritz_presentation(make_params(2, 1))
    for group, expected in ((S3, 60), (D4, 288), (S4, 1440)):
        assert hom_count(LITERAL_2_1, group) == expected
        assert hom_count(derived, group) == expected
    assert abelianize_presentation(derived) == abelianize_presentation(LITERAL_2_1)


def test_a_dihedral_factor_whose_alpha_is_rho_changes_a_hom_count(monkeypatch):
    honest = presentations._alpha_part

    def faulted(factor):
        word, rest = honest(factor)
        return word[:1], rest  # rho, not rho^2, in the dihedral factor

    monkeypatch.setattr(presentations, "_alpha_part", faulted)
    fault = presentations._amalgamated_product(amalgam_decomposition(make_params(2, 1)))
    counts = [hom_count(fault, group) for group in (S3, D4, S4)]
    assert counts != [60, 288, 1440], counts


def test_amalgam_3_1_triple_factor():
    am = amalgam_decomposition(make_params(3, 1))
    assert [f.label for f in am.factors] == ["G(E u E1 u E2)", "G(E)"]
    triple = am.factors[0].presentation
    assert set(triple.generator_names()) == {"alpha", "delta", "gamma"}
    edge = am.edges[0]
    assert set(edge.presentation.generator_names()) == {"alpha", "gamma"}
    assert ("gamma", "gamma", "gamma") in edge.inclusions


def test_amalgam_flattening_matches_table_counts():
    """Gluing the factors along the edge identifications reproduces the
    table presentation: generator and relator counts agree once each
    edge generator is identified across its two factors."""
    for p, q in connected_pairs(40):
        if p == 2:
            continue  # alpha is rho^2, so its commutators are relators of the group
        params = make_params(p, q)
        table = goeritz_presentation(params)
        am = amalgam_decomposition(params)
        gen_count = 0
        relator_count = 0
        for factor in am.factors:
            gen_count += len(factor.presentation.generator_names())
            relator_count += len(factor.presentation.named_relators())
        for edge in am.edges:
            # each edge generator is counted twice among the factors
            gen_count -= len(edge.presentation.generator_names())
            relator_count -= len(edge.presentation.named_relators())
        assert gen_count == len(table.generator_names()), (p, q)
        assert relator_count == len(table.named_relators()), (p, q)


def test_sigma_factors_match_sigma_generators():
    for p, q in connected_pairs(40):
        params = make_params(p, q)
        table = goeritz_presentation(params)
        am = amalgam_decomposition(params)
        sigma_gens = sum(1 for n in table.generator_names() if n.startswith("sigma"))
        sigma_factors = sum(
            1
            for f in am.factors
            if any(n.startswith("sigma") for n in f.presentation.generator_names())
        )
        assert sigma_gens == sigma_factors, (p, q)


def test_edge_orbits_match_amalgam_edges_on_trees():
    # For tree-shaped complexes every edge orbit contributes one amalgam
    # edge.  In the two-dimensional cases (T2b, T2c) the amalgam tree is a
    # proper subcomplex and uses fewer orbits, so those are excluded.
    from goeritz.classify import CaseTag, case_tag, edge_orbits

    for p, q in connected_pairs(40):
        params = make_params(p, q)
        if case_tag(params) in (CaseTag.T2B, CaseTag.T2C):
            continue
        am = amalgam_decomposition(params)
        assert len(am.edges) == edge_orbits(params).count, (p, q)


def test_two_beta_pairs_iff_two_vertex_orbits():
    from goeritz.classify import vertex_orbits

    for p, q in connected_pairs(40):
        params = make_params(p, q)
        names = goeritz_presentation(params).generator_names()
        betas = sum(1 for n in names if n.startswith("beta"))
        assert (betas == 2) == (vertex_orbits(params) == 2), (p, q)
        assert betas in (1, 2)


def test_dispatch_is_homeomorphism_invariant():
    # L(p, q) and L(p, q') are homeomorphic and must get the same table
    for p, q in connected_pairs(60):
        params = make_params(p, q)
        twin = make_params(p, params.q_prime)
        assert twin.connected
        ours = goeritz_presentation(params)
        theirs = goeritz_presentation(twin)
        assert sorted(ours.generator_names()) == sorted(theirs.generator_names()), (p, q)
        assert relator_multiset(ours) == relator_multiset(theirs), (p, q)


def test_case_predicates_are_pairwise_disjoint():
    for p, q in connected_pairs(60):
        if q == 1:
            continue
        flags = (
            p == 5,
            (p == 2 * q + 1 and q >= 3) or (p > 5 and q == 2),
            (q * q) % p == 1,
        )
        assert sum(flags) <= 1, (p, q)


# --------------------------------------------------- abelianization


def test_abelianization_examples():
    assert abelianize_presentation(
        goeritz_presentation(make_params(2, 1))
    ) == Abelianization(torsion=(2, 2), free_rank=1)
    assert abelianize_presentation(
        goeritz_presentation(make_params(5, 2))
    ) == Abelianization(torsion=(2, 2, 2), free_rank=2)
    alpha_only = stabilizer_presentation(StabilizerKind.PAIR_RIGID, make_params(10, 3))
    assert abelianize_presentation(alpha_only) == Abelianization(torsion=(2,), free_rank=0)


def test_abelianization_text():
    assert Abelianization((2, 2), 1).text() == "Z + Z/2 + Z/2"
    assert Abelianization((), 2).text() == "Z^2"
    assert Abelianization((), 0).text() == "0"


def test_abelianization_dict():
    assert abelianization_dict(Abelianization((2, 2), 1)) == {"torsion": [2, 2], "free_rank": 1}
    assert abelianization_dict(Abelianization((), 0)) == {"torsion": [], "free_rank": 0}


def test_presentation_builder_validates():
    from goeritz.presentations import Generator, GroupPresentation

    with pytest.raises(ValueError, match="undeclared"):
        GroupPresentation(generators=(Generator("a"),), relators=((("b", 1),),))
    for relator in ([("b", 1)], [("a", 1), ("b", 1), ("b", -1)]):
        with pytest.raises(ValueError, match="undeclared"):
            presentation([("a", "")], [relator])
    leaf = presentation([("a", "")], [[("a", 2)]])
    with pytest.raises(ValueError, match="direct sum"):
        GroupPresentation(
            generators=(Generator("a"),), relators=(), summands=(leaf,)
        )


def test_presentation_builder_cancels_the_letters_of_a_relator():
    pres = presentation(
        [("a", ""), ("b", "")],
        [[("a", 2), ("a", -1), ("b", 1)], [("a", 1), ("b", 2), ("b", -2), ("a", -1)]],
    )
    assert pres.relators == ((("a", 1), ("b", 1)), ())


def test_every_stabilizer_kind_is_a_factor_or_an_edge_group_of_a_case_amalgam():
    def shape(pres):
        return pres.generator_names(), pres.named_relators()

    # the pairs up to 30 reach every connected row of the case table
    parts = set()
    for p, q in connected_pairs(30):
        amalgam = amalgam_decomposition(make_params(p, q))
        for part in amalgam.factors + amalgam.edges:
            if part.presentation is not None:
                parts.add(shape(part.presentation))
    for kind in StabilizerKind:
        assert shape(stabilizer_presentation(kind, make_params(10, 3))) in parts, kind
