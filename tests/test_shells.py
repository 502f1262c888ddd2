import math
import sys

import pytest

from goeritz import sequences
from goeritz.classify import CASES, case_data
from goeritz.euclid import is_primitive_cmz
from goeritz.farey import nonconnectivity_witness
from goeritz.primitivity import is_primitive_whitehead
from goeritz.sequences import make_params, primitive_indices, pq_sequence, spelled_sequence
from goeritz.shells import (
    DiskClass,
    DualPairKind,
    ShellKind,
    build_shell,
    dual_shell_relation,
    intersection_number,
    shell_primitive_indices,
)
from goeritz.words import CyclicWord, Word, _spell, abelianize, parse_word, substitute

from test_code_tuples import _positive_codes
from test_sequences import sequence_word


def coprime_pairs(max_p):
    for p in range(2, max_p + 1):
        for q in range(1, p // 2 + 1):
            if math.gcd(p, q) == 1:
                yield p, q


def test_shell_words_5_2():
    shell = build_shell(make_params(5, 2))
    words = [str(e.boundary_word) for e in shell.entries]
    assert words[2] == "xy^2xy^3"
    assert words[4] == "xyxyxy^2xy"
    assert words[0] == "y^5"
    assert words[5] == "xyxyxyxyxy"


def test_first_entry_is_x_y_to_the_p():
    for p, q in ((4, 1), (7, 2), (9, 4), (11, 3)):
        shell = build_shell(make_params(p, q))
        assert str(shell.entries[1].boundary_word) == f"xy^{p}"


def test_shell_classes_8_3():
    shell = build_shell(make_params(8, 3))
    primitive = {e.index for e in shell.entries if e.disk_class is DiskClass.PRIMITIVE}
    assert primitive == {1, 3, 5, 7}
    assert shell.entries[0].disk_class is DiskClass.SEMIPRIMITIVE
    assert shell.entries[8].disk_class is DiskClass.SEMIPRIMITIVE


def test_kind_slopes_and_index_sets():
    params = make_params(10, 3)
    assert ShellKind.Q.slope(params) == 3
    assert ShellKind.P_MINUS_Q.slope(params) == 7
    assert ShellKind.Q_PRIME.slope(params) == 3
    assert ShellKind.P_MINUS_Q_PRIME.slope(params) == 7

    params = make_params(11, 3)  # q' = 4 here: 3*4 = 12 = 1 mod 11
    assert shell_primitive_indices(params, ShellKind.Q) == frozenset({1, 4, 7, 10})
    assert shell_primitive_indices(params, ShellKind.Q_PRIME) == frozenset({1, 3, 8, 10})


def test_intersection_numbers():
    shell = build_shell(make_params(5, 2))
    assert intersection_number(shell, 0, 5) == 4
    for j in range(4):
        assert intersection_number(shell, j, j + 1) == 0
    for j in range(3):
        assert intersection_number(shell, j, j + 2) == 1
    with pytest.raises(ValueError):
        intersection_number(shell, 3, 3)
    with pytest.raises(ValueError):
        intersection_number(shell, 4, 2)
    with pytest.raises(ValueError):
        intersection_number(shell, 0, 6)


def test_intersection_symmetry_under_reversal():
    # reading a shell backwards is again a shell: (i, j) matches (p-j, p-i)
    shell = build_shell(make_params(7, 2))
    p = 7
    for i in range(p):
        for j in range(i + 1, p + 1):
            assert intersection_number(shell, i, j) == intersection_number(
                shell, p - j, p - i
            )


def test_oracle_matches_classes_all_kinds():
    for p, q in coprime_pairs(40):
        params = make_params(p, q)
        for kind in ShellKind:
            shell = build_shell(params, kind)
            for entry in shell.entries:
                oracle = is_primitive_whitehead(entry.boundary_word)
                assert oracle == (entry.disk_class is DiskClass.PRIMITIVE), (
                    p,
                    q,
                    kind,
                    entry.index,
                )


def test_endpoint_words():
    for p, q in coprime_pairs(12):
        shell = build_shell(make_params(p, q))
        assert shell.entries[0].boundary_word == parse_word(f"y^{p}")
        assert shell.entries[p].boundary_word == parse_word("xy" * p)
        assert not is_primitive_whitehead(shell.entries[0].boundary_word)
        assert not is_primitive_whitehead(shell.entries[p].boundary_word)


def test_entry_abelianizations():
    for p, q in coprime_pairs(20):
        for kind in ShellKind:
            shell = build_shell(make_params(p, q), kind)
            for entry in shell.entries:
                assert abelianize(entry.boundary_word) == (entry.index, p)


def test_index_adjacency_pattern():
    # indices 1 and p-1 sit next to a semiprimitive endpoint; the companion
    # index sits next to neither endpoint whenever it is strictly inside
    for p, q in coprime_pairs(40):
        params = make_params(p, q)
        prim = shell_primitive_indices(params, ShellKind.Q)
        assert 1 in prim and p - 1 in prim
        qp = params.q_prime
        if 2 < qp < p - 2:
            assert {qp - 1, qp + 1}.isdisjoint({0, p})


def test_dual_shell_relation_no_common_dual():
    rel = dual_shell_relation(make_params(5, 2), DualPairKind.NO_COMMON_DUAL)
    assert rel.sd_kind is ShellKind.Q_PRIME and rel.sd_slope == 2
    assert rel.d_positions_in_se == (2, 3)
    assert rel.e_positions_in_sd == (2, 3)

    rel = dual_shell_relation(make_params(10, 3), DualPairKind.NO_COMMON_DUAL)
    assert rel.sd_slope == 3
    assert rel.e_positions_in_sd == (3, 7)
    assert rel.d_positions_in_se == (3, 7)


def test_dual_shell_relation_common_dual():
    rel = dual_shell_relation(make_params(7, 1), DualPairKind.COMMON_DUAL)
    assert rel.sd_kind is ShellKind.Q and rel.sd_slope == 1
    assert rel.e_positions_in_sd == (1, 6)
    assert rel.d_positions_in_se == (1, 6)


def test_dual_shell_relation_rejects_q1_without_common_dual():
    with pytest.raises(ValueError, match="common dual"):
        dual_shell_relation(make_params(7, 1), DualPairKind.NO_COMMON_DUAL)


def test_incremental_words_match_the_residue_definition():
    """Sequence and shell words, built one letter change at a time, against
    sequence_word and the substitution z -> xy, for p <= 60 and all four slopes."""
    xy = parse_word("xy")
    references = {}  # (p, slope) -> (sequence words, shell words)
    for p, q in coprime_pairs(60):
        params = make_params(p, q)
        for kind in ShellKind:
            slope = kind.slope(params)
            if (p, slope) not in references:
                words = [sequence_word(p, slope, j) for j in range(p + 1)]
                incremental = [Word(_spell(_positive_codes(word))) for word in spelled_sequence(p, slope)]
                assert incremental == words, (p, slope)
                references[p, slope] = words, [substitute(word, xy) for word in words]
            words, shell_words = references[p, slope]
            assert [e.boundary_word for e in build_shell(params, kind).entries] == shell_words
            if kind is ShellKind.Q:
                assert list(pq_sequence(params).words) == words


def test_shell_texts_match_the_rendered_words():
    """The incrementally rendered shell texts against the old path: the
    Word of w_j with z -> xy, rendered by str(), for p <= 60 and all four kinds."""
    references = {}  # (p, slope) -> shell texts
    for p, q in coprime_pairs(60):
        params = make_params(p, q)
        for kind in ShellKind:
            slope = kind.slope(params)
            if (p, slope) not in references:
                references[p, slope] = [
                    str(Word(_spell(_positive_codes(spelled.replace("z", "xy")))))
                    for spelled in spelled_sequence(p, slope)
                ]
            shell = build_shell(params, kind)
            assert [e.text for e in shell.entries] == references[p, slope], (p, q, kind)
            assert [e.boundary_word.spell().replace("xy", "z") for e in shell.entries] == list(
                spelled_sequence(p, slope)
            )


def test_report_builds_no_sequence_or_shell_words(monkeypatch):
    """build_report and report_dict leave the sequence and shell Words
    unbuilt; asking for them builds (once) the same Words as before."""
    from goeritz.report import build_report, report_dict

    built = []
    honest = Word.__init__

    def counting_init(self, letters=""):
        built.append(self)
        honest(self, letters)

    monkeypatch.setattr(Word, "__init__", counting_init)
    for p, q in ((13, 3), (41, 8), (97, 7)):  # connected: no witness words
        report = build_report(p, q)
        report_dict(report)
        assert built == [], (p, q)
        params = make_params(p, q)
        words = [sequence_word(p, params.q, j) for j in range(p + 1)]
        assert report.sequence.words == tuple(words)
        xy = parse_word("xy")
        for shell in report.shells:
            expected = [
                Word(_spell(_positive_codes(spelled.replace("z", "xy"))))
                for spelled in spelled_sequence(p, shell.slope)
            ]
            assert [e.boundary_word for e in shell.entries] == expected
            if shell.kind is ShellKind.Q:
                assert [e.boundary_word for e in shell.entries] == [
                    substitute(word, xy) for word in words
                ]
        built.clear()
        assert report.sequence.words[1] is report.sequence.words[1]
        assert report.shells[0].entries[1].boundary_word is report.shells[0].entries[1].boundary_word
        assert built == []


def _one_pair_per_case_row() -> list[tuple[int, int]]:
    """The first coprime pair of each row of CASES, and (12, 5)."""
    firsts = {}
    for p, q in coprime_pairs(20):
        firsts.setdefault(case_data(make_params(p, q)), (p, q))
    assert set(firsts) == set(CASES.values())
    return sorted(set(firsts.values()) | {(12, 5)})


def test_every_spelling_the_package_hands_out_is_read_by_every_word_reader():
    """The sequence spellings, the shells' boundary words and the witness
    disks' words are spelled as str: Word, CyclicWord and is_primitive_cmz
    each take them as they come, and the verdict matches the class."""
    for p, q in _one_pair_per_case_row():
        params = make_params(p, q)
        primitive = primitive_indices(params)
        spellings = [(w, j in primitive) for j, w in enumerate(spelled_sequence(p, params.q))]
        spellings += [(w, j in primitive) for j, w in enumerate(pq_sequence(params).spellings)]
        for kind in ShellKind:
            spellings += [
                (e.boundary_word.spell(), e.disk_class is DiskClass.PRIMITIVE)
                for e in build_shell(params, kind).entries
            ]
        if not params.connected:
            spellings += [(disk.word.spell(), None) for disk in nonconnectivity_witness(params).disks]
        for spelled, primitive_word in spellings:
            assert type(spelled) is str, (p, q, spelled)
            assert Word(spelled).spell() == spelled, (p, q, spelled)
            assert len(CyclicWord(spelled)) == len(spelled), (p, q, spelled)
            verdict = is_primitive_cmz(spelled)
            assert primitive_word is None or verdict == primitive_word, (p, q, spelled)


def test_build_shell_walks_only_the_caret_kernel(monkeypatch):
    """A shell is made without the sequence spellings: with spelled_sequence
    raising wherever the package refers to it, the shells still build, and
    their words are the sequence words with z replaced by xy."""

    def refuse(p, qbar):
        raise AssertionError("build_shell walked spelled_sequence")

    original = sequences.spelled_sequence
    modules = [module for name, module in sys.modules.items() if name.partition(".")[0] == "goeritz"]
    for module in modules:
        if getattr(module, "spelled_sequence", None) is original:
            monkeypatch.setattr(module, "spelled_sequence", refuse)
    assert sequences.spelled_sequence is refuse
    xy = parse_word("xy")
    for p, q in ((5, 2), (12, 5), (41, 8)):
        params = make_params(p, q)
        for kind in ShellKind:
            shell = build_shell(params, kind)
            words = [substitute(sequence_word(p, shell.slope, j), xy) for j in range(p + 1)]
            assert [e.boundary_word for e in shell.entries] == words, (p, q, kind)
            assert [e.text for e in shell.entries] == [str(word) for word in words], (p, q, kind)


def test_dual_shell_positions_are_the_primitive_positions_less_the_shell_ends():
    """A pair with no common dual disk sits at the primitive positions of
    the (p,q)- and (p,q')-sequences other than 1 and p-1, and the pair is
    refused exactly where its case row gives every pair a common dual."""
    from goeritz.classify import case_data
    from goeritz.sequences import primitive_indices

    def inner(params):
        return tuple(sorted(primitive_indices(params) - {1, params.p - 1}))

    for p, q in coprime_pairs(200):
        params = make_params(p, q)
        if case_data(params).common_dual_rule.all_pairs:
            with pytest.raises(ValueError, match="common dual"):
                dual_shell_relation(params, DualPairKind.NO_COMMON_DUAL)
            continue
        assert q >= 2
        rel = dual_shell_relation(params, DualPairKind.NO_COMMON_DUAL)
        assert rel.d_positions_in_se == inner(params)
        assert rel.e_positions_in_sd == inner(make_params(p, params.q_prime))
