import math

import pytest

from goeritz.farey import nonconnectivity_witness
from goeritz.primitivity import is_primitive_whitehead
from goeritz.sequences import (
    InvalidParameters,
    make_params,
    pq_sequence,
    primitive_indices,
    spelled_sequence,
    verify_symmetry,
)
from goeritz.words import (
    Word,
    _spell,
    abelianize,
    cyclically_equal,
    parse_word,
    reverse,
    swap_generators,
)

from test_code_tuples import _positive_codes


def sequence_word(p: int, qbar: int, j: int) -> Word:
    """The j-th word of the (p, qbar)-sequence, for any slope 0 < qbar < p,
    from the residue definition (once goeritz.sequences.sequence_word)."""
    if not 0 <= j <= p:
        raise ValueError(f"index {j} out of range 0..{p}")
    z_residues = {(1 + k * qbar) % p for k in range(j)}
    return Word("".join("z" if (i % p) in z_residues else "y" for i in range(1, p + 1)))


KNOWN_83_SEQUENCE = [
    "yyyyyyyy",
    "zyyyyyyy",
    "zyyzyyyy",
    "zyyzyyzy",
    "zzyzyyzy",
    "zzyzzyzy",
    "zzyzzyzz",
    "zzzzzyzz",
    "zzzzzzzz",
]


def coprime_pairs(max_p):
    for p in range(2, max_p + 1):
        for q in range(1, p // 2 + 1):
            if math.gcd(p, q) == 1:
                yield p, q


def test_make_params_examples():
    assert make_params(5, 2).q_prime == 2
    assert make_params(8, 3).q_prime == 3
    for p in (2, 3, 5, 9, 17):
        assert make_params(p, 1).q_prime == 1
    params = make_params(12, 5)
    assert (params.q_prime, params.r, params.m, params.connected) == (5, 2, 2, False)


def test_make_params_normalizes_q():
    assert make_params(5, 3) == make_params(5, 2)
    assert make_params(12, 7).q == 5


def test_make_params_validation_messages():
    with pytest.raises(InvalidParameters, match="coprime"):
        make_params(6, 4)
    with pytest.raises(InvalidParameters, match="0 < q < p"):
        make_params(5, 0)
    with pytest.raises(InvalidParameters, match="0 < q < p"):
        make_params(5, 5)
    with pytest.raises(InvalidParameters, match="at least 2"):
        make_params(1, 1)


def test_make_params_refuses_booleans():
    for p, q in ((5, True), (True, 1), (3, False)):
        with pytest.raises(InvalidParameters, match="must be integers"):
            make_params(p, q)


def test_q_prime_definition_and_involution():
    for p, q in coprime_pairs(40):
        params = make_params(p, q)
        qp = params.q_prime
        assert 1 <= qp <= p / 2
        assert (q * qp) % p in (1, p - 1)
        assert make_params(p, qp).q_prime == q


def test_q_prime_is_the_least_solution():
    for p, q in coprime_pairs(150):
        least = next(k for k in range(1, p // 2 + 1) if (q * k) % p in (1, p - 1))
        assert make_params(p, q).q_prime == least


def test_connectivity_criterion():
    for p, q in coprime_pairs(40):
        params = make_params(p, q)
        assert params.connected == (q == 1 or p % q in (1, q - 1))
    assert make_params(2, 1).connected
    assert not make_params(12, 5).connected
    assert not make_params(17, 7).connected


def test_homeomorphism_slopes():
    assert make_params(10, 3).homeomorphism_slopes == (3, 7)
    assert make_params(7, 2).homeomorphism_slopes == (2, 3, 4, 5)


def test_sequence_snapshot_8_3():
    seq = pq_sequence(make_params(8, 3))
    assert [w.spell() for w in seq.words] == KNOWN_83_SEQUENCE
    assert seq.primitive_indices == frozenset({1, 3, 5, 7})


def test_sequence_examples():
    assert sequence_word(5, 2, 2).spell() == "zyzyy"
    for p, q in ((5, 2), (7, 3), (9, 4)):
        assert sequence_word(p, q, 1).spell() == "z" + "y" * (p - 1)
        assert sequence_word(p, q, p - 1).spell() == "z" * (p - q) + "y" + "z" * (q - 1)


def test_letter_counts_and_abelianization():
    xy = parse_word("x y")
    from goeritz.words import substitute

    for p, q in coprime_pairs(15):
        seq = pq_sequence(make_params(p, q))
        for j, word in enumerate(seq.words):
            assert sum(1 for c in word.codes if c == 3) == j
            assert len(word) == p
            assert abelianize(substitute(word, xy)) == (j, p)


def test_primitive_indices_examples():
    assert primitive_indices(make_params(8, 3)) == frozenset({1, 3, 5, 7})
    assert primitive_indices(make_params(5, 2)) == frozenset({1, 2, 3, 4})
    assert primitive_indices(make_params(2, 1)) == frozenset({1})


def test_primitive_indices_against_oracle_small():
    for p, q in coprime_pairs(14):
        seq = pq_sequence(make_params(p, q))
        oracle = {j for j, word in enumerate(seq.words) if is_primitive_whitehead(word)}
        assert oracle == set(seq.primitive_indices), (p, q)


def test_verify_symmetry_examples():
    for pq in ((8, 3), (5, 2), (7, 1)):
        assert verify_symmetry(pq_sequence(make_params(*pq)))


def test_symmetry_example_by_rotation():
    seq = pq_sequence(make_params(8, 3))
    image = reverse(swap_generators(seq.words[2]))
    codes = image.codes
    assert any(codes[i:] + codes[:i] == seq.words[6].codes for i in range(8))
    assert cyclically_equal(image, seq.words[6])


def test_symmetry_sweep():
    for p, q in coprime_pairs(40):
        assert verify_symmetry(pq_sequence(make_params(p, q)))


def test_spellings_match_the_spelled_words():
    """The spellings kept by PqSequence are the old Word.spell() of each word."""
    for p, q in coprime_pairs(60):
        params = make_params(p, q)
        seq = pq_sequence(params)
        old_words = [Word(_spell(_positive_codes(spelled))) for spelled in spelled_sequence(p, params.q)]
        assert seq.spellings == tuple(word.spell() for word in old_words), (p, q)
        assert list(seq.words) == old_words


def test_four_primitives_sweep_builds_no_words(monkeypatch):
    from goeritz.sweeps import run_sweep

    built = []
    honest = Word.__init__

    def counting_init(self, letters=""):
        built.append(self)
        honest(self, letters)

    monkeypatch.setattr(Word, "__init__", counting_init)
    result = run_sweep("four-primitives", 30)
    assert result.subjects > 100 and not result.failures
    assert built == []


def test_a_p_too_long_to_print_is_refused_by_the_library_with_its_bit_length():
    """str() refuses an int of more than 4,300 digits; a refusal names
    such a p by its bit length instead of failing to print it."""
    params = make_params(10**5000 + 1, 7)
    assert str(params) == "L(<16610-bit integer>,7)"
    with pytest.raises(InvalidParameters, match=r"^the sequence of p = <16610-bit integer> has"):
        pq_sequence(params)
    with pytest.raises(InvalidParameters, match=r"^L\(<16610-bit integer>,7\): the witness words"):
        nonconnectivity_witness(params)
    with pytest.raises(InvalidParameters, match=r"^p must be at least 2, got p = -<16610-bit"):
        make_params(-(10**5000), 7)
