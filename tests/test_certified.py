"""The certified Euclid decision against the Whitehead oracle, and its checker.

The decision must agree with the oracle on every word it is shown, and
`check_certificate` must accept every certificate the decision makes and
refuse a tampered one.  The long words are seeded automorphic images
made by the benchmark's own generator, loaded from `bench/workloads.py`.
"""

import ast
import importlib.util
import random
import sys
import time
import tracemalloc
from fractions import Fraction
from itertools import product
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

import goeritz
from goeritz import report, sweeps
from goeritz.euclid import (
    MIXED_SIGNS,
    NOT_UNIMODULAR,
    REPEATED_LETTER,
    SHORT_RUN,
    PrimitivityCertificate,
    check_certificate,
    cmz_trace,
    is_primitive_cmz,
    primitivity_certificate,
)
from goeritz.primitivity import is_primitive_whitehead
from goeritz.sequences import make_params
from goeritz.words import _spell, cyclic_reduce, invert, parse_word

_WORKLOADS = Path(__file__).resolve().parents[1] / "bench" / "workloads.py"
_spec = importlib.util.spec_from_file_location("bench_workloads", _WORKLOADS)
workloads = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(workloads)

FIXED = settings(
    derandomize=True,
    database=None,
    deadline=None,
    max_examples=40,
    suppress_health_check=[HealthCheck.too_slow],
)


def test_agrees_with_the_oracle_on_every_word_up_to_seven_letters():
    """Every word over x, X, y, Y and z, Z, y, Y, reduced or not."""
    checked = 0
    for n in range(8):
        for letters in product("xXyY", repeat=n):
            spelled = "".join(letters)
            for word in (spelled, spelled.replace("x", "z").replace("X", "Z")):
                certificate = primitivity_certificate(word)
                check_certificate(word, certificate)
                assert certificate.primitive is is_primitive_whitehead(word), word
                assert is_primitive_cmz(word) is certificate.primitive, word
            checked += 1
    assert checked == 21845


@FIXED
@given(
    seed=st.integers(0, 2**32 - 1),
    base=st.sampled_from(((1,), *workloads._NONPRIMITIVE_BASES)),
    lo=st.integers(200, 700),
)
def test_agrees_with_the_oracle_on_long_automorphic_images(seed, base, lo):
    word = _spell(workloads.automorphic_image(base, lo, lo + 100, random.Random(seed)))
    assert 200 <= len(word) <= 800
    certificate = primitivity_certificate(word)
    check_certificate(word, certificate)
    assert certificate.primitive is is_primitive_whitehead(word) is (base == (1,))


def test_the_failed_conditions():
    cases = {
        "xyXY": MIXED_SIGNS,
        "x^2y^2": REPEATED_LETTER,
        "xyxy^3": SHORT_RUN,
        "XyXy^2Xy^3": SHORT_RUN,
        "x^2": NOT_UNIMODULAR,
        "xyxy": NOT_UNIMODULAR,
        "": NOT_UNIMODULAR,
    }
    for text, failure in cases.items():
        certificate = primitivity_certificate(parse_word(text))
        assert not certificate.primitive and certificate.failure == failure, text
        assert certificate.letter is None
        check_certificate(parse_word(text), certificate)
    assert primitivity_certificate("XyXyyXyyy").flips == "x"
    assert primitivity_certificate("xYYY") == PrimitivityCertificate(True, "y", ((False, 3),), "x")
    assert primitivity_certificate("Y") == PrimitivityCertificate(True, "y", (), "y")


def _tampered(certificate: PrimitivityCertificate):
    """Every certificate one edit away: a k off by one, a step dropped,
    the verdict flipped."""
    steps = certificate.steps
    for i, (swapped, k) in enumerate(steps):
        for wrong_k in (k - 1, k + 1):
            yield certificate._replace(steps=steps[:i] + ((swapped, wrong_k),) + steps[i + 1 :])
        yield certificate._replace(steps=steps[:i] + steps[i + 1 :])
    yield certificate._replace(primitive=not certificate.primitive)


def test_the_checker_refuses_every_tampered_certificate():
    tampered = 0
    for word in sweeps._necklaces("xXyY", 10):
        certificate = primitivity_certificate(word)
        for forged in _tampered(certificate):
            with pytest.raises(RuntimeError, match="certificate .* is wrong"):
                check_certificate(word, forged)
            tampered += 1
    assert tampered > 10_000


def test_both_reduction_paths_of_the_checker_refuse_forgeries():
    """The checker reduces w itself: a spelling with a cancelling pair goes
    through its stack, a reduced one skips it.  On each path the decision's
    certificate passes and every tampered one raises."""
    pairs = {  # a reduced spelling, and one that cancels down to it
        "xyy": "xXxyy", "xy": "xXxy", "xxyy": "xxyYyy", "XyXyyXyyy": "XyXyyXyyYyy",
        "xyXY": "xyXYyY", "xyxy": "yYxyxXxy", "Yxyyy": "YxyyXxy", "x": "yYxyYyY",
    }
    cancelling = ("xX", "Xx", "yY", "Yy")
    for reduced, padded in pairs.items():
        assert not any(pair in reduced for pair in cancelling)
        assert any(pair in padded for pair in cancelling)
        certificate = primitivity_certificate(reduced)
        assert primitivity_certificate(padded) == certificate
        for spelled in (reduced, padded):
            check_certificate(spelled, certificate)
            for forged in _tampered(certificate):
                with pytest.raises(RuntimeError, match="certificate .* is wrong"):
                    check_certificate(spelled, forged)


def test_the_checker_refuses_a_verdict_on_another_word():
    primitive = primitivity_certificate("xyxyy")
    with pytest.raises(RuntimeError, match="rebuild"):
        check_certificate("xyxyyxyy", primitive)
    not_primitive = primitivity_certificate("xxyy")
    for other in ("xyxy", "xyXY"):
        with pytest.raises(RuntimeError):
            check_certificate(other, not_primitive)


def test_the_checker_refuses_forged_failures_on_a_primitive_word():
    """xyy is primitive: its one Euclid step x -> x y^-2 ends on x, so
    neither mixed signs nor a non-unimodular end can hold."""
    with pytest.raises(RuntimeError, match="no generator occurs with both signs"):
        check_certificate("xyy", PrimitivityCertificate(False, "", (), failure=MIXED_SIGNS))
    forged = PrimitivityCertificate(False, "", ((False, 2),), failure=NOT_UNIMODULAR)
    with pytest.raises(RuntimeError, match="the steps end on 'x'"):
        check_certificate("xyy", forged)


@pytest.mark.parametrize(
    "steps",
    [((False, 10**12),), ((False, 1), (True, 10**12)), ((False, 1),) * 10**5],
    ids=["k = 10^12 first", "k = 10^12 second", "10^5 steps"],
)
def test_the_checker_refuses_forged_primitive_certificates_of_extreme_size(steps):
    """The replay takes k from the word, never from the certificate: a
    forged exponent of 10^12 or 10^5 forged steps are refused at once,
    and the check allocates nothing near the exponent's size."""
    word = "xy" + "xyy" * 400  # primitive, with the steps (False, 1), (True, 1), (True, 400)
    certificate = PrimitivityCertificate(True, "", steps, "x")
    tracemalloc.start()
    try:
        started = time.perf_counter()
        with pytest.raises(RuntimeError, match="certificate .* is wrong"):
            check_certificate(word, certificate)
        elapsed = time.perf_counter() - started
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert elapsed < 1.0
    assert peak < 1 << 20


def test_is_primitive_cmz_raises_on_a_forged_primitive_verdict(monkeypatch):
    """A decision that goes wrong is caught by the checker under python -O too:
    `is_primitive_cmz` raises RuntimeError on a forged primitive verdict."""
    from goeritz import euclid

    monkeypatch.setattr(
        euclid, "primitivity_certificate",
        lambda w: PrimitivityCertificate(True, "", ((False, 1),), "x"),
    )
    assert euclid.is_primitive_cmz("yx")  # rebuilt from x by x -> xy
    with pytest.raises(RuntimeError, match="rebuild"):
        euclid.is_primitive_cmz("xxyy")


def _apply(label: str, word):
    """The automorphism named by a trace label, applied to a cyclic word."""
    images = dict(part.split(" -> ") for part in label.split(", "))
    table = {}
    for g in "xy":
        image = parse_word(images.get(g, g))
        table[g], table[g.upper()] = image.spell(), invert(image).spell()
    return cyclic_reduce(parse_word(word.spell().translate(str.maketrans(table))))


def test_each_trace_move_takes_its_word_to_the_next():
    for word in ("xyxy^2xy^2", "XyXy^2Xy^3", "xY^7xY^8", "x^2y^2", "yx^3yx^4yx^3", "z^-1yz^-1y^2"):
        certificate, chain = cmz_trace(parse_word(word))
        assert certificate == primitivity_certificate(parse_word(word))
        image = cyclic_reduce(parse_word(word.replace("z", "x")))
        for label, after in chain:
            image = _apply(label, image)
            assert image == after, (word, label)
        assert len(chain) == (certificate.flips != "") + sum(
            1 + swapped for swapped, _ in certificate.steps
        )
        if certificate.primitive:
            assert image.spell() == certificate.letter


def step_shares(core: str) -> list[Fraction]:
    """The share of its word that each step of the certificate of a
    cyclically reduced spelled word deletes, the steps replayed as
    `check_certificate` replays them."""
    certificate = primitivity_certificate(core)
    flips = certificate.flips + certificate.flips.upper()
    word = core.translate(str.maketrans({c: c.swapcase() for c in flips}))
    shares = []
    for swapped, k in certificate.steps:
        word = word.translate(str.maketrans("xy", "yx")) if swapped else word
        start = word.index("x")
        image = (word[start:] + word[:start]).replace("x" + "y" * k, "x")
        shares.append(Fraction(len(word) - len(image), len(word)))
        word = image
    return shares


def test_each_euclid_step_deletes_at_least_a_quarter_of_the_word():
    """The O(n) claim of `primitivity_certificate`: the steps' lengths
    shrink geometrically."""
    words = list(sweeps._necklaces("xXyY", 10))
    assert len(words) == 9518
    for m in range(400):
        words += ["x" + "y" * m + "x" + "y" * (m + 1), "x" * m + "y", "xy" * m + "y"]
    shares = [share for word in words for share in step_shares(word)]
    assert min(shares) >= Fraction(1, 4)


def test_the_cmz_sweep_counts_every_necklace_and_reports_a_wrong_decision(monkeypatch):
    result = sweeps.run_sweep("cmz-vs-whitehead", 8)
    assert result.passed and result.subjects == sum(1 for _ in sweeps._necklaces("xXyY", 8))
    assert sweeps._CHECKS["cmz-vs-whitehead"][3] == sweeps.REDUCED_WORD_CAP
    honest = sweeps.primitivity_certificate
    monkeypatch.setattr(
        sweeps, "primitivity_certificate",
        lambda w: honest(w)._replace(primitive=not honest(w).primitive),
    )
    result = sweeps.run_sweep("cmz-vs-whitehead", 4)
    assert len(result.failures) == result.subjects
    assert all("is wrong" in f.detail for f in result.failures)


# --- the gap step of `sequence --verify`

PAIRS_TO_60 = list(sweeps.coprime_pairs(60))


def test_the_gap_step_gives_the_verdicts_of_the_decision():
    """Every verdict of `sequence_rows` is the decision's on the same word,
    and every word the gap step decides fails the decision's first step:
    a repeated rarer letter or a run shorter than k, after no step."""
    decided = words = 0
    for p, q in [*sweeps.coprime_pairs(100), (3000, 7)]:
        rows = report.sequence_rows(make_params(p, q), True)
        for (j, word, _, verdict), fails in zip(rows, report._first_step_failures(p, q)):
            certificate = primitivity_certificate(word)
            assert verdict is certificate.primitive, (p, q, j)
            words += 1
            if fails:
                decided += 1
                assert certificate.steps == (), (p, q, j)
                assert certificate.failure in (REPEATED_LETTER, SHORT_RUN), (p, q, j)
    # most words are decided by their gaps alone
    assert (decided, words) == (88309, 106066)


def _mismatched_pairs() -> int:
    """The pairs with p <= 60 whose `sequence --verify --json` reports mismatches."""
    return sum(
        report.write_sequence_json(make_params(p, q), True, lambda text: None) > 0
        for p, q in PAIRS_TO_60
    )


def test_the_gap_step_is_checked_by_the_verdicts(monkeypatch):
    """A wrong gap rule calls primitive words not primitive, and the
    primitive positions report it: at k + 1 in place of k, with a gap of
    one y counted as a repeated y, and at k + 1 in place of k for the
    runs of z's."""
    assert _mismatched_pairs() == 0

    def k_plus_one(p, j, gaps, shortest):
        if 2 * j <= p:
            return min(gaps) < (p - j) // j + 1
        return max(gaps) >= 2 or shortest[p - j] < j // (p - j)

    def one_y_repeated(p, j, gaps, shortest):
        if 2 * j <= p:
            return min(gaps) < (p - j) // j
        return max(gaps) >= 1 or shortest[p - j] < j // (p - j)

    def z_run_k_plus_one(p, j, gaps, shortest):
        if 2 * j <= p:
            return min(gaps) < (p - j) // j
        return max(gaps) >= 2 or shortest[p - j] < j // (p - j) + 1

    for faulty in (k_plus_one, one_y_repeated, z_run_k_plus_one):
        monkeypatch.setattr(report, "_fails_first_step", faulty)
        assert _mismatched_pairs() >= len(PAIRS_TO_60) - 1, faulty.__name__


# --- independence of the decision, its checker and the oracles, read off the source

_PACKAGE = Path(goeritz.__file__).resolve().parent


def _tree(module: str) -> ast.Module:
    return ast.parse((_PACKAGE / f"{module}.py").read_text())


def _imported(module: str) -> set[str]:
    """The modules the import statements of a module of the package read
    from, each by its full name: goeritz.words, not .words."""
    names = set()
    for node in ast.walk(_tree(module)):
        if isinstance(node, ast.Import):
            names.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            source = ".".join(filter(None, ["goeritz" if node.level else "", node.module]))
            names.add(source)
            if source == "goeritz":  # `from . import words` binds a submodule
                names.update(f"goeritz.{alias.name}" for alias in node.names)
    return names


def test_the_certified_decision_imports_only_words_and_the_standard_library():
    imported = _imported("euclid")
    assert "goeritz.words" in imported
    others = imported - {"goeritz.words"}
    assert {name.split(".")[0] for name in others} <= set(sys.stdlib_module_names), others


def test_the_oracles_import_nothing_from_the_certified_decision():
    imported = _imported("primitivity")
    assert "goeritz.words" in imported
    assert "goeritz.euclid" not in imported


def test_the_checker_shares_with_the_decision_only_the_reader_and_the_verdict_record():
    """`check_certificate` "shares no code with the decision past reading
    w": of the module-level names of `euclid`, the ones it reads overlap
    those `primitivity_certificate` reads only in the reader of w, the
    four failure conditions and the certificate record."""
    tree = _tree("euclid")
    module_names = set()
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            module_names.add(node.name)
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            module_names.update((alias.asname or alias.name).split(".")[0] for alias in node.names)
        elif isinstance(node, ast.Assign):
            module_names.update(target.id for target in node.targets if isinstance(target, ast.Name))
    functions = {node.name: node for node in tree.body if isinstance(node, ast.FunctionDef)}

    def reads(name: str) -> set[str]:
        loads = ast.walk(functions[name])
        return {n.id for n in loads if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}

    decision = reads("primitivity_certificate") & module_names
    checker = reads("check_certificate") & module_names
    shared = {"_rank2_spelling", "MIXED_SIGNS", "REPEATED_LETTER", "SHORT_RUN", "NOT_UNIMODULAR",
              "PrimitivityCertificate"}
    assert decision & checker <= shared, decision & checker - shared
    assert {"_rank2_spelling", "PrimitivityCertificate", "SHORT_RUN"} <= decision & checker
    assert {"_cyclic_core", "_SWAP_XY"} <= decision - checker
