"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with `pytest tests/test_acceptance.py -v -s` to see the lines as the
criteria complete.
"""

import time
from collections import Counter

from goeritz.cli import main
from goeritz.classify import DisconnectedComplexError
from goeritz.presentations import abelianize_presentation, goeritz_presentation
from goeritz.sequences import make_params
from goeritz.sweeps import run_sweep

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

PRESENTATION_TABLE = {
    (2, 1): (
        ["beta", "gamma", "rho"],
        [
            ("gamma", 2),
            ("rho", 4),
            ("gamma rho gamma rho", 0),
            ("rho rho beta rho^-1 rho^-1 beta^-1", 0),
            ("rho rho gamma rho^-1 rho^-1 gamma^-1", 0),
        ],
    ),
    (3, 1): (
        ["alpha", "beta", "delta", "gamma"],
        [("alpha", 2), ("delta", 3), ("gamma", 2), ("gamma delta gamma delta", 0)],
    ),
    (4, 1): (
        ["alpha", "beta", "gamma", "sigma"],
        [("alpha", 2), ("gamma", 2), ("sigma", 2)],
    ),
    (7, 1): (
        ["alpha", "beta", "gamma", "sigma"],
        [("alpha", 2), ("gamma", 2), ("sigma", 2)],
    ),
    (5, 2): (
        ["alpha", "beta1", "beta2", "gamma1", "gamma2"],
        [("alpha", 2), ("gamma1", 2), ("gamma2", 2)],
    ),
    (7, 2): (
        ["alpha", "beta1", "beta2", "gamma1", "gamma2", "sigma"],
        [("alpha", 2), ("gamma1", 2), ("gamma2", 2), ("sigma", 2)],
    ),
    (9, 2): (
        ["alpha", "beta1", "beta2", "gamma1", "gamma2", "sigma"],
        [("alpha", 2), ("gamma1", 2), ("gamma2", 2), ("sigma", 2)],
    ),
    (7, 3): (
        ["alpha", "beta1", "beta2", "gamma1", "gamma2", "sigma"],
        [("alpha", 2), ("gamma1", 2), ("gamma2", 2), ("sigma", 2)],
    ),
    (8, 3): (
        ["alpha", "beta", "gamma", "sigma1", "sigma2"],
        [("alpha", 2), ("gamma", 2), ("sigma1", 2), ("sigma2", 2)],
    ),
    (10, 3): (
        ["alpha", "beta1", "beta2", "gamma1", "gamma2", "sigma1", "sigma2"],
        [("alpha", 2), ("gamma1", 2), ("gamma2", 2), ("sigma1", 2), ("sigma2", 2)],
    ),
}


def _line(number: int, name: str, ok: bool) -> None:
    print(f"ACCEPTANCE {number} {name}: {'PASS' if ok else 'FAIL'}")


def _expected_relator(entry: tuple[str, int]) -> tuple[tuple[str, int], ...]:
    text, power = entry
    if power:
        return ((text, 1),) * power
    out = []
    for atom in text.split():
        if atom.endswith("^-1"):
            out.append((atom[:-3], -1))
        else:
            out.append((atom, 1))
    return tuple(out)


def test_acceptance_1_sequence_snapshot(capsys):
    start = time.perf_counter()
    code = main(["sequence", "8", "3"])
    elapsed = time.perf_counter() - start
    out = capsys.readouterr().out
    rows = [ln.split() for ln in out.splitlines()[1:]]
    words = [row[1] for row in rows]
    primitive = [int(row[0]) for row in rows if row[2] == "primitive"]
    ok = (
        code == 0
        and words == KNOWN_83_SEQUENCE
        and primitive == [1, 3, 5, 7]
        and elapsed < 1.0
    )
    with capsys.disabled():
        _line(1, "(8,3)-sequence snapshot", ok)
    assert words == KNOWN_83_SEQUENCE
    assert primitive == [1, 3, 5, 7]
    assert elapsed < 1.0, f"took {elapsed:.2f}s, budget 1s"


def test_acceptance_2_four_primitives_sweep():
    start = time.perf_counter()
    result = run_sweep("four-primitives", 40)
    elapsed = time.perf_counter() - start
    _line(2, "four-primitives sweep p<=40", result.passed and elapsed < 60.0)
    assert result.failures == ()
    assert elapsed < 60.0, f"took {elapsed:.1f}s, budget 60s"


def test_acceptance_3_oz_vs_oracle():
    start = time.perf_counter()
    result = run_sweep("oz-vs-whitehead", 14)
    elapsed = time.perf_counter() - start
    _line(3, "positive normal form vs oracle, length<=14", result.passed and elapsed < 60.0)
    assert result.failures == ()
    assert elapsed < 60.0, f"took {elapsed:.1f}s, budget 60s"


def test_acceptance_4_filter_soundness():
    result = run_sweep("filter-soundness", 12)
    _line(4, "filter soundness, length<=12", result.passed)
    assert result.failures == ()


def test_acceptance_5_witness_suite():
    start = time.perf_counter()
    result = run_sweep("witness", 60)
    elapsed = time.perf_counter() - start
    _line(5, "replacement witness sweep p<=60", result.passed and elapsed < 120.0)
    assert result.failures == ()
    assert elapsed < 120.0, f"took {elapsed:.1f}s, budget 120s"


def test_acceptance_6_presentation_table():
    problems = []
    for (p, q), (gens, relator_entries) in PRESENTATION_TABLE.items():
        pres = goeritz_presentation(make_params(p, q))
        got_gens = sorted(pres.generator_names())
        if got_gens != gens:
            problems.append(f"({p},{q}) generators {got_gens}")
        expected = Counter(_expected_relator(entry) for entry in relator_entries)
        got = Counter(pres.named_relators())
        if got != expected:
            problems.append(f"({p},{q}) relators {got}")
    try:
        goeritz_presentation(make_params(12, 5))
        problems.append("(12,5) did not raise the not-covered error")
    except DisconnectedComplexError:
        pass
    _line(6, "presentation case table", not problems)
    assert not problems, problems


def test_acceptance_7_structural_consistency():
    result = run_sweep("dispatch-totality", 60)
    _line(7, "structural cross-consistency p<=60", result.passed)
    assert result.failures == ()


def test_acceptance_8_abelianizations():
    expected = {
        (2, 1): ((2, 2), 1),
        (5, 2): ((2, 2, 2), 2),
        (8, 3): ((2, 2, 2, 2), 1),
    }
    problems = []
    for (p, q), (torsion, free_rank) in expected.items():
        ab = abelianize_presentation(goeritz_presentation(make_params(p, q)))
        if (ab.torsion, ab.free_rank) != (torsion, free_rank):
            problems.append(f"({p},{q}) -> {ab}")
    _line(8, "abelianization spot checks", not problems)
    assert not problems, problems
