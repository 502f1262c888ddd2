"""The sweep runner: what each check reports, pinned, and how a self-check
that raises is reported.

The pinned results were recorded from the per-check sweep loops that
`run_sweep` replaced: for each check at a small bound, the subject count
and the SHA-256 of its failures as the JSON list of [subject, detail]
pairs, in the order reported.  They are recorded honest, with the oracle
inverted (every oracle-backed check then fails), and for the two checks
that do not consult the oracle, with their own invariant broken.
"""

import dataclasses
import hashlib
import json

from goeritz import farey, sweeps
from goeritz.cli import main

# check: (bound, subjects, failures, digest of the failures, the first failure)
NO_FAILURES = "4f53cda18c2baa0c0354bb5f9a3ecbe5ed12ab4d8e11ba873c2f11161202b945"
HONEST = {
    "four-primitives": (12, 23, 0, NO_FAILURES, None),
    "oz-vs-whitehead": (6, 37, 0, NO_FAILURES, None),
    "filter-soundness": (5, 34, 0, NO_FAILURES, None),
    "cmz-vs-whitehead": (4, 50, 0, NO_FAILURES, None),
    "witness": (30, 39, 0, NO_FAILURES, None),
    "symmetry": (12, 23, 0, NO_FAILURES, None),
    "dispatch-totality": (30, 139, 0, NO_FAILURES, None),
}
ORACLE_INVERTED = {
    "four-primitives": (
        12, 23, 23, "6e1b9a482d99be70431e1b5e4dd64263eac351da6e030506fdcfe420789701a7",
        ("(2,1)", "oracle says [0, 2], expected [1]"),
    ),
    "oz-vs-whitehead": (
        6, 37, 37, "41930a9d75da7408f64e251ae37e11721be95ee2b9e2fd0f22d7bacbed1c7bac",
        ("z", "normal form says True, oracle says False"),
    ),
    "filter-soundness": (
        5, 34, 6, "df0451c3390e75dbd0764c99f61253d0445d2da9faae6ad07de73b2cd9873807",
        ("x^-3y^-2", "filter fired on an oracle-primitive word"),
    ),
    "cmz-vs-whitehead": (
        4, 50, 50, "4763c7d27f76bf46b98f2f047c5595ad1c73d7d90ec12c77bfdf6a56d1918312",
        ("x", "certified decision says True, oracle says False"),
    ),
    "witness": (
        30, 39, 117, "e317477c1869284eaa50992cbd3ae3e3f98bcf99b0603a7e88ed614a1b6e2e44",
        ("(12,5)", "final disk is not oracle-primitive"),
    ),
    "symmetry": (12, 23, 0, NO_FAILURES, None),
    "dispatch-totality": (30, 139, 0, NO_FAILURES, None),
}
OWN_CHECK_BROKEN = {
    "symmetry": (
        12, 23, 23, "980bf73654d2cdc52bdc85c84007a8c91259b712c5d81d41bba89d1c06a857c5",
        ("(2,1)", "reversal symmetry fails"),
    ),
    "dispatch-totality": (
        30, 139, 100, "e0ef0c597d7fb01e2e4d38c5dd22e7a6204b185667608ed232e163c870d0e3ef",
        ("(2,1)", "quotient graph mismatch"),
    ),
}


def _assert_pinned(pinned):
    for check, (bound, subjects, count, digest, first) in pinned.items():
        result = sweeps.run_sweep(check, bound)
        pairs = [[f.subject, f.detail] for f in result.failures]
        assert (result.check, result.bound, result.subjects) == (check, bound, subjects), check
        assert len(pairs) == count, check
        assert tuple(pairs[0]) == first if pairs else first is None, check
        assert hashlib.sha256(json.dumps(pairs).encode()).hexdigest() == digest, check


def test_every_check_reports_its_recorded_subjects_and_failures():
    _assert_pinned(HONEST)


def test_every_check_reports_its_recorded_failures_with_the_oracle_inverted(monkeypatch):
    honest = sweeps.is_primitive_whitehead
    monkeypatch.setattr(sweeps, "is_primitive_whitehead", lambda word: not honest(word))
    _assert_pinned(ORACLE_INVERTED)


def test_the_checks_without_the_oracle_report_their_own_broken_invariant(monkeypatch):
    monkeypatch.setattr(sweeps, "verify_symmetry", lambda seq: False)
    monkeypatch.setattr(sweeps, "quotient_graph", lambda params: None)
    _assert_pinned(OWN_CHECK_BROKEN)


def test_a_self_check_that_raises_fails_its_subject_and_the_sweep_goes_on(monkeypatch, capsys):
    """A replacement step that shifts e by one makes the witness trace
    refuse itself with RuntimeError at every disconnected pair; the sweep
    reports each as a failure and exits 3, not with a traceback."""
    honest = farey.replacement

    def shifted(left, right, params):
        label = honest(left, right, params)
        return dataclasses.replace(label, e=label.e + 1)

    monkeypatch.setattr(farey, "replacement", shifted)
    code = main(["sweep", "witness", "--max-p", "20"])
    out = capsys.readouterr().out
    assert code == 3
    assert "FAIL (12,5): L(12,5): the final word has e = 9, not q + 1 = 6" in out
    result = sweeps.run_sweep("witness", 20)
    assert result.subjects == len(result.failures) > 1
    assert all("the final word has e =" in f.detail for f in result.failures)


def test_a_replacement_step_off_its_closed_form_fails_the_witness_sweep(monkeypatch):
    """A replacement step that adds one to d keeps every fraction and
    every e, so the trace passes its own checks; the sweep's closed-form
    check reports each label that the fault moved."""
    honest = farey.replacement

    def shifted(left, right, params):
        label = honest(left, right, params)
        return dataclasses.replace(label, d=label.d + 1)

    monkeypatch.setattr(farey, "replacement", shifted)
    result = sweeps.run_sweep("witness", 20)
    assert (result.subjects, len(result.failures)) == (10, 31)
    assert result.failures[0] == sweeps.SweepFailure("(12,5)", "label 1/1 breaks the closed form")
    assert all(f.detail.endswith("breaks the closed form") for f in result.failures)


def test_the_details_yielded_before_a_self_check_raises_are_kept(monkeypatch):
    """The witness test yields that the final disk is not primitive, then
    the oracle raises on D0: the subject reports both, in that order."""
    calls = []

    def failing_then_raising(word):
        calls.append(word)
        if len(calls) % 2 == 0:
            raise RuntimeError("the oracle refused its own answer")
        return False

    monkeypatch.setattr(sweeps, "is_primitive_whitehead", failing_then_raising)
    result = sweeps.run_sweep("witness", 12)
    assert result.subjects == 1
    assert [(f.subject, f.detail) for f in result.failures] == [
        ("(12,5)", "final disk is not oracle-primitive"),
        ("(12,5)", "the oracle refused its own answer"),
    ]
