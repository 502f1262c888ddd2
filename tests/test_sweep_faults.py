"""Each failure a sweep check can report, reached by one injected fault.

The honest package passes every check, so these branches run only when
a fault is put in: a check's input is replaced by a `dataclasses.replace`
copy with one field changed (the shared presentation and amalgam objects
are never mutated), and the test pins the exact failures reported.
"""

import dataclasses

import pytest

from goeritz import sweeps
from goeritz.classify import DisconnectedComplexError
from goeritz.farey import nonconnectivity_witness
from goeritz.presentations import AmalgamEdge, AmalgamFactor, direct_sum, presentation


def _failures(check, bound):
    return [(f.subject, f.detail) for f in sweeps.run_sweep(check, bound).failures]


def _witness_with_step(monkeypatch, index, change):
    """The witness sweep sees each trace with step `index` replaced by change(step)."""

    def faulted(params):
        trace = nonconnectivity_witness(params)
        disks = list(trace.disks)
        disks[index] = change(disks[index])
        return dataclasses.replace(trace, disks=tuple(disks))

    monkeypatch.setattr(sweeps, "nonconnectivity_witness", faulted)


def test_a_replacement_step_with_no_positive_exponent_is_reported(monkeypatch):
    def change(step):
        return dataclasses.replace(step, label=dataclasses.replace(step.label, e=0))

    _witness_with_step(monkeypatch, 2, change)
    assert _failures("witness", 12) == [
        ("(12,5)", "label 1/1 breaks the closed form"),
        ("(12,5)", "step word not positive: e = 0"),
    ]


def test_a_pair_that_is_no_farey_edge_is_reported(monkeypatch):
    """The pair (mediant, 0/0) sums to the mediant, but its determinant is 0."""

    def change(step):
        left, right = step.pair_before
        mediant = dataclasses.replace(left, a=left.a + right.a, b=left.b + right.b)
        zero = dataclasses.replace(right, a=0, b=0)
        return dataclasses.replace(step, pair_before=(mediant, zero))

    _witness_with_step(monkeypatch, 2, change)
    assert _failures("witness", 12) == [("(12,5)", "pair is not a Farey edge")]


def test_a_fraction_that_is_not_the_mediant_of_its_pair_is_reported(monkeypatch):
    """The pair (left, left + right) is still a Farey edge, with another mediant."""

    def change(step):
        left, right = step.pair_before
        moved = dataclasses.replace(right, a=left.a + right.a, b=left.b + right.b)
        return dataclasses.replace(step, pair_before=(left, moved))

    _witness_with_step(monkeypatch, 2, change)
    assert _failures("witness", 12) == [("(12,5)", "fraction is not the mediant")]


def test_a_presentation_refused_for_a_connected_pair_is_reported(monkeypatch):
    def refused(params):
        raise DisconnectedComplexError("refused")

    monkeypatch.setattr(sweeps, "goeritz_presentation", refused)
    assert _failures("dispatch-totality", 2) == [
        ("(2,1)", "connected=True but presentation defined=False, witness defined=False")
    ]


def _structure_with(monkeypatch, **changes):
    honest = sweeps.classify
    monkeypatch.setattr(
        sweeps, "classify", lambda params: dataclasses.replace(honest(params), **changes)
    )


def test_a_dimension_off_the_triple_criterion_is_reported(monkeypatch):
    """L(2,1) has q != 2 and p != 2q + 1, so it has no triple: dimension 1."""
    _structure_with(monkeypatch, dimension=2, triple_exists=True)
    assert _failures("dispatch-totality", 2) == [
        ("(2,1)", "dimension disagrees with the triple criterion")
    ]


def _amalgam_with(monkeypatch, factors=(), edges=()):
    """The dispatch sweep sees each amalgam with `factors` and `edges`
    appended; its edge count is checked against its factor count."""
    honest = sweeps.amalgam_decomposition

    def extended(params):
        am = honest(params)
        return dataclasses.replace(am, factors=am.factors + factors, edges=am.edges + edges)

    monkeypatch.setattr(sweeps, "amalgam_decomposition", extended)


ALPHA = presentation([("alpha", "")], [[("alpha", 2)]])
EXTRA_FACTOR = AmalgamFactor("G_extra", ALPHA)
EXTRA_EDGE = AmalgamEdge("E_extra", ALPHA, "G_extra", "G_extra", (("alpha", "alpha", "alpha"),))


def test_a_factor_count_off_the_edge_count_is_reported(monkeypatch):
    _amalgam_with(monkeypatch, factors=(EXTRA_FACTOR,))
    assert _failures("dispatch-totality", 2) == [("(2,1)", "edge count is not factor count - 1")]


def test_an_edge_count_off_the_factor_count_is_reported(monkeypatch):
    _amalgam_with(monkeypatch, edges=(EXTRA_EDGE,))
    assert _failures("dispatch-totality", 2) == [("(2,1)", "edge count is not factor count - 1")]


def test_a_sigma_generator_without_an_exchangeable_pair_factor_is_reported(monkeypatch):
    honest = sweeps.goeritz_presentation
    sigma = presentation([("sigma", "a generator no factor carries")], [[("sigma", 2)]])
    monkeypatch.setattr(
        sweeps, "goeritz_presentation", lambda params: direct_sum(honest(params), sigma)
    )
    assert _failures("dispatch-totality", 2) == [
        ("(2,1)", "1 sigma generators but 0 exchangeable pair factors")
    ]


def test_an_unknown_check_is_refused_with_the_checks_named():
    with pytest.raises(ValueError) as refused:
        sweeps.run_sweep("no-such-check")
    assert str(refused.value) == (
        "unknown check 'no-such-check'; choose from cmz-vs-whitehead, dispatch-totality, "
        "filter-soundness, four-primitives, oz-vs-whitehead, symmetry, witness"
    )


def test_a_sweep_without_a_bound_runs_at_its_default():
    result = sweeps.run_sweep("symmetry")
    assert (result.check, result.bound, result.subjects) == ("symmetry", 40, 245)
    assert result.failures == ()
