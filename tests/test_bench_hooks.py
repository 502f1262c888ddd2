"""The benchmark's tracer still finds every name it patches.

`bench/spans.py` wraps package functions and methods by name; a rename
or a deletion in the package would make `bench/run.py --trace 1` crash.
This installs the tracer, runs a `primitive` call and a small sweep
through it, and checks that removing it restores the package.
"""

import importlib
import importlib.util
from pathlib import Path

import goeritz
from goeritz import cli, primitivity, words

_SPANS = Path(__file__).resolve().parents[1] / "bench" / "spans.py"
_spec = importlib.util.spec_from_file_location("bench_spans", _SPANS)
spans = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(spans)

_MODULES = ("cli", "classify", "farey", "presentations", "primitivity", "report",
            "sequences", "shells", "snf", "sweeps", "words")
_CLASSES = (words.Word, words.CyclicWord, primitivity.WhiteheadAutomorphism)


def _namespaces():
    """Every namespace the tracer may patch, as a copy of its attributes."""
    # by module path: the package exports functions named like some modules
    modules = [importlib.import_module(f"goeritz.{name}") for name in _MODULES]
    owners = [goeritz, *modules, *_CLASSES]
    return [(owner, dict(vars(owner))) for owner in owners]


def _changed(before):
    return [
        (getattr(owner, "__name__", owner), attr)
        for owner, attrs in before
        for attr, value in attrs.items()
        if vars(owner).get(attr) is not value
    ]


def test_tracer_installs_runs_and_restores(capsys):
    before = _namespaces()
    tracer = spans.Tracer(lambda check, max_len: 0)
    tracer.install()
    try:
        patched = _changed(before)
        assert cli.main(["primitive", "xy^20xy^21"]) == 0
        assert cli.main(["sweep", "filter-soundness", "--max-p", "4"]) == 0
    finally:
        tracer.remove()
    capsys.readouterr()
    assert _changed(before) == []
    names = {attr for _, attr in patched}
    assert {"is_primitive_whitehead", "whitehead_trace", "nonprimitivity_filter",
            "is_primitive_positive", "_find_shortening", "apply_codes", "reduced_cores",
            "positive_cyclic_words", "free_reduce_codes", "least_rotation", "substitute",
            "__init__", "main"} <= names
    metrics = tracer.metrics()
    assert metrics["primitivity.whitehead.calls"] > 0
    assert metrics["primitivity.filter.calls"] > 0
    assert metrics["sweeps.enumerate.yielded"] > 0
