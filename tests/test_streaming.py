"""`report`, `sequence` and `shell` write their output as it is made.

Their `--json` output must stay byte for byte what
`json.dumps(<dict>, ensure_ascii=False, indent=2)` printed of the dicts
they stand for, and their text output what it was when it was read off
those dicts; the dict builders and the text renderings they replaced
are kept here as the reference, apart from the package's own
`report_dict`, which is the parse of the stream.  The inputs are every
coprime pair with p <= 60 and every `report` pair of the benchmark's
verify-long passes, seeds 1-3.  Streamed, `report 3000 7` holds O(p),
not the Theta(p^2) of the dicts, and the verbs build neither the
report nor a shell or sequence object.
"""

import importlib.util
import json
import math
import os
import pkgutil
import subprocess
import sys
from pathlib import Path

import pytest

import goeritz
from goeritz import cli
from goeritz.presentations import (
    abelianization_dict,
    abelianize_presentation,
    amalgam_dict,
    presentation_dict,
    render,
)
from goeritz.primitivity import is_primitive_whitehead
from goeritz.report import (
    FullReport,
    build_report,
    params_dict,
    report_dict,
    sequence_rows,
    structure_dict,
    witness_dict,
    write_report_json,
)
from goeritz.sequences import InvalidParameters, make_params, pq_sequence
from goeritz.shells import Shell, ShellKind, build_shell, shell_rows

_WORKLOADS = Path(__file__).resolve().parents[1] / "bench" / "workloads.py"
_spec = importlib.util.spec_from_file_location("bench_workloads", _WORKLOADS)
workloads = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(workloads)

SMALL = [(p, q) for p in range(2, 61) for q in range(1, p) if math.gcd(p, q) == 1]
VERIFY_LONG = sorted(
    {
        (s["p"], s["q"])
        for seed in (1, 2, 3)
        for s in workloads.generate("verify-long", seed)
        if s["kind"] == "report"
    }
)
PAIRS = SMALL + VERIFY_LONG


def dumped(data) -> str:
    return json.dumps(data, ensure_ascii=False, indent=2) + "\n"


@pytest.fixture
def run(capsys):
    """`main` on argv: (exit code, stdout, stderr)."""

    def run(*argv):
        code = cli.main([str(a) for a in argv])
        captured = capsys.readouterr()
        return code, captured.out, captured.err

    return run


# --- the references: what the verbs printed before they streamed


def shell_dict(shell: Shell) -> dict:
    return {
        "kind": shell.kind.value,
        "slope": shell.slope,
        "entries": [
            {
                "index": e.index,
                "word": e.text,
                "class": e.disk_class.value,
            }
            for e in shell.entries
        ],
    }


def reference_report_dict(report: FullReport) -> dict:
    seq = report.sequence
    out = {
        "params": params_dict(report.params),
        "sequence": {
            "words": list(seq.spellings),
            "primitive_indices": sorted(seq.primitive_indices),
        },
        "shells": [shell_dict(s) for s in report.shells],
        "structure": structure_dict(report.structure),
        "witness": witness_dict(report.witness) if report.witness else None,
        "presentation": presentation_dict(report.presentation)
        if report.presentation
        else None,
        "amalgam": amalgam_dict(report.amalgam) if report.amalgam else None,
    }
    if report.presentation is not None:
        out["abelianization"] = abelianization_dict(abelianize_presentation(report.presentation))
    return out


def _sequence_class(j: int, seq) -> str:
    if j in (0, seq.params.p):
        return "semiprimitive-endpoint"
    if j in seq.primitive_indices:
        return "primitive"
    return "other"


def reference_sequence(p: int, q: int, verify: bool) -> tuple[dict, list[dict]]:
    """The dict `sequence --json` printed, and its rows."""
    params = make_params(p, q)
    seq = pq_sequence(params)
    rows = []
    mismatch = 0
    for j, spelling in enumerate(seq.spellings):
        row = {"j": j, "word": spelling, "class": _sequence_class(j, seq)}
        if verify:
            oracle = is_primitive_whitehead(spelling)
            row["oracle_primitive"] = oracle
            if oracle != (j in seq.primitive_indices):
                mismatch += 1
        rows.append(row)
    data = {"params": params_dict(params), "rows": rows}
    if verify:
        data["oracle_agreement"] = mismatch == 0
    return data, rows


def reference_sequence_text(p: int, q: int, verify: bool) -> str:
    data, rows = reference_sequence(p, q, verify)
    params = data["params"]
    lines = [
        f"({params['p']},{params['q']})-sequence: q' = {params['q_prime']}, "
        f"connected = {'yes' if params['connected'] else 'no'}"
    ]
    width = max(len(r["word"]) for r in rows)
    for row in rows:
        line = f"  {row['j']:>3}  {row['word']:<{width}}  {row['class']}"
        if verify:
            line += f"  oracle={'primitive' if row['oracle_primitive'] else 'not-primitive'}"
        lines.append(line)
    if verify:
        lines.append(f"oracle agreement: {'ok' if data['oracle_agreement'] else 'mismatches'}")
    return "\n".join(lines) + "\n"


def reference_report_text(p: int, q: int) -> str:
    report = build_report(p, q)
    d = reference_report_dict(report)
    params = report.params
    lines = [
        f"report for {params}",
        f"  p = {params.p}, q = {params.q}, q' = {params.q_prime}, r = {params.r}, "
        f"m = {params.m}",
        f"  homeomorphic slopes: {d['params']['homeomorphism_slopes']}",
        f"  connected: {'yes' if params.connected else 'no'}",
        f"  structure case: {d['structure']['case_tag']} {d['structure']['clause']}",
        f"  sequence primitive indices: {d['sequence']['primitive_indices']}",
    ]
    if report.witness is not None:
        w = d["witness"]
        lines.append(
            f"  witness: s = {w['s']}, t = {w['t']}, continued fraction "
            f"{w['continued_fraction']}, {len(w['disks'])} disks, final word {w['disks'][-1]['word']}"
        )
    if report.presentation is not None:
        lines.append(f"  presentation: {render(report.presentation, 'text')}")
        ab = d["abelianization"]
        lines.append(f"  abelianization: torsion {ab['torsion']}, free rank {ab['free_rank']}")
    return "\n".join(lines) + "\n"


# --- byte identity


def test_the_inputs_cover_both_kinds_of_complex():
    assert len(VERIFY_LONG) >= 40 and max(p for p, _ in VERIFY_LONG) >= 290
    assert {make_params(p, q).connected for p, q in VERIFY_LONG} == {True, False}


def test_report_json_is_the_dump_of_report_dict(run):
    for p, q in PAIRS:
        assert run("report", p, q, "--json") == (
            0, dumped(reference_report_dict(build_report(p, q))), ""
        ), (p, q)


def test_report_dict_is_the_parse_of_the_stream():
    for p, q in SMALL[::7] + VERIFY_LONG[::7]:
        report = build_report(p, q)
        assert report_dict(report) == reference_report_dict(report), (p, q)


def test_report_text_is_the_summary_of_report_dict(run):
    for p, q in SMALL:
        assert run("report", p, q) == (0, reference_report_text(p, q), ""), (p, q)


def test_shell_json_is_the_dump_of_shell_dict(run):
    for p, q in PAIRS:
        params = make_params(p, q)
        for kind in ShellKind:
            want = {"params": params_dict(params), "shell": shell_dict(build_shell(params, kind))}
            assert run("shell", p, q, "--kind", kind.value, "--json") == (
                0, dumped(want), ""
            ), (p, q, kind)


def test_sequence_json_is_the_dump_of_the_row_dicts(run):
    for p, q in PAIRS:
        assert run("sequence", p, q, "--json") == (
            0, dumped(reference_sequence(p, q, False)[0]), ""
        ), (p, q)
        assert run("sequence", p, q, "--verify", "--json") == (
            0, dumped(reference_sequence(p, q, True)[0]), ""
        ), (p, q)


def test_sequence_text_is_the_table_of_the_row_dicts(run):
    for p, q in SMALL:
        for verify in (False, True):
            flags = ("--verify",) if verify else ()
            assert run("sequence", p, q, *flags) == (
                0, reference_sequence_text(p, q, verify), ""
            ), (p, q, verify)


def test_a_refused_stream_writes_nothing(run):
    """Errors come before the first byte: a stream cut short would be
    neither the old output nor valid JSON."""
    for argv in (("report", 3162, 7, "--json"), ("sequence", 3162, 7, "--verify", "--json"),
                 ("shell", 3162, 7, "--json"), ("report", 3162, 7), ("sequence", 3162, 7),
                 ("report", 6, 4, "--json"), ("shell", 9, 3, "--json"),
                 ("shell", 3162, 7), ("sequence", 3162, 7, "--verify")):
        code, out, err = run(*argv)
        assert (code, out) == (2, "") and err.startswith("error: "), argv


def test_the_row_streams_refuse_at_the_call():
    """`shell_rows` and `sequence_rows` refuse a stream past the letter
    cap when called, before any row is asked for, so a writer that makes
    its rows first has written nothing when it fails."""
    params = make_params(3162, 7)
    with pytest.raises(InvalidParameters, match="p must be at most 3161"):
        shell_rows(params, ShellKind.Q)
    with pytest.raises(InvalidParameters, match="p must be at most 3161"):
        sequence_rows(params, False)


# --- the hot path


def test_the_verbs_build_no_report_shell_or_sequence_object(run, monkeypatch):
    """`report`, `shell` and `sequence` read the writers and the row
    generators only: the library objects and `report_dict` stay off
    their path, in text and in JSON.  Each is patched wherever a goeritz
    module holds it."""
    modules = [goeritz] + [
        importlib.import_module(f"goeritz.{m.name}") for m in pkgutil.iter_modules(goeritz.__path__)
    ]
    called = []

    def recording(name, original):
        def wrapper(*args, **kwargs):
            called.append(name)
            return original(*args, **kwargs)

        return wrapper

    for original in (build_report, report_dict, build_shell, pq_sequence):
        replacement = recording(original.__name__, original)
        for module in modules:
            for attr, value in list(vars(module).items()):
                if value is original:
                    monkeypatch.setattr(module, attr, replacement)
    for p, q in ((12, 5), (13, 3)):  # disconnected, connected
        for json_flag in ((), ("--json",)):
            for argv in (("report", p, q), ("sequence", p, q), ("sequence", p, q, "--verify"),
                         *(("shell", p, q, "--kind", kind.value) for kind in ShellKind)):
                code, out, _ = run(*argv, *json_flag)
                assert code == 0 and out and called == [], (argv, json_flag, called)
    # the patches took: a library caller reaches them
    goeritz.build_report(12, 5)
    assert sorted(called) == ["build_report"] + ["build_shell"] * 4 + ["pq_sequence"]


# --- memory

_CHILD = """
import sys
from goeritz.cli import main

code = main(sys.argv[1:])
sys.stdout.flush()
with open("/proc/self/status") as f:
    peak_kb = next(int(line.split()[1]) for line in f if line.startswith("VmHWM:"))
sys.stderr.write(f"{code} {peak_kb}\\n")
"""


@pytest.mark.skipif(not os.path.exists("/proc/self/status"), reason="no /proc/self/status")
def test_report_3000_peaks_below_60_mb():
    """The child's own peak resident memory (VmHWM), its output going to
    /dev/null; the dicts of the whole report took 253 MB (`--json`) and
    109 MB (text)."""
    env = dict(os.environ, PYTHONPATH=str(Path(goeritz.__file__).resolve().parents[1]))
    for argv in (("report", "3000", "7", "--json"), ("report", "3000", "7")):
        done = subprocess.run(
            [sys.executable, "-c", _CHILD, *argv],
            stdout=subprocess.DEVNULL,
            stderr=subprocess.PIPE,
            text=True,
            env=env,
            timeout=120,
        )
        code, peak_kb = map(int, done.stderr.split()[-2:])
        assert code == 0 and peak_kb < 60 * 1024, (argv, peak_kb, done.stderr[-300:])


def test_write_report_json_memory_grows_linearly_in_p():
    """The Python heap peak (tracemalloc) of a streamed report at p = 500,
    1,000 and 2,000 grows at most 2.2x per doubling: the writers hold a
    bounded chunk of output and O(p) state, not the Theta(p^2) text.  The
    shared presentation memo is filled by a first, untraced call."""
    import tracemalloc

    for q in (3, 7):  # connected (presentation) and disconnected (witness) at each p
        peaks = []
        for p in (500, 1000, 2000):
            params = make_params(p, q)
            write_report_json(params, lambda text: None)
            tracemalloc.start()
            try:
                write_report_json(params, lambda text: None)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert all(b <= 2.2 * a for a, b in zip(peaks, peaks[1:])), (q, peaks)
        assert peaks[-1] < 2 * 2**20, (q, peaks)  # the whole report at p = 2000 is 25 MB
