import hashlib
import json
import math

import pytest

from goeritz.cli import main


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_primitive_auto_positive(capsys):
    code, out, _ = run(capsys, "primitive", "zyyzyyzy", "--method", "oz")
    assert code == 0
    assert "method: oz" in out and "primitive: yes" in out
    code, out, _ = run(capsys, "primitive", "zyyzyyzy")
    assert code == 0
    assert "method: cmz" in out and "primitive: yes" in out


def test_primitive_auto_filter_hit(capsys):
    code, out, _ = run(capsys, "primitive", "x y x Y", "--method", "filter")
    assert code == 1
    assert "method: filter" in out and "primitive: no" in out
    code, out, _ = run(capsys, "primitive", "x y x Y")
    assert code == 1
    assert "method: cmz" in out and "primitive: no" in out


def test_primitive_whitehead_with_trace(capsys):
    code, out, _ = run(capsys, "primitive", "x Y x Y y x", "--method", "whitehead", "--trace")
    assert code in (0, 1)
    assert "method: whitehead" in out


def test_primitive_trace_lists_moves(capsys):
    code, out, _ = run(capsys, "primitive", "xy^2xy^3", "--method", "whitehead", "--trace")
    assert code == 0
    assert "step 1:" in out


def test_primitive_oz_rejects_negative_letters(capsys):
    code, _, err = run(capsys, "primitive", "xY", "--method", "oz")
    assert code == 2
    assert "error" in err


def test_primitive_filter_inconclusive(capsys):
    code, out, _ = run(capsys, "primitive", "xy", "--method", "filter")
    assert code == 4
    assert "inconclusive" in out


def test_primitive_filter_trace_prints_the_witness(capsys):
    code, out, err = run(capsys, "primitive", "--method", "filter", "--trace", "xyxY")
    assert (code, err) == (1, "")
    assert out.splitlines()[-1] == "  filter witness (w): xy at 0, xy^-1 at 2"


def test_primitive_filter_trace_json_carries_the_witness(capsys):
    """The JSON of a traced filter verdict names the witness the text
    prints, key by key; without --trace, or when the filter decides
    nothing, there is no witness."""
    code, out, err = run(capsys, "primitive", "--method", "filter", "--trace", "--json", "x^2y^2")
    assert (code, err) == (1, "")
    assert json.loads(out)["filter_witness"] == {
        "normalization": "w", "first": "x^2", "first_offset": 0, "second": "y^2", "second_offset": 2,
    }
    for argv in (("x^2y^2", "--json"), ("xy", "--trace", "--json")):
        code, out, _ = run(capsys, "primitive", "--method", "filter", *argv)
        assert "filter_witness" not in json.loads(out), argv


def test_primitive_json(capsys):
    code, out, _ = run(capsys, "primitive", "x x y y", "--method", "filter", "--json")
    assert code == 1
    data = json.loads(out)
    assert data["primitive"] is False and data["method"] == "filter"
    code, out, _ = run(capsys, "primitive", "x x y y", "--json")
    assert code == 1
    data = json.loads(out)
    assert data["primitive"] is False and data["method"] == "cmz"


def test_primitive_auto_is_one_certified_call(capsys, monkeypatch):
    def boom(*args):
        raise AssertionError("auto must call the certified decision only")

    for name in ("is_primitive_whitehead", "whitehead_trace", "nonprimitivity_filter",
                 "is_primitive_positive"):
        monkeypatch.setattr(f"goeritz.cli.{name}", boom)
    # a positive word, a word the filter fires on, a mixed-sign primitive
    for text, expected in (("zyyzyyzy", 0), ("x y x Y", 1), ("xY^150xY^151", 0)):
        for extra in ((), ("--trace",), ("--json",)):
            code, out, _ = run(capsys, "primitive", text, *extra)
            assert code == expected, (text, extra)
            assert "cmz" in out, (text, extra)


def test_primitive_auto_trace_prints_the_certificate(capsys):
    code, out, _ = run(capsys, "primitive", "xyxy^2", "--trace")
    assert code == 0
    assert out.splitlines()[3:] == [
        "  step 1: x -> xy^-1 => x^2y",
        "  step 2: x -> y, y -> x => xy^2",
        "  step 3: x -> xy^-2 => x",
    ]
    code, out, _ = run(capsys, "primitive", "XyXy^2Xy^3", "--trace", "--json")
    data = json.loads(out)
    assert code == 1 and data["method"] == "cmz" and data["primitive"] is False
    assert data["trace"][0] == {"move": "x -> x^-1, y -> y", "word": "xyxy^2xy^3"}
    assert data["failed_condition"] == "run shorter than k"
    code, out, _ = run(capsys, "primitive", "x^2y^2", "--trace")
    assert code == 1 and out.endswith("  failed condition: repeated rarer letter\n")
    code, out, _ = run(capsys, "primitive", "x^2y^2", "--json")
    assert "failed_condition" not in json.loads(out)


def test_sequence_and_witness_never_call_the_oracle(capsys, monkeypatch):
    """`sequence --verify` and `witness` decide with the certified test;
    the oracle is patched to raise in every goeritz module that holds it."""
    import importlib
    import pkgutil

    import goeritz
    from goeritz.primitivity import is_primitive_whitehead

    def boom(*args):
        raise AssertionError("the oracle is off the verbs' path")

    for info in pkgutil.iter_modules(goeritz.__path__):
        module = importlib.import_module(f"goeritz.{info.name}")
        if vars(module).get("is_primitive_whitehead") is is_primitive_whitehead:
            monkeypatch.setattr(module, "is_primitive_whitehead", boom)
    monkeypatch.setattr(goeritz, "is_primitive_whitehead", boom)
    for argv in (("sequence", "60", "7", "--verify", "--json"), ("witness", "60", "7", "--json")):
        code, out, _ = run(capsys, *argv)
        assert code == 0 and json.loads(out), argv
    with pytest.raises(AssertionError, match="off the verbs' path"):
        goeritz.primitivity.is_primitive_whitehead("xy")


def test_parse_error_exit_code(capsys):
    code, _, err = run(capsys, "primitive", "x w")
    assert code == 2
    assert "offset 2" in err


def test_non_ascii_exponent_digit_is_a_parse_error(capsys):
    for text in ("x^²", "x^٣"):
        code, out, err = run(capsys, "primitive", text)
        assert code == 2 and out == ""
        assert "offset 2: expected an integer exponent" in err


def test_huge_exponent_fails_fast_as_invalid_input(capsys):
    # the cap is checked before any letter is expanded
    code, out, err = run(capsys, "primitive", "xy^10000000000")
    assert code == 2 and out == ""
    assert "offset 3" in err and "letters in the expanded word" in err


def test_primitive_whitehead_verdict_without_trace(capsys):
    code, out, _ = run(capsys, "primitive", "xy^200xy^201", "--method", "whitehead")
    assert code == 0 and "primitive: yes" in out and "step" not in out
    code, out, _ = run(capsys, "primitive", "xY^200xY^202", "--method", "whitehead", "--json")
    assert code == 1 and json.loads(out)["primitive"] is False


def test_sequence_8_3(capsys):
    code, out, _ = run(capsys, "sequence", "8", "3")
    assert code == 0
    lines = [ln.split() for ln in out.splitlines()[1:]]
    words = [row[1] for row in lines]
    assert words[0] == "yyyyyyyy" and words[8] == "zzzzzzzz"
    primitive_rows = [int(row[0]) for row in lines if row[2] == "primitive"]
    assert primitive_rows == [1, 3, 5, 7]


def test_sequence_verify(capsys):
    code, out, _ = run(capsys, "sequence", "8", "3", "--verify")
    assert code == 0
    assert "oracle agreement: ok" in out


def test_sequence_verify_disagreements_exit_3_in_text_and_json(capsys, monkeypatch):
    """An oracle that calls every word non-primitive disagrees with the
    four primitive positions of L(12,5), 1, 5, 7 and 11, in both formats."""
    from goeritz import report

    monkeypatch.setattr(report, "is_primitive_cmz", lambda word: False)
    code, out, _ = run(capsys, "sequence", "12", "5", "--verify")
    assert code == 3
    assert out.splitlines()[-1] == "oracle agreement: 4 mismatches"
    code, out, _ = run(capsys, "sequence", "12", "5", "--verify", "--json")
    assert code == 3
    assert json.loads(out)["oracle_agreement"] is False


def test_sequence_verify_builds_no_words(capsys, monkeypatch):
    """The oracle reads the sequence spellings directly (Word.__init__
    counted by monkeypatch); the verdicts are the oracle's on the Words."""
    from goeritz.primitivity import is_primitive_whitehead
    from goeritz.sequences import make_params, pq_sequence
    from goeritz.words import Word

    built = []
    honest = Word.__init__

    def counting_init(self, letters=""):
        built.append(self)
        honest(self, letters)

    monkeypatch.setattr(Word, "__init__", counting_init)
    for p, q in ((8, 3), (41, 9), (97, 22)):
        code, out, _ = run(capsys, "sequence", str(p), str(q), "--verify", "--json")
        assert code == 0 and built == [], (p, q)
        rows = json.loads(out)["rows"]
        words = pq_sequence(make_params(p, q)).words
        assert [row["oracle_primitive"] for row in rows] == [is_primitive_whitehead(w) for w in words]
        built.clear()


def test_sequence_json(capsys):
    code, out, _ = run(capsys, "sequence", "5", "2", "--json")
    assert code == 0
    data = json.loads(out)
    assert data["params"]["q_prime"] == 2
    assert [r["word"] for r in data["rows"]][2] == "zyzyy"


def test_sequence_rejects_non_coprime(capsys):
    code, _, err = run(capsys, "sequence", "6", "4")
    assert code == 2
    assert "coprime" in err


def test_shell_table(capsys):
    code, out, _ = run(capsys, "shell", "5", "2")
    assert code == 0
    assert "xy^2xy^3" in out and "semiprimitive" in out


SHELL_5_2 = """\
({p}, {slope})-shell for L(5,2) (kind {kind})
    j  word        class          meets next  meets next+1
    0  y^5         semiprimitive           0             1
    1  xy^5        primitive               0             1
    2  {w2}    primitive               0             1
    3  {w3}  primitive               0             1
    4  {w4}  primitive               0             -
    5  xyxyxyxyxy  semiprimitive           -             -
"""


def test_shell_text_bytes(capsys):
    """The whole text shell of L(5,2) for each kind: header, column
    widths, both meets columns and the - tails."""
    slope_2 = dict(slope=2, w2="xy^2xy^3", w3="xy^2xy^2xy", w4="xyxyxy^2xy")
    slope_3 = dict(slope=3, w2="xy^3xy^2", w3="xyxy^2xy^2", w4="xyxy^2xyxy")
    for kind, words in (("q", slope_2), ("pq", slope_3), ("q2", slope_2), ("pq2", slope_3)):
        assert run(capsys, "shell", "5", "2", "--kind", kind) == (
            0, SHELL_5_2.format(p=5, kind=kind, **words), ""
        ), kind


def test_shell_kinds(capsys):
    for kind in ("q", "pq", "q2", "pq2"):
        code, out, _ = run(capsys, "shell", "10", "3", "--kind", kind)
        assert code == 0
    code, out, _ = run(capsys, "shell", "10", "3", "--kind", "pq", "--json")
    data = json.loads(out)
    assert data["shell"]["slope"] == 7


def test_text_shell_holds_no_row():
    """The text shell takes the width of its word column from a first pass
    over the rows and prints on a second, so it holds O(p), not the
    Theta(p^2) letters of all p + 1 words (6.4 MB at p = 2000 when it held
    them).  Stdout goes to the null device, so no capture holds it either."""
    import contextlib
    import os
    import tracemalloc

    main(["shell", "5", "2", "--json"])  # the parser is built once, outside the measure
    with open(os.devnull, "w") as sink, contextlib.redirect_stdout(sink):
        tracemalloc.start()
        try:
            assert main(["shell", "2000", "7"]) == 0
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    assert peak < 1_000_000


def test_witness_12_5(capsys):
    code, out, _ = run(capsys, "witness", "12", "5")
    assert code == 0
    assert "s = 3, t = 0" in out
    assert "xy^5xy^5xy^5xy^5xy^5xy^5xy^6" in out


def test_witness_connected_rejected(capsys):
    code, _, err = run(capsys, "witness", "5", "2")
    assert code == 2
    assert "connected" in err


def test_classify_text(capsys):
    code, out, _ = run(capsys, "classify", "5", "2")
    assert code == 0
    assert "case: T2b (2)(b)" in out and "dimension: 2" in out


def test_classify_json_disconnected(capsys):
    code, out, _ = run(capsys, "classify", "12", "5", "--json")
    assert code == 0
    data = json.loads(out)
    assert data["structure"]["case_tag"] == "Disconnected"
    assert data["structure"]["vertex_orbits"] is None
    assert data["structure"]["quotient_graph"] == "not-applicable"


def test_classify_prints_its_recorded_bytes_for_every_pair_up_to_150(capsys):
    """`classify p q` and `classify p q --json` for all 6,857 coprime pairs
    with p <= 150, against one SHA-256 of [argv, exit code, stdout] per call:
    every field of the structure report, the four that classify derives
    from the case table among them, in text and in JSON."""
    records = []
    for p in range(2, 151):
        for q in range(1, p):
            if math.gcd(p, q) == 1:
                for argv in (["classify", str(p), str(q)], ["classify", str(p), str(q), "--json"]):
                    code, out, _ = run(capsys, *argv)
                    records.append([argv, code, out])
    assert len(records) == 13_714
    digest = hashlib.sha256(json.dumps(records).encode()).hexdigest()
    assert digest == "7541df4ba374787fb164111ae96a18fd743bf4b225aa98864e12628927be0e52"


def test_presentation_text(capsys):
    code, out, _ = run(capsys, "presentation", "8", "3")
    assert code == 0
    assert "⟨α | α²⟩" in out
    assert "hyperelliptic" in out


def test_presentation_gap(capsys):
    code, out, _ = run(capsys, "presentation", "8", "3", "--format", "gap")
    assert code == 0
    assert "FreeGroup(" in out and "relators :=" in out


def test_presentation_amalgam_and_abelianization(capsys):
    code, out, _ = run(
        capsys, "presentation", "10", "3", "--amalgam", "--abelianization"
    )
    assert code == 0
    assert "G(D u D1)" in out
    assert "abelianization: Z^2 + Z/2 + Z/2 + Z/2 + Z/2 + Z/2" in out


def test_presentation_json(capsys):
    code, out, _ = run(capsys, "presentation", "5", "2", "--format", "json", "--amalgam")
    assert code == 0
    data = json.loads(out)
    assert len(data["amalgam"]["factors"]) == 2


def test_presentation_disconnected(capsys):
    code, _, err = run(capsys, "presentation", "12", "5")
    assert code == 2
    assert "not covered" in err


def test_report_connected(capsys):
    code, out, _ = run(capsys, "report", "5", "2", "--json")
    assert code == 0
    data = json.loads(out)
    assert data["witness"] is None
    assert data["presentation"] is not None
    assert data["abelianization"] == {"torsion": [2, 2, 2], "free_rank": 2}
    assert len(data["shells"]) == 4


def test_report_disconnected(capsys):
    code, out, _ = run(capsys, "report", "12", "5", "--json")
    assert code == 0
    data = json.loads(out)
    assert data["witness"] is not None
    assert data["presentation"] is None and data["amalgam"] is None
    assert len(data["witness"]["disks"]) == 5


def test_report_is_deterministic(capsys):
    _, first, _ = run(capsys, "report", "12", "5", "--json")
    _, second, _ = run(capsys, "report", "12", "5", "--json")
    assert first == second


def test_report_text(capsys):
    code, out, _ = run(capsys, "report", "7", "2")
    assert code == 0
    assert "structure case: T2c" in out and "presentation:" in out


def test_sweep_small(capsys):
    code, out, _ = run(capsys, "sweep", "four-primitives", "--max-p", "12")
    assert code == 0
    assert "0 failures" in out


def test_sweep_json(capsys):
    code, out, _ = run(capsys, "sweep", "symmetry", "--max-p", "10", "--json")
    assert code == 0
    data = json.loads(out)
    assert data["check"] == "symmetry" and data["failures"] == []


def test_sweep_unknown_check(capsys):
    with pytest.raises(SystemExit):
        main(["sweep", "no-such-check"])


def test_word_mixing_x_and_z_is_invalid_input(capsys):
    for argv in (("primitive", "xz"), ("primitive", "--method", "filter", "xZ")):
        code, _, err = run(capsys, *argv)
        assert code == 2, argv
        assert err == "error: word mixes x and z; no generating pair applies\n", argv


def test_internal_value_error_is_not_reported_as_invalid_input(capsys, monkeypatch):
    def broken(params):
        raise ValueError("internal fault")

    monkeypatch.setattr("goeritz.cli.classify", broken)
    with pytest.raises(ValueError, match="internal fault"):
        main(["classify", "8", "3"])


def test_sweep_rejects_vacuous_bounds(capsys):
    vacuous = (("witness", "-3"), ("four-primitives", "1"), ("filter-soundness", "0"),
               ("filter-soundness", "-3"))
    for check, bound in vacuous:
        code, out, err = run(capsys, "sweep", check, "--max-p", bound)
        assert code == 2, check
        assert out == "" and "must be at least" in err, check
    code, out, _ = run(capsys, "sweep", "oz-vs-whitehead", "--max-p", "1")
    assert code == 0 and "2 subjects, 0 failures" in out


def test_sweep_witness_refuses_bounds_below_the_first_disconnected_pair(capsys):
    for bound in ("2", "11"):
        code, out, err = run(capsys, "sweep", "witness", "--max-p", bound)
        assert code == 2, bound
        assert out == "" and err == f"error: the witness bound must be at least 12, got {bound}\n"
    code, out, _ = run(capsys, "sweep", "witness", "--max-p", "12")
    assert code == 0 and "1 subjects, 0 failures" in out


def test_sequence_sweeps_refuse_a_bound_past_the_letter_cap_up_front(monkeypatch, capsys):
    """p = 3162 is the first p with p(p+1) > MAX_WORD_LETTERS: its bound is
    refused before the first subject, and 3161 starts the sweep."""
    from goeritz import sweeps
    from goeritz.sequences import InvalidParameters

    class Started(Exception):
        pass

    made = []

    def make_params(p, q):
        made.append((p, q))
        raise Started

    monkeypatch.setattr(sweeps, "make_params", make_params)
    for check in ("symmetry", "four-primitives"):
        with pytest.raises(InvalidParameters, match="at most 3161.* 10000000 letters"):
            sweeps.run_sweep(check, 3162)
        assert made == [], check
        code, out, err = run(capsys, "sweep", check, "--max-p", "3162")
        assert code == 2 and out == "" and "at most 3161" in err, check
        assert made == [], check
        with pytest.raises(Started):
            sweeps.run_sweep(check, 3161)
        assert made == [(2, 1)], check
        made.clear()


def test_witness_sweeps_refuse_a_bound_past_the_letter_cap_up_front(monkeypatch, capsys):
    """(632, 253) is the first pair whose witness trace passes
    MAX_WORD_LETTERS, found here from the Farey label totals without
    spelling a word.  So the witness and dispatch-totality sweeps, which
    make every disconnected pair's trace, take p = 631 and refuse 632
    before the first subject, not 100 s into the sweep."""
    from goeritz import sweeps
    from goeritz.farey import _schedule, continued_fraction, seed_labels, solve_replacement_equation
    from goeritz.sequences import InvalidParameters, make_params
    from goeritz.words import MAX_WORD_LETTERS

    def first_pair_past_the_cap():
        for p, q in sweeps.coprime_pairs(1000):  # in the sweeps' order
            params = make_params(p, q)
            if params.connected:
                continue
            s, t = solve_replacement_equation(params)
            labels = _schedule(seed_labels(params), continued_fraction(s, t + 1), params)
            # the word of label (d, e) is (xy^q)^d x y^e
            letters = sum((q + 1) * label.d + 1 + label.e for _, label, _ in labels)
            if letters > MAX_WORD_LETTERS:
                return p, q, letters

    assert first_pair_past_the_cap() == (632, 253, 10_075_164)
    for check in ("witness", "dispatch-totality"):
        assert sweeps._CHECKS[check][3] == 631, check

    class Started(Exception):
        pass

    made = []

    def refusing_make_params(p, q):
        made.append((p, q))
        raise Started

    monkeypatch.setattr(sweeps, "make_params", refusing_make_params)
    for check in ("witness", "dispatch-totality"):
        with pytest.raises(InvalidParameters, match="at most 631.* 10000000 letters"):
            sweeps.run_sweep(check, 632)
        code, out, err = run(capsys, "sweep", check, "--max-p", "632")
        assert code == 2 and out == "" and "at most 631" in err, check
        assert made == [], check
        with pytest.raises(Started):
            sweeps.run_sweep(check, 631)
        assert made == [(2, 1)], check
        made.clear()


def test_word_sweeps_refuse_a_bound_past_the_letter_cap_up_front(monkeypatch, capsys):
    """The word-level sweeps take the last length whose necklaces total at
    most MAX_WORD_LETTERS letters, counted here by Burnside's lemma: the
    necklaces of n letters total sum over d | n of phi(n/d) W(d) letters,
    W(d) being the closed words of d letters (2^d positive words over z, y;
    3^d + 2 + (-1)^d cyclically reduced words over x, y).  A larger bound
    is refused before the enumerator is called."""
    from goeritz import sweeps
    from goeritz.sequences import InvalidParameters
    from goeritz.words import MAX_WORD_LETTERS

    def phi(n):
        return sum(1 for k in range(1, n + 1) if math.gcd(k, n) == 1)

    def necklace_letters(closed_words, max_len):
        return sum(
            phi(n // d) * closed_words(d)
            for n in range(1, max_len + 1)
            for d in range(1, n + 1)
            if n % d == 0
        )

    def last_length(closed_words):
        n = 1
        while necklace_letters(closed_words, n + 1) <= MAX_WORD_LETTERS:
            n += 1
        return n

    positive = lambda d: 2**d
    reduced = lambda d: 3**d + 2 + (-1) ** d
    for n in range(1, 11):
        assert necklace_letters(positive, n) == sum(map(len, sweeps._necklaces("zy", n)))
        assert necklace_letters(reduced, n) == sum(map(len, sweeps._necklaces("xXyY", n)))
    assert [necklace_letters(positive, n) for n in (22, 23)] == [8_393_924, 16_782_576]
    assert [necklace_letters(reduced, n) for n in (14, 15)] == [7_178_492, 21_528_032]
    caps = {"oz-vs-whitehead": (positive, "positive_cyclic_words", sweeps.POSITIVE_WORD_CAP),
            "filter-soundness": (reduced, "reduced_cores", sweeps.REDUCED_WORD_CAP)}

    class Started(Exception):
        pass

    for check, (closed_words, enumerator, cap) in caps.items():
        most = last_length(closed_words)
        assert (check, most) in {("oz-vs-whitehead", 22), ("filter-soundness", 14)}
        assert sweeps._CHECKS[check][3] == cap == most
        calls = []

        def counting_enumerator(max_len):
            calls.append(max_len)
            raise Started

        monkeypatch.setattr(sweeps, enumerator, counting_enumerator)
        with pytest.raises(InvalidParameters, match=f"at most {most}.* 10000000 letters"):
            sweeps.run_sweep(check, most + 1)
        code, out, err = run(capsys, "sweep", check, "--max-p", str(most + 1))
        assert code == 2 and out == "" and f"at most {most}" in err, check
        assert calls == [], check
        with pytest.raises(Started):
            sweeps.run_sweep(check, most)
        assert calls == [most], check


def _capped_cli(*argv):
    """`goeritz <argv>` in a child process whose address space is capped
    at 1.5 GB, so a command that starts making its words fails there
    with a MemoryError instead of filling memory."""
    import resource
    import subprocess
    import sys

    limit = 1536 * 2**20
    return subprocess.run(
        [sys.executable, "-m", "goeritz.cli", *argv],
        capture_output=True,
        text=True,
        env=_child_env(),
        timeout=60,
        preexec_fn=lambda: resource.setrlimit(resource.RLIMIT_AS, (limit, limit)),
    )


def test_hostile_p_is_refused_before_anything_is_made():
    """A sequence, shell, report or witness past the letter cap exits 2
    with an error and no output, each in a capped child (`_capped_cli`)."""
    hostile = (
        ("sequence", "200000", "7"),
        ("shell", "200000", "7"),
        ("report", "200000", "7"),
        ("witness", "200003", "1000"),
        ("witness", "200000004", "100000001"),
        ("sequence", "100000", "1"),
    )
    for argv in hostile:
        done = _capped_cli(*argv)
        assert (done.returncode, done.stdout) == (2, ""), (argv, done.stderr[-300:])
        assert done.stderr.startswith("error: ") and "10000000 allowed" in done.stderr, argv


def test_the_letter_cap_spares_classify_presentation_and_smaller_p(capsys):
    from goeritz.sequences import InvalidParameters, spelled_sequence

    assert next(spelled_sequence(3161, 7)) == "y" * 3161  # p(p+1) = 9,995,082
    with pytest.raises(InvalidParameters, match="p\\(p\\+1\\) = 10001406 letters"):
        next(spelled_sequence(3162, 7))
    for argv in (("classify", "200000", "7"), ("presentation", "200000", "1")):
        code, out, err = run(capsys, *argv)
        assert code == 0 and out and not err, argv


def test_a_p_whose_letter_count_is_too_long_to_print_is_refused_with_exit_2():
    """Python refuses to print an int of more than 4,300 digits.  p(p+1)
    has that many for p = 10^2199, and the first seed disk of the
    disconnected L(9 * 10^4299 + 4, 7) about 8p/7 letters: each call must
    still be refused as invalid input, not end in a traceback.  Each runs
    in a capped child (`_capped_cli`), so a call that allocates before
    the cap check fails this test, not the test run."""
    huge = str(10**2199)
    for argv in (
        ("sequence", huge, "7"),
        ("shell", huge, "7"),
        ("report", huge, "7"),
        ("witness", str(9 * 10**4299 + 4), "7"),
    ):
        done = _capped_cli(*argv)
        assert (done.returncode, done.stdout) == (2, ""), (argv[0], done.stderr[-300:])
        assert done.stderr.startswith("error:") and "10000000 allowed" in done.stderr, argv[0]


def _child_env():
    import os
    from pathlib import Path

    import goeritz

    return dict(os.environ, PYTHONPATH=str(Path(goeritz.__file__).resolve().parents[1]))


def test_the_parser_is_built_once_per_process_and_not_on_import():
    import subprocess
    import sys

    child = """
import contextlib, io
import goeritz, goeritz.cli
from goeritz.cli import build_parser, main
assert build_parser.cache_info().currsize == 0, "built on import"
with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
    for argv in (["primitive", "xy"], ["sequence", "8", "3"], ["primitive", "x^"],
                 ["sweep", "symmetry", "--max-p", "6"]) * 3:
        main(argv)
print(build_parser.cache_info().misses)
"""
    done = subprocess.run([sys.executable, "-c", child], capture_output=True, text=True,
                          env=_child_env(), timeout=60)
    assert (done.returncode, done.stdout, done.stderr) == (0, "1\n", "")


def test_a_reused_parser_gives_what_a_fresh_parser_gives(capsys, monkeypatch):
    """Each call's output and exit code, the parser kept from call to call
    or built afresh for each: no call may see what the one before it parsed."""
    from goeritz import cli

    calls = (
        ("primitive", "--trace", "xy^2xy^3"),
        ("primitive", "xy^2xy^3", "--json"),
        ("sweep", "filter-soundness", "--max-p", "4"),
        ("sweep", "filter-soundness", "--json", "--max-p", "5"),
        ("sweep", "no-such-check"),
        ("sequence", "8", "3"),
        ("primitive",),
        ("primitive", "--method", "filter", "xyxY"),
    )

    def results():
        out = []
        for argv in calls:
            try:
                code = main(list(argv))
            except SystemExit as exc:
                code = ("SystemExit", exc.code)
            captured = capsys.readouterr()
            out.append((argv, code, captured.out, captured.err))
        return out

    reused = results()
    monkeypatch.setattr(cli, "build_parser", cli.build_parser.__wrapped__)
    fresh = results()
    assert reused == fresh
    assert [code for _, code, _, _ in reused] == [
        0, 0, 0, 0, ("SystemExit", 2), 0, ("SystemExit", 2), 1
    ]


def test_a_reader_that_goes_away_ends_the_command_quietly_with_141():
    """`goeritz report 800 7 --json | head -c 100`: no traceback, and an
    exit code that no verdict uses."""
    import subprocess
    import sys

    child = subprocess.Popen(
        [sys.executable, "-m", "goeritz.cli", "report", "800", "7", "--json"],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=_child_env(),
    )
    head = child.stdout.read(100)
    child.stdout.close()
    err = child.stderr.read()
    child.stderr.close()
    assert child.wait(timeout=60) == 141
    assert head.startswith(b'{\n  "params": {') and err == b""


class _Recorder:
    """A stdout that keeps each write apart."""

    def __init__(self):
        self.writes = []

    def write(self, text):
        self.writes.append(text)
        return len(text)

    def flush(self):
        pass


@pytest.mark.parametrize(
    "argv",
    [
        ["primitive", "xY^20xY^21", "--json"],
        ["primitive", "xy^2xy^3", "--json", "--method", "whitehead", "--trace"],
        ["witness", "12", "5", "--json"],
        ["classify", "10", "3", "--json"],
        ["presentation", "10", "3", "--format", "json", "--amalgam", "--abelianization"],
        ["sweep", "symmetry", "--max-p", "8", "--json"],
    ],
)
def test_json_output_of_bounded_size_is_one_write(monkeypatch, argv):
    """A reader that stops after the JSON (`... --json | grep -q`) must
    not make a second write fail on an unbuffered stdout."""
    import sys

    recorder = _Recorder()
    monkeypatch.setattr(sys, "stdout", recorder)
    main(argv)
    assert len(recorder.writes) == 1 and recorder.writes[0].endswith("}\n")
    json.loads(recorder.writes[0])


def test_presentation_json_sections_are_the_reports(capsys):
    """One pair per connected row of CASES: the presentation, amalgam and
    abelianization of `presentation --format json` are those of `report --json`."""
    from goeritz.classify import case_data
    from goeritz.sequences import make_params

    seen = {}
    for p in range(2, 40):
        for q in range(1, p // 2 + 1):
            if math.gcd(p, q) == 1:
                params = make_params(p, q)
                if params.connected:
                    seen.setdefault(case_data(params), (p, q))
    assert len(seen) == 7
    for p, q in seen.values():
        code, out, _ = run(capsys, "presentation", str(p), str(q), "--format", "json",
                           "--amalgam", "--abelianization")
        assert code == 0
        _, report, _ = run(capsys, "report", str(p), str(q), "--json")
        presentation, report = json.loads(out), json.loads(report)
        for key in ("presentation", "amalgam", "abelianization"):
            assert presentation[key] == report[key], (p, q, key)
