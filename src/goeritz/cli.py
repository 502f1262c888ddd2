"""Command line front end.

`primitive --method auto` (the default) decides with the certified
Euclid reduction of Cohen, Metzler and Zimmermann (`goeritz.euclid`), as
`sequence --verify` and `witness` do: the certificate of every primitive
verdict is replayed forward by `check_certificate` before it is printed,
and `--trace` prints the moves that replay checked, whatever the
verdict.  The three checks of `goeritz.primitivity`, the Whitehead
oracle (`--method whitehead`), the positive-word normal form
(`--method oz`) and the non-primitivity filter (`--method filter`), are
independent of it and run on request and by the `cmz-vs-whitehead`,
`four-primitives`, `oz-vs-whitehead`, `filter-soundness` and `witness`
sweeps.  The `sequence --verify` labels `oracle=`, `oracle agreement`
and, in JSON, `"oracle_primitive"` carry the certified decision's
verdicts; they keep the names they had when the oracle decided there.

Exit codes: 0 success (or verdict: primitive), 1 verdict: not primitive,
2 invalid input, 3 sweep found failures, 4 verdict: inconclusive (the
filter of `primitive --method filter` decided nothing), 141 the reader
of stdout went away before the output was written (`goeritz report 800 7
--json | head -c 100`), as shells report a process ended by SIGPIPE.
`primitive` takes its exit code, JSON `outcome` and verdict line from
one table, `_VERDICTS`, keyed by the verdict of the chosen method.

`main` builds the argument parser once per process, on its first call,
so in-process callers pay only for their own commands.
"""

from __future__ import annotations

import argparse
import functools
import os
import sys
from dataclasses import asdict

from .classify import DisconnectedComplexError, classify
from .euclid import cmz_trace, is_primitive_cmz
from .farey import ConnectedComplexError, nonconnectivity_witness
from .jsontext import dumps
from .presentations import (
    abelianize_presentation,
    amalgam_decomposition,
    display_name,
    goeritz_presentation,
    render,
)
from .primitivity import (
    FilterOutcome,
    is_primitive_positive,
    is_primitive_whitehead,
    nonprimitivity_filter,
    whitehead_trace,
)
from .report import (
    SEQUENCE_CLASS,
    oracle_disagrees,
    params_dict,
    presentation_members,
    report_sections,
    sequence_rows,
    structure_dict,
    witness_dict,
    write_report_json,
    write_sequence_json,
    write_shell_json,
)
from .sequences import InvalidParameters, make_params, primitive_indices
from .shells import Shell, ShellKind, intersection_number, shell_rows
from .sweeps import DEFAULT_BOUNDS, run_sweep
from .words import MixedAlphabetError, WordParseError, parse_word


def _print_json(data) -> None:
    # one write, newline included: a reader that stops after the JSON
    # (`grep -q`) must not make a second write fail on unbuffered stdout
    sys.stdout.write(dumps(data) + "\n")


# Each verdict's exit code, JSON `outcome` and text line; None: the filter decided nothing.
_VERDICTS = {
    True: (0, "primitive", "primitive: yes"),
    False: (1, "not primitive", "primitive: no"),
    None: (4, "inconclusive", "verdict: inconclusive (the filter is a partial test)"),
}


def _decide(word, method: str, trace: bool):
    """(verdict, move chain, failed condition, filter witness) of `method`:
    the verdict None when the filter decides nothing, the rest empty unless
    `trace`.  Each decider is looked up in this module at the call."""
    if method == "filter":
        found = nonprimitivity_filter(word)
        verdict = False if found.outcome is FilterOutcome.NOT_PRIMITIVE else None
        return verdict, [], None, found.witness if trace else None
    if method == "oz":
        if word.spell() != word.spell().lower():
            raise InvalidParameters(
                "the positive-word test needs a word without inverse letters; "
                "use --method whitehead"
            )
        return is_primitive_positive(word), [], None, None
    if method == "cmz" and trace:
        certificate, chain = cmz_trace(word)
        return certificate.primitive, chain, certificate.failure, None
    if method == "cmz":
        return is_primitive_cmz(word), [], None, None
    if trace:
        return (*whitehead_trace(word), None, None)
    return is_primitive_whitehead(word), [], None, None


def cmd_primitive(args) -> int:
    word = parse_word(args.word)
    method = "cmz" if args.method == "auto" else args.method
    verdict, chain, failure, witness = _decide(word, method, args.trace)
    code, outcome, line = _VERDICTS[verdict]
    if args.json:
        data = {
            "word": str(word),
            "method": method,
            "primitive": verdict,
            "outcome": outcome,
        }
        if chain:
            data["trace"] = [{"move": str(a), "word": str(w)} for a, w in chain]
        if failure is not None:
            data["failed_condition"] = failure
        if witness is not None:
            data["filter_witness"] = asdict(witness)
        _print_json(data)
        return code
    print(f"word: {word}")
    print(f"method: {method}")
    print(line)
    for i, (auto, image) in enumerate(chain, start=1):
        print(f"  step {i}: {auto} => {image}")
    if failure is not None:
        print(f"  failed condition: {failure}")
    if witness is not None:
        print(
            f"  filter witness ({witness.normalization}): {witness.first} at "
            f"{witness.first_offset}, {witness.second} at {witness.second_offset}"
        )
    return code


def cmd_sequence(args) -> int:
    params = make_params(args.p, args.q)
    if args.json:
        return 0 if write_sequence_json(params, args.verify, sys.stdout.write) == 0 else 3
    rows = sequence_rows(params, args.verify)
    print(
        f"({params.p},{params.q})-sequence: q' = {params.q_prime}, "
        f"connected = {'yes' if params.connected else 'no'}"
    )
    mismatch = 0
    for j, word, cls, verdict in rows:
        line = f"  {j:>3}  {word}  {SEQUENCE_CLASS[cls]}"
        if args.verify:
            line += f"  oracle={'primitive' if verdict else 'not-primitive'}"
            mismatch += oracle_disagrees(cls, verdict)
        print(line)
    if args.verify:
        print(f"oracle agreement: {'ok' if mismatch == 0 else f'{mismatch} mismatches'}")
    return 0 if mismatch == 0 else 3


def cmd_shell(args) -> int:
    params = make_params(args.p, args.q)
    kind = ShellKind(args.kind)
    if args.json:
        write_shell_json(params, kind, sys.stdout.write)
        return 0
    # a first pass for the width of the word column, so no row is held
    width = max(len(text) for _, text, _ in shell_rows(params, kind))
    # the shell without its entries: its label and the closed-form meets
    shell = Shell(params=params, kind=kind, slope=kind.slope(params), entries=())
    p = params.p
    print(f"{shell.label()} for {params} (kind {kind.value})")
    print(f"  {'j':>3}  {'word':<{width}}  {'class':<13}  meets next  meets next+1")
    for j, text, cls in shell_rows(params, kind):
        meet1 = intersection_number(shell, j, j + 1) if j + 1 <= p else "-"
        meet2 = intersection_number(shell, j, j + 2) if j + 2 <= p else "-"
        print(f"  {j:>3}  {text:<{width}}  {cls.value:<13}  {meet1!s:>10}  {meet2!s:>12}")
    return 0


def cmd_witness(args) -> int:
    params = make_params(args.p, args.q)
    trace = nonconnectivity_witness(params)
    data = witness_dict(trace)
    for row, step in zip(data["disks"], trace.disks):
        row["primitive"] = is_primitive_cmz(step.word)
    if args.json:
        _print_json({"params": params_dict(params), "witness": data})
        return 0
    print(f"{params}: disconnected (p mod q = {params.r}); replacement witness")
    print(
        f"s = {trace.s}, t = {trace.t}, s/(t+1) = {trace.s}/{trace.t + 1}, "
        f"continued fraction {list(trace.cf)}"
    )
    print(f"  {'step':>4}  {'tag':<4}  {'fraction':<8}  {'d':>3}  {'e':>3}  {'primitive':<9}  word")
    for row in data["disks"]:
        print(
            f"  {row['step']:>4}  {row['tag']:<4}  {row['fraction']:<8}  {row['d']:>3}  "
            f"{row['e']:>3}  {'yes' if row['primitive'] else 'no':<9}  {row['word']}"
        )
    return 0


def cmd_classify(args) -> int:
    params = make_params(args.p, args.q)
    structure = classify(params)
    if args.json:
        _print_json({"params": params_dict(params), "structure": structure_dict(structure)})
        return 0
    d = structure_dict(structure)
    print(f"{params}: primitive disk complex")
    print(f"  connected: {'yes' if d['connected'] else 'no'}")
    print(f"  case: {d['case_tag']} {d['clause']}")
    print(f"  dimension: {d['dimension']}")
    print(f"  edge types present: {d['edge_types_present']}")
    print(f"  simplex types present: {d['simplex_types_present']}")
    print(f"  primitive triple exists: {'yes' if d['triple_exists'] else 'no'}")
    rule = d["common_dual_rule"]
    print(
        f"  common dual disks: all pairs = {'yes' if rule['all_pairs'] else 'no'}, "
        f"count when present = {rule['dual_count']}"
    )
    if d["vertex_orbits"] is not None:
        print(f"  vertex orbits: {d['vertex_orbits']}")
        orbits = ", ".join(
            f"{o['representative']}{' (exchangeable)' if o['exchangeable'] else ''}"
            for o in d["edge_orbits"]["orbits"]
        )
        print(f"  edge orbits: {d['edge_orbits']['count']}: {orbits}")
        print(f"  quotient graph: {d['quotient_graph']}")
    return 0


def cmd_presentation(args) -> int:
    params = make_params(args.p, args.q)
    pres = goeritz_presentation(params)
    sections = []
    if args.format == "json":
        amalgam = amalgam_decomposition(params) if args.amalgam else None
        members = presentation_members(pres, amalgam, args.abelianization)
        # one write, as in _print_json
        sys.stdout.write(f'{{\n  "params": {dumps(params_dict(params), 1)}{members}\n}}\n')
        return 0
    if args.format == "text":
        sections.append(f"Goeritz group of {params}:")
        sections.append(f"  {render(pres, 'text')}")
        sections.append("  generators:")
        for g in pres.all_generators():
            sections.append(f"    {display_name(g.name)}: {g.description}")
    else:
        sections.append(render(pres, "gap"))
    if args.amalgam:
        sections.append("amalgam:")
        sections.append(render(amalgam_decomposition(params), args.format))
    if args.abelianization:
        ab = abelianize_presentation(pres)
        sections.append(f"abelianization: {ab.text()}")
    print("\n".join(sections))
    return 0


def cmd_report(args) -> int:
    params = make_params(args.p, args.q)
    if args.json:
        write_report_json(params, sys.stdout.write)
        return 0
    structure, trace, pres, _ = report_sections(params)
    print(f"report for {params}")
    print(
        f"  p = {params.p}, q = {params.q}, q' = {params.q_prime}, r = {params.r}, "
        f"m = {params.m}"
    )
    print(f"  homeomorphic slopes: {list(params.homeomorphism_slopes)}")
    print(f"  connected: {'yes' if params.connected else 'no'}")
    print(f"  structure case: {structure.case_tag.value} {structure.case_tag.clause}")
    print(f"  sequence primitive indices: {sorted(primitive_indices(params))}")
    if trace is not None:
        print(
            f"  witness: s = {trace.s}, t = {trace.t}, continued fraction "
            f"{list(trace.cf)}, {len(trace.disks)} disks, final word {trace.disks[-1].word}"
        )
    if pres is not None:
        print(f"  presentation: {render(pres, 'text')}")
        ab = abelianize_presentation(pres)
        print(f"  abelianization: torsion {list(ab.torsion)}, free rank {ab.free_rank}")
    return 0


def cmd_sweep(args) -> int:
    result = run_sweep(args.check, args.max_p)
    if args.json:
        _print_json(
            {
                "check": result.check,
                "bound": result.bound,
                "subjects": result.subjects,
                "failures": [
                    {"subject": f.subject, "detail": f.detail} for f in result.failures
                ],
            }
        )
    else:
        print(
            f"check {result.check}: bound {result.bound}, {result.subjects} subjects, "
            f"{len(result.failures)} failures"
        )
        for f in result.failures:
            print(f"  FAIL {f.subject}: {f.detail}")
    return 0 if result.passed else 3


def _add_pq(sub) -> None:
    sub.add_argument("p", type=int)
    sub.add_argument("q", type=int)


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="goeritz",
        description=(
            "Word combinatorics of the genus-2 Heegaard splitting of a lens "
            "space L(p,q): primitivity tests, disk sequences and shells, "
            "primitive disk complex structure, and Goeritz group presentations."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_prim = sub.add_parser("primitive", help="decide primitivity of a word")
    p_prim.add_argument("word")
    p_prim.add_argument(
        "--method", choices=("auto", "oz", "whitehead", "filter"), default="auto"
    )
    p_prim.add_argument("--trace", action="store_true", help="print the move chain")
    p_prim.add_argument("--json", action="store_true")
    p_prim.set_defaults(func=cmd_primitive)

    p_seq = sub.add_parser("sequence", help="the (p,q)-sequence of words")
    _add_pq(p_seq)
    p_seq.add_argument(
        "--verify", action="store_true", help="decide every word with the certified test"
    )
    p_seq.add_argument("--json", action="store_true")
    p_seq.set_defaults(func=cmd_sequence)

    p_shell = sub.add_parser("shell", help="a (p, q-bar)-shell of disks")
    _add_pq(p_shell)
    p_shell.add_argument(
        "--kind", choices=tuple(k.value for k in ShellKind), default="q"
    )
    p_shell.add_argument("--json", action="store_true")
    p_shell.set_defaults(func=cmd_shell)

    p_wit = sub.add_parser("witness", help="replacement trace showing non-connectivity")
    _add_pq(p_wit)
    p_wit.add_argument("--json", action="store_true")
    p_wit.set_defaults(func=cmd_witness)

    p_cls = sub.add_parser("classify", help="structure of the primitive disk complex")
    _add_pq(p_cls)
    p_cls.add_argument("--json", action="store_true")
    p_cls.set_defaults(func=cmd_classify)

    p_pres = sub.add_parser("presentation", help="Goeritz group presentation")
    _add_pq(p_pres)
    p_pres.add_argument("--format", choices=("text", "json", "gap"), default="text")
    p_pres.add_argument("--amalgam", action="store_true")
    p_pres.add_argument("--abelianization", action="store_true")
    p_pres.set_defaults(func=cmd_presentation)

    p_rep = sub.add_parser("report", help="full report for one (p, q)")
    _add_pq(p_rep)
    p_rep.add_argument("--json", action="store_true")
    p_rep.set_defaults(func=cmd_report)

    p_sweep = sub.add_parser("sweep", help="run one verification sweep")
    p_sweep.add_argument("check", choices=sorted(DEFAULT_BOUNDS))
    p_sweep.add_argument(
        "--max-p",
        type=int,
        default=None,
        help="maximal p, or maximal word length for the word-level checks",
    )
    p_sweep.add_argument("--json", action="store_true")
    p_sweep.set_defaults(func=cmd_sweep)

    return parser


# The exit code of a command whose stdout was closed early: 128 + SIGPIPE,
# outside the verdict codes 0-4.
BROKEN_PIPE = 141


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        code = args.func(args)
        # a reader that is gone shows at the last write, so flush here
        sys.stdout.flush()
        return code
    except BrokenPipeError:
        # Python flushes stdout again at exit; point it at devnull, so
        # that flush fails neither loudly nor with exit code 1
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return BROKEN_PIPE
    except (
        InvalidParameters,
        WordParseError,
        MixedAlphabetError,
        DisconnectedComplexError,
        ConnectedComplexError,
    ) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
