"""Full per-(p,q) report: sequence, shells, structure, witness or presentation."""

from __future__ import annotations

from dataclasses import dataclass
from json import dumps
from json.encoder import encode_basestring as _quote  # the C encoder of ensure_ascii=False
from typing import Callable, Iterator, Optional

from .classify import ComplexStructureReport, classify
from .farey import ReplacementTrace, nonconnectivity_witness
from .presentations import (
    AmalgamDecomposition,
    GroupPresentation,
    abelianization_dict,
    abelianize_presentation,
    amalgam_decomposition,
    amalgam_dict,
    goeritz_presentation,
    presentation_dict,
)
from .primitivity import is_primitive_whitehead
from .sequences import (
    PqParams,
    PqSequence,
    check_sequence_size,
    make_params,
    pq_sequence,
    primitive_indices,
    spelled_sequence,
)
from .shells import (
    DiskClass,
    Shell,
    ShellKind,
    _shell_texts,
    build_shell,
    disk_class,
    shell_primitive_indices,
)


@dataclass(frozen=True)
class FullReport:
    """Everything computed for one (p, q).

    The witness trace is present exactly when the complex is
    disconnected; the presentation and amalgam exactly when connected.
    """

    params: PqParams
    sequence: PqSequence
    shells: tuple[Shell, ...]
    structure: ComplexStructureReport
    witness: Optional[ReplacementTrace]
    presentation: Optional[GroupPresentation]
    amalgam: Optional[AmalgamDecomposition]


def build_report(p: int, q: int) -> FullReport:
    params = make_params(p, q)
    connected = params.connected
    return FullReport(
        params=params,
        sequence=pq_sequence(params),
        shells=tuple(build_shell(params, kind) for kind in ShellKind),
        structure=classify(params),
        witness=None if connected else nonconnectivity_witness(params),
        presentation=goeritz_presentation(params) if connected else None,
        amalgam=amalgam_decomposition(params) if connected else None,
    )


def params_dict(params: PqParams) -> dict:
    return {
        "p": params.p,
        "q": params.q,
        "q_prime": params.q_prime,
        "r": params.r,
        "m": params.m,
        "connected": params.connected,
        "homeomorphism_slopes": list(params.homeomorphism_slopes),
    }


def structure_dict(structure: ComplexStructureReport) -> dict:
    return {
        "connected": structure.connected,
        "dimension": structure.dimension,
        "case_tag": structure.case_tag.value,
        "clause": structure.case_tag.clause,
        "edge_types_present": sorted(structure.edge_types_present),
        "simplex_types_present": sorted(structure.simplex_types_present),
        "triple_exists": structure.triple_exists,
        "common_dual_rule": {
            "all_pairs": structure.common_dual_rule.all_pairs,
            "dual_count": structure.common_dual_rule.dual_count,
        },
        "vertex_orbits": structure.vertex_orbits,
        "edge_orbits": None
        if structure.edge_orbits is None
        else {
            "count": structure.edge_orbits.count,
            "orbits": [
                {"representative": o.representative, "exchangeable": o.exchangeable}
                for o in structure.edge_orbits.orbits
            ],
        },
        "quotient_graph": structure.quotient_graph.value,
    }


def witness_dict(trace: ReplacementTrace) -> dict:
    return {
        "s": trace.s,
        "t": trace.t,
        "continued_fraction": list(trace.cf),
        "disks": [
            {
                "step": i,
                "tag": step.tag,
                "fraction": step.label.fraction,
                "d": step.label.d,
                "e": step.label.e,
                "word": str(step.word),
            }
            for i, step in enumerate(trace.disks)
        ],
    }


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


def report_dict(report: FullReport) -> dict:
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


# --- streamed JSON
#
# The writers below print what json.dumps(..., ensure_ascii=False,
# indent=2) prints for `report_dict`, `shell_dict` and the `sequence`
# rows, byte for byte, plus the closing newline.  The nesting is written
# by hand and each sequence word or shell entry from one template, as it
# is made, so no more than one word is held: O(p) memory, not the
# Theta(p^2) of the dicts.  Sections of bounded size go through
# json.dumps, re-indented to their depth.

Write = Callable[[str], object]

# How `sequence` names the class of a word.
SEQUENCE_CLASS = {
    DiskClass.SEMIPRIMITIVE: "semiprimitive-endpoint",
    DiskClass.PRIMITIVE: "primitive",
    DiskClass.NEITHER: "other",
}
_QUOTED_CLASS = {cls: _quote(cls.value) for cls in DiskClass}
_QUOTED_SEQUENCE_CLASS = {cls: _quote(label) for cls, label in SEQUENCE_CLASS.items()}


def _json(value, depth: int) -> str:
    """`value` as json.dumps(..., indent=2) writes it inside `depth` levels of nesting."""
    return dumps(value, ensure_ascii=False, indent=2).replace("\n", "\n" + "  " * depth)


def _pads(depth: int) -> tuple[str, ...]:
    """The line breaks that open lines at `depth`, `depth`+1, ..., `depth`+3 levels."""
    return tuple("\n" + "  " * (depth + i) for i in range(4))


def _write_shell(params: PqParams, kind: ShellKind, depth: int, write: Write) -> None:
    """`shell_dict(build_shell(params, kind))` as an object nested `depth`
    levels deep, one entry at a time."""
    p = params.p
    slope = kind.slope(params)
    primitive = shell_primitive_indices(params, kind)
    pad, pad1, pad2, pad3 = _pads(depth)
    write(f'{{{pad1}"kind": {_quote(kind.value)},{pad1}"slope": {slope},{pad1}"entries": [')
    sep = ""
    for j, text in enumerate(_shell_texts(p, slope)):
        write(
            f'{sep}{pad2}{{{pad3}"index": {j},{pad3}"word": "{text}",'
            f'{pad3}"class": {_QUOTED_CLASS[disk_class(j, p, primitive)]}{pad2}}}'
        )
        sep = ","
    write(f"{pad1}]{pad}}}")


def write_shell_json(params: PqParams, kind: ShellKind, write: Write) -> None:
    """What `shell --json` prints: the params and one shell."""
    check_sequence_size(params.p)
    write(f'{{\n  "params": {_json(params_dict(params), 1)},\n  "shell": ')
    _write_shell(params, kind, 1, write)
    write("\n}\n")


def sequence_rows(
    params: PqParams, verify: bool
) -> Iterator[tuple[int, str, DiskClass, Optional[bool]]]:
    """(j, w_j, class, the oracle's verdict on w_j if `verify` else None),
    one word of the (p,q)-sequence at a time."""
    p = params.p
    primitive = primitive_indices(params)
    for j, spelled in enumerate(spelled_sequence(p, params.q)):
        word = spelled.decode("ascii")
        yield j, word, disk_class(j, p, primitive), is_primitive_whitehead(word) if verify else None


def write_sequence_json(params: PqParams, verify: bool, write: Write) -> int:
    """What `sequence --json` prints; returns how many oracle verdicts
    differ from the classes (0 without `verify`)."""
    check_sequence_size(params.p)
    write(f'{{\n  "params": {_json(params_dict(params), 1)},\n  "rows": [')
    _, pad1, pad2, pad3 = _pads(1)
    mismatch = 0
    sep = ""
    for j, word, cls, oracle in sequence_rows(params, verify):
        row = (
            f'{sep}{pad1}{{{pad2}"j": {j},{pad2}"word": "{word}",'
            f'{pad2}"class": {_QUOTED_SEQUENCE_CLASS[cls]}'
        )
        if verify:
            row += f',{pad2}"oracle_primitive": {"true" if oracle else "false"}'
            mismatch += oracle != (cls is DiskClass.PRIMITIVE)
        write(f"{row}{pad1}}}")
        sep = ","
    write("\n  ]")
    if verify:
        write(f',\n  "oracle_agreement": {"true" if mismatch == 0 else "false"}')
    write("\n}\n")
    return mismatch


def write_report_json(params: PqParams, write: Write) -> None:
    """What `report --json` prints: `report_dict(build_report(p, q))`,
    with the sequence and shells written as they are made."""
    check_sequence_size(params.p)
    # the bounded sections, made before anything is written
    tail = {"structure": structure_dict(classify(params)), "witness": None, "presentation": None,
            "amalgam": None}
    if params.connected:
        pres = goeritz_presentation(params)
        tail["presentation"] = presentation_dict(pres)
        tail["amalgam"] = amalgam_dict(amalgam_decomposition(params))
        tail["abelianization"] = abelianization_dict(abelianize_presentation(pres))
    else:
        tail["witness"] = witness_dict(nonconnectivity_witness(params))

    write(f'{{\n  "params": {_json(params_dict(params), 1)},\n  "sequence": {{\n    "words": [')
    sep = '\n      "'
    for spelled in spelled_sequence(params.p, params.q):
        write(sep + spelled.decode("ascii") + '"')
        sep = ',\n      "'
    indices = _json(sorted(primitive_indices(params)), 2)
    write(f'\n    ],\n    "primitive_indices": {indices}\n  }},\n  "shells": [')
    sep = "\n    "
    for kind in ShellKind:
        write(sep)
        _write_shell(params, kind, 2, write)
        sep = ",\n    "
    write("\n  ]")
    write("".join(f",\n  {_quote(key)}: {_json(value, 1)}" for key, value in tail.items()))
    write("\n}\n")
