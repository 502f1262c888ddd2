"""Full per-(p,q) report: sequence, shells, structure, witness or presentation.

The streamed writers are the one source of the JSON of `report`,
`sequence` and `shell`; `report_dict` is the parse of what
`write_report_json` writes.  `report_sections` decides a report's
sections and `shells.class_table` classes the words of a shell or
sequence, for the writers, the CLI's text and the library objects alike.
"""

from __future__ import annotations

from bisect import bisect_left
from json import loads
from json.encoder import encode_basestring as _quote  # the C encoder of ensure_ascii=False
from typing import Callable, Iterable, Iterator, Optional

from ._records import record
from .classify import ComplexStructureReport, classify
from .euclid import is_primitive_cmz
from .farey import ReplacementTrace, nonconnectivity_witness
from .jsontext import dumps
from .presentations import (
    AmalgamDecomposition,
    GroupPresentation,
    abelianization_dict,
    abelianize_presentation,
    amalgam_decomposition,
    goeritz_presentation,
    render,
)
from .sequences import (
    PqParams,
    PqSequence,
    check_sequence_size,
    make_params,
    pq_sequence,
    primitive_indices,
    spelled_sequence,
)
from .shells import DISK_CLASSES, DiskClass, Shell, ShellKind, build_shell, class_table, shell_stream


@record
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


def report_sections(params: PqParams) -> tuple:
    """The sections of a report after its sequence and shells: the
    structure, witness, presentation and amalgam, `FullReport`'s last
    fields in order.  Refuse a sequence past the letter cap, then
    classify: the witness when the complex is disconnected, else the
    presentation and amalgam."""
    check_sequence_size(params.p)
    structure = classify(params)
    if params.connected:
        return structure, None, goeritz_presentation(params), amalgam_decomposition(params)
    return structure, nonconnectivity_witness(params), None, None


def build_report(p: int, q: int) -> FullReport:
    params = make_params(p, q)
    sections = report_sections(params)
    shells = tuple(build_shell(params, kind) for kind in ShellKind)
    return FullReport(params, pq_sequence(params), shells, *sections)


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


def report_dict(report: FullReport) -> dict:
    """The dict `report --json` is the dump of: the parse of what
    `write_report_json` writes for `report.params`."""
    chunks: list[str] = []
    write_report_json(report.params, chunks.append)
    return loads("".join(chunks))


# --- streamed JSON
#
# The writers below print what json.dumps(..., ensure_ascii=False, indent=2)
# prints, plus the closing newline.  The nesting is written by hand; a row is
# its head (made per index up front), its word as it is made and its class's
# tail.  One `write` takes a chunk of about _CHUNK characters: O(p) memory for
# Theta(p^2) characters of output.  Bounded sections are jsontext.dumps at their
# depth, a presentation and amalgam their memoized `render(obj, "json")`.

Write = Callable[[str], object]

# How `sequence` names each class, by its index in DISK_CLASSES.
_SEQUENCE_NAMES = {DiskClass.SEMIPRIMITIVE: "semiprimitive-endpoint", DiskClass.NEITHER: "other"}
SEQUENCE_CLASS = tuple(_SEQUENCE_NAMES.get(cls, cls.value) for cls in DISK_CLASSES)
_CHUNK = 1 << 16


def _pads(depth: int) -> tuple[str, ...]:
    """The line breaks that open lines at `depth`, `depth`+1, ..., `depth`+3 levels."""
    return tuple("\n" + "  " * (depth + i) for i in range(4))


def _row_heads(p: int, key: str, depth: int) -> list[str]:
    """Rows j = 0, ..., p of an array of objects `depth` levels deep, up to
    the word: `{"<key>": j, "word": "`, after a comma but the first."""
    pad, pad1 = _pads(depth)[:2]
    return [f'{"," if j else ""}{pad}{{{pad1}"{key}": {j},{pad1}"word": "' for j in range(p + 1)]


def _write_chunked(write: Write, pieces: Iterable[str]) -> None:
    """Write `pieces` in order, joined into one `write` per about _CHUNK characters."""
    chunk: list[str] = []
    size = 0
    for piece in pieces:
        chunk.append(piece)
        size += len(piece)
        if size > _CHUNK:
            write("".join(chunk))
            chunk, size = [], 0
    write("".join(chunk))


def _write_shell(params: PqParams, kind: ShellKind, stream, heads, depth: int, write: Write) -> None:
    """One shell, from its `shell_stream` and its entries' `heads`, nested `depth` levels deep."""
    pad, pad1, pad2, pad3 = _pads(depth)
    classes, texts = stream
    tails = [f'",{pad3}"class": {_quote(cls.value)}{pad2}}}' for cls in DISK_CLASSES]
    write(f'{{{pad1}"kind": {_quote(kind.value)},{pad1}"slope": {kind.slope(params)},{pad1}"entries": [')
    _write_chunked(write, (heads[j] + text + tails[classes[j]] for j, text in enumerate(texts)))
    write(f"{pad1}]{pad}}}")


def write_shell_json(params: PqParams, kind: ShellKind, write: Write) -> None:
    """What `shell --json` prints: the params and one shell."""
    stream = shell_stream(params, kind)
    write(f'{{\n  "params": {dumps(params_dict(params), 1)},\n  "shell": ')
    _write_shell(params, kind, stream, _row_heads(params.p, "index", 3), 1, write)
    write("\n}\n")


def sequence_rows(
    params: PqParams, verify: bool
) -> Iterator[tuple[int, str, int, Optional[bool]]]:
    """(j, w_j, its class as an index in DISK_CLASSES, the certified verdict on
    w_j if `verify` else None), one word of the (p,q)-sequence at a time;
    refused past the letter cap at the call."""
    p = params.p
    check_sequence_size(p)
    classes = class_table(p, primitive_indices(params))
    words = enumerate(spelled_sequence(p, params.q))
    if not verify:
        return ((j, word, classes[j], None) for j, word in words)
    # a word the gap step decides fails the decision's first step; the rest,
    # the ends and every primitive word among them, get the whole decision
    return (
        (j, word, classes[j], not fails and is_primitive_cmz(word))
        for (j, word), fails in zip(words, _first_step_failures(p, params.q))
    )


def _first_step_failures(p: int, q: int) -> Iterator[bool]:
    """For j = 0, ..., p: whether the gaps of w_j show it not primitive at
    the Euclid decision's first step, as `_fails_first_step` reads them;
    False at both ends, which the gaps do not decide.

    Walks the z positions j * q mod p as `spelled_sequence` sets them,
    kept sorted, with a count of each gap length: the number of y's
    between cyclically consecutive z's.  Each new z splits one gap in two.
    The shortest gap of each w_j with j <= p / 2 is kept for the words
    past the middle.
    """
    yield False
    positions: list[int] = []
    gaps: dict[int, int] = {}
    shortest = [p]  # w_0 has no gap; its entry is never read
    for j in range(1, p):
        z = (j - 1) * q % p
        if positions:
            i = bisect_left(positions, z)
            before, after = positions[i - 1], positions[i % len(positions)]
            gap = (after - before - 1) % p
            gaps[gap] -= 1
            if not gaps[gap]:
                del gaps[gap]
            for part in ((z - before - 1) % p, (after - z - 1) % p):
                gaps[part] = gaps.get(part, 0) + 1
            positions.insert(i, z)
        else:
            positions.append(z)
            gaps[p - 1] = 1
        if 2 * j <= p:
            shortest.append(min(gaps))
        yield _fails_first_step(p, j, gaps, shortest)
    yield False


def _fails_first_step(p: int, j: int, gaps: dict[int, int], shortest: list[int]) -> bool:
    """Whether w_j, 1 <= j < p, with `gaps` counting its gap lengths, fails
    the Euclid decision's first step; `shortest[i]` is the shortest gap of
    w_i for i <= p / 2.

    With z the rarer letter (j <= p - j) it fails when a gap holds fewer
    than k = (p - j) // j y's: a repeated z or a run shorter than k.  With
    y the rarer letter it fails on a repeated y, a gap of two or more, or
    when two y's have fewer than k = j // (p - j) z's between them.  The
    y's of w_j sit at i * q mod p for j <= i < p, the z's of w_(p-j)
    moved on by j * q, so its runs of z's are the gaps of w_(p-j)."""
    if 2 * j <= p:
        return min(gaps) < (p - j) // j
    return max(gaps) >= 2 or shortest[p - j] < j // (p - j)


def oracle_disagrees(cls: int, verdict: bool) -> bool:
    """Whether the certified verdict on a word of the sequence contradicts its
    class, an index in DISK_CLASSES: `sequence --verify` counts these as mismatches."""
    return verdict != (DISK_CLASSES[cls] is DiskClass.PRIMITIVE)


def write_sequence_json(params: PqParams, verify: bool, write: Write) -> int:
    """What `sequence --json` prints; returns how many certified verdicts
    differ from the classes (0 without `verify`)."""
    rows = sequence_rows(params, verify)
    heads, (_, pad1, pad2, _) = _row_heads(params.p, "j", 2), _pads(1)
    tails = [f'",{pad2}"class": {_quote(label)}' for label in SEQUENCE_CLASS]
    ends = {None: pad1 + "}"} | {v: f',{pad2}"oracle_primitive": {dumps(v)}{pad1}}}' for v in (True, False)}
    mismatch = 0

    def pieces() -> Iterator[str]:
        nonlocal mismatch
        for j, word, cls, verdict in rows:
            mismatch += verify and oracle_disagrees(cls, verdict)
            yield heads[j] + word + tails[cls] + ends[verdict]

    write(f'{{\n  "params": {dumps(params_dict(params), 1)},\n  "rows": [')
    _write_chunked(write, pieces())
    agreement = f',\n  "oracle_agreement": {dumps(mismatch == 0)}' if verify else ""
    write(f"\n  ]{agreement}\n}}\n")
    return mismatch


def presentation_members(
    pres: GroupPresentation, amalgam: Optional[AmalgamDecomposition], abelianization: bool
) -> str:
    """The `presentation`, `amalgam` (unless None) and, if asked,
    `abelianization` members of a top-level JSON object, each after its
    comma, for `report --json` and `presentation --format json`; the
    first two are their memoized `render(obj, "json")`, one level deeper."""
    objects = {"presentation": pres, "amalgam": amalgam}
    texts = {key: render(obj, "json").replace("\n", "\n  ") for key, obj in objects.items() if obj}
    if abelianization:
        texts["abelianization"] = dumps(abelianization_dict(abelianize_presentation(pres)), 1)
    return "".join(f",\n  {_quote(key)}: {text}" for key, text in texts.items())


def write_report_json(params: PqParams, write: Write) -> None:
    """What `report --json` prints: the params, the sequence and the
    shells, written as they are made, then the sections of
    `report_sections` (and the abelianization of a presentation)."""
    # the bounded sections' text, made before anything is written
    structure, witness, pres, amalgam = report_sections(params)
    tail = (
        f',\n  "structure": {dumps(structure_dict(structure), 1)}'
        f',\n  "witness": {"null" if witness is None else dumps(witness_dict(witness), 1)}'
    )
    if pres is None:
        tail += ',\n  "presentation": null,\n  "amalgam": null'
    else:
        tail += presentation_members(pres, amalgam, abelianization=True)

    write(f'{{\n  "params": {dumps(params_dict(params), 1)},\n  "sequence": {{\n    "words": [')
    words = enumerate(spelled_sequence(params.p, params.q))
    _write_chunked(write, (f'{"," if j else ""}\n      "{word}"' for j, word in words))
    indices = dumps(sorted(primitive_indices(params)), 2)
    write(f'\n    ],\n    "primitive_indices": {indices}\n  }},\n  "shells": [')
    heads = _row_heads(params.p, "index", 4)
    for i, kind in enumerate(ShellKind):
        write(",\n    " if i else "\n    ")
        _write_shell(params, kind, shell_stream(params, kind), heads, 2, write)
    write("\n  ]" + tail + "\n}\n")
