"""Full per-(p,q) report: sequence, shells, structure, witness or presentation."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

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
from .sequences import PqParams, PqSequence, make_params, pq_sequence
from .shells import Shell, ShellKind, build_shell


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
