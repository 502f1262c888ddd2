"""Word combinatorics of genus-2 Heegaard splittings of lens spaces.

Computes, for a lens space L(p,q): primitive elements of the rank-two
free group, (p,q)-sequences and shells of disks, connectivity and
structure of the primitive disk complex, replacement traces witnessing
non-connectivity, and finite presentations of the genus-2 Goeritz group.
"""

from types import ModuleType as _ModuleType

from .words import (
    CyclicWord,
    MixedAlphabetError,
    Word,
    WordParseError,
    abelianize,
    cyclic_reduce,
    cyclically_equal,
    invert,
    parse_word,
    reduce,
    reverse,
    substitute,
    swap_generators,
)
from .euclid import (
    PrimitivityCertificate, check_certificate, is_primitive_cmz, primitivity_certificate
)
from .primitivity import (
    FilterOutcome,
    FilterVerdict,
    WhiteheadAutomorphism,
    is_primitive_positive,
    is_primitive_whitehead,
    nonprimitivity_filter,
    oz_canonical_word,
    whitehead_reduce_step,
)
from .sequences import (
    InvalidParameters,
    PqParams,
    PqSequence,
    make_params,
    pq_sequence,
    primitive_indices,
    verify_symmetry,
)
from .shells import (
    DiskClass,
    DualPairKind,
    Shell,
    ShellEntry,
    ShellKind,
    build_shell,
    dual_shell_relation,
    intersection_number,
)
from .farey import (
    ConnectedComplexError,
    FareyLabel,
    ReplacementTrace,
    continued_fraction,
    nonconnectivity_witness,
    replacement,
    seed_labels,
)
from .classify import (
    CaseTag,
    ComplexStructureReport,
    DisconnectedComplexError,
    QuotientGraph,
    classify,
    edge_orbits,
    quotient_graph,
    vertex_orbits,
)
from .presentations import (
    AmalgamDecomposition,
    GroupPresentation,
    StabilizerKind,
    abelianize_presentation,
    amalgam_decomposition,
    goeritz_presentation,
    render,
    stabilizer_presentation,
)
from .report import FullReport, build_report

# The names imported above, sorted; not the submodules that importing them binds.
__all__ = sorted(
    name for name, value in globals().items()
    if not name.startswith("_") and not isinstance(value, _ModuleType)
)
