"""What `from goeritz import *` binds: the package's public names, no submodule."""

from types import ModuleType

import goeritz

EXPORTED = [
    "AmalgamDecomposition", "CaseTag", "ComplexStructureReport", "ConnectedComplexError",
    "CyclicWord", "DisconnectedComplexError", "DiskClass", "DualPairKind", "FareyLabel",
    "FilterOutcome", "FilterVerdict", "FullReport", "GroupPresentation", "InvalidParameters",
    "MixedAlphabetError", "PqParams", "PqSequence", "PrimitivityCertificate",
    "QuotientGraph", "ReplacementTrace", "Shell", "ShellEntry", "ShellKind", "StabilizerKind",
    "WhiteheadAutomorphism", "Word", "WordParseError", "abelianize", "abelianize_presentation",
    "amalgam_decomposition", "build_report", "build_shell", "check_certificate", "classify",
    "continued_fraction", "cyclic_reduce", "cyclically_equal", "dual_shell_relation",
    "edge_orbits", "goeritz_presentation", "intersection_number", "invert", "is_primitive_cmz",
    "is_primitive_positive", "is_primitive_whitehead", "make_params", "nonconnectivity_witness",
    "nonprimitivity_filter", "oz_canonical_word", "parse_word", "pq_sequence", "primitive_indices",
    "primitivity_certificate", "quotient_graph", "reduce", "render", "replacement", "reverse",
    "seed_labels", "stabilizer_presentation", "substitute", "swap_generators", "verify_symmetry",
    "vertex_orbits", "whitehead_reduce_step",
]


def test_all_is_the_sorted_public_names():
    assert len(EXPORTED) == 65
    assert goeritz.__all__ == sorted(EXPORTED)


def test_star_import_binds_exactly_all_and_no_module():
    namespace = {}
    exec("from goeritz import *", namespace)
    namespace.pop("__builtins__")
    assert sorted(namespace) == goeritz.__all__
    assert not any(isinstance(value, ModuleType) for value in namespace.values())
