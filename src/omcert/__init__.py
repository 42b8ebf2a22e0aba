"""Verifiable oriented-matroid toolkit with machine-checkable proof certificates.

The library covers exact signed-vector arithmetic, chirotope-defined
oriented matroids with tope/cocircuit/covector generation and axiom
checkers, strong-map verdicts, the exhaustive search for uniform rank-3
intermediates on six elements, and the assembly of the eight-element
nonfactorizability certificate. The ``omcert`` command line drives the same
stages and emits versioned JSON certificates.
"""

from .contradiction import (
    AssumptionRecord,
    ContradictionCertificate,
    DirectSearchOutcome,
    RestrictionCheck,
    build_contradiction_certificate,
    check_restriction,
    circuits_conflict,
    direct_search_n8,
    lift_through_restriction,
    verify_premise,
)
from .certificate import (
    certificate_document,
    search_certificate_from_document,
    serialize_certificate,
    validate_certificate_document,
    validate_contradiction_document,
    validate_search_document,
)
from .matroid import (
    Chirotope,
    CovectorAxiomReport,
    TopeSet,
    UniformTopeReport,
    alternating_chirotope,
    canonical_tope_count,
    check_covector_axioms,
    check_uniform_tope_axioms,
    circuit_on_support,
    covectors_of,
    is_covector,
    pair_swap_chirotope,
    phi,
    topes_of,
)
from .search import (
    SearchCertificate,
    SearchInstance,
    SurvivorRecord,
    VerificationError,
    build_search_instance,
    enumerate_survivors,
    verify_search_conclusions,
)
from .signed_vector import SignedVector, sign_string_key
from .strong_map import (
    StrongMapVerdict,
    is_strong_map_covectors,
    is_strong_map_topes,
)

__version__ = "0.1.0"

__all__ = [
    "AssumptionRecord",
    "Chirotope",
    "ContradictionCertificate",
    "CovectorAxiomReport",
    "DirectSearchOutcome",
    "RestrictionCheck",
    "SearchCertificate",
    "SearchInstance",
    "SignedVector",
    "StrongMapVerdict",
    "SurvivorRecord",
    "TopeSet",
    "UniformTopeReport",
    "VerificationError",
    "alternating_chirotope",
    "build_contradiction_certificate",
    "build_search_instance",
    "canonical_tope_count",
    "certificate_document",
    "check_covector_axioms",
    "check_restriction",
    "check_uniform_tope_axioms",
    "circuit_on_support",
    "circuits_conflict",
    "covectors_of",
    "direct_search_n8",
    "enumerate_survivors",
    "is_covector",
    "is_strong_map_covectors",
    "is_strong_map_topes",
    "lift_through_restriction",
    "pair_swap_chirotope",
    "phi",
    "search_certificate_from_document",
    "serialize_certificate",
    "sign_string_key",
    "topes_of",
    "validate_certificate_document",
    "validate_contradiction_document",
    "validate_search_document",
    "verify_premise",
    "verify_search_conclusions",
]
