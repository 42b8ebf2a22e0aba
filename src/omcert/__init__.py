"""Verifiable oriented-matroid toolkit with machine-checkable proof certificates.

The library covers exact signed-vector arithmetic, chirotope-defined
oriented matroids with tope/cocircuit/covector generation and axiom
checkers, strong-map verdicts, the exhaustive search for uniform rank-3
intermediates on six elements, the assembly of the eight-element
nonfactorizability certificate, and an independent search over rank-3
chirotopes that checks the eight-element claim. The ``omcert`` command line
drives the same stages and emits versioned JSON certificates.

Importing the package loads none of its modules. Each public name, and each
module by its own name, resolves on first use (PEP 562): the home module is
imported then and the name is kept here, so later uses are plain lookups.
"""

__version__ = "0.1.0"

# home module -> the public names it exports
_EXPORTS = {
    "contradiction": (
        "AssumptionRecord", "ContradictionCertificate", "RestrictionCheck",
        "build_contradiction_certificate", "check_restriction", "circuits_conflict",
        "lift_through_restriction", "verify_premise",
    ),
    "certificate": (
        "certificate_document", "search_certificate_from_document", "serialize_certificate",
        "validate_certificate_document", "validate_contradiction_document", "validate_search_document",
    ),
    "matroid": (
        "Chirotope", "CovectorAxiomReport", "TopeSet", "UniformTopeReport", "alternating_chirotope",
        "canonical_tope_count", "check_covector_axioms", "check_uniform_tope_axioms",
        "circuit_on_support", "covectors_of", "is_covector", "pair_swap_chirotope", "phi", "topes_of",
    ),
    "oracle": ("DirectSearchOutcome", "direct_search_n8"),
    "search": (
        "SearchCertificate", "SearchInstance", "SurvivorRecord", "VerificationError",
        "build_search_instance", "enumerate_survivors", "verify_search_conclusions",
    ),
    "signed_vector": ("SignedVector", "sign_string_key"),
    "strong_map": ("StrongMapVerdict", "is_strong_map_covectors", "is_strong_map_topes"),
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = sorted(_HOME)


def __getattr__(name):
    # called only for a name not yet in these globals: an import binds its
    # module here, and an exported value is stored below
    module = name if name in _EXPORTS else _HOME.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from importlib import import_module

    value = import_module(f"{__name__}.{module}")
    if module != name:
        value = globals()[name] = getattr(value, name)
    return value


def __dir__():
    return sorted({*globals(), *_EXPORTS, *__all__})
