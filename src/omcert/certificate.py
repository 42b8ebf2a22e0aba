"""Versioned JSON certificates and their offline re-validation.

One schema serves both certificate flavors; the top-level keys are always
``version, instance, counts, survivors, restrictions, conclusion`` in that
order. Signed vectors serialize as strings over {+,-,0}; element subsets
serialize as comma-joined ascending integers inside key strings. Documents
are built from deterministically ordered data only, so serialized bytes are
identical across runs and thread counts.

Validation first checks the document's shape, so malformed input yields
problems rather than exceptions, then re-checks everything that is
closed-form (instance metadata, counts, memberships, witness patterns,
circuit uniqueness, chirotope equalities, the circuit conflict) without
re-running the 184,756-case enumeration. Regenerating
the instance tope sets (well under a second) is allowed and used to anchor
the membership checks.
"""

from __future__ import annotations

import json
from typing import Any

from .contradiction import (
    FULL_N,
    INTERMEDIATE_RANK,
    KEPT_A,
    KEPT_B,
    SOURCE_RANK,
    TARGET_RANK,
    ContradictionCertificate,
    check_restriction,
    circuits_conflict,
    source_topes,
    target_topes,
)
from .matroid import (
    TopeSet,
    _subset_rank,
    check_uniform_tope_axioms,
    circuit_on_support,
)
from .search import (
    CIRCUIT_SUPPORTS,
    EXCLUDED_TOPES,
    FORCED_CIRCUITS,
    SearchCertificate,
    SearchInstance,
    SurvivorRecord,
    build_search_instance,
)
from .signed_vector import SignedVector
from .strong_map import is_strong_map_topes

CERTIFICATE_VERSION = 1

SOURCE_FAMILY = "alternating"
TARGET_FAMILY = "m2"


def subset_key(subset: tuple[int, ...]) -> str:
    return ",".join(str(e) for e in subset)


def parse_subset_key(key: str) -> tuple[int, ...]:
    return tuple(int(p) for p in key.split(","))


def _search_instance_fields(inst: SearchInstance) -> dict[str, Any]:
    """The metadata a search document states about its instance, in order."""
    return {
        "n": inst.n,
        "rank": inst.rank,
        "choose": inst.choose,
        "source_family": SOURCE_FAMILY,
        "source_rank": SOURCE_RANK,
        "target_family": TARGET_FAMILY,
        "target_rank": TARGET_RANK,
    }


_PIPELINE_INSTANCE_FIELDS = {
    "n": FULL_N,
    "source_family": SOURCE_FAMILY,
    "source_rank": SOURCE_RANK,
    "target_family": TARGET_FAMILY,
    "target_rank": TARGET_RANK,
    "intermediate_rank": INTERMEDIATE_RANK,
}


def _survivor_entry(s: SurvivorRecord) -> dict[str, Any]:
    return {
        "topes": list(s.tope_strings()),
        "vc_witnesses": {subset_key(q): str(w) for q, w in s.vc_witnesses},
        "excluded_check": {t: absent for t, absent in s.excluded_absent},
        "circuits": {subset_key(q): str(c) for q, c in s.circuits},
    }


def search_certificate_document(cert: SearchCertificate) -> dict[str, Any]:
    inst = cert.instance
    return {
        "version": CERTIFICATE_VERSION,
        "instance": {
            **_search_instance_fields(inst),
            "base_topes": [str(t) for t in inst.base],
            "pool_topes": [str(t) for t in inst.pool],
        },
        "counts": {
            "source_topes": len(inst.base) + len(inst.pool),
            "target_topes": len(inst.base),
            "pool_size": len(inst.pool),
            "combinations_checked": cert.combinations_checked,
            "survivor_count": len(cert.survivors),
        },
        "survivors": [_survivor_entry(s) for s in cert.survivors],
        "restrictions": [],
        "conclusion": {
            "circuits": {
                subset_key(q): str(c)
                for q, c in zip(CIRCUIT_SUPPORTS, cert.conclusion_circuits)
            },
        },
    }


def contradiction_certificate_document(cert: ContradictionCertificate) -> dict[str, Any]:
    doc = search_certificate_document(cert.search)
    return {
        "version": CERTIFICATE_VERSION,
        "instance": {**_PIPELINE_INSTANCE_FIELDS, "reduction": doc["instance"]},
        "counts": {
            "source_topes": cert.source_tope_count,
            "target_topes": cert.target_tope_count,
            "reduction_source_topes": doc["counts"]["source_topes"],
            "reduction_target_topes": doc["counts"]["target_topes"],
            "combinations_checked": cert.search.combinations_checked,
            "survivor_count": len(cert.search.survivors),
        },
        "survivors": doc["survivors"],
        "restrictions": [
            {
                "kept": subset_key(rc.kept),
                "source_restriction_is_alternating": rc.source_restriction_is_alternating,
                "target_restriction_matches": rc.target_restriction_matches,
                "lifted_circuit": str(rc.lifted_circuit),
            }
            for rc in (cert.restriction_a, cert.restriction_b)
        ],
        "conclusion": {
            "premise_strong_map": {
                "holds": cert.premise.holds,
                "method": cert.premise.method,
                "corank": cert.premise.corank,
            },
            "search_verified": cert.search_verified,
            "circuit_a": str(cert.restriction_a.lifted_circuit),
            "circuit_b": str(cert.restriction_b.lifted_circuit),
            "contradiction": cert.circuits_conflict,
            "verdict": cert.verdict,
            "assumptions": [
                {
                    "name": a.name,
                    "statement": a.statement,
                    "verified": a.verified,
                    "note": a.note,
                }
                for a in cert.assumptions
            ],
        },
    }


def certificate_document(cert: SearchCertificate | ContradictionCertificate) -> dict[str, Any]:
    if isinstance(cert, ContradictionCertificate):
        return contradiction_certificate_document(cert)
    return search_certificate_document(cert)


def serialize_certificate(cert: SearchCertificate | ContradictionCertificate | dict) -> bytes:
    doc = cert if isinstance(cert, dict) else certificate_document(cert)
    return (json.dumps(doc, indent=2, ensure_ascii=False) + "\n").encode("utf-8")


def search_certificate_from_document(doc: dict[str, Any]) -> SearchCertificate:
    """Rebuild the in-memory search certificate from its document form."""
    inst_doc = doc["instance"]
    inst = SearchInstance(
        n=inst_doc["n"],
        rank=inst_doc["rank"],
        choose=inst_doc["choose"],
        base=tuple(SignedVector.parse(s) for s in inst_doc["base_topes"]),
        pool=tuple(SignedVector.parse(s) for s in inst_doc["pool_topes"]),
    )
    survivors = tuple(
        SurvivorRecord(
            topes=tuple(SignedVector.parse(s) for s in entry["topes"]),
            vc_witnesses=tuple(
                (parse_subset_key(k), SignedVector.parse(v))
                for k, v in entry["vc_witnesses"].items()
            ),
            excluded_absent=tuple(entry["excluded_check"].items()),
            circuits=tuple(
                (parse_subset_key(k), SignedVector.parse(v))
                for k, v in entry["circuits"].items()
            ),
        )
        for entry in doc["survivors"]
    )
    circuits = doc["conclusion"]["circuits"]
    conclusion = tuple(SignedVector.parse(circuits[subset_key(q)]) for q in CIRCUIT_SUPPORTS)
    return SearchCertificate(
        instance=inst,
        combinations_checked=doc["counts"]["combinations_checked"],
        survivors=survivors,
        conclusion_circuits=(conclusion[0], conclusion[1]),
    )


# ----------------------------------------------------------------------
# validation
# ----------------------------------------------------------------------

# Document shapes: a JSON type, an object {key: shape}, or [shape] for an
# array whose every item has that shape. They cover what the checks index or
# iterate; scalars that are only compared with an expected value are read
# with .get instead, so a missing one shows up as a mismatch.
_SEARCH_INSTANCE_SHAPE = {"base_topes": list, "pool_topes": list}
_SURVIVORS_SHAPE = [{"topes": [str], "vc_witnesses": dict, "excluded_check": dict, "circuits": dict}]
_SEARCH_SHAPE = {
    "instance": _SEARCH_INSTANCE_SHAPE,
    "counts": dict,
    "survivors": _SURVIVORS_SHAPE,
    "conclusion": {"circuits": dict},
}
_CONTRADICTION_SHAPE = {
    "instance": {"reduction": _SEARCH_INSTANCE_SHAPE},
    "counts": dict,
    "survivors": _SURVIVORS_SHAPE,
    "restrictions": [{"kept": str}],
    "conclusion": {"premise_strong_map": dict},
}
_JSON_TYPE_NAMES = {str: "a string", list: "an array", dict: "an object"}


def _shape_problems(value: Any, shape: Any, where: str) -> list[str]:
    if isinstance(shape, dict):
        if type(value) is not dict:
            return [f"{where} is not an object"]
        problems = []
        for key, inner in shape.items():
            if key in value:
                problems += _shape_problems(value[key], inner, f"{where}.{key}")
            else:
                problems.append(f"{where}.{key} is missing")
        return problems
    if isinstance(shape, list):
        if type(value) is not list:
            return [f"{where} is not an array"]
        return [p for i, item in enumerate(value) for p in _shape_problems(item, shape[0], f"{where}[{i}]")]
    if type(value) is not shape:
        return [f"{where} is not {_JSON_TYPE_NAMES[shape]}"]
    return []


def _document_problems(doc: Any, shape: dict[str, Any]) -> list[str]:
    """Problems that stop validation before the semantic checks: a document
    that is not an object, an unsupported version, or a departure from ``shape``."""
    if type(doc) is not dict:
        return ["document is not a JSON object"]
    version = doc.get("version")
    if type(version) is not int or version != CERTIFICATE_VERSION:
        return [f"unsupported version {version!r}"]
    return _shape_problems(doc, shape, "document")


def _check_fields(problems: list[str], where: str, stated: dict[str, Any], expected: dict[str, Any]) -> None:
    """Each stated value must equal the expected one and have its JSON type
    (so ``true`` is not 1 and ``6.0`` is not 6)."""
    for key, want in expected.items():
        got = stated.get(key)
        if type(got) is not type(want) or got != want:
            problems.append(f"{where}.{key} is {got!r}, expected {want!r}")


def _validate_survivors(
    problems: list[str],
    survivors: list[dict[str, Any]],
    fresh: SearchInstance,
    base: tuple[str, ...],
    pool: tuple[str, ...],
) -> None:
    base_set = set(base)
    member_set = base_set | set(pool)
    pool_index = {t: i for i, t in enumerate(pool)}
    expected_circuits = dict(zip(CIRCUIT_SUPPORTS, FORCED_CIRCUITS))

    seen: set[frozenset[str]] = set()
    prev_rank = -1
    for idx, entry in enumerate(survivors):
        tag = f"survivor {idx}"
        topes = entry["topes"]
        if len(topes) != len(base) + fresh.choose:
            problems.append(f"{tag}: expected {len(base) + fresh.choose} topes, found {len(topes)}")
            continue
        tset = frozenset(topes)
        if len(tset) != len(topes):
            problems.append(f"{tag}: duplicate topes")
            continue
        if not base_set <= tset:
            problems.append(f"{tag}: base topes missing")
            continue
        if not tset <= member_set:
            problems.append(f"{tag}: topes outside the instance pool")
            continue
        if tset in seen:
            problems.append(f"{tag}: duplicates another survivor")
        seen.add(tset)

        picks = tuple(sorted(pool_index[t] + 1 for t in tset - base_set))
        combo_rank = _subset_rank(picks, len(pool))
        if combo_rank <= prev_rank:
            problems.append(f"{tag}: out of enumeration order")
        prev_rank = combo_rank

        try:
            tope_set = TopeSet(fresh.n, fresh.rank, frozenset(SignedVector.parse(t) for t in topes))
        except ValueError as exc:
            problems.append(f"{tag}: malformed tope: {exc}")
            continue

        report = check_uniform_tope_axioms(tope_set)
        if not report.passed:
            problems.append(f"{tag}: fails the uniform tope-set axioms")
            continue
        stated = {k: v for k, v in entry["vc_witnesses"].items()}
        for q, w in report.witnesses:
            if stated.get(subset_key(q)) != str(w):
                problems.append(f"{tag}: witness for {subset_key(q)} is not the first avoided pattern")
                break
        for tope, absent in entry["excluded_check"].items():
            if tope not in EXCLUDED_TOPES:
                problems.append(f"{tag}: unexpected exclusion entry {tope}")
            elif not absent or tope in tset:
                problems.append(f"{tag}: excluded tope {tope} present")
        for q, expected in expected_circuits.items():
            stated_circuit = entry["circuits"].get(subset_key(q))
            if stated_circuit != expected:
                problems.append(f"{tag}: circuit on {subset_key(q)} is {stated_circuit}, expected {expected}")
                continue
            if str(circuit_on_support(tope_set, q)) != expected:
                problems.append(f"{tag}: stated circuit on {subset_key(q)} does not match the tope set")


def _validate_search_core(
    problems: list[str],
    where: str,
    inst_doc: dict[str, Any],
    counts: dict[str, Any],
    survivors: list[dict[str, Any]],
) -> None:
    fresh = build_search_instance()
    _check_fields(problems, where, inst_doc, _search_instance_fields(fresh))
    base = tuple(str(t) for t in fresh.base)
    pool = tuple(str(t) for t in fresh.pool)
    if tuple(inst_doc["base_topes"]) != base:
        problems.append("instance base topes differ from the generated target topes")
    if tuple(inst_doc["pool_topes"]) != pool:
        problems.append("instance pool topes differ from the generated pool")
    expected_counts = {
        "combinations_checked": fresh.combination_count,
        "survivor_count": len(survivors),
    }
    _check_fields(problems, "document.counts", counts, expected_counts)
    _validate_survivors(problems, survivors, fresh, base, pool)


def validate_search_document(doc: dict[str, Any]) -> list[str]:
    """Re-check a search certificate document; returns problem descriptions."""
    problems = _document_problems(doc, _SEARCH_SHAPE)
    if problems:
        return problems
    _validate_search_core(
        problems, "document.instance", doc["instance"], doc["counts"], doc["survivors"]
    )
    stated = doc["conclusion"]["circuits"]
    for q, c in zip(CIRCUIT_SUPPORTS, FORCED_CIRCUITS):
        if stated.get(subset_key(q)) != c:
            problems.append(f"conclusion circuit on {subset_key(q)} is {stated.get(subset_key(q))}, expected {c}")
    return problems


def validate_contradiction_document(doc: dict[str, Any]) -> list[str]:
    """Re-check a full pipeline document; returns problem descriptions."""
    problems = _document_problems(doc, _CONTRADICTION_SHAPE)
    if problems:
        return problems
    instance, counts = doc["instance"], doc["counts"]
    _check_fields(problems, "document.instance", instance, _PIPELINE_INSTANCE_FIELDS)
    _validate_search_core(
        problems, "document.instance.reduction", instance["reduction"], counts, doc["survivors"]
    )

    source, target = source_topes(FULL_N), target_topes(FULL_N)
    premise = is_strong_map_topes(source, target)
    stated_premise = doc["conclusion"]["premise_strong_map"]
    if stated_premise.get("holds") is not True or not premise.holds:
        problems.append("premise strong map does not hold")
    _check_fields(
        problems,
        "document.conclusion.premise_strong_map",
        stated_premise,
        {"corank": premise.corank},
    )
    _check_fields(
        problems,
        "document.counts",
        counts,
        {"source_topes": len(source), "target_topes": len(target)},
    )

    forced = tuple(SignedVector.parse(c) for c in FORCED_CIRCUITS)
    kept_sets = {subset_key(k): k for k in (KEPT_A, KEPT_B)}
    lifted: dict[tuple[int, ...], SignedVector] = {}
    for entry in doc["restrictions"]:
        kept = kept_sets.get(entry["kept"])
        if kept is None:
            problems.append(f"unexpected kept set {entry['kept']}")
            continue
        check = check_restriction(kept, forced)
        source_ok = check.source_restriction_is_alternating
        if entry.get("source_restriction_is_alternating") is not True or not source_ok:
            problems.append(f"source restriction to {entry['kept']} does not reduce correctly")
        target_ok = check.target_restriction_matches
        if entry.get("target_restriction_matches") is not True or not target_ok:
            problems.append(f"target restriction to {entry['kept']} does not reduce correctly")
        if entry.get("lifted_circuit") != str(check.lifted_circuit):
            problems.append(
                f"lifted circuit through {entry['kept']} is {entry.get('lifted_circuit')!r},"
                f" expected {str(check.lifted_circuit)!r}"
            )
        lifted[kept] = check.lifted_circuit
    if set(lifted) != {KEPT_A, KEPT_B}:
        problems.append("restriction entries incomplete")
        return problems

    conclusion = doc["conclusion"]
    a, b = lifted[KEPT_A], lifted[KEPT_B]
    if conclusion.get("circuit_a") != str(a) or conclusion.get("circuit_b") != str(b):
        problems.append("conclusion circuits disagree with the restriction records")
    if not circuits_conflict(a, b):
        problems.append("lifted circuits do not conflict")
    if conclusion.get("contradiction") is not True:
        problems.append("contradiction flag is not set")
    if conclusion.get("verdict") != "nonfactorizable":
        problems.append(f"verdict is {conclusion.get('verdict')!r}, expected 'nonfactorizable'")
    if conclusion.get("search_verified") is not True:
        problems.append("search stage is not marked verified")
    return problems


def validate_certificate_document(doc: dict[str, Any]) -> list[str]:
    """Dispatch on document flavor: restrictions present means full pipeline."""
    if type(doc) is dict and doc.get("restrictions"):
        return validate_contradiction_document(doc)
    return validate_search_document(doc)
