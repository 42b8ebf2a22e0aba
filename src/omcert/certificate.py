"""Versioned JSON certificates and their offline re-validation.

One schema serves both certificate flavors; the top-level keys are always
``version, instance, counts, survivors, restrictions, conclusion`` in that
order. Signed vectors serialize as strings over {+,-,0}; element subsets
serialize as comma-joined ascending integers inside key strings. Documents
are built from deterministically ordered data only, so serialized bytes are
identical across runs and thread counts. The bytes come from the writer
here, not from ``json``, which a run that writes a certificate never loads;
they equal ``json.dumps(doc, indent=2, ensure_ascii=False)`` and a newline.

Validation regenerates the certificate and diffs the two, on one checking
path that all four public validators share. It checks that the document is
a JSON object of the current version and reads its flavor once: a non-empty
list in ``restrictions`` means ``all`` (full pipeline), ``[]`` means
``lemma6`` (search only), and any other value states no flavor and is left
to the diff. A document of the other flavor is one problem that names both.
It then runs the prover's search once (``enumerate_survivors``, a few
milliseconds) and requires the stated document to equal the one the prover
emits for the flavor under a type-strict recursive diff that names the path
of each difference. So the survivor list is checked complete: a document
missing a survivor differs from the emitted one. A search document must also
carry the forced conclusions; a full document also gets the contradiction
stage run on the regenerated search, and its verdict must be
``nonfactorizable``. A failure of the search itself is one problem, and a
path is formatted only for a reported problem.

The checker is the prover, so this shows that the document is the prover's
own, not that the prover is right. ``search_certificate_from_document``
returns the regenerated certificate of a valid search document, or raises
``VerificationError``, one problem per line, on an invalid one: a caller,
``omcert verify-n8 --certificate`` included, gets a certificate only from a
document that validates.
"""

from __future__ import annotations

import re

from .contradiction import (
    FULL_N,
    ContradictionCertificate,
    build_contradiction_certificate,
)
from .search import (
    CIRCUIT_SUPPORTS,
    SEARCH_RANK,
    SOURCE_RANK,
    TARGET_RANK,
    SearchCertificate,
    SurvivorRecord,
    VerificationError,
    build_search_instance,
    enumerate_survivors,
    verify_search_conclusions,
)

CERTIFICATE_VERSION = 1

SOURCE_FAMILY = "alternating"
TARGET_FAMILY = "m2"


def subset_key(subset: tuple[int, ...]) -> str:
    return ",".join(str(e) for e in subset)


def _survivor_entry(s: SurvivorRecord) -> dict[str, object]:
    return {
        "topes": [str(t) for t in s.topes],
        "vc_witnesses": {subset_key(q): str(w) for q, w in s.vc_witnesses},
        "excluded_check": {t: absent for t, absent in s.excluded_absent},
        "circuits": {subset_key(q): str(c) for q, c in s.circuits},
    }


def search_certificate_document(cert: SearchCertificate) -> dict[str, object]:
    inst = cert.instance
    return {
        "version": CERTIFICATE_VERSION,
        "instance": {
            "n": inst.n,
            "rank": inst.rank,
            "choose": inst.choose,
            "source_family": SOURCE_FAMILY,
            "source_rank": SOURCE_RANK,
            "target_family": TARGET_FAMILY,
            "target_rank": TARGET_RANK,
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


def contradiction_certificate_document(cert: ContradictionCertificate) -> dict[str, object]:
    doc = search_certificate_document(cert.search)
    return {
        "version": CERTIFICATE_VERSION,
        "instance": {
            "n": FULL_N,
            "source_family": SOURCE_FAMILY,
            "source_rank": SOURCE_RANK,
            "target_family": TARGET_FAMILY,
            "target_rank": TARGET_RANK,
            "intermediate_rank": SEARCH_RANK,
            "reduction": doc["instance"],
        },
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


def certificate_document(cert: SearchCertificate | ContradictionCertificate) -> dict[str, object]:
    if isinstance(cert, ContradictionCertificate):
        return contradiction_certificate_document(cert)
    return search_certificate_document(cert)


# what a JSON string writes for each character it escapes: \u00XX below
# U+0020 except the five short escapes, and the quote and backslash
_ESCAPES = {i: f"\\u{i:04x}" for i in range(0x20)} | {ord(c): "\\" + e for c, e in zip('\b\t\n\f\r"\\', 'btnfr"\\')}


def _json_string(s: str) -> str:
    # a printable string holds no character below U+0020
    if s.isprintable() and '"' not in s and "\\" not in s:
        return f'"{s}"'
    return f'"{s.translate(_ESCAPES)}"'


def _json(value: object, indent: str) -> str:
    """``value`` as ``json.dumps(value, indent=2, ensure_ascii=False)`` writes
    it at the nesting ``indent``: dicts with str keys, lists, str, int, bool
    and None; any other type raises TypeError."""
    kind = type(value)
    if kind is str:
        return _json_string(value)
    if kind is bool:
        return "true" if value else "false"
    if kind is int:
        return str(value)
    if value is None:
        return "null"
    inner = indent + "  "
    if kind is list:
        items = [_json(v, inner) for v in value]
        opening, closing = "[", "]"
    elif kind is dict:
        if not all(type(k) is str for k in value):
            raise TypeError("JSON object keys must be str")
        items = [f"{_json_string(k)}: {_json(v, inner)}" for k, v in value.items()]
        opening, closing = "{", "}"
    else:
        raise TypeError(f"{kind.__name__} is not a JSON type")
    if not items:
        return opening + closing
    return f"{opening}\n{inner}" + f",\n{inner}".join(items) + f"\n{indent}{closing}"


def serialize_certificate(cert: SearchCertificate | ContradictionCertificate | dict) -> bytes:
    """The document's bytes: UTF-8 of ``json.dumps(doc, indent=2,
    ensure_ascii=False)`` and a newline, from the writer above."""
    doc = cert if isinstance(cert, dict) else certificate_document(cert)
    return (_json(doc, "") + "\n").encode("utf-8")


# ----------------------------------------------------------------------
# validation
# ----------------------------------------------------------------------


_PLAIN_KEY = re.compile(r"[A-Za-z0-9_]+")


def _path_key(key: str) -> str:
    """A key as it appears in a problem path: plain keys as they are, any other
    as a JSON string literal, so no key can break a problem across lines."""
    if _PLAIN_KEY.fullmatch(key):
        return key
    import json  # ASCII escapes keep U+0085, U+2028 and U+2029 off the line too

    return json.dumps(key)


def _path(path: tuple) -> str:
    """A problem path: its root, then ``.key`` for each object key and ``[i]``
    for each array index. Only a reported problem formats its path."""
    return path[0] + "".join(f"[{k}]" if type(k) is int else f".{_path_key(k)}" for k in path[1:])


def _diff(stated: object, expected: object, path: tuple) -> list[str]:
    """Every place where ``stated`` departs from ``expected``, below ``path``
    (a root string then keys and indices). JSON types must match (``true``
    is not 1 and ``6.0`` is not 6); missing and unexpected keys and array
    lengths are reported; key order is ignored."""
    if type(expected) is dict:
        if type(stated) is not dict:
            return [f"{_path(path)} is not an object"]
        problems = []
        for key, want in expected.items():
            if key in stated:
                problems += _diff(stated[key], want, (*path, key))
            else:
                problems.append(f"{_path((*path, key))} is missing")
        return problems + [
            f"{_path((*path, key))} is unexpected" for key in stated if key not in expected
        ]
    if type(expected) is list:
        if type(stated) is not list:
            return [f"{_path(path)} is not an array"]
        problems = []
        if len(stated) != len(expected):
            problems.append(f"{_path(path)} has {len(stated)} entries, expected {len(expected)}")
        for i, (got, want) in enumerate(zip(stated, expected)):
            problems += _diff(got, want, (*path, i))
        return problems
    if type(stated) is not type(expected) or stated != expected:
        return [f"{_path(path)} is {stated!r}, expected {expected!r}"]
    return []


# flavor -> how a problem names a document of that flavor
_FLAVORS = {"lemma6": "a lemma6 search certificate", "all": "a full-pipeline (all) certificate"}


def _checked(doc: object, flavor: str | None) -> tuple[SearchCertificate | None, list[str]]:
    """The one checking path: the regenerated search certificate and the
    problems of ``doc`` read as a ``flavor`` document (None: the flavor it
    states, else ``lemma6``). The document is valid only when the problem
    list is empty."""
    if type(doc) is not dict:
        return None, ["document is not a JSON object"]
    version = doc.get("version")
    if type(version) is not int or version != CERTIFICATE_VERSION:
        return None, [f"unsupported version {version!r}"]
    restrictions = doc.get("restrictions")
    stated = ("all" if restrictions else "lemma6") if type(restrictions) is list else None
    flavor = flavor or stated or "lemma6"
    if stated not in (None, flavor):
        return None, [f"document is {_FLAVORS[stated]}, not {_FLAVORS[flavor]}"]
    try:
        search = enumerate_survivors(build_search_instance())
    except VerificationError as exc:
        return None, [f"the search failed: {exc}"]
    if flavor == "lemma6":
        problems = _diff(doc, search_certificate_document(search), ("document",))
        try:
            verify_search_conclusions(search)
        except VerificationError as exc:
            problems.append(f"search conclusions do not hold: {exc}")
    else:
        full = build_contradiction_certificate(search_cert=search)
        problems = _diff(doc, contradiction_certificate_document(full), ("document",))
        if full.verdict != "nonfactorizable":
            problems.append(f"rebuilt verdict is {full.verdict!r}, expected 'nonfactorizable'")
    return search, problems


def validate_search_document(doc: dict[str, object]) -> list[str]:
    """Problems of a ``lemma6`` search certificate document."""
    return _checked(doc, "lemma6")[1]


def search_certificate_from_document(doc: dict[str, object]) -> SearchCertificate:
    """The regenerated search certificate of a valid ``lemma6`` document.
    Raises VerificationError, one problem per line, if the document is invalid."""
    search, problems = _checked(doc, "lemma6")
    if problems:
        raise VerificationError("\n".join(problems))
    return search


def validate_contradiction_document(doc: dict[str, object]) -> list[str]:
    """Problems of a full-pipeline (``all``) certificate document."""
    return _checked(doc, "all")[1]


def validate_certificate_document(doc: dict[str, object]) -> list[str]:
    """Problems of a document of the flavor it states, ``lemma6`` if none."""
    return _checked(doc, None)[1]
