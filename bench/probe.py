"""Fresh-process entry points that the benchmark runner (``run.py``) times.

Each mode imports omcert, does one job and prints one JSON object on stdout:

    probe.py validate CERT            validate_certificate_document on a file
    probe.py oracle BUDGET            direct_search_n8(BUDGET)
    probe.py trace-all OUT            the stages ``omcert all`` runs, one span each
    probe.py trace-layers SEARCH ALL  the remaining layer calls, one span each
    probe.py trace-oracle BUDGET      direct_search_n8(BUDGET) inside one span

Spans are recorded only around the calls this file makes into omcert's
public functions; nothing inside the package is instrumented. They are kept
in memory and printed when the mode ends. ``omcert`` must be importable, so
run this with ``src`` on ``PYTHONPATH``.
"""

from __future__ import annotations

import json
import sys
from contextlib import contextmanager
from itertools import combinations
from time import perf_counter

from omcert import (
    alternating_chirotope,
    build_contradiction_certificate,
    build_search_instance,
    certificate_document,
    check_restriction,
    check_uniform_tope_axioms,
    circuit_on_support,
    direct_search_n8,
    enumerate_survivors,
    is_strong_map_topes,
    pair_swap_chirotope,
    search_certificate_from_document,
    serialize_certificate,
    topes_of,
    validate_certificate_document,
    validate_contradiction_document,
    validate_search_document,
    verify_premise,
    verify_search_conclusions,
)
from omcert.contradiction import KEPT_A, KEPT_B


class Tracer:
    """In-memory spans: name, start, end and the enclosing span's id."""

    def __init__(self) -> None:
        self.spans: list[dict] = []
        self._open: list[int] = []

    @contextmanager
    def span(self, name: str):
        record = {
            "id": len(self.spans),
            "parent": self._open[-1] if self._open else None,
            "name": name,
            "start": perf_counter(),
        }
        self.spans.append(record)
        self._open.append(record["id"])
        try:
            yield
        finally:
            record["end"] = perf_counter()
            self._open.pop()


def trace_all(tracer: Tracer, out_path: str) -> dict:
    """What ``omcert all --output OUT`` computes, stage by stage."""
    with tracer.span("search.build_search_instance"):
        instance = build_search_instance()
    with tracer.span("search.enumerate_survivors"):
        search = enumerate_survivors(instance)
    with tracer.span("contradiction.build_contradiction_certificate"):
        full = build_contradiction_certificate(search_cert=search)
    with tracer.span("certificate.certificate_document"):
        doc = certificate_document(full)
    with tracer.span("certificate.serialize_certificate"):
        payload = serialize_certificate(doc)
    with open(out_path, "wb") as fh:
        fh.write(payload)
    return {
        "search.combinations_checked": search.combinations_checked,
        "search.survivors": len(search.survivors),
        "certificate.bytes": len(payload),
        "verdict": full.verdict,
    }


def trace_layers(tracer: Tracer, search_path: str, all_path: str) -> dict:
    """The premise, the recheck side and the per-survivor layer calls."""
    chirotopes = {
        "alt8": alternating_chirotope(8, 4),
        "m2_8": pair_swap_chirotope(8),
        "alt6": alternating_chirotope(6, 4),
        "m2_6": pair_swap_chirotope(6),
    }
    topes = {}
    for key, chi in chirotopes.items():
        with tracer.span(f"matroid.topes_of.{key}"):
            topes[key] = topes_of(chi)
    with tracer.span("strong_map.is_strong_map_topes"):
        strong = is_strong_map_topes(topes["alt8"], topes["m2_8"])
    with tracer.span("contradiction.verify_premise"):
        premise = verify_premise()

    with open(search_path, "rb") as fh:
        search_doc = json.load(fh)
    with open(all_path, "rb") as fh:
        all_doc = json.load(fh)
    with tracer.span("certificate.validate_search_document"):
        search_problems = validate_search_document(search_doc)
    with tracer.span("certificate.search_certificate_from_document"):
        search = search_certificate_from_document(search_doc)
    with tracer.span("search.verify_search_conclusions"):
        verify_search_conclusions(search)
    axioms_ok = True
    for survivor in search.survivors:
        tope_set = survivor.tope_set()
        with tracer.span("matroid.check_uniform_tope_axioms"):
            axioms_ok &= check_uniform_tope_axioms(tope_set).passed
        for support in combinations(range(1, tope_set.n + 1), tope_set.r + 1):
            with tracer.span("matroid.circuit_on_support"):
                circuit_on_support(tope_set, support)
    for kept in (KEPT_A, KEPT_B):
        with tracer.span("contradiction.check_restriction"):
            check_restriction(kept, search.conclusion_circuits)
    with tracer.span("certificate.validate_contradiction_document"):
        full_problems = validate_contradiction_document(all_doc)
    counts = {f"matroid.tope_count.{key}": len(value) for key, value in topes.items()}
    counts["ok"] = (
        strong.holds and premise.holds and axioms_ok and not search_problems and not full_problems
    )
    return counts


def oracle(tracer: Tracer | None, budget: int) -> dict:
    if tracer is None:
        outcome = direct_search_n8(budget)
    else:
        with tracer.span("contradiction.direct_search_n8"):
            outcome = direct_search_n8(budget)
    return {"status": outcome.status, "nodes": outcome.nodes}


def main(argv: list[str]) -> int:
    mode, args = argv[0], argv[1:]
    if mode == "validate":
        with open(args[0], "rb") as fh:
            doc = json.load(fh)
        result = {"problems": validate_certificate_document(doc)}
    elif mode == "oracle":
        result = oracle(None, int(args[0]))
    else:
        traced = {
            "trace-all": lambda t: trace_all(t, args[0]),
            "trace-layers": lambda t: trace_layers(t, args[0], args[1]),
            "trace-oracle": lambda t: oracle(t, int(args[0])),
        }
        if mode not in traced:
            print(f"unknown mode {mode!r}", file=sys.stderr)
            return 2
        tracer = Tracer()
        with tracer.span(f"probe.{mode}"):
            result = traced[mode](tracer)
        result["spans"] = tracer.spans
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
