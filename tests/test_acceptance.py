"""Acceptance gate: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the criterion
lines stream; without ``-s`` they appear in the captured output of any
failing test.
"""

from __future__ import annotations

import json
import time
from itertools import combinations

from omcert import (
    alternating_chirotope,
    check_covector_axioms,
    check_uniform_tope_axioms,
    circuit_on_support,
    covectors_of,
    enumerate_survivors,
    pair_swap_chirotope,
    serialize_certificate,
    topes_of,
    verify_search_conclusions,
)
from omcert.certificate import validate_contradiction_document
from omcert.cli import main
from omcert.signed_vector import SignedVector
from omcert.strong_map import is_strong_map_covectors, is_strong_map_topes
from reference import alternating_topes_direct, conforms, covectors_from_topes, perpendicular

sv = SignedVector.parse


def _report(number: int, ok: bool, detail: str) -> None:
    line = f"[criterion {number}] {'PASS' if ok else 'FAIL'} - {detail}"
    print(line)
    assert ok, line


def test_criterion_1_tope_counts():
    start = time.perf_counter()
    counts = (
        len(topes_of(alternating_chirotope(6, 4))),
        len(topes_of(pair_swap_chirotope(6))),
        len(topes_of(alternating_chirotope(8, 4))),
        len(topes_of(pair_swap_chirotope(8))),
    )
    elapsed = time.perf_counter() - start
    ok = counts == (26, 6, 64, 8) and elapsed < 1.0
    _report(1, ok, f"tope counts {counts}, generated in {elapsed:.3f}s (< 1s)")


def test_criterion_2_search_counts(search_instance):
    start = time.perf_counter()
    cert = enumerate_survivors(search_instance)
    elapsed = time.perf_counter() - start
    ok = (
        cert.combinations_checked == 184_756
        and len(cert.survivors) == 20
        and elapsed < 60.0
    )
    _report(
        2,
        ok,
        f"{cert.combinations_checked} combinations, {len(cert.survivors)} survivors,"
        f" single-threaded in {elapsed:.2f}s (< 60s)",
    )


def test_criterion_3_forced_circuits(search_certificate):
    ok = True
    detail = "all 20 survivors exclude +-+--- and +----+ and share circuits +-+-00, +-00-+"
    try:
        verify_search_conclusions(search_certificate)
    except Exception as exc:  # noqa: BLE001 - report the precise failure
        ok = False
        detail = str(exc)
    for survivor in search_certificate.survivors:
        strings = {str(t) for t in survivor.topes}
        circuits = {k: str(v) for k, v in survivor.circuits}
        ok = ok and "+-+---" not in strings and "+----+" not in strings
        ok = ok and circuits == {(1, 2, 3, 4): "+-+-00", (1, 2, 5, 6): "+-00-+"}
    _report(3, ok, detail)


def test_criterion_4_strong_map_premise(alt64, swap6, alt84, swap8, search_certificate):
    t6 = is_strong_map_topes(alt64, swap6)
    t8 = is_strong_map_topes(alt84, swap8)
    ok = t6.holds and t6.corank == 2 and t8.holds and t8.corank == 2

    c6 = is_strong_map_covectors(alternating_chirotope(6, 4), pair_swap_chirotope(6))
    c8 = is_strong_map_covectors(alternating_chirotope(8, 4), pair_swap_chirotope(8))
    ok = ok and c6.holds == t6.holds and c6.corank == 2 and c8.holds == t8.holds and c8.corank == 2

    # the survivors have no chirotope: their sandwich maps are checked by
    # containment of the reference covector sets
    cov_alt64 = covectors_from_topes(alt64)
    cov_swap6 = covectors_from_topes(swap6)
    agreements = 0
    for survivor in search_certificate.survivors:
        ts = survivor.tope_set()
        cov_s = covectors_from_topes(ts)
        down = is_strong_map_topes(alt64, ts).holds, cov_s <= cov_alt64
        up = is_strong_map_topes(ts, swap6).holds, cov_swap6 <= cov_s
        for tope_holds, cov_holds in (down, up):
            ok = ok and tope_holds and cov_holds
            agreements += 1
    _report(
        4,
        ok,
        f"corank-2 verdicts hold at n=6 and n=8; methods agree on the base maps"
        f" and on {agreements} survivor sandwich maps",
    )


def test_criterion_5_restrictions_and_verdict(
    tmp_path, capsys, search_certificate, contradiction_certificate
):
    cert = contradiction_certificate
    ok = cert.restriction_a.passed and cert.restriction_b.passed
    ok = ok and str(cert.restriction_a.lifted_circuit) == "+-00-+00"
    ok = ok and str(cert.restriction_b.lifted_circuit) == "+-00+-00"
    ok = ok and cert.circuits_conflict and cert.verdict == "nonfactorizable"
    ok = ok and validate_contradiction_document(
        json.loads(serialize_certificate(cert))
    ) == []

    path = tmp_path / "search.json"
    path.write_bytes(serialize_certificate(search_certificate))
    exit_code = main(["verify-n8", "--certificate", str(path), "--output", str(tmp_path / "full.json")])
    capsys.readouterr()
    ok = ok and exit_code == 0
    _report(
        5,
        ok,
        "restrictions reduce to the n=6 pair; lifted circuits +-00-+00 vs +-00+-00"
        f" conflict; verdict nonfactorizable with exit code {exit_code}",
    )


def test_criterion_6_property_suites(alt64, swap6, search_certificate):
    start = time.perf_counter()
    ok = True

    # dual tope generation agreement
    for n, r in ((4, 2), (6, 4), (8, 4)):
        ok = ok and topes_of(alternating_chirotope(n, r)).topes == alternating_topes_direct(n, r).topes

    # covector axioms on every generated n<=6 covector set: by the cocircuit
    # cover where there is a chirotope, by the reference for the survivors
    alt42 = topes_of(alternating_chirotope(4, 2))
    chirotopes = (alternating_chirotope(4, 2), alternating_chirotope(6, 4), pair_swap_chirotope(6))
    instances = [alt42, alt64, swap6] + [s.tope_set() for s in search_certificate.survivors]
    covector_sets = []
    for i, ts in enumerate(instances):
        cov = covectors_of(chirotopes[i]) if i < len(chirotopes) else covectors_from_topes(ts)
        covector_sets.append((ts, cov))
        ok = ok and check_covector_axioms(cov).passed

    # every extracted circuit is perpendicular to every tope (and covector)
    for ts, cov in covector_sets:
        for q in combinations(range(1, ts.n + 1), ts.r + 1):
            circuit = circuit_on_support(ts, q)
            ok = ok and all(perpendicular(circuit, t) for t in ts.topes)
            ok = ok and all(perpendicular(circuit, v) for v in cov)

    # cocircuits equal the minimal nonzero covectors
    for chi, (_, cov) in zip(chirotopes, covector_sets):
        nonzero = [v for v in cov if v.support_mask]
        minimal = {
            v.canonical() for v in nonzero if not any(w != v and conforms(w, v) for w in nonzero)
        }
        ok = ok and minimal == chi.cocircuits()

    # uniform tope axioms hold for every instance used above
    for ts, _ in covector_sets:
        ok = ok and check_uniform_tope_axioms(ts).passed

    elapsed = time.perf_counter() - start
    ok = ok and elapsed < 120.0
    _report(
        6,
        ok,
        f"dual generation, covector axioms, circuit perpendicularity and minimal-covector"
        f" checks over {len(instances)} instances in {elapsed:.1f}s (< 120s)",
    )


def test_criterion_7_thread_determinism(tmp_path, capsys):
    codes, outputs = [], []
    for threads in ("1", "3"):
        path = tmp_path / f"all-{threads}.json"
        codes.append(main(["all", "--threads", threads, "--output", str(path)]))
        outputs.append(path.read_bytes())
    capsys.readouterr()
    ok = codes == [0, 0] and outputs[0] == outputs[1]
    _report(
        7,
        ok,
        f"all --threads 1 and --threads 3 exit {codes} with byte-identical certificates"
        f" ({len(outputs[0])} bytes)",
    )
