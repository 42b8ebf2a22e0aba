"""Hand mutants of the proof path, each with the test expected to kill it.

Each entry of ``MUTANTS`` is ``(file, old, new, killing test)``: ``old`` is a
text that occurs exactly once under ``src/omcert`` (``test_mutants.py`` checks
this in Tier-1, so the corpus cannot go stale silently), and replacing it by
``new`` breaks one gate, check or kernel step. The killing test is a pytest
node id relative to the repository root.

Run on demand, from the repository root:

    python tests/mutants.py [NAME ...]

For each mutant (all, or the named ones) the runner copies ``src``,
``tests``, ``bench`` and ``pyproject.toml`` into a temporary directory,
applies the mutant there, runs its killing test, then runs Tier-1 with
``-x``, leaving out ``test_mutants.py``, which fails on any applied mutant
because its old text is gone. A mutant is killed when both runs fail. It prints one line per mutant,
with the test each run failed first, and exits 1 if any mutant survived
either run. The whole corpus takes a few minutes.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

C, S, O, V, M = "contradiction.py", "search.py", "oracle.py", "certificate.py", "matroid.py"
VERDICTS = "tests/test_contradiction.py::TestVerdictNames"

MUTANTS = {
    # the verdict's gates, in the order the verdict reads them
    "premise-branch": (
        C,
        '    if not premise.holds:\n        failing = "premise"\n    elif not search_ok:',
        "    if not search_ok:",
        f"{VERDICTS}::test_premise",
    ),
    "search-ok-on-raise": (
        C,
        "        search_ok = False",
        "        search_ok = True",
        f"{VERDICTS}::test_search",
    ),
    "restriction-a-branch": (
        C,
        '    elif not ra.passed:\n        failing = "restriction-a"\n',
        "",
        f"{VERDICTS}::test_restriction[a-source]",
    ),
    "restriction-b-branch": (
        C,
        '    elif not rb.passed:\n        failing = "restriction-b"\n',
        "",
        f"{VERDICTS}::test_restriction[b-target]",
    ),
    "restriction-without-source-half": (
        C,
        "return self.source_restriction_is_alternating and self.target_restriction_matches",
        "return self.target_restriction_matches",
        f"{VERDICTS}::test_restriction[a-source]",
    ),
    "restriction-without-target-half": (
        C,
        "return self.source_restriction_is_alternating and self.target_restriction_matches",
        "return self.source_restriction_is_alternating",
        f"{VERDICTS}::test_restriction[b-target]",
    ),
    "circuit-conflict-branch": (
        C,
        '    elif not conflict:\n        failing = "circuit-conflict"\n',
        "",
        f"{VERDICTS}::test_circuit_conflict",
    ),
    # the two circuit assumptions, each on its own input
    "uniqueness-always-true": (
        C,
        "return all(c is not None for table in tables for c in table)",
        "return True",
        f"{VERDICTS}::test_uniform_circuit_uniqueness",
    ),
    "deletion-ignores-witnesses": (
        C,
        "if circuit is not None and witness not in (circuit, circuit.opposite()):",
        "if False:",
        f"{VERDICTS}::test_deletion_circuits",
    ),
    "deletion-fails-on-none": (
        C,
        "if circuit is not None and witness not in (circuit, circuit.opposite()):",
        "if circuit is None or witness not in (circuit, circuit.opposite()):",
        f"{VERDICTS}::test_uniform_circuit_uniqueness",
    ),
    "deletion-ignores-supports": (
        C,
        "if tuple(q for q, _ in survivor.vc_witnesses) != supports:",
        "if False:",
        "tests/test_contradiction.py::TestDeletionCheck::test_missing_circuit_rejected",
    ),
    "rebuilt-verdict-unchecked": (
        V,
        '        if full.verdict != "nonfactorizable":',
        "        if False:",
        "tests/test_contradiction.py::TestCertificate::test_failed_assumption_fails_verdict",
    ),
    # the search and its survivor records
    "survivor-axioms-unchecked": (
        S,
        "    if not report.passed:\n",
        "    if False:\n",
        "tests/test_search.py::TestEnumeration::test_saturated_picks_raise",
    ),
    "kernel-guard-low-by-one": (
        S,
        "instance.choose, low << 2**r",
        "instance.choose, low << 2**r - 1",
        "tests/test_search.py::TestKernel::test_matches_flat_scan_reference",
    ),
    "kernel-low-skips-a-field": (
        S,
        "low = pattern_bytes(0, n, r)",
        "low = pattern_bytes(0, n, r) & ~1",
        "tests/test_search.py::TestKernel::test_matches_flat_scan_reference",
    ),
    "pattern-fields-unguarded": (
        M,
        "width = (1 << r) + 1",
        "width = 1 << r",
        "tests/test_matroid.py::TestPatternBytes::test_fields_agree_with_pattern_index",
    ),
    "forced-circuit-unread": (
        S,
        "            if got != want:",
        "            if False:",
        "tests/test_search.py::TestConclusions::test_verify_rejects_a_survivor_off_the_forced_circuit",
    ),
    "excluded-flag-unread": (
        S,
        "if not absent or tope in strings:",
        "if tope in strings:",
        "tests/test_search.py::TestConclusions::test_verify_rejects_tampered_certificate",
    ),
    # stage A
    "stage-a-fill-short": (
        O,
        "fill = lows * ((1 << (width - 1)) - 1)",
        "fill = lows * ((1 << (width - 2)) - 1)",
        "tests/test_oracle.py::TestSandwich::test_n6_leaves_are_the_survivors",
    ),
    "stage-a-source-filter": (
        O,
        "        if topes <= source.topes:\n            inside.append(chi)",
        "        inside.append(chi)",
        "tests/test_oracle.py::TestSandwich::test_leaf_outside_a_non_alternating_source_is_dropped",
    ),
    "stage-a-recheck-unraised": (
        O,
        "if not target.topes <= topes or len(topes) != canonical_tope_count(n, RANK):",
        "if False:",
        "tests/test_oracle.py::TestSandwich::test_failed_recheck_raises",
    ),
    "stage-a-gp-sign": (
        O,
        "y = sign(1, (a, b1, b3), (a, b2, b4))",
        "y = sign(0, (a, b1, b3), (a, b2, b4))",
        "tests/test_oracle.py::TestTable::test_table_has_384_maps",
    ),
    # the validator's diff
    "unexpected-key-unreported": (
        V,
        'f"{_path((*path, key))} is unexpected" for key in stated if key not in expected',
        'f"{_path((*path, key))} is unexpected" for key in stated if False',
        "tests/test_certificate.py::TestValidation::test_edit_rejected_at_its_path[extra-key]",
    ),
    "lemma6-conclusions-unchecked": (
        V,
        "            verify_search_conclusions(search)\n",
        "            pass\n",
        "tests/test_certificate.py::TestValidation::test_search_conclusions_checked",
    ),
    "json-type-unchecked": (
        V,
        "if type(stated) is not type(expected) or stated != expected:",
        "if stated != expected:",
        "tests/test_certificate.py::TestShape::test_wrong_json_type_reported",
    ),
}

TIER1 = ("-m", "pytest", "-q", "-x", "-rfE", "-p", "no:cacheprovider", "--continue-on-collection-errors")


def _pytest(copy: Path, *args: str) -> tuple[bool, str]:
    """Whether pytest passed in ``copy``, and the first test it failed (or
    its last output line)."""
    env = dict(os.environ, PYTHONPATH=str(copy / "src"), PYTHONDONTWRITEBYTECODE="1")
    proc = subprocess.run(
        [sys.executable, *TIER1, *args], cwd=copy, env=env, capture_output=True, text=True, timeout=900
    )
    lines = proc.stdout.strip().splitlines() or proc.stderr.strip().splitlines() or [""]
    failed = [line.split(" - ")[0] for line in lines if line.startswith(("FAILED ", "ERROR "))]
    return proc.returncode == 0, (failed or lines)[-1]


def run(name: str) -> bool:
    """Apply one mutant to a fresh copy; True when both runs kill it."""
    file, old, new, test = MUTANTS[name]
    with tempfile.TemporaryDirectory(prefix="omcert-mutant-") as tmp:
        copy = Path(tmp)
        shutil.copytree(ROOT / "src", copy / "src", ignore=shutil.ignore_patterns("__pycache__"))
        for tree in ("tests", "bench"):
            shutil.copytree(ROOT / tree, copy / tree, ignore=shutil.ignore_patterns("__pycache__", ".work"))
        shutil.copy(ROOT / "pyproject.toml", copy)
        path = copy / "src" / "omcert" / file
        text = path.read_text()
        if text.count(old) != 1:
            print(f"{name}: its old text occurs {text.count(old)} times in {file}")
            return False
        path.write_text(text.replace(old, new))
        start = time.monotonic()
        named_passed, named_last = _pytest(copy, test)
        tier1_passed, tier1_last = _pytest(copy, "--ignore=tests/test_mutants.py")
        took = time.monotonic() - start
    verdict = "killed" if not (named_passed or tier1_passed) else "SURVIVED"
    print(f"{name}: {verdict} ({took:.1f} s); {test}: {named_last}; Tier-1 -x: {tier1_last}")
    return verdict == "killed"


def main(names: list[str]) -> int:
    unknown = [n for n in names if n not in MUTANTS]
    if unknown:
        print(f"unknown mutants: {' '.join(unknown)}", file=sys.stderr)
        return 2
    results = [run(name) for name in names or MUTANTS]
    print(f"{sum(results)} of {len(results)} mutants killed")
    return 0 if all(results) else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
