#!/usr/bin/env python3
"""Benchmark of omcert: the prover's run, the sceptic's recheck, the n=8 oracle.

    python3 bench/run.py [--workload prove|recheck|oracle_n8|all] [--seed N]
                         [--seconds S] [--trace 0|1]

Every timed sample is a fresh interpreter, because a command-line user pays
start-up, import and any cache fill on every run. Samples run one at a time
from this process: a closed loop with one client. The bytecode cache is kept
warm, as an installed package would have it. The program's inputs are fixed
by the paper; ``--seed`` only draws the ``PYTHONHASHSEED`` of each child, as
every command-line run gets its own. That reorders string sets and must not
change a single output byte.

With ``--trace 0`` one workload is sampled for ``--seconds`` and the result
carries the end-to-end metrics; ``--trace 1`` runs the traced pipeline
(``probe.py``) instead and carries the per-layer metrics. ``--workload all``
runs the three workloads one after another and reports them by their own
names. Lines starting with ``#`` are for people; the last stdout line is one
JSON object with ``correct``, ``attempted``, ``failed`` and ``metrics``.
See README.md in this directory for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import random
import signal
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
PROBE = BENCH / "probe.py"
LAUNCH = BENCH / "launch.py"
WORK = BENCH / ".work"

WORKLOADS = ("prove", "recheck", "oracle_n8")
# Node budget of the oracle workload: about 1 s on a 2-core machine with
# Python 3.11.7, so a 30-second run holds about 20 samples (at 500,000 nodes
# it held 11 and its medians spread twice as wide). It fixes the work, not the
# time: a change to what a node counts has to switch this workload to
# time-to-exhaustion first.
ORACLE_BUDGET = 200_000
# A fixed pure-Python loop in a fresh interpreter, about 0.25 s on the
# machine above. A shared machine's speed drifts by up to 2x over tens of seconds;
# dividing each sample by the reference loops run right before and after it
# cancels most of that drift (README.md has the measurements).
REFERENCE_LOOP = "s = 0\nfor i in range(1_500_000):\n    s += i * i\n"
# setup_s is the import time divided by the reference loops around it, times
# this fixed scale: seconds on a machine that runs the loop in 0.25 s. On the
# machine above, the medians of raw import times spread 0.15-0.27 across runs.
REFERENCE_SCALE_S = 0.25
CHILD_TIMEOUT_S = 60.0

# Numbers the paper fixes; any other value is a wrong answer.
COMBINATIONS = 184_756
SURVIVORS = 20
TOPE_COUNTS = {"alt8": 64, "m2_8": 8, "alt6": 26, "m2_6": 6}

# Stages that ``omcert all`` runs; the rest of its time is cli.overhead_s.
ALL_STAGES = (
    "search.build_search_instance",
    "search.enumerate_survivors",
    "contradiction.build_contradiction_certificate",
    "certificate.certificate_document",
    "certificate.serialize_certificate",
)
LAYER_SPANS = (
    "matroid.topes_of.alt8",
    "matroid.topes_of.alt6",
    "strong_map.is_strong_map_topes",
    "contradiction.verify_premise",
    "certificate.validate_search_document",
    "certificate.search_certificate_from_document",
    "search.verify_search_conclusions",
    "matroid.check_uniform_tope_axioms",
    "matroid.circuit_on_support",
    "contradiction.check_restriction",
    "certificate.validate_contradiction_document",
)
EXACT_COUNTS = (
    "search.combinations_checked",
    "search.survivors",
    "certificate.bytes",
    *(f"matroid.tope_count.{key}" for key in TOPE_COUNTS),
)

PER_LAYER_UNITS = {
    **{f"{name}_s": "s" for name in (*ALL_STAGES, *LAYER_SPANS)},
    "search.candidates_per_s": "1/s",
    "search.combinations_checked": "count",
    "search.survivors": "count",
    "search.survivor_ratio": "ratio",
    "contradiction.direct_search_n8_s": "s",
    "contradiction.direct_search_n8.nodes": "count",
    "contradiction.direct_search_n8.nodes_per_s": "1/s",
    **{f"matroid.tope_count.{key}": "count" for key in TOPE_COUNTS},
    "certificate.bytes": "bytes",
    "cli.overhead_s": "s",
}


class HarnessError(Exception):
    """The benchmark cannot run here (missing program, child that never ends)."""


@dataclass(frozen=True)
class Child:
    wall_s: float
    rss_mb: float
    code: int
    out: bytes
    err: bytes


class Bench:
    def __init__(self, seed: int, workdir: Path) -> None:
        self.workdir = workdir
        self.env = dict(os.environ)
        self.env.pop("PYTHONDONTWRITEBYTECODE", None)
        self.env["PYTHONPYCACHEPREFIX"] = str(WORK / "pycache")
        self.env["PYTHONPATH"] = str(SRC)
        self.hash_seeds = random.Random(seed)
        self.setup_failures: list[str] = []
        self.reference = b""

    def path(self, name: str) -> str:
        return str(self.workdir / name)

    def output(self, name: str) -> Path:
        """A child's output file, removed first so that a stale one is never read."""
        path = self.workdir / name
        path.unlink(missing_ok=True)
        return path

    def spawn(self, *argv: str) -> Child:
        """Run one Python child to completion through ``launch.py``, which
        reports the child's own wall time and peak RSS."""
        report = self.workdir / "launch.txt"
        report.unlink(missing_ok=True)
        proc = subprocess.Popen(
            [sys.executable, "-I", "-S", str(LAUNCH), str(report), sys.executable, *argv],
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            env=self.env | {"PYTHONHASHSEED": str(self.hash_seeds.randrange(2**32))},
            start_new_session=True,
        )
        try:
            out, err = proc.communicate(timeout=CHILD_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.communicate()
            raise HarnessError(f"{' '.join(argv)} ran longer than {CHILD_TIMEOUT_S} s") from None
        if proc.returncode or not report.exists():
            raise HarnessError(f"launcher failed: {err.decode(errors='replace')}")
        wall, rss_kb, code = report.read_text().split()
        return Child(float(wall), int(rss_kb) / 1024, int(code), out, err)

    def cli(self, *args: str) -> Child:
        return self.spawn("-m", "omcert.cli", *args)

    def probe(self, *args: str) -> Child:
        return self.spawn(str(PROBE), *args)

    # ------------------------------------------------------------------
    # set-up, untimed
    # ------------------------------------------------------------------

    def setup(self) -> None:
        warm = self.spawn("-c", "import omcert")
        if warm.code:
            raise HarnessError(f"cannot import omcert: {warm.err.decode(errors='replace')}")

        one_file, two_file = self.output("all.json"), self.output("all-t2.json")
        one = self.cli("all", "--threads", "1", "--output", str(one_file))
        two = self.cli("all", "--threads", "2", "--output", str(two_file))
        if one.code or two.code:
            raise HarnessError(f"omcert all failed: {(one.err or two.err).decode(errors='replace')}")
        if not one_file.exists():
            self.setup_failures.append("all --threads 1 wrote no output file")
        self.reference = one_file.read_bytes() if one_file.exists() else b""
        self.setup_failures += output_problems("all --threads 2", two_file, self.reference)
        self.setup_failures += document_problems(self.reference)
        self.setup_failures += validation_problems(self.probe("validate", str(one_file)))

        search_file = self.output("search.json")
        search = self.cli("lemma6", "--output", str(search_file))
        if search.code:
            raise HarnessError(f"omcert lemma6 failed: {search.err.decode(errors='replace')}")
        if not search_file.exists():
            self.setup_failures.append("lemma6 wrote no output file")

    # ------------------------------------------------------------------
    # one timed sample per call: (timings, peak RSS, problems)
    # ------------------------------------------------------------------

    def sample_prove(self) -> tuple[dict[str, float], float, list[str]]:
        out = self.output("prove.json")
        run = self.cli("all", "--output", str(out))
        problems = exit_problems("all", run) + output_problems("all", out, self.reference)
        if not problems:
            problems += document_problems(out.read_bytes())
        return {"prove_s": run.wall_s}, run.rss_mb, problems

    def sample_recheck(self) -> tuple[dict[str, float], float, list[str]]:
        out = self.output("recheck.json")
        recheck = self.cli("verify-n8", "--certificate", self.path("search.json"), "--output", str(out))
        validate = self.probe("validate", self.path("all.json"))
        problems = exit_problems("verify-n8", recheck) + validation_problems(validate)
        problems += output_problems("verify-n8 --certificate", out, self.reference)
        timings = {"recheck_s": recheck.wall_s, "validate_s": validate.wall_s}
        return timings, max(recheck.rss_mb, validate.rss_mb), problems

    def sample_oracle(self, budget: int | None = None) -> tuple[dict[str, float], float, list[str]]:
        budget = budget or ORACLE_BUDGET
        run = self.probe("oracle", str(budget))
        problems = exit_problems("oracle", run)
        if not run.code:
            problems += oracle_problems(json.loads(run.out), budget)
        return {"oracle_s": run.wall_s}, run.rss_mb, problems

    def warm_up(self, workload: str) -> None:
        """Fill the bytecode cache of the workload's own path, untimed."""
        if workload == "oracle_n8":
            self.sample_oracle(budget=min(1_000, ORACLE_BUDGET))
        elif workload == "recheck":
            self.sample_recheck()
        # the set-up already ran ``omcert all`` twice

    def measure(self, workload: str, seconds: float) -> Samples:
        sample = {
            "prove": self.sample_prove,
            "recheck": self.sample_recheck,
            "oracle_n8": self.sample_oracle,
        }[workload]
        self.warm_up(workload)
        samples = Samples()
        before = self.reference_s()
        start = time.perf_counter()
        while not samples.rss_mb or time.perf_counter() - start < seconds:
            timings, rss_mb, problems = sample()
            import_s = self.spawn("-c", "import omcert").wall_s
            after = self.reference_s()
            samples.add(timings, rss_mb, problems, import_s, (before + after) / 2)
            before = after
        return samples

    def reference_s(self) -> float:
        return self.spawn("-c", REFERENCE_LOOP).wall_s

    # ------------------------------------------------------------------
    # traced run
    # ------------------------------------------------------------------

    def trace(self, seconds: float) -> tuple[dict[str, float], dict, list[dict], Samples]:
        """One traced oracle call, then rounds of (untraced prove, traced
        ``all`` stages, traced layer calls) for ``seconds``. Returns per-layer
        medians, exact counts, every span, and each call's failures."""
        calls = Samples()
        spans: list[dict] = []
        rounds: list[dict[str, float]] = []
        counts: dict[str, set] = {name: set() for name in EXACT_COUNTS}

        def traced(tag: str, *args: str) -> dict:
            run = self.probe(tag, *args)
            if run.code:
                raise HarnessError(" ".join(exit_problems(tag, run)))
            result = json.loads(run.out)
            spans.extend({**s, "child": tag, "round": len(rounds)} for s in result["spans"])
            return result | {"wall_s": run.wall_s}

        oracle = traced("trace-oracle", str(ORACLE_BUDGET))
        calls.count(oracle_problems(oracle, ORACLE_BUDGET))
        start = time.perf_counter()
        while not rounds or time.perf_counter() - start < seconds:
            prove_file = self.output("prove.json")
            prove = self.cli("all", "--output", str(prove_file))
            calls.count(exit_problems("all", prove) + output_problems("all", prove_file, self.reference))
            traced_file = self.output("trace-all.json")
            full = traced("trace-all", str(traced_file))
            calls.count(output_problems("traced all stages", traced_file, self.reference))
            layers = traced("trace-layers", self.path("search.json"), self.path("all.json"))
            calls.count([] if layers["ok"] else ["a traced layer call reported a failed check"])
            values = {f"{name}_s": span_total(full["spans"], name) for name in ALL_STAGES}
            values |= {f"{name}_s": span_total(layers["spans"], name) for name in LAYER_SPANS}
            values["prove_s"] = prove.wall_s
            values["traced_all_s"] = full["wall_s"]
            rounds.append(values)
            for name in EXACT_COUNTS:
                counts[name].add(full.get(name, layers.get(name)))

        exact = {name: min(seen) for name, seen in counts.items()}
        calls.problems += [
            f"{name} did not repeat across traced calls: {sorted(map(str, seen))}"
            for name, seen in counts.items()
            if len(seen) != 1
        ]
        calls.problems += count_problems(exact)

        metrics = {name: statistics.median(r[name] for r in rounds) for name in rounds[0]}
        oracle_s = span_total(oracle["spans"], "contradiction.direct_search_n8")
        metrics |= {
            "search.candidates_per_s": exact["search.combinations_checked"]
            / metrics["search.enumerate_survivors_s"],
            "search.survivor_ratio": exact["search.survivors"] / exact["search.combinations_checked"],
            "contradiction.direct_search_n8_s": oracle_s,
            "contradiction.direct_search_n8.nodes": oracle["nodes"],
            "contradiction.direct_search_n8.nodes_per_s": oracle["nodes"] / oracle_s,
            "cli.overhead_s": metrics["prove_s"] - sum(metrics[f"{name}_s"] for name in ALL_STAGES),
        }
        exact[f"contradiction.direct_search_n8.nodes@{ORACLE_BUDGET}"] = oracle["nodes"]
        return metrics, exact, spans, calls


class Samples:
    """Timings, peak RSS and failures of one workload's samples (or, for the
    traced run, only the failures of its calls)."""

    def __init__(self) -> None:
        self.timings: dict[str, list[float]] = {}
        self.import_s: list[float] = []
        self.setup_s: list[float] = []
        self.reference_s: list[float] = []
        self.latency_rel: list[float] = []
        self.rss_mb: list[float] = []
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def add(
        self, timings: dict[str, float], rss_mb: float, problems: list[str], import_s: float, reference_s: float
    ) -> None:
        """One sample and the fresh ``import omcert`` after it; ``reference_s``
        is the mean reference loop time on either side of the two."""
        for name, value in timings.items():
            self.timings.setdefault(name, []).append(value)
        self.import_s.append(import_s)
        self.setup_s.append(import_s / reference_s * REFERENCE_SCALE_S)
        self.reference_s.append(reference_s)
        self.latency_rel.append(sum(timings.values()) / reference_s)
        self.rss_mb.append(rss_mb)
        self.count(problems)

    def count(self, problems: list[str]) -> None:
        """One attempted operation; it failed if it has any problem."""
        self.attempted += 1
        self.failed += bool(problems)
        self.problems += problems


# ----------------------------------------------------------------------
# correctness gates
# ----------------------------------------------------------------------


def exit_problems(tag: str, run: Child) -> list[str]:
    if run.code == 0:
        return []
    tail = run.err.decode(errors="replace").strip().splitlines()[-1:]
    return [f"{tag} exited with {run.code}: {' '.join(tail)}"]


def document_problems(payload: bytes) -> list[str]:
    try:
        doc = json.loads(payload)
        verdict = doc["conclusion"]["verdict"]
        combos = doc["counts"]["combinations_checked"]
        stated, listed = doc["counts"]["survivor_count"], len(doc["survivors"])
    except (ValueError, KeyError, TypeError) as exc:
        return [f"certificate unreadable: {exc!r}"]
    problems = []
    if verdict != "nonfactorizable":
        problems.append(f"verdict is {verdict!r}")
    if combos != COMBINATIONS:
        problems.append(f"combinations_checked is {combos}")
    if stated != SURVIVORS or listed != SURVIVORS:
        problems.append(f"survivors: {stated} stated, {listed} listed")
    return problems


def validation_problems(run: Child) -> list[str]:
    if run.code:
        return exit_problems("validate", run)
    found = json.loads(run.out)["problems"]
    return [f"validator: {p}" for p in found]


def output_problems(tag: str, path: Path, reference: bytes) -> list[str]:
    """The file a child wrote must exist and hold the reference certificate."""
    if not path.exists():
        return [f"{tag} wrote no output file"]
    if path.read_bytes() != reference:
        return [f"{tag} output differs from the reference certificate"]
    return []


def oracle_problems(result: dict, budget: int) -> list[str]:
    if result["status"] == "found":
        return ["oracle found an intermediate"]
    if result["status"] == "budget-exhausted" and result["nodes"] != budget:
        return [f"oracle stopped at {result['nodes']} nodes, budget {budget}"]
    return []


def count_problems(exact: dict[str, int]) -> list[str]:
    expected = {
        "search.combinations_checked": COMBINATIONS,
        "search.survivors": SURVIVORS,
        **{f"matroid.tope_count.{key}": value for key, value in TOPE_COUNTS.items()},
    }
    return [
        f"{name} is {exact[name]}, expected {value}"
        for name, value in expected.items()
        if exact[name] != value
    ]


def repeat_problems(exact: dict, digest: str) -> list[str]:
    """Exact counts must repeat across runs of the same source: compare with
    what earlier runs in this checkout recorded, then record the union."""
    store = WORK / f"counts-{digest[:16]}.json"
    seen = json.loads(store.read_text()) if store.exists() else {}
    problems = [
        f"{name} is {value}, an earlier run counted {seen[name]}"
        for name, value in exact.items()
        if name in seen and seen[name] != value
    ]
    store.write_text(json.dumps(seen | exact, indent=1, sort_keys=True))
    return problems


# ----------------------------------------------------------------------
# reporting
# ----------------------------------------------------------------------


def span_total(spans: list[dict], name: str) -> float:
    return sum(s["end"] - s["start"] for s in spans if s["name"] == name)


def tail(values: list[float]) -> tuple[int, float] | None:
    """The highest percentile with at least 10 samples beyond it, if that is
    at or above the median."""
    n = len(values)
    if n < 20:
        return None
    return math.floor(100 * (n - 10) / n), sorted(values)[n - 11]


def timing_line(name: str, values: list[float]) -> str:
    line = f"# {name:<12} median {statistics.median(values):.4f} s"
    high = tail(values)
    if high:
        line += f"  p{high[0]} {high[1]:.4f} s"
    return line + f"  n={len(values)}"


def source_digest() -> str:
    h = hashlib.sha256()
    for path in sorted((SRC / "omcert").glob("*.py")):
        h.update(path.name.encode() + b"\0" + path.read_bytes() + b"\0")
    return h.hexdigest()


def git_commit() -> str | None:
    if not (ROOT / ".git").exists():
        return None
    try:
        out = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "HEAD"], capture_output=True, text=True, timeout=30
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() or None


def metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def run_trace(bench: Bench, args: argparse.Namespace, digest: str) -> dict:
    metrics, exact, spans, calls = bench.trace(args.seconds)
    trace_file = bench.workdir / "trace.json"
    trace_file.write_text(json.dumps(spans))
    print(f"# traced calls: {calls.attempted}, spans: {len(spans)} -> {trace_file}")
    overhead = metrics["traced_all_s"] - metrics["prove_s"]
    print(f"# tracing overhead (traced all stages - untraced prove_s): {overhead:+.4f} s")
    result = {}
    for name, unit in PER_LAYER_UNITS.items():
        result[name] = metric(metrics.get(name, exact.get(name)), unit)
        print(f"# {name:<48} {result[name]['value']:.6g} {unit}")
    problems = bench.setup_failures + calls.problems + repeat_problems(exact, digest)
    return finish(problems, calls.attempted, calls.failed, result)


def run_workloads(bench: Bench, args: argparse.Namespace, digest: str) -> dict:
    problems = bench.setup_failures + repeat_problems(
        {"certificate.sha256": hashlib.sha256(bench.reference).hexdigest()}, digest
    )
    if args.workload != "all":
        samples = report(args.workload, bench.measure(args.workload, args.seconds))
        result = {
            "latency_rel": metric(statistics.median(samples.latency_rel), "ratio"),
            "setup_s": metric(statistics.median(samples.setup_s), "s"),
            "peak_rss_mb": metric(statistics.median(samples.rss_mb), "MB"),
        }
        return finish(problems + samples.problems, samples.attempted, samples.failed, result)

    named, setup_s, attempted, failed = {}, [], 0, 0
    for workload in WORKLOADS:
        samples = report(workload, bench.measure(workload, args.seconds))
        for name, values in samples.timings.items():
            named[name] = metric(statistics.median(values), "s")
        n = samples.attempted
        named[f"latency_rel.{workload}"] = metric(statistics.median(samples.latency_rel), "ratio")
        named[f"peak_rss_mb.{workload}"] = metric(statistics.median(samples.rss_mb), "MB")
        named[f"fail_share.{workload}"] = metric(samples.failed / n, "ratio")
        setup_s += samples.setup_s
        problems += samples.problems
        attempted += n
        failed += samples.failed
    named["setup_s"] = metric(statistics.median(setup_s), "s")
    return finish(problems, attempted, failed, named)


def report(workload: str, samples: Samples) -> Samples:
    n = samples.attempted
    print(f"# workload {workload}")
    for name, values in samples.timings.items():
        print(timing_line(name, values))
    print(timing_line("reference_s", samples.reference_s))
    print(timing_line("import_s", samples.import_s))
    print(timing_line("setup_s", samples.setup_s))
    print(f"# {'latency_rel':<12} median {statistics.median(samples.latency_rel):.4f}  n={n}")
    print(f"# {'peak_rss_mb':<12} median {statistics.median(samples.rss_mb):.2f} MB  n={n}")
    print(f"# {'fail_share':<12} {samples.failed}/{n} = {samples.failed / n:g}")
    return samples


def finish(problems: list[str], attempted: int, failed: int, metrics: dict) -> dict:
    for problem in problems[:20]:
        print(f"# FAIL {problem}")
    return {"correct": not problems, "attempted": attempted, "failed": failed, "metrics": metrics}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=(*WORKLOADS, "all"), default="all")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30.0, help="sampling time per workload")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "omcert" / "__init__.py").is_file():
        print(f"error: no omcert sources under {SRC}; run from a checkout of the repository", file=sys.stderr)
        return 2
    workdir = WORK / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    workdir.mkdir(parents=True, exist_ok=True)
    digest = source_digest()
    meta = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "python": sys.version.split()[0],
        "nproc": len(os.sched_getaffinity(0)),
        "commit": git_commit(),
        "src_sha256": digest,
        "oracle_budget": ORACLE_BUDGET,
    }
    print(f"# meta {json.dumps(meta)}")

    bench = Bench(args.seed, workdir)
    try:
        bench.setup()
        result = run_trace(bench, args, digest) if args.trace else run_workloads(bench, args, digest)
    except HarnessError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
