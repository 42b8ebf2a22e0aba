"""Command-line entry point: run any stage or the whole pipeline.

``parse_args`` reads every setting, ``--certificate`` among them, into one
``RunConfig``, and ``run`` looks its command up in ``_HANDLERS``. Each
command returns an ``Outcome``: its JSON document, its text lines and
whether its checks held, or an exit code when it stops early (``verify-n8
--certificate`` on a file that cannot be loaded or is invalid). ``run``
alone picks the format, serializes, writes to ``--output`` or stdout, and
maps the outcome to an exit code.

Exit codes: 0 = verified, 1 = a mathematical check failed or the output
(file or stdout) could not be written, 2 = usage error. JSON is the
authoritative certificate format; text output is a derived human-readable
summary.
"""

from __future__ import annotations

import errno
import math
import os
import re
import sys

from .certificate import (
    contradiction_certificate_document,
    search_certificate_document,
    search_certificate_from_document,
    serialize_certificate,
)
from .contradiction import build_contradiction_certificate
from .matroid import (
    Chirotope,
    alternating_chirotope,
    canonical_tope_count,
    check_covector_axioms,
    check_uniform_tope_axioms,
    covectors_of,
    pair_swap_chirotope,
    topes_of,
    uniform_covector_count,
)
from .search import VerificationError, build_search_instance, enumerate_survivors, verify_search_conclusions
from .signed_vector import Immutable
from .strong_map import is_strong_map_covectors, is_strong_map_topes


class RunConfig(Immutable):
    __slots__ = _fields = ("command", "n", "rank", "family", "output_path", "format", "certificate")

    command: str
    n: int
    rank: int
    family: str
    output_path: str | None
    format: str
    certificate: str | None


# what a command found: its JSON document, its text lines and whether its checks held
class Outcome(Immutable):
    __slots__ = _fields = ("doc", "lines", "ok")

    doc: dict
    lines: list[str]
    ok: bool


def _family_chirotope(cfg: RunConfig) -> Chirotope:
    if cfg.family == "alternating":
        return alternating_chirotope(cfg.n, cfg.rank)
    return pair_swap_chirotope(cfg.n)


def _cmd_topes(cfg: RunConfig) -> Outcome:
    topes = topes_of(_family_chirotope(cfg))
    expected = canonical_tope_count(topes.n, topes.r)
    doc = {
        "family": cfg.family,
        "n": topes.n,
        "rank": topes.r,
        "expected_count": expected,
        "count": len(topes),
        "topes": list(topes.strings),
    }
    return Outcome(doc, doc["topes"], len(topes) == expected)


def _cmd_axioms(cfg: RunConfig) -> Outcome:
    chi = _family_chirotope(cfg)
    topes = topes_of(chi)
    tope_report = check_uniform_tope_axioms(topes)
    covector_report = check_covector_axioms(covectors_of(chi))
    doc = {
        "family": cfg.family,
        "n": topes.n,
        "rank": topes.r,
        "tope_count": tope_report.actual_count,
        "expected_tope_count": tope_report.expected_count,
        "uniform_tope_axioms_pass": tope_report.passed,
        "vc_failures": [list(q) for q in tope_report.missing],
        "covector_count": covector_report.vector_count,
        "covector_axioms_pass": covector_report.passed,
    }
    lines = [
        f"instance: {cfg.family} n={topes.n} rank={topes.r}",
        f"tope count: {tope_report.actual_count} (expected {tope_report.expected_count})",
        f"uniform tope axioms: {'pass' if tope_report.passed else 'FAIL'}",
        f"covectors: {covector_report.vector_count}",
        f"covector axioms: {'pass' if covector_report.passed else 'FAIL'}",
    ]
    return Outcome(doc, lines, tope_report.passed and covector_report.passed)


def _cmd_strongmap(cfg: RunConfig) -> Outcome:
    source, target = alternating_chirotope(cfg.n, cfg.rank), pair_swap_chirotope(cfg.n)
    tope_verdict = is_strong_map_topes(topes_of(source), topes_of(target))
    covector_verdict = is_strong_map_covectors(source, target)
    doc = {
        "n": cfg.n,
        "source": {"family": "alternating", "rank": cfg.rank},
        "target": {"family": "m2", "rank": 2},
        "tope_inclusion": {"holds": tope_verdict.holds, "corank": tope_verdict.corank},
        "covector_containment": {"holds": covector_verdict.holds, "corank": covector_verdict.corank},
        "methods_agree": covector_verdict.holds == tope_verdict.holds,
    }
    lines = [
        f"strong map alternating(n={cfg.n}, rank={cfg.rank}) -> m2(n={cfg.n})",
        f"tope inclusion: {'holds' if tope_verdict.holds else 'FAILS'} (corank {tope_verdict.corank})",
        f"covector containment: {'holds' if covector_verdict.holds else 'FAILS'}",
    ]
    return Outcome(doc, lines, tope_verdict.holds and covector_verdict.holds)


def _cmd_lemma6(cfg: RunConfig) -> Outcome:
    cert = enumerate_survivors(build_search_instance())
    try:
        verify_search_conclusions(cert)
        verified = True
    except VerificationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        verified = False
    doc = search_certificate_document(cert)
    lines = [
        f"combinations checked: {doc['counts']['combinations_checked']}",
        f"survivors: {doc['counts']['survivor_count']}",
        "forced circuits: "
        + ", ".join(f"{k} -> {v}" for k, v in doc["conclusion"]["circuits"].items()),
    ]
    lines += [f"survivor {i:2d}: " + " ".join(s["topes"]) for i, s in enumerate(doc["survivors"])]
    return Outcome(doc, lines, verified)


def _run_contradiction(cfg: RunConfig) -> Outcome | int:
    """The n=8 stage on a fresh search, or on the search of the certificate
    file once a fresh search reproduces it; exit code 1 if the file cannot
    be loaded or is invalid."""
    if cfg.certificate is None:
        search_cert = enumerate_survivors(build_search_instance())
    else:
        import json  # only a run that reads a document loads it

        repeated = []

        def pairs_to_dict(pairs: list[tuple[str, object]]) -> dict[str, object]:
            # json keeps the last value of a repeated key; the validators see
            # only the parsed dict, so a repeat is caught here
            obj = {}
            for key, value in pairs:
                if key in obj:
                    repeated.append(key)
                obj[key] = value
            return obj

        try:
            with open(cfg.certificate, "rb") as fh:
                loaded = json.load(fh, object_pairs_hook=pairs_to_dict)
        except (OSError, ValueError, RecursionError) as exc:
            # ValueError: malformed JSON or undecodable bytes; RecursionError: too deeply nested
            print(f"error: cannot load {cfg.certificate}: {exc}", file=sys.stderr)
            return 1
        for key in repeated:
            print(f"invalid certificate: an object repeats the key {json.dumps(key)}", file=sys.stderr)
        if repeated:
            return 1
        try:
            search_cert = search_certificate_from_document(loaded)
        except VerificationError as exc:
            for problem in str(exc).splitlines():
                print(f"invalid certificate: {problem}", file=sys.stderr)
            return 1
    cert = build_contradiction_certificate(search_cert=search_cert)
    doc = contradiction_certificate_document(cert)
    conclusion = doc["conclusion"]
    lines = [
        f"premise strong map: {'holds' if conclusion['premise_strong_map']['holds'] else 'FAILS'}"
        f" (corank {conclusion['premise_strong_map']['corank']})",
        f"combinations checked: {doc['counts']['combinations_checked']}",
        f"survivors: {doc['counts']['survivor_count']}",
    ]
    for entry in doc["restrictions"]:
        ok = entry["source_restriction_is_alternating"] and entry["target_restriction_matches"]
        lines.append(
            f"restriction {{{entry['kept']}}}: {'pass' if ok else 'FAIL'},"
            f" lifted circuit {entry['lifted_circuit']}"
        )
    lines.append(
        f"circuits {conclusion['circuit_a']} vs {conclusion['circuit_b']}:"
        f" {'conflict' if conclusion['contradiction'] else 'no conflict'}"
    )
    lines.append(f"verdict: {conclusion['verdict']}")
    return Outcome(doc, lines, cert.verdict == "nonfactorizable")


_HANDLERS = {
    "topes": _cmd_topes, "axioms": _cmd_axioms, "strongmap": _cmd_strongmap, "lemma6": _cmd_lemma6,
    "verify-n8": _run_contradiction, "all": _run_contradiction,
}


def run(cfg: RunConfig) -> int:
    """Run one command and emit its outcome in the configured format, to the
    output file or to stdout; the exit code."""
    outcome = _HANDLERS[cfg.command](cfg)
    if isinstance(outcome, int):
        return outcome
    if cfg.format == "text":
        payload = ("\n".join(outcome.lines) + "\n").encode("utf-8")
    else:
        payload = serialize_certificate(outcome.doc)
    try:
        if cfg.output_path is None:
            if sys.stdout is None:  # the interpreter started with stdout closed
                raise OSError(errno.EBADF, os.strerror(errno.EBADF))
            sys.stdout.write(payload.decode("utf-8"))
            sys.stdout.flush()
        else:
            with open(cfg.output_path, "wb") as fh:
                fh.write(payload)
    except OSError as exc:
        where = "stdout" if cfg.output_path is None else cfg.output_path
        print(f"error: cannot write {where}: {exc}", file=sys.stderr)
        return 1
    return 0 if outcome.ok else 1


_DESCRIPTION = """\
Oriented-matroid certificates: tope enumeration, axiom checks, strong-map
verdicts, the exhaustive intermediate search on six elements, and the eight-
element nonfactorizability pipeline."""
# option -> (metavar, value type: int, str or a tuple of the allowed values, help)
_OPTIONS = {
    "--format": ("{json,text}", ("json", "text"), ""),
    "--output": ("PATH", str, ""),
    "--family": ("{alternating,m2}", ("alternating", "m2"), ""),
    "--n": ("N", int, ""),
    "--rank": ("RANK", int, ""),
    "--threads": ("N", int, "accepted for compatibility; the search runs in one thread, N has no effect"),
    "--certificate": ("PATH", str, "continue from a search certificate once a fresh search reproduces it"),
}
_EMIT = ("--format", "--output")
# command -> (help, options); an option not given keeps the default _config_from_args gives it
_COMMANDS = {
    "topes": ("list canonical topes of one instance", (*_EMIT, "--family", "--n", "--rank")),
    "axioms": ("axiom reports for one instance", (*_EMIT, "--family", "--n", "--rank")),
    "strongmap": ("strong-map verdict alternating -> m2", (*_EMIT, "--n", "--rank")),
    "lemma6": ("exhaustive intermediate search on 6 elements", (*_EMIT, "--threads")),
    "verify-n8": ("premise, restriction and conflict checks at n=8", (*_EMIT, "--threads", "--certificate")),
    "all": ("full pipeline certificate", (*_EMIT, "--threads")),
}
# a token that cannot be an option's value: a dash word that is not a negative number
_OPTION_LIKE = re.compile(r"-(?!\d+$|\d*\.\d+$)[^ ]+")


def _usage(command: str | None) -> str:
    if command is None:
        return "usage: omcert [-h] {" + ",".join(_COMMANDS) + "} ..."
    options = " ".join(f"[{o} {_OPTIONS[o][0]}]" for o in _COMMANDS[command][1])
    return f"usage: omcert {command} [-h] {options}"


def _print_help(command: str | None) -> None:
    """Print the help of omcert or of one command and exit 0."""
    if command is None:
        head, rows = f"{_DESCRIPTION}\n\ncommands:", [(c, h) for c, (h, _) in _COMMANDS.items()]
    else:
        head = f"{_COMMANDS[command][0]}\n\noptions:"
        rows = [("-h, --help", "show this help message and exit")]
        rows += [(f"{o} {_OPTIONS[o][0]}", _OPTIONS[o][2]) for o in _COMMANDS[command][1]]
    print(_usage(command), "", head, *(f"  {a:<24}{b}".rstrip() for a, b in rows), sep="\n")
    raise SystemExit(0)


def _usage_error(command: str | None, message: str) -> None:
    """Print the usage line and the error and exit 2."""
    prog = "omcert" if command is None else f"omcert {command}"
    print(f"{_usage(command)}\n{prog}: error: {message}", file=sys.stderr)
    raise SystemExit(2)


# most completions a tope cover may visit; rank r on n elements needs C(n, r-1) * 2**(r-1)
COVER_BOUND = 200_000

# most covectors the axiom check takes on: it visits every pair, so 929 covectors
# (alternating n=8, rank 4) take 0.5-0.8 s, 963 (n=16, rank 3) 1.2-1.5 s and 2,467
# (n=8, rank 5) 2.7-3.5 s (one core of a shared 2-core machine)
COVECTOR_BOUND = 1_000


def _config_from_args(command: str, args: dict[str, object]) -> RunConfig:
    family, n, rank = args.get("family", "alternating"), args.get("n", 6), args.get("rank")
    # strongmap's target is always the pair-swap instance, family m2
    if n % 2 and (family == "m2" or command == "strongmap"):
        _usage_error(command, f"family m2 needs an even ground set, got n={n}")
    if family == "m2":
        if rank is None:
            rank = 2
        elif rank != 2:
            _usage_error(command, "family m2 has rank 2")
    elif rank is None:
        rank = 4
    if not 1 <= n <= 32:
        _usage_error(command, f"n must be within 1..32, got {n}")
    if not 1 <= rank <= n:
        _usage_error(command, f"rank must be within 1..n, got rank={rank}, n={n}")
    # refuse tope covers and axiom checks that would run for minutes
    completions = math.comb(n, rank - 1) << (rank - 1)
    if completions > COVER_BOUND:
        why = f"its tope cover visits {completions} completions, more than {COVER_BOUND}"
        _usage_error(command, f"n={n}, rank={rank} is too large: {why}")
    if command == "axioms":
        covectors = uniform_covector_count(n, rank)
        if covectors > COVECTOR_BOUND:
            why = f"its {covectors} covectors are more than the {COVECTOR_BOUND} the axiom check takes"
            _usage_error(command, f"n={n}, rank={rank} is too large: {why}")
    if args.get("threads", 1) < 1:
        _usage_error(command, f"threads must be >= 1, got {args['threads']}")
    return RunConfig(
        command, n, rank, family, args.get("output"), args.get("format", "json"), args.get("certificate")
    )


def parse_args(argv: list[str] | None = None) -> RunConfig:
    """The run configuration of ``--opt value`` or ``--opt=value`` options;
    the last of a repeated option wins."""
    argv = sys.argv[1:] if argv is None else argv
    if not argv or argv[0] not in _COMMANDS:
        if argv and argv[0] in ("-h", "--help"):
            _print_help(None)
        _usage_error(None, f"invalid command {argv[0]!r}" if argv else "a command is required")
    command, tokens = argv[0], iter(argv[1:])
    args: dict[str, object] = {}
    unknown = []
    for token in tokens:
        if token in ("-h", "--help"):
            _print_help(command)
        name, has_value, value = token.partition("=")
        if name not in _COMMANDS[command][1]:
            unknown.append(token)
            continue
        if not has_value:
            value = next(tokens, None)
            if value is None or _OPTION_LIKE.fullmatch(value):
                _usage_error(command, f"argument {name}: expected one argument")
        kind = _OPTIONS[name][1]
        if kind is int:
            try:
                value = int(value)
            except ValueError:
                _usage_error(command, f"argument {name}: invalid int value: {value!r}")
        elif kind is not str and value not in kind:
            _usage_error(command, f"argument {name}: invalid choice: {value!r}")
        args[name[2:]] = value
    if unknown:
        _usage_error(command, "unrecognized arguments: " + " ".join(unknown))
    return _config_from_args(command, args)


def main(argv: list[str] | None = None) -> int:
    cfg = parse_args(argv)
    try:
        return run(cfg)
    except (ValueError, VerificationError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
