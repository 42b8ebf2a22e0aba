"""Independent reference implementations that tests use as oracles.

``parse`` is the argparse command line that ``omcert.cli`` had before its
table-driven parser; the two must agree on every run configuration and
certificate path, and on which command lines are usage errors.
"""

from __future__ import annotations

import argparse

from omcert.cli import RunConfig


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="omcert",
        description=(
            "Oriented-matroid certificates: tope enumeration, axiom checks, "
            "strong-map verdicts, the exhaustive intermediate search on six "
            "elements, and the eight-element nonfactorizability pipeline."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--format", choices=("json", "text"), default="json")
    common.add_argument("--output", dest="output_path", default=None, metavar="PATH")

    instance = argparse.ArgumentParser(add_help=False)
    instance.add_argument("--family", choices=("alternating", "m2"), default="alternating")
    instance.add_argument("--n", type=int, default=6)
    instance.add_argument("--rank", type=int, default=None)

    threaded = argparse.ArgumentParser(add_help=False)
    threaded.add_argument(
        "--threads",
        type=int,
        default=1,
        metavar="N",
        help="accepted for compatibility; the search runs in one thread and N has no effect",
    )

    sub.add_parser("topes", parents=[common, instance], help="list canonical topes of one instance")
    sub.add_parser("axioms", parents=[common, instance], help="axiom reports for one instance")
    strongmap = sub.add_parser(
        "strongmap", parents=[common], help="strong-map verdict alternating -> m2"
    )
    strongmap.add_argument("--n", type=int, default=6)
    strongmap.add_argument("--rank", type=int, default=4)
    sub.add_parser(
        "lemma6", parents=[common, threaded], help="exhaustive intermediate search on 6 elements"
    )
    verify = sub.add_parser(
        "verify-n8",
        parents=[common, threaded],
        help="premise, restriction and conflict checks at n=8",
    )
    verify.add_argument(
        "--certificate",
        default=None,
        metavar="PATH",
        help="reuse a previously emitted search certificate instead of re-running the search",
    )
    sub.add_parser("all", parents=[common, threaded], help="full pipeline certificate")
    for command_parser in sub.choices.values():  # usage errors print the subcommand usage
        command_parser.set_defaults(command_parser=command_parser)
    return parser


def _config_from_args(parser: argparse.ArgumentParser, args: argparse.Namespace) -> RunConfig:
    family = getattr(args, "family", "alternating")
    n = getattr(args, "n", 6)
    rank = getattr(args, "rank", None)
    # strongmap's target is always the pair-swap instance, family m2
    if n % 2 and (family == "m2" or args.command == "strongmap"):
        parser.error(f"family m2 needs an even ground set, got n={n}")
    if family == "m2":
        if rank is None:
            rank = 2
        elif rank != 2:
            parser.error("family m2 has rank 2")
    elif rank is None:
        rank = 4
    if not 1 <= n <= 32:
        parser.error(f"n must be within 1..32, got {n}")
    if not 1 <= rank <= n:
        parser.error(f"rank must be within 1..n, got rank={rank}, n={n}")
    if getattr(args, "threads", 1) < 1:
        parser.error(f"threads must be >= 1, got {args.threads}")
    return RunConfig(
        command=args.command,
        n=n,
        rank=rank,
        family=family,
        output_path=args.output_path,
        format=args.format,
    )


def parse(argv: list[str]) -> tuple[RunConfig, str | None]:
    """The run configuration and certificate path of ``argv``; raises
    SystemExit(2) on a usage error, as ``omcert.cli.parse_args`` does."""
    args = build_parser().parse_args(argv)
    return _config_from_args(args.command_parser, args), getattr(args, "certificate", None)
