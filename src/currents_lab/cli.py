"""Command line front end.

Single computations (reduce, apply, coord, length, intersect) print one exact
value per invocation; experiments and iterations emit structured reports with
every number as an exact p/q string.  Reports are byte-identical across runs
with equal parameters and seed.

Exit codes: 0 success, 1 failed report assertion or selftest, 2 rejected
literal, 3 domain precondition, 4 limit evaluation not stabilized.
"""

from __future__ import annotations

import argparse
import functools
import sys
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

from .automorphisms import parse_automorphism
from .currents import _power_image, coordinate, length as current_length, parse_current
from .dynamics import (
    ConvergenceReport,
    iterate_current,
    run_minimality_walk,
    run_off_critical_perturbation,
    run_outlook_identity,
    run_primitive_limit,
    run_product_minimal,
    run_theorem_back,
    run_theorem_main,
)
from .errors import CurrentsLabError, NotStabilizedError, ParseError
from .selftest import run_selftest
from .trees import intersection_form, length_britton, length_limit, parse_tree
from .words import Basis, cyclic_reduce, word

EXIT_OK = 0
EXIT_ASSERTION = 1
EXIT_PARSE = 2
EXIT_DOMAIN = 3
EXIT_NOT_STABILIZED = 4

DEFAULT_RANK = 5


def _print_word(u) -> None:
    print(str(u) if len(u) else "1")


def cmd_reduce(args: argparse.Namespace) -> int:
    basis = Basis(args.rank)
    u = word(basis, args.word)
    if args.cyclic:
        cycle, _ = cyclic_reduce(u)
        print(str(cycle))
    else:
        _print_word(u)
    return EXIT_OK


def cmd_apply(args: argparse.Namespace) -> int:
    basis = Basis(args.rank)
    phi = parse_automorphism(basis, args.aut)
    if args.cyclic:
        cycle, _ = cyclic_reduce(word(basis, args.word))
        image, _ = cyclic_reduce(_power_image(phi, args.power, cycle))
        print(str(image))
    else:
        _print_word(_power_image(phi, args.power, word(basis, args.word)))
    return EXIT_OK


def cmd_coord(args: argparse.Namespace) -> int:
    basis = Basis(args.rank)
    print(coordinate(word(basis, args.word), parse_current(basis, args.current)))
    return EXIT_OK


def cmd_length(args: argparse.Namespace) -> int:
    basis = Basis(args.rank)
    if (args.tree is None) == (args.current is None):
        raise CurrentsLabError("length needs exactly one of --tree (with -g) or -c")
    if args.current is not None:
        print(current_length(parse_current(basis, args.current)))
        return EXIT_OK
    if args.word is None:
        raise CurrentsLabError("--tree needs a group element: -g WORD")
    tree = parse_tree(basis, args.tree)
    g = word(basis, args.word)
    if args.route == "britton":
        print(length_britton(tree, g))
    elif args.route == "limit":
        print(length_limit(tree, g, cap=args.cap))
    else:
        britton = length_britton(tree, g)
        limit = length_limit(tree, g, cap=args.cap)
        if britton != limit:
            print(f"route disagreement: britton={britton} limit={limit}", file=sys.stderr)
            return EXIT_ASSERTION
        print(britton)
    return EXIT_OK


def cmd_intersect(args: argparse.Namespace) -> int:
    basis = Basis(args.rank)
    tree = parse_tree(basis, args.tree)
    nu = parse_current(basis, args.current)
    print(intersection_form(tree, nu))
    return EXIT_OK


def _emit_report(report: ConvergenceReport, out: str | None, csv_path: str | None) -> int:
    if out:
        Path(out).write_text(report.to_json())
    if csv_path:
        Path(csv_path).write_text(report.to_csv())
    if out or csv_path:
        for target in filter(None, (out, csv_path)):
            print(f"wrote {target}")
        for result in report.assertions:
            mark = "ok  " if result.passed else "FAIL"
            suffix = f" :: {result.witness}" if not result.passed and result.witness else ""
            print(f"{mark} {result.name}{suffix}")
        if not report.assertions:
            print("FAIL no assertion was checked")
    else:
        sys.stdout.write(report.to_json())
    return EXIT_OK if report.passed else EXIT_ASSERTION


def cmd_iterate(args: argparse.Namespace) -> int:
    basis = Basis(args.rank)
    phi = parse_automorphism(basis, args.aut)
    nu = parse_current(basis, args.current)
    limit = parse_current(basis, args.limit) if args.limit else None
    report = iterate_current(phi, nu, steps=args.iters, level=args.level, limit=limit)
    return _emit_report(report, args.out, args.csv)


@dataclass(frozen=True)
class Experiment:
    """A ``run_*`` function and the experiment flags it takes.

    ``knobs`` maps each keyword of ``run`` to the flag that sets it; a knob
    left unset gets the ``run_*`` default.  ``words`` maps each flag whose
    word ``run`` takes first, in order, to its default word; words are parsed
    over ``--rank``, 3 when unset.  Any other experiment flag is a usage error.
    """

    run: Callable[..., ConvergenceReport]
    knobs: dict[str, str]
    words: dict[str, str] = field(default_factory=dict)

    def flags(self) -> set[str]:
        """The flags this experiment takes, by their ``argparse`` names."""
        return {*self.knobs.values(), *self.words, *(["rank"] if self.words else [])}

    def __call__(self, args: argparse.Namespace) -> ConvergenceReport:
        basis = Basis(getattr(args, "rank", 3))
        words = [word(basis, getattr(args, flag, default)) for flag, default in self.words.items()]
        given = {param: getattr(args, flag) for param, flag in self.knobs.items() if hasattr(args, flag)}
        return self.run(*words, **given)


def _knobs(*flags: str, **renamed: str) -> dict[str, str]:
    """Knobs set by the flag of the same name, and ``renamed`` ones (keyword=flag)."""
    return {**{flag: flag for flag in flags}, **renamed}


# experiment id -> experiment; each run_* owns its knob defaults and its rank check
EXPERIMENTS: dict[str, Experiment] = {
    "theorem-main": Experiment(run_theorem_main, _knobs("iters", "level", "rank", "cap")),
    "theorem-back": Experiment(run_theorem_back, _knobs("rank")),
    "product-minimal": Experiment(run_product_minimal, _knobs("iters", "level", "rank", "cap")),
    "primitive-limit": Experiment(run_primitive_limit, _knobs("iters", "level"), {"u": "ab"}),
    "off-critical": Experiment(
        run_off_critical_perturbation, _knobs("iters", "level"), {"g": "abaB", "f": "a"}
    ),
    "outlook-identity": Experiment(run_outlook_identity, _knobs("iters", "rank", "seed")),
    "minimality-walk": Experiment(
        run_minimality_walk, _knobs("trials", "level", "seed", "rank", steps="iters")
    ),
}
# every experiment flag; the experiment parser leaves each one unset unless it is given
KNOBS = set().union(*(experiment.flags() for experiment in EXPERIMENTS.values()))


def cmd_experiment(args: argparse.Namespace) -> int:
    experiment = EXPERIMENTS[args.id]
    ignored = sorted(KNOBS.intersection(vars(args)) - experiment.flags())
    if ignored:
        names = ", ".join(("-" if len(flag) == 1 else "--") + flag for flag in ignored)
        _build_parser().error(f"experiment {args.id} does not take {names}")
    return _emit_report(experiment(args), args.out, args.csv)


def cmd_selftest(args: argparse.Namespace) -> int:
    suites = run_selftest(seed=args.seed, quick=args.quick)
    failures = 0
    for suite in suites:
        for check in suite.checks:
            mark = "ok  " if check.passed else "FAIL"
            line = f"{mark} {suite.module:14s} {check.name} ({check.trials} trials)"
            if not check.passed and check.witness:
                line += f" :: {check.witness}"
            print(line)
            failures += 0 if check.passed else 1
    total = sum(len(s.checks) for s in suites)
    print(f"{total - failures}/{total} checks passed (seed {args.seed})")
    return EXIT_OK if failures == 0 else EXIT_ASSERTION


@functools.cache  # built once per process; parsing leaves the parser unchanged
def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="currents-lab",
        description="Exact computations with rational geodesic currents, "
        "twist automorphisms, and splitting trees.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p: argparse.ArgumentParser, rank_default: int | None = DEFAULT_RANK) -> None:
        p.add_argument("--rank", type=int, default=rank_default, help="basis rank")

    p = sub.add_parser("reduce", help="freely or cyclically reduce a word")
    common(p)
    p.add_argument("-w", "--word", required=True)
    p.add_argument("--cyclic", action="store_true", help="canonical cyclic form")
    p.set_defaults(handler=cmd_reduce)

    p = sub.add_parser("apply", help="apply an automorphism (power) to a word")
    common(p)
    p.add_argument("--aut", required=True, help="automorphism literal or builtin name")
    p.add_argument("-w", "--word", required=True)
    p.add_argument("-n", "--power", type=int, default=1, help="power, may be negative")
    p.add_argument("--cyclic", action="store_true", help="act on the conjugacy class")
    p.set_defaults(handler=cmd_apply)

    p = sub.add_parser("coord", help="cylinder coordinate of a word on a current")
    common(p)
    p.add_argument("-v", "--word", required=True)
    p.add_argument("-c", "--current", required=True)
    p.set_defaults(handler=cmd_coord)

    p = sub.add_parser("length", help="current length, or translation length on a tree")
    common(p)
    p.add_argument("--tree", help="tree literal, e.g. 'twist (a:b,1)'")
    p.add_argument("-g", "--word", help="group element for --tree")
    p.add_argument("-c", "--current", help="current literal for ||.||")
    p.add_argument(
        "--route",
        choices=("britton", "limit", "both"),
        default="britton",
        help="tree evaluation route; 'both' cross-checks the two",
    )
    p.add_argument("--cap", type=int, default=64, help="iteration cap for the limit route")
    p.set_defaults(handler=cmd_length)

    p = sub.add_parser("intersect", help="intersection pairing of a tree and a current")
    common(p)
    p.add_argument("--tree", required=True)
    p.add_argument("-c", "--current", required=True)
    p.set_defaults(handler=cmd_intersect)

    p = sub.add_parser("iterate", help="iterate an automorphism on a current")
    common(p)
    p.add_argument("--aut", required=True)
    p.add_argument("-c", "--current", required=True)
    p.add_argument("--limit", help="optional target current for distance columns")
    p.add_argument("--iters", type=int, default=10)
    p.add_argument(
        "--level",
        type=int,
        default=1,
        help="longest read of the distances to --limit; without --limit it only appears in the params",
    )
    p.add_argument("--out", help="write the JSON report here")
    p.add_argument("--csv", help="write the CSV tables here")
    p.set_defaults(handler=cmd_iterate)

    p = sub.add_parser("experiment", help="run a named experiment")
    p.add_argument("id", choices=sorted(EXPERIMENTS))
    unset = argparse.SUPPRESS  # cmd_experiment tells the flags given from the ones left out
    common(p, rank_default=unset)
    for knob in ("level", "iters", "cap", "seed", "trials"):
        p.add_argument(f"--{knob}", type=int, default=unset)
    p.add_argument("-u", default=unset, help="primitive-limit: word in a, b (default ab)")
    p.add_argument("-g", default=unset, help="off-critical: base word (default abaB)")
    p.add_argument("-f", default=unset, help="off-critical: perturbation word (default a)")
    p.add_argument("--out", help="write the JSON report here")
    p.add_argument("--csv", help="write the CSV tables here")
    p.set_defaults(handler=cmd_experiment)

    p = sub.add_parser("selftest", help="run the seeded invariant suites")
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--quick", action="store_true", help="tenfold smaller corpora")
    p.set_defaults(handler=cmd_selftest)

    return parser


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return args.handler(args)
    except ParseError as exc:
        print(f"error: {exc}", file=sys.stderr)
        if exc.text:
            print(f"  {exc.text}", file=sys.stderr)
            print(f"  {' ' * exc.position}^", file=sys.stderr)
        return EXIT_PARSE
    except NotStabilizedError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_NOT_STABILIZED
    except (CurrentsLabError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DOMAIN


if __name__ == "__main__":
    sys.exit(main())
