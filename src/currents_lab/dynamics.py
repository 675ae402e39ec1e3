"""The named experiments and the rules their reports share.

This module owns the reports, the escape rule (:func:`escape_from_critical`)
and the distance laws.  Tree-side limits come from :func:`trees.tree_orbit_limit`,
and current orbits from the orbit driver in :mod:`currents_lab.currents`.  Each
current-side limit is certified by an exact distance law at finite step counts: one
:class:`Law` on the driver's int rows ``(norm, gap)``, and each monotone check one
rule, :func:`_rise`.  A rate constant a report asserts, such as
``2/(n+2)`` or ``1/(n+1)``, is derived by hand and checked exactly at every step the report
computes, not for all n; the tests check the orbit driver against the public ``act`` route,
not the constants.  Reports flag these constants as derived (:data:`DERIVED_RATE_NOTE`, whose
text the report digests pin).  All arithmetic is exact (`Fraction`), and reports are
deterministic functions of their parameters.
"""

from __future__ import annotations

import csv
import io
import json
from dataclasses import dataclass, field
from fractions import Fraction
from functools import partial
from json.encoder import encode_basestring_ascii as _encode
from math import gcd
from random import Random
from typing import NamedTuple, Sequence

from .automorphisms import (
    FreeAutomorphism,
    apply,
    automorphism_str,
    compose,
    double_prime_basis_change,
    double_twist,
    inverse,
    parse_automorphism,
    power,
    prime_basis_change,
    simple_twist,
)
from .corpus import random_current, random_reduced_word
from .currents import (
    RationalCurrent,
    _critical_check,
    _current_reads,
    _orbit_distances,
    _orbit_rows,
    _orbit_reads,
    _orbit_terms,
    _power_head,
    act,
    check_row_budget,
    coordinate,
    current_str,
    in_critical_set,
    projective_distance,
    projective_vector,
    rational_current,
    scale as scale_current,
)
from .errors import BasisMismatchError, RankError, ZeroCurrentError
from .trees import (
    ProjectiveTreeVector,
    cayley_tree,
    double_twist_tree,
    intersection_form,
    length as tree_length,
    projective_tree_vector,
    tree_orbit_limit,
    tree_projective_eq,
    twist_tree,
)
from .words import Basis, Word, _split, free_reduce, word


DERIVED_RATE_NOTE = (
    "rate constants are implementation-derived and were validated against an "
    "independent brute-force oracle before being asserted"
)
EXACT_NOTE = "all values are exact rationals, serialized as p/q strings"


@dataclass(frozen=True)
class AssertionResult:
    name: str
    passed: bool
    witness: str


@dataclass(frozen=True)
class TableSection:
    name: str
    columns: tuple[str, ...]
    rows: tuple[tuple[str, ...], ...]


@dataclass
class ConvergenceReport:
    """Deterministic experiment record; no timestamps, no floats."""

    experiment: str
    params: dict[str, str]
    claims: list[str]
    tables: list[TableSection]
    assertions: list[AssertionResult]
    notes: list[str] = field(default_factory=list)

    @property
    def passed(self) -> bool:
        """At least one assertion was checked, and all of them held."""
        return bool(self.assertions) and all(a.passed for a in self.assertions)

    def to_json_dict(self) -> dict:
        return {
            "experiment": self.experiment,
            "params": dict(sorted(self.params.items())),
            "claims": list(self.claims),
            "tables": [
                {"name": t.name, "columns": list(t.columns), "rows": [list(r) for r in t.rows]}
                for t in self.tables
            ],
            "assertions": [
                {"name": a.name, "passed": a.passed, "witness": a.witness}
                for a in self.assertions
            ],
            "notes": list(self.notes),
            "passed": self.passed,
        }

    def to_json(self) -> str:
        return _dumps(self.to_json_dict()) + "\n"

    def to_csv(self) -> str:
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        for table in self.tables:
            writer.writerow(["table", table.name])
            writer.writerow(table.columns)
            writer.writerows(table.rows)
            writer.writerow([])
        return buf.getvalue()


def _dumps(value, indent: str = "\n") -> str:
    """``json.dumps(value, indent=2, sort_keys=True)``, byte for byte, for str-keyed values.

    With any ``indent`` the standard library runs its pure-Python encoder;
    here every string goes through the C ``encode_basestring_ascii``, and a
    list of strings (a table row) is joined in one pass.  ``indent`` is the
    newline and the indent of the enclosing container.  It pays for itself: with
    ``json.dumps`` a current-orbit report took 26-76% longer (2 CPUs, Python 3.11.7).
    """
    inner = indent + "  "
    if isinstance(value, str):
        return _encode(value)
    if isinstance(value, dict):
        if not value:
            return "{}"
        items = (_encode(key) + ": " + _dumps(item, inner) for key, item in sorted(value.items()))
        return "{" + inner + ("," + inner).join(items) + indent + "}"
    if isinstance(value, (list, tuple)):
        if not value:
            return "[]"
        try:
            body = ("," + inner).join(map(_encode, value))
        except TypeError:  # not all strings
            body = ("," + inner).join(_dumps(item, inner) for item in value)
        return "[" + inner + body + indent + "]"
    return json.dumps(value)


def _ratio(p: int, q: int) -> str:
    """``str(Fraction(p, q))`` for ``q > 0``, from one gcd and without building the Fraction.

    It pays for itself: with it and :func:`_dumps` swapped for the standard library, a report took 62-119% longer.
    """
    g = gcd(p, q)
    return str(p // q) if g == q else f"{p // g}/{q // g}"


def _assert(results: list[AssertionResult], name: str, passed: bool, witness: str) -> None:
    results.append(AssertionResult(name, bool(passed), witness))


def _assert_all(results: list[AssertionResult], name: str, failures: Sequence[str], held: str) -> None:
    """A law checked case by case: it passes with no failures; the witness is the first one."""
    _assert(results, name, not failures, failures[0] if failures else held)


class Law(NamedTuple):
    """``gap den(n) REL num(n) norm^e ||g||`` on the driver's row ``(norm, gap)`` of each step ``n >= first``.

    ``num`` and ``den`` are int polynomials in n, constant term first; REL is ``<=`` if ``at_most``, else ``==``.
    """

    num: tuple[int, ...]
    den: tuple[int, ...]
    e: int = 1
    at_most: bool = False
    first: int = 0

    def bound(self, n: int, norm: int) -> tuple[int, int]:
        """The distance bound ``num(n) / (den(n) norm^(1-e))``, unreduced; ``den(n) <= 0`` raises, also under ``-O``."""
        num = den = 0
        for c in reversed(self.num):
            num = num * n + c
        for c in reversed(self.den):
            den = den * n + c
        if den <= 0:
            raise ValueError(f"law denominator {den} at step {n} is not positive")
        return num, den * norm ** (1 - self.e)

    def holds(self, n: int, norm: int, gap: int, goal: int) -> bool:
        """Whether step ``n``'s row keeps the law, ``goal`` being ``||g||``; both sides are times ``norm^(1-e) > 0``."""
        if n < self.first:
            return True
        num, den = self.bound(n, norm)
        return gap * den <= num * norm * goal if self.at_most else gap * den == num * norm * goal


def _rise(rows: Sequence[tuple[int, int]], n: int) -> int:
    """``gap_n norm_(n-1) - gap_(n-1) norm_n``: over one goal, the sign of ``d_n - d_(n-1)``."""
    return rows[n][1] * rows[n - 1][0] - rows[n - 1][1] * rows[n][0]


def _two_steps_for(law: str, iters: int) -> None:
    """Reject ``iters < 2`` for a law on the steps from 1 on, which would pass with no pair compared."""
    if iters < 2:
        raise ValueError(f"iters must be at least 2 to check '{law}', got {iters}")


def _at_least_one(**counts: int) -> None:
    """Reject step, trial, cap and level counts below 1: no claim may pass untested."""
    for name, value in counts.items():
        if value < 1:
            raise ValueError(f"{name} must be at least 1, got {value}")


def iterate_current(
    phi: FreeAutomorphism,
    nu0: RationalCurrent,
    steps: int,
    level: int,
    limit: RationalCurrent | None = None,
) -> ConvergenceReport:
    """Exact orbit table of ``phi^n(nu0)`` with optional distances to a limit.

    When the first step strictly increases the length, the whole orbit is
    checked against the linear lower bound
    ``||phi^n nu0|| >= ||nu0|| + n*(||phi nu0|| - ||nu0||)``; an orbit that
    does not grow checks nothing, so its report does not pass.  The orbit
    runs through ``currents._orbit_distances``; lengths are norms over the
    common denominator, and an orbit without a limit runs the driver's one
    head at level 1, with all its checks.  The driver yields each step's
    norm and, with a limit, its distance's numerator ``gap`` over
    ``norm * ||limit||``; both cells are written from these ints by
    :func:`_ratio`.
    """
    if steps < 0:
        raise ValueError(f"steps must be nonnegative, got {steps}")
    _at_least_one(level=level)
    if nu0.is_zero():
        raise ZeroCurrentError("cannot iterate the zero current")
    if phi.basis != nu0.basis:
        raise BasisMismatchError("automorphism and current use different bases")
    if limit is not None and limit.basis != nu0.basis:
        raise BasisMismatchError("limit and current use different bases")
    goal = _current_reads(limit, level) if limit is not None else None
    start, denominator = _orbit_terms(nu0)
    norms: list[int] = []
    rows: list[tuple[str, ...]] = []
    orbit = _orbit_distances(phi.table, start, phi.basis.rank, steps, level, goal)
    for n, (norm, gap) in enumerate(orbit):
        norms.append(norm)
        if goal is None:
            rows.append((str(n), _ratio(norm, denominator)))
        else:
            rows.append((str(n), _ratio(norm, denominator), _ratio(gap, norm * goal[1])))
    columns = ("step", "length") + (("distance",) if goal is not None else ())
    assertions: list[AssertionResult] = []
    increment = norms[1] - norms[0] if steps >= 1 else 0
    if increment > 0:
        _assert(
            assertions,
            "linear growth lower bound",
            all(norms[n] >= norms[0] + n * increment for n in range(len(norms))),
            f"||nu0||={_ratio(norms[0], denominator)}, "
            f"first increment={_ratio(increment, denominator)}, lengths up to step {steps}",
        )
    return ConvergenceReport(
        experiment="iterate",
        params={
            "automorphism": automorphism_str(phi),
            "current": current_str(nu0),
            "steps": str(steps),
            "level": str(level),
            "limit": current_str(limit) if limit is not None else "",
            "rank": str(nu0.basis.rank),
        },
        claims=["orbit lengths and projective distances are exact at every step"],
        tables=[TableSection("orbit", columns, tuple(rows))],
        assertions=assertions,
        notes=[EXACT_NOTE],
    )


@dataclass(frozen=True)
class EscapeChoice:
    """Twist, iteration direction, and target letter leaving the critical set."""

    twist: FreeAutomorphism
    direction: int
    target: int
    reason: str


def escape_from_critical(nu: RationalCurrent) -> EscapeChoice:
    """Choose a twist whose iteration drives ``nu`` to a generator current.

    The twisted letter t is the generator with the largest single-letter
    coordinate (smallest index on ties).  Among all twistors z != t and both
    directions, the pair with the largest exact length increment
    ``(t;nu) - 2(tz^{-(direction)};nu)`` is chosen; it is always positive,
    since the two-letter extensions of t cannot all carry half its weight.
    When the current is critical for the canonical pair (t and the smallest
    other generator, judged by ``currents._critical_check`` as in
    :func:`in_critical_set`), both extension coordinates toward some third letter
    are forced to vanish and that twist wins with the full increment (t;nu).
    The increment never decreases along the iteration and the single-letter
    deficit is invariant, so at rank 3 the walk is within 1/10 of the target
    current after 40 steps at level 1, where only letter frequencies count.
    That is a level-1 fact: in ``run_minimality_walk(trials=200)`` (seed 1,
    rank 3) the worst walk needs 19 steps at level 1 and 37 at level 2, and
    at levels 3 and 4 some walk is still farther than 1/10 after 40 steps.

    Coordinates are compared as the ints of one level-2
    ``currents._orbit_reads``, all over the weights' one common denominator;
    only the reason string divides them, as ``p/q`` text (:func:`_ratio`).
    """
    basis = nu.basis
    if basis.rank < 3:
        raise RankError(f"escape requires rank >= 3, got {basis.rank}")
    if nu.is_zero():
        raise ZeroCurrentError("the zero current has no escape direction")
    gens = list(basis.generators())
    terms, denominator = _orbit_terms(nu)
    counts = _orbit_reads(terms, 2)[0]
    t = max(gens, key=lambda i: (counts.get((i,), 0), -i))
    name = basis.letter_name
    t_count = counts.get((t,), 0)
    best: tuple[int, int, int, int] | None = None
    for z in gens:
        if z == t:
            continue
        for direction in (1, -1):
            blocker = counts.get((t, -direction * z), 0)
            margin = t_count - 2 * blocker
            key = (margin, -z, direction)
            if best is None or key > (best[0], -best[1], best[2]):
                best = (margin, z, direction, blocker)
    if best is None or best[0] <= 0:
        raise RuntimeError("no positive increment: impossible for a nonzero current")
    margin, z, direction, blocker = best
    z_canon = min(i for i in gens if i != t)
    if _critical_check(counts, denominator, t, z_canon).member:
        if blocker != 0 or counts.get((t, direction * z), 0) != 0:
            raise RuntimeError("forced vanishing failed")
        reason = (
            f"critical for ({name(t)},{name(z_canon)}): "
            f"({name(t)}{name(z)};nu)=({name(t)}{name(-z)};nu)=0"
        )
    else:
        reason = (
            f"({name(t)};nu)={_ratio(t_count, denominator)} > "
            f"2*({name(t)}{name(-direction * z)};nu)={_ratio(2 * blocker, denominator)}"
        )
    return EscapeChoice(simple_twist(basis, t, z), direction, z, reason)


WALK_RADIUS = Law(num=(1,), den=(10,), at_most=True)
_MAIN_LAW = Law(num=(2,), den=(2, 1))  # theorem-main's current orbits: distance exactly 2/(n+2)


def walk_to_target(
    choice: EscapeChoice, nu: RationalCurrent, steps: int, level: int
) -> tuple[int | None, Fraction]:
    """Iterate the chosen twist; first step with distance <= 1/10 to the target, and that distance.

    Each row of the driver ``currents._orbit_distances`` is judged by :data:`WALK_RADIUS`; past the last, ``None``.
    """
    twist = choice.twist
    if twist.basis != nu.basis:
        raise BasisMismatchError("escape twist and current use different bases")
    table = twist.table if choice.direction == 1 else twist.inverse_table
    target = Word(nu.basis, (choice.target,))  # a generator escape_from_critical chose
    goal = _current_reads(rational_current(target), level)
    orbit = _orbit_distances(table, _orbit_terms(nu)[0], nu.basis.rank, steps, level, goal)
    for n, (norm, gap) in enumerate(orbit):
        if WALK_RADIUS.holds(n, norm, gap, goal[1]):
            return n, Fraction(gap, norm * goal[1])
    return None, Fraction(gap, norm * goal[1])


def run_minimality_walk(
    trials: int = 25,
    steps: int = 40,
    level: int = 1,
    seed: int = 1,
    rank: int = 3,
) -> ConvergenceReport:
    """Random currents walk to within 1/10 of a generator current.

    The 40-step default bounds the walks at level 1 only
    (:func:`escape_from_critical`): at level 3, rank 3, 200 trials, trial 4
    ends at distance 9/86 and the report fails.  More than ``currents.ROW_BUDGET``
    trials are refused before the first walk.
    """
    _at_least_one(trials=trials, steps=steps, level=level)
    check_row_budget("walk table", trials, "trials")
    if rank < 3:
        raise RankError(f"minimality-walk requires rank >= 3, got {rank}")
    basis = Basis(rank)
    rng = Random(seed)
    rows: list[tuple[str, ...]] = []
    worst = 0
    failures: list[str] = []
    for k in range(trials):
        nu = random_current(rng, basis, max_terms=3, max_root_len=8, max_weight=5)
        choice = escape_from_critical(nu)
        reached, dist = walk_to_target(choice, nu, steps, level)
        rows.append(
            (
                str(k),
                current_str(nu),
                basis.letter_name(choice.target),
                str(choice.direction),
                "" if reached is None else str(reached),
                str(dist),
            )
        )
        if reached is None:
            failures.append(f"trial {k}: final distance {dist}")
        else:
            worst = max(worst, reached)
    assertions: list[AssertionResult] = []
    _assert_all(
        assertions,
        f"every walk reaches distance <= 1/10 within {steps} steps",
        failures,
        f"worst case {worst} steps over {trials} trials",
    )
    return ConvergenceReport(
        experiment="minimality-walk",
        params={
            "trials": str(trials),
            "steps": str(steps),
            "level": str(level),
            "seed": str(seed),
            "rank": str(rank),
        },
        claims=[
            "every sampled nonzero rational current admits a twist whose "
            "iteration reaches a generator current's neighborhood quickly"
        ],
        tables=[
            TableSection(
                "walks",
                ("trial", "current", "target", "direction", "steps_needed", "distance"),
                tuple(rows),
            )
        ],
        assertions=assertions,
        notes=[EXACT_NOTE, DERIVED_RATE_NOTE],
    )


def _tree_vector_table(name: str, vec: ProjectiveTreeVector) -> TableSection:
    rows = tuple(
        (str(cls), str(entry)) for cls, entry in zip(vec.classes, vec.entries)
    )
    return TableSection(name, ("class", "entry"), rows)


def run_theorem_main(
    iters: int = 50, level: int = 2, rank: int = 5, cap: int = 64
) -> ConvergenceReport:
    """Divergence certificate: equal tree limits, separated current limits.

    The two markings give projectively distinct twist trees whose double-twist
    orbits converge to the same boundary tree, while the currents forced by
    the twist structure converge to generator currents at mutual distance 1.
    Both iteration directions are certified.
    """
    _at_least_one(iters=iters, level=level)
    if rank < 5:
        raise RankError(f"theorem-main requires rank >= 5, got {rank}")
    basis = Basis(rank)
    beta_prime = prime_basis_change(basis)
    beta_dprime = double_prime_basis_change(basis)
    phi = double_twist(basis)
    phi_back = inverse(phi)
    tree_prime = twist_tree(basis, [(1, 2, Fraction(1))], marking=beta_prime)
    tree_dprime = twist_tree(basis, [(1, 2, Fraction(1))], marking=beta_dprime)
    delta_vec = projective_tree_vector(double_twist_tree(basis, Fraction(1), Fraction(1)), level)

    assertions: list[AssertionResult] = []
    tables: list[TableSection] = [_tree_vector_table("shared-tree-limit", delta_vec)]

    _assert(
        assertions,
        "the two marked trees are projectively distinct at the start",
        not tree_projective_eq(
            projective_tree_vector(tree_prime, level),
            projective_tree_vector(tree_dprime, level),
        ),
        "initial projective tree vectors differ",
    )
    for tree_name, tree in (("prime", tree_prime), ("double-prime", tree_dprime)):
        for direction, stepper in (("forward", phi), ("backward", phi_back)):
            vec = tree_orbit_limit(stepper, tree, level, cap)
            _assert(
                assertions,
                f"{tree_name} {direction} tree orbit limit equals the shared limit",
                tree_projective_eq(vec, delta_vec),
                f"level {level}, cap {cap}",
            )

    mu_b = rational_current(word(basis, "b"))
    mu_d = rational_current(word(basis, "d"))
    seeds = (
        ("prime", rational_current(apply(beta_prime, word(basis, "b"))), mu_b),
        ("double-prime", rational_current(apply(beta_dprime, word(basis, "b"))), mu_d),
    )
    distance_columns = ["step"]
    distance_rows = [[str(n)] for n in range(iters + 1)]
    law_failures: list[str] = []
    for seed_name, seed, target in seeds:
        goal, start = _current_reads(target, 1), _orbit_terms(seed)[0]
        for direction, stepper in (("forward", phi), ("backward", phi_back)):
            distance_columns.append(f"{seed_name}-{direction}")
            for n, (norm, gap) in enumerate(_orbit_distances(stepper.table, start, rank, iters, 1, goal)):
                distance_rows[n].append(_ratio(gap, norm * goal[1]))
                if not _MAIN_LAW.holds(n, norm, gap, goal[1]):
                    num, den = _MAIN_LAW.bound(n, norm)
                    law_failures.append(f"{seed_name} {direction} step {n}: {distance_rows[n][-1]} != {num}/{den}")
    _assert_all(
        assertions,
        "current orbit distance law 2/(n+2) at level 1, both directions",
        law_failures,
        f"exact for all steps n <= {iters}",
    )
    separation = projective_distance(projective_vector(mu_b, 1), projective_vector(mu_d, 1))
    _assert(
        assertions,
        "the two current limits stay at distance exactly 1",
        separation == 1,
        f"distance {separation}",
    )
    tables.append(
        TableSection(
            "current-distances", tuple(distance_columns), tuple(tuple(r) for r in distance_rows)
        )
    )
    return ConvergenceReport(
        experiment="theorem-main",
        params={"iters": str(iters), "level": str(level), "rank": str(rank), "cap": str(cap)},
        claims=[
            "two projectively distinct marked twist trees flow to one boundary "
            "tree while their twist-forced currents keep unit separation, so "
            "no continuous equivariant tree-to-current assignment matches both",
            "the same holds for the inverse iteration, ruling out the "
            "anti-equivariant variant as well",
        ],
        tables=tables,
        assertions=assertions,
        notes=[EXACT_NOTE, DERIVED_RATE_NOTE],
    )


def run_theorem_back(rank: int = 3) -> ConvergenceReport:
    """Two twists with one twistor: marked trees differ, fixed current agrees."""
    if rank < 3:
        raise RankError(f"theorem-back requires rank >= 3, got {rank}")
    basis = Basis(rank)
    tree_plain = twist_tree(basis, [(1, 2, Fraction(1))])
    remark = parse_automorphism(basis, "c->ca | c->cA")
    tree_marked = twist_tree(basis, [(1, 2, Fraction(1))], marking=remark)
    witness = word(basis, "ca")
    len_plain = tree_length(tree_plain, witness)
    len_marked = tree_length(tree_marked, witness)
    assertions: list[AssertionResult] = []
    _assert(assertions, "witness class ca has length 1 on the plain tree", len_plain == 1, f"length {len_plain}")
    _assert(assertions, "witness class ca is elliptic on the re-marked tree", len_marked == 0, f"length {len_marked}")
    _assert(
        assertions,
        "projective tree vectors differ at level 2",
        not tree_projective_eq(
            projective_tree_vector(tree_plain, 2), projective_tree_vector(tree_marked, 2)
        ),
        "vectors compared entrywise",
    )
    twist_plain = simple_twist(basis, 1, 2)
    twist_conj = compose(remark, compose(twist_plain, inverse(remark)))
    mu_b = rational_current(word(basis, "b"))
    _assert(
        assertions,
        "both twists fix the twistor current exactly",
        act(twist_plain, mu_b) == mu_b and act(twist_conj, mu_b) == mu_b,
        f"fixed current {current_str(mu_b)}",
    )
    return ConvergenceReport(
        experiment="theorem-back",
        params={"rank": str(rank)},
        claims=[
            "a backward-converging current orbit cannot pick the tree: two "
            "twists with the same twistor fix the same current yet their "
            "trees' length functions disagree on the witness class"
        ],
        tables=[
            TableSection(
                "witness",
                ("class", "plain tree length", "re-marked tree length"),
                (("ca", str(len_plain), str(len_marked)),),
            )
        ],
        assertions=assertions,
        notes=[EXACT_NOTE],
    )


def run_product_minimal(
    iters: int = 20, level: int = 2, rank: int = 5, cap: int = 64
) -> ConvergenceReport:
    """Paired twist orbit of (marked tree, generator current) hits its limit."""
    _at_least_one(iters=iters, level=level)
    if rank < 5:
        raise RankError(f"product-minimal requires rank >= 5, got {rank}")
    basis = Basis(rank)
    beta_prime = prime_basis_change(basis)
    seed_tree = twist_tree(basis, [(1, 2, Fraction(1))], marking=beta_prime)
    twist = simple_twist(basis, 1, 2)
    assertions: list[AssertionResult] = []
    twistor_len = tree_length(seed_tree, word(basis, "b"))
    _assert(
        assertions,
        "seed tree moves the twistor (length 1 > 0)",
        twistor_len == 1,
        f"||b|| = {twistor_len} on the seed tree",
    )
    limit_vec = projective_tree_vector(twist_tree(basis, [(1, 2, Fraction(1))]), level)
    orbit_vec = tree_orbit_limit(twist, seed_tree, level, cap)
    _assert(
        assertions,
        "tree orbit limit equals the twist tree's vector exactly",
        tree_projective_eq(orbit_vec, limit_vec),
        f"level {level}, cap {cap}",
    )

    mu_a = rational_current(word(basis, "a"))
    mu_b = rational_current(word(basis, "b"))
    crit = in_critical_set(mu_a, 1, 2)
    _assert(
        assertions,
        "seed current is off the critical set",
        not crit.member,
        crit.witness(),
    )
    goal1 = _current_reads(mu_b, 1)
    goal_level = _current_reads(mu_b, level)
    rows = []
    law_failures: list[str] = []
    bound_failures: list[str] = []
    start, denominator = _orbit_terms(mu_a)
    orbit1 = _orbit_distances(twist.table, start, rank, iters, 1, goal1)
    orbit_level = _orbit_distances(twist.table, start, rank, iters, level, goal_level)
    # k ||nu0|| / ||nu_n|| is k norm_0 / norm, both norms over the weights' common denominator
    norm0 = _orbit_reads(start, 1)[1]
    law1, law_level = Law((norm0,), (1,), e=0), Law((level * norm0,), (1,), e=0, at_most=True)
    for n, ((norm, gap1), (_, gap_level)) in enumerate(zip(orbit1, orbit_level)):
        d1 = _ratio(gap1, norm * goal1[1])
        dl = _ratio(gap_level, norm * goal_level[1])
        rows.append((str(n), _ratio(norm, denominator), d1, dl))
        if not law1.holds(n, norm, gap1, goal1[1]):
            law_failures.append(f"step {n}: {d1} != {_ratio(*law1.bound(n, norm))}")
        if not law_level.holds(n, norm, gap_level, goal_level[1]):
            bound_failures.append(f"step {n}: {dl} > {_ratio(*law_level.bound(n, norm))}")
    _assert_all(
        assertions,
        "current distance at level 1 equals ||nu0||/||nu_n|| (= 1/(n+1))",
        law_failures,
        f"equality for all n <= {iters}",
    )
    _assert_all(
        assertions,
        f"current distance at level {level} is at most level*||nu0||/||nu_n||",
        bound_failures,
        f"bound holds for all n <= {iters}",
    )
    return ConvergenceReport(
        experiment="product-minimal",
        params={"iters": str(iters), "level": str(level), "rank": str(rank), "cap": str(cap)},
        claims=[
            "the paired twist orbit of (marked tree, generator current) "
            "converges to (twist tree, twistor current)"
        ],
        tables=[
            TableSection("current-orbit", ("step", "length", "distance_L1", f"distance_L{level}"), tuple(rows)),
            _tree_vector_table("tree-limit", orbit_vec),
        ],
        assertions=assertions,
        notes=[EXACT_NOTE, DERIVED_RATE_NOTE],
    )


def run_primitive_limit(u: Word, iters: int = 20, level: int = 2) -> ConvergenceReport:
    """Distances of ``[c u^n] = [u^n c]`` to ``mu_u``, judged by ``currents._orbit_rows`` off ``currents._power_head``.

    With ``u = p u' p^-1`` and ``u'`` cyclically reduced, ``[c u^n]`` is ``[(p^-1 c p) u'^n]``, of
    ``n ||u|| + m`` letters, ``m = 1 + |u| - ||u||``.  Against the cycle ``u'^n`` it has at most
    ``m + k - 1`` more starts of a k-letter read ``v`` and ``k - 1`` fewer, and ``(v; u'^n) <= n ||u||``,
    so ``d_n <= (level + m - 1)/(n ||u|| + m)``; the report asserts ``(level + m)/(n ||u|| + m)``.
    More than ``currents.ROW_BUDGET`` rows (``iters + 1``) are refused before the first step, and a
    head step if it may pass the letter budget; the periodic tail spells no word.
    """
    _at_least_one(iters=iters, level=level)
    monotone = "distances are nonincreasing from step 1 on"
    _two_steps_for(monotone, iters)
    basis = u.basis
    if basis.rank < 3:
        raise RankError(f"primitive-limit requires rank >= 3, got {basis.rank}")
    if u.is_identity():
        raise ValueError("u must be nontrivial")
    if any(abs(x) > 2 for x in u.letters):
        raise ValueError("u must use only the letters a and b")
    goal = _current_reads(rational_current(u), level)
    m = 1 + len(u.letters) - goal[1]
    law = Law(num=(level + m,), den=(m, goal[1]), at_most=True, first=1)
    check_row_budget("orbit", iters + 1, "steps + 1")
    orbit = list(_orbit_rows(*_power_head(u.letters, (3,), iters, level), iters, goal))
    rows = [
        (str(n), _ratio(gap, norm * goal[1]), _ratio(*law.bound(n, norm)) if n >= law.first else "")
        for n, (norm, gap) in enumerate(orbit)
    ]
    assertions: list[AssertionResult] = []
    violations = [f"first violation at n={n}" for n, row in enumerate(orbit) if not law.holds(n, *row, goal[1])]
    name = f"distance at step n is at most (level+{m})/(n*||u||+{m}) for n >= 1"
    _assert_all(assertions, name, violations, f"holds up to n={iters}")
    increases = [f"first increase at n={n}" for n in range(2, len(orbit)) if _rise(orbit, n) > 0]
    _assert_all(assertions, monotone, increases, "monotone tail")
    return ConvergenceReport(
        experiment="primitive-limit",
        params={
            "u": str(u),
            "iters": str(iters),
            "level": str(level),
            "rank": str(basis.rank),
        },
        claims=[
            "currents of the perturbed powers c*u^n converge projectively to "
            "the current of u; step 0 records the unperturbed sanity distance"
        ],
        tables=[TableSection("distances", ("step", "distance", "bound"), tuple(rows))],
        assertions=assertions,
        notes=[EXACT_NOTE, DERIVED_RATE_NOTE],
    )


def run_off_critical_perturbation(g: Word, f: Word, iters: int = 16, level: int = 2) -> ConvergenceReport:
    """Odd twisted-letter count keeps the perturbed orbit ``nu_n = eta_{g^n f}`` off the critical set.

    With ``g = p g' p^-1``, ``g'`` cyclically reduced, ``g^n f`` is conjugate to ``g'^n h``, ``h = p^-1 f p``
    reduced, of ``m`` letters.  Reduction removes the same ``c <= m`` letters from ``g'^n`` and ``h``, so a
    k-letter read gains at most ``m - c + k - 1`` starts against ``n`` copies of ``g'`` and loses at most
    ``c + k - 1``; as ``(v; g') <= ||g||``, ``d_n <= (m + level - 1)/||nu_n||`` for ``n >= 1``.  If ``g``, ``f``
    and ``g^n f`` are cyclically reduced and ``level <= ||f|| + 1``, that implies ``2 ||f||/(n ||g||)``, which
    is asserted; otherwise the proven bound is.  Rows are ``currents._orbit_rows`` of ``currents._power_head``:
    over ``currents.ROW_BUDGET`` (``iters + 1``) they are refused before the first step, and a head step if
    its ``n |g'| + |h|`` letters may pass the letter budget; the periodic tail spells no word.
    """
    _at_least_one(iters=iters, level=level)
    monotone = "distances to the unperturbed current are nonincreasing from step 1"
    _two_steps_for(monotone, iters)
    check_row_budget("orbit", iters + 1, "steps + 1")
    if g.basis != f.basis:
        raise BasisMismatchError("g and f use different bases")
    basis = g.basis
    if basis.rank < 3:
        raise RankError(f"off-critical requires rank >= 3, got {basis.rank}")
    letter_a = Word(basis, (1,))
    mu_f = rational_current(f)
    parity = coordinate(letter_a, mu_f)
    if parity % 2 != 1:
        raise ValueError(f"(a; mu_f) must be odd, got {parity}")
    mu_g = rational_current(g)
    goal = _current_reads(mu_g, level)
    p, _ = _split(g.letters)
    m = len(free_reduce(basis, [-x for x in reversed(p)] + list(f.letters) + list(p)))
    g0, g1, f0, f1 = g.letters[0], g.letters[-1], f.letters[0], f.letters[-1]
    classic = level <= len(f) + 1 and all(x != -y for x, y in ((g1, g0), (g1, f0), (f1, f0), (f1, g0)))
    rate = "2*||f||/(n*||g||)" if classic else f"(level+{m}-1)/||nu_n||"
    # classic: gap n|g| <= 2|f| norm ||g||; proven: gap <= (m + level - 1) ||g||
    law = Law((2 * len(f),), (0, len(g)), 1, True, 1) if classic else Law((m + level - 1,), (1,), 0, True, 1)
    notes = [EXACT_NOTE, DERIVED_RATE_NOTE]
    seed_crit = in_critical_set(mu_g, 1, 2)
    if not seed_crit.member:
        notes.append("seed current is already off the critical set; perturbation unnecessary")
    # one source at level >= 2 gives the critical check and (a; nu); at level 1 the distances have their own
    source = partial(_power_head, g.letters, f.letters, iters)
    head, tail = source(max(level, 2))
    orbit = list(_orbit_rows(*(source(1) if level == 1 else (head, tail)), iters, goal))
    rows = []
    critical: list[str] = []
    even: list[str] = []
    for n, (norm, gap) in enumerate(orbit):
        if n < len(head):
            counts = head[n][0]
        else:  # step n0 + k reads A + k B: only the three reads the check needs
            n0, (a, _), (b, _) = tail
            counts = {v: a.get(v, 0) + (n - n0) * b.get(v, 0) for v in ((1,), (1, 2), (1, -2))}
        crit = _critical_check(counts, 1, 1, 2)
        count = 2 * crit.half_twisted
        rows.append((str(n), str(count), "yes" if crit.member else "no", _ratio(gap, norm * goal[1])))
        if crit.member:
            critical.append(f"step {n}: {crit.witness()}")
        if count % 2 != 1:
            even.append(f"step {n}: (a; nu) = {count}")
    assertions: list[AssertionResult] = []
    _assert_all(
        assertions, "every perturbed current stays off the critical set", critical, f"checked n <= {iters}"
    )
    _assert_all(
        assertions, "the twisted-letter count stays odd along the orbit", even, f"checked n <= {iters}"
    )
    increases = [f"first increase at n={n}" for n in range(2, len(orbit)) if _rise(orbit, n) > 0]
    _assert_all(assertions, monotone, increases, "monotone tail")
    violations = [f"first violation at n={n}" for n, row in enumerate(orbit) if not law.holds(n, *row, goal[1])]
    _assert_all(assertions, f"distance at step n is at most {rate} for n >= 1", violations, f"holds up to n={iters}")
    return ConvergenceReport(
        experiment="off-critical",
        params={
            "g": str(g),
            "f": str(f),
            "iters": str(iters),
            "level": str(level),
            "rank": str(basis.rank),
        },
        claims=[
            "an odd twisted-letter count forces every perturbed current off "
            "the critical set while the orbit approaches the unperturbed one"
        ],
        tables=[
            TableSection("orbit", ("step", "(a;nu)", "critical", "distance"), tuple(rows))
        ],
        assertions=assertions,
        notes=notes,
    )


def run_outlook_identity(iters: int = 20, rank: int = 3, seed: int = 1) -> ConvergenceReport:
    """Exact pairing values 1/(n(n+1)) along the rescaled twist orbit.

    More than ``currents.ROW_BUDGET`` rows (``iters``) are refused before the first step.
    """
    _at_least_one(iters=iters)
    check_row_budget("pairing table", iters, "iters")
    if rank < 3:
        raise RankError(f"outlook-identity requires rank >= 3, got {rank}")
    basis = Basis(rank)
    twist = simple_twist(basis, 1, 2)
    mu_a = rational_current(word(basis, "a"))
    rows = []
    unequal: list[str] = []
    for n in range(1, iters + 1):
        stepper = power(twist, n)
        tree_n = cayley_tree(basis, marking=stepper, scale=Fraction(1, n))
        nu_n = scale_current(Fraction(1, n + 1), act(stepper, mu_a))
        value = intersection_form(tree_n, nu_n)
        expected = Fraction(1, n * (n + 1))
        rows.append((str(n), str(value), str(expected)))
        if value != expected:
            unequal.append(f"n={n}: {value} != {expected}")
    assertions: list[AssertionResult] = []
    _assert_all(
        assertions,
        "pairing equals 1/(n(n+1)) exactly for every n",
        unequal,
        f"equality for 1 <= n <= {iters}",
    )
    rng = Random(seed)
    moved_apart: list[str] = []
    plain = cayley_tree(basis)
    moved = cayley_tree(basis, marking=twist)
    for _ in range(5):
        nu = rational_current(random_reduced_word(rng, basis, 8))
        lhs = intersection_form(moved, act(twist, nu))
        rhs = intersection_form(plain, nu)
        if lhs != rhs:
            moved_apart.append(f"{current_str(nu)}: {lhs} != {rhs}")
    _assert_all(
        assertions,
        "pairing is invariant under applying the twist to both arguments",
        moved_apart,
        "5 random spot checks",
    )
    return ConvergenceReport(
        experiment="outlook-identity",
        params={"iters": str(iters), "rank": str(rank), "seed": str(seed)},
        claims=[
            "the rescaled orbit pairing evaluates to exactly 1/(n(n+1)); its "
            "limit 0 differs from the pairing of the limits, so the pairing "
            "cannot extend continuously to the boundary"
        ],
        tables=[TableSection("pairing", ("n", "value", "expected"), tuple(rows))],
        assertions=assertions,
        notes=[EXACT_NOTE],
    )
