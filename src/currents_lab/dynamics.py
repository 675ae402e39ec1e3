"""Orbit iteration, exact limit extraction, and the named experiments.

Twist orbits of currents and trees grow exactly linearly after a finite
transient, so limits on the tree side are extracted as exact eventual growth
rates (read off a certified affine tail for twist steppers, see
:func:`tree_orbit_limit`), and limits on the current side are certified by
exact distance laws at finite step counts.  A rate constant a report asserts, such as
``2/(n+2)`` or ``1/(n+1)``, is derived by hand and checked exactly at every step the report
computes, not for all n; the tests check the orbit driver against the public ``act`` route,
not the constants.  Reports flag these constants as derived (:data:`DERIVED_RATE_NOTE`, whose
text the report digests pin).
All arithmetic is exact (`Fraction`), and reports are deterministic functions
of their parameters.
"""

from __future__ import annotations

import csv
import io
import json
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cache, partial
from json.encoder import encode_basestring_ascii as _encode
from math import gcd
from random import Random
from typing import Callable, Sequence

from .automorphisms import (
    FreeAutomorphism,
    SignedTable,
    _cyclic_image,
    _signed_table,
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
    Skeleton,
    TwistForm,
    _current_reads,
    _orbit_distance,
    _orbit_distances,
    _orbit_terms,
    _read_counts,
    _limit,
    _onset,
    _skeleton,
    _syllable_letters,
    _syllables,
    _twist_form,
    act,
    check_letter_budget,
    check_row_budget,
    check_word_budget,
    coordinate,
    current_str,
    in_critical_set,
    length as current_length,
    power_free_classes,
    projective_distance,
    projective_vector,
    rational_current,
    scale as scale_current,
)
from .errors import (
    AllEllipticError,
    BasisMismatchError,
    NotStabilizedError,
    RankError,
    ZeroCurrentError,
)
from .trees import (
    ProjectiveTreeVector,
    TreeLengthFunction,
    Weigher,
    _int_lengths,
    _letter_weight,
    _weigher,
    cayley_tree,
    double_twist_tree,
    intersection_form,
    length as tree_length,
    projective_tree_vector,
    tree_projective_eq,
    twist_tree,
)
from .words import (
    Basis,
    Letter,
    Word,
    _cyclic_core,
    _reduced,
    _unchecked,
    concat,
    cyclic_reduce,
    invert,
    word,
    word_power,
)


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
    newline and the indent of the enclosing container.
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
    """``str(Fraction(p, q))`` for ``q > 0``, from one gcd and without building the Fraction."""
    g = gcd(p, q)
    return str(p // q) if g == q else f"{p // g}/{q // g}"


def _assert(results: list[AssertionResult], name: str, passed: bool, witness: str) -> None:
    results.append(AssertionResult(name, bool(passed), witness))


def _assert_all(results: list[AssertionResult], name: str, failures: Sequence[str], held: str) -> None:
    """A law checked case by case: it passes with no failures; the witness is the first one."""
    _assert(results, name, not failures, failures[0] if failures else held)


def _increases(distances: Sequence[Fraction]) -> list[str]:
    """A witness for each step from 2 on whose distance exceeds the step before's."""
    steps = range(2, len(distances))
    return [f"first increase at n={n}" for n in steps if distances[n] > distances[n - 1]]


def _violations(distances: Sequence[Fraction], bound: Callable[[int], Fraction]) -> list[str]:
    """A witness for each step from 1 on whose distance exceeds ``bound(step)``."""
    return [f"first violation at n={n}" for n in range(1, len(distances)) if distances[n] > bound(n)]


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


def _tree_orbit(
    weigh: Weigher,
    step: SignedTable,
    pull: SignedTable,
    rank: int,
    letters: Sequence[Letter],
    steps: int,
) -> list[int]:
    """Weigher values of ``g, step(g), ..., step^steps(g)`` pulled back through ``pull``.

    ``letters`` spells any nontrivial ``g``; each orbit point is kept as the
    checked cyclic core :func:`_cyclic_image` leaves, in whatever rotation.
    Each step is refused first if it may pass ``currents.LETTER_BUDGET``.
    """
    seq = [weigh(_cyclic_image(pull, letters, rank))]
    for _ in range(steps):
        check_letter_budget(len(letters), step)
        letters = _cyclic_image(step, letters, rank)
        seq.append(weigh(_cyclic_image(pull, letters, rank)))
    return seq


# Added to a letter's absolute value to mark it: past every letter and fresh symbol a weigher
# meets, so no marked letter cancels or pinches with an unmarked one, and no weigher charges one.
_MARK = 1 << 20


def _marked(letters: Sequence[Letter]) -> tuple[int, ...]:
    """``letters`` over the marked alphabet, where the letters still cancel among themselves."""
    return tuple(x + _MARK if x > 0 else x - _MARK for x in letters)


# Per signed generator ``y``: ``(p, r, q, weight)``, where ``pull[y]`` is ``p r q`` with ``q = p^-1`` and
# the period ``r`` its cyclic core, so that a syllable ``y^e``, ``e > 0``, pulls back to ``p r^e q``;
# ``weight`` is ``weight(r)`` when the period has a certificate, and 0 when it has none.
PulledSyllable = tuple[tuple[Letter, ...], tuple[Letter, ...], tuple[Letter, ...], int]


def _period(pull: SignedTable, weigh: Weigher, lengths: dict[int, int], y: int) -> PulledSyllable:
    """The :data:`PulledSyllable` of the signed generator ``y``.

    ``weight(r)`` is ``r``'s letter weight under the weigher's charges
    (:func:`trees._int_lengths`): the weighted count of its stable letters on
    a twist core, its letter weight on a Cayley core.  A period has a
    certificate when ``weight(r) > 0`` and, as a cycle, it weighs
    ``weight(r)``, so that no pinch applies around it, and none inside any
    ``r^e``.
    """
    image = pull[y]
    r = _cyclic_core(image)
    weight = _letter_weight(lengths, r)
    i = (len(image) - len(r)) // 2
    return image[:i], r, image[i + len(r) :], weight if weight and weigh(r) == weight else 0


def _pulled_periods(pull: SignedTable, weigh: Weigher, lengths: dict[int, int]) -> Callable[[int], PulledSyllable]:
    """One orbit's :func:`_period` of each signed generator, built on its first use and kept.

    A period and its verdict depend on the marking and the tree only, so
    each is built and weighed at most once per signed generator per orbit,
    and every moving syllable of every class reads the kept verdict.
    """
    return cache(partial(_period, pull, weigh, lengths))


def _period_growth(limit: Skeleton, pulled: list[PulledSyllable]) -> int:
    """``delta``: a step splices ``|slope|`` periods of weight ``weight(r)`` into each moving block."""
    return sum(abs(slope) * weight for (_, _, slope), (_, _, _, weight) in zip(limit, pulled))


def _marked_pull_back(limit: Skeleton, pulled: list[PulledSyllable], n: int) -> Sequence[int]:
    """The cyclic core of step ``n``'s pull-back with the middle two periods of each moving block marked."""
    letters: list[int] = []
    for (_, c, slope), (p, r, q, _) in zip(limit, pulled):
        e = abs(c + slope * n)
        if slope:
            left = (e - 2) // 2
            letters += p + r * left + _marked(r * 2) + r * (e - 2 - left) + q
        else:
            letters += p + r * e + q
    return _cyclic_core(_reduced(letters))


def _limit_syllables(skeleton: Skeleton, limit: Skeleton, n: int) -> list[tuple[int, int]]:
    """The syllables of step ``n >= n0``, which must be the limit's at ``n``, or ``RuntimeError``."""
    syllables = _syllables(skeleton, n)
    if syllables != [(y, c + slope * n) for y, c, slope in limit]:
        raise RuntimeError(f"step {n} is not the limit skeleton's step {n}")
    return syllables


def _pulled_weight(
    weigh: Weigher, pull: SignedTable, rank: int, skeleton: Skeleton, limit: Skeleton, n: int
) -> int:
    """The weigher value of step ``n >= n0``, whose syllables must be the limit's at ``n``."""
    return weigh(_cyclic_image(pull, _syllable_letters(_limit_syllables(skeleton, limit, n)), rank))


def _affine_law(
    form: TwistForm,
    weigh: Weigher,
    periods: Callable[[int], PulledSyllable],
    pull: SignedTable,
    rank: int,
    letters: Sequence[Letter],
    last: int,
) -> tuple[int, int, int] | None:
    """``(N, f(N), delta)`` with ``f(n) = f(N) + (n - N) delta`` for every ``n >= N``, or None.

    ``N`` is the least certified step up to ``last`` (the argument is in
    :func:`tree_orbit_limit`), searched from the first step from ``n0`` on
    at which every moving block holds two periods (:func:`currents._onset`).
    ``periods`` is the orbit's :func:`_pulled_periods`.  ``f(N + 1)`` is
    weighed too, and a value other than ``f(N) + delta`` raises
    ``RuntimeError``.  A class with no moving syllable is weighed once, at
    ``N = n0``, and its step ``N + 1`` is checked against the limit's syllables.
    """
    skeleton = _skeleton(form, letters)
    limit = _limit(skeleton)
    first = max(_onset(skeleton + limit, 1), _onset(limit, 2))
    if first > last:
        return None
    if not any(slope for _, _, slope in limit):
        value = _pulled_weight(weigh, pull, rank, skeleton, limit, first)
        _limit_syllables(skeleton, limit, first + 1)
        return first, value, 0
    pulled = [periods(y if (slope or c) > 0 else -y) for y, c, slope in limit]
    if any(slope and not weight for (_, _, slope), (_, _, _, weight) in zip(limit, pulled)):
        return None
    marked = 2 * sum(weight for (_, _, slope), (_, _, _, weight) in zip(limit, pulled) if slope)
    for n in range(first, last + 1):
        value = _pulled_weight(weigh, pull, rank, skeleton, limit, n)
        if value == weigh(_marked_pull_back(limit, pulled, n)) + marked:
            break
    else:
        return None
    delta = _period_growth(limit, pulled)
    if _pulled_weight(weigh, pull, rank, skeleton, limit, n + 1) != value + delta:
        raise RuntimeError(
            f"step {n + 1} of {tuple(letters)} is not step {n} plus the certified growth {delta}"
        )
    return n, value, delta


def tree_orbit_limit(
    phi: FreeAutomorphism,
    tree: TreeLengthFunction,
    level: int = 2,
    cap: int = 64,
) -> ProjectiveTreeVector:
    """Exact projective limit of the tree orbit ``phi^n(tree)``.

    For each test class g the orbit length sequence ``f(n) = length(tree,
    phi^{-n} g)`` has a growth rate, and ``f(cap)`` is its last value.  When
    every rate is zero the orbit converges without rescaling and the
    stabilized constant lengths are used instead.  A class takes one of two
    paths.

    When ``phi^-1`` has a twist form (:func:`currents._twist_form`) and
    :func:`_affine_law` certifies the class at some ``N <= cap - 3``, its
    rate is the law's ``delta`` and its last value ``f(N) + (cap - N)
    delta``, read off the law without stepping.  Past the onset ``n0`` of
    its skeleton (:func:`currents._onset`), step n is the
    :func:`currents._limit`'s syllables ``y^e``, ``e = c + slope n``.  Through
    the marking ``beta``, ``y^e`` pulls back to ``p r^e p^-1``, where the
    period ``r`` is the cyclic core of ``beta^-1(y)``.  The certificate is
    the least ``N >= n0`` at which every moving block keeps two consecutive
    full periods that no free cancellation, cyclic reduction or pinch
    touches.  To check it, the middle two periods of each block are written
    over a marked alphabet (:func:`_marked`), which nothing cancels, pinches
    or charges.  Each reduction of the marked word is one of the step-N word
    that leaves those periods whole.  Unmarked, its value is the marked
    word's plus ``2 weight(r)`` per block.  Reducing it further cancels or
    pinches only across the ends of the periods, and every move that reaches
    a charged letter lowers the value, so a period needs ``weight(r) > 0``.
    So if the step-N word weighs exactly that much, it reduces with the two
    periods whole from their first charged letter to their last, and every
    junction in that stretch (within a period, period to period) is one the
    reduced word has.  Step ``n >= N`` is the step-N word with
    ``|slope| (n - N)`` more periods spliced between those two.  It reduces
    by the same moves, and its reduced form has no junction the step-N form
    lacks, so nothing else cancels, reduces or pinches differently.  Hence
    ``f(n) = f(N) + (n - N) delta`` with ``delta = sum |slope| weight(r)``
    over the moving blocks, where ``weight(r)`` is the weighted count of
    ``r``'s stable letters on a twist core and ``r``'s letter weight on a
    Cayley core.  ``f(N + 1)`` is computed directly and must equal
    ``f(N) + delta``, or ``RuntimeError`` is raised.  A period of weight 0,
    or one that pinches around its own cycle (:func:`_period`), has no
    certificate.  A period depends only on the signed generator ``y`` and
    the marking, so each orbit builds and weighs it at most once
    (:func:`_pulled_periods`), and every class reads the kept verdict.

    A class with no moving limit syllable has the same syllables at every
    step from ``n0`` on.  Its marked word is its unmarked one, so the check
    ``f(N) == f(N) + 0`` cannot fail, and the certificate holds at
    ``N = n0``.  Step ``N + 1``'s syllables are still checked against the
    limit's, with the same ``RuntimeError``; once they match, step ``N + 1``
    spells the same letters as step ``N``, so ``f(N + 1) = f(N)`` and the
    class is weighed once, with ``delta = 0``.

    Every other class (a stepper without a twist form, or a class with no
    certificate by ``cap - 3``) is stepped once, steps 0 to ``cap``
    (:func:`_tree_orbit`), each step refused first if it may pass
    ``currents.LETTER_BUDGET``.  Its last four values (so ``cap >= 3``)
    must be affine with a rate ``>= 0``, its growth rate; a
    :class:`NotStabilizedError` carries the scaled lengths of that same
    orbit, for the first class that fails.  Translation length is a conjugacy invariant, so each class is
    kept as a cyclic core, ``g <- core of phi^-1(g)``, and measured by the
    tree's int weigher (:func:`trees._weigher`) on the core of its
    pull-back through the marking.  Every unmarked word weighed is checked
    with :func:`_cyclic_image`'s raises, which ``python -O`` keeps.  Rates
    and values stay ints over the weigher's common factor, which cancels in
    the projective vector.  Each step spells ``phi^-n(g)`` out, so for a
    linearly growing stepper without a twist form the work grows with
    ``cap^2``, and each step is still refused at the letter budget.  Every
    stepper the CLI iterates has a twist form, so there only a class with
    ``cap < N + 3`` is stepped, at small caps.
    """
    _at_least_one(cap=cap, level=level)
    if phi.basis != tree.basis:
        raise BasisMismatchError("automorphism and tree use different bases")
    classes = power_free_classes(tree.basis, level)
    weigh, factor = _weigher(tree)
    lengths, _ = _int_lengths(tree)
    rank = tree.basis.rank
    step, pull = phi.inverse_table, tree.marking.inverse_table
    form = _twist_form(step, rank)
    rates: list[int] = []
    lasts: list[int] = []
    periods = _pulled_periods(pull, weigh, lengths)
    for cls in classes:
        law = None if form is None else _affine_law(form, weigh, periods, pull, rank, cls.root.letters, cap - 3)
        if law is not None:
            first, value, delta = law
            rates.append(delta)
            lasts.append(value + (cap - first) * delta)
            continue
        seq = _tree_orbit(weigh, step, pull, rank, cls.root.letters, cap)
        rate = seq[-1] - seq[-2]
        if cap < 3 or rate < 0 or seq[-4:] != [seq[-4] + k * rate for k in range(4)]:
            raise NotStabilizedError(
                f"class {cls}: no stable growth rate within {cap} iterations",
                tuple(factor * v for v in seq),
            )
        rates.append(rate)
        lasts.append(seq[-1])
    values = lasts if all(r == 0 for r in rates) else rates
    total = sum(values)
    if total == 0:
        raise AllEllipticError("every test class stays elliptic along the orbit")
    return ProjectiveTreeVector(
        tree.basis, level, classes, tuple(Fraction(v, total) for v in values)
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
    other generator), both extension coordinates toward some third letter
    are forced to vanish and that twist wins with the full increment (t;nu).
    The increment never decreases along the iteration and the single-letter
    deficit is invariant, so at rank 3 the walk is within 1/10 of the target
    current after 40 steps at level 1, where only letter frequencies count.
    That is a level-1 fact: in ``run_minimality_walk(trials=200)`` (seed 1,
    rank 3) the worst walk needs 19 steps at level 1 and 37 at level 2, and
    at levels 3 and 4 some walk is still farther than 1/10 after 40 steps.

    Coordinates are compared as the ints of ``currents._read_counts``, all
    over the weights' one common denominator; only the reason string divides
    them, as ``p/q`` text (:func:`_ratio`).
    """
    basis = nu.basis
    if basis.rank < 3:
        raise RankError(f"escape requires rank >= 3, got {basis.rank}")
    if nu.is_zero():
        raise ZeroCurrentError("the zero current has no escape direction")
    gens = list(basis.generators())
    counts, denominator = _read_counts(nu, 2)
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
    critical = (
        t_count <= 2 * counts.get((t, z_canon), 0) and t_count <= 2 * counts.get((t, -z_canon), 0)
    )
    if critical:
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


WALK_RADIUS = Fraction(1, 10)


def walk_to_target(
    choice: EscapeChoice, nu: RationalCurrent, steps: int, level: int
) -> tuple[int | None, Fraction]:
    """Iterate the chosen twist; first step with distance <= 1/10 to the target, and that distance.

    Each distance is ``gap / (norm ||target||)``, read off the driver
    ``currents._orbit_distances`` as ints and compared with
    :data:`WALK_RADIUS` by cross-multiplying; only the distance returned (at
    the first step within the radius, or else at the last step) is built as
    a ``Fraction``.
    """
    twist = choice.twist
    if twist.basis != nu.basis:
        raise BasisMismatchError("escape twist and current use different bases")
    table = twist.table if choice.direction == 1 else twist.inverse_table
    target = _unchecked(Word, basis=nu.basis, letters=(choice.target,))  # a generator escape_from_critical chose
    goal = _current_reads(rational_current(target), level)
    gap, scale = 0, 1
    orbit = _orbit_distances(table, _orbit_terms(nu)[0], nu.basis.rank, steps, level, goal)
    for n, (norm, gap) in enumerate(orbit):
        scale = norm * goal[1]
        if gap * WALK_RADIUS.denominator <= WALK_RADIUS.numerator * scale:
            return n, Fraction(gap, scale)
    return None, Fraction(gap, scale)


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
        goal = _current_reads(target, 1)
        for direction, stepper in (("forward", phi), ("backward", phi_back)):
            distance_columns.append(f"{seed_name}-{direction}")
            orbit = _orbit_distances(stepper.table, _orbit_terms(seed)[0], rank, iters, 1, goal)
            for n, (norm, gap) in enumerate(orbit):
                d = _ratio(gap, norm * goal[1])
                distance_rows[n].append(d)
                if gap * (n + 2) != 2 * norm * goal[1]:
                    law_failures.append(f"{seed_name} {direction} step {n}: {d} != 2/{n + 2}")
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
    base_len = current_length(mu_a)
    rows = []
    law_failures: list[str] = []
    bound_failures: list[str] = []
    start, denominator = _orbit_terms(mu_a)
    orbit1 = _orbit_distances(twist.table, start, rank, iters, 1, goal1)
    orbit_level = _orbit_distances(twist.table, start, rank, iters, level, goal_level)
    # over ||nu_n|| = norm / denominator, a distance gap / (norm ||g||) meets k ||nu0|| / ||nu_n||
    # where gap q == k p denominator ||g||, with ||nu0|| = p / q; Fractions only name a failure
    p, q = base_len.numerator, base_len.denominator
    for n, ((norm, gap1), (_, gap_level)) in enumerate(zip(orbit1, orbit_level)):
        d1 = _ratio(gap1, norm * goal1[1])
        dl = _ratio(gap_level, norm * goal_level[1])
        rows.append((str(n), _ratio(norm, denominator), d1, dl))
        if gap1 * q != p * denominator * goal1[1]:
            law_failures.append(f"step {n}: {d1} != {base_len / Fraction(norm, denominator)}")
        if gap_level * q > level * p * denominator * goal_level[1]:
            bound_failures.append(f"step {n}: {dl} > {level * base_len / Fraction(norm, denominator)}")
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
    """Distances of ``[c u^n]`` to ``mu_u``: ``c -> c u`` fixes a and b, so ``[c u^n]`` is the orbit of ``[c]``.

    With ``u = p u' p^-1`` and ``u'`` cyclically reduced, ``[c u^n]`` is ``[(p^-1 c p) u'^n]``, of
    ``n ||u|| + m`` letters, ``m = 1 + |u| - ||u||``.  Against the cycle ``u'^n`` it has at most
    ``m + k - 1`` more starts of a k-letter read ``v`` and ``k - 1`` fewer, and ``(v; u'^n) <= n ||u||``,
    so ``d_n <= (level + m - 1)/(n ||u|| + m)``; the report asserts ``(level + m)/(n ||u|| + m)``.
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
    table = _signed_table([(3,) + u.letters if x == 3 else (x,) for x in range(1, basis.rank + 1)])

    def bound(n: int) -> Fraction:
        return Fraction(level + m, n * goal[1] + m)

    rows = []
    distances: list[Fraction] = []
    for n, (norm, gap) in enumerate(_orbit_distances(table, [((3,), 1)], basis.rank, iters, level, goal)):
        d = Fraction(gap, norm * goal[1])
        distances.append(d)
        rows.append((str(n), str(d), str(bound(n)) if n >= 1 else ""))
    assertions: list[AssertionResult] = []
    _assert_all(
        assertions,
        f"distance at step n is at most (level+{m})/(n*||u||+{m}) for n >= 1",
        _violations(distances, bound),
        f"holds up to n={iters}",
    )
    _assert_all(assertions, monotone, _increases(distances), "monotone tail")
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
    is asserted; otherwise the proven bound is.  More than ``currents.ROW_BUDGET`` rows (``iters + 1``) are
    refused before the first step, and step ``n`` if ``n |g| + |f|`` passes the letter budget.
    """
    _at_least_one(iters=iters, level=level)
    monotone = "distances to the unperturbed current are nonincreasing from step 1"
    _two_steps_for(monotone, iters)
    check_row_budget("orbit", iters + 1, "iters + 1")
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
    p = cyclic_reduce(g)[1]
    m = len(concat(concat(invert(p), f), p))
    g0, g1, f0, f1 = g.letters[0], g.letters[-1], f.letters[0], f.letters[-1]
    classic = level <= len(f) + 1 and all(x != -y for x, y in ((g1, g0), (g1, f0), (f1, f0), (f1, g0)))
    rate = "2*||f||/(n*||g||)" if classic else f"(level+{m}-1)/||nu_n||"
    norms: list[int] = []

    def bound(n: int) -> Fraction:
        return Fraction(2 * len(f), n * len(g)) if classic else Fraction(m + level - 1, norms[n])

    notes = [EXACT_NOTE, DERIVED_RATE_NOTE]
    seed_crit = in_critical_set(mu_g, 1, 2)
    if not seed_crit.member:
        notes.append("seed current is already off the critical set; perturbation unnecessary")
    rows = []
    distances: list[Fraction] = []
    critical: list[str] = []
    even: list[str] = []
    for n in range(iters + 1):
        check_word_budget(n * len(g) + len(f), f"{n}*|g| + |f|")
        nu = rational_current(concat(word_power(g, n), f))
        crit = in_critical_set(nu, 1, 2)
        count = 2 * crit.half_twisted  # (a; nu), read off the critical check's one count
        reads = _current_reads(nu, level)
        norms.append(reads[1])
        d = _orbit_distance(reads, goal)
        distances.append(d)
        rows.append((str(n), str(count), "yes" if crit.member else "no", str(d)))
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
    _assert_all(assertions, monotone, _increases(distances), "monotone tail")
    law = f"distance at step n is at most {rate} for n >= 1"
    _assert_all(assertions, law, _violations(distances, bound), f"holds up to n={iters}")
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
