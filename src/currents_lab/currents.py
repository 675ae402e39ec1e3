"""Rational geodesic currents with exact rational weights.

A rational current is a finite nonnegative combination of conjugacy classes
of power-free elements.  The class of ``g = f^m`` (``f`` power-free)
contributes its root ``f`` with weight ``m``, so currents of proper powers
fold into weights at construction time and ``mu_{f^m} = m * mu_f`` holds by
definition.

Coordinates ``(v; nu)`` count starting vertices reading ``v`` or ``v^-1``
around each root circle, weighted; wrapping reads make the count well
defined for ``|v|`` larger than the circle.  :func:`coordinate` finds one
``v`` per root through :func:`occurrences`, a search of the root's keys, and
:func:`_coordinates` reads every short ``v`` off one prefix-folded
``words._reads`` count of all roots (:func:`_read_counts` gives the same
reads as a dict of ints over the weights' common denominator, keyed by
letters in both orientations).

Orbit loops run on a private integer kernel (the ``_orbit*`` functions): a
current is a list of ``(cyclic core, int weight)`` pairs over one common
denominator, read as weighted counts (:data:`Reads`).  :func:`_orbit_head`
is the one orbit head and :func:`_orbit_distances` the one orbit driver.
An automorphism maps conjugacy classes bijectively and keeps power-free
classes power-free, so ``phi . eta_g = eta_phi(g)`` term by term and a step
needs no merging, root finding or sorting.  Read counts do not depend on
where a cycle starts, so the kernel keeps each core, and the skeleton each
syllable cycle, in whatever rotation its reduction leaves and never computes
a canonical rotation.

Twist-form tables (:func:`_twist_form`: each generator fixed or sent to
``y^s x y^t`` with ``y`` fixed, as for every twist the experiments iterate)
have eventually affine orbits (Cohen-Lustig).  The kernel counts the head;
the skeleton gives ``n0``, ``B`` and the root steps.  Since
``phi^n(x) = y^(sn) x y^(tn)``, a core's skeleton gives the syllables
``y^e`` of every ``phi^n(w)``: merging syllables of one generator is the
free reduction, merging the two ends the cyclic one.  :func:`_affine_tail`
reads each term's onset ``n0`` and growth ``B`` off it, and past the
orbit's ``n0`` every count is ``A_v + B_v k`` at step ``n0 + k``, with
``A`` the kernel's counts at ``n0`` and ``k = 1`` cross-checked against the
kernel's step ``n0 + 1``.  The identity and proper-power checks at
``n0 + 1`` hold at every later step but the few :func:`_root_steps`,
checked once on the syllables, so a later step costs one copy of ``A``.
On the catalogue orbits the head is a few short kernel steps, but a
twistor run that must first unwind makes ``n0`` grow with its length:
``[aB^k]`` under ``a -> ab`` has ``n0 = k + level``, so its head costs
``O(k^2)`` letters.  Other tables stream every step off the kernel, and
the driver holds one read at a time.  One rule holds for every table:
:func:`_kernel_reads` refuses each kernel step before it may pass
:data:`LETTER_BUDGET` letters, and a twist tail spells no word.

Every orbit consumer iterates the driver, which measures each step against
a goal ``g``, and which refuses an orbit of more than :data:`ROW_BUDGET`
rows (steps ``0..steps``) before its first step (:func:`check_row_budget`).
Past ``n0 + 1`` each distance term is a line
``+-(alpha_v + k beta_v)`` over the affine norm ``(||A|| + k ||B||) ||g||``
(:func:`_distance_lines`); from the crossing point ``K`` (:func:`_crossing`)
on, the line of largest slope is the max, so a step reads one line, and the
first step that does is cross-checked against :func:`_gap` of ``A + k B``.
The driver yields each distance as its int numerator over ``norm ||g||``.
Without a goal it runs the same head at level 1 and yields only norms, which
past ``n0 + 1`` are ``||A|| + k ||B||``.  :func:`_orbit_head` returns its
steps and the tail ``(n0, A, B)`` as data, so no step past ``n0 + 1`` builds
a read dict but the one cross-checked.

The public :func:`act` and :func:`projective_vector` are the kernel's image
step and read counter followed by canonicalization and division; :func:`act`
builds its result unchecked (:func:`_orbit_current`), as :func:`_image_core`
has checked every image core with raises that ``python -O`` keeps.
"""

from __future__ import annotations

import re
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from functools import cache
from math import lcm
from typing import Callable, Iterable, Iterator, Sequence

from .automorphisms import (
    FreeAutomorphism,
    SignedTable,
    _cyclic_image,
    apply,
    compose,
    identity_automorphism,
    inverse,
    power,
)
from .errors import (
    BasisMismatchError,
    IdentityElementError,
    LevelMismatchError,
    ParseError,
    ZeroCurrentError,
)
from .words import (
    Basis,
    CyclicWord,
    Letter,
    Word,
    _canonical_rotation,
    _key_letters,
    _keys,
    _least_rotation,
    _pair_key,
    _period,
    _reads,
    _unchecked,
    _with_prefixes,
    cyclic_reduce,
    letter_key,
    occurrences,
    primitive_root,
    rotation_key,
    word as _word,
)


@dataclass(frozen=True)
class ConjugacyClass:
    """Conjugacy class of a power-free element, keyed by its canonical root."""

    root: CyclicWord

    def __post_init__(self):
        _, exponent = primitive_root(self.root)
        if exponent != 1:
            raise ValueError(f"{self.root} is a proper power; use the root with a weight")

    def sort_key(self) -> tuple[int, tuple[int, ...]]:
        return (len(self.root), rotation_key(self.root))

    def __str__(self) -> str:
        return f"[{self.root}]"


@dataclass(frozen=True)
class RationalCurrent:
    """Finite sum of positive rational weights on conjugacy classes."""

    basis: Basis
    terms: tuple[tuple[ConjugacyClass, Fraction], ...]

    def __post_init__(self):
        previous = None
        for cls, weight in self.terms:
            if cls.root.basis != self.basis:
                raise BasisMismatchError("class basis differs from current basis")
            if weight <= 0:
                raise ValueError(f"weight of {cls} must be positive, got {weight}")
            key = cls.sort_key()
            if previous is not None and key <= previous:
                raise ValueError("terms must be strictly sorted by class")
            previous = key

    def is_zero(self) -> bool:
        return not self.terms

    def __str__(self) -> str:
        return current_str(self)


def current_from_terms(
    basis: Basis, items: Iterable[tuple[ConjugacyClass, Fraction]]
) -> RationalCurrent:
    merged: dict[ConjugacyClass, Fraction] = {}
    for cls, weight in items:
        merged[cls] = merged.get(cls, Fraction(0)) + Fraction(weight)
    ordered = tuple(sorted(merged.items(), key=lambda item: item[0].sort_key()))
    return RationalCurrent(basis, ordered)


def zero_current(basis: Basis) -> RationalCurrent:
    return RationalCurrent(basis, ())


def rational_current(g: Word) -> RationalCurrent:
    """The counting current of the conjugacy class of ``g`` (nontrivial): its root, weighted by the exponent."""
    root, exponent = primitive_root(cyclic_reduce(g)[0])
    cls = _unchecked(ConjugacyClass, root=root)
    return _unchecked(RationalCurrent, basis=g.basis, terms=((cls, Fraction(exponent)),))


def coordinate(v: Word, nu: RationalCurrent) -> Fraction:
    """The coordinate ``(v; nu)``: weighted occurrence count over all roots."""
    if v.basis != nu.basis:
        raise BasisMismatchError("word and current use different bases")
    total = Fraction(0)
    for cls, weight in nu.terms:
        total += weight * occurrences(v, cls.root)
    return total


def length(nu: RationalCurrent) -> Fraction:
    """``||nu||``: the sum of single-letter coordinates, i.e. weighted root lengths."""
    return sum((weight * len(cls.root) for cls, weight in nu.terms), Fraction(0))


def add(nu1: RationalCurrent, nu2: RationalCurrent) -> RationalCurrent:
    if nu1.basis != nu2.basis:
        raise BasisMismatchError("cannot add currents over different bases")
    return current_from_terms(nu1.basis, nu1.terms + nu2.terms)


def scale(r: Fraction, nu: RationalCurrent) -> RationalCurrent:
    """``r nu`` for ``r > 0``: the same classes in the same order, with positive weights."""
    r = Fraction(r)
    if r <= 0:
        raise ValueError(f"scale factor must be positive, got {r}")
    return _unchecked(RationalCurrent, basis=nu.basis, terms=tuple((cls, r * w) for cls, w in nu.terms))


def act(phi: FreeAutomorphism, nu: RationalCurrent) -> RationalCurrent:
    """Push a current forward: roots map through the induced class map."""
    if phi.basis != nu.basis:
        raise BasisMismatchError("automorphism and current use different bases")
    if nu.is_zero():
        return nu
    terms, denominator = _orbit_terms(nu)
    return _orbit_current(nu.basis, _orbit_step(phi.table, terms, nu.basis.rank), denominator)


# A current in the orbit kernel: cyclic cores with int weights over a common denominator.
Terms = list[tuple[Sequence[Letter], int]]
# Weighted read counts keyed by inverse pair (:func:`_pair_key`), and ``||nu||``, both scaled.
Reads = tuple[dict[tuple[int, ...], int], int]


def _orbit_terms(nu: RationalCurrent) -> tuple[Terms, int]:
    """The terms of a nonzero current and the common denominator of its weights."""
    if nu.is_zero():
        raise ZeroCurrentError("the zero current has no projective class")
    denominator = lcm(*(weight.denominator for _, weight in nu.terms))
    terms = [
        (cls.root.letters, weight.numerator * (denominator // weight.denominator))
        for cls, weight in nu.terms
    ]
    return terms, denominator


def _image_core(table: SignedTable, core: Sequence[Letter], rank: int) -> Sequence[Letter]:
    """Cyclic core of the image of a power-free cyclic core, in the rotation it comes in.

    Checks what the public constructors would, except the canonical rotation,
    with explicit raises that ``python -O`` keeps: :func:`_cyclic_image`'s
    checks and power-freeness.
    """
    image = _cyclic_image(table, core, rank)
    if _period(image) != len(image):
        raise RuntimeError(f"image {image} is a proper power: automorphisms preserve power-freeness")
    return image


def _orbit_step(table: SignedTable, terms: Terms, rank: int) -> Terms:
    """One automorphism step, term by term: no merging, no roots, no rotation."""
    return [(_image_core(table, core, rank), weight) for core, weight in terms]


def _orbit_reads(terms: Terms, level: int) -> Reads:
    """Weighted counts of the reads of length 1..level, one per inverse pair, and the norm.

    The reads are counted on letter keys by :func:`_weighted_reads`.
    """
    reads = _weighted_reads([(_keys(core), weight) for core, weight in terms], level)
    return _pair_reads(reads, sum(weight * len(core) for core, weight in terms))


def _weighted_reads(cycles: Iterable[tuple[Sequence, int]], level: int) -> Counter:
    """Weighted counts of the reads of length 1..level around each ``(cycle, weight)``.

    The cycles' weighted :func:`_reads` of ``level`` letters are summed first
    and their prefixes folded in once: the fold is linear, so it gives the
    per-cycle counts' sum.
    """
    if level < 1:
        raise ValueError("level must be >= 1")
    raw: Counter = Counter()
    for cycle, weight in cycles:
        for read, count in _reads(cycle, level).items():
            raw[read] += weight * count
    return _with_prefixes(raw, level)


def _pair_reads(raw: dict[tuple[int, ...], int], norm: int) -> Reads:
    """Weighted read counts keyed by inverse pair; the single letters must sum to the norm."""
    counts: dict[tuple[int, ...], int] = {}
    for read, count in raw.items():
        rep = _pair_key(read)
        counts[rep] = counts.get(rep, 0) + count
    _check_norm(counts, norm)
    return counts, norm


def _check_norm(counts: dict[tuple[int, ...], int], norm: int) -> None:
    """Raise unless the single-letter counts sum to the norm, as one read per vertex gives."""
    ones = sum(count for read, count in counts.items() if len(read) == 1)
    if ones != norm:
        raise RuntimeError(f"single-letter counts sum to {ones}, not ||nu|| = {norm}")


# Per generator (index 0 unused): None if the table fixes it, else ``(y, s, t)``
# for ``x -> y^s x y^t``.
TwistForm = tuple[tuple[int, int, int] | None, ...]
# A syllable ``y^e`` as ``(y, e)``.
Syllable = tuple[int, int]
# The syllables of ``phi^n(w)`` for every n, each as ``(y, c, slope)`` with ``e = c + slope*n``.
Skeleton = list[tuple[int, int, int]]


def _twist_form(table: SignedTable, rank: int) -> TwistForm | None:
    """The twist form of a signed table over rank ``rank``, or None if it has none.

    Every generator ``x`` must be fixed or map to the reduced word
    ``y^s x y^t``, where ``y != x`` is a generator the table fixes; then
    ``phi^n(x) = y^(sn) x y^(tn)``.  Simple twists, their left-handed and
    inverse tables, and commuting products such as the double twist qualify.
    A table over another rank has no form, so its orbit steps the kernel,
    which raises the rank error.
    """
    if len(table) != 2 * rank + 1:
        return None
    form: list[tuple[int, int, int] | None] = [None]
    for x in range(1, rank + 1):
        image = table[x]
        if image == (x,):
            form.append(None)
            continue
        if x not in image:
            return None
        i = image.index(x)
        left, right = image[:i], image[i + 1 :]
        twistors = {abs(z) for z in left + right}
        if len(set(left)) > 1 or len(set(right)) > 1 or len(twistors) != 1:
            return None
        y = twistors.pop()
        if y == x or y > rank or table[y] != (y,):
            return None
        form.append((y, sum(z // y for z in left), sum(z // y for z in right)))
    return tuple(form)


def _skeleton(form: TwistForm, core: Sequence[Letter]) -> Skeleton:
    """The :data:`Skeleton` of ``core``: neighbours that share a generator are merged for every n."""
    raw: Skeleton = []
    for x in core:
        twist = form[abs(x)]
        if twist is None:
            raw.append((abs(x), 1 if x > 0 else -1, 0))
        elif x > 0:
            y, s, t = twist
            raw += [(y, 0, s), (x, 1, 0), (y, 0, t)]
        else:
            y, s, t = twist
            raw += [(y, 0, -t), (-x, -1, 0), (y, 0, -s)]
    skeleton: Skeleton = []
    for y, c, slope in raw:
        if skeleton and skeleton[-1][0] == y:
            _, c0, slope0 = skeleton.pop()
            c, slope = c + c0, slope + slope0
        if c or slope:
            skeleton.append((y, c, slope))
    return skeleton


def _syllables(skeleton: Skeleton, n: int) -> list[Syllable]:
    """The cyclically reduced syllables of ``phi^n(core)``, in some rotation.

    A free product of the cyclic groups of the generators: merging syllables
    of one generator is the free reduction, merging the two ends the cyclic one.
    """
    stack: list[Syllable] = []
    for y, c, slope in skeleton:
        e = c + slope * n
        if stack and stack[-1][0] == y:
            e += stack.pop()[1]
        if e:
            stack.append((y, e))
    i = 0
    while len(stack) - i >= 2 and stack[i][0] == stack[-1][0]:
        y, e = stack.pop()
        e += stack[i][1]
        if e:
            stack[i] = (y, e)
            break
        i += 1
    return stack[i:]


def _syllable_letters(syllables: Sequence[Syllable]) -> tuple[Letter, ...]:
    """The letters a syllable sequence spells."""
    return tuple(x for y, e in syllables for x in [y if e > 0 else -y] * abs(e))


def _image_syllables(core: Sequence[Letter], skeleton: Skeleton, n: int) -> list[Syllable]:
    """:func:`_syllables` at ``n``, checked as a kernel step is, with raises that ``python -O`` keeps."""
    syllables = _syllables(skeleton, n)
    if not syllables:
        raise IdentityElementError(f"the image of {tuple(core)} is the identity")
    if _period(syllables) != len(syllables) or len(syllables) == 1 and abs(syllables[0][1]) > 1:
        raise RuntimeError(
            f"image {_syllable_letters(syllables)} is a proper power: "
            "automorphisms preserve power-freeness"
        )
    return syllables


def _limit(skeleton: Skeleton) -> Skeleton:
    """The syllables of ``phi^n(core)`` for large n: the skeleton's ends merged on ``(c, slope)``."""
    ends = list(skeleton)
    i = 0
    while len(ends) - i >= 2 and ends[i][0] == ends[-1][0]:
        y, c, slope = ends.pop()
        c, slope = c + ends[i][1], slope + ends[i][2]
        if c or slope:
            ends[i] = (y, c, slope)
            break
        i += 1
    return ends[i:]


def _onset(syllables: Skeleton, level: int) -> int:
    """The first ``n >= 1`` at which every moving syllable ``(y, c, slope)`` has ``sign(slope) * e >= level``."""
    n0 = 1
    for _, c, slope in syllables:
        if slope:  # the least n with sign(slope) * (c + slope n) >= level
            n0 = max(n0, -((c - level if slope > 0 else -c - level) // abs(slope)))
    return n0


def _affine_tail(skeleton: Skeleton, level: int) -> tuple[int, Counter]:
    """``n0`` and the per-step growth ``B`` of the ``level``-letter :func:`_reads` of ``phi^n(core)`` past it.

    Cut every syllable ``x^m`` of a cyclic syllable sequence to
    ``min(m, level)`` letters.  A read that stays inside the syllable it
    starts in is ``x^level``, and ``m - level + 1`` vertices start one.
    Every other read starts in the last ``level - 1`` letters of its syllable
    and runs on into the letters after it, which the cut leaves as they are.
    So the reads are the cut cycle's, plus ``m - level`` reads of
    ``x^level`` per longer syllable.  From the :func:`_onset` of the skeleton
    and the :func:`_limit` together, no syllable vanishes, the merges are the
    limit's, and every moving syllable is at least ``level`` letters long, so
    the cut cycle is the same at every step and each step adds only
    ``|slope|`` reads of ``x^level`` per moving limit syllable ``x^e``.  (The
    counts can turn affine a step sooner: ``n0`` is an onset, not the least.)
    """
    limit = _limit(skeleton)
    n0 = _onset(skeleton + limit, level)
    growth: Counter = Counter()
    for y, _, slope in limit:
        if slope:
            growth[(letter_key(y if slope > 0 else -y),) * level] += abs(slope)
    return n0, growth


def _root_steps(skeleton: Skeleton, n0: int, steps: int) -> list[int]:
    """The steps ``n0 + 1 < n <= steps`` at which two limit syllables of one generator are equal.

    Past ``n0`` step n's syllables are the :func:`_limit`'s at n, none empty
    and each moving one longer than at ``n0 + 1``, so the checks there hold
    for good but one: a rotation that misses at ``n0 + 1`` pairs off two
    syllables that differ there, and only the integer root of
    ``c + slope n = c' + slope' n`` can make them equal.
    """
    limit = _limit(skeleton)
    pairs = [(c2 - c, s - s2) for y, c, s in limit for y2, c2, s2 in limit if y == y2 and s > s2]
    return sorted({dc // ds for dc, ds in pairs if dc % ds == 0 and n0 + 1 < dc // ds <= steps})


# A twist orbit past step ``n0 + 1``: ``n0``, the reads ``A`` at ``n0`` and the
# growth ``B``, so that step ``n0 + k`` reads ``A + k B``.
AffineTail = tuple[int, Reads, Reads]


def _kernel_reads(table: SignedTable, terms: Terms, rank: int, steps: int, level: int) -> Iterator[Reads]:
    """The :func:`_orbit_reads` of steps ``0..steps`` of the kernel, one at a time.

    Each step is refused before it may pass :data:`LETTER_BUDGET`, when the
    consumer reaches it, so only one step's terms and reads are held.
    """
    yield _orbit_reads(terms, level)
    for _ in range(steps):
        check_letter_budget(sum(len(core) for core, _ in terms), table)
        terms = _orbit_step(table, terms, rank)
        yield _orbit_reads(terms, level)


def _orbit_head(
    table: SignedTable, terms: Terms, rank: int, steps: int, level: int
) -> tuple[Iterable[Reads], AffineTail | None]:
    """``(head, tail)``: the :func:`_orbit_reads` of steps ``0..min(steps, n0 + 1)`` and the :data:`AffineTail`.

    Every step of the head comes off the kernel (:func:`_kernel_reads`), so
    each is refused before it may pass :data:`LETTER_BUDGET`.  A table
    without a twist form has no tail, and its head is the stream of every
    step.  Otherwise the head is a list of the kernel's steps
    ``0..min(steps, n0 + 1)``, and the skeletons give the rest: ``n0`` and
    the growth ``B`` (:func:`_affine_tail`), whose single letters must sum
    to the norm's slope, and step ``n0 + 1`` must equal ``A + B``, where
    ``A`` is step ``n0``.  The kernel's checks at ``n0 + 1`` hold at every
    later step but the :func:`_root_steps`, which are checked here once on
    the syllables.  The tail is None unless ``steps`` goes past ``n0 + 1``.

    ``n0`` is at most a few steps on the catalogue orbits, but grows with the
    runs of a twistor that must first unwind: ``[aB^k]`` under ``a -> ab``
    has ``n0 = k + level``, and its head costs ``O(k^2)`` letters.
    """
    form = _twist_form(table, rank)
    if form is None:
        return _kernel_reads(table, terms, rank, steps, level), None
    skeletons = [_skeleton(form, core) for core, _ in terms]
    tails = [_affine_tail(skeleton, level) for skeleton in skeletons]
    n0 = max(n for n, _ in tails)
    head = list(_kernel_reads(table, terms, rank, min(steps, n0 + 1), level))
    if steps <= n0:
        return head, None
    growth: Counter = Counter()
    for (_, weight), (_, term_growth) in zip(terms, tails):
        for read, count in term_growth.items():
            growth[read] += weight * count
    a, reads = head[n0], head[n0 + 1]
    b = _pair_reads(_with_prefixes(growth, level), reads[1] - a[1])
    if _shifted(a[0], b[0], 1) != reads[0]:
        raise RuntimeError(f"step {n0 + 1} is not step {n0} plus the growth read off the syllables")
    for (core, _), skeleton in zip(terms, skeletons):
        for n in _root_steps(skeleton, n0, steps):
            _image_syllables(core, skeleton, n)
    return head, (n0, a, b) if steps > n0 + 1 else None


def _distance_lines(a: Reads, b: Reads, goal: Reads) -> list[tuple[int, int]]:
    """The gap terms of ``_orbit_distance(A + k B, goal)`` as lines ``(slope, intercept)`` in k.

    Over the reads ``v`` of ``A``, ``B`` and the goal ``g``, the term
    ``|(a_v + k b_v) ||g|| - g_v (||A|| + k ||B||)|`` is the larger of the
    lines ``+-(alpha_v + k beta_v)``, with ``alpha_v = a_v ||g|| - g_v ||A||``
    and ``beta_v = b_v ||g|| - g_v ||B||``.
    """
    (ca, a_norm), (cb, b_norm), (cg, g_norm) = a, b, goal
    lines = []
    for v in ca.keys() | cb.keys() | cg.keys():
        g = cg.get(v, 0)
        alpha = ca.get(v, 0) * g_norm - g * a_norm
        beta = cb.get(v, 0) * g_norm - g * b_norm
        lines += [(beta, alpha), (-beta, -alpha)]
    return lines


def _crossing(lines: list[tuple[int, int]]) -> tuple[int, int, int]:
    """The dominant line ``(slope, intercept)`` and the least ``K >= 0`` from which it is the max.

    The dominant line has the largest slope, ties going to the larger
    intercept.  A line of smaller slope is at most it from
    ``ceil((intercept' - intercept) / (slope - slope'))`` on, by exact int division.
    """
    slope, intercept = max(lines)
    crossing = max([0] + [-((intercept - i) // (slope - s)) for s, i in lines if s < slope])
    return slope, intercept, crossing


def _orbit_distances(
    table: SignedTable, terms: Terms, rank: int, steps: int, level: int, goal: Reads | None
) -> Iterator[tuple[int, int | None]]:
    """``(norm, gap)`` at the steps ``0..steps`` of the orbit, the distance being ``gap / (norm ||g||)``.

    ``gap`` is :func:`_gap` of the step's reads and the goal ``g``, so the
    step's :func:`_orbit_distance` is ``Fraction(gap, norm * ||g||)``.  The
    steps of :func:`_orbit_head` are measured one by one.  Past ``n0 + 1``,
    step ``n0 + k`` reads ``A + k B``, so its norm is ``||A|| + k ||B||`` and
    its gap is ``max(lines at k)`` over the :func:`_distance_lines`; from the
    crossing point ``K`` (:func:`_crossing`) on the max is the dominant line
    alone.  At the first step that reads only the dominant line its gap must
    equal :func:`_gap` of ``A + k B``.  No step past ``n0 + 1`` counts
    syllables: :func:`_orbit_head` has certified them.  Without a goal the
    head runs at level 1, with all its checks, and the driver yields
    ``(norm, None)``.  An orbit of more than :data:`ROW_BUDGET` rows is
    refused before its first step.
    """
    check_row_budget("orbit", steps + 1, "steps + 1")
    head, tail = _orbit_head(table, terms, rank, steps, level if goal is not None else 1)
    for reads in head:
        yield reads[1], _gap(reads, goal) if goal is not None else None
    if tail is None:
        return
    n0, a, b = tail
    if goal is None:
        for k in range(2, steps - n0 + 1):
            yield a[1] + k * b[1], None
        return
    lines = _distance_lines(a, b, goal)
    slope, intercept, crossing = _crossing(lines)
    checked = max(crossing, 2)  # the tail starts at k = 2
    for k in range(2, steps - n0 + 1):
        norm = a[1] + k * b[1]
        if k < crossing:
            gap = max(i + k * s for s, i in lines)
        else:
            gap = intercept + k * slope
        if k == checked and gap != _gap((_shifted(a[0], b[0], k), norm), goal):
            raise RuntimeError(f"the dominant read's law misses the distance at step {n0 + k}")
        yield norm, gap


def _shifted(a: dict[tuple[int, ...], int], b: dict[tuple[int, ...], int], k: int) -> dict:
    """``a + k b``, as a new dict."""
    out = a.copy()
    for read, count in b.items():
        out[read] = out.get(read, 0) + k * count
    return out


def _current_reads(nu: RationalCurrent, level: int) -> Reads:
    """:func:`_orbit_reads` of a public current; zero currents raise :class:`ZeroCurrentError`."""
    return _orbit_reads(_orbit_terms(nu)[0], level)


def _read_counts(nu: RationalCurrent, level: int) -> tuple[dict[tuple[Letter, ...], int], int]:
    """``{v: (v; nu)}`` times the weights' common denominator, as ints, and that denominator.

    Keys are the reduced ``v`` with ``1 <= |v| <= level`` and ``(v; nu) > 0``,
    as tuples of letters; an absent ``v`` has coordinate 0.  The roots' reads
    are counted once by :func:`_weighted_reads`, on letters; since ``(v; nu)``
    counts the reads of ``v`` and of ``v^-1``, each read then adds its count
    to its inverse's.  The single-letter reads are checked against the norm,
    as :func:`_orbit_reads` checks its own.
    """
    terms, denominator = _orbit_terms(nu)
    reads = _weighted_reads(terms, level)
    _check_norm(reads, sum(weight * len(core) for core, weight in terms))
    counts = dict(reads)
    for read, count in reads.items():
        mirror = tuple([-x for x in reversed(read)])
        counts[mirror] = counts.get(mirror, 0) + count
    return counts, denominator


def _coordinates(nu: RationalCurrent, level: int) -> Callable[[tuple[Letter, ...]], Fraction]:
    """``letters -> (v; nu)`` for reduced ``v`` with ``1 <= |v| <= level``, read off one count."""
    counts, denominator = _read_counts(nu, level)
    return lambda letters: Fraction(counts.get(letters, 0), denominator)


def _gap(a: Reads, b: Reads) -> int:
    """The numerator of :func:`_orbit_distance` over ``||a|| ||b||``: ``max_v |a_v||b|| - b_v||a|||``."""
    (ca, na), (cb, nb) = a, b
    return max(abs(ca.get(v, 0) * nb - cb.get(v, 0) * na) for v in ca.keys() | cb.keys())


def _orbit_distance(a: Reads, b: Reads) -> Fraction:
    """:func:`projective_distance` of two read counts: ``max_v |a_v||b|| - b_v||a||| / (||a|| ||b||)``."""
    return Fraction(_gap(a, b), a[1] * b[1])


def _orbit_current(basis: Basis, terms: Terms, denominator: int) -> RationalCurrent:
    """The public current of kernel terms, built without re-running the constructor checks.

    Every core is a checked root or has passed :func:`_image_core`'s explicit
    checks (nonempty, in rank, cyclically reduced, power-free), so only the
    canonical rotation and the order of the terms are left to compute.  An
    automorphism maps distinct classes to distinct classes; a repeated class
    raises, explicitly so that ``python -O`` keeps the check.
    """
    items = []
    for core, weight in terms:
        root = _unchecked(CyclicWord, basis=basis, letters=_canonical_rotation(core))
        items.append((_unchecked(ConjugacyClass, root=root), Fraction(weight, denominator)))
    items.sort(key=lambda item: item[0].sort_key())
    for (a, _), (b, _) in zip(items, items[1:]):
        if a == b:
            raise RuntimeError(f"two terms map to {a}: automorphisms map classes bijectively")
    return _unchecked(RationalCurrent, basis=basis, terms=tuple(items))


@dataclass(frozen=True)
class ProjectiveCurrentVector:
    """Normalized coordinates ``(v; nu) / ||nu||`` at all ``1 <= |v| <= level``.

    Entries are stored sparsely, one per inverse pair ``{v, v^-1}`` keyed by
    the smaller member; absent pairs have coordinate zero.
    """

    basis: Basis
    level: int
    entries: tuple[tuple[Word, Fraction], ...]

    def as_dict(self) -> dict[Word, Fraction]:
        return dict(self.entries)


def projective_vector(nu: RationalCurrent, level: int) -> ProjectiveCurrentVector:
    counts, total = _current_reads(nu, level)
    # Inverse pairs are keyed in letter-key space, where plain tuple order is
    # the letter order; a read of a cyclically reduced root is a reduced word.
    entries = tuple(
        (_unchecked(Word, basis=nu.basis, letters=_key_letters(rep)), Fraction(counts[rep], total))
        for rep in sorted(counts, key=lambda t: (len(t), t))
    )
    return ProjectiveCurrentVector(nu.basis, level, entries)


def projective_distance(p: ProjectiveCurrentVector, q: ProjectiveCurrentVector) -> Fraction:
    """Max absolute entry difference; both vectors must share basis and level."""
    if p.level != q.level:
        raise LevelMismatchError(f"levels differ: {p.level} vs {q.level}")
    if p.basis != q.basis:
        raise BasisMismatchError("vectors use different bases")
    a = p.as_dict()
    b = q.as_dict()
    best = Fraction(0)
    for key in set(a) | set(b):
        diff = abs(a.get(key, 0) - b.get(key, 0))
        if diff > best:
            best = diff
    return best


@dataclass(frozen=True)
class CriticalCheck:
    """Witness triple for membership in the critical set of a twist t -> tz."""

    member: bool
    half_twisted: Fraction
    with_twistor: Fraction
    with_twistor_inverse: Fraction

    def witness(self) -> str:
        return (
            f"(t;nu)/2={self.half_twisted}, (tz;nu)={self.with_twistor}, "
            f"(tz^-1;nu)={self.with_twistor_inverse}"
        )


def in_critical_set(nu: RationalCurrent, twisted: int, twistor: int) -> CriticalCheck:
    """Check ``(t;nu)/2 == (tz;nu) == (tz^-1;nu)`` for the twist ``t -> tz``."""
    if nu.is_zero():
        raise ZeroCurrentError("criticality is undefined for the zero current")
    nu.basis.check_letter(twisted)
    nu.basis.check_letter(twistor)
    if abs(twisted) == abs(twistor):
        raise ValueError(f"twistor {twistor} must be a generator other than twisted letter {twisted}")
    coord = _coordinates(nu, 2)
    half = coord((twisted,)) / 2
    a = coord((twisted, twistor))
    b = coord((twisted, -twistor))
    return CriticalCheck(half == a == b, half, a, b)


# The most test classes a level may have (rank 5 reaches 6859 at level 5, 51079 at level 6).
CLASS_BUDGET = 10_000
# The most letters any word built may reach: every kernel or tree orbit step, every composition of
# :func:`_bounded_power` and every image of :func:`_power_image` is refused before it may pass it.
# (``prime-basis-change`` would pass it at its 25th step from ``[bc]``.)
LETTER_BUDGET = 1_000_000
# The most rows a report table may have (an orbit's steps ``0..steps``, an experiment's steps or
# trials): a twist orbit's tail costs no letters, but each row costs a report about 0.8 KB (an
# ``iterate`` of 100,000 rows at rank 5, level 3 takes about 0.4 s and 86 MB with Python 3.11.7).
ROW_BUDGET = 100_000


def check_row_budget(table: str, rows: int, how: str) -> None:
    """Refuse a ``table`` of ``rows`` rows (``how`` spells it out) over :data:`ROW_BUDGET`, before its first row."""
    if rows > ROW_BUDGET:
        raise ValueError(f"the {table} would have {rows} rows ({how}), over the budget of {ROW_BUDGET}")


def check_word_budget(bound: int, how: str) -> None:
    """Refuse a step whose word may reach ``bound`` letters (``how`` spells it out) over :data:`LETTER_BUDGET`."""
    if bound > LETTER_BUDGET:
        raise ValueError(f"the next step may reach {bound} letters ({how}), over the budget of {LETTER_BUDGET}")


def check_letter_budget(letters: int, table: SignedTable) -> None:
    """Refuse a step of ``letters`` letters whose image may pass :data:`LETTER_BUDGET`.

    The image is at most ``letters`` times the longest image in ``table``;
    the bound is checked before the step, in ints.
    """
    check_word_budget(letters * max(map(len, table)), f"{letters} letters times the longest image")


def _bounded_compose(f: FreeAutomorphism, g: FreeAutomorphism) -> FreeAutomorphism:
    """``compose(f, g)``, refused first if its images may pass the letter budget.

    Its images are ``f`` of ``g``'s images, and its inverse images ``g^-1``
    of ``f``'s inverse images.
    """
    check_letter_budget(sum(map(len, g.images)), f.table)
    check_letter_budget(sum(map(len, f.inverse_images)), g.inverse_table)
    return compose(f, g)


def _bounded_power(phi: FreeAutomorphism, n: int) -> FreeAutomorphism:
    """``power(phi, n)`` by repeated squaring, each composition refused first by :func:`_bounded_compose`."""
    if n < 0:
        phi, n = inverse(phi), -n
    acc = identity_automorphism(phi.basis)
    while n:
        if n & 1:
            acc = _bounded_compose(phi, acc)
        n >>= 1
        if n:
            phi = _bounded_compose(phi, phi)
    return acc


def _power_image(phi: FreeAutomorphism, n: int, u: Word | CyclicWord) -> Word:
    """``phi^n(u)`` by repeated squaring, refused first if it may pass :data:`LETTER_BUDGET`.

    Under a twist form ``phi^n(x) = y^(sn) x y^(tn)``, so ``phi^n``'s longest
    image is ``1 + |n| max(|s| + |t|)`` letters, and no square :func:`power`
    builds has a longer one.  Any other table is raised by :func:`_bounded_power`.
    """
    form = _twist_form(phi.table, phi.basis.rank)
    if form is None:
        acc = _bounded_power(phi, n)
        check_letter_budget(len(u), acc.table)
        return apply(acc, u)
    longest = 1 + abs(n) * max((abs(s) + abs(t) for _, s, t in filter(None, form)), default=0)
    check_word_budget(len(u) * longest, f"{len(u)} letters times the longest image")
    return apply(power(phi, n), u)


def class_count(rank: int, max_len: int) -> int:
    """The number of classes :func:`power_free_classes` gives at rank ``rank``, in closed form.

    There are ``(2k-1)^n + 1 + (k-1)(1 + (-1)^n)`` cyclically reduced words
    of length n at rank k.  Moebius inversion over the divisors of n leaves
    the power-free ones; each class has n rotations and is not its own inverse.
    """
    primitive = [0] * (max_len + 1)
    for n in range(1, max_len + 1):
        reduced = (2 * rank - 1) ** n + 1 + (rank - 1) * (1 + (-1) ** n)
        primitive[n] = reduced - sum(primitive[d] for d in range(1, n // 2 + 1) if n % d == 0)
    return sum(primitive[n] // (2 * n) for n in range(1, max_len + 1))


def power_free_classes(basis: Basis, max_len: int) -> tuple[ConjugacyClass, ...]:
    """All power-free classes of cyclic length <= max_len, one per inverse pair.

    Duval's algorithm walks the Lyndon words of length <= max_len over the
    2k letter keys: each is aperiodic and its own least rotation, so each
    power-free cyclic word comes up once, in canonical rotation.  A word is
    kept when it is cyclically reduced and its keys are less than the least
    rotation of its inverse's keys (a class is never its own inverse).
    Sorted by length then canonical rotation key; used as the test set for
    projective comparisons of length functions.  A level with more than
    :data:`CLASS_BUDGET` classes (:func:`class_count`) is refused on every
    call, before anything is enumerated; the enumeration itself runs once
    per ``(basis, max_len)`` and its immutable tuple is shared.
    """
    if max_len < 1:
        raise ValueError("max_len must be >= 1")
    count = class_count(basis.rank, max_len)
    if count > CLASS_BUDGET:
        raise ValueError(
            f"level {max_len} at rank {basis.rank} has {count} test classes, "
            f"over the budget of {CLASS_BUDGET}"
        )
    return _lyndon_classes(basis, max_len)


@cache
def _lyndon_classes(basis: Basis, max_len: int) -> tuple[ConjugacyClass, ...]:
    """:func:`power_free_classes` without the budget, enumerated once per ``(basis, max_len)``.

    A kept Lyndon word is a cyclically reduced, aperiodic least rotation, so its class is built unchecked.
    """
    top = 2 * basis.rank - 1
    kept = []
    keys = [-1]
    while keys:
        keys[-1] += 1
        if all(a != b ^ 1 for a, b in zip(keys, keys[1:] + keys[:1])):
            mirror = [k ^ 1 for k in reversed(keys)]
            start = _least_rotation(mirror)
            if keys < mirror[start:] + mirror[:start]:
                kept.append(tuple(keys))
        # the next Lyndon word: repeat the current one out to max_len, drop trailing top keys
        period = len(keys)
        while len(keys) < max_len:
            keys.append(keys[-period])
        while keys and keys[-1] == top:
            keys.pop()
    kept.sort(key=lambda t: (len(t), t))
    roots = (_unchecked(CyclicWord, basis=basis, letters=_key_letters(t)) for t in kept)
    return tuple(_unchecked(ConjugacyClass, root=root) for root in roots)


_TERM_RE = re.compile(r"\s*(?:(\d+(?:/\d+)?)\s*\*\s*)?\[([^\]]*)\]\s*")


def parse_current(basis: Basis, text: str) -> RationalCurrent:
    """Parse a current literal like ``"3/2*[ab] + 1*[c]"``.

    Each term is ``weight*[word]`` (weight omitted means 1); the parser
    cyclically reduces each word and folds proper powers into the weight.
    An empty bracket is rejected since classes must be nontrivial.
    """
    items: list[tuple[ConjugacyClass, Fraction]] = []
    pos = 0
    first = True
    while pos < len(text):
        rest = text[pos:]
        if rest.strip() == "":
            break
        if not first:
            plus = rest.find("+")
            if plus < 0 or rest[:plus].strip():
                raise ParseError(text, pos, "expected '+' between terms")
            pos += plus + 1
            rest = text[pos:]
        match = _TERM_RE.match(rest)
        if not match:
            raise ParseError(text, pos, "expected a term like '3/2*[ab]'")
        try:
            weight = Fraction(match.group(1)) if match.group(1) else Fraction(1)
        except ZeroDivisionError:
            raise ParseError(text, pos + match.start(1), f"bad rational {match.group(1)!r}")
        if weight <= 0:
            raise ParseError(text, pos + match.start(1), "weights must be positive")
        body = match.group(2)
        w = _word(basis, body)
        if w.is_identity():
            raise ParseError(text, pos, f"class [{body}] reduces to the identity")
        cycle, _ = cyclic_reduce(w)
        root, exponent = primitive_root(cycle)
        items.append((_unchecked(ConjugacyClass, root=root), weight * exponent))
        pos += match.end()
        first = False
    if first:
        raise ParseError(text, 0, "empty current literal; write e.g. '1*[ab]'")
    return current_from_terms(basis, items)


def current_str(nu: RationalCurrent) -> str:
    if nu.is_zero():
        return "0"
    return " + ".join(f"{weight}*[{cls.root}]" for cls, weight in nu.terms)
