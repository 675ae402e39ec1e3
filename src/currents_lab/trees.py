"""Translation length functions of simplicial free group trees.

Two kinds of cores are supported.  A weighted Cayley core evaluates the
weighted cyclic length with respect to the basis.  A twist splitting core is
the Bass-Serre tree of an iterated HNN splitting with one loop edge per
twist: edge ``i`` has a stable generator ``t_i``, a twistor generator
``z_i`` elliptic in the vertex group, and a positive rational edge length.

A :class:`TreeLengthFunction` is a core together with a marking automorphism
(``||g||_{phi.T} = ||phi^-1(g)||_T``) and a positive scale.

Translation lengths on twist cores come from two independent routes that the
test suite cross-validates:

* :func:`length_britton` pinches the cyclic word over an extended alphabet
  (fresh symbols stand for ``t_i z_i t_i^-1``) until no pinch applies and
  charges each surviving stable letter its edge length.
* :func:`length_limit` iterates the core's multi-twist ``t_i -> t_i z_i`` and
  reads off the stabilized growth rate of the twistor-weighted cyclic
  length.

Translation length is a conjugacy invariant, so every length route accepts
the cyclic core of the pulled-back word in any rotation and counts letters
per generator as ints.  Canonical rotation exists only for
:class:`~currents_lab.words.CyclicWord` values.

One evaluator, :func:`_weigher`, turns a tree into an int function of raw
cyclic cores over one common denominator of its edge lengths, plus the
``Fraction`` factor ``scale / denominator``: Cayley weights become letter
counts times ints, twist edge lengths become int stable-letter weights for
:func:`_britton_weight`.  :func:`length` and :func:`length_britton` read it
on the core of the word pulled back through the marking's signed table (no
checked ``Word`` is built), :func:`_root_lengths` on many roots at once, and
:func:`tree_orbit_limit` at every orbit step.
:func:`length_limit` keeps its own twistor count, independent of Britton
pinching, so the cross-check stays two independent routes; it too counts in
ints, with the twistor edge lengths over their common denominator
(:func:`_over_denominator`, shared with :func:`_weigher`).

Tree orbits live here too: :func:`tree_orbit_limit` is the exact projective
limit of ``phi^n(T)``, from each test class's growth rate along ``phi^-1``.
When ``phi^-1`` has a twist form, a class is read off a certified affine law
(:func:`_affine_law`) on the syllable skeleton of :mod:`currents_lab.currents`;
any other class is stepped to the cap (:func:`_tree_orbit`).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cache, partial
from itertools import chain, groupby
from math import lcm
from typing import Callable, Mapping, Sequence

from .automorphisms import (
    FreeAutomorphism,
    SignedTable,
    _apply_table,
    _cyclic_image,
    _signed_table,
    identity_automorphism,
    parse_automorphism,
)
from .currents import (
    ConjugacyClass,
    RationalCurrent,
    Skeleton,
    TwistForm,
    _limit,
    _onset,
    _skeleton,
    _syllable_letters,
    _syllables,
    _twist_form,
    check_letter_budget,
    power_free_classes,
)
from .errors import (
    AllEllipticError,
    BasisMismatchError,
    IdentityElementError,
    LevelMismatchError,
    NotStabilizedError,
    ParseError,
    RankError,
)
from .words import Basis, CyclicWord, Letter, Word, _reduced, _split, parse_letters


@dataclass(frozen=True)
class WeightedCayleyCore:
    """Cayley tree core with a positive rational length per generator."""

    basis: Basis
    weights: tuple[Fraction, ...]

    def __post_init__(self):
        if len(self.weights) != self.basis.rank:
            raise ValueError("need one weight per generator")
        for w in self.weights:
            if w <= 0:
                raise ValueError(f"edge weights must be positive, got {w}")


@dataclass(frozen=True)
class TwistEdge:
    stable: int
    twistor: int
    length: Fraction

    def __post_init__(self):
        if self.stable <= 0 or self.twistor <= 0 or self.stable == self.twistor:
            raise ValueError("a twist edge needs two distinct generators")
        if self.length <= 0:
            raise ValueError(f"edge length must be positive, got {self.length}")


@dataclass(frozen=True)
class TwistSplittingCore:
    """Iterated HNN core: one loop edge per twist, vertex group on the rest."""

    basis: Basis
    twists: tuple[TwistEdge, ...]

    def __post_init__(self):
        if not self.twists:
            raise ValueError("a twist core needs at least one twist")
        stables = [t.stable for t in self.twists]
        twistors = [t.twistor for t in self.twists]
        if len(set(stables)) != len(stables):
            raise ValueError("stable letters must be pairwise distinct")
        if len(set(twistors)) != len(twistors):
            raise ValueError("twistor letters must be pairwise distinct")
        for t in self.twists:
            self.basis.check_letter(t.stable)
            self.basis.check_letter(t.twistor)
            if t.twistor in stables:
                raise ValueError("a twistor cannot be another edge's stable letter")


Core = WeightedCayleyCore | TwistSplittingCore


@dataclass(frozen=True)
class TreeLengthFunction:
    core: Core
    marking: FreeAutomorphism
    scale: Fraction = Fraction(1)

    def __post_init__(self):
        if self.marking.basis != self.core.basis:
            raise BasisMismatchError("marking and core use different bases")
        if self.scale <= 0:
            raise ValueError(f"scale must be positive, got {self.scale}")

    @property
    def basis(self) -> Basis:
        return self.core.basis


def cayley_tree(
    basis: Basis,
    weights: Sequence[Fraction] | None = None,
    marking: FreeAutomorphism | None = None,
    scale: Fraction = Fraction(1),
) -> TreeLengthFunction:
    """The (weighted) Cayley tree; unit weights by default."""
    if weights is None:
        weights = [Fraction(1)] * basis.rank
    core = WeightedCayleyCore(basis, tuple(Fraction(w) for w in weights))
    if marking is None:
        marking = identity_automorphism(basis)
    return TreeLengthFunction(core, marking, Fraction(scale))


def twist_tree(
    basis: Basis,
    twists: Sequence[tuple[int, int, Fraction]],
    marking: FreeAutomorphism | None = None,
    scale: Fraction = Fraction(1),
) -> TreeLengthFunction:
    core = TwistSplittingCore(
        basis, tuple(TwistEdge(t, z, Fraction(l)) for t, z, l in twists)
    )
    if marking is None:
        marking = identity_automorphism(basis)
    return TreeLengthFunction(core, marking, Fraction(scale))


def double_twist_tree(basis: Basis, rho: Fraction, theta: Fraction) -> TreeLengthFunction:
    """Two loop edges: a twisted by b with length rho, e twisted by d with length theta."""
    if basis.rank < 5:
        raise RankError(f"the double twist tree requires rank >= 5, got {basis.rank}")
    return twist_tree(basis, [(1, 2, Fraction(rho)), (5, 4, Fraction(theta))])


def _pinch_map(core: TwistSplittingCore) -> dict[int, tuple[int, int]]:
    """Signed stable letter -> (letter whose powers it pinches, letter they become), for :func:`_britton_weight`."""
    rank = core.basis.rank
    pinch: dict[int, tuple[int, int]] = {}
    for i, t in enumerate(core.twists):
        pinch[t.stable] = (t.twistor, rank + 1 + i)
        pinch[-t.stable] = (rank + 1 + i, t.twistor)
    return pinch


def _britton_weight(
    pinch: Mapping[int, tuple[int, int]], weights: Mapping[int, int], letters: Sequence[int]
) -> int:
    """Total of ``weights[t]`` over the stable letters ``t^±1`` surviving cyclic pinching.

    ``letters`` is a cyclically reduced word in any rotation, and ``weights``
    charges stable generators only (:func:`_int_lengths`).  Works over the
    extended alphabet of ``pinch`` (:func:`_pinch_map`), where letter
    ``rank + 1 + i`` stands for ``t_i z_i t_i^-1``.  A pinch replaces
    ``t_i z_i^m t_i^-1`` by the fresh symbol to the ``m`` and
    ``t_i^-1 (fresh)^m t_i`` by ``z_i^m``; the vertex group is free on the
    non-stable generators plus the fresh symbols, so a segment between two
    stable letters lies in an edge group exactly when it is such a power.
    Stable letters go on a stack, each after the reduced segment before it,
    and a pinch pops the stack like a free cancellation; pinches across the
    ends of the cycle then trim both ends.  Every order of pinching leaves
    the same number of stable letters (Collins' lemma).

    Every pinch, inside the cycle or across its ends, removes a stable
    letter ``t_i`` together with a ``t_i^-1``, and only pinches remove stable
    letters.  So when no stable generator occurs with both signs, no pinch
    applies, the cycle is already pinch-free, every stable letter survives,
    and the total is the letters' :func:`_letter_weight`, read without the
    scan: the stack below never pops and the trim never starts.
    """
    if not any(t in letters and -t in letters for t in pinch if t > 0):
        return _letter_weight(weights, letters)
    stables = [p for p, x in enumerate(letters) if x in pinch]
    ends = stables[1:] + [len(letters)]
    kept: list[int] = []
    # segments[j] comes before kept[j]; the last one trails the last stable letter
    segments = [letters[: stables[0] if stables else len(letters)]]
    for p, end in zip(stables, ends):
        x = letters[p]
        replacement = _pinched(segments[-1], *pinch[kept[-1]]) if kept and kept[-1] == -x else None
        if replacement is None:
            kept.append(x)
            segments.append(letters[p + 1 : end])
        else:
            kept.pop()
            segments.pop()
            segments[-1] = _reduced(chain(segments[-1], replacement, letters[p + 1 : end]))
    lo, hi = 0, len(kept) - 1
    # the segment from kept[hi] round the end of the cycle to kept[lo], in pieces
    wrap = (segments[-1], segments[0])
    while lo < hi and kept[hi] == -kept[lo]:
        replacement = _pinched(_reduced(chain(*wrap)), *pinch[kept[hi]])
        if replacement is None:
            break
        wrap = (segments[hi], replacement, segments[lo + 1])
        lo += 1
        hi -= 1
    return _letter_weight(weights, kept[lo : hi + 1])


def _pinched(segment: Sequence[int], inner: int, outer: int) -> tuple[int, ...] | None:
    """``outer^m`` when the reduced segment is ``inner^m`` for some integer ``m``, else None."""
    if segment.count(inner) == len(segment):
        return (outer,) * len(segment)
    if segment.count(-inner) == len(segment):
        return (-outer,) * len(segment)
    return None


def _letter_weight(weights: Mapping[int, int], letters: Sequence[int]) -> int:
    """Total of ``weights[abs(x)]`` over the letters; unweighted generators count 0."""
    return sum(w * (letters.count(g) + letters.count(-g)) for g, w in weights.items())


Weigher = Callable[[Sequence[int]], int]


def _over_denominator(lengths: Mapping[int, Fraction]) -> tuple[dict[int, int], int]:
    """The lengths as ints over their least common denominator, and that denominator."""
    denominator = lcm(*(w.denominator for w in lengths.values()))
    return {g: w.numerator * (denominator // w.denominator) for g, w in lengths.items()}, denominator


def _int_lengths(tree: TreeLengthFunction) -> tuple[dict[int, int], int]:
    """What the weigher charges a letter, per generator, as ints over their common denominator, and that denominator.

    A Cayley core charges every generator its weight; a twist core charges
    each stable letter its edge length and every other generator 0.
    """
    core = tree.core
    if isinstance(core, WeightedCayleyCore):
        return _over_denominator(dict(enumerate(core.weights, start=1)))
    return _over_denominator({t.stable: t.length for t in core.twists})


def _weigher(tree: TreeLengthFunction) -> tuple[Weigher, Fraction]:
    """The core's translation length as an int function of a cyclic core, and its factor.

    Edge lengths go over one common denominator (:func:`_int_lengths`), so
    the weigher counts in ints; ``factor * weigh(letters)`` is the
    translation length on the scaled tree of the cyclically reduced
    ``letters`` (any rotation), read in the core's own basis, that is,
    already pulled back through the marking.  A twist core's pinch map
    (:func:`_pinch_map`) is built once here, not once per word weighed.
    """
    ints, denominator = _int_lengths(tree)
    if isinstance(tree.core, WeightedCayleyCore):
        weigh: Callable[..., int] = _letter_weight
    else:
        weigh = partial(_britton_weight, _pinch_map(tree.core))
    return partial(weigh, ints), tree.scale / denominator


def _core_letters(tree: TreeLengthFunction, g: Word | CyclicWord) -> Sequence[int]:
    """Cyclic core of the pulled-back word, in the rotation it comes in.

    Translation length is a conjugacy invariant, so no canonical rotation is
    needed.
    """
    if g.basis != tree.basis:
        raise BasisMismatchError("tree and word use different bases")
    if not g.letters:
        raise IdentityElementError("translation length needs a nontrivial element")
    return _split(_apply_table(tree.marking.inverse_table, g.letters))[1]


def length_britton(tree: TreeLengthFunction, g: Word) -> Fraction:
    """Translation length on a twist core via cyclic Britton pinching."""
    if not isinstance(tree.core, TwistSplittingCore):
        raise ValueError("length_britton needs a twist splitting core")
    return length(tree, g)


def _max_cyclic_run(letters: Sequence[int], targets: set[int]) -> int:
    """Longest cyclic run of a single letter whose absolute value is a target.

    One pass over the runs of equal letters; when the first and last runs
    share a letter they are one run across the wrap.
    """
    runs = [(x, sum(1 for _ in group)) for x, group in groupby(letters)]
    if len(runs) > 1 and runs[0][0] == runs[-1][0]:
        x, m = runs.pop()
        runs[0] = (x, runs[0][1] + m)
    return max((m for x, m in runs if abs(x) in targets), default=0)


def length_limit(tree: TreeLengthFunction, g: Word, cap: int = 64) -> Fraction:
    """Translation length on a twist core as a stabilized growth rate.

    Iterates the core's multi-twist ``t_i -> t_i z_i`` on the pulled-back
    word and watches the twistor-weighted cyclic length.  That sequence is a
    sum of absolute values of affine functions of the step, one per twistor
    run, so it is convex with breakpoints bounded by the longest twistor run
    of the starting word; the first difference is read off from a window of
    three equal values placed after that transient.  Raises
    :class:`NotStabilizedError` when ``cap`` iterations do not suffice.
    """
    if not isinstance(tree.core, TwistSplittingCore):
        raise ValueError("length_limit needs a twist splitting core")
    if cap < 8:
        raise ValueError(f"cap must be at least 8, got {cap}")
    core = tree.core
    weights, denominator = _over_denominator({t.twistor: t.length for t in core.twists})
    # the multi-twist as an automorphism table: generator i's image at index i - 1
    images = [(i,) for i in core.basis.generators()]
    for t in core.twists:
        images[t.stable - 1] = (t.stable, t.twistor)
    table = _signed_table(images)
    current = _core_letters(tree, g)
    transient = _max_cyclic_run(current, set(weights))
    if transient + 3 > cap:
        raise NotStabilizedError(
            f"need {transient + 3} iterations but cap is {cap} for {g}", ()
        )
    # twistor-weighted lengths times the denominator, as ints
    values = [_letter_weight(weights, current)]
    diffs: list[int] = []
    for n in range(cap):
        current = _apply_table(table, current)
        values.append(_letter_weight(weights, _split(current)[1]))
        diffs.append(values[-1] - values[-2])
        if n + 1 >= transient + 3 and diffs[-1] == diffs[-2] == diffs[-3]:
            return tree.scale * Fraction(diffs[-1], denominator)
    raise NotStabilizedError(
        f"no stable growth rate within {cap} iterations for {g}",
        [Fraction(v, denominator) for v in values],
    )


def length(tree: TreeLengthFunction, g: Word) -> Fraction:
    """Translation length of ``g`` on the marked, scaled tree."""
    weigh, factor = _weigher(tree)
    return factor * weigh(_core_letters(tree, g))


def _root_lengths(tree: TreeLengthFunction, classes: Sequence[ConjugacyClass]) -> tuple[list[int], Fraction]:
    """The classes' roots' translation lengths as ints from one weigher, and the factor that scales them."""
    weigh, factor = _weigher(tree)
    return [weigh(_core_letters(tree, cls.root)) for cls in classes], factor


def intersection_form(tree: TreeLengthFunction, nu: RationalCurrent) -> Fraction:
    """Length pairing: weighted sum of root translation lengths."""
    if tree.basis != nu.basis:
        raise BasisMismatchError("tree and current use different bases")
    lengths, factor = _root_lengths(tree, [cls for cls, _ in nu.terms])
    return factor * sum((weight * n for (_, weight), n in zip(nu.terms, lengths)), Fraction(0))


@dataclass(frozen=True)
class ProjectiveTreeVector:
    """Normalized translation lengths over the level's power-free test classes."""

    basis: Basis
    level: int
    classes: tuple[ConjugacyClass, ...]
    entries: tuple[Fraction, ...]


def projective_tree_vector(tree: TreeLengthFunction, level: int) -> ProjectiveTreeVector:
    classes = power_free_classes(tree.basis, level)
    values, _ = _root_lengths(tree, classes)
    total = sum(values)
    if total == 0:
        raise AllEllipticError("every test class is elliptic; no projective class")
    return ProjectiveTreeVector(tree.basis, level, classes, tuple(Fraction(v, total) for v in values))


def tree_projective_eq(p: ProjectiveTreeVector, q: ProjectiveTreeVector) -> bool:
    if p.level != q.level:
        raise LevelMismatchError(f"levels differ: {p.level} vs {q.level}")
    if p.basis != q.basis:
        raise BasisMismatchError("vectors use different bases")
    return p.entries == q.entries


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


# Per syllable period ``s`` as its sign spells it (``(-y,)`` for ``y^e``, ``e < 0``): ``(p, r, q, weight)``, where
# ``s`` pulls back to ``p r q``, ``q = p^-1``, ``r`` its cyclic core, and ``s^e``, ``e > 0``, to ``p r^e q``;
# ``weight`` is ``weight(r)`` when the period has a certificate, and 0 when it has none.
PulledSyllable = tuple[tuple[Letter, ...], tuple[Letter, ...], tuple[Letter, ...], int]


def _period(pull: SignedTable, weigh: Weigher, lengths: dict[int, int], s: tuple[Letter, ...]) -> PulledSyllable:
    """The :data:`PulledSyllable` of the syllable period ``s``, pulled back as ``_apply_table(pull, s)``.

    ``weight(r)`` is ``r``'s letter weight under the weigher's charges
    (:func:`_int_lengths`): the weighted count of its stable letters on
    a twist core, its letter weight on a Cayley core.  A period has a
    certificate when ``weight(r) > 0`` and, as a cycle, it weighs
    ``weight(r)``, so that no pinch applies around it, and none inside any
    ``r^e``.
    """
    image = _apply_table(pull, s)
    p, r = _split(image)
    weight = _letter_weight(lengths, r)
    return p, r, image[len(p) + len(r) :], weight if weight and weigh(r) == weight else 0


def _pulled_periods(
    pull: SignedTable, weigh: Weigher, lengths: dict[int, int]
) -> Callable[[tuple[Letter, ...]], PulledSyllable]:
    """One orbit's :func:`_period` of each syllable period, built on its first use and kept.

    A period and its verdict depend on the marking and the tree only, so
    each is built and weighed at most once per syllable period per orbit,
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
    return _split(_reduced(letters))[1]


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
    periods: Callable[[tuple[Letter, ...]], PulledSyllable],
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
    first = max(_onset(skeleton, 1), _onset(limit, 2))
    if first > last:
        return None
    if not any(slope for _, _, slope in limit):
        value = _pulled_weight(weigh, pull, rank, skeleton, limit, first)
        _limit_syllables(skeleton, limit, first + 1)
        return first, value, 0
    pulled = [periods((y if (slope or c) > 0 else -y,)) for y, c, slope in limit]
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
    tree's int weigher (:func:`_weigher`) on the core of its
    pull-back through the marking.  Every unmarked word weighed is checked
    with :func:`_cyclic_image`'s raises, which ``python -O`` keeps.  Rates
    and values stay ints over the weigher's common factor, which cancels in
    the projective vector.  Each step spells ``phi^-n(g)`` out, so for a
    linearly growing stepper without a twist form the work grows with
    ``cap^2``, and each step is still refused at the letter budget.  Every
    stepper the CLI iterates has a twist form, so there only a class with
    ``cap < N + 3`` is stepped, at small caps.
    """
    for name, value in (("cap", cap), ("level", level)):
        if value < 1:
            raise ValueError(f"{name} must be at least 1, got {value}")
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


def parse_tree(basis: Basis, text: str) -> TreeLengthFunction:
    """Parse a tree literal.

    Forms::

        cayley [w(a)=1 w(b)=3/2 ...] [scale=p/q] [marking=<automorphism>]
        twist (a:b,1) [(e:d,3/2) ...] [scale=p/q] [marking=<automorphism>]

    ``marking=`` must come last; it consumes the rest of the line.
    """
    stripped = text.strip()
    marking = None
    marker = stripped.find("marking=")
    if marker >= 0:
        marking = parse_automorphism(basis, stripped[marker + len("marking=") :])
        stripped = stripped[:marker].strip()
    scale = Fraction(1)
    tokens = stripped.split()
    if not tokens:
        raise ParseError(text, 0, "empty tree literal")
    kind = tokens[0].lower()
    body = tokens[1:]
    plain: list[str] = []
    for tok in body:
        if tok.startswith("scale="):
            scale = _parse_fraction(text, tok[len("scale=") :])
        else:
            plain.append(tok)
    if kind == "cayley":
        weights = [Fraction(1)] * basis.rank
        for tok in plain:
            if not (tok.startswith("w(") and ")=" in tok):
                raise ParseError(text, text.find(tok), f"unexpected token {tok!r}")
            name, _, value = tok[2:].partition(")=")
            gen = _single_generator(basis, text, name)
            weights[gen - 1] = _parse_fraction(text, value)
        return cayley_tree(basis, weights, marking, scale)
    if kind == "twist":
        twists = []
        for tok in plain:
            if not (tok.startswith("(") and tok.endswith(")")):
                raise ParseError(text, text.find(tok), f"unexpected token {tok!r}")
            inner = tok[1:-1]
            head, _, tail = inner.partition(",")
            t_name, _, z_name = head.partition(":")
            if not tail or not z_name:
                raise ParseError(text, text.find(tok), "twist edges look like (a:b,1)")
            t = _single_generator(basis, text, t_name)
            z = _single_generator(basis, text, z_name)
            twists.append((t, z, _parse_fraction(text, tail)))
        if not twists:
            raise ParseError(text, 0, "twist tree needs at least one (t:z,length) edge")
        return twist_tree(basis, twists, marking, scale)
    raise ParseError(text, 0, f"unknown tree kind {kind!r}; use 'cayley' or 'twist'")


def _single_generator(basis: Basis, text: str, name: str) -> int:
    letters = parse_letters(basis, name.strip())
    if len(letters) != 1 or letters[0] <= 0:
        raise ParseError(text, text.find(name), f"{name!r} is not a single generator")
    return letters[0]


def _parse_fraction(text: str, value: str) -> Fraction:
    try:
        out = Fraction(value.strip())
    except (ValueError, ZeroDivisionError):
        raise ParseError(text, text.find(value), f"bad rational {value!r}")
    if out <= 0:
        raise ParseError(text, text.find(value), f"expected a positive rational, got {value!r}")
    return out
