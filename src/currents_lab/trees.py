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
the tree orbit kernel in :mod:`currents_lab.dynamics` at every orbit step.
:func:`length_limit` keeps its own twistor count, independent of Britton
pinching, so the cross-check stays two independent routes; it too counts in
ints, with the twistor edge lengths over their common denominator
(:func:`_over_denominator`, shared with :func:`_weigher`).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import partial
from itertools import chain, groupby
from math import lcm
from typing import Callable, Mapping, Sequence

from .automorphisms import (
    FreeAutomorphism,
    _apply_table,
    _signed_table,
    identity_automorphism,
    parse_automorphism,
)
from .currents import ConjugacyClass, RationalCurrent, power_free_classes
from .errors import (
    AllEllipticError,
    BasisMismatchError,
    IdentityElementError,
    LevelMismatchError,
    NotStabilizedError,
    ParseError,
    RankError,
)
from .words import Basis, CyclicWord, Word, _cyclic_core, _reduced, parse_letters


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
    return _cyclic_core(_apply_table(tree.marking.inverse_table, g.letters))


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
        values.append(_letter_weight(weights, _cyclic_core(current)))
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
