"""Seeded random words, cyclic words, and currents for property suites."""

from __future__ import annotations

from fractions import Fraction
from random import Random

from .currents import ConjugacyClass, RationalCurrent, current_from_terms
from .words import Basis, CyclicWord, Letter, Word, _unchecked, cyclic_reduce, primitive_root


def random_reduced_word(rng: Random, basis: Basis, max_len: int) -> Word:
    """A reduced word of 1..max_len letters: each letter is drawn from the basis and never undoes the last."""
    n = rng.randint(1, max_len)
    letters: list[Letter] = []
    choices = basis.signed_letters()
    while len(letters) < n:
        x = rng.choice(choices)
        if letters and x == -letters[-1]:
            continue
        letters.append(x)
    return _unchecked(Word, basis=basis, letters=tuple(letters))


def random_cyclic_word(rng: Random, basis: Basis, max_len: int) -> CyclicWord:
    """Nonempty cyclically reduced word in canonical rotation: a nonempty reduced word's core is nonempty."""
    return cyclic_reduce(random_reduced_word(rng, basis, max_len))[0]


def random_current(
    rng: Random,
    basis: Basis,
    max_terms: int = 3,
    max_root_len: int = 8,
    max_weight: int = 5,
) -> RationalCurrent:
    """Nonzero rational current with bounded support and weights.

    A drawn proper power ``r^m`` folds into its root ``r``, power-free by construction, with the
    weight times ``m``; repeated roots merge in one :func:`current_from_terms`.
    """
    items = []
    for _ in range(rng.randint(1, max_terms)):
        root, exponent = primitive_root(random_cyclic_word(rng, basis, max_root_len))
        weight = Fraction(rng.randint(1, max_weight), rng.randint(1, 3))
        items.append((_unchecked(ConjugacyClass, root=root), exponent * weight))
    return current_from_terms(basis, items)
