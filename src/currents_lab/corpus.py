"""Seeded random words, cyclic words, and currents for property suites."""

from __future__ import annotations

from fractions import Fraction
from random import Random

from .currents import RationalCurrent, add, rational_current, scale
from .words import Basis, CyclicWord, Letter, Word, cyclic_reduce


def random_reduced_word(rng: Random, basis: Basis, max_len: int) -> Word:
    n = rng.randint(1, max_len)
    letters: list[Letter] = []
    choices = basis.signed_letters()
    while len(letters) < n:
        x = rng.choice(choices)
        if letters and x == -letters[-1]:
            continue
        letters.append(x)
    return Word(basis, tuple(letters))


def random_cyclic_word(rng: Random, basis: Basis, max_len: int) -> CyclicWord:
    """Nonempty cyclically reduced word in canonical rotation."""
    while True:
        cycle, _ = cyclic_reduce(random_reduced_word(rng, basis, max_len))
        if len(cycle) > 0:
            return cycle


def random_current(
    rng: Random,
    basis: Basis,
    max_terms: int = 3,
    max_root_len: int = 8,
    max_weight: int = 5,
) -> RationalCurrent:
    """Nonzero rational current with bounded support and weights."""
    nu = None
    for _ in range(rng.randint(1, max_terms)):
        root = random_cyclic_word(rng, basis, max_root_len)
        weight = Fraction(rng.randint(1, max_weight), rng.randint(1, 3))
        term = scale(weight, rational_current(root.as_word()))
        nu = term if nu is None else add(nu, term)
    assert nu is not None
    return nu
