"""Automorphisms of a free group, given by explicit generator images.

Every automorphism carries the images of the inverse map as well, and the
constructor checks both compositions on all generators, so an inconsistent
table cannot be built.  Both directions are also kept as signed tables built
once per automorphism (see :func:`_signed_table`), which every image
computation reads.  The check runs at the public constructor (and so in
:func:`parse_automorphism`); :func:`compose`, :func:`inverse` and
:func:`power` of checked automorphisms, the identity and simple twists are
automorphisms by construction and build their results through :func:`_trusted`
without it; images of words (:func:`_image`) are built unchecked too.  Named
constructors cover the maps used throughout the package: simple Dehn twists,
the rank >= 5 double twist, and the two basis changes that re-express the
standard generators through a twisted basis.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass, field
from typing import Sequence

from .errors import (
    AutomorphismTableError,
    BasisMismatchError,
    IdentityElementError,
    ParseError,
    RankError,
)
from .words import Basis, CyclicWord, Letter, Word, _cyclic_core, _unchecked, cyclic_reduce, parse_letters, word


SignedTable = tuple[tuple[Letter, ...], ...]


def _signed_table(images: Sequence[tuple[Letter, ...]]) -> SignedTable:
    """Generator images laid out so that ``table[x]`` is the image of any signed letter ``x``.

    Index ``i`` holds the image of generator ``i`` and, counting from the end,
    index ``-i`` holds its inverse; index 0 is unused.  Every image must be
    freely reduced (images taken from :class:`Word` values are):
    :func:`_apply_table` cancels only where two images meet.
    """
    inverses = tuple(tuple(-y for y in reversed(im)) for im in reversed(images))
    return ((),) + tuple(images) + inverses


def _apply_table(table: SignedTable, letters: Sequence[Letter]) -> tuple[Letter, ...]:
    """Freely reduced image of ``letters`` (reduced or not) under a signed table.

    The stack stays reduced and each image is reduced, so cancellation happens
    only at the junction: pop while the top inverts the image's next letter,
    then push the rest of the image.
    """
    stack: list[Letter] = []
    for x in letters:
        image = table[x]
        if image and stack and stack[-1] == -image[0]:
            i = 0
            while i < len(image) and stack and stack[-1] == -image[i]:
                stack.pop()
                i += 1
            stack.extend(image[i:])
        else:
            stack.extend(image)
    return tuple(stack)


def _cyclic_image(table: SignedTable, letters: Sequence[Letter], rank: int) -> Sequence[Letter]:
    """Cyclic core of the image of ``letters`` under ``table``, in the rotation it comes in.

    The orbit kernels' per-step check of what the public constructors would
    verify, with explicit raises that ``python -O`` keeps: the core is a
    nonempty, cyclically reduced word over a basis of rank ``rank``.
    """
    image = _cyclic_core(_apply_table(table, letters))
    if not image:
        raise IdentityElementError(f"the image of {tuple(letters)} is the identity")
    if 0 in image or max(image) > rank or min(image) < -rank:
        raise ValueError(f"image {image} is not a word over a basis of rank {rank}")
    if 0 in map(operator.add, image, image[1:] + image[:1]):
        raise ValueError(f"image {image} is not cyclically reduced")
    return image


@dataclass(frozen=True)
class FreeAutomorphism:
    """Automorphism with explicit forward and inverse generator images."""

    basis: Basis
    images: tuple[Word, ...]
    inverse_images: tuple[Word, ...]
    # Signed tables of both directions, derived from the images above.
    table: SignedTable = field(init=False, repr=False, compare=False)
    inverse_table: SignedTable = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        k = self.basis.rank
        if len(self.images) != k or len(self.inverse_images) != k:
            raise AutomorphismTableError(f"need images for all {k} generators")
        for im in self.images + self.inverse_images:
            if im.basis != self.basis:
                raise BasisMismatchError("image words use a different basis")
        fwd = _signed_table([im.letters for im in self.images])
        bwd = _signed_table([im.letters for im in self.inverse_images])
        for i in range(1, k + 1):
            if _apply_table(fwd, bwd[i]) != (i,) or _apply_table(bwd, fwd[i]) != (i,):
                raise AutomorphismTableError(
                    f"tables are not mutually inverse at generator {self.basis.letter_name(i)}"
                )
        object.__setattr__(self, "table", fwd)
        object.__setattr__(self, "inverse_table", bwd)

    def __str__(self) -> str:
        return automorphism_str(self)


def _trusted(basis: Basis, images: tuple[Word, ...], inverse_images: tuple[Word, ...]) -> FreeAutomorphism:
    """An automorphism from image tables already known to be mutually inverse: no check."""
    return _unchecked(
        FreeAutomorphism, basis=basis, images=images, inverse_images=inverse_images,
        table=_signed_table([im.letters for im in images]),
        inverse_table=_signed_table([im.letters for im in inverse_images]),
    )


def _image(phi: FreeAutomorphism, table: SignedTable, u: Word | CyclicWord) -> Word:
    """Image of the letters of ``u`` under a table of ``phi``: reduced images, reduced where they meet."""
    if phi.basis != u.basis:
        raise BasisMismatchError("automorphism and word use different bases")
    return _unchecked(Word, basis=u.basis, letters=_apply_table(table, u.letters))


def apply(phi: FreeAutomorphism, u: Word) -> Word:
    return _image(phi, phi.table, u)


def apply_inverse(phi: FreeAutomorphism, u: Word) -> Word:
    return _image(phi, phi.inverse_table, u)


def apply_cyclic(phi: FreeAutomorphism, w: CyclicWord) -> CyclicWord:
    """Induced map on conjugacy classes: apply to any representative, reduce."""
    return cyclic_reduce(_image(phi, phi.table, w))[0]


def identity_automorphism(basis: Basis) -> FreeAutomorphism:
    gens = tuple(_unchecked(Word, basis=basis, letters=(i,)) for i in basis.generators())
    return _trusted(basis, gens, gens)


def compose(phi: FreeAutomorphism, psi: FreeAutomorphism) -> FreeAutomorphism:
    """The automorphism ``x -> phi(psi(x))``, with inverse ``psi^-1(phi^-1(x))``."""
    if phi.basis != psi.basis:
        raise BasisMismatchError("cannot compose over different bases")
    images = tuple(_image(phi, phi.table, im) for im in psi.images)
    inverse_images = tuple(_image(psi, psi.inverse_table, im) for im in phi.inverse_images)
    return _trusted(phi.basis, images, inverse_images)


def inverse(phi: FreeAutomorphism) -> FreeAutomorphism:
    """``phi^-1``: the two directions swapped, signed tables included."""
    return _unchecked(
        FreeAutomorphism, basis=phi.basis, images=phi.inverse_images, inverse_images=phi.images,
        table=phi.inverse_table, inverse_table=phi.table,
    )


def power(phi: FreeAutomorphism, n: int) -> FreeAutomorphism:
    """``phi^n`` for any integer ``n``, by repeated squaring: O(log |n|) compositions."""
    if n < 0:
        return power(inverse(phi), -n)
    acc = identity_automorphism(phi.basis)
    while n:
        if n & 1:
            acc = compose(phi, acc)
        n >>= 1
        if n:
            phi = compose(phi, phi)
    return acc


def _table_automorphism(basis: Basis, fwd: dict[int, str], bwd: dict[int, str]) -> FreeAutomorphism:
    images = []
    inverse_images = []
    for i in basis.generators():
        images.append(word(basis, fwd.get(i, basis.letter_name(i))))
        inverse_images.append(word(basis, bwd.get(i, basis.letter_name(i))))
    return FreeAutomorphism(basis, tuple(images), tuple(inverse_images))


def simple_twist(basis: Basis, twisted: int, twistor: int) -> FreeAutomorphism:
    """The Dehn twist sending the ``twisted`` generator t to t*z, fixing the rest (and t to t*z^-1 back)."""
    basis.check_letter(twisted)
    basis.check_letter(twistor)
    if twisted <= 0 or twistor <= 0 or twisted == twistor:
        raise ValueError("twist needs two distinct generators")
    images = [_unchecked(Word, basis=basis, letters=(i,)) for i in basis.generators()]
    inverse_images = list(images)
    images[twisted - 1] = _unchecked(Word, basis=basis, letters=(twisted, twistor))
    inverse_images[twisted - 1] = _unchecked(Word, basis=basis, letters=(twisted, -twistor))
    return _trusted(basis, tuple(images), tuple(inverse_images))


def double_twist(basis: Basis) -> FreeAutomorphism:
    """The commuting product of the twists a -> ab and e -> ed (rank >= 5)."""
    if basis.rank < 5:
        raise RankError(f"the double twist requires rank >= 5, got {basis.rank}")
    return _table_automorphism(basis, {1: "ab", 5: "ed"}, {1: "aB", 5: "eD"})


def prime_basis_change(basis: Basis) -> FreeAutomorphism:
    """Carry the standard basis to the twisted basis a, a^-1 c, a^-1 c^-1 ab, c^-1 d, e.

    The target letters generate freely and satisfy b = b'a'c', c = a'b',
    d = a'b'd', hence the inverse table below.  Requires rank >= 5.
    """
    if basis.rank < 5:
        raise RankError(f"this basis change requires rank >= 5, got {basis.rank}")
    return _table_automorphism(
        basis,
        {2: "Ac", 3: "ACab", 4: "Cd"},
        {2: "bac", 3: "ab", 4: "abd"},
    )


def double_prime_basis_change(basis: Basis) -> FreeAutomorphism:
    """Like :func:`prime_basis_change` with c re-expressed through e: c = e''b''."""
    if basis.rank < 5:
        raise RankError(f"this basis change requires rank >= 5, got {basis.rank}")
    return _table_automorphism(
        basis,
        {2: "Ec", 3: "ACeb", 4: "CeAd"},
        {2: "bac", 3: "eb", 4: "abd"},
    )


_BUILTINS = {
    "identity": identity_automorphism,
    "phi": double_twist,
    "prime-basis-change": prime_basis_change,
    "double-prime-basis-change": double_prime_basis_change,
}


def parse_automorphism(basis: Basis, text: str) -> FreeAutomorphism:
    """Parse an automorphism literal.

    Accepts a built-in name (``identity``, ``phi``, ``twist(a,b)``,
    ``prime-basis-change``, ``double-prime-basis-change``) or a full table
    ``"a->ab; b->b | a->aB; b->b"`` whose part after ``|`` lists the inverse
    images.  Generators missing from a table are fixed.  Custom tables must
    include the inverse part; both directions are validated.
    """
    stripped = text.strip()
    if stripped.lower() in _BUILTINS:
        return _BUILTINS[stripped.lower()](basis)
    if stripped.startswith("twist(") and stripped.endswith(")"):
        inner = stripped[len("twist(") : -1]
        parts = [p.strip() for p in inner.split(",")]
        if len(parts) != 2 or any(len(p) != 1 for p in parts):
            raise ParseError(text, 0, "twist takes two generator letters, e.g. twist(a,b)")
        try:
            t = parse_letters(basis, parts[0])[0]
            z = parse_letters(basis, parts[1])[0]
        except ParseError:
            raise ParseError(text, 0, f"unknown generators in {stripped!r}")
        return simple_twist(basis, t, z)
    if "->" not in stripped:
        raise ParseError(text, 0, f"unknown automorphism {stripped!r}")
    halves = stripped.split("|")
    if len(halves) != 2:
        raise ParseError(
            text, 0, "a table literal needs an inverse part: 'a->ab; ... | a->aB; ...'"
        )
    fwd = _parse_half_table(basis, text, halves[0])
    bwd = _parse_half_table(basis, text, halves[1])
    try:
        return _table_automorphism(basis, fwd, bwd)
    except AutomorphismTableError as exc:
        raise ParseError(text, 0, str(exc))


def _parse_half_table(basis: Basis, full_text: str, half: str) -> dict[int, str]:
    table: dict[int, str] = {}
    for chunk in half.split(";"):
        chunk = chunk.strip()
        if not chunk:
            continue
        if "->" not in chunk:
            raise ParseError(full_text, full_text.find(chunk), f"missing '->' in {chunk!r}")
        left, right = chunk.split("->", 1)
        left = left.strip()
        gens = parse_letters(basis, left)
        if len(gens) != 1 or gens[0] <= 0:
            raise ParseError(full_text, full_text.find(chunk), f"left side of {chunk!r} must be one generator")
        if gens[0] in table:
            raise ParseError(full_text, full_text.find(chunk), f"generator {left!r} listed twice")
        table[gens[0]] = right.strip()
    return table


def automorphism_str(phi: FreeAutomorphism) -> str:
    fwd = "; ".join(
        f"{phi.basis.letter_name(i)}->{phi.images[i - 1]}" for i in phi.basis.generators()
    )
    bwd = "; ".join(
        f"{phi.basis.letter_name(i)}->{phi.inverse_images[i - 1]}" for i in phi.basis.generators()
    )
    return f"{fwd} | {bwd}"
