"""Freely reduced words and cyclic words over a fixed free basis.

Letters are encoded as signed integers: ``+i`` is the ``i``-th generator and
``-i`` its inverse.  In text form generators print as lowercase ASCII letters
(``a`` for 1, ``b`` for 2, ...) and inverses as the matching uppercase
letters, so ``"aBc"`` reads as a * b^-1 * c.  The empty string is the
identity.

Cyclic words are stored in a canonical rotation: the lexicographically least
one under the letter order a < a^-1 < b < b^-1 < ...  Two conjugate elements
therefore produce equal :class:`CyclicWord` values.
"""

from __future__ import annotations

import string
from dataclasses import dataclass
from typing import Iterable, Sequence

from .errors import BasisMismatchError, IdentityElementError, ParseError

Letter = int

MAX_RANK = 26


@dataclass(frozen=True)
class Basis:
    """A free basis of rank ``rank``, 2 <= rank <= 26."""

    rank: int

    def __post_init__(self):
        if not isinstance(self.rank, int) or not 2 <= self.rank <= MAX_RANK:
            raise ValueError(f"rank must be an integer in [2, {MAX_RANK}], got {self.rank!r}")

    def generators(self) -> range:
        return range(1, self.rank + 1)

    def signed_letters(self) -> tuple[Letter, ...]:
        out = []
        for i in self.generators():
            out.append(i)
            out.append(-i)
        return tuple(out)

    def check_letter(self, letter: Letter) -> None:
        if not isinstance(letter, int) or letter == 0 or abs(letter) > self.rank:
            raise ValueError(f"letter {letter!r} is outside a basis of rank {self.rank}")

    def letter_name(self, letter: Letter) -> str:
        self.check_letter(letter)
        name = string.ascii_lowercase[abs(letter) - 1]
        return name if letter > 0 else name.upper()


def letter_key(letter: Letter) -> int:
    """Total order on signed letters: a < a^-1 < b < b^-1 < ..."""
    return ((abs(letter) - 1) << 1) | (1 if letter < 0 else 0)


def parse_letters(basis: Basis, text: str) -> tuple[Letter, ...]:
    """Parse a word literal into raw (unreduced) letters.  Whitespace is skipped."""
    out = []
    for pos, ch in enumerate(text):
        if ch.isspace():
            continue
        if ch in string.ascii_lowercase:
            value = ord(ch) - 96
        elif ch in string.ascii_uppercase:
            value = -(ord(ch) - 64)
        else:
            raise ParseError(text, pos, f"invalid letter {ch!r}")
        if abs(value) > basis.rank:
            raise ParseError(text, pos, f"letter {ch!r} is outside a basis of rank {basis.rank}")
        out.append(value)
    return tuple(out)


def _reduced(letters: Iterable[Letter]) -> tuple[Letter, ...]:
    stack: list[Letter] = []
    for x in letters:
        if stack and stack[-1] == -x:
            stack.pop()
        else:
            stack.append(x)
    return tuple(stack)


@dataclass(frozen=True)
class Word:
    """A freely reduced word.  Construct via :func:`free_reduce` or :func:`word`."""

    basis: Basis
    letters: tuple[Letter, ...]

    def __post_init__(self):
        for x in self.letters:
            self.basis.check_letter(x)
        for i in range(len(self.letters) - 1):
            if self.letters[i] == -self.letters[i + 1]:
                raise ValueError(f"word {self.letters} is not freely reduced at {i}")

    def __len__(self) -> int:
        return len(self.letters)

    def __str__(self) -> str:
        return "".join(self.basis.letter_name(x) for x in self.letters)

    def is_identity(self) -> bool:
        return not self.letters


def free_reduce(basis: Basis, letters: Iterable[Letter]) -> Word:
    return Word(basis, _reduced(letters))


def word(basis: Basis, text: str) -> Word:
    """Parse and freely reduce a word literal."""
    return free_reduce(basis, parse_letters(basis, text))


def concat(u: Word, v: Word) -> Word:
    if u.basis != v.basis:
        raise BasisMismatchError(f"cannot concatenate over {u.basis} and {v.basis}")
    return Word(u.basis, _reduced(u.letters + v.letters))


def invert(u: Word) -> Word:
    return Word(u.basis, tuple(-x for x in reversed(u.letters)))


def word_power(u: Word, n: int) -> Word:
    """u**n for any integer n (negative powers via inversion)."""
    if n < 0:
        return word_power(invert(u), -n)
    return Word(u.basis, _reduced(u.letters * n))


def _least_rotation(keys: Sequence[int]) -> int:
    """Index of the lexicographically least rotation (Booth's algorithm)."""
    n = len(keys)
    doubled = list(keys) + list(keys)
    f = [-1] * (2 * n)
    k = 0
    for j in range(1, 2 * n):
        sj = doubled[j]
        i = f[j - k - 1]
        while i != -1 and sj != doubled[k + i + 1]:
            if sj < doubled[k + i + 1]:
                k = j - i - 1
            i = f[i]
        if sj != doubled[k + i + 1]:
            if sj < doubled[k]:
                k = j
            f[j - k] = -1
        else:
            f[j - k] = i + 1
    return k


def _canonical_rotation(letters: Sequence[Letter]) -> tuple[Letter, ...]:
    keys = [letter_key(x) for x in letters]
    k = _least_rotation(keys)
    return tuple(letters[k:]) + tuple(letters[:k])


def _is_cyclically_reduced(letters: Sequence[Letter]) -> bool:
    n = len(letters)
    if n == 0:
        return False
    for i in range(n):
        if letters[i] == -letters[(i + 1) % n]:
            return False
    return True


def _cyclic_core(letters: Sequence[Letter]) -> Sequence[Letter]:
    """Cyclically reduced core of a freely reduced word, in the rotation it comes in.

    Trims the letters that cancel between the two ends; the core is nonempty
    unless ``letters`` is.
    """
    i, j = 0, len(letters) - 1
    while i < j and letters[i] == -letters[j]:
        i += 1
        j -= 1
    return letters[i : j + 1]


@dataclass(frozen=True)
class CyclicWord:
    """A nonempty cyclically reduced word, stored in its canonical rotation."""

    basis: Basis
    letters: tuple[Letter, ...]

    def __post_init__(self):
        if not self.letters:
            raise IdentityElementError("cyclic words are nonempty")
        for x in self.letters:
            self.basis.check_letter(x)
        if not _is_cyclically_reduced(self.letters):
            raise ValueError(f"{self.letters} is not cyclically reduced")
        if _least_rotation([letter_key(x) for x in self.letters]) != 0:
            raise ValueError(f"{self.letters} is not in canonical rotation")

    def __len__(self) -> int:
        return len(self.letters)

    def __str__(self) -> str:
        return "".join(self.basis.letter_name(x) for x in self.letters)

    def as_word(self) -> Word:
        return Word(self.basis, self.letters)


def cyclic_reduce(u: Word) -> tuple[CyclicWord, Word]:
    """Split ``u = c * w * c^-1`` with ``w`` cyclically reduced.

    Returns ``(cyclic word of w, conjugator c)``.  Raises
    :class:`IdentityElementError` when ``u`` is the identity.
    """
    letters = u.letters
    if not letters:
        raise IdentityElementError("the identity has no cyclic reduction")
    core = _cyclic_core(letters)
    conjugator = Word(u.basis, letters[: (len(letters) - len(core)) // 2])
    return CyclicWord(u.basis, _canonical_rotation(core)), conjugator


def cyclic_word(basis: Basis, text: str) -> CyclicWord:
    """Parse a word literal and take its cyclic reduction."""
    w, _ = cyclic_reduce(word(basis, text))
    return w


def inverse_cyclic(w: CyclicWord) -> CyclicWord:
    return CyclicWord(w.basis, _canonical_rotation([-x for x in reversed(w.letters)]))


def rotation_key(w: CyclicWord) -> tuple[int, ...]:
    return tuple(letter_key(x) for x in w.letters)


def occurrences(v: Word, w: CyclicWord) -> int:
    """Number of starting vertices of ``w`` reading ``v`` or ``v^-1`` clockwise.

    Reads may wrap around the circle any number of times, so the value is
    defined for every freely reduced ``v``, also when ``|v|`` exceeds the
    cyclic length of ``w``.
    """
    if v.basis != w.basis:
        raise BasisMismatchError("word and cyclic word use different bases")
    if not v.letters:
        raise IdentityElementError("occurrence counts need a nonempty word")
    return _count_reads(v.letters, w.letters) + _count_reads(invert(v).letters, w.letters)


def _count_reads(target: Sequence[Letter], cycle: Sequence[Letter]) -> int:
    n = len(cycle)
    m = len(target)
    count = 0
    for i in range(n):
        for j in range(m):
            if cycle[(i + j) % n] != target[j]:
                break
        else:
            count += 1
    return count


def count_subwords(w: CyclicWord, max_len: int) -> dict[tuple[Letter, ...], int]:
    """Counts of every clockwise read of length 1..max_len from each vertex of ``w``.

    Keys are letter tuples; a read wraps as often as needed.  The coordinate
    of ``v`` on ``w`` is ``counts.get(v, 0) + counts.get(v^-1, 0)``.
    """
    if max_len < 1:
        raise ValueError("max_len must be >= 1")
    letters = w.letters
    n = len(letters)
    counts: dict[tuple[Letter, ...], int] = {}
    for i in range(n):
        window = tuple(letters[(i + j) % n] for j in range(max_len))
        for m in range(1, max_len + 1):
            key = window[:m]
            counts[key] = counts.get(key, 0) + 1
    return counts


def primitive_root(w: CyclicWord) -> tuple[CyclicWord, int]:
    """Smallest cyclic word ``r`` and exponent ``m`` with ``w = r^m``."""
    letters = w.letters
    n = len(letters)
    for p in range(1, n + 1):
        if n % p:
            continue
        if all(letters[i] == letters[i % p] for i in range(p, n)):
            return CyclicWord(w.basis, letters[:p]), n // p
    raise AssertionError("unreachable")
