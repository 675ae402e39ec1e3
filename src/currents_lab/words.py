"""Freely reduced words and cyclic words over a fixed free basis.

Letters are encoded as signed integers: ``+i`` is the ``i``-th generator and
``-i`` its inverse.  In text form generators print as lowercase ASCII letters
(``a`` for 1, ``b`` for 2, ...) and inverses as the matching uppercase
letters, so ``"aBc"`` reads as a * b^-1 * c.  The empty string is the
identity.

Cyclic words are stored in a canonical rotation: the lexicographically least
one under the letter order a < a^-1 < b < b^-1 < ...  Two conjugate elements
therefore produce equal :class:`CyclicWord` values.  One key map,
:func:`letter_key` (``a, A, b, B, ...`` to ``0, 1, 2, 3, ...``, so inversion is
``k ^ 1``), computed for whole words by :func:`_keys`, is for ordering: plain
tuple order on keys is the letter order.  It feeds the canonical rotation
(one two-pointer scan, :func:`_least_rotation`), its check in
:class:`CyclicWord`, :func:`rotation_key`, the lesser member of an inverse
pair (:func:`_pair_key`, read back by :func:`_key_letters`) and the byte
search of :func:`occurrences`.  Counts are keyed by letters.

Values are checked where they enter: the parsers (:func:`word`, ``parse_*``),
:func:`free_reduce` and direct calls of the dataclass constructors raise.  A
value derived from checked ones holds its invariants by construction (its
producer's docstring says why) and is built by :func:`_unchecked`, the one
trusted constructor, so a derived cyclic word runs one rotation scan.

One counter, :func:`_reads`, counts all the clockwise reads of a fixed
length around a cycle, and :func:`_with_prefixes` folds every shorter
prefix into its counts: the two together give :func:`count_subwords` and
every read count of the ``currents`` kernel.  :func:`occurrences`
looks up one word and its inverse without them: it searches the cycle's key
bytes, so a long pattern costs no tuple per vertex.
"""

from __future__ import annotations

import string
from collections import Counter
from dataclasses import dataclass
from operator import add
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
    """Total order on signed letters: a < a^-1 < b < b^-1 < ...; inversion is ``k ^ 1``."""
    return 2 * letter - 2 if letter > 0 else -1 - 2 * letter


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
        letters = self.letters
        for x in letters:
            self.basis.check_letter(x)
        if 0 in map(add, letters, letters[1:]):
            at = next(i for i, (x, y) in enumerate(zip(letters, letters[1:])) if x == -y)
            raise ValueError(f"word {letters} is not freely reduced at {at}")

    def __len__(self) -> int:
        return len(self.letters)

    def __str__(self) -> str:
        return "".join(self.basis.letter_name(x) for x in self.letters)

    def is_identity(self) -> bool:
        return not self.letters


def _unchecked(cls, **fields):
    """A frozen dataclass instance built without its ``__post_init__`` checks, for derived values only."""
    out = object.__new__(cls)
    for name, value in fields.items():
        object.__setattr__(out, name, value)
    return out


def free_reduce(basis: Basis, letters: Iterable[Letter]) -> Word:
    return Word(basis, _reduced(letters))


def word(basis: Basis, text: str) -> Word:
    """Parse and freely reduce a word literal: :func:`parse_letters` has checked every letter."""
    return _unchecked(Word, basis=basis, letters=_reduced(parse_letters(basis, text)))


def concat(u: Word, v: Word) -> Word:
    """``u v``: the free reduction of two words' letters over one basis is a word."""
    if u.basis != v.basis:
        raise BasisMismatchError(f"cannot concatenate over {u.basis} and {v.basis}")
    return _unchecked(Word, basis=u.basis, letters=_reduced(u.letters + v.letters))


def invert(u: Word) -> Word:
    """``u^-1``: reduced because ``u`` is."""
    return _unchecked(Word, basis=u.basis, letters=tuple(-x for x in reversed(u.letters)))


def word_power(u: Word, n: int) -> Word:
    """u**n for any integer n (negative powers via inversion)."""
    if n < 0:
        return word_power(invert(u), -n)
    return _unchecked(Word, basis=u.basis, letters=_reduced(u.letters * n))


def _keys(letters: Sequence[Letter]) -> list[int]:
    """``letter_key`` of every letter, computed inline."""
    return [2 * x - 2 if x > 0 else -1 - 2 * x for x in letters]


def _pair_key(key: tuple[int, ...]) -> tuple[int, ...]:
    """The lesser of a reduced word's keys and its inverse's keys, in letter order."""
    mirror = tuple([k ^ 1 for k in reversed(key)])
    return key if key <= mirror else mirror


def _key_letters(keys: Iterable[int]) -> tuple[Letter, ...]:
    """The letters whose :func:`letter_key` values are ``keys``."""
    return tuple([-(k >> 1) - 1 if k & 1 else (k >> 1) + 1 for k in keys])


def _least_rotation(keys: Sequence[int]) -> int:
    """Least index of the lexicographically least rotation of ``keys``.

    Starts ``i < j`` are compared ``k`` keys deep; the one reading the larger
    key, and the ``k`` starts after it, cannot be least, so it jumps past them.
    """
    n = len(keys)
    doubled = list(keys) * 2
    i, j, k = 0, 1, 0
    while j < n and k < n:
        a, b = doubled[i + k], doubled[j + k]
        if a == b:
            k += 1
        elif a > b:
            i, j, k = j, max(j, i + k) + 1, 0
        else:
            j, k = j + k + 1, 0
    return i


def _canonical_rotation(letters: Sequence[Letter]) -> tuple[Letter, ...]:
    k = _least_rotation(_keys(letters))
    return tuple(letters[k:]) + tuple(letters[:k])


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


def _split(letters: Sequence[Letter]) -> tuple[Sequence[Letter], Sequence[Letter]]:
    """``(p, core)`` with ``letters = p core p^-1``: the :func:`_cyclic_core` and the prefix it leaves."""
    core = _cyclic_core(letters)
    return letters[: (len(letters) - len(core)) // 2], core


@dataclass(frozen=True)
class CyclicWord:
    """A nonempty cyclically reduced word, stored in its canonical rotation."""

    basis: Basis
    letters: tuple[Letter, ...]

    def __post_init__(self):
        letters = self.letters
        if not letters:
            raise IdentityElementError("cyclic words are nonempty")
        for x in letters:
            self.basis.check_letter(x)
        if 0 in map(add, letters, letters[1:] + letters[:1]):
            raise ValueError(f"{letters} is not cyclically reduced")
        if _least_rotation(_keys(letters)) != 0:
            raise ValueError(f"{letters} is not in canonical rotation")

    def __len__(self) -> int:
        return len(self.letters)

    def __str__(self) -> str:
        return "".join(self.basis.letter_name(x) for x in self.letters)

    def as_word(self) -> Word:
        """The letters as a word: a cyclically reduced word is reduced."""
        return _unchecked(Word, basis=self.basis, letters=self.letters)


def cyclic_reduce(u: Word) -> tuple[CyclicWord, Word]:
    """Split ``u = c * w * c^-1`` with ``w`` cyclically reduced.

    Returns ``(cyclic word of w, conjugator c)``.  Raises
    :class:`IdentityElementError` when ``u`` is the identity.  Both are
    derived: the core is nonempty and cyclically reduced, the conjugator a prefix.
    """
    letters = u.letters
    if not letters:
        raise IdentityElementError("the identity has no cyclic reduction")
    p, core = _split(letters)
    cycle = _unchecked(CyclicWord, basis=u.basis, letters=_canonical_rotation(core))
    return cycle, _unchecked(Word, basis=u.basis, letters=p)


def cyclic_word(basis: Basis, text: str) -> CyclicWord:
    """Parse a word literal and take its cyclic reduction."""
    w, _ = cyclic_reduce(word(basis, text))
    return w


def inverse_cyclic(w: CyclicWord) -> CyclicWord:
    """The class of ``w^-1``: cyclically reduced because ``w`` is, put in canonical rotation."""
    return _unchecked(CyclicWord, basis=w.basis, letters=_canonical_rotation([-x for x in reversed(w.letters)]))


def rotation_key(w: CyclicWord) -> tuple[int, ...]:
    return tuple(_keys(w.letters))


def occurrences(v: Word, w: CyclicWord) -> int:
    """Number of starting vertices of ``w`` reading ``v`` or ``v^-1`` clockwise.

    Reads may wrap around the circle any number of times, so the value is
    defined for every freely reduced ``v``, also when ``|v|`` exceeds the
    cyclic length of ``w``.  The cycle's keys are read out, wrapping, to
    ``|w| + |v| - 1`` bytes, so each match in them starts at one vertex and
    each vertex's read is there; ``v`` and ``v^-1`` are counted with
    :func:`_matches`, in memory linear in ``|w| + |v|``.
    """
    if v.basis != w.basis:
        raise BasisMismatchError("word and cyclic word use different bases")
    if not v.letters:
        raise IdentityElementError("occurrence counts need a nonempty word")
    n, m = len(w.letters), len(v.letters)
    ring = bytes(_keys(w.letters))
    text = (ring * -(-(n + m - 1) // n))[: n + m - 1]
    pattern = _keys(v.letters)
    return _matches(text, bytes(pattern)) + _matches(text, bytes([k ^ 1 for k in reversed(pattern)]))


def _matches(text: bytes, pattern: bytes) -> int:
    """Number of starts of ``pattern`` in ``text``, overlapping ones included."""
    count = 0
    at = text.find(pattern)
    while at != -1:
        count += 1
        at = text.find(pattern, at + 1)
    return count


def _reads(cycle: Sequence, length: int) -> Counter:
    """Counts of the clockwise reads of exactly ``length`` letters, one from each vertex of ``cycle``.

    The one counter of all the reads: works on any sequence, and a read
    wraps around the circle as often as it needs.
    """
    n = len(cycle)
    # Enough copies that every read of ``length`` letters from a vertex fits.
    repeated = cycle * -(-(n + length - 1) // n)
    # The j-th slice holds the j-th letter of the read from each vertex.
    return Counter(zip(*(repeated[j : j + n] for j in range(length))))


def _with_prefixes(counts: Counter, max_len: int) -> Counter:
    """Reads of ``max_len`` letters, one from each vertex, with every shorter prefix counted too.

    Every vertex starts exactly one read of ``max_len`` letters, so its
    shorter reads are that read's prefixes, counted per distinct read.  The
    fold is linear, so it may run once on a weighted sum of counts.
    """
    if max_len > 1:
        for read, count in list(counts.items()):
            for m in range(1, max_len):
                counts[read[:m]] += count
    return counts


def count_subwords(w: CyclicWord, max_len: int) -> dict[tuple[Letter, ...], int]:
    """Counts of every clockwise read of length 1..max_len from each vertex of ``w``.

    Keys are letter tuples; a read wraps as often as needed.  The coordinate
    of ``v`` on ``w`` is ``counts.get(v, 0) + counts.get(v^-1, 0)``, which
    :func:`occurrences` gives for one ``v`` without counting the other reads.
    """
    if max_len < 1:
        raise ValueError("max_len must be >= 1")
    return _with_prefixes(_reads(w.letters, max_len), max_len)


def _period(letters: Sequence[Letter]) -> int:
    """Least ``p`` with ``letters`` the ``len(letters) // p``-th power of its first ``p`` letters.

    A power-free cycle has period ``len(letters)``.
    """
    n = len(letters)
    for p in range(1, n // 2 + 1):
        if n % p == 0 and letters[p:] == letters[:-p]:
            return p
    return n


def primitive_root(w: CyclicWord) -> tuple[CyclicWord, int]:
    """Smallest cyclic word ``r`` and exponent ``m`` with ``w = r^m``.

    A power-free ``w`` is its own root; otherwise the root is the first period of
    ``w``, cyclically reduced and, as a least rotation's first period, a least rotation.
    """
    letters = w.letters
    p = _period(letters)
    if p == len(letters):
        return w, 1
    return _unchecked(CyclicWord, basis=w.basis, letters=letters[:p]), len(letters) // p
