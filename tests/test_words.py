"""Word kernel: reduction, canonical rotation, occurrence counting."""

import re
import tracemalloc
from random import Random

import pytest
from hypothesis import given, strategies as st

from currents_lab import words as words_module
from currents_lab.currents import rational_current
from currents_lab.errors import IdentityElementError, ParseError
from currents_lab.words import (
    Basis,
    _cyclic_core,
    _key_letters,
    _keys,
    _least_rotation,
    _pair_key,
    _reads,
    _split,
    CyclicWord,
    Word,
    concat,
    count_subwords,
    cyclic_reduce,
    cyclic_word,
    free_reduce,
    inverse_cyclic,
    invert,
    letter_key,
    occurrences,
    primitive_root,
    word,
    word_power,
)

B2 = Basis(2)
B3 = Basis(3)


def raw_letters(basis, max_size=14):
    return st.lists(st.sampled_from(basis.signed_letters()), max_size=max_size)


def words(basis, max_size=14):
    return raw_letters(basis, max_size).map(lambda ls: free_reduce(basis, ls))


def nonempty_words(basis, max_size=14):
    return words(basis, max_size).filter(lambda u: len(u) > 0)


def random_word(rng, basis, length):
    # a random reduced word of exactly ``length`` letters
    letters = []
    while len(letters) < length:
        x = rng.choice(basis.signed_letters())
        if not letters or x != -letters[-1]:
            letters.append(x)
    return Word(basis, tuple(letters))


class TestReduction:
    def test_examples(self):
        assert str(word(B2, "abBa")) == "aa"
        assert word(B2, "aA").is_identity()
        assert word(B2, "aBbA").is_identity()

    def test_concat_invert_examples(self):
        assert str(concat(word(B3, "ab"), word(B3, "Bc"))) == "ac"
        assert str(invert(word(B3, "abC"))) == "cBA"

    @given(words(B3))
    def test_inverse_law(self, u):
        assert invert(invert(u)) == u
        assert concat(u, invert(u)).is_identity()

    def test_unknown_letter_rejected(self):
        with pytest.raises(ParseError) as err:
            word(B2, "acb")
        assert err.value.position == 1
        with pytest.raises(ParseError):
            word(B2, "a?b")

    def test_unreduced_word_rejected(self):
        with pytest.raises(ValueError):
            Word(B2, (1, -1))


LETTER_REJECTS = [
    ((0,), ValueError, "letter 0 is outside a basis of rank 3"),
    ((4,), ValueError, "letter 4 is outside a basis of rank 3"),
    ((-4,), ValueError, "letter -4 is outside a basis of rank 3"),
    ((1.0,), ValueError, "letter 1.0 is outside a basis of rank 3"),
    (("a",), ValueError, "letter 'a' is outside a basis of rank 3"),
    ((1, 2.0), ValueError, "letter 2.0 is outside a basis of rank 3"),
]


class TestConstructorChecks:
    """Rejections, with the exception type and message text of the word kernel."""

    @pytest.mark.parametrize("cls", [Word, CyclicWord])
    @pytest.mark.parametrize("letters, error, message", LETTER_REJECTS)
    def test_bad_letter(self, cls, letters, error, message):
        with pytest.raises(error, match=f"^{re.escape(message)}$"):
            cls(B3, letters)

    @pytest.mark.parametrize(
        "cls, letters, error, message",
        [
            (Word, (1, 2, -2, 3), ValueError, "word (1, 2, -2, 3) is not freely reduced at 1"),
            (CyclicWord, (1, 2, -2, 3), ValueError, "(1, 2, -2, 3) is not cyclically reduced"),
            (CyclicWord, (1, 2, -1), ValueError, "(1, 2, -1) is not cyclically reduced"),
            (CyclicWord, (2, 1), ValueError, "(2, 1) is not in canonical rotation"),
            (CyclicWord, (2, 1, 2, 1), ValueError, "(2, 1, 2, 1) is not in canonical rotation"),
            (CyclicWord, (), IdentityElementError, "cyclic words are nonempty"),
        ],
    )
    def test_bad_shape(self, cls, letters, error, message):
        with pytest.raises(error, match=f"^{re.escape(message)}$"):
            cls(B3, letters)

    def test_accepted(self):
        assert Word(B3, (1, -2, 3)).letters == (1, -2, 3)
        assert CyclicWord(B3, (1, 2, 1, 2)).letters == (1, 2, 1, 2)


class TestCyclicReduction:
    def test_already_reduced(self):
        cycle, conjugator = cyclic_reduce(word(B3, "aBcba"))
        assert conjugator.is_identity()
        assert cycle == cyclic_word(B3, "aBcba")

    def test_examples(self):
        cycle, conjugator = cyclic_reduce(word(B2, "abA"))
        assert (str(cycle), str(conjugator)) == ("b", "a")
        cycle, conjugator = cyclic_reduce(word(B3, "abcBA"))
        assert (str(cycle), str(conjugator)) == ("c", "ab")

    def test_identity_rejected(self):
        with pytest.raises(IdentityElementError):
            cyclic_reduce(word(B2, "aA"))
        with pytest.raises(IdentityElementError):
            cyclic_word(B2, "")

    def test_canonical_rotation_order(self):
        # letter order a < a^-1 < b < b^-1 picks the least rotation
        assert str(cyclic_word(B2, "ba")) == "ab"
        assert str(cyclic_word(B2, "bA")) == "Ab"
        assert [letter_key(x) for x in (1, -1, 2, -2)] == [0, 1, 2, 3]
        assert _keys((1, -1, 2, -2, 3, -3)) == [letter_key(x) for x in (1, -1, 2, -2, 3, -3)]

    @given(nonempty_words(B3))
    def test_pair_key(self, v):
        # the key map inverts letters by k ^ 1 and reads back through _key_letters
        assert [letter_key(-x) for x in v.letters] == [letter_key(x) ^ 1 for x in v.letters]
        assert _key_letters(_keys(v.letters)) == v.letters
        lesser = min(v, invert(v), key=lambda u: [letter_key(x) for x in u.letters])
        key = tuple(_keys(v.letters))
        assert _pair_key(key) == _pair_key(tuple(_keys(invert(v).letters))) == tuple(_keys(lesser.letters))

    @given(nonempty_words(B3))
    def test_conjugation_roundtrip(self, u):
        cycle, conjugator = cyclic_reduce(u)
        rebuilt = concat(concat(conjugator, cycle.as_word()), invert(conjugator))
        assert cyclic_reduce(rebuilt)[0] == cycle
        assert len(rebuilt) >= len(u) or rebuilt == u

    @given(nonempty_words(B3))
    def test_core_is_a_rotation(self, u):
        core = _cyclic_core(u.letters)
        cycle, conjugator = cyclic_reduce(u)
        assert concat(concat(conjugator, Word(B3, core)), invert(conjugator)) == u
        assert core in {cycle.letters[i:] + cycle.letters[:i] for i in range(len(cycle))}

    @given(nonempty_words(B3))
    def test_split_spells_the_word(self, u):
        p, core = _split(u.letters)
        assert p + core + tuple(-x for x in reversed(p)) == u.letters
        assert (p, core) == (cyclic_reduce(u)[1].letters, _cyclic_core(u.letters))


def naive_reads(target, cycle):
    # independent route: scan an unrolled copy long enough for any wrap
    copies = len(target) // len(cycle) + 2
    unrolled = list(cycle) * copies
    return sum(
        1
        for i in range(len(cycle))
        if unrolled[i : i + len(target)] == list(target)
    )


class TestOccurrences:
    def test_examples(self):
        assert occurrences(word(B2, "a"), cyclic_word(B2, "ab")) == 1
        assert occurrences(word(B2, "aa"), cyclic_word(B2, "aaaa")) == 4
        assert occurrences(word(B2, "aa"), cyclic_word(B2, "a")) == 1
        assert occurrences(word(B2, "ab" * 5000), cyclic_word(B2, "ab")) == 1

    @given(nonempty_words(B2, 5), nonempty_words(B2, 10))
    def test_matches_bruteforce(self, v, w):
        cycle = cyclic_reduce(w)[0]
        expected = naive_reads(v.letters, cycle.letters) + naive_reads(
            invert(v).letters, cycle.letters
        )
        assert occurrences(v, cycle) == expected

    def test_empty_pattern_rejected(self):
        with pytest.raises(IdentityElementError):
            occurrences(word(B2, ""), cyclic_word(B2, "ab"))

    def test_matches_all_reads_when_wrapping(self):
        # v several times longer than w: half read off the cycle (so they
        # occur), half random; reference is the all-reads counter
        rng = Random("occurrences-wrap")
        for i in range(400):
            basis = Basis(rng.choice([2, 3, 5]))
            cycle = cyclic_reduce(random_word(rng, basis, rng.randint(1, 8)))[0]
            n = len(cycle)
            m = rng.randint(1, 5 * n + 3)
            if i % 2:
                start = rng.randrange(n)
                letters = tuple(cycle.letters[(start + j) % n] for j in range(m))
                v = Word(basis, letters if i % 4 == 1 else tuple(-x for x in reversed(letters)))
            else:
                v = random_word(rng, basis, m)
            reads = _reads(cycle.letters, len(v))
            assert occurrences(v, cycle) == reads[v.letters] + reads[invert(v).letters]

    def test_long_pattern_stays_small(self):
        # one read of an 894-letter word on a 4094-letter cycle
        rng = Random("occurrences-long")
        cycle = cyclic_reduce(random_word(rng, B3, 4100))[0]
        start = rng.randrange(len(cycle))
        v = Word(B3, (cycle.letters * 2)[start : start + 894])
        tracemalloc.start()
        try:
            count = occurrences(v, cycle)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        reads = _reads(cycle.letters, len(v))
        assert count == reads[v.letters] + reads[invert(v).letters] >= 1
        assert peak < 5_000_000

    @given(nonempty_words(B3, 10), st.integers(min_value=1, max_value=25))
    def test_count_subwords_matches_windows(self, u, max_len):
        # reference definition: one modular-index window per vertex
        letters = cyclic_reduce(u)[0].letters
        n = len(letters)
        expected = {}
        for i in range(n):
            window = tuple(letters[(i + j) % n] for j in range(max_len))
            for m in range(1, max_len + 1):
                expected[window[:m]] = expected.get(window[:m], 0) + 1
        assert count_subwords(cyclic_reduce(u)[0], max_len) == expected

    @given(nonempty_words(B3, 10))
    def test_count_subwords_agrees(self, w):
        cycle = cyclic_reduce(w)[0]
        counts = count_subwords(cycle, 3)
        for key in counts:
            v = Word(B3, key)
            expected = counts.get(key, 0) + counts.get(invert(v).letters, 0)
            assert occurrences(v, cycle) == expected


class TestPowers:
    def test_word_power(self):
        assert str(word_power(word(B2, "ab"), 3)) == "ababab"
        assert word_power(word(B2, "ab"), 0).is_identity()

    def test_primitive_root(self):
        root, exponent = primitive_root(cyclic_word(B2, "abab"))
        assert (str(root), exponent) == ("ab", 2)
        root, exponent = primitive_root(cyclic_word(B2, "ab"))
        assert (str(root), exponent) == ("ab", 1)

    @given(nonempty_words(B3, 10))
    def test_power_free_root_is_itself(self, u):
        cycle = cyclic_reduce(u)[0]
        n = len(cycle)
        periodic = any(
            cycle.letters == cycle.letters[:p] * (n // p) for p in range(1, n) if n % p == 0
        )
        root, exponent = primitive_root(cycle)
        assert (root is cycle) == (not periodic) == (exponent == 1)

    @given(nonempty_words(B3, 6), st.integers(min_value=2, max_value=5))
    def test_root_of_power_is_canonical(self, f, m):
        root = primitive_root(cyclic_reduce(f)[0])[0]
        power = CyclicWord(B3, root.letters * m)
        assert primitive_root(power) == (root, m)

    @given(nonempty_words(B2, 5), st.integers(min_value=1, max_value=4))
    def test_root_of_power(self, f, m):
        base = cyclic_reduce(f)[0]
        base_root, base_exp = primitive_root(base)
        power = cyclic_reduce(word_power(base.as_word(), m))[0]
        root, exponent = primitive_root(power)
        assert root == base_root
        assert exponent == m * base_exp


def brute_least_rotation(keys):
    return min(range(len(keys)), key=lambda i: keys[i:] + keys[:i])


class TestLeastRotation:
    @given(st.lists(st.integers(min_value=0, max_value=5), min_size=1, max_size=16))
    def test_matches_bruteforce(self, keys):
        assert _least_rotation(keys) == brute_least_rotation(keys)

    @given(st.lists(st.sampled_from([1, -1, 2]), min_size=1, max_size=16))
    def test_repeated_least_letter(self, letters):
        # over {a, A, b} the least letter a often occurs more than once
        keys = [letter_key(x) for x in letters]
        assert _least_rotation(keys) == brute_least_rotation(keys)

    @given(
        st.lists(st.integers(min_value=0, max_value=3), min_size=1, max_size=5),
        st.integers(min_value=1, max_value=6),
    )
    def test_periodic_keys(self, base, m):
        # a proper power has several least rotations; the least index is the one asked for
        keys = base * m
        assert _least_rotation(keys) == brute_least_rotation(keys) == brute_least_rotation(base)

    def test_examples(self):
        assert _least_rotation([2, 0, 2, 0, 1]) == 3
        assert _least_rotation([0, 1, 0, 0, 1]) == 2
        assert _least_rotation([0, 2, 0, 2]) == 0
        assert _least_rotation([2, 0, 2, 0]) == 1
        assert _least_rotation([1, 0, 0, 1, 0, 0]) == 1


class TestOneScanPerDerivedWord:
    """A derived cyclic word is put in canonical rotation once and never re-checked."""

    def count(self, monkeypatch, name):
        calls = []
        original = getattr(words_module, name)
        monkeypatch.setattr(words_module, name, lambda keys: calls.append(keys) or original(keys))
        return calls

    def test_one_rotation_scan(self, monkeypatch):
        scans = self.count(monkeypatch, "_least_rotation")
        cycle, _ = cyclic_reduce(word(B3, "abAcBaaBA"))
        assert len(scans) == 1
        inverse_cyclic(cycle)
        assert len(scans) == 2
        rational_current(word(B3, "cabab"))
        assert len(scans) == 3
        rational_current(word(B3, "Babab"))
        assert len(scans) == 4

    def test_one_period_scan(self, monkeypatch):
        # the root of [abab] is found once: the class built from it is not re-checked
        periods = self.count(monkeypatch, "_period")
        assert str(rational_current(word(B3, "abab"))) == "2*[ab]"
        assert len(periods) == 1
