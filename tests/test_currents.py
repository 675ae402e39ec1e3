"""Rational currents: coordinates, length, action, projective comparison."""

from collections import Counter
from fractions import Fraction
from itertools import product
from random import Random

import pytest
from hypothesis import given, settings, strategies as st

from currents_lab.automorphisms import (
    _signed_table,
    double_prime_basis_change,
    double_twist,
    identity_automorphism,
    inverse,
    power,
    prime_basis_change,
    simple_twist,
)
from currents_lab.corpus import random_current, random_cyclic_word
from currents_lab.currents import (
    ConjugacyClass,
    CriticalCheck,
    _coordinates,
    _orbit,
    _orbit_current,
    _orbit_distance,
    _orbit_reads,
    _orbit_step,
    _orbit_terms,
    act,
    add,
    coordinate,
    current_str,
    in_critical_set,
    length,
    parse_current,
    power_free_classes,
    projective_distance,
    projective_vector,
    rational_current,
    scale,
    zero_current,
)
from currents_lab.errors import (
    IdentityElementError,
    LevelMismatchError,
    ParseError,
    ZeroCurrentError,
)
from currents_lab.words import (
    Basis,
    CyclicWord,
    Word,
    _canonical_rotation,
    cyclic_word,
    free_reduce,
    inverse_cyclic,
    invert,
    letter_key,
    primitive_root,
    rotation_key,
    word,
)

B2 = Basis(2)
B3 = Basis(3)
B5 = Basis(5)


def raw_letters(basis, max_size=12):
    return st.lists(st.sampled_from(basis.signed_letters()), max_size=max_size)


def nonempty_words(basis, max_size=12):
    return (
        raw_letters(basis, max_size)
        .map(lambda ls: free_reduce(basis, ls))
        .filter(lambda u: len(u) > 0)
    )


def cyclic_candidates(basis, max_size=10):
    return nonempty_words(basis, max_size).filter(
        lambda u: u.letters[0] != -u.letters[-1]
    )


def currents(basis, max_terms=3):
    term = st.tuples(
        cyclic_candidates(basis, 6),
        st.fractions(min_value=Fraction(1, 3), max_value=Fraction(4)),
    )
    return st.lists(term, min_size=1, max_size=max_terms).map(
        lambda terms: _combine(basis, terms)
    )


def _combine(basis, terms):
    nu = zero_current(basis)
    for root, weight in terms:
        nu = add(nu, scale(weight, rational_current(root)))
    return nu


class TestConstruction:
    def test_power_folding(self):
        nu = rational_current(word(B2, "abab"))
        ((cls, weight),) = nu.terms
        assert str(cls.root) == "ab"
        assert weight == 2

    def test_no_cancellation_shortcut(self):
        # babA is already cyclically reduced: its class has length 4
        nu = rational_current(word(B2, "babA"))
        ((cls, weight),) = nu.terms
        assert (str(cls.root), weight) == ("abAb", 1)
        assert length(nu) == 4

    def test_identity_rejected(self):
        with pytest.raises(IdentityElementError):
            rational_current(word(B2, "aA"))

    def test_proper_power_class_rejected(self):
        with pytest.raises(ValueError):
            ConjugacyClass(cyclic_word(B2, "abab"))

    def test_parse_and_str(self):
        nu = parse_current(B3, "3/2*[ab] + 1*[c]")
        assert length(nu) == 4
        assert parse_current(B3, current_str(nu)) == nu
        assert parse_current(B2, "1*[abab]") == scale(2, rational_current(word(B2, "ab")))

    def test_parse_errors(self):
        with pytest.raises(ParseError):
            parse_current(B2, "1*[]")
        with pytest.raises(ParseError):
            parse_current(B2, "-1*[ab]")
        with pytest.raises(ParseError):
            parse_current(B2, "")

    @pytest.mark.parametrize("text", ["1*[a] + 0*[b]", "1*[a] + 1/0*[b]"])
    def test_bad_weight_position(self, text):
        # the error points at the second term's weight, not at the space before it
        with pytest.raises(ParseError) as err:
            parse_current(B2, text)
        assert err.value.position == 8


class TestCoordinates:
    def test_examples(self):
        assert coordinate(word(B2, "a"), rational_current(word(B2, "a"))) == 1
        assert coordinate(word(B2, "a"), rational_current(word(B2, "abab"))) == 2
        for n in range(1, 7):
            orbit = rational_current(word(B3, "B" * n + "Ac"))
            assert coordinate(word(B3, "b"), orbit) == n
        assert coordinate(word(B2, "ab" * 5000), rational_current(word(B2, "ab"))) == 1

    def test_zero_current(self):
        assert coordinate(word(B2, "a"), zero_current(B2)) == 0
        assert length(zero_current(B2)) == 0

    @given(nonempty_words(B3, 4), currents(B3))
    def test_nonnegative_and_symmetric(self, v, nu):
        from currents_lab.words import invert

        value = coordinate(v, nu)
        assert value >= 0
        assert coordinate(invert(v), nu) == value

    @given(nonempty_words(B2, 3), currents(B2, 2), currents(B2, 2))
    def test_linearity(self, v, nu1, nu2):
        assert coordinate(v, add(nu1, nu2)) == coordinate(v, nu1) + coordinate(v, nu2)
        assert coordinate(v, scale(Fraction(2, 7), nu1)) == Fraction(2, 7) * coordinate(v, nu1)

    @given(nonempty_words(B3, 3), currents(B3, 2))
    def test_extension_identities(self, v, nu):
        from currents_lab.words import Word

        right = sum(
            (
                coordinate(Word(B3, v.letters + (x,)), nu)
                for x in B3.signed_letters()
                if x != -v.letters[-1]
            ),
            Fraction(0),
        )
        left = sum(
            (
                coordinate(Word(B3, (x,) + v.letters), nu)
                for x in B3.signed_letters()
                if x != -v.letters[0]
            ),
            Fraction(0),
        )
        assert coordinate(v, nu) == right == left


class TestLength:
    def test_examples(self):
        assert length(rational_current(word(B2, "ab"))) == 2
        assert length(parse_current(B2, "1*[aaaa]")) == 4
        assert length(scale(Fraction(3, 2), rational_current(word(B2, "ab")))) == 3


class TestAction:
    def test_examples(self):
        D = simple_twist(B3, 1, 2)
        assert act(D, rational_current(word(B3, "a"))) == rational_current(word(B3, "ab"))
        phi = double_twist(B5)
        seed = rational_current(word(B5, "Ac"))
        moved = act(power(phi, 3), seed)
        assert moved == rational_current(word(B5, "BBBAc"))

    @given(currents(B3, 2))
    def test_identity_action(self, nu):
        assert act(identity_automorphism(B3), nu) == nu

    @given(currents(B3, 2))
    def test_length_invariant_under_inverse_roundtrip(self, nu):
        phi = simple_twist(B3, 3, 2)
        assert act(inverse(phi), act(phi, nu)) == nu

    def test_power_image_is_an_explicit_error(self, monkeypatch):
        # the power-freeness invariant must hold under python -O too
        import currents_lab.currents as currents_module

        nu = rational_current(word(B3, "a"))
        monkeypatch.setattr(currents_module, "primitive_root", lambda cycle: (cycle, 2))
        with pytest.raises(RuntimeError, match="proper power"):
            act(simple_twist(B3, 1, 2), nu)


def _orbit_maps(basis):
    """Every simple twist, and at rank 5 phi and both basis changes; all with inverses."""
    gens = basis.generators()
    maps = [simple_twist(basis, t, z) for t in gens for z in gens if t != z]
    if basis.rank >= 5:
        maps += [double_twist(basis), prime_basis_change(basis), double_prime_basis_change(basis)]
    return maps + [inverse(phi) for phi in maps]


ORBIT_MAPS = {basis: _orbit_maps(basis) for basis in (B3, B5)}


class TestOrbitKernel:
    @settings(max_examples=30, deadline=None)
    @given(st.data())
    def test_kernel_agrees_with_public_path(self, data):
        basis = data.draw(st.sampled_from(sorted(ORBIT_MAPS, key=lambda b: b.rank)))
        nu = data.draw(currents(basis, 3))
        goal = data.draw(currents(basis, 2))
        phi = data.draw(st.sampled_from(ORBIT_MAPS[basis]))
        terms, denominator = _orbit_terms(nu)
        public = nu
        for _ in range(data.draw(st.integers(0, 4))):
            terms = _orbit_step(phi.table, terms, basis.rank)
            public = act(phi, public)
        assert _orbit_current(basis, terms, denominator) == public
        goal_terms, _ = _orbit_terms(goal)
        for level in (1, 2, 3):
            kernel = _orbit_distance(_orbit_reads(terms, level), _orbit_reads(goal_terms, level))
            assert kernel == projective_distance(
                projective_vector(public, level), projective_vector(goal, level)
            )

    def test_kernel_checks_are_explicit_errors(self, monkeypatch):
        # the per-step checks must hold under python -O too
        import currents_lab.currents as currents_module

        squaring = _signed_table([(1, 1), (2,), (3,)])  # a -> aa: no automorphism
        with pytest.raises(RuntimeError, match="proper power"):
            _orbit_step(squaring, [((1, 2), 1), ((1,), 1)], 3)
        with pytest.raises(ValueError, match="rank 2"):
            _orbit_step(simple_twist(B3, 1, 3).table, [((1,), 1)], 2)
        counts = currents_module._subword_counts
        # one stray read of c (letter key 4) around the circle ab
        monkeypatch.setattr(
            currents_module, "_subword_counts", lambda cycle, n: {**counts(cycle, n), (4,): 1}
        )
        with pytest.raises(RuntimeError, match="single-letter counts"):
            _orbit_reads([((1, 2), 1)], 1)

    def test_orbit_computes_no_image_past_the_last_step(self):
        # at rank 2 this table's first image raises
        table = simple_twist(B3, 1, 3).table
        terms = [((1,), 1)]
        assert list(_orbit(table, terms, 2, 0)) == [terms]
        with pytest.raises(ValueError, match="rank 2"):
            list(_orbit(table, terms, 2, 1))

    def test_coordinates_are_public_coordinates(self):
        rng = Random(7)
        reads = [
            v for n in (1, 2, 3) for letters in product(B3.signed_letters(), repeat=n)
            if len(v := free_reduce(B3, letters)) == n
        ]
        for _ in range(40):
            nu = random_current(rng, B3)
            coord = _coordinates(nu, 3)
            assert all(coord(v.letters) == coordinate(v, nu) for v in reads)


class TestProjective:
    def test_unit_vectors(self):
        d = projective_distance(
            projective_vector(rational_current(word(B5, "b")), 1),
            projective_vector(rational_current(word(B5, "d")), 1),
        )
        assert d == 1

    @given(currents(B3, 2), st.fractions(min_value=Fraction(1, 5), max_value=Fraction(5)))
    def test_scale_invariance(self, nu, r):
        p = projective_vector(nu, 2)
        q = projective_vector(scale(r, nu), 2)
        assert projective_distance(p, q) == 0

    def test_zero_rejected(self):
        with pytest.raises(ZeroCurrentError):
            projective_vector(zero_current(B2), 1)

    def test_level_mismatch(self):
        p = projective_vector(rational_current(word(B2, "a")), 1)
        q = projective_vector(rational_current(word(B2, "a")), 2)
        with pytest.raises(LevelMismatchError):
            projective_distance(p, q)

    def test_entries_cover_levels(self):
        p = projective_vector(rational_current(word(B2, "ab")), 2)
        assert p.level == 2
        total = sum(value for v, value in p.entries if len(v) == 1)
        assert total == 1

    @pytest.mark.parametrize("level", [1, 2, 3, 4])
    def test_entries_match_coordinates(self, level):
        # independent route: slide a window over an unrolled copy of each root
        def windows(target, cycle):
            unrolled = cycle * (len(target) // len(cycle) + 2)
            return sum(unrolled[i : i + len(target)] == target for i in range(len(cycle)))

        def brute(v, nu):
            return sum(
                weight * windows(u.letters, cls.root.letters)
                for cls, weight in nu.terms
                for u in (v, invert(v))
            )

        pairs = set()
        for letters in product(B3.signed_letters(), repeat=level):
            for m in range(1, level + 1):
                v = free_reduce(B3, letters[:m])
                if len(v) == m:
                    pairs.add(min(v, invert(v), key=lambda u: [letter_key(x) for x in u.letters]))
        for seed in range(6):
            nu = random_current(Random(f"projective:{seed}:{level}"), B3)
            entries = projective_vector(nu, level).as_dict()
            assert all(value > 0 for value in entries.values())
            total = length(nu)
            for rep, value in entries.items():
                assert value == brute(rep, nu) / total
            present = {v for v in pairs if brute(v, nu) > 0}
            assert set(entries) == present

    def test_power_free_classes_small(self):
        classes = power_free_classes(B2, 1)
        assert [str(c.root) for c in classes] == ["a", "b"]


def reference_power_free_classes(basis, max_len):
    # brute-force oracle: every reduced word of each length, canonicalized,
    # rooted, paired with its inverse and deduplicated through a set
    found = set()
    alphabet = basis.signed_letters()

    def extend(prefix, remaining):
        if prefix and remaining == 0:
            if prefix[-1] != -prefix[0]:
                cycle = CyclicWord(basis, _canonical_rotation(prefix))
                _, exponent = primitive_root(cycle)
                if exponent == 1:
                    mirror = inverse_cyclic(cycle)
                    found.add(min(cycle, mirror, key=rotation_key))
            return
        for x in alphabet:
            if prefix and x == -prefix[-1]:
                continue
            prefix.append(x)
            extend(prefix, remaining - 1)
            prefix.pop()

    for n in range(1, max_len + 1):
        extend([], n)
    ordered = sorted(found, key=lambda w: (len(w), rotation_key(w)))
    return tuple(ConjugacyClass(w) for w in ordered)


def moebius(n):
    result, p = 1, 2
    while p * p <= n:
        if n % p == 0:
            n //= p
            if n % p == 0:
                return 0
            result = -result
        p += 1
    return -result if n > 1 else result


def classes_of_length(rank, n):
    # cyclically reduced words of length d, Moebius-inverted to the primitive
    # ones, then one class per n rotations and per inverse pair
    def cyclically_reduced(d):
        return (2 * rank - 1) ** d + 1 + (rank - 1) * (1 + (-1) ** d)

    primitive = sum(moebius(n // d) * cyclically_reduced(d) for d in range(1, n + 1) if n % d == 0)
    assert primitive % (2 * n) == 0
    return primitive // (2 * n)


class TestPowerFreeClasses:
    SWEEP = [(rank, level) for rank in (2, 3, 4, 5) for level in (1, 2, 3, 4)]

    @pytest.mark.parametrize("rank, level", SWEEP)
    def test_matches_reference(self, rank, level):
        basis = Basis(rank)
        assert power_free_classes(basis, level) == reference_power_free_classes(basis, level)

    @pytest.mark.parametrize("rank, level", SWEEP)
    def test_counts_per_length_follow_moebius(self, rank, level):
        lengths = Counter(len(c.root) for c in power_free_classes(Basis(rank), level))
        assert lengths == {n: classes_of_length(rank, n) for n in range(1, level + 1)}

    @pytest.mark.parametrize("rank", [2, 3, 4, 5])
    def test_one_class_per_inverse_pair(self, rank):
        classes = power_free_classes(Basis(rank), 4)
        roots = {c.root for c in classes}
        assert len(roots) == len(classes)
        for c in classes:
            mirror = inverse_cyclic(c.root)
            assert mirror != c.root
            assert mirror not in roots
            assert rotation_key(c.root) < rotation_key(mirror)

    def test_rejects_level_zero(self):
        with pytest.raises(ValueError):
            power_free_classes(B2, 0)


class TestCriticalSet:
    def test_generator_current_not_critical(self):
        check = in_critical_set(rational_current(word(B3, "a")), 1, 2)
        assert not check.member
        assert check.half_twisted == Fraction(1, 2)

    def test_twistor_current_critical(self):
        check = in_critical_set(rational_current(word(B3, "b")), 1, 2)
        assert check.member

    def test_balanced_example(self):
        check = in_critical_set(rational_current(word(B3, "abaB")), 1, 2)
        assert check.member
        assert check.half_twisted == 1
        assert check.with_twistor == 1
        assert check.with_twistor_inverse == 1

    @pytest.mark.parametrize("twistor", [1, -1])
    def test_twistor_must_be_another_generator(self, twistor):
        with pytest.raises(ValueError):
            in_critical_set(rational_current(word(B3, "ab")), 1, twistor)

    def test_values_are_coordinates(self):
        rng = Random(11)
        for _ in range(300):
            nu = random_current(rng, B3)
            t, z = rng.sample([1, 2, 3, -1, -2, -3], 2)
            if abs(t) == abs(z):
                continue
            check = in_critical_set(nu, t, z)
            half = coordinate(Word(B3, (t,)), nu) / 2
            a = coordinate(Word(B3, (t, z)), nu)
            b = coordinate(Word(B3, (t, -z)), nu)
            assert check == CriticalCheck(half == a == b, half, a, b)


def term_by_term_current(rng, basis, max_terms=3, max_root_len=8, max_weight=5):
    """``random_current`` as one checked current per term, merged with ``add``."""
    nu = None
    for _ in range(rng.randint(1, max_terms)):
        root = random_cyclic_word(rng, basis, max_root_len)
        weight = Fraction(rng.randint(1, max_weight), rng.randint(1, 3))
        term = scale(weight, rational_current(root.as_word()))
        nu = term if nu is None else add(nu, term)
    return nu


class TestRandomCurrent:
    @pytest.mark.parametrize("basis", [B2, B3, B5])
    def test_one_merge_equals_term_by_term_fold(self, basis):
        for seed in range(200):
            assert random_current(Random(seed), basis) == term_by_term_current(Random(seed), basis)
