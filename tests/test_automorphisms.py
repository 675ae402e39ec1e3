"""Automorphism tables: twists, basis changes, parsing, group laws."""

from dataclasses import replace
from fractions import Fraction
from itertools import chain
from random import Random

import pytest
from hypothesis import given, settings, strategies as st

from currents_lab.automorphisms import (
    FreeAutomorphism,
    _apply_table,
    _signed_table,
    apply,
    apply_cyclic,
    apply_inverse,
    automorphism_str,
    compose,
    double_prime_basis_change,
    double_twist,
    identity_automorphism,
    inverse,
    parse_automorphism,
    power,
    prime_basis_change,
    simple_twist,
)
from currents_lab.corpus import random_current, random_cyclic_word, random_reduced_word
from currents_lab.currents import RationalCurrent, act, power_free_classes, projective_vector, rational_current, scale
from currents_lab.errors import AutomorphismTableError, ParseError, RankError
from currents_lab.words import (
    Basis,
    _reduced,
    concat,
    cyclic_reduce,
    free_reduce,
    inverse_cyclic,
    invert,
    primitive_root,
    word,
    word_power,
)

B3 = Basis(3)
B5 = Basis(5)
D = simple_twist(B3, 1, 2)


def small_automorphisms(basis):
    pool = [i for i in basis.generators()]

    def build(picks):
        phi = identity_automorphism(basis)
        for t, z, flip in picks:
            if t == z:
                continue
            step = simple_twist(basis, t, z)
            phi = compose(inverse(step) if flip else step, phi)
        return phi

    pick = st.tuples(st.sampled_from(pool), st.sampled_from(pool), st.booleans())
    return st.lists(pick, max_size=3).map(build)


class TestTwists:
    def test_simple_twist_images(self):
        assert str(apply(D, word(B3, "a"))) == "ab"
        assert str(apply(D, word(B3, "b"))) == "b"
        assert str(apply(power(D, 3), word(B3, "a"))) == "abbb"
        assert str(apply(inverse(D), word(B3, "a"))) == "aB"

    @pytest.mark.parametrize("basis", [B3, B5])
    def test_letter_built_twists_match_string_built(self, basis):
        for t in basis.generators():
            for z in basis.generators():
                if t == z:
                    continue
                name, twistor = basis.letter_name(t), basis.letter_name(z)
                literal = f"{name}->{name}{twistor} | {name}->{name}{twistor.upper()}"
                assert simple_twist(basis, t, z) == parse_automorphism(basis, literal)

    def test_degenerate_twist_rejected(self):
        with pytest.raises(ValueError):
            simple_twist(B3, 1, 1)

    def test_linear_growth(self):
        for n in range(20):
            assert len(apply(power(D, n), word(B3, "a"))) == n + 1

    def test_double_twist(self):
        phi = double_twist(B5)
        assert str(apply(phi, word(B5, "a"))) == "ab"
        assert str(apply(phi, word(B5, "e"))) == "ed"
        assert str(apply(phi, word(B5, "c"))) == "c"
        left = compose(simple_twist(B5, 1, 2), simple_twist(B5, 5, 4))
        right = compose(simple_twist(B5, 5, 4), simple_twist(B5, 1, 2))
        assert left == right == phi

    def test_double_twist_needs_rank_five(self):
        with pytest.raises(RankError):
            double_twist(B3)

    def test_headline_orbit_words(self):
        phi = double_twist(B5)
        for n in range(5):
            assert str(apply(power(phi, n), word(B5, "Ac"))) == "B" * n + "Ac"
            assert str(apply(power(phi, -n), word(B5, "Ac"))) == "b" * n + "Ac"


class TestBasisChanges:
    def test_prime_images(self):
        prime = prime_basis_change(B5)
        assert str(apply(prime, word(B5, "b"))) == "Ac"
        assert str(apply(prime, word(B5, "a"))) == "a"
        assert str(apply(prime, word(B5, "e"))) == "e"

    def test_double_prime_images(self):
        second = double_prime_basis_change(B5)
        assert str(apply(second, word(B5, "b"))) == "Ec"

    def test_defining_relation(self):
        # the b-image times the a- and c-images collapses back to b
        prime = prime_basis_change(B5)
        pieces = [apply(prime, word(B5, text)) for text in ("b", "a", "c")]
        assert str(concat(concat(pieces[0], pieces[1]), pieces[2])) == "b"

    def test_roundtrip(self):
        for change in (prime_basis_change(B5), double_prime_basis_change(B5)):
            assert compose(change, inverse(change)) == identity_automorphism(B5)


class TestGroupLaws:
    @given(small_automorphisms(B3), st.integers(min_value=-20, max_value=20))
    def test_power(self, phi, n):
        # every exponent from 0 to n against the product of its factors; past
        # +-4 only while that product stays short, since twists compose to
        # exponentially growing maps
        sign = 1 if n >= 0 else -1
        step = phi if n >= 0 else inverse(phi)
        direct = identity_automorphism(B3)
        for m in range(abs(n) + 1):
            if m > 4 and max(map(len, direct.images + direct.inverse_images)) > 400:
                break
            assert power(phi, sign * m) == direct
            direct = compose(step, direct)


class TestValidationBoundary:
    """compose, inverse and power build checked automorphisms' results without re-checking."""

    GROWING = compose(simple_twist(B3, 2, 1), simple_twist(B3, 1, 2))

    def test_power_of_a_growing_map_is_stepwise_composition(self):
        stepwise = identity_automorphism(B3)
        for _ in range(8):
            stepwise = compose(self.GROWING, stepwise)
        fast = power(self.GROWING, 8)
        assert (fast.images, fast.inverse_images) == (stepwise.images, stepwise.inverse_images)
        assert (fast.table, fast.inverse_table) == (stepwise.table, stepwise.inverse_table)

    @pytest.mark.parametrize("n", [-6, -1, 0, 1, 6])
    def test_unchecked_results_pass_the_public_check(self, n):
        phi = power(self.GROWING, n)
        checked = FreeAutomorphism(B3, phi.images, phi.inverse_images)
        assert checked == phi
        assert (checked.table, checked.inverse_table) == (phi.table, phi.inverse_table)
        back = inverse(phi)
        assert (back.table, back.inverse_table) == (phi.inverse_table, phi.table)

    @settings(max_examples=60, deadline=None)
    @given(st.data())
    def test_trusted_producers_pass_the_public_checks(self, data):
        # every value built without its checks passes them: replace re-runs __post_init__
        basis = data.draw(st.sampled_from([Basis(2), B3, B5]))
        letters = st.lists(st.sampled_from(basis.signed_letters()), max_size=10)
        u, v = free_reduce(basis, data.draw(letters)), free_reduce(basis, data.draw(letters))
        n = data.draw(st.integers(min_value=-3, max_value=3))
        t, z = data.draw(st.permutations(list(basis.generators())))[:2]
        phi = compose(simple_twist(basis, t, z), data.draw(small_automorphisms(basis)))
        rng = Random(data.draw(st.integers(min_value=0, max_value=2**16)))
        values = [
            concat(u, v), invert(u), word_power(u, n), apply(phi, u), apply_inverse(phi, u),
            compose(phi, phi), inverse(phi), power(phi, n), identity_automorphism(basis), simple_twist(basis, t, z),
            random_reduced_word(rng, basis, 8), random_cyclic_word(rng, basis, 8), random_current(rng, basis),
            *power_free_classes(basis, 2),
        ]
        if not u.is_identity():
            cycle, conjugator = cyclic_reduce(u)
            nu = rational_current(word_power(u, data.draw(st.integers(min_value=1, max_value=3))))
            values += [cycle, conjugator, inverse_cyclic(cycle), primitive_root(cycle)[0], cycle.as_word()]
            values += [apply_cyclic(phi, cycle), nu, scale(Fraction(3, 2), nu), act(phi, nu)]
            values += [w for w, _ in projective_vector(nu, 2).entries]
        for value in values:
            assert replace(value) == value
            if isinstance(value, FreeAutomorphism):
                assert (replace(value).table, replace(value).inverse_table) == (value.table, value.inverse_table)
            if isinstance(value, RationalCurrent):
                assert all(replace(cls) == cls and replace(cls.root) == cls.root for cls, _ in value.terms)
            if hasattr(value, "root"):
                assert replace(value.root) == value.root

    def test_mismatched_table_still_raises(self):
        phi = power(self.GROWING, 3)
        with pytest.raises(AutomorphismTableError, match="not mutually inverse"):
            FreeAutomorphism(B3, phi.images, phi.images)
        with pytest.raises(ParseError, match="not mutually inverse"):
            parse_automorphism(B3, "a->ab | a->ab")


class TestParsing:
    def test_builtins(self):
        assert parse_automorphism(B5, "phi") == double_twist(B5)
        assert parse_automorphism(B3, "twist(a,b)") == D
        assert parse_automorphism(B3, "identity") == identity_automorphism(B3)
        assert parse_automorphism(B5, "prime-basis-change") == prime_basis_change(B5)

    def test_table_literal(self):
        phi = parse_automorphism(B3, "c->ca | c->cA")
        assert str(apply(phi, word(B3, "c"))) == "ca"
        assert str(apply(inverse(phi), word(B3, "c"))) == "cA"

    def test_bad_inverse_rejected(self):
        with pytest.raises(ParseError):
            parse_automorphism(B3, "a->ab | a->ab")

    def test_missing_inverse_rejected(self):
        with pytest.raises(ParseError):
            parse_automorphism(B3, "a->ab")

    def test_unknown_name(self):
        with pytest.raises(ParseError):
            parse_automorphism(B3, "frobenius")

    @given(small_automorphisms(B3))
    def test_str_roundtrip(self, phi):
        assert parse_automorphism(B3, automorphism_str(phi)) == phi


def reduced_images(basis):
    letters = st.lists(st.sampled_from(basis.signed_letters()), max_size=4)
    return st.lists(letters.map(lambda ls: free_reduce(basis, ls).letters), min_size=basis.rank, max_size=basis.rank)


class TestApplyTable:
    @given(
        st.one_of(small_automorphisms(B3).map(lambda phi: phi.table), reduced_images(B3).map(_signed_table)),
        st.lists(st.sampled_from(B3.signed_letters()), max_size=16),
    )
    def test_junction_cancellation_is_free_reduction(self, table, letters):
        # any table of reduced images, on possibly unreduced letter sequences
        assert _apply_table(table, letters) == _reduced(chain.from_iterable(map(table.__getitem__, letters)))
