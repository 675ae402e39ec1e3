"""Orbit iteration, escape choices, and the packaged experiments."""

from fractions import Fraction

import pytest

from currents_lab.automorphisms import identity_automorphism, inverse, power, simple_twist
from currents_lab.currents import parse_current, rational_current, zero_current
from currents_lab.dynamics import (
    escape_from_critical,
    iterate_current,
    run_minimality_walk,
    run_off_critical_perturbation,
    run_outlook_identity,
    run_primitive_limit,
    run_product_minimal,
    run_theorem_back,
    run_theorem_main,
    tree_orbit_limit,
    walk_to_target,
)
from currents_lab.errors import NotStabilizedError, RankError, ZeroCurrentError
from currents_lab.trees import (
    cayley_tree,
    projective_tree_vector,
    tree_projective_eq,
    twist_tree,
)
from currents_lab.words import Basis, word

B3 = Basis(3)
D = simple_twist(B3, 1, 2)


def mu(text):
    return rational_current(word(B3, text))


class TestEscape:
    def test_generator_current(self):
        choice = escape_from_critical(mu("a"))
        assert choice.twist == simple_twist(B3, 1, 2)
        assert choice.direction == 1
        assert choice.target == 2
        assert choice.reason == "(a;nu)=1 > 2*(aB;nu)=0"

    def test_second_generator(self):
        choice = escape_from_critical(mu("b"))
        assert choice.twist == simple_twist(B3, 2, 1)
        assert (choice.direction, choice.target) == (1, 1)

    def test_critical_member_uses_third_letter(self):
        choice = escape_from_critical(mu("abaB"))
        assert choice.twist == simple_twist(B3, 1, 3)
        assert (choice.direction, choice.target) == (1, 3)
        assert "critical" in choice.reason

    def test_zero_current_rejected(self):
        with pytest.raises(ZeroCurrentError):
            escape_from_critical(zero_current(B3))

    def test_rank_two_rejected(self):
        with pytest.raises(RankError):
            escape_from_critical(rational_current(word(Basis(2), "a")))

    def test_walk_reaches_target(self):
        nu = mu("abaB")
        choice = escape_from_critical(nu)
        hit, last = walk_to_target(choice, nu, steps=40, level=1)
        assert hit is not None and hit <= 40
        assert last <= Fraction(1, 10)


class TestIteration:
    def test_distance_law_on_generator(self):
        report = iterate_current(D, mu("a"), steps=12, level=1, limit=mu("b"))
        rows = report.tables[0].rows
        for row in rows:
            n = int(row[0])
            assert row[1] == str(n + 1)
            assert Fraction(row[2]) == Fraction(1, n + 1)
        assert report.passed

    def test_fixed_point(self):
        report = iterate_current(D, mu("b"), steps=6, level=1, limit=mu("b"))
        assert all(row[2] == "0" for row in report.tables[0].rows)

    def test_zero_current_rejected(self):
        with pytest.raises(ZeroCurrentError):
            iterate_current(D, zero_current(B3), steps=3, level=1)


class TestTreeOrbit:
    def test_twist_orbit_limit(self):
        limit = tree_orbit_limit(D, cayley_tree(B3), level=2)
        target = projective_tree_vector(twist_tree(B3, [(1, 2, Fraction(1))]), 2)
        assert tree_projective_eq(limit, target)

    def test_identity_is_a_fixed_point(self):
        limit = tree_orbit_limit(identity_automorphism(B3), cayley_tree(B3), level=2)
        assert tree_projective_eq(limit, projective_tree_vector(cayley_tree(B3), 2))

    def test_tiny_cap(self):
        with pytest.raises(NotStabilizedError):
            tree_orbit_limit(D, cayley_tree(B3), level=2, cap=2)

    def test_pre_wound_marking(self):
        # the marking D^20 winds [a] up 20 times; the orbit unwinds it at rate -1
        wound = cayley_tree(B3, marking=power(D, 20))
        with pytest.raises(NotStabilizedError) as info:
            tree_orbit_limit(inverse(D), wound, level=2, cap=8)
        assert "class [a]" in str(info.value)
        seq = info.value.sequence
        assert [seq[i + 1] - seq[i] for i in range(len(seq) - 1)] == [-1] * 8
        limit = tree_orbit_limit(inverse(D), wound, level=2, cap=64)
        assert tree_projective_eq(limit, tree_orbit_limit(inverse(D), cayley_tree(B3), level=2, cap=64))


class TestExperiments:
    def test_theorem_back(self):
        report = run_theorem_back()
        assert report.passed
        witness = {t.name: t for t in report.tables}["witness"]
        assert witness.rows == (("ca", "1", "0"),)

    def test_theorem_main(self):
        report = run_theorem_main(iters=8)
        assert report.passed
        distances = {t.name: t for t in report.tables}["current-distances"]
        for row in distances.rows:
            n = int(row[0])
            for cell in row[1:]:
                assert Fraction(cell) == Fraction(2, n + 2)
        names = [a.name for a in report.assertions]
        assert any("distance exactly 1" in n for n in names)

    def test_product_minimal(self):
        report = run_product_minimal(iters=6)
        assert report.passed

    def test_primitive_limit(self):
        report = run_primitive_limit(word(B3, "ab"), iters=10)
        assert report.passed
        rows = report.tables[0].rows
        for row in rows[1:]:
            n = int(row[0])
            assert Fraction(row[1]) == Fraction(3, 4 * n + 2)
            assert Fraction(row[1]) <= Fraction(3, 2 * n + 1)

    def test_primitive_limit_rejects_other_letters(self):
        with pytest.raises(ValueError):
            run_primitive_limit(word(B3, "ac"), iters=2)

    def test_off_critical(self):
        report = run_off_critical_perturbation(word(B3, "abaB"), word(B3, "a"), iters=6)
        assert report.passed

    def test_off_critical_rejects_even_count(self):
        with pytest.raises(ValueError):
            run_off_critical_perturbation(word(B3, "abaB"), word(B3, "b"), iters=2)

    def test_outlook_identity(self):
        report = run_outlook_identity(iters=6)
        assert report.passed
        rows = report.tables[0].rows
        assert rows[0][1] == "1/2"
        assert rows[2][1] == "1/12"
        for row in rows:
            n = int(row[0])
            assert Fraction(row[1]) == Fraction(1, n * (n + 1))

    def test_minimality_walk(self):
        report = run_minimality_walk(trials=20, seed=3)
        assert report.passed


class TestReports:
    def test_json_deterministic(self):
        a = run_theorem_back().to_json()
        b = run_theorem_back().to_json()
        assert a == b

    def test_seeded_walk_deterministic(self):
        a = run_minimality_walk(trials=5, seed=9).to_json()
        b = run_minimality_walk(trials=5, seed=9).to_json()
        assert a == b

    def test_csv_layout(self):
        report = run_outlook_identity(iters=3)
        lines = report.to_csv().splitlines()
        assert lines[0] == "table,pairing"
        assert lines[1] == "n,value,expected"
        assert lines[2] == "1,1/2,1/2"
