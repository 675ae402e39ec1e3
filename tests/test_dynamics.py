"""Orbit iteration, escape choices, and the packaged experiments."""

import argparse
import dataclasses
import hashlib
import json
from fractions import Fraction
from functools import partial, reduce

import pytest
from hypothesis import assume, given, settings, strategies as st

from currents_lab.automorphisms import (
    _signed_table,
    apply,
    compose,
    double_prime_basis_change,
    double_twist,
    identity_automorphism,
    inverse,
    power,
    prime_basis_change,
    simple_twist,
)
from currents_lab import currents, dynamics, trees
from currents_lab.cli import EXPERIMENTS
from currents_lab.currents import (
    _twist_form,
    parse_current,
    power_free_classes,
    projective_distance,
    projective_vector,
    rational_current,
    zero_current,
)
from currents_lab.dynamics import (
    Law,
    _dumps,
    _ratio,
    _rise,
    escape_from_critical,
    iterate_current,
    run_minimality_walk,
    run_off_critical_perturbation,
    run_outlook_identity,
    run_primitive_limit,
    run_product_minimal,
    run_theorem_back,
    run_theorem_main,
    walk_to_target,
)
from currents_lab.errors import (
    AllEllipticError,
    IdentityElementError,
    NotStabilizedError,
    RankError,
    ZeroCurrentError,
)
from currents_lab.trees import (
    ProjectiveTreeVector,
    _affine_law,
    _int_lengths,
    _pulled_periods,
    _tree_orbit,
    _weigher,
    cayley_tree,
    length,
    projective_tree_vector,
    tree_orbit_limit,
    tree_projective_eq,
    twist_tree,
)
from currents_lab.words import Basis, concat, cyclic_reduce, free_reduce, invert, word, word_power

B3 = Basis(3)
B5 = Basis(5)
D = simple_twist(B3, 1, 2)
# D conjugated by b -> bc sends a to abc: a table without a twist form
CONJUGATED_TWIST = compose(simple_twist(B3, 2, 3), compose(D, inverse(simple_twist(B3, 2, 3))))


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
        assert choice.reason == "critical for (a,b): (ac;nu)=(aC;nu)=0"

    @pytest.mark.parametrize("basis, text", [(B3, "1*[ab] + 1*[aB]"), (Basis(5), "2/3*[ab] + 2/3*[aB] + 1*[e]")])
    def test_critical_reason_names_the_forced_zeros(self, basis, text):
        choice = escape_from_critical(parse_current(basis, text))
        assert (choice.target, choice.direction) == (3, 1)
        assert choice.reason == "critical for (a,b): (ac;nu)=(aC;nu)=0"

    @settings(max_examples=300, deadline=None)
    @given(st.data())
    def test_half_the_twisted_count_bounds_both_extensions_only_on_the_critical_set(self, data):
        # (t;nu) sums (tx;nu) over x != t^-1, so (t) <= 2(tz) and (t) <= 2(tz^-1) iff (t)/2 = (tz) = (tz^-1)
        rank = data.draw(st.integers(3, 5))
        t, z = data.draw(st.permutations(range(1, rank + 1)))[:2]
        counts = {(t, x): data.draw(st.integers(0, 3)) for x in range(-rank, rank + 1) if x and x != -t}
        counts[(t,)] = sum(counts.values())
        both = counts[(t,)] <= 2 * counts[(t, z)] and counts[(t,)] <= 2 * counts[(t, -z)]
        assert currents._critical_check(counts, 3, t, z).member == both

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

    @pytest.mark.parametrize(
        "text, reached, short_of_it",
        [
            # eta_a under a -> ab is at distance 1/(n+1) from eta_b at level 1
            ("1*[a]", (9, Fraction(1, 10)), (8, None, Fraction(1, 9))),
            # weights over the denominator 6, and a target norm of 101 at step 9
            ("3/2*[ab] + 1/3*[c]", (10, Fraction(1, 10)), (9, None, Fraction(11, 101))),
        ],
    )
    def test_a_distance_of_exactly_the_radius_is_reached(self, text, reached, short_of_it):
        nu = parse_current(B3, text)
        choice = escape_from_critical(nu)
        assert walk_to_target(choice, nu, steps=40, level=1) == reached
        assert walk_to_target(choice, nu, steps=reached[0], level=1) == reached
        steps, hit, last = short_of_it
        assert walk_to_target(choice, nu, steps=steps, level=1) == (hit, last)

    @pytest.mark.parametrize(
        "text, reason",
        [
            ("3/2*[ab] + 1/3*[c]", "(a;nu)=3/2 > 2*(aB;nu)=0"),
            ("3/2*[ab] + 1/3*[aB] + 2/5*[ac] + 1/7*[aC]", "(a;nu)=499/210 > 2*(aC;nu)=2/7"),
        ],
    )
    def test_reason_names_coordinates_as_fractions(self, text, reason):
        assert escape_from_critical(parse_current(B3, text)).reason == reason


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

    def test_level_below_one_names_the_level(self):
        with pytest.raises(ValueError, match="^level must be at least 1, got 0$"):
            tree_orbit_limit(D, cayley_tree(B3), level=0)

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


def basic_moves(basis):
    """Simple twists and, at rank >= 5, both basis changes, with their inverses."""
    gens = basis.generators()
    moves = [simple_twist(basis, t, z) for t in gens for z in gens if t != z]
    if basis.rank >= 5:
        moves += [prime_basis_change(basis), double_prime_basis_change(basis)]
    return moves + [inverse(m) for m in moves]


def compositions(basis, moves, max_size):
    return st.lists(st.sampled_from(moves), max_size=max_size).map(
        lambda picks: reduce(compose, picks, identity_automorphism(basis))
    )


POSITIVE = st.fractions(min_value=Fraction(1, 5), max_value=5, max_denominator=5)


@st.composite
def marked_trees(draw, basis):
    marking = draw(compositions(basis, basic_moves(basis), 3))
    scale = draw(POSITIVE.filter(lambda r: r != 1))
    if draw(st.booleans()):
        weights = draw(st.lists(POSITIVE, min_size=basis.rank, max_size=basis.rank))
        return cayley_tree(basis, weights, marking, scale)
    order = draw(st.permutations(list(basis.generators())))
    edges = draw(st.integers(1, 2 if basis.rank >= 4 else 1))
    lengths = draw(st.lists(POSITIVE, min_size=edges, max_size=edges))
    twists = list(zip(order[:edges], order[edges : 2 * edges], lengths))
    return twist_tree(basis, twists, marking, scale)


def steppers(basis):
    moves = basic_moves(basis)
    if basis.rank >= 5:
        moves += [double_twist(basis), inverse(double_twist(basis))]
    return compositions(basis, moves, 2)


def linear_steppers(basis):
    """Steppers whose orbits grow at most linearly, so that a cap of 64 stays cheap."""
    twists = [simple_twist(basis, t, z) for t in basis.generators() for z in basis.generators() if t != z]
    if basis.rank >= 5:
        twists.append(double_twist(basis))
    return st.sampled_from(twists + [inverse(m) for m in twists]).flatmap(
        lambda m: st.integers(1, 3).map(lambda n: power(m, n))
    )


def stepped_to_the_cap(phi, tree, level, cap):
    """tree_orbit_limit as a plain reading: every class stepped through every step to the cap."""
    classes = power_free_classes(tree.basis, level)
    weigh, factor = _weigher(tree)
    rates, lasts = [], []
    for cls in classes:
        seq = _tree_orbit(weigh, phi.inverse_table, tree.marking.inverse_table, tree.basis.rank, cls.root.letters, cap)
        diffs = [b - a for a, b in zip(seq, seq[1:])]
        if len(diffs) < 3 or diffs[-3:] != [diffs[-1]] * 3 or diffs[-1] < 0:
            raise NotStabilizedError(
                f"class {cls}: no stable growth rate within {cap} iterations",
                tuple(factor * v for v in seq),
            )
        rates.append(diffs[-1])
        lasts.append(seq[-1])
    values = lasts if all(r == 0 for r in rates) else rates
    if sum(values) == 0:
        raise AllEllipticError("every test class stays elliptic along the orbit")
    return ProjectiveTreeVector(tree.basis, level, classes, tuple(Fraction(v, sum(values)) for v in values))


def outcome(limit, *args):
    """The value of ``limit(*args)``, or the type, message and sequence of what it raised."""
    try:
        return limit(*args)
    except (NotStabilizedError, AllEllipticError) as exc:
        return type(exc), str(exc), getattr(exc, "sequence", None)


# the five orbits of theorem-main (two marked twist trees, both directions) and product-minimal
TREE_PRIME = twist_tree(B5, [(1, 2, Fraction(1))], marking=prime_basis_change(B5))
TREE_DPRIME = twist_tree(B5, [(1, 2, Fraction(1))], marking=double_prime_basis_change(B5))
BENCHMARK_ORBITS = [
    (double_twist(B5), TREE_PRIME),
    (inverse(double_twist(B5)), TREE_PRIME),
    (double_twist(B5), TREE_DPRIME),
    (inverse(double_twist(B5)), TREE_DPRIME),
    (simple_twist(B5, 1, 2), TREE_PRIME),
]


class TestTreeOrbitKernel:
    @settings(max_examples=200, deadline=None)
    @given(st.data())
    def test_tail_jump_equals_stepping_to_the_cap(self, data):
        basis = data.draw(st.sampled_from([B3, B5]))
        cap = data.draw(st.sampled_from(list(range(1, 11)) + [64]))
        if basis is B3 and data.draw(st.booleans()):
            # a pre-wound marking: the orbit of D^-1 (of D) unwinds D^k (D^-k) through a long transient
            tree = cayley_tree(B3, marking=power(D, data.draw(st.integers(-12, 12))))
            phi = data.draw(st.sampled_from([D, inverse(D)]))
        else:
            tree = data.draw(marked_trees(basis))
            phi = data.draw(linear_steppers(basis) if cap == 64 else steppers(basis))
        level = data.draw(st.integers(1, 2))
        args = (phi, tree, level, cap)
        assert outcome(tree_orbit_limit, *args) == outcome(stepped_to_the_cap, *args)

    @pytest.mark.parametrize(
        "phi, tree, cap, stepped",
        [
            # certified twist steppers
            (D, cayley_tree(B3), 10, 0),
            (D, cayley_tree(B3), 64, 0),
            (inverse(D), cayley_tree(B3), 64, 0),
            (inverse(D), cayley_tree(B3, marking=power(D, 12)), 64, 0),
            (double_twist(B5), twist_tree(B5, [(1, 2, Fraction(1))], marking=prime_basis_change(B5)), 64, 0),
            (
                inverse(double_twist(B5)),
                twist_tree(B5, [(1, 2, Fraction(1))], marking=double_prime_basis_change(B5)),
                64,
                0,
            ),
            (simple_twist(B5, 1, 2), twist_tree(B5, [(1, 2, Fraction(1))], marking=prime_basis_change(B5)), 64, 0),
            # no twist form
            (CONJUGATED_TWIST, cayley_tree(B3), 10, 9),
            (CONJUGATED_TWIST, cayley_tree(B3), 64, 9),
            # caps below N + 3: at cap 4 the 4 classes of D certified at N = 2 or 3, at cap 3 every class
            (D, cayley_tree(B3), 4, 4),
            (identity_automorphism(B3), cayley_tree(B3), 3, 9),
        ],
    )
    def test_a_class_is_read_off_its_law_or_stepped_once(self, monkeypatch, phi, tree, cap, stepped):
        steps = []

        def counted(weigh, step, pull, rank, letters, n):
            steps.append(n)
            return _tree_orbit(weigh, step, pull, rank, letters, n)

        monkeypatch.setattr(trees, "_tree_orbit", counted)
        tree_orbit_limit(phi, tree, level=2, cap=cap)
        assert steps == [cap] * stepped

    def test_the_failing_class_is_stepped_once(self, monkeypatch):
        # test_pre_wound_marking's orbit: [a] fails at cap 8, and its error carries the one orbit stepped for it
        wound = cayley_tree(B3, marking=power(D, 20))
        orbits = []

        def recorded(weigh, step, pull, rank, letters, n):
            orbits.append((tuple(letters), n, _tree_orbit(weigh, step, pull, rank, letters, n)))
            return orbits[-1][2]

        monkeypatch.setattr(trees, "_tree_orbit", recorded)
        with pytest.raises(NotStabilizedError, match=r"^class \[a\]") as info:
            tree_orbit_limit(inverse(D), wound, level=2, cap=8)
        assert [n for _, n, _ in orbits] == [8] * len(orbits)
        letters, _, seq = orbits[-1]
        _, factor = _weigher(wound)
        assert letters == (1,) and info.value.sequence == tuple(factor * v for v in seq)

    @settings(max_examples=300, deadline=None)
    @given(st.data())
    def test_certified_law_is_the_stepped_orbit(self, data):
        basis = data.draw(st.sampled_from([B3, B5]))
        if basis is B3 and data.draw(st.booleans()):
            tree = cayley_tree(B3, marking=power(D, data.draw(st.integers(-12, 12))))
            phi = data.draw(st.sampled_from([D, inverse(D)]))
        else:
            tree = data.draw(marked_trees(basis))
            phi = data.draw(linear_steppers(basis))
        classes = power_free_classes(basis, data.draw(st.integers(1, 3)))
        if len(classes) > 20:
            classes = data.draw(st.lists(st.sampled_from(classes), min_size=1, max_size=20, unique=True))
        form = _twist_form(phi.inverse_table, basis.rank)
        weigh, _ = _weigher(tree)
        lengths, _ = _int_lengths(tree)
        pull = tree.marking.inverse_table
        periods = _pulled_periods(pull, weigh, lengths)
        for cls in classes:
            law = _affine_law(form, weigh, periods, pull, basis.rank, cls.root.letters, 61)
            if law is None:
                continue
            first, value, delta = law
            seq = _tree_orbit(weigh, phi.inverse_table, pull, basis.rank, cls.root.letters, first + 40)
            assert seq[first:] == [value + k * delta for k in range(41)]

    def test_a_wrong_growth_raises_at_the_step_after_the_certificate(self, monkeypatch):
        tree = cayley_tree(B3, marking=power(D, 12))
        weigh, _ = _weigher(tree)
        lengths, _ = _int_lengths(tree)
        periods = _pulled_periods(tree.marking.inverse_table, weigh, lengths)
        args = (_twist_form(D.table, 3), weigh, periods, tree.marking.inverse_table, 3, (1,), 61)
        first, value, delta = _affine_law(*args)
        assert first > 12  # the marking's winding is unwound first
        monkeypatch.setattr(trees, "_period_growth", lambda limit, pulled: delta + 1)
        with pytest.raises(RuntimeError, match=f"^step {first + 1} of \\(1,\\) is not step {first} plus"):
            _affine_law(*args)

    @settings(max_examples=200, deadline=None)
    @given(st.data())
    def test_one_onset_is_the_first_of_both_affine_tails(self, data):
        basis = data.draw(st.sampled_from([B3, B5]))
        phi = data.draw(linear_steppers(basis))
        g = free_reduce(basis, data.draw(st.lists(st.sampled_from(basis.signed_letters()), max_size=10)))
        assume(g.letters)
        skeleton = currents._skeleton(_twist_form(phi.inverse_table, basis.rank), cyclic_reduce(g)[0].letters)
        limit = currents._limit(skeleton)
        both = max(currents._affine_tail(skeleton, 1)[0], currents._affine_tail(limit, 2)[0])
        assert max(currents._onset(skeleton + limit, 1), currents._onset(limit, 2)) == both

    def test_each_orbit_builds_a_period_at_most_once_per_signed_generator(self, monkeypatch):
        built = []
        pulled_periods, period = trees._pulled_periods, trees._period

        def counted_periods(pull, weigh, lengths):
            built.append([])
            return pulled_periods(pull, weigh, lengths)

        def counted_period(pull, weigh, lengths, y):
            built[-1].append(y)
            return period(pull, weigh, lengths, y)

        monkeypatch.setattr(trees, "_pulled_periods", counted_periods)
        monkeypatch.setattr(trees, "_period", counted_period)
        for level in (2, 3):
            for phi, tree in BENCHMARK_ORBITS:
                built.clear()
                tree_orbit_limit(phi, tree, level=level)
                [ys] = built  # one cache per orbit
                assert ys and len(ys) == len(set(ys)) <= 2 * B5.rank

    @pytest.mark.parametrize(
        "phi, tree, fixed", [orbit + (count,) for orbit, count in zip(BENCHMARK_ORBITS, (9, 9, 9, 9, 16))]
    )
    def test_a_class_with_no_moving_syllable_is_weighed_once(self, phi, tree, fixed):
        weigh, _ = _weigher(tree)
        lengths, _ = _int_lengths(tree)
        pull = tree.marking.inverse_table
        form = _twist_form(phi.inverse_table, B5.rank)
        periods = _pulled_periods(pull, weigh, lengths)
        still = 0
        for cls in power_free_classes(B5, 2):
            if any(slope for _, _, slope in currents._limit(currents._skeleton(form, cls.root.letters))):
                continue
            still += 1
            weighed = []

            def counted(letters):
                weighed.append(letters)
                return weigh(letters)

            first, value, delta = _affine_law(form, counted, periods, pull, B5.rank, cls.root.letters, 61)
            assert len(weighed) == 1 and delta == 0
            seq = _tree_orbit(weigh, phi.inverse_table, pull, B5.rank, cls.root.letters, first + 3)
            assert seq[first:] == [value] * 4
        assert still == fixed

    def test_a_class_with_no_moving_syllable_checks_the_next_step_syllables(self, monkeypatch):
        tree = cayley_tree(B3, marking=power(D, 12))
        weigh, _ = _weigher(tree)
        lengths, _ = _int_lengths(tree)
        periods = _pulled_periods(tree.marking.inverse_table, weigh, lengths)
        args = (_twist_form(D.table, 3), weigh, periods, tree.marking.inverse_table, 3, (2, 3), 61)
        first, _, delta = _affine_law(*args)
        assert delta == 0
        syllables = trees._syllables

        def wrong_at_the_next_step(skeleton, n):
            return syllables(skeleton, n) + [(1, 1)] if n == first + 1 else syllables(skeleton, n)

        monkeypatch.setattr(trees, "_syllables", wrong_at_the_next_step)
        with pytest.raises(RuntimeError, match=f"^step {first + 1} is not the limit skeleton's step {first + 1}$"):
            _affine_law(*args)

    def test_the_fallback_is_under_the_letter_budget(self, monkeypatch):
        # without a twist form every class is stepped to the cap, each step refused before it may pass the budget
        tree_orbit_limit(CONJUGATED_TWIST, cayley_tree(B3), level=2, cap=64)
        monkeypatch.setattr(currents, "LETTER_BUDGET", 50)
        with pytest.raises(ValueError, match="over the budget of 50$"):
            tree_orbit_limit(CONJUGATED_TWIST, cayley_tree(B3), level=2, cap=64)
        weigh, _ = _weigher(cayley_tree(B3))
        fixed = identity_automorphism(B3).table
        with pytest.raises(ValueError, match="over the budget of 50$"):
            _tree_orbit(weigh, CONJUGATED_TWIST.inverse_table, fixed, 3, (1,), 30)

    @settings(max_examples=80, deadline=None)
    @given(st.data())
    def test_kernel_lengths_are_public_lengths(self, data):
        basis = data.draw(st.sampled_from([B3, B5]))
        tree = data.draw(marked_trees(basis))
        phi = data.draw(steppers(basis))
        letters = data.draw(st.lists(st.sampled_from(basis.signed_letters()), min_size=1, max_size=8))
        g = free_reduce(basis, letters)
        if g.is_identity():
            return
        steps = data.draw(st.integers(0, 6))
        weigh, factor = _weigher(tree)
        kernel = _tree_orbit(weigh, phi.inverse_table, tree.marking.inverse_table, basis.rank, g.letters, steps)
        back = inverse(phi)
        public = [length(tree, apply(power(back, n), g)) for n in range(steps + 1)]
        assert [factor * v for v in kernel] == public

    def test_pull_back_whose_ends_cancel(self):
        # the marking's inverse sends ba to baB, whose cyclic core is a
        tree = cayley_tree(B3, marking=D)
        weigh, factor = _weigher(tree)
        kernel = _tree_orbit(weigh, identity_automorphism(B3).table, D.inverse_table, 3, (2, 1), 2)
        assert [factor * v for v in kernel] == [length(tree, word(B3, "ba"))] * 3 == [1] * 3

    def test_non_automorphism_tables_raise_explicit_errors(self):
        # the per-step checks must hold under python -O too
        weigh, _ = _weigher(cayley_tree(B3))
        fixed = identity_automorphism(B3).table
        killing = _signed_table([(), (2,), (3,)])  # a -> 1
        outside = _signed_table([(1, 4), (2,), (3,)])  # a -> ad over rank 3
        unreduced = _signed_table([(1, 2, -2), (2,), (3,)])  # a -> abB
        with pytest.raises(IdentityElementError):
            _tree_orbit(weigh, killing, fixed, 3, (1,), 1)
        with pytest.raises(ValueError, match="rank 3"):
            _tree_orbit(weigh, outside, fixed, 3, (1,), 1)
        with pytest.raises(ValueError, match="cyclically reduced"):
            _tree_orbit(weigh, fixed, unreduced, 3, (1, 3), 0)


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

    @pytest.mark.parametrize(
        "run, orbits",
        [
            (run_theorem_main, 4),
            (run_product_minimal, 2),
            pytest.param(partial(run_primitive_limit, word(B3, "aa")), 1, id="primitive-limit-aa"),
            pytest.param(partial(run_primitive_limit, word(B3, "B")), 1, id="primitive-limit-B"),
            pytest.param(partial(run_primitive_limit, word(B3, "ab")), 1, id="primitive-limit-ab"),
            pytest.param(partial(run_off_critical_perturbation, word(B3, "abaB"), word(B3, "a")), 1, id="off-critical"),
        ],
    )
    def test_tail_steps_build_no_read_dict(self, monkeypatch, run, orbits):
        # each current orbit builds A + k B twice, at n0 + 1 and at its one
        # cross-checked tail step, however many steps it runs; only the head counts reads
        calls = []
        shifted = currents._shifted
        monkeypatch.setattr(currents, "_shifted", lambda a, b, k: calls.append(k) or shifted(a, b, k))
        for iters in (50, 2000):
            calls.clear()
            assert run(iters=iters).passed
            assert len(calls) == 2 * orbits

    def test_primitive_limit(self):
        report = run_primitive_limit(word(B3, "ab"), iters=10)
        assert report.passed
        rows = report.tables[0].rows
        for row in rows[1:]:
            n = int(row[0])
            assert Fraction(row[1]) == Fraction(3, 4 * n + 2)
            assert Fraction(row[1]) <= Fraction(3, 2 * n + 1)

    @settings(max_examples=60, deadline=None)
    @given(
        st.lists(st.sampled_from([1, -1, 2, -2]), max_size=3),
        st.lists(st.sampled_from([1, -1, 2, -2]), min_size=1, max_size=4),
        st.integers(1, 3),
        st.integers(2, 12),
        st.integers(1, 3),
    )
    def test_primitive_limit_distances_are_public_distances(self, p, root, k, iters, level):
        # u = p root^k p^-1, reduced: proper powers, both signs, and u not cyclically reduced
        u = free_reduce(B3, p + root * k + [-x for x in reversed(p)])
        assume(not u.is_identity())
        report = run_primitive_limit(u, iters=iters, level=level)
        assert report.passed
        limit = projective_vector(rational_current(u), level)
        for n, row in enumerate(report.tables[0].rows):
            nu = rational_current(concat(word(B3, "c"), word_power(u, n)))
            assert row[1] == str(projective_distance(projective_vector(nu, level), limit))

    def test_primitive_limit_rejects_other_letters(self):
        with pytest.raises(ValueError):
            run_primitive_limit(word(B3, "ac"), iters=2)

    def test_off_critical(self):
        report = run_off_critical_perturbation(word(B3, "abaB"), word(B3, "a"), iters=6)
        assert report.passed

    @pytest.mark.parametrize("g, f, m", [("babAB", "a", 5), ("abaB", "A", 1)])
    def test_off_critical_outside_the_classic_hypotheses(self, g, f, m):
        # babAB is not cyclically reduced and abaB A cancels round the cycle: 2*||f||/(n*||g||)
        # fails at n = 3 and n = 1, so the proven bound, named with m = |p^-1 f p|, is asserted
        report = run_off_critical_perturbation(word(B3, g), word(B3, f), iters=30)
        assert report.passed
        assert report.assertions[-1].name == f"distance at step n is at most (level+{m}-1)/||nu_n|| for n >= 1"

    @settings(max_examples=200, deadline=None)
    @given(
        st.lists(st.sampled_from(B3.signed_letters()), min_size=1, max_size=6),
        st.lists(st.sampled_from(B3.signed_letters()), max_size=4),
        st.integers(min_value=1, max_value=3),
        st.integers(min_value=1, max_value=12),
    )
    def test_off_critical_bound_holds_for_every_g_and_f(self, g_letters, f_letters, level, n):
        # d_n <= (m + level - 1)/||nu_n|| with m = |p^-1 f p|, p the conjugator of g, read off the
        # public projective_distance
        g, f = free_reduce(B3, g_letters), free_reduce(B3, f_letters)
        gnf = concat(word_power(g, n), f)
        assume(not g.is_identity() and not gnf.is_identity())
        p = cyclic_reduce(g)[1]
        m = len(concat(concat(invert(p), f), p))
        nu = rational_current(gnf)
        d = projective_distance(projective_vector(nu, level), projective_vector(rational_current(g), level))
        assert d <= Fraction(m + level - 1) / currents.length(nu)

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


POLYS = st.lists(st.integers(-6, 6), min_size=1, max_size=3).map(tuple)


def at(poly, n):
    return sum(c * n**i for i, c in enumerate(poly))


class TestLaw:
    """The one law rule: an int relation on the driver's rows ``(norm, gap)``."""

    @settings(max_examples=500, deadline=None)
    @given(
        law=st.builds(Law, POLYS, POLYS, st.sampled_from((0, 1)), st.booleans(), st.integers(0, 3)),
        n=st.integers(0, 8),
        norm=st.integers(1, 40),
        gap=st.integers(0, 400),
        goal=st.integers(1, 6),
        on_bound=st.booleans(),
    )
    def test_verdict_is_the_fraction_relation(self, law, n, norm, gap, goal, on_bound):
        num, den = at(law.num, n), at(law.den, n)
        if n < law.first:
            assert law.holds(n, norm, gap, goal)
            return
        if den <= 0:
            for judge in (lambda: law.holds(n, norm, gap, goal), lambda: law.bound(n, norm)):
                with pytest.raises(ValueError, match="not positive"):
                    judge()
            return
        bound = Fraction(num, den) / norm ** (1 - law.e)
        if on_bound and (bound * norm * goal).denominator == 1:
            gap = abs(int(bound * norm * goal))
        distance = Fraction(gap, norm * goal)
        assert Fraction(*law.bound(n, norm)) == bound
        assert law.holds(n, norm, gap, goal) == (distance <= bound if law.at_most else distance == bound)

    @settings(max_examples=300, deadline=None)
    @given(st.lists(st.tuples(st.integers(1, 50), st.integers(0, 50)), min_size=2, max_size=6), st.integers(1, 6))
    def test_rise_is_the_fraction_comparison(self, rows, goal):
        distances = [Fraction(gap, norm * goal) for norm, gap in rows]
        for n in range(1, len(rows)):
            difference = distances[n] - distances[n - 1]
            assert (_rise(rows, n) > 0, _rise(rows, n) == 0) == (difference > 0, difference == 0)

    def test_a_mutated_theorem_main_law_fails_at_step_0(self, monkeypatch):
        monkeypatch.setattr(dynamics, "_MAIN_LAW", Law((2,), (3, 1)))
        report = run_theorem_main(iters=3)
        assert not report.passed
        failed = [a for a in report.assertions if not a.passed]
        assert [a.witness for a in failed] == ["prime forward step 0: 1 != 2/3"]


def failing_after(real, calls, spoil):
    """``real`` for the first ``calls`` calls, then its value spoiled by the call count."""
    count = 0

    def fake(*args):
        nonlocal count
        count += 1
        value = real(*args)
        return value if count <= calls else spoil(value, count)

    return fake


def failing_yields_after(real, calls):
    """The driver ``real`` for the first ``calls`` yields over all its orbits, then spoiled gaps.

    Past ``calls`` it yields ``gap + count * norm * ||g||``, so the distance
    ``gap / (norm ||g||)`` is spoiled to ``d + count``, as :func:`grow` spoils it.
    """
    count = 0

    def fake(*args):
        nonlocal count
        goal = args[-1]
        for norm, gap in real(*args):
            count += 1
            yield norm, gap if count <= calls else gap + count * norm * goal[1]

    return fake


def grow(value, count):
    return value + count


def critical(check, count):
    return dataclasses.replace(check, member=True)


def twisted_grow(check, count):
    """The check with ``(t;nu)/2`` grown by ``(count + 1)/2``: at step n, call ``n + 1``, ``(a; nu)`` grows by ``n + 2``."""
    return dataclasses.replace(check, half_twisted=check.half_twisted + Fraction(count + 1, 2))


class TestFailingReports:
    """Report bytes when per-step laws fail: every failing assertion names its first failure."""

    @pytest.mark.parametrize(
        "patches, make, digest",
        [
            (
                {"_orbit_distances": partial(failing_yields_after, calls=12)},
                lambda: run_minimality_walk(trials=4, seed=3),
                "c762eb451d40daf6b61d7108deaa7c7b46d7d7d6504b14d27a8aa1d50bbea983",
            ),
            (
                {"_orbit_distances": partial(failing_yields_after, calls=10)},
                lambda: run_theorem_main(iters=6),
                "eb14fcfcd11c2d58ff122bcff33a5b6ebcc15be9d253170c7346016ffa87edc1",
            ),
            (
                {"_orbit_distances": partial(failing_yields_after, calls=5)},
                lambda: run_product_minimal(iters=6),
                "283356268ae8edfda4d0f3809eaffed9a0bc853954aeeccc36bed769d44a344b",
            ),
            (
                {"_orbit_rows": partial(failing_yields_after, calls=3)},
                lambda: run_primitive_limit(word(B3, "ab"), iters=6),
                "54b7873d46aef7921dc1ba0dbeea22b875301b2943507d85de76854931a2cfb9",
            ),
            (
                {
                    "_orbit_rows": partial(failing_yields_after, calls=3),
                    # (a; nu) is read off the critical check: spoiled from call 4, membership from call 3
                    "_critical_check": lambda real: failing_after(
                        failing_after(real, calls=3, spoil=twisted_grow), calls=2, spoil=critical
                    ),
                },
                lambda: run_off_critical_perturbation(word(B3, "abaB"), word(B3, "a"), iters=6),
                "860a25dff5e7de05ca8d53583da80806c14585622248566cb3577396b2eb6c81",
            ),
            (
                {"intersection_form": partial(failing_after, calls=3, spoil=grow)},
                lambda: run_outlook_identity(iters=5),
                "35af3947c79c10589f2f13344edb14db174f406a08a5433a1b61245a19e02e19",
            ),
        ],
        ids=[
            "minimality-walk", "theorem-main", "product-minimal", "primitive-limit",
            "off-critical", "outlook-identity",
        ],
    )
    def test_failing_report_bytes(self, monkeypatch, patches, make, digest):
        # digests recorded before the per-step laws shared one first-witness rule
        for name, spoiled in patches.items():
            monkeypatch.setattr(dynamics, name, spoiled(getattr(dynamics, name)))
        report = make()
        assert not report.passed
        assert hashlib.sha256(report.to_json().encode()).hexdigest() == digest


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


# strings with quotes, backslashes, control characters, non-ASCII and the JavaScript line separators
JSON_STRINGS = st.text(
    alphabet=st.one_of(st.sampled_from('"\\/\x00\x08\x1f\x7f\u00e9\u2028\u2029\U0001f600'), st.characters()),
    max_size=6,
)
JSON_VALUES = st.recursive(
    st.one_of(st.none(), st.booleans(), st.integers(), JSON_STRINGS),
    lambda children: st.one_of(
        st.lists(children, max_size=4),
        st.lists(children, max_size=4).map(tuple),
        st.lists(JSON_STRINGS, max_size=4),
        st.dictionaries(JSON_STRINGS, children, max_size=4),
    ),
    max_leaves=24,
)


class TestReportWriter:
    """The report writer and cells against ``json.dumps`` and ``str(Fraction)``."""

    @settings(max_examples=400, deadline=None)
    @given(JSON_VALUES)
    def test_dumps_is_json_dumps(self, value):
        assert _dumps(value) == json.dumps(value, indent=2, sort_keys=True)

    def test_dumps_on_worked_examples(self):
        for value in ({}, [], (), {"b": [], "a": {}}, [[], ["x", 1], {"z": None, "y": True}], "\u2028"):
            assert _dumps(value) == json.dumps(value, indent=2, sort_keys=True)

    def test_ratio_is_str_fraction(self):
        for p in range(-50, 51):
            for q in range(1, 51):
                assert _ratio(p, q) == str(Fraction(p, q))
        big = 12345678901234567890123456789012345678901
        for p, q in [(big, 3), (-big, 3 * big), (big * 7, 7), (big, big - 1), (0, big), (-big, 2**133)]:
            assert _ratio(p, q) == str(Fraction(p, q))

    @pytest.mark.parametrize("experiment", sorted(EXPERIMENTS))
    def test_every_experiment_report_is_json_dumps(self, experiment):
        report = EXPERIMENTS[experiment](argparse.Namespace(iters=3, trials=5))
        assert report.to_json() == json.dumps(report.to_json_dict(), indent=2, sort_keys=True) + "\n"

    @pytest.mark.parametrize("limit", [None, "1*[b] + 1*[d]"])
    def test_iterate_report_is_json_dumps(self, limit):
        nu = parse_current(B5, "1*[ECDBCb] + 4/3*[adddBC]")
        goal = parse_current(B5, limit) if limit else None
        report = iterate_current(double_twist(B5), nu, steps=30, level=3, limit=goal)
        assert report.to_json() == json.dumps(report.to_json_dict(), indent=2, sort_keys=True) + "\n"
