"""Tree length functions: both evaluation routes, markings, the pairing."""

from fractions import Fraction
from itertools import chain
from random import Random

import pytest
from hypothesis import given, settings, strategies as st

from currents_lab.automorphisms import apply, inverse, parse_automorphism, power, simple_twist
from currents_lab.corpus import random_reduced_word
from currents_lab.currents import rational_current, scale
from currents_lab.errors import (
    IdentityElementError,
    NotStabilizedError,
    ParseError,
)
from currents_lab.trees import (
    _int_lengths,
    _letter_weight,
    _max_cyclic_run,
    _pinched,
    _weigher,
    cayley_tree,
    double_twist_tree,
    intersection_form,
    length,
    length_britton,
    length_limit,
    parse_tree,
    projective_tree_vector,
    tree_projective_eq,
    twist_tree,
)
from currents_lab.words import (
    Basis,
    _cyclic_core,
    _reduced,
    concat,
    cyclic_reduce,
    free_reduce,
    invert,
    word,
    word_power,
)

B2 = Basis(2)
B3 = Basis(3)
B5 = Basis(5)
T_D3 = twist_tree(B3, [(1, 2, Fraction(1))])
T_D5 = twist_tree(B5, [(1, 2, Fraction(1))])


def raw_letters(basis, max_size=16):
    return st.lists(st.sampled_from(basis.signed_letters()), max_size=max_size)


def nonempty_words(basis, max_size=16):
    return (
        raw_letters(basis, max_size)
        .map(lambda ls: free_reduce(basis, ls))
        .filter(lambda u: len(u) > 0)
    )


class TestTwistTreeValues:
    def test_witness_class(self):
        assert length(T_D3, word(B3, "ca")) == 1

    def test_stable_letter(self):
        assert length(T_D3, word(B3, "a")) == 1
        assert length_limit(T_D3, word(B3, "a")) == 1

    def test_vertex_group_elements(self):
        assert length(T_D3, word(B3, "b")) == 0
        assert length(T_D3, word(B3, "abAc")) == 0
        assert length_limit(T_D3, word(B3, "abAc")) == 0

    def test_double_twist_tree_values(self):
        for rho in (Fraction(1), Fraction(1, 2), Fraction(3)):
            for theta in (Fraction(1), Fraction(3, 2)):
                delta = double_twist_tree(B5, rho, theta)
                assert length(delta, word(B5, "ae")) == rho + theta
                assert length(delta, word(B5, "a")) == rho
                for text in ("b", "d", "abA", "edE", "c"):
                    assert length(delta, word(B5, text)) == 0

    def test_identity_rejected(self):
        with pytest.raises(IdentityElementError):
            length(T_D3, word(B3, "aA"))


class TestMarkings:
    def test_marked_tree_values(self):
        prime = parse_tree(B3, "twist (a:b,1) marking=c->ca | c->cA")
        assert length(prime, word(B3, "ca")) == 0
        assert length(prime, word(B3, "b")) == 0
        assert length(prime, word(B3, "a")) == 1

    def test_headline_marked_lengths(self):
        marked = parse_tree(B5, "twist (a:b,1) marking=prime-basis-change")
        assert length(marked, word(B5, "b")) == 1
        assert length(marked, word(B5, "d")) == 1

    @given(nonempty_words(B3, 12))
    def test_marking_moves_evaluation(self, g):
        phi = simple_twist(B3, 3, 1)
        plain = twist_tree(B3, [(1, 2, Fraction(1))])
        marked = twist_tree(B3, [(1, 2, Fraction(1))], marking=phi)
        assert length(marked, g) == length(plain, apply(inverse(phi), g))

    def test_scale(self):
        half = twist_tree(B3, [(1, 2, Fraction(1))], scale=Fraction(1, 2))
        assert length(half, word(B3, "a")) == Fraction(1, 2)


class TestCayleyTrees:
    def test_weighted_lengths(self):
        tree = parse_tree(B2, "cayley w(a)=1 w(b)=3/2")
        assert length(tree, word(B2, "ab")) == Fraction(5, 2)
        assert length(tree, word(B2, "abA")) == Fraction(3, 2)

    @given(nonempty_words(B3, 20))
    def test_matches_current_length(self, g):
        from currents_lab.currents import length as current_length

        assert length(cayley_tree(B3), g) == current_length(rational_current(g))


class TestRoutesAgree:
    def test_randomized_cross_check(self):
        rng = Random(5)
        trees = [
            T_D5,
            double_twist_tree(B5, Fraction(1), Fraction(1, 2)),
            double_twist_tree(B5, Fraction(3), Fraction(1)),
            # edge lengths over different denominators: the limit route counts over their lcm
            double_twist_tree(B5, Fraction(1, 2), Fraction(2, 3)),
            double_twist_tree(B5, Fraction(2, 3), Fraction(3)),
            twist_tree(B5, [(1, 2, Fraction(1, 2)), (3, 4, Fraction(2, 3))], scale=Fraction(3)),
        ]
        for _ in range(150):
            g = random_reduced_word(rng, B5, 30)
            for tree in trees:
                assert length_britton(tree, g) == length_limit(tree, g)

    def test_long_twistor_run_needs_iterations(self):
        g = word(B3, "a" + "b" * 20 + "ca")
        with pytest.raises(NotStabilizedError):
            length_limit(T_D3, g, cap=16)
        assert length_limit(T_D3, g, cap=32) == length_britton(T_D3, g)

    def test_small_cap_rejected(self):
        with pytest.raises(ValueError):
            length_limit(T_D3, word(B3, "a"), cap=4)

    def test_unstabilized_sequence_keeps_its_fractions(self, monkeypatch):
        # past the true transient the window always settles, so hide the transient
        import currents_lab.trees as trees_module

        monkeypatch.setattr(trees_module, "_max_cyclic_run", lambda letters, targets: 0)
        tree = twist_tree(B3, [(1, 2, Fraction(2, 3))])
        g = word(B3, "aB" + "aBBB" + "aBBBBB" + "aBBBBBBB" + "aBBBBBBBBB")  # twistor runs 1, 3, 5, 7, 9
        with pytest.raises(NotStabilizedError, match="no stable growth rate within 8 iterations") as caught:
            length_limit(tree, g, cap=8)
        # the twistor-weighted cyclic length of each step, read off the public image
        twist = simple_twist(B3, 1, 2)
        expected = tuple(
            Fraction(2, 3) * sum(abs(x) == 2 for x in cyclic_reduce(apply(power(twist, n), g))[0].letters)
            for n in range(9)
        )
        assert caught.value.sequence == expected
        assert all(type(value) is Fraction for value in caught.value.sequence)


def _longest_leading_run(letters, targets):
    """Brute force: the longest run of the first letter at the start of any rotation."""
    best = 0
    for k in range(len(letters)):
        rotation = letters[k:] + letters[:k]
        if abs(rotation[0]) in targets:
            run = next((i for i, x in enumerate(rotation) if x != rotation[0]), len(rotation))
            best = max(best, run)
    return best


class TestMaxCyclicRun:
    @pytest.mark.parametrize(
        "letters, targets, expected",
        [
            ((), {2}, 0),
            ((2,) * 5, {2}, 5),  # one letter all round the cycle
            ((-2,) * 4, {2}, 4),
            ((2,) * 5, {3}, 0),  # all one letter, not a target
            ((2, 2, 1, 2), {2}, 3),  # the run wraps round the end
            ((2, 1, 2, 2, 1, 2), {2}, 2),
            ((2, -2, 2), {2}, 2),  # the wrap joins 2 with 2, not with -2
            ((1, 1, 1, 2), {2}, 1),  # a longer run of a non-target letter
        ],
    )
    def test_examples(self, letters, targets, expected):
        assert _max_cyclic_run(letters, targets) == expected == _longest_leading_run(letters, targets)

    @given(st.lists(st.sampled_from((1, -1, 2, -2, 3)), max_size=12), st.sets(st.sampled_from((1, 2, 3))))
    def test_agrees_with_every_rotation(self, letters, targets):
        assert _max_cyclic_run(tuple(letters), targets) == _longest_leading_run(tuple(letters), targets)


def rotations(g):
    """Every rotation of a cyclically reduced word, each as a word."""
    return [free_reduce(g.basis, g.letters[k:] + g.letters[:k]) for k in range(len(g))]


class TestRotationInvariance:
    """The length routes read the cyclic core in whatever rotation it comes in."""

    WEIGHTED = cayley_tree(B5, [Fraction(1), Fraction(2), Fraction(1, 3), Fraction(5, 2), Fraction(7)])

    def assert_same_on_rotations(self, tree, g, expected):
        for r in rotations(g):
            assert length_britton(tree, r) == expected, str(r)
            assert length_limit(tree, r) == expected, str(r)
            assert length(tree, r) == expected, str(r)

    def test_double_twist_tree_rank_five(self):
        delta = double_twist_tree(B5, Fraction(1, 2), Fraction(3))
        self.assert_same_on_rotations(delta, word(B5, "ae"), Fraction(7, 2))
        self.assert_same_on_rotations(delta, word(B5, "aBAEdde"), Fraction(6))
        self.assert_same_on_rotations(delta, word(B5, "aeDDEca"), Fraction(1))

    def test_rotations_that_need_pinches(self):
        delta = double_twist_tree(B5, Fraction(1, 2), Fraction(3))
        # aBBA pinches to a fresh power in every rotation; Edde never pinches
        self.assert_same_on_rotations(delta, word(B5, "aBBAcdEdde"), Fraction(6))
        # both edges pinch: eddE = t z^2 t^-1 for the second edge
        self.assert_same_on_rotations(delta, word(B5, "aBBAceddE"), Fraction(0))

    def test_pinch_across_the_seam(self):
        delta = double_twist_tree(B5, Fraction(1, 2), Fraction(3))
        seam = word(B5, "BBAcda")  # a ... BBA wraps from the last letter to the first
        assert length_britton(delta, seam) == length_limit(delta, seam) == 0
        unpinched = word(B5, "BBAcdA")
        assert length_britton(delta, unpinched) == length_limit(delta, unpinched) == 1

    def test_weighted_cayley(self):
        g = word(B5, "aBBAcdEdde")
        expected = sum((self.WEIGHTED.core.weights[abs(x) - 1] for x in g.letters), Fraction(0))
        for r in rotations(g):
            assert length(self.WEIGHTED, r) == expected

    @given(nonempty_words(B3, 14))
    def test_random_rotations(self, g):
        cycle = cyclic_reduce(g)[0].as_word()
        twist = length_britton(T_D3, cycle)
        assert length_limit(T_D3, cycle) == twist
        for r in rotations(cycle):
            assert length_britton(T_D3, r) == twist
            assert length_limit(T_D3, r) == twist
            assert length(cayley_tree(B3), r) == len(cycle)


class TestLengthSymmetries:
    @given(nonempty_words(B3, 14), raw_letters(B3, 6))
    def test_conjugacy_and_inversion(self, g, extra):
        h = free_reduce(B3, extra)
        conjugate = concat(concat(h, g), invert(h))
        assert length(T_D3, conjugate) == length(T_D3, g)
        assert length(T_D3, invert(g)) == length(T_D3, g)

    @given(nonempty_words(B3, 10), st.integers(min_value=1, max_value=5))
    def test_homogeneity(self, g, n):
        assert length(T_D3, word_power(g, n)) == n * length(T_D3, g)


class TestPairing:
    @given(nonempty_words(B3, 14))
    def test_extends_length(self, g):
        assert intersection_form(T_D3, rational_current(g)) == length(T_D3, g)

    @given(nonempty_words(B3, 10))
    def test_linear(self, g):
        nu = rational_current(g)
        assert intersection_form(T_D3, scale(Fraction(2, 3), nu)) == Fraction(2, 3) * intersection_form(T_D3, nu)

    def test_zero_current(self):
        from currents_lab.currents import zero_current

        assert intersection_form(T_D3, zero_current(B3)) == 0


class TestProjectiveVectors:
    def test_scale_invariance(self):
        p = projective_tree_vector(T_D3, 2)
        q = projective_tree_vector(
            twist_tree(B3, [(1, 2, Fraction(1))], scale=Fraction(7)), 2
        )
        assert tree_projective_eq(p, q)

    def test_witness_separates(self):
        plain = projective_tree_vector(T_D3, 2)
        marked = projective_tree_vector(
            parse_tree(B3, "twist (a:b,1) marking=c->ca | c->cA"), 2
        )
        assert not tree_projective_eq(plain, marked)

    def test_uniform_cayley(self):
        p = projective_tree_vector(cayley_tree(B3), 1)
        assert len(set(p.entries)) == 1


class TestParsing:
    def test_unknown_kind(self):
        with pytest.raises(ParseError):
            parse_tree(B3, "orchard (a:b,1)")

    def test_empty_twist(self):
        with pytest.raises(ParseError):
            parse_tree(B3, "twist")

    def test_bad_edge(self):
        with pytest.raises(ParseError):
            parse_tree(B3, "twist (a,b,1)")

    def test_repeated_stable_letter_rejected(self):
        with pytest.raises(ValueError):
            twist_tree(B3, [(1, 2, Fraction(1)), (1, 3, Fraction(1))])

    def test_twistor_equal_stable_rejected(self):
        with pytest.raises(ValueError):
            twist_tree(B3, [(1, 2, Fraction(1)), (2, 3, Fraction(1))])


def full_pinch_scan(core, weights, letters):
    """The Britton weight by the full pinch scan, whatever the signs of the stable letters."""
    rank = core.basis.rank
    pinch = {}
    for i, t in enumerate(core.twists):
        pinch[t.stable] = (t.twistor, rank + 1 + i)
        pinch[-t.stable] = (rank + 1 + i, t.twistor)
    stables = [p for p, x in enumerate(letters) if x in pinch]
    ends = stables[1:] + [len(letters)]
    kept = []
    segments = [letters[: stables[0] if stables else len(letters)]]
    for p, end in zip(stables, ends):
        x = letters[p]
        replacement = _pinched(segments[-1], *pinch[kept[-1]]) if kept and kept[-1] == -x else None
        if replacement is None:
            kept.append(x)
            segments.append(letters[p + 1 : end])
        else:
            kept.pop()
            segments.pop()
            segments[-1] = _reduced(chain(segments[-1], replacement, letters[p + 1 : end]))
    lo, hi = 0, len(kept) - 1
    wrap = (segments[-1], segments[0])
    while lo < hi and kept[hi] == -kept[lo]:
        replacement = _pinched(_reduced(chain(*wrap)), *pinch[kept[hi]])
        if replacement is None:
            break
        wrap = (segments[hi], replacement, segments[lo + 1])
        lo += 1
        hi -= 1
    return _letter_weight(weights, kept[lo : hi + 1])


EDGE_LENGTHS = (Fraction(1, 2), Fraction(1), Fraction(3))
BRITTON_TREES = [T_D3, T_D5, twist_tree(B5, [(3, 1, Fraction(2, 3))])] + [
    double_twist_tree(B5, rho, theta) for rho in EDGE_LENGTHS for theta in EDGE_LENGTHS
]


@st.composite
def britton_cases(draw):
    """A twist tree and a cyclic core whose stable letters have one sign, mixed signs, or pinch across the wrap."""
    tree = draw(st.sampled_from(BRITTON_TREES))
    basis = tree.basis
    letters = draw(raw_letters(basis, 14))
    shape = draw(st.sampled_from(["one sign", "mixed", "wrap"]))
    if shape == "one sign":
        signs = {t.stable: draw(st.sampled_from((1, -1))) for t in tree.core.twists}
        letters = [signs[abs(x)] * abs(x) if abs(x) in signs else x for x in letters]
    elif shape == "wrap":
        # t z^m t^-1 u, read from inside z^m, so that the pinch runs round the end of the cycle
        edge = draw(st.sampled_from(tree.core.twists))
        t, z = edge.stable * draw(st.sampled_from((1, -1))), edge.twistor * draw(st.sampled_from((1, -1)))
        m = draw(st.integers(1, 4))
        k = draw(st.integers(0, m))
        letters = [z] * k + [-t] + letters + [t] + [z] * (m - k)
    core = _cyclic_core(_reduced(letters))
    return tree, core


class TestBrittonWeight:
    @settings(max_examples=400, deadline=None)
    @given(britton_cases())
    def test_equals_the_full_pinch_scan(self, case):
        tree, letters = case
        weigh, _ = _weigher(tree)
        ints, _ = _int_lengths(tree)
        assert weigh(letters) == full_pinch_scan(tree.core, ints, letters)

    def test_one_signed_stable_letters_take_the_letter_weight(self):
        delta = double_twist_tree(B5, Fraction(1, 2), Fraction(3))
        weigh, _ = _weigher(delta)
        ints, _ = _int_lengths(delta)
        # aBBa and EddE carry each stable generator with one sign: nothing pinches
        for text in ("aBBacEddE", "aBBcdE", "aaee"):
            letters = word(B5, text).letters
            assert weigh(letters) == _letter_weight(ints, letters) == full_pinch_scan(delta.core, ints, letters)
