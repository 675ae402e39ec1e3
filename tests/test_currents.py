"""Rational currents: coordinates, length, action, projective comparison."""

import dataclasses
from collections import Counter
from fractions import Fraction
from itertools import product
from random import Random

import pytest
from hypothesis import given, settings, strategies as st

from currents_lab.automorphisms import (
    _signed_table,
    apply,
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
    CLASS_BUDGET,
    ConjugacyClass,
    CriticalCheck,
    _affine_tail,
    _coordinates,
    _image_syllables,
    _orbit_current,
    _orbit_distance,
    _orbit_distances,
    _orbit_head,
    _orbit_reads,
    _orbit_step,
    _orbit_terms,
    _root_steps,
    _shifted,
    _skeleton,
    _twist_form,
    act,
    add,
    class_count,
    coordinate,
    current_from_terms,
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
    _period,
    cyclic_reduce,
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

    def test_weights_that_merge_to_zero_are_refused(self):
        cls = ConjugacyClass(cyclic_word(B2, "a"))
        with pytest.raises(ValueError, match=r"^weight of \[a\] must be positive, got 0$"):
            current_from_terms(B2, [(cls, Fraction(1)), (cls, Fraction(-1))])

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
        # act checks power-freeness once, in _image_core, through _period
        monkeypatch.setattr(currents_module, "_period", lambda letters: 1)
        with pytest.raises(RuntimeError, match="proper power"):
            act(simple_twist(B3, 1, 2), nu)

    def test_repeated_image_class_is_an_explicit_error(self):
        # two terms of one class cannot come from a current; the unchecked build refuses them
        with pytest.raises(RuntimeError, match="bijectively"):
            _orbit_current(B3, [((1, 2), 1), ((2, 1), 1)], 1)


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
        # the oracle runs every public constructor check on the same terms
        checked = current_from_terms(basis, [
            (ConjugacyClass(CyclicWord(basis, _canonical_rotation(core))), Fraction(weight, denominator))
            for core, weight in terms
        ])
        assert _orbit_current(basis, terms, denominator) == checked
        assert public == checked
        # re-running every __post_init__ on the unchecked build accepts it unchanged
        assert dataclasses.replace(public) == public
        assert all(
            dataclasses.replace(cls, root=dataclasses.replace(cls.root)) == cls for cls, _ in public.terms
        )
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
        counts = currents_module._reads
        # one stray read of c (letter key 4) around the circle ab
        monkeypatch.setattr(currents_module, "_reads", lambda cycle, n: {**counts(cycle, n), (4,): 1})
        with pytest.raises(RuntimeError, match="single-letter counts"):
            _orbit_reads([((1, 2), 1)], 1)
        # the same stray read counted on letters (c is 3)
        monkeypatch.setattr(currents_module, "_reads", lambda cycle, n: {**counts(cycle, n), (3,): 1})
        with pytest.raises(RuntimeError, match="single-letter counts sum to 3, not"):
            currents_module._read_counts(parse_current(B3, "1*[ab]"), 1)

    def test_orbit_computes_no_image_past_the_last_step(self):
        # at rank 2 this table's first image raises
        table = simple_twist(B3, 1, 3).table
        terms = [((1,), 1)]
        assert list(_orbit(table, terms, 2, 0, 1)) == [_orbit_reads(terms, 1)]
        with pytest.raises(ValueError, match="rank 2"):
            list(_orbit(table, terms, 2, 1, 1))

    def test_coordinates_are_public_coordinates(self):
        # every reduced v with |v| <= level: the letter-keyed lookup against the byte search
        rng = Random(7)
        for basis, level in ((B3, 3), (B2, 3), (B5, 2)):
            reads = [
                v for n in range(1, level + 1) for letters in product(basis.signed_letters(), repeat=n)
                if len(v := free_reduce(basis, letters)) == n
            ]
            for _ in range(40):
                nu = random_current(rng, basis)
                coord = _coordinates(nu, level)
                assert all(coord(v.letters) == coordinate(v, nu) for v in reads)


def _orbit(table, terms, rank, steps, level):
    """The reads of steps 0..steps: the head of :func:`_orbit_head`, then ``A + k B`` past ``n0 + 1``."""
    head, tail = _orbit_head(table, terms, rank, steps, level)
    yield from head
    if tail is not None:
        n0, (a, a_norm), (b, b_norm) = tail
        for k in range(2, steps - n0 + 1):
            yield _shifted(a, b, k), a_norm + k * b_norm


def _kernel_orbit(table, terms, rank, steps, level):
    """The oracle: the kernel stepped and read at every step 0..steps."""
    reads = [_orbit_reads(terms, level)]
    for _ in range(steps):
        terms = _orbit_step(table, terms, rank)
        reads.append(_orbit_reads(terms, level))
    return reads


def _syllable(y, e):
    return (y if e > 0 else -y,) * abs(e)


def _twisting(basis, twists):
    """The signed table sending each ``x`` in ``twists`` to ``y^s x y^t`` for its ``(y, s, t)``."""
    images = [(x,) for x in basis.generators()]
    for x, (y, s, t) in twists.items():
        images[x - 1] = _syllable(y, s) + (x,) + _syllable(y, t)
    return _signed_table(images)


@st.composite
def twist_tables(draw, basis):
    """Commuting multi-twists: some generators go to ``y^s x y^t``, s, t in -2..2, each twistor fixed."""
    gens = list(basis.generators())
    twisted = draw(st.lists(st.sampled_from(gens), min_size=1, max_size=len(gens) - 1, unique=True))
    fixed = [y for y in gens if y not in twisted]
    twists = {}
    for x in twisted:
        s, t = draw(st.tuples(st.integers(-2, 2), st.integers(-2, 2)).filter(any))
        twists[x] = (draw(st.sampled_from(fixed)), s, t)
    return _twisting(basis, twists)


def _named_twist_tables(basis):
    """Every simple twist both ways, every left twist, a -> ab with c -> cb, and phi both ways."""
    gens = basis.generators()
    tables = []
    for x in gens:
        for y in gens:
            if x != y:
                twist = simple_twist(basis, x, y)
                tables += [twist.table, twist.inverse_table, _twisting(basis, {x: (y, 1, 0)})]
    if basis.rank >= 3:
        tables.append(_twisting(basis, {1: (2, 0, 1), 3: (2, 0, 1)}))
    if basis.rank >= 5:
        tables += [double_twist(basis).table, double_twist(basis).inverse_table]
    return tables


TWIST_BASES = (B2, B3, B5)
NAMED_TWIST_TABLES = {basis: _named_twist_tables(basis) for basis in TWIST_BASES}


def roots(basis):
    """Raw cyclic cores, short ones (under the level, so reads wrap) as likely as long ones."""
    short = st.sampled_from([c.root.letters for c in power_free_classes(basis, 2)])
    long = cyclic_candidates(basis, 8).map(lambda u: u.letters).filter(lambda ls: _period(ls) == len(ls))
    return st.one_of(short, long)


def _outcome(orbit):
    """The reads of an orbit, or the error it raises."""
    try:
        return list(orbit())
    except (ValueError, RuntimeError) as exc:
        return type(exc), str(exc)


def _n0(table, terms, rank, level):
    """The orbit's ``n0``: the latest onset of its terms' affine tails."""
    form = _twist_form(table, rank)
    return max(_affine_tail(_skeleton(form, core), level)[0] for core, _ in terms)


class TestTwistOrbits:
    """The twist-form path of the orbit loop (kernel head, affine tail) against the kernel, and its recognizer."""

    @settings(max_examples=120, deadline=None)
    @given(st.data())
    def test_orbit_reads_equal_kernel_stepping(self, data):
        basis = data.draw(st.sampled_from(TWIST_BASES))
        table = data.draw(st.one_of(st.sampled_from(NAMED_TWIST_TABLES[basis]), twist_tables(basis)))
        assert _twist_form(table, basis.rank) is not None
        terms = data.draw(st.lists(st.tuples(roots(basis), st.integers(1, 5)), min_size=1, max_size=3))
        level = data.draw(st.integers(1, 4))
        steps = _n0(table, terms, basis.rank, level) + 10
        assert list(_orbit(table, terms, basis.rank, steps, level)) == _kernel_orbit(
            table, terms, basis.rank, steps, level
        )

    @pytest.mark.parametrize("s, t", [(s, t) for s in range(-2, 3) for t in range(-2, 3) if s or t])
    def test_every_one_sided_exponent_pair(self, s, t):
        # a -> b^s a b^t at rank 2 on short roots, and on roots whose syllables
        # cancel through a sign change ([aBB] under a -> ab), at the ends too ([BaBB])
        table = _twisting(B2, {1: (2, s, t)})
        for text in ("a", "ab", "aB", "aBB", "aBBB", "BaBB", "abAB", "aabAAB", "abbAbb"):
            terms = [(word(B2, text).letters, 1)]
            for level in (1, 2, 3, 4):
                steps = _n0(table, terms, 2, level) + 10
                orbit = list(_orbit(table, terms, 2, steps, level))
                assert orbit == _kernel_orbit(table, terms, 2, steps, level)

    def test_double_twist_at_step_300(self):
        nu = parse_current(B5, "1*[ECDBCb] + 4/3*[adddBC]")
        terms, _ = _orbit_terms(nu)
        phi = double_twist(B5)
        *_, last = _orbit(phi.table, terms, 5, 300, 3)
        for _ in range(300):
            terms = _orbit_step(phi.table, terms, 5)
        assert last == _orbit_reads(terms, 3)
        assert last[1] == 3 * (6 + 300) + 4 * (6 + 300)

    def test_forms(self):
        assert _twist_form(simple_twist(B3, 1, 2).table, 3) == (None, (2, 0, 1), None, None)
        assert _twist_form(simple_twist(B3, 1, 2).inverse_table, 3) == (None, (2, 0, -1), None, None)
        assert _twist_form(_twisting(B3, {3: (1, -2, 1)}), 3) == (None, None, None, (1, -2, 1))
        assert _twist_form(double_twist(B5).table, 5) == (None, (2, 0, 1), None, None, None, (4, 0, 1))
        assert _twist_form(identity_automorphism(B3).table, 3) == (None, None, None, None)
        # a table over another rank has no form: its kernel raises the rank error
        assert _twist_form(simple_twist(B3, 1, 3).table, 2) is None

    @pytest.mark.parametrize(
        "table",
        [
            prime_basis_change(B5).table,
            prime_basis_change(B5).inverse_table,
            double_prime_basis_change(B5).table,
            double_prime_basis_change(B5).inverse_table,
            _signed_table([(1, 1), (2,), (3,)]),  # a -> aa
            _signed_table([(1, 2, -2), (2,), (3,)]),  # a -> abB
            _signed_table([(1, 2), (2, 3), (3,)]),  # a -> ab, b -> bc: the twistor moves
        ],
        ids=["prime", "prime-inverse", "double-prime", "double-prime-inverse", "a-aa", "a-abB", "b-bc"],
    )
    def test_tables_without_a_form_step_the_kernel(self, table):
        rank = (len(table) - 1) // 2
        assert _twist_form(table, rank) is None
        terms = [((1, 2), 1), ((-3, 1), 2)]
        assert _outcome(lambda: _orbit(table, terms, rank, 3, 2)) == _outcome(
            lambda: _kernel_orbit(table, terms, rank, 3, 2)
        )

    def test_tables_without_a_form_keep_the_kernel_errors(self):
        with pytest.raises(RuntimeError, match="proper power"):
            list(_orbit(_signed_table([(1, 1), (2,), (3,)]), [((1, 2), 1), ((1,), 1)], 3, 1, 1))
        with pytest.raises(ValueError, match="not cyclically reduced"):
            list(_orbit(_signed_table([(1, 2, -2), (2,), (3,)]), [((1,), 1)], 3, 1, 1))

    def test_syllable_checks_are_explicit_errors(self):
        # the head's kernel steps raise on an identity or proper-power image under python -O too
        table = simple_twist(B3, 1, 2).table
        with pytest.raises(IdentityElementError):
            list(_orbit(table, [((1, -1), 1)], 3, 1, 1))
        with pytest.raises(RuntimeError, match="proper power"):
            list(_orbit(table, [((1, 2, 1, 2), 1)], 3, 1, 1))
        with pytest.raises(RuntimeError, match="proper power"):
            list(_orbit(table, [((3, 3), 1)], 3, 1, 1))


def _root_orbit():
    """``[aabAbbb]`` under ``a -> ab``: ``[a b^n a b A b^3]``, with ``n0 = 1`` at level 1.

    Its syllables ``b^n`` and ``b^3`` are equal at the root ``n = 3``.
    """
    return simple_twist(B2, 1, 2).table, [(word(B2, "aabAbbb").letters, 1)]


def _fault_at(patch, step, fault=()):
    """A stand-in fault: the syllables at ``step`` are ``fault``, by default none."""
    import currents_lab.currents as currents_module

    syllables = currents_module._syllables
    patch.setattr(
        currents_module, "_syllables", lambda sk, n: list(fault) if n == step else syllables(sk, n)
    )


def _head_calls(patch):
    """Record one entry per kernel step an orbit takes, and count the steps n whose syllables it builds."""
    import currents_lab.currents as currents_module

    kernel, syllables = [], Counter()
    step, build = currents_module._orbit_step, currents_module._syllables
    patch.setattr(currents_module, "_orbit_step", lambda *args: kernel.append(None) or step(*args))
    patch.setattr(currents_module, "_syllables", lambda sk, n: syllables.update([n]) or build(sk, n))
    return kernel, syllables


def _syllable_word(rng, length, y=None):
    """Random skeleton syllables ``(y, c, slope)``: generators 1..3, neighbours distinct, none zero."""
    out = []
    while len(out) < length:
        c, slope = rng.randint(-4, 4), rng.randint(-2, 2)
        gen = y or rng.choice([g for g in (1, 2, 3) if not out or g != out[-1][0]])
        if c or slope:
            out.append((gen, c, slope))
    return out


def _near_periodic(rng):
    """A synthetic skeleton whose rotations often match: a word of 2-3 syllables twice, one redrawn.

    Half the time its first syllable is split across the ends, which the limit merges back.
    """
    half = []
    while not half or half[0][0] == half[-1][0]:
        half = _syllable_word(rng, rng.choice([2, 3]))
    skeleton = half + half
    i = rng.randrange(len(skeleton))
    skeleton[i] = _syllable_word(rng, 1, skeleton[i][0])[0]
    (y, c, slope), (_, c1, slope1) = skeleton[0], _syllable_word(rng, 1, skeleton[0][0])[0]
    if rng.random() < 0.5 and (c1, slope1) != (c, slope):
        skeleton = [(y, c - c1, slope - slope1)] + skeleton[1:] + [(y, c1, slope1)]
    return skeleton


def _fails(skeleton, n):
    """Whether the syllables of a skeleton at ``n`` fail the identity or proper-power check."""
    try:
        _image_syllables((), skeleton, n)
    except (IdentityElementError, RuntimeError):
        return True
    return False


class TestAffineTails:
    """Past ``n0`` the orbit loop yields ``A + k B``, cross-checked at ``n0 + 1``."""

    @pytest.mark.parametrize("level", [1, 2, 3, 4])
    def test_n0_on_worked_examples(self, level):
        form = _twist_form(simple_twist(B2, 1, 2).table, 2)  # a -> ab
        run = (letter_key(2),) * level
        # [aBBB] -> [a b^(n-3)]: the syllable B^(3-n) changes sign at n = 3
        skeleton = _skeleton(form, word(B2, "aBBB").letters)
        assert skeleton == [(1, 1, 0), (2, -3, 1)]
        assert _affine_tail(skeleton, level) == (3 + level, {run: 1})
        # [BaBB] -> [B a b^(n-2)]: the ends merge cyclically into b^(n-3), which sets n0
        skeleton = _skeleton(form, word(B2, "BaBB").letters)
        assert skeleton == [(2, -1, 0), (1, 1, 0), (2, -2, 1)]
        assert _affine_tail(skeleton, level) == (3 + level, {run: 1})
        # [ab] -> [a b^(n+1)] moves from the start; [b] stays fixed
        assert _affine_tail(_skeleton(form, (1, 2)), level) == (max(1, level - 1), {run: 1})
        assert _affine_tail(_skeleton(form, (2,)), level) == (1, {})

    def test_wrong_slope_raises_at_n0_plus_one(self, monkeypatch):
        import currents_lab.currents as currents_module

        table = simple_twist(B2, 1, 2).table
        terms = [(word(B2, "aBBB").letters, 1)]
        n0 = _n0(table, terms, 2, 2)
        assert n0 == 5
        tail = currents_module._affine_tail
        # the growth moved from bb to aa: its single letters still sum to the norm's slope
        monkeypatch.setattr(
            currents_module, "_affine_tail", lambda sk, level: (tail(sk, level)[0], Counter({(0, 0): 1}))
        )
        assert list(_orbit(table, terms, 2, n0, 2)) == _kernel_orbit(table, terms, 2, n0, 2)
        with pytest.raises(RuntimeError, match=f"step {n0 + 1} is not step {n0} plus"):
            list(_orbit(table, terms, 2, n0 + 1, 2))
        # a doubled growth fails the single-letter sum first
        monkeypatch.setattr(
            currents_module, "_affine_tail", lambda sk, level: (tail(sk, level)[0], Counter({(2, 2): 2}))
        )
        with pytest.raises(RuntimeError, match="single-letter counts"):
            list(_orbit(table, terms, 2, n0 + 1, 2))

    def test_root_steps_keep_the_syllable_checks(self, monkeypatch):
        table, terms = _root_orbit()
        # a step past n0 + 1 that is no root is certified by the checks at n0 + 1
        _fault_at(monkeypatch, 4)
        assert len(list(_orbit(table, terms, 2, 40, 1))) == 41
        monkeypatch.undo()
        _fault_at(monkeypatch, 3)
        assert len(list(_orbit(table, terms, 2, 2, 1))) == 3
        with pytest.raises(IdentityElementError):
            list(_orbit(table, terms, 2, 3, 1))
        monkeypatch.undo()
        _fault_at(monkeypatch, 3, [(1, 1), (2, 3)] * 2)
        with pytest.raises(RuntimeError, match="proper power"):
            list(_orbit(table, terms, 2, 3, 1))

    def test_the_head_steps_the_kernel_to_n0_plus_one_and_builds_syllables_only_at_roots(self, monkeypatch):
        kernel, syllables = _head_calls(monkeypatch)
        table, terms = _root_orbit()
        # n0 = 1: two kernel steps, and the syllables only at the root n = 3
        assert len(list(_orbit(table, terms, 2, 3000, 1))) == 3001
        assert (len(kernel), syllables) == (2, {3: 1})
        kernel.clear()
        syllables.clear()
        assert len(list(_orbit_distances(table, terms, 2, 3000, 1, _orbit_reads([((2,), 1)], 1)))) == 3001
        assert (len(kernel), syllables) == (2, {3: 1})
        # an orbit that stops before n0 + 1 takes its steps alone
        kernel.clear()
        syllables.clear()
        assert len(list(_orbit(table, terms, 2, 1, 1))) == 2
        assert (len(kernel), syllables) == (1, {})
        # a catalogue orbit of two terms has no root past n0 + 1
        table, terms, n0, goal = _phi_orbit("2*[acdBCB] + 3*[ecbbbD]")
        kernel.clear()
        syllables.clear()
        assert len(list(_orbit_distances(table, terms, 5, 3000, 3, goal))) == 3001
        assert (len(kernel), syllables) == (n0 + 1, {})

    def test_a_twistor_run_that_unwinds_makes_a_long_head(self, monkeypatch):
        # [aB^20] under a -> ab is [a b^(n-20)]: its onset at level 3 is 23, and [ab]'s is 2
        table = simple_twist(B2, 1, 2).table
        terms, _ = _orbit_terms(parse_current(B2, "1*[aBBBBBBBBBBBBBBBBBBBB] + 2*[ab]"))
        form = _twist_form(table, 2)
        assert sorted(_affine_tail(_skeleton(form, core), 3)[0] for core, _ in terms) == [2, 23]
        goal = _orbit_reads([((2,), 1)], 3)
        kernel, syllables = _head_calls(monkeypatch)
        assert len(list(_orbit_distances(table, terms, 2, 60, 3, goal))) == 61
        assert (len(kernel), syllables) == (24, {})
        assert list(_orbit(table, terms, 2, 60, 3)) == _kernel_orbit(table, terms, 2, 60, 3)

    def test_a_twist_head_step_that_may_pass_the_letter_budget_is_refused_before_it_is_taken(self, monkeypatch):
        import currents_lab.currents as currents_module

        # 6 + 6 letters times phi's longest image of 2 letters: 24 > 20
        table, terms, _, goal = _phi_orbit("1*[ECDBCb] + 4/3*[adddBC]")
        monkeypatch.setattr(currents_module, "LETTER_BUDGET", 20)
        kernel, syllables = _head_calls(monkeypatch)
        for steps in (1, 3000):
            with pytest.raises(ValueError) as refused:
                list(_orbit_distances(table, terms, 5, steps, 3, goal))
            assert str(refused.value) == (
                "the next step may reach 24 letters (12 letters times the longest image), over the budget of 20"
            )
        assert (kernel, syllables) == ([], {})
        monkeypatch.setattr(currents_module, "LETTER_BUDGET", 24)
        assert len(list(_orbit_distances(table, terms, 5, 1, 3, goal))) == 2
        assert len(kernel) == 1

    def test_root_steps_are_every_step_past_n0_plus_one_that_can_fail(self):
        rng = Random(0)
        skeletons = [_near_periodic(rng) for _ in range(400)]
        skeletons += [_syllable_word(rng, rng.randint(1, 8)) for _ in range(1500)]
        failing = 0
        for skeleton in skeletons:
            for level in (1, 2):
                n0 = _affine_tail(skeleton, level)[0]
                if _fails(skeleton, n0 + 1):
                    continue  # the orbit's head raises there
                certified = _root_steps(skeleton, n0, n0 + 40)
                for n in range(n0 + 2, n0 + 41):
                    if _fails(skeleton, n):
                        failing += 1
                        assert n in certified, (skeleton, level, n)
        assert failing > 0

    def test_double_twist_at_step_3000(self):
        nu = parse_current(B5, "1*[ECDBCb] + 4/3*[adddBC]")
        terms, _ = _orbit_terms(nu)
        *_, last = _orbit(double_twist(B5).table, terms, 5, 3000, 3)
        # the cyclic cores of phi^3000's images, counted without the orbit's head or tail
        phi = power(double_twist(B5), 3000)
        images = [(cyclic_reduce(apply(phi, Word(B5, core)))[0].letters, weight) for core, weight in terms]
        assert last == _orbit_reads(images, 3)
        assert last[1] == (3 + 4) * (6 + 3000)



def _crossings(patch):
    """Record the ``(slope, intercept, K)`` of every distance law the driver computes."""
    import currents_lab.currents as currents_module

    seen = []
    law = currents_module._crossing
    patch.setattr(currents_module, "_crossing", lambda lines: seen.append(law(lines)) or seen[-1])
    return seen


def _kernel_distances(table, terms, rank, steps, level, goal):
    """The oracle: the norm and distance of the kernel's reads at every step 0..steps."""
    kernel = _kernel_orbit(table, terms, rank, steps, level)
    return [(reads[1], _orbit_distance(reads, goal)) for reads in kernel]


def _driver_distances(table, terms, rank, steps, level, goal):
    """The driver's ``(norm, gap)`` at every step as the oracle's ``(norm, gap / (norm ||g||))``."""
    return [
        (norm, Fraction(gap, norm * goal[1]))
        for norm, gap in _orbit_distances(table, terms, rank, steps, level, goal)
    ]


PHI_GOAL = "1*[b] + 1*[d]"


def _phi_orbit(literal, level=3):
    """The terms of a rank-5 current, phi's table, ``n0`` and the goal's reads at ``level``."""
    terms, _ = _orbit_terms(parse_current(B5, literal))
    table = double_twist(B5).table
    goal = _orbit_reads(_orbit_terms(parse_current(B5, PHI_GOAL))[0], level)
    return table, terms, _n0(table, terms, 5, level), goal


class TestOrbitDistances:
    """Past ``n0 + 1`` the distance driver reads one dominant line from its crossing point ``K`` on."""

    @settings(max_examples=150, deadline=None)
    @given(st.data())
    def test_distances_equal_kernel_stepping(self, data):
        basis = data.draw(st.sampled_from(TWIST_BASES))
        table = data.draw(st.sampled_from(NAMED_TWIST_TABLES[basis]))
        terms = data.draw(st.lists(st.tuples(roots(basis), st.integers(1, 5)), min_size=1, max_size=3))
        level = data.draw(st.integers(1, 4))
        goal_current = random_current(Random(data.draw(st.integers(0, 2**32 - 1))), basis)
        goal = _orbit_reads(_orbit_terms(goal_current)[0], level)
        n0 = _n0(table, terms, basis.rank, level)
        with pytest.MonkeyPatch.context() as patch:
            seen = _crossings(patch)
            list(_orbit_distances(table, terms, basis.rank, n0 + 2, level, goal))
        [(_, _, crossing)] = seen
        steps = n0 + crossing + 10
        assert _driver_distances(table, terms, basis.rank, steps, level, goal) == _kernel_distances(
            table, terms, basis.rank, steps, level, goal
        )

    @pytest.mark.parametrize(
        "literal, crossing",
        [
            # entries 34, 55 and 0 of the benchmark's current-orbit catalogue
            ("2*[acdBCB] + 3*[ecbbbD]", 2),
            ("1*[ECDBCb] + 4/3*[adddBC]", 3),
            ("1/3*[ECBBDB] + 5/3*[EDCBCD]", 0),
        ],
    )
    def test_catalogue_crossing_points(self, monkeypatch, literal, crossing):
        table, terms, n0, goal = _phi_orbit(literal)
        seen = _crossings(monkeypatch)
        steps = n0 + crossing + 10
        assert _driver_distances(table, terms, 5, steps, 3, goal) == _kernel_distances(
            table, terms, 5, steps, 3, goal
        )
        assert [law[2] for law in seen] == [crossing]

    @pytest.mark.parametrize(
        "table",
        [
            prime_basis_change(B5).table,
            prime_basis_change(B5).inverse_table,
            double_prime_basis_change(B5).table,
            double_prime_basis_change(B5).inverse_table,
        ],
        ids=["prime", "prime-inverse", "double-prime", "double-prime-inverse"],
    )
    def test_tables_without_a_form_measure_every_step(self, monkeypatch, table):
        seen = _crossings(monkeypatch)
        terms = [((1, 2), 1), ((-3, 1), 2)]
        goal = _orbit_reads([((2,), 1), ((4,), 1)], 2)
        assert _driver_distances(table, terms, 5, 6, 2, goal) == _kernel_distances(
            table, terms, 5, 6, 2, goal
        )
        assert seen == []

    def test_a_kernel_orbit_yields_each_step_before_taking_the_next(self, monkeypatch):
        import currents_lab.currents as currents_module

        stepped = []
        step = currents_module._orbit_step
        monkeypatch.setattr(currents_module, "_orbit_step", lambda *args: stepped.append(1) or step(*args))
        goal = _orbit_reads([((2,), 1), ((4,), 1)], 2)
        orbit = _orbit_distances(prime_basis_change(B5).table, [((1, 2), 1)], 5, 6, 2, goal)
        next(orbit)
        assert stepped == []
        next(orbit)
        assert stepped == [1]

    def test_the_runner_up_line_fails_the_cross_check(self, monkeypatch):
        import currents_lab.currents as currents_module

        table, terms, n0, goal = _phi_orbit("1*[ECDBCb] + 4/3*[adddBC]")
        law = currents_module._crossing
        # the runner-up: the law of every line but the dominant one
        monkeypatch.setattr(
            currents_module, "_crossing", lambda lines: law([x for x in lines if x != max(lines)])
        )
        # through n0 + 1 every distance is measured, so no law is read
        assert _driver_distances(table, terms, 5, n0 + 1, 3, goal) == _kernel_distances(
            table, terms, 5, n0 + 1, 3, goal
        )
        with pytest.raises(RuntimeError, match="the dominant read's law misses the distance at step"):
            list(_orbit_distances(table, terms, 5, n0 + 20, 3, goal))

    def test_root_steps_keep_the_syllable_checks(self, monkeypatch):
        table, terms = _root_orbit()
        goal = _orbit_reads([((2,), 1)], 1)
        _fault_at(monkeypatch, 3)
        assert len(list(_orbit_distances(table, terms, 2, 2, 1, goal))) == 3
        with pytest.raises(IdentityElementError):
            list(_orbit_distances(table, terms, 2, 3, 1, goal))

    @pytest.mark.parametrize(
        "table, rank",
        [(t, 3) for t in NAMED_TWIST_TABLES[B3][:3]]
        + [(prime_basis_change(B5).table, 5), (double_prime_basis_change(B5).inverse_table, 5)],
    )
    def test_without_a_goal_the_level_1_head_gives_the_kernel_norms(self, table, rank):
        terms = [((1, 2), 1), ((-3, 1, 1, 2), 2)]
        expected = [(norm, None) for _, norm in _kernel_orbit(table, terms, rank, 8, 1)]
        assert list(_orbit_distances(table, terms, rank, 8, 3, None)) == expected

    def test_without_a_goal_the_step_checks_stay(self):
        twist = simple_twist(B3, 1, 2).table
        with pytest.raises(IdentityElementError):
            list(_orbit_distances(twist, [((1, -1), 1)], 3, 1, 1, None))
        with pytest.raises(RuntimeError, match="proper power"):
            list(_orbit_distances(twist, [((1, 2, 1, 2), 1)], 3, 1, 1, None))
        with pytest.raises(RuntimeError, match="proper power"):
            squaring = _signed_table([(1, 1), (2,), (3,)])  # a -> aa: no automorphism
            list(_orbit_distances(squaring, [((1, 2), 1), ((1,), 1)], 3, 1, 1, None))
        with pytest.raises(ValueError, match="not cyclically reduced"):
            list(_orbit_distances(_signed_table([(1, 2, -2), (2,), (3,)]), [((1,), 1)], 3, 1, 1, None))
        # steps stop at the last: at rank 2 this table's first image raises
        table = simple_twist(B3, 1, 3).table
        assert list(_orbit_distances(table, [((1,), 1)], 2, 0, 1, None)) == [(1, None)]
        with pytest.raises(ValueError, match="rank 2"):
            list(_orbit_distances(table, [((1,), 1)], 2, 1, 1, None))

    @settings(max_examples=120, deadline=None)
    @given(st.data())
    def test_without_a_goal_norms_equal_kernel_stepping(self, data):
        basis = data.draw(st.sampled_from(TWIST_BASES))
        table = data.draw(st.one_of(st.sampled_from(NAMED_TWIST_TABLES[basis]), twist_tables(basis)))
        terms = data.draw(st.lists(st.tuples(roots(basis), st.integers(1, 5)), min_size=1, max_size=3))
        steps = _n0(table, terms, basis.rank, 1) + 10
        expected = [(norm, None) for _, norm in _kernel_orbit(table, terms, basis.rank, steps, 1)]
        assert list(_orbit_distances(table, terms, basis.rank, steps, 1, None)) == expected

    def test_without_a_goal_a_wrong_growth_raises_at_n0_plus_one(self, monkeypatch):
        import currents_lab.currents as currents_module

        table = simple_twist(B2, 1, 2).table
        terms = [(word(B2, "aBBB").letters, 1)]
        n0 = _n0(table, terms, 2, 1)
        assert n0 == 4
        tail = currents_module._affine_tail
        assert tail(_skeleton(_twist_form(table, 2), terms[0][0]), 1)[1] == {(2,): 1}
        expected = [(norm, None) for _, norm in _kernel_orbit(table, terms, 2, n0, 1)]
        for growth, message in [
            # moved from b to a: its size is the norm's slope, its read is wrong
            ({(0,): 1}, f"step {n0 + 1} is not step {n0} plus the growth read off the syllables"),
            # one letter more per step than the syllables grow
            ({(2,): 2}, "single-letter counts sum to 2, not"),
        ]:
            monkeypatch.setattr(
                currents_module, "_affine_tail", lambda sk, level: (tail(sk, level)[0], Counter(growth))
            )
            assert list(_orbit_distances(table, terms, 2, n0, 1, None)) == expected
            with pytest.raises(RuntimeError, match=message):
                list(_orbit_distances(table, terms, 2, n0 + 1, 1, None))

    def test_without_a_goal_the_head_steps_the_kernel_to_n0_plus_one_and_builds_syllables_only_at_roots(
        self, monkeypatch
    ):
        kernel, syllables = _head_calls(monkeypatch)
        table, terms = _root_orbit()
        assert len(list(_orbit_distances(table, terms, 2, 3000, 1, None))) == 3001
        assert (len(kernel), syllables) == (2, {3: 1})
        # a catalogue orbit of two terms has no root past n0 + 1, which is taken at level 1
        table, terms, _, _ = _phi_orbit("1*[ECDBCb] + 4/3*[adddBC]")
        n0 = _n0(table, terms, 5, 1)
        kernel.clear()
        syllables.clear()
        *_, (norm, _) = _orbit_distances(table, terms, 5, 3000, 3, None)
        assert (len(kernel), syllables) == (n0 + 1, {})
        assert norm == (3 + 4) * (6 + 3000)

    def test_without_a_goal_root_steps_keep_the_syllable_checks(self, monkeypatch):
        table, terms = _root_orbit()
        _fault_at(monkeypatch, 4)
        assert len(list(_orbit_distances(table, terms, 2, 40, 1, None))) == 41
        monkeypatch.undo()
        _fault_at(monkeypatch, 3)
        assert len(list(_orbit_distances(table, terms, 2, 2, 1, None))) == 3
        with pytest.raises(IdentityElementError):
            list(_orbit_distances(table, terms, 2, 3, 1, None))


class TestClassBudget:
    @pytest.mark.parametrize("rank, level", [(r, n) for r in (2, 3, 4, 5) for n in (1, 2, 3, 4)])
    def test_class_count_is_the_enumeration_count(self, rank, level):
        assert class_count(rank, level) == len(power_free_classes(Basis(rank), level))

    def test_level_over_the_budget_is_refused_before_enumerating(self, monkeypatch):
        import currents_lab.currents as currents_module

        assert class_count(5, 5) <= CLASS_BUDGET < class_count(5, 6)

        def enumerate_nothing(keys):
            raise AssertionError("enumerated")

        monkeypatch.setattr(currents_module, "_least_rotation", enumerate_nothing)
        with pytest.raises(ValueError, match=f"level 6 at rank 5 has {class_count(5, 6)} test classes"):
            power_free_classes(B5, 6)


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
