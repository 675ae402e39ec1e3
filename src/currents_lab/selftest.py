"""Seeded randomized invariant suites covering every module.

:data:`CHECKS` is the one invariant registry: ``currents-lab selftest`` runs
it through :func:`run_selftest` and ``tests/test_selftest.py`` runs each
check under pytest.  Each check draws a deterministic corpus from its own
generator, verifies an exact identity, and reports the first failure with a
witness.  The quick profile shrinks corpora roughly tenfold for smoke runs;
results are deterministic given (seed, quick).

Since every check draws from its own generator, any process can run any
check.  :func:`run_selftest` spreads the checks over one process per usable
CPU, this one and ``os.fork``-ed workers, which claim them longest first
(:data:`LONGEST_FIRST`).  It runs them all in this process when ``os.fork``
is missing, fewer than 2 CPUs are usable, or another thread is alive (a fork
from a threaded process can deadlock).  Either way the results come back in
registry order.
"""

from __future__ import annotations

import marshal
import os
import threading
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from random import Random
from typing import Callable, Iterator

from .automorphisms import (
    apply,
    apply_cyclic,
    compose,
    inverse,
    power,
    simple_twist,
)
from .corpus import random_current, random_cyclic_word, random_reduced_word
from .currents import (
    _current_reads,
    _orbit_distances,
    _orbit_reads,
    _orbit_terms,
    act,
    in_critical_set,
    length as current_length,
    projective_distance,
    projective_vector,
    rational_current,
)
from .dynamics import (
    _rise,
    escape_from_critical,
    run_theorem_main,
    walk_to_target,
)
from .trees import (
    cayley_tree,
    double_twist_tree,
    intersection_form,
    length as tree_length,
    length_britton,
    length_limit,
    projective_tree_vector,
    tree_orbit_limit,
    tree_projective_eq,
    twist_tree,
)
from .words import (
    Basis,
    _reads,
    concat,
    count_subwords,
    cyclic_reduce,
    free_reduce,
    inverse_cyclic,
    invert,
    word,
    word_power,
)

RANKS = (2, 3, 5)


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    trials: int
    witness: str | None


@dataclass(frozen=True)
class SuiteResult:
    module: str
    checks: tuple[CheckResult, ...]

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)


# What a check returns: its trial count and its first failure's witness, or None.
Outcome = tuple[int, str | None]
Check = Callable[[int, bool], Outcome]
# Checks by (module, name, check), as in :data:`CHECKS`.
Registry = tuple[tuple[str, str, Check], ...]
# One trial of a sampled check: the case's witness if the identity fails, else None.
Case = Callable[[Random, int], str | None]


def _rng(seed: int, label: str) -> Random:
    return Random(f"{seed}:{label}")


def _size(full: int, quick: bool) -> int:
    return max(full // 10, 5) if quick else full


def _trials(label: str, full: int, case: Case) -> Check:
    """A check that runs ``case(rng, i)`` per trial on the stream ``label``.

    The quick profile shrinks ``full`` trials through :func:`_size`; the first
    witness ends the check.
    """

    def check(seed: int, quick: bool) -> Outcome:
        rng = _rng(seed, label)
        trials = _size(full, quick)
        for i in range(trials):
            witness = case(rng, i)
            if witness is not None:
                return trials, witness
        return trials, None

    return check


def _name(basis: Basis, letters: tuple[int, ...]) -> str:
    """The text of a reduced word given by its letters, for witnesses."""
    return "".join(basis.letter_name(x) for x in letters)


def _raw_letters(rng: Random, basis: Basis, max_len: int) -> list[int]:
    alphabet = basis.signed_letters()
    return [rng.choice(alphabet) for _ in range(rng.randint(0, max_len))]


_B5 = Basis(5)
# The simple twist tree, then the double twist trees for rho, theta in {1, 1/2, 3};
# the checks that cycle through trees use the first four.
_TREES = [twist_tree(_B5, [(1, 2, Fraction(1))])] + [
    double_twist_tree(_B5, rho, theta)
    for rho in (Fraction(1), Fraction(1, 2), Fraction(3))
    for theta in (Fraction(1), Fraction(1, 2), Fraction(3))
]


# ---------------------------------------------------------------- word suite


def _reduction(rng: Random, i: int) -> str | None:
    basis = Basis(rng.choice(RANKS))
    u = free_reduce(basis, _raw_letters(rng, basis, 20))
    if free_reduce(basis, u.letters) != u:
        return str(u)
    v = random_reduced_word(rng, basis, 12)
    if len(concat(u, v)) > len(u) + len(v):
        return f"{u} * {v}"
    return None


def _occurrence_symmetry(rng: Random, i: int) -> str | None:
    # reading the circle backwards: v around w as often as v^-1 around w^-1
    basis = Basis(rng.choice(RANKS))
    v = random_reduced_word(rng, basis, 5)
    w = random_cyclic_word(rng, basis, 30)
    forward = _reads(w.letters, len(v))[v.letters]
    if forward != _reads(inverse_cyclic(w).letters, len(v))[invert(v).letters]:
        return f"v={v} w={w}"
    return None


def _power_coherence(rng: Random, i: int) -> str | None:
    basis = Basis(rng.choice(RANKS))
    root = random_cyclic_word(rng, basis, 6)
    m = rng.randint(2, 4)
    high, _ = cyclic_reduce(word_power(root.as_word(), m))
    base = count_subwords(root, 5)
    lifted = count_subwords(high, 5)
    for key in set(base) | set(lifted):
        if lifted.get(key, 0) != m * base.get(key, 0):
            return f"f={root} m={m} v={_name(basis, key)}"
    return None


def _canonical_rotation(rng: Random, i: int) -> str | None:
    basis = Basis(rng.choice(RANKS))
    u = random_reduced_word(rng, basis, 8)
    g = random_reduced_word(rng, basis, 6)
    conjugate = concat(concat(g, u), invert(g))
    cu, _ = cyclic_reduce(u)
    cv, _ = cyclic_reduce(conjugate)
    if cu != cv:
        return f"u={u} g={g}"
    # canonical rotations agree exactly when one word is a rotation of the other
    other = random_reduced_word(rng, basis, 8)
    co, _ = cyclic_reduce(other)
    rotations = {cu.letters[j:] + cu.letters[:j] for j in range(len(cu))}
    if (cu == co) != (co.letters in rotations):
        return f"{cu} {co}"
    return None


# ------------------------------------------------------- automorphism suite


def _random_automorphism(rng: Random, basis: Basis):
    phi = None
    for _ in range(rng.randint(1, 3)):
        t = rng.choice(list(basis.generators()))
        z = rng.choice([i for i in basis.generators() if i != t])
        step = simple_twist(basis, t, z)
        if rng.random() < 0.5:
            step = inverse(step)
        phi = step if phi is None else compose(step, phi)
    return phi


def _composition(rng: Random, i: int) -> str | None:
    basis = Basis(rng.choice(RANKS))
    phi = _random_automorphism(rng, basis)
    psi = _random_automorphism(rng, basis)
    u = random_reduced_word(rng, basis, 12)
    if apply(compose(phi, psi), u) != apply(phi, apply(psi, u)):
        return str(u)
    if apply(inverse(phi), apply(phi, u)) != u:
        return str(u)
    return None


def _cyclic_action(rng: Random, i: int) -> str | None:
    basis = Basis(rng.choice(RANKS))
    phi = _random_automorphism(rng, basis)
    u = random_reduced_word(rng, basis, 30)
    g = random_reduced_word(rng, basis, 8)
    conjugate = concat(concat(g, u), invert(g))
    cu, _ = cyclic_reduce(u)
    expected, _ = cyclic_reduce(apply(phi, conjugate))
    if apply_cyclic(phi, cu) != expected:
        return f"u={u} g={g}"
    return None


def _check_twist_growth(seed: int, quick: bool) -> Outcome:
    basis = Basis(3)
    twist = simple_twist(basis, 1, 2)
    top = 10 if quick else 30
    for n in range(top + 1):
        image = apply(power(twist, n), word(basis, "a"))
        if len(image) != n + 1:
            return top + 1, f"n={n} -> {image}"
    return top + 1, None


# ------------------------------------------------------------ current suite


def _extension_identities(rng: Random, i: int) -> str | None:
    basis = Basis(RANKS[i % len(RANKS)])
    nu = random_current(rng, basis)
    # integer counts over one common denominator compare exactly; only a witness needs fractions
    terms, denominator = _orbit_terms(nu)
    counts = _orbit_reads(terms, 5)[0]
    # one pass: each read of 2..5 letters extends its prefix to the right and its suffix to the left
    right_sums, left_sums = Counter(), Counter()
    for letters, count in counts.items():
        if len(letters) > 1:
            right_sums[letters[:-1]] += count
            left_sums[letters[1:]] += count
    # every read of 1..4 letters, in both orientations, shortest first
    for letters in sorted((v for v in counts if len(v) < 5), key=lambda v: (len(v), v)):
        left, right_sum, left_sum = counts[letters], right_sums[letters], left_sums[letters]
        if left < 0:
            return _name(basis, letters)
        if left != right_sum or left != left_sum:
            left, right_sum, left_sum = (Fraction(c, denominator) for c in (left, right_sum, left_sum))
            return f"v={_name(basis, letters)} ({left} vs {right_sum}/{left_sum})"
    return None


def _level_identity(rng: Random, i: int) -> str | None:
    basis = Basis(RANKS[i % len(RANKS)])
    nu = random_current(rng, basis)
    total = current_length(nu)
    for m in (1, 2, 3):
        # sum of (u;nu) over all |u| = m equals twice the sum of raw reads
        reads = sum(
            (
                weight * sum(c for k, c in count_subwords(cls.root, m).items() if len(k) == m)
                for cls, weight in nu.terms
            ),
            Fraction(0),
        )
        if reads != total:
            return f"m={m}: {reads} != {total}"
    return None


def _rational_length(rng: Random, i: int) -> str | None:
    basis = Basis(rng.choice(RANKS))
    g = random_reduced_word(rng, basis, 30)
    cyc, _ = cyclic_reduce(g)
    if current_length(rational_current(g)) != len(cyc):
        return str(g)
    return None


def _twist_identities(rng: Random, i: int) -> str | None:
    basis = Basis(RANKS[i % len(RANKS)])
    nu = random_current(rng, basis)
    t = rng.choice(list(basis.generators()))
    z = rng.choice([x for x in basis.generators() if x != t])
    image = act(simple_twist(basis, t, z), nu)
    # act keeps every weight, so both counts are over nu's denominator; the length identity checks it
    terms, denominator = _orbit_terms(nu)
    before, after = Counter(_orbit_reads(terms, 3)[0]), Counter(_orbit_reads(_orbit_terms(image)[0], 2)[0])
    for x in basis.generators():
        if x != z and after[(x,)] != before[(x,)]:
            return f"x={x} nu={nu}"
    increment = before[(t,)] - 2 * before[(t, -z)]
    checks = (
        after[(z,)] == before[(z,)] + increment,
        after[(t, -z)] == before[(t, -z, -z)] + before[(t, -z, -t)],
        (current_length(image) - current_length(nu)) * denominator == increment,
    )
    if not all(checks):
        return f"t={t} z={z} nu={nu}"
    return None


def _increment_monotone(rng: Random, i: int) -> str | None:
    basis = Basis(RANKS[i % len(RANKS)])
    nu = random_current(rng, basis)
    twist = simple_twist(basis, 1, 2)
    lengths = [current_length(nu)]
    for _ in range(6):
        nu = act(twist, nu)
        lengths.append(current_length(nu))
    diffs = [b - a for a, b in zip(lengths, lengths[1:])]
    if lengths[1] > lengths[0] and any(b < a for a, b in zip(diffs, diffs[1:])):
        return str(lengths)
    return None


def _action_functorial(rng: Random, i: int) -> str | None:
    basis = Basis(rng.choice(RANKS))
    nu = random_current(rng, basis, max_terms=2, max_root_len=6)
    phi = _random_automorphism(rng, basis)
    psi = _random_automorphism(rng, basis)
    if act(compose(phi, psi), nu) != act(phi, act(psi, nu)):
        return str(nu)
    return None


# --------------------------------------------------------------- tree suite


def _route_agreement(rng: Random, i: int) -> str | None:
    g = random_reduced_word(rng, _B5, 30)
    for tree in _TREES:
        britton = length_britton(tree, g)
        limit = length_limit(tree, g)
        if britton != limit:
            return f"g={g}: {britton} != {limit}"
    return None


def _length_symmetries(rng: Random, i: int) -> str | None:
    tree = _TREES[i % 4]
    g = random_reduced_word(rng, _B5, 20)
    h = random_reduced_word(rng, _B5, 8)
    conjugate = concat(concat(h, g), invert(h))
    base = tree_length(tree, g)
    if tree_length(tree, conjugate) != base or tree_length(tree, invert(g)) != base:
        return f"g={g} h={h}"
    return None


def _length_homogeneity(rng: Random, i: int) -> str | None:
    tree = _TREES[i % 4]
    g = random_reduced_word(rng, _B5, 12)
    base = tree_length(tree, g)
    if base == 0:
        return None
    for n in range(2, 6):
        if tree_length(tree, word_power(g, n)) != n * base:
            return f"g={g} n={n}"
    return None


def _check_ellipticity(seed: int, quick: bool) -> Outcome:
    twist = twist_tree(_B5, [(1, 2, Fraction(1))])
    delta = double_twist_tree(_B5, Fraction(1), Fraction(1, 2))
    elliptic = ["b", "d", "abA", "edE", "c"]
    checks = [(twist, "b", 0)] + [(delta, text, 0) for text in elliptic]
    checks += [(twist, "a", 1), (delta, "a", 1), (delta, "ae", Fraction(3, 2))]
    for tree, text, expected in checks:
        if tree_length(tree, word(_B5, text)) != expected:
            return len(checks), text
    return len(checks), None


def _pairing(rng: Random, i: int) -> str | None:
    tree = _TREES[i % 4]
    g = random_reduced_word(rng, _B5, 16)
    if intersection_form(tree, rational_current(g)) != tree_length(tree, g):
        return str(g)
    return None


# ----------------------------------------------------------- dynamics suite


def _check_dichotomy(seed: int, quick: bool) -> Outcome:
    rng = _rng(seed, "dynamics/dichotomy")
    trials = _size(500, quick)
    basis = Basis(3)
    twist = simple_twist(basis, 1, 2)
    by_direction = {1: twist, -1: inverse(twist)}
    eta_b = rational_current(word(basis, "b"))
    goal, target = _current_reads(eta_b, 1), projective_vector(eta_b, 1)
    done = 0
    draws = 0
    while done < trials:
        draws += 1
        if draws > 40 * trials:
            return trials, "corpus almost surely critical: generator broken"
        nu = random_current(rng, basis, max_terms=2, max_root_len=6)
        crit = in_critical_set(nu, 1, 2)
        if crit.member:
            continue
        done += 1
        # (a;nu), (aB;nu) and (ab;nu), read off the critical check's one count
        a_coord = 2 * crit.half_twisted
        toward_inverse = crit.with_twistor_inverse
        toward = crit.with_twistor
        if not (a_coord > 2 * toward_inverse or a_coord > 2 * toward):
            return trials, str(nu)
        step = by_direction[1 if a_coord > 2 * toward_inverse else -1]
        # steps 0..7 at level 1 off the orbit driver, each strictly nearer than the one before
        rows = list(_orbit_distances(step.table, _orbit_terms(nu)[0], basis.rank, 7, 1, goal))
        if any(_rise(rows, n) >= 0 for n in range(1, len(rows))):
            return trials, f"{nu}: {[Fraction(gap, norm * goal[1]) for norm, gap in rows]}"
        # the public route cross-checks the driver at step 1
        public = projective_distance(projective_vector(act(step, nu), 1), target)
        driver = Fraction(rows[1][1], rows[1][0] * goal[1])
        if public != driver:
            return trials, f"{nu}: step 1 is at distance {public} by act, {driver} by the orbit driver"
    return trials, None


def _escape_walk(rng: Random, i: int) -> str | None:
    if i % 4 == 3:
        # higher rank: the choice stays total and its first step already grows
        nu = random_current(rng, _B5)
        choice = escape_from_critical(nu)
        step = choice.twist if choice.direction == 1 else inverse(choice.twist)
        if current_length(act(step, nu)) <= current_length(nu):
            return str(nu)
        return None
    nu = random_current(rng, Basis(3))
    choice = escape_from_critical(nu)
    hit, final = walk_to_target(choice, nu, steps=40, level=1)
    if hit is None:
        return f"{nu}: final distance {final}"
    return None


def _check_limit_extraction(seed: int, quick: bool) -> Outcome:
    basis = Basis(3)
    twist = simple_twist(basis, 1, 2)
    limit = tree_orbit_limit(twist, cayley_tree(basis), level=4)
    expected = projective_tree_vector(twist_tree(basis, [(1, 2, Fraction(1))]), 4)
    return 1, None if tree_projective_eq(limit, expected) else "limit vector mismatch at level 4"


def _check_separation(seed: int, quick: bool) -> Outcome:
    report = run_theorem_main(iters=6 if quick else 12, level=2)
    failed = [a for a in report.assertions if not a.passed]
    if failed:
        return 1, f"{failed[0].name}: {failed[0].witness}"
    return 1, None


CHECKS: Registry = (
    ("words", "free reduction idempotent", _trials("words/reduction", 600, _reduction)),
    ("words", "occurrence inversion symmetry", _trials("words/symmetry", 400, _occurrence_symmetry)),
    ("words", "power coherence", _trials("words/powers", 200, _power_coherence)),
    ("words", "canonical rotation vs conjugacy", _trials("words/rotation", 300, _canonical_rotation)),
    ("automorphisms", "composition", _trials("autos/composition", 300, _composition)),
    ("automorphisms", "conjugacy equivariance", _trials("autos/cyclic", 500, _cyclic_action)),
    ("automorphisms", "twist linear growth", _check_twist_growth),
    ("currents", "extension identities", _trials("currents/extension", 999, _extension_identities)),
    ("currents", "level identity", _trials("currents/level", 600, _level_identity)),
    ("currents", "length of rational current", _trials("currents/length", 1000, _rational_length)),
    ("currents", "twist coordinate identities", _trials("currents/twist", 600, _twist_identities)),
    ("currents", "twist increment monotone", _trials("currents/monotone", 300, _increment_monotone)),
    ("currents", "action functorial", _trials("currents/functorial", 200, _action_functorial)),
    ("trees", "Britton vs limit routes", _trials("trees/routes", 500, _route_agreement)),
    ("trees", "conjugacy and inversion invariance", _trials("trees/symmetry", 300, _length_symmetries)),
    ("trees", "translation length homogeneity", _trials("trees/homogeneity", 200, _length_homogeneity)),
    ("trees", "twistor ellipticity", _check_ellipticity),
    ("trees", "pairing extends length", _trials("trees/pairing", 300, _pairing)),
    ("dynamics", "dichotomy off critical set", _check_dichotomy),
    ("dynamics", "escape walk within 40 steps", _trials("dynamics/trichotomy", 1000, _escape_walk)),
    ("dynamics", "tree orbit limit of the twist", _check_limit_extraction),
    ("dynamics", "headline separation certificate", _check_separation),
)


# The checks that take longest, longest first.  In the quick profile (means over seeds
# 0-15, Python 3.11.7 on 2 CPUs) the first four take about 14-31 ms each and the last
# three 7-12 ms, against under 6 ms for every other check.  Workers claim these first,
# so that none is left to start last; checks not named here follow in registry order.
LONGEST_FIRST = (
    "Britton vs limit routes",
    "escape walk within 40 steps",
    "extension identities",
    "dichotomy off critical set",
    "twist coordinate identities",
    "twist increment monotone",
    "level identity",
)


def _run_check(check: Check, seed: int, quick: bool) -> Outcome:
    """``check(seed, quick)``, or zero trials and the exception as the witness if it raises."""
    try:
        trials, witness = check(seed, quick)
    except Exception as exc:  # one broken layer must not hide the other results
        return 0, f"{type(exc).__name__}: {exc}"
    return trials, witness


def _claim_order(checks: Registry) -> bytes:
    """The indices of ``checks``, one byte each: :data:`LONGEST_FIRST` by name, then the rest in order."""
    rank = {name: i for i, name in enumerate(LONGEST_FIRST)}
    return bytes(sorted(range(len(checks)), key=lambda i: rank.get(checks[i][1], len(rank))))


def _usable_cpus() -> int:
    """The number of CPUs this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        return os.cpu_count() or 1


def _claims(tasks: int) -> Iterator[int]:
    """The indices this process claims off the task pipe until it is empty; a 1-byte read is atomic."""
    while claim := os.read(tasks, 1):
        yield claim[0]


def _serve(checks: Registry, seed: int, quick: bool, tasks: int, results: int) -> None:
    """A worker's loop: send each claimed index, run its check, then send ``(index, trials, witness)``."""
    with open(results, "wb") as out:
        for i in _claims(tasks):
            marshal.dump(i, out)
            out.flush()  # the parent learns of the claim even if this worker dies running it
            marshal.dump((i, *_run_check(checks[i][2], seed, quick)), out)
            out.flush()


def _collect(results: int, outcomes: dict[int, Outcome]) -> list[int]:
    """Read a worker's records to EOF into ``outcomes``; the indices it claimed and never reported."""
    unreported = []
    with open(results, "rb", closefd=False) as stream:
        while True:
            try:
                record = marshal.load(stream)
            except (EOFError, ValueError):  # the end, or a record cut short by a dying worker
                return unreported
            if isinstance(record, int):
                unreported.append(record)
            else:
                i, trials, witness = record
                unreported.remove(i)
                outcomes[i] = trials, witness


def _run_forked(checks: Registry, seed: int, quick: bool, workers: int) -> dict[int, Outcome]:
    """The outcome of each check by index, from this process and ``workers - 1`` forked workers.

    Every process claims the next index off one task pipe.  A worker sends
    its records on its own result pipe and leaves through ``os._exit``; a
    check it claimed and never reported fails with zero trials and the
    worker's exit status.  If this process raises, the workers still running
    are killed; every worker is reaped before this returns or raises.
    """
    order = _claim_order(checks)
    tasks, feed = os.pipe()
    os.write(feed, order)  # at most 256 bytes, which a pipe takes at once
    os.close(feed)  # the task pipe reads empty once every index is claimed
    children: dict[int, int] = {}  # pid -> read end of its result pipe
    try:
        for _ in range(workers - 1):
            read, write = os.pipe()
            try:
                pid = os.fork()
            except OSError:  # no more processes to be had: the ones running claim every check
                os.close(read)
                os.close(write)
                break
            if pid == 0:
                status = 1
                try:
                    _serve(checks, seed, quick, tasks, write)
                    status = 0
                finally:
                    os._exit(status)  # never the parent's cleanup, exit handlers or stdio flushes
            os.close(write)
            children[pid] = read
        outcomes = {i: _run_check(checks[i][2], seed, quick) for i in _claims(tasks)}
        for pid in list(children):
            unreported = _collect(children[pid], outcomes)
            status = os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1])
            os.close(children.pop(pid))
            for i in unreported:
                outcomes[i] = 0, f"worker process died with exit status {status}"
        return outcomes
    finally:
        os.close(tasks)
        if children:  # a run cut short: kill and reap the workers still running
            import signal  # imported here, since importing it costs start-up time

            for pid, read in children.items():
                os.kill(pid, signal.SIGKILL)
                os.waitpid(pid, 0)
                os.close(read)


def run_selftest(seed: int = 1, quick: bool = False) -> tuple[SuiteResult, ...]:
    """Run every suite and collect results in registry order; deterministic given (seed, quick).

    A check that raises fails with the exception as its witness and zero
    trials; the other checks still run.  The checks run on forked workers
    when at least 2 CPUs are usable and this process has no other thread.
    """
    checks = CHECKS
    workers = min(len(checks), _usable_cpus())
    if workers > 1 and hasattr(os, "fork") and threading.active_count() == 1:
        outcomes = _run_forked(checks, seed, quick, workers)
    else:
        outcomes = {i: _run_check(checks[i][2], seed, quick) for i in _claim_order(checks)}
    by_module: dict[str, list[CheckResult]] = {}
    for i, (module, name, _) in enumerate(checks):
        trials, witness = outcomes[i]
        by_module.setdefault(module, []).append(CheckResult(name, witness is None, trials, witness))
    return tuple(SuiteResult(module, tuple(results)) for module, results in by_module.items())
