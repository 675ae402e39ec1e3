"""The selftest invariant registry, run check by check at a second seed.

``tests/test_cli.py`` runs the whole registry through the CLI at seed 1;
seed 2 draws a different corpus for every sampled check.  The registry runs
on forked workers when CPUs allow; the tests below pin the CPU count to
compare that with the sequential run and to kill workers.
"""

import os
import time
from random import Random

import pytest

from currents_lab import currents, selftest
from currents_lab.cli import main
from currents_lab.selftest import CHECKS
from currents_lab.words import Basis


@pytest.mark.parametrize(
    "check",
    [check for _, _, check in CHECKS],
    ids=[f"{suite}/{name}" for suite, name, _ in CHECKS],
)
def test_check_holds(check):
    trials, witness = check(2, True)
    assert trials >= 1
    assert witness is None, witness


def test_raising_check_is_reported_and_the_run_goes_on(monkeypatch, capsys):
    def broken(seed, quick):
        raise RuntimeError("injected failure")

    first, second = CHECKS[0], CHECKS[1]
    monkeypatch.setattr(selftest, "CHECKS", (first, ("words", "broken", broken), second))
    assert main(["selftest", "--quick"]) == 1
    lines = capsys.readouterr().out.splitlines()
    assert lines[0].startswith("ok   words") and first[1] in lines[0]
    assert lines[1] == "FAIL words          broken (0 trials) :: RuntimeError: injected failure"
    assert lines[2].startswith("ok   words") and second[1] in lines[2]
    assert lines[3] == "2/3 checks passed (seed 1)"


def _forks(monkeypatch, cpus):
    """Pretend ``cpus`` CPUs are usable and record the pid of every worker forked."""
    monkeypatch.setattr(selftest, "_usable_cpus", lambda: cpus)
    pids = []
    fork = os.fork

    def counting_fork():
        pid = fork()
        if pid:
            pids.append(pid)
        return pid

    monkeypatch.setattr(os, "fork", counting_fork)
    return pids


def _assert_no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_forked_run_equals_the_sequential_run(monkeypatch, seed):
    pids = _forks(monkeypatch, 2)
    forked = selftest.run_selftest(seed=seed, quick=True)
    assert len(pids) == 1
    monkeypatch.setattr(selftest, "_usable_cpus", lambda: 1)
    assert forked == selftest.run_selftest(seed=seed, quick=True)
    assert len(pids) == 1
    _assert_no_child_left()


def test_a_failed_fork_leaves_every_check_to_this_process(monkeypatch):
    def no_fork():
        raise BlockingIOError(11, "Resource temporarily unavailable")

    monkeypatch.setattr(selftest, "_usable_cpus", lambda: 2)
    monkeypatch.setattr(os, "fork", no_fork)
    alone = selftest.run_selftest(quick=True)
    monkeypatch.setattr(selftest, "_usable_cpus", lambda: 1)
    assert alone == selftest.run_selftest(quick=True)


def test_a_dying_worker_fails_its_check_with_its_exit_status(monkeypatch, capsys):
    parent = os.getpid()

    def dies_in_a_worker(seed, quick):
        if os.getpid() != parent:
            os._exit(3)
        time.sleep(0.2)  # leaves the worker time to claim one
        return 1, None

    pids = _forks(monkeypatch, 2)
    monkeypatch.setattr(selftest, "CHECKS", tuple(("words", f"dies {i}", dies_in_a_worker) for i in range(4)))
    assert main(["selftest", "--quick"]) == 1
    assert len(pids) == 1
    lines = capsys.readouterr().out.splitlines()
    failed = [line for line in lines if line.startswith("FAIL")]
    assert len(failed) == 1
    assert failed[0].endswith("(0 trials) :: worker process died with exit status 3")
    assert lines[-1] == "3/4 checks passed (seed 1)"
    _assert_no_child_left()


def test_an_interrupt_in_the_parent_kills_and_reaps_the_workers(monkeypatch):
    parent = os.getpid()

    def interrupted(seed, quick):
        if os.getpid() == parent:
            raise KeyboardInterrupt
        time.sleep(60)  # a worker that would outlive the report unless it is killed
        return 1, None

    pids = _forks(monkeypatch, 2)
    monkeypatch.setattr(selftest, "CHECKS", tuple(("words", f"slow {i}", interrupted) for i in range(3)))
    start = time.monotonic()
    with pytest.raises(KeyboardInterrupt):
        selftest.run_selftest(quick=True)
    assert time.monotonic() - start < 30
    assert len(pids) == 1
    _assert_no_child_left()


def test_claim_order_names_registry_checks_once():
    names = [name for _, name, _ in CHECKS]
    assert set(selftest.LONGEST_FIRST) <= set(names)
    assert len(set(selftest.LONGEST_FIRST)) == len(selftest.LONGEST_FIRST)
    assert sorted(selftest._claim_order(CHECKS)) == list(range(len(CHECKS)))


# The checks rewritten on ints must still find a spoiled input.

def test_dichotomy_finds_a_step_whose_distance_does_not_fall(monkeypatch):
    def raised(table, terms, rank, steps, level, goal):
        for n, (norm, gap) in enumerate(currents._orbit_distances(table, terms, rank, steps, level, goal)):
            yield norm, gap + (norm * goal[1] if n == 4 else 0)  # step 4 one farther

    monkeypatch.setattr(selftest, "_orbit_distances", raised)
    trials, witness = selftest._check_dichotomy(2, True)
    assert trials == 50
    assert witness is not None and witness.count("Fraction(") == 8


def test_dichotomy_cross_checks_the_driver_against_act(monkeypatch):
    monkeypatch.setattr(selftest, "act", lambda phi, nu: currents.act(phi, currents.act(phi, nu)))
    trials, witness = selftest._check_dichotomy(2, True)
    assert trials == 50
    assert witness is not None and "step 1 is at distance" in witness


@pytest.mark.parametrize(
    "read, expected",
    [((1, 1, 2, 1, 1), "v=abaa (3/2 vs 3/2/5/3)"), ((1, 2, -3, 1, 1), "v=abCa (1/3 vs 1/2/1/3)")],
)
def test_extension_identities_name_a_bumped_count(monkeypatch, read, expected):
    # the witness texts are the ones the lambda-based lookup printed for the same bump
    nu = currents.parse_current(Basis(3), "3/2*[aab] + 1/3*[abC]")
    monkeypatch.setattr(selftest, "random_current", lambda rng, basis: nu)
    assert selftest._extension_identities(Random(0), 1) is None

    def bumped(nu, level):
        counts, denominator = currents._read_counts(nu, level)
        counts[read] = counts.get(read, 0) + 1
        return counts, denominator

    monkeypatch.setattr(selftest, "_read_counts", bumped)
    assert selftest._extension_identities(Random(0), 1) == expected
