"""The selftest invariant registry, run check by check at a second seed.

``tests/test_cli.py`` runs the whole registry through the CLI at seed 1;
seed 2 draws a different corpus for every sampled check.
"""

import pytest

from currents_lab import selftest
from currents_lab.cli import main
from currents_lab.selftest import CHECKS


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
