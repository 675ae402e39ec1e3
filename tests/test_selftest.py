"""The selftest invariant registry, run check by check at a second seed.

``tests/test_cli.py`` runs the whole registry through the CLI at seed 1;
seed 2 draws a different corpus for every sampled check.
"""

import pytest

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
