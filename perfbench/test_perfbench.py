"""Self-tests of the benchmark's own arithmetic, tracing and report checks.

Run from the root of a checkout:  python3 -m pytest perfbench -q
"""

from __future__ import annotations

import contextlib
import io
import json
import sys
from itertools import product

import pytest

from tracing import Tracer, candidate_words, class_count, leftover_wrappers, self_times
from workloads import WORKLOADS, check_report, load_library, orbit_current

lib = load_library()


def test_self_time_nested_and_back_to_back_children():
    # root [0,10] has back-to-back children [1,3] and [3,6]; the second has a
    # nested child [4,5], which must not be subtracted from root again.
    parents = [-1, 0, 0, 2]
    starts = [0.0, 1.0, 3.0, 4.0]
    ends = [10.0, 3.0, 6.0, 5.0]
    assert self_times(parents, starts, ends) == [5.0, 2.0, 2.0, 1.0]


def test_self_time_merges_overlap_and_clips_to_parent():
    parents = [-1, 0, 0]
    starts = [0.0, 1.0, 2.0]
    ends = [4.0, 3.0, 5.0]
    assert self_times(parents, starts, ends)[0] == 1.0


def _brute_force_classes(rank: int, max_len: int) -> int:
    letters = [x for i in range(1, rank + 1) for x in (i, -i)]
    found = set()
    for n in range(1, max_len + 1):
        for w in product(letters, repeat=n):
            if any(w[i] == -w[(i + 1) % n] for i in range(n)) and n > 1:
                continue
            if any(n % p == 0 and w == w[:p] * (n // p) for p in range(1, n)):
                continue
            inverse = tuple(-x for x in reversed(w))
            forms = [w[i:] + w[:i] for i in range(n)] + [inverse[i:] + inverse[:i] for i in range(n)]
            found.add(min(forms))
    return len(found)


@pytest.mark.parametrize("rank,max_len", [(2, 4), (3, 3), (3, 4), (5, 2)])
def test_class_count_matches_enumeration(rank, max_len):
    assert class_count(rank, max_len) == _brute_force_classes(rank, max_len)


def test_useful_ratio_bases():
    assert (class_count(5, 2), candidate_words(5, 2)) == (25, 100)
    assert (class_count(3, 4), candidate_words(3, 4)) == (104, 936)


def _bindings() -> dict[tuple[str, str], int]:
    snapshot = {}
    for name, module in list(sys.modules.items()):
        if name == "currents_lab" or name.startswith("currents_lab."):
            for attr, value in vars(module).items():
                snapshot[(name, attr)] = id(value)
                if isinstance(value, type):
                    for member, inner in vars(value).items():
                        snapshot[(name, f"{attr}.{member}")] = id(inner)
    return snapshot


def test_traced_run_restores_every_binding():
    before = _bindings()
    tracer = Tracer()
    tracer.install()
    try:
        assert lib.dynamics.tree_length is lib.trees.length  # rebound together
        with contextlib.redirect_stdout(io.StringIO()):
            code = lib.cli.main(["iterate", "--aut", "phi", "-c", "1*[ab]", "--iters", "3"])
    finally:
        tracer.uninstall()
    assert code == 0
    calls = {name: row["calls"] for name, row in tracer.per_function().items()}
    assert calls["cli.main"] == 1 and calls["dynamics.iterate_current"] == 1
    assert calls["currents.act"] == 3
    assert leftover_wrappers() == []
    assert _bindings() == before


def _report(argv: list[str]) -> str:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert lib.cli.main(argv) == 0
    return out.getvalue()


def test_report_checks_reject_floats_and_empty_tables():
    plan = WORKLOADS["current-orbit"].plans(0)[0]
    short = plan.argv[:-1] + ("3",)
    report = json.loads(_report(list(short)))
    assert report["passed"]

    def problems(edited: dict) -> list[str]:
        return check_report(plan, 0, json.dumps(edited))[0]

    # A 3-step table where 300 steps were asked for is a wrong row count.
    assert any("rows" in p for p in problems(report))
    floats = json.loads(json.dumps(report))
    floats["tables"][0]["rows"][1][2] = "0.5"
    assert any("inexact" in p for p in problems(floats))
    empty = json.loads(json.dumps(report))
    empty["tables"][0]["rows"] = []
    assert any("rows" in p for p in problems(empty))


def test_current_orbit_lengths_grow_one_letter_per_step():
    literal, weight = orbit_current(7)
    report = json.loads(
        _report(["iterate", "--aut", "phi", "-c", literal, "--iters", "5", "--level", "1"])
    )
    lengths = [row[1] for row in report["tables"][0]["rows"]]
    assert lengths == [str(weight * (6 + n)) for n in range(6)]
