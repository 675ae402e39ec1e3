"""The benchmark's workloads: generated CLI inputs and the checks on each report.

Every report is one ``currents_lab.cli.main(argv)`` call.  A workload turns a
benchmark seed into an ordered list of reports and knows, from the inputs
alone, how much work each report stands for and what an exact, non-vacuous
report must contain.  Reports run in rounds of ``round_size`` consecutive
reports; only tree-orbit's rounds hold more than one (its two experiments).

Seed-driven workloads draw their inputs from a fixed catalogue (each entry
made from its own generator seed); the benchmark seed picks the order.  The
catalogue is small enough that ``reference_digests.json`` holds the parent
commit's stdout digest of every report a run can make.
"""

from __future__ import annotations

import json
import re
import sys
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from random import Random
from typing import Callable

from tracing import class_count

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"


class BenchError(Exception):
    """The benchmark cannot run here (for example, the library is missing)."""


def load_library():
    """Import currents_lab from this checkout's ``src`` and nowhere else."""
    package = SRC / "currents_lab"
    if not (package / "__init__.py").is_file():
        raise BenchError(f"no currents_lab package at {package}")
    sys.path.insert(0, str(SRC))
    import currents_lab
    import currents_lab.cli

    if Path(currents_lab.__file__).resolve().parent != package.resolve():
        raise BenchError(f"imported currents_lab from {currents_lab.__file__}, not {package}")
    return currents_lab


@dataclass(frozen=True)
class Plan:
    """One report: its argv and a checker of its stdout.

    The checker returns the problems it found and the work units the report
    completed; a JSON report's units follow from its inputs alone.
    """

    argv: tuple[str, ...]
    check: Callable[[str], tuple[list[str], int]]


# --------------------------------------------------------------- cell format

EXACT = re.compile(r"-?\d+(?:/\d+)?")
CELL_FORMATS = {"class": re.compile(r"\[[a-zA-Z]+\]")}


def json_check(
    units: int, rows: dict[str, int], laws: Callable[[dict], list[str]]
) -> Callable[[str], tuple[list[str], int]]:
    """Checker for a JSON report with the given table row counts and exact laws."""
    return lambda stdout: (_check_json_report(stdout, rows, laws), units)


def _check_json_report(stdout: str, rows: dict[str, int], laws: Callable[[dict], list[str]]) -> list[str]:
    """Problems with a JSON report: verdict, table shapes and exact cells."""
    try:
        report = json.loads(stdout)
    except ValueError as exc:
        return [f"stdout is not a JSON report: {exc}"]
    problems = []
    if report.get("passed") is not True:
        problems.append("report has passed != true")
    if not report.get("assertions"):
        problems.append("report makes no assertion")
    for assertion in report.get("assertions", []):
        if assertion.get("passed") is not True:
            problems.append(f"assertion failed: {assertion.get('name')}")
    tables = {t["name"]: t for t in report.get("tables", [])}
    if set(tables) != set(rows):
        problems.append(f"tables {sorted(tables)} != expected {sorted(rows)}")
    for name, count in rows.items():
        table = tables.get(name)
        if table is None:
            continue
        if len(table["rows"]) != count or count == 0:
            problems.append(f"table {name}: {len(table['rows'])} rows, expected {count}")
        problems.extend(_cell_problems(name, table)[:1])
    if not problems:
        problems.extend(laws(tables))
    return problems


def _cell_problems(name: str, table: dict) -> list[str]:
    columns = table["columns"]
    problems = []
    for row in table["rows"]:
        if len(row) != len(columns):
            problems.append(f"table {name}: ragged row {row}")
        for column, cell in zip(columns, row):
            pattern = CELL_FORMATS.get(column, EXACT)
            if not isinstance(cell, str) or not pattern.fullmatch(cell):
                problems.append(f"table {name}, column {column}: inexact cell {cell!r}")
    return problems


def _column(table: dict, name: str) -> list[Fraction]:
    index = table["columns"].index(name)
    return [Fraction(row[index]) for row in table["rows"]]


# ----------------------------------------------------------------- tree-orbit

TREE_RANK, TREE_LEVEL, TREE_CAP = 5, 2, 64
THEOREM_ITERS, PRODUCT_ITERS = 50, 20


def _theorem_laws(tables: dict) -> list[str]:
    """Every current distance column reads 2/(n+2) exactly."""
    table = tables["current-distances"]
    for column in table["columns"][1:]:
        values = _column(table, column)
        if values != [Fraction(2, n + 2) for n in range(len(values))]:
            return [f"current-distances {column} breaks 2/(n+2)"]
    return []


def _product_laws(tables: dict) -> list[str]:
    """The generator current orbit has length n+1 and level-1 distance 1/(n+1)."""
    table = tables["current-orbit"]
    n = range(len(table["rows"]))
    if _column(table, "length") != [Fraction(k + 1) for k in n]:
        return ["current-orbit lengths are not n+1"]
    if _column(table, "distance_L1") != [Fraction(1, k + 1) for k in n]:
        return ["current-orbit level-1 distances are not 1/(n+1)"]
    return []


def _tree_orbit_plans(seed: int) -> list[Plan]:
    classes = class_count(TREE_RANK, TREE_LEVEL)
    knobs = ["--level", str(TREE_LEVEL), "--rank", str(TREE_RANK), "--cap", str(TREE_CAP)]

    def evaluations(orbits: int) -> int:
        return orbits * (TREE_CAP + 1) * classes

    theorem = Plan(
        ("experiment", "theorem-main", "--iters", str(THEOREM_ITERS), *knobs),
        json_check(
            evaluations(4),  # two marked trees, both directions
            {"shared-tree-limit": classes, "current-distances": THEOREM_ITERS + 1},
            _theorem_laws,
        ),
    )
    product = Plan(
        ("experiment", "product-minimal", "--iters", str(PRODUCT_ITERS), *knobs),
        json_check(
            evaluations(1),
            {"current-orbit": PRODUCT_ITERS + 1, "tree-limit": classes},
            _product_laws,
        ),
    )
    return [theorem, product]


# -------------------------------------------------------------- current-orbit

ORBIT_CATALOGUE = 64
ORBIT_TERMS, ORBIT_ROOT_LEN, ORBIT_STEPS, ORBIT_LEVEL = 2, 6, 300, 3
ORBIT_LIMIT = "1*[b] + 1*[d]"
# phi twists a -> ab and e -> ed; the root's other letters come from b, c, d.
TWISTED = {"a": "b", "A": "b", "e": "d", "E": "d"}
FIXED = "bBcCdD"


def orbit_root(rng: Random) -> str:
    """A cyclic word with one twisted letter whose phi-orbit grows by one letter a step.

    ``a`` gains a trailing ``b`` per step and ``A`` a leading ``B``, so the
    neighbour on that side must not cancel it (likewise ``e``/``E`` with ``d``).
    """
    while True:
        twisted = rng.choice(sorted(TWISTED))
        rest: list[str] = []
        while len(rest) < ORBIT_ROOT_LEN - 1:
            x = rng.choice(FIXED)
            if not rest or x != rest[-1].swapcase():
                rest.append(x)
        twistor = TWISTED[twisted]
        if twisted.islower() and rest[0] == twistor.upper():
            continue
        if twisted.isupper() and rest[-1] == twistor:
            continue
        return twisted + "".join(rest)


def orbit_current(index: int) -> tuple[str, Fraction]:
    """Catalogue entry: a current literal and its total weight."""
    rng = Random(f"current-orbit:{index}")
    terms = []
    total = Fraction(0)
    for _ in range(ORBIT_TERMS):
        weight = Fraction(rng.randint(1, 5), rng.randint(1, 3))
        total += weight
        terms.append(f"{weight}*[{orbit_root(rng)}]")
    return " + ".join(terms), total


def _current_orbit_plans(seed: int) -> list[Plan]:
    order = Random(f"current-orbit-order:{seed}").sample(range(ORBIT_CATALOGUE), ORBIT_CATALOGUE)
    plans = []
    for index in order:
        literal, weight = orbit_current(index)

        def laws(tables: dict, weight: Fraction = weight) -> list[str]:
            lengths = _column(tables["orbit"], "length")
            expected = [weight * (ORBIT_ROOT_LEN + n) for n in range(len(lengths))]
            return [] if lengths == expected else ["orbit lengths are not W*(|root|+n)"]

        argv = (
            "iterate", "--rank", "5", "--aut", "phi", "-c", literal,
            "--limit", ORBIT_LIMIT, "--level", str(ORBIT_LEVEL), "--iters", str(ORBIT_STEPS),
        )
        plans.append(Plan(argv, json_check(ORBIT_STEPS, {"orbit": ORBIT_STEPS + 1}, laws)))
    return plans


def _parse_current_orbit(lib, plans: list[Plan]) -> None:
    basis = lib.Basis(5)
    lib.parse_automorphism(basis, "phi")
    lib.parse_current(basis, ORBIT_LIMIT)
    for plan in plans:
        lib.parse_current(basis, plan.argv[plan.argv.index("-c") + 1])


# ------------------------------------------------------------- selftest-quick

SELFTEST_CATALOGUE = 16
CHECK_LINE = re.compile(r"(ok  |FAIL) (\S+)\s+(.+) \((\d+) trials\)")
SUMMARY_LINE = re.compile(r"(\d+)/(\d+) checks passed \(seed (-?\d+)\)")


def _check_selftest(stdout: str, seed: int) -> tuple[list[str], int]:
    lines = stdout.splitlines()
    if len(lines) < 2:
        return ["selftest printed no checks"], 0
    problems = []
    trials = 0
    for line in lines[:-1]:
        match = CHECK_LINE.fullmatch(line)
        if not match:
            problems.append(f"unexpected line {line!r}")
        elif match.group(1) != "ok  " or int(match.group(4)) < 1:
            problems.append(f"failed or vacuous check {line!r}")
        else:
            trials += int(match.group(4))
    summary = SUMMARY_LINE.fullmatch(lines[-1])
    checks = len(lines) - 1
    if not summary or summary.groups() != (str(checks), str(checks), str(seed)):
        problems.append(f"summary {lines[-1]!r} does not report {checks}/{checks} for seed {seed}")
    return problems, trials


def _selftest_plans(seed: int) -> list[Plan]:
    order = Random(f"selftest-order:{seed}").sample(range(SELFTEST_CATALOGUE), SELFTEST_CATALOGUE)
    return [
        Plan(("selftest", "--quick", "--seed", str(s)), lambda out, s=s: _check_selftest(out, s))
        for s in order
    ]


# ------------------------------------------------------------------ registry


@dataclass(frozen=True)
class Workload:
    name: str
    unit: str
    plans: Callable[[int], list[Plan]]  # seed -> reports, run in order and cycled
    traced_reports: int  # reports run with tracing on in a --trace 1 run
    round_size: int = 1
    parse: Callable[[object, list[Plan]], None] = lambda lib, plans: None


WORKLOADS = {
    w.name: w
    for w in (
        Workload("tree-orbit", "tree-length evaluations", _tree_orbit_plans, 2, round_size=2),
        Workload(
            "current-orbit", "orbit steps", _current_orbit_plans, 2, parse=_parse_current_orbit
        ),
        Workload("selftest-quick", "check trials", _selftest_plans, 1),
    )
}


def check_report(plan: Plan, exit_code: int | None, stdout: str) -> tuple[list[str], int]:
    """(problems, units) for one report."""
    if exit_code != 0:
        return [f"exit code {exit_code}"], 0
    return plan.check(stdout)
