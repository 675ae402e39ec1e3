"""Command line surface: outputs, exit codes, report files."""

import hashlib
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import currents_lab
from currents_lab import currents, dynamics
from currents_lab.cli import EXPERIMENTS, KNOBS, _build_parser, main

MINIMUM_RANKS = {
    "theorem-main": 5,
    "theorem-back": 3,
    "product-minimal": 5,
    "primitive-limit": 3,
    "off-critical": 3,
    "outlook-identity": 3,
    "minimality-walk": 3,
}


def run(capsys, argv):
    try:
        code = main(argv)
    except SystemExit as exc:  # argparse usage errors
        code = exc.code
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestWordCommands:
    def test_reduce(self, capsys):
        code, out, _ = run(capsys, ["reduce", "-w", "abBa"])
        assert (code, out) == (0, "aa\n")

    def test_reduce_identity(self, capsys):
        code, out, _ = run(capsys, ["reduce", "-w", "aBbA"])
        assert (code, out) == (0, "1\n")

    def test_reduce_cyclic(self, capsys):
        code, out, _ = run(capsys, ["reduce", "-w", "abA", "--cyclic"])
        assert (code, out) == (0, "b\n")

    def test_apply_power(self, capsys):
        code, out, _ = run(capsys, ["apply", "--aut", "phi", "-w", "Ac", "-n", "4"])
        assert (code, out) == (0, "BBBBAc\n")

    def test_apply_negative_power(self, capsys):
        code, out, _ = run(capsys, ["apply", "--aut", "phi", "-w", "Ac", "-n", "-3"])
        assert (code, out) == (0, "bbbAc\n")

    def test_coord(self, capsys):
        code, out, _ = run(capsys, ["coord", "-v", "a", "-c", "1*[abab]"])
        assert (code, out) == (0, "2\n")


class TestLengthCommand:
    def test_tree_length(self, capsys):
        code, out, _ = run(
            capsys, ["length", "--tree", "twist (a:b,1)", "-g", "ca", "--rank", "3"]
        )
        assert (code, out) == (0, "1\n")

    def test_current_length(self, capsys):
        code, out, _ = run(capsys, ["length", "-c", "3/2*[ab]", "--rank", "2"])
        assert (code, out) == (0, "3\n")

    def test_both_routes(self, capsys):
        code, out, _ = run(
            capsys,
            ["length", "--tree", "twist (a:b,1)", "-g", "ca", "--rank", "3", "--route", "both"],
        )
        assert (code, out) == (0, "1\n")

    def test_intersect(self, capsys):
        code, out, _ = run(
            capsys, ["intersect", "--tree", "cayley", "-c", "1*[ab]", "--rank", "2"]
        )
        assert (code, out) == (0, "2\n")


class TestExitCodes:
    def test_parse_error_shows_caret(self, capsys):
        code, _, err = run(capsys, ["coord", "-v", "a?b", "-c", "1*[a]"])
        assert code == 2
        assert "position 1" in err
        lines = err.splitlines()
        assert lines[-2].strip() == "a?b"
        assert lines[-1].strip() == "^"

    def test_rank_gate(self, capsys):
        code, _, err = run(capsys, ["experiment", "theorem-main", "--rank", "3"])
        assert code == 3
        assert "requires rank >= 5" in err

    def test_not_stabilized(self, capsys):
        code, _, err = run(
            capsys,
            [
                "length", "--tree", "twist (a:b,1)",
                "-g", "a" + "b" * 30 + "ca",
                "--rank", "3", "--route", "limit", "--cap", "8",
            ],
        )
        assert code == 4
        assert "cap" in err

    def test_domain_error(self, capsys):
        code, _, err = run(capsys, ["length", "--tree", "twist (a:b,1)", "-g", "aA", "--rank", "3"])
        assert code == 3

    @pytest.mark.parametrize("experiment", sorted(EXPERIMENTS))
    def test_rank_below_minimum(self, capsys, experiment):
        minimum = MINIMUM_RANKS[experiment]
        code, out, err = run(capsys, ["experiment", experiment, "--rank", str(minimum - 1)])
        assert (code, out) == (3, "")
        assert f"requires rank >= {minimum}" in err

    @pytest.mark.parametrize(
        "argv",
        [
            ["experiment", "theorem-main", "--iters", "-1"],
            ["experiment", "outlook-identity", "--iters", "0"],
            ["experiment", "minimality-walk", "--trials", "0"],
            ["experiment", "primitive-limit", "--level", "0"],
            ["experiment", "product-minimal", "--cap", "0"],
            ["experiment", "primitive-limit", "--iters", "1"],
            ["experiment", "off-critical", "--iters", "1"],
            ["iterate", "--aut", "phi", "-c", "1*[a]", "--iters", "-2"],
            ["iterate", "--aut", "phi", "-c", "1*[a]", "--level", "0"],
            ["iterate", "--aut", "phi", "-c", "1*[a]", "--level", "-5"],
        ],
    )
    def test_out_of_contract_knobs(self, capsys, argv):
        code, out, err = run(capsys, argv)
        assert (code, out) == (3, "")
        assert err.startswith("error: ")

    KNOB_VALUES = {
        "level": "2", "iters": "3", "cap": "8", "seed": "4", "trials": "9", "rank": "5",
        "u": "ab", "g": "abaB", "f": "a",
    }

    @pytest.mark.parametrize("experiment", sorted(EXPERIMENTS))
    def test_flags_the_experiment_does_not_take_are_usage_errors(self, capsys, experiment):
        ignored = sorted(KNOBS - EXPERIMENTS[experiment].flags())
        assert ignored
        names = [("-" if len(flag) == 1 else "--") + flag for flag in ignored]
        argv = ["experiment", experiment]
        for name, flag in zip(names, ignored):
            argv += [name, self.KNOB_VALUES[flag]]
        code, out, err = run(capsys, argv)
        assert (code, out) == (2, "")
        assert f"error: experiment {experiment} does not take {', '.join(names)}" in err

    @pytest.mark.parametrize(
        "argv, named",
        [
            (["theorem-back", "--iters", "3", "--cap", "2", "--trials", "9", "--seed", "4", "-u", "ab"],
             "--cap, --iters, --seed, --trials, -u"),
            (["outlook-identity", "--level", "0"], "--level"),
        ],
    )
    def test_ignored_knobs_are_named_before_any_other_check(self, capsys, argv, named):
        code, out, err = run(capsys, ["experiment", *argv])
        assert (code, out) == (2, "")
        assert err.endswith(f"does not take {named}\n")

    @pytest.mark.parametrize("experiment", ["theorem-main", "product-minimal"])
    def test_level_below_one_names_the_level(self, capsys, experiment):
        code, out, err = run(capsys, ["experiment", experiment, "--level", "0"])
        assert (code, out, err) == (3, "", "error: level must be at least 1, got 0\n")

    def test_level_over_the_class_budget(self, capsys):
        code, out, err = run(capsys, ["experiment", "theorem-main", "--level", "6"])
        assert (code, out) == (3, "")
        assert err == "error: level 6 at rank 5 has 51079 test classes, over the budget of 10000\n"

    @pytest.mark.parametrize(
        "argv",
        [
            ["iterate", "--aut", "prime-basis-change", "-c", "1*[bc]", "--iters", "12"],
            ["iterate", "--aut", "prime-basis-change", "-c", "1*[bc]", "--limit", "1*[b]", "--iters", "12"],
            ["apply", "--aut", "prime-basis-change", "-w", "bc", "-n", "12"],
            ["apply", "--aut", "prime-basis-change", "-w", "bc", "-n", "-12", "--cyclic"],
            ["experiment", "primitive-limit", "-u", "ab", "--iters", "30"],
        ],
        ids=["iterate", "iterate-limit", "apply", "apply-inverse-cyclic", "primitive-limit"],
    )
    def test_steps_over_the_letter_budget_are_refused(self, capsys, monkeypatch, argv):
        assert run(capsys, argv)[0] != 3
        monkeypatch.setattr(currents, "LETTER_BUDGET", 100)
        code, out, err = run(capsys, argv)
        assert (code, out) == (3, "")
        match = re.fullmatch(
            r"error: the next step may reach (\d+) letters \((\d+) letters times the longest image\), "
            r"over the budget of 100\n",
            err,
        )
        bound, letters = map(int, match.groups())
        # refused before the step that may pass the budget: no word so far has passed it
        assert bound % letters == 0 and letters <= 100 < bound

    def test_a_table_of_finite_order_is_squared_not_stepped(self, capsys, monkeypatch):
        monkeypatch.setattr(currents, "LETTER_BUDGET", 10)
        argv = ["apply", "--rank", "2", "--aut", "a->b; b->a | a->b; b->a", "-w", "abb"]
        assert run(capsys, argv + ["-n", "1000000001"]) == (0, "baa\n", "")
        assert run(capsys, argv + ["-n", "-1000000000"]) == (0, "abb\n", "")

    def test_twist_form_tables_are_under_the_one_letter_budget(self, capsys, monkeypatch):
        monkeypatch.setattr(currents, "LETTER_BUDGET", 100)
        assert run(capsys, ["apply", "--aut", "phi", "-w", "Ac", "-n", "40"]) == (0, "B" * 40 + "Ac\n", "")
        err = "error: the next step may reach 802 letters (2 letters times the longest image), over the budget of 100\n"
        assert run(capsys, ["apply", "--aut", "phi", "-w", "Ac", "-n", "400"]) == (3, "", err)
        # a twist tail spells no word: stepping these 300-step orbits on the kernel would pass 100 letters
        argv = ["iterate", "--aut", "phi", "-c", "1*[ECDBCb] + 4/3*[adddBC]", "--limit", "1*[b] + 1*[d]"]
        assert run(capsys, argv + ["--level", "3", "--iters", "300"])[0] == 0
        assert run(capsys, ["experiment", "primitive-limit", "-u", "aa", "--iters", "300"])[0] == 0

    @pytest.mark.parametrize(
        "argv, letters, bound",
        [
            (["--aut", "phi", "-w", "Ac", "-n", "40"], 2, 82),
            (["--aut", "phi", "-w", "Ac", "-n", "-40"], 2, 82),
            (["--aut", "phi", "-w", "Acbd", "-n", "40", "--cyclic"], 4, 164),
            (["--rank", "2", "--aut", "a->BBab; b->b | a->bbaB; b->b", "-w", "aab", "-n", "5"], 3, 48),
            (["--rank", "2", "--aut", "a->BBab; b->b | a->bbaB; b->b", "-w", "aab", "-n", "-5", "--cyclic"], 3, 48),
        ],
        ids=["power", "negative-power", "cyclic", "longer-twistor", "longer-twistor-inverse-cyclic"],
    )
    def test_a_twist_power_at_the_letter_budget_passes_and_one_letter_over_is_refused(
        self, capsys, monkeypatch, argv, letters, bound
    ):
        # phi^n's longest image is 1 + |n| max(|s| + |t|) letters, and the image of u at most |u| times that
        expected = run(capsys, ["apply", *argv])
        assert expected[0] == 0
        monkeypatch.setattr(currents, "LETTER_BUDGET", bound)
        assert run(capsys, ["apply", *argv]) == expected
        monkeypatch.setattr(currents, "LETTER_BUDGET", bound - 1)
        power, calls = currents.power, []
        monkeypatch.setattr(currents, "power", lambda *args: calls.append(args) or power(*args))
        err = (
            f"error: the next step may reach {bound} letters ({letters} letters times the longest image), "
            f"over the budget of {bound - 1}\n"
        )
        assert (*run(capsys, ["apply", *argv]), calls) == (3, "", err, [])

    @pytest.mark.parametrize(
        "argv",
        [
            ["iterate", "--aut", "phi", "-c", "1*[ECDBCb] + 4/3*[adddBC]", "--limit", "1*[b] + 1*[d]", "--level", "3"],
            ["iterate", "--aut", "phi", "-c", "1*[ECDBCb] + 4/3*[adddBC]"],
            ["experiment", "primitive-limit", "-u", "aa"],
        ],
    )
    def test_twist_orbits_over_the_row_budget_are_refused(self, capsys, monkeypatch, argv):
        monkeypatch.setattr(currents, "ROW_BUDGET", 41)
        assert run(capsys, argv + ["--iters", "40"])[0] == 0
        step, steps = currents._orbit_step, []
        monkeypatch.setattr(currents, "_orbit_step", lambda *args: steps.append(args) or step(*args))
        code, out, err = run(capsys, argv + ["--iters", "41"])
        assert (code, out, steps) == (3, "", [])  # refused before the first step
        assert err == "error: the orbit would have 42 rows (steps + 1), over the budget of 41\n"

    @pytest.mark.parametrize(
        "argv, most, first_step, err",
        [
            (["off-critical", "--iters"], 40, "word_power", "the orbit would have 42 rows (iters + 1)"),
            (["outlook-identity", "--iters"], 41, "power", "the pairing table would have 42 rows (iters)"),
            (["minimality-walk", "--trials"], 41, "random_current", "the walk table would have 42 rows (trials)"),
        ],
        ids=["off-critical", "outlook-identity", "minimality-walk"],
    )
    def test_experiment_tables_over_the_row_budget_are_refused(
        self, capsys, monkeypatch, argv, most, first_step, err
    ):
        monkeypatch.setattr(currents, "ROW_BUDGET", 41)  # a 40-step walk has 41 rows
        assert run(capsys, ["experiment", *argv, str(most)])[0] == 0
        step, steps = getattr(dynamics, first_step), []
        monkeypatch.setattr(dynamics, first_step, lambda *args, **kw: steps.append(args) or step(*args, **kw))
        code, out, stderr = run(capsys, ["experiment", *argv, str(most + 1)])
        assert (code, out, steps) == (3, "", [])  # refused before the first step
        assert stderr == f"error: {err}, over the budget of 41\n"

    def test_primitive_limit_bound_counts_the_conjugator(self, capsys):
        # abA = a b a^-1: [c (abA)^n] is [(Aca) b^n], of n + 3 letters, so m = 3
        code, out, _ = run(capsys, ["experiment", "primitive-limit", "-u", "abA", "--iters", "40", "--level", "3"])
        assert code == 0
        names = [a["name"] for a in json.loads(out)["assertions"]]
        assert "distance at step n is at most (level+3)/(n*||u||+3) for n >= 1" in names

    def test_off_critical_steps_over_the_letter_budget_are_refused(self, capsys, monkeypatch):
        # abaB^n a has at most 4n + 1 letters: step 25 may reach 101, refused before it is built
        argv = ["experiment", "off-critical", "--iters", "40"]
        assert run(capsys, argv)[0] == 0
        monkeypatch.setattr(currents, "LETTER_BUDGET", 100)
        code, out, err = run(capsys, argv)
        assert (code, out) == (3, "")
        assert err == "error: the next step may reach 101 letters (25*|g| + |f|), over the budget of 100\n"

    def test_tree_orbit_without_a_stable_rate_exits_4(self, capsys):
        code, out, err = run(capsys, ["experiment", "theorem-main", "--iters", "4", "--level", "3", "--cap", "4"])
        assert (code, out) == (4, "")
        assert err == "error: class [abb]: no stable growth rate within 4 iterations\n"

    def test_tree_orbit_steps_under_the_letter_budget(self, capsys, monkeypatch):
        # a cap below N + 3 steps every class's orbit, each step refused before it may pass the budget
        argv = ["experiment", "product-minimal", "--cap", "2"]
        assert run(capsys, argv)[0] == 4
        monkeypatch.setattr(currents, "LETTER_BUDGET", 3)
        code, out, err = run(capsys, argv)
        assert (code, out) == (3, "")
        assert err.endswith("over the budget of 3\n")

    @pytest.mark.parametrize(
        "argv",
        [
            ["length", "-c", "1/0*[a]"],
            ["iterate", "--aut", "phi", "-c", "1*[a]", "--limit", "1/0*[b]"],
        ],
    )
    def test_zero_denominator_weight(self, capsys, argv):
        code, out, err = run(capsys, argv)
        assert (code, out) == (2, "")
        assert "bad rational '1/0' (position 0" in err
        assert err.splitlines()[-1].strip() == "^"


class TestRepeatedCalls:
    """The parser is built once per process, so every call after the first reuses it."""

    ARGVS = [
        ["length", "--rank", "3", "--tree", "twist (a:b,1/2)", "-g", "abaB", "--route", "both"],
        ["coord", "--rank", "3", "-v", "ab"],  # missing -c: an argparse usage error
        ["experiment", "primitive-limit", "--iters", "3", "--level", "2"],
        ["length", "--rank", "3", "--tree", "twist (a:b,1/2)", "-g", "abaB", "--route", "both"],
    ]

    def test_one_process_matches_fresh_runs(self, capsys):
        env = {**os.environ, "PYTHONPATH": str(Path(currents_lab.__file__).parents[1])}
        in_process = [run(capsys, argv)[:2] for argv in self.ARGVS]
        fresh = []
        for argv in self.ARGVS:
            done = subprocess.run(
                [sys.executable, "-m", "currents_lab.cli", *argv], capture_output=True, text=True, env=env
            )
            fresh.append((done.returncode, done.stdout))
        assert [code for code, _ in in_process] == [0, 2, 0, 0]
        assert in_process == fresh
        assert _build_parser() is _build_parser()


class TestReports:
    @pytest.mark.parametrize(
        "argv", [["experiment", "product-minimal"], ["experiment", "theorem-main", "--iters", "8"]]
    )
    def test_a_cap_of_a_million_gives_the_cap_64_tables(self, capsys, argv):
        reports = []
        for cap in ("64", "1000000"):
            code, out, _ = run(capsys, argv + ["--cap", cap])
            assert code == 0
            reports.append(json.loads(out))
        assert reports[0]["tables"] == reports[1]["tables"]
        assert [a["passed"] for a in reports[1]["assertions"]] == [True] * len(reports[0]["assertions"])

    def test_experiment_stdout_json(self, capsys):
        code, out, _ = run(capsys, ["experiment", "theorem-back"])
        assert code == 0
        payload = json.loads(out)
        assert payload["experiment"] == "theorem-back"
        witness = [t for t in payload["tables"] if t["name"] == "witness"][0]
        assert witness["rows"] == [["ca", "1", "0"]]

    def test_report_files_byte_identical(self, capsys, tmp_path):
        first = tmp_path / "one.json"
        second = tmp_path / "two.json"
        for path in (first, second):
            code, out, _ = run(
                capsys,
                ["experiment", "outlook-identity", "--iters", "4", "--out", str(path)],
            )
            assert code == 0
            assert f"wrote {path}" in out
        assert first.read_bytes() == second.read_bytes()

    def test_csv_output(self, capsys, tmp_path):
        path = tmp_path / "rows.csv"
        code, out, _ = run(
            capsys,
            ["experiment", "outlook-identity", "--iters", "3", "--csv", str(path)],
        )
        assert code == 0
        lines = path.read_text().splitlines()
        assert lines[0] == "table,pairing"
        assert lines[2] == "1,1/2,1/2"

    def test_iterate(self, capsys, tmp_path):
        path = tmp_path / "orbit.json"
        code, out, _ = run(
            capsys,
            [
                "iterate", "--aut", "twist(a,b)", "-c", "1*[a]",
                "--limit", "1*[b]", "--iters", "5", "--rank", "3",
                "--out", str(path),
            ],
        )
        assert code == 0
        payload = json.loads(path.read_text())
        orbit = payload["tables"][0]
        assert orbit["rows"][5] == ["5", "6", "1/6"]

    @pytest.mark.parametrize("iters", ["3", "0"])
    def test_iterate_that_asserts_nothing_fails(self, capsys, iters):
        # phi fixes [b], so the orbit never grows and no law is checked
        code, out, _ = run(capsys, ["iterate", "--aut", "phi", "-c", "1*[b]", "--iters", iters])
        payload = json.loads(out)
        assert payload["assertions"] == []
        assert payload["passed"] is False
        assert code == 1

    def test_report_file_that_asserts_nothing_says_so(self, capsys, tmp_path):
        path = tmp_path / "orbit.json"
        code, out, _ = run(capsys, ["iterate", "--aut", "phi", "-c", "1*[b]", "--out", str(path)])
        assert code == 1
        assert out.splitlines() == [f"wrote {path}", "FAIL no assertion was checked"]

    @pytest.mark.parametrize(
        "argv, digest",
        [
            (
                [
                    "iterate", "--rank", "5", "--aut", "phi",
                    "-c", "3/2*[abcD]+1/3*[Ebcd]+1*[acac]", "--limit", "1*[b]+1*[d]",
                    "--level", "3", "--iters", "40",
                ],
                "71bcafe6b3bf54ec5bbf63dcd5f30f1df14869cc0bdf1ab83748d77dc99360d9",
            ),
            (
                [
                    "iterate", "--rank", "5", "--aut", "phi",
                    "-c", "3/2*[abcD]+1/3*[Ebcd]+1*[acac]", "--level", "2", "--iters", "30",
                ],
                "8f98c8344939a3b0258eb831242c275fd0b67a163fdfe0ec5f4d3cd4aca68d2a",
            ),
            (
                [
                    "iterate", "--rank", "5", "--aut", "phi",
                    "-c", "1*[ECDBCb] + 4/3*[adddBC]", "--limit", "1*[b] + 1*[d]",
                    "--level", "3", "--iters", "300",
                ],
                "61adc38af5ab65e9a02d7251199107ef50c36cb3f73b9aa9994c155412459cdf",
            ),
            (
                ["experiment", "minimality-walk", "--trials", "40"],
                "15825826375d8034c2e595153b0fdce9a91f022ac0d9c689aa045330637ada60",
            ),
            (
                ["experiment", "product-minimal", "--iters", "8"],
                "425a33556f31eed5faf92abe44efaabac7c77488d9baddeb05b86b994aa9a3ca",
            ),
            (
                ["experiment", "theorem-main", "--iters", "8"],
                "7691c3c95bb23e3b25c1488b2ddfaed96d507f0214127e5d27cda8db49cf2934",
            ),
            (
                ["experiment", "theorem-main", "--iters", "8", "--level", "3"],
                "3ce1f940bb4131e901ca717f2ddaeeb10167ff7e5e239497d932a1bfd5a9cc40",
            ),
            (
                ["experiment", "product-minimal", "--iters", "8", "--level", "3"],
                "7b311384d8d87cac945ce65e40e88228bb8d95519d14b6c92c447e288f7bcc65",
            ),
            (
                ["experiment", "primitive-limit", "--iters", "8"],
                "511fe75ef057a69a3d412c6191c52d1b5c0764192206f8391d501457ed474088",
            ),
            (
                ["experiment", "off-critical", "--iters", "8"],
                "1718169e7a1fc259b3749952d3c8e392678fa061a70d98dc905eef44596b85ef",
            ),
            (
                [
                    "iterate", "--rank", "5", "--aut", "phi",
                    "-c", "2*[acdBCB] + 3*[ecbbbD]", "--limit", "1*[b] + 1*[d]",
                    "--level", "3", "--iters", "300",
                ],
                "4d82f50f20870bafcf27f3c01b56e4056005bf5b1a51729c1cc600c29018b078",
            ),
            (
                ["iterate", "--rank", "5", "--aut", "prime-basis-change", "-c", "1*[bc]", "--iters", "12"],
                "7ce1f508e4a791c56a4e739afec7e43d0f870e3fd1739e77da052ab897997a77",
            ),
            (
                [
                    "iterate", "--rank", "2", "--aut", "twist(a,b)", "-c", "1*[aabAbbb]",
                    "--limit", "1*[b]", "--level", "1", "--iters", "40",
                ],
                "b2aa7a9ec22fe52b77a6c960615c69ba312a50210920c2631d7a8a78880fc8da",
            ),
            (
                [
                    "iterate", "--rank", "5", "--aut", "phi",
                    "-c", "1*[ECDBCb] + 4/3*[adddBC]", "--level", "3", "--iters", "300",
                ],
                "4403f2f7df8938b20cc633e9651c304d9287b9e3c7542938ef09b9bbe7482cb7",
            ),
            (
                ["experiment", "primitive-limit", "-u", "aa", "--iters", "40", "--level", "3"],
                "3ffbfee5cda715a08a236f04bb8d7f986a88383531dd172032442faf7e9f72cb",
            ),
            (
                ["experiment", "primitive-limit", "-u", "aBBa", "--iters", "30", "--level", "3"],
                "3d3f4aaff9a9ff9beb62123eba1c44d5086a2a48f8b1e4d82d40e545c25b921f",
            ),
            (
                ["experiment", "theorem-main", "--iters", "4", "--level", "3", "--cap", "5"],
                "6a68a2e0ae06d2e5dc9f506673650d8715284d0b170ad0f3f5009f464d0f1476",
            ),
            (
                ["experiment", "product-minimal", "--iters", "4", "--level", "4", "--cap", "6"],
                "68aa868c353eed21230b3c12b0c296a97ce3059ad044ce6c2d9a61ca7e1fdb48",
            ),
            (
                [
                    "iterate", "--rank", "2", "--aut", "twist(a,b)",
                    "-c", "1*[aBBBBBBBBBBBBBBBBBBBB] + 2*[ab]", "--limit", "1*[b]",
                    "--level", "3", "--iters", "60",
                ],
                "dc547b5eefe632977091aa17501e79f54b1c25bb848c4c1fc1ffbadee3fbb4c8",
            ),
            (
                ["selftest", "--quick", "--seed", "0"],
                "2a7f2d7b4c0e939721f24edbec9f9cf863bb831b3c5f5321bd9943e69df2eeea",
            ),
            (
                ["selftest", "--quick", "--seed", "7"],
                "99391b72aa7ce0fcf5d414bda19b5c7ab43a309815a8aed7581b8fe23c2c2e58",
            ),
            (
                ["selftest", "--quick", "--seed", "11"],
                "26f2cb2d9dad60da81afe8fc25fb1ab131afe8cfff1158de286e307469f84994",
            ),
            (
                ["selftest", "--seed", "7"],
                "d3edcb46b3de195c4c49945200c9396da05d21028e82c22289337419f833f72a",
            ),
        ],
        ids=[
            "iterate-limit", "iterate-no-limit", "iterate-300-steps", "minimality-walk",
            "product-minimal", "theorem-main", "theorem-main-level-3", "product-minimal-level-3",
            "primitive-limit", "off-critical", "iterate-crossing-point", "iterate-kernel-no-limit",
            "iterate-root-step", "iterate-300-steps-no-limit", "primitive-limit-twist-form",
            "primitive-limit-kernel", "theorem-main-stepped-classes", "product-minimal-stepped-classes",
            "iterate-long-head", "selftest-quick-seed-0", "selftest-quick-seed-7", "selftest-quick-seed-11",
            "selftest-seed-7",
        ],
    )
    def test_iterate_golden_bytes(self, capsys, argv, digest):
        # stdout digests recorded before the current orbits moved to the integer kernel;
        # the two level-3 digests, recorded before test classes were enumerated as
        # Lyndon words, pin the tree tables' class order at 145 classes; the 300-step
        # digest, recorded before twist orbits were read off syllables, pins long orbits;
        # the last two, recorded before distances past the crossing point were read off
        # one line and before an iterate without a limit stopped counting reads, pin an
        # orbit whose dominant read takes over at K = 2 and a kernel orbit without a limit;
        # the next, recorded before the tail's syllables were checked only at root steps,
        # pins an orbit with a root step past n0 + 1; the last, recorded before norms past
        # n0 + 1 were read off a line and before the report was written without json.dumps,
        # pins a long orbit without a limit; the two after it, recorded before primitive-limit
        # stepped c -> c u on the orbit driver, pin its affine tail and its kernel steps; the
        # last two, recorded before uncertified tree-orbit classes were stepped from step 0,
        # pin caps below N + 3, where some classes are stepped and the rest read off their laws;
        # the last, recorded while twist-orbit heads were still counted off syllables, pins a
        # head of 24 kernel steps: [aB^20] must unwind its twistor run, so its onset is 23;
        # the four selftest runs, recorded while the dichotomy check still stepped the public
        # act and the extension identities looked each count up through a lambda, pin every
        # check's name, trial count and verdict
        code, out, _ = run(capsys, argv)
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest() == digest


class TestSelftest:
    def test_quick_run(self, capsys):
        code, out, _ = run(capsys, ["selftest", "--quick", "--seed", "1"])
        assert code == 0
        lines = out.splitlines()
        assert lines[-1] == "22/22 checks passed (seed 1)"
        assert all(line.startswith("ok") for line in lines[:-1])
