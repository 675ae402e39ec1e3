"""currents-lab benchmark: exact CLI reports, timed end to end and traced per layer.

Usage (from the root of a checkout):

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Each report is one in-process ``currents_lab.cli.main(argv)`` call with stdout
captured, so the benchmark sees the bytes a user sees.  Every report is
checked: exit code 0, ``"passed": true``, the table row counts the inputs
imply, exact cells (integers or p/q, never floats), the exact laws the inputs
determine, and its sha256 against the parent commit's digest in
``reference_digests.json`` and against earlier runs of the same argv.

``--trace 0`` prints the end-to-end metrics, measured untraced.  ``--trace 1``
runs untraced for half the time, then runs the workload's first reports with
every public layer function wrapped (see ``tracing.py``) and prints the
per-layer metrics and the tracing overhead.  The last stdout line is the JSON
result; the lines before it name every metric with its unit and the run
context.  A record of the run goes to ``perfbench/out/``.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import platform
import resource
import shlex
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path

from tracing import TARGETS, Tracer, leftover_wrappers
from workloads import ROOT, WORKLOADS, BenchError, Plan, Workload, check_report, load_library

HERE = Path(__file__).resolve().parent
DIGESTS = HERE / "reference_digests.json"
OUT = HERE / "out"
SETUP_PROBES = 10
THREADS_ENV = "CURRENTS_LAB_THREADS"

END_TO_END_UNITS = {
    "setup_s": "s",
    "report_p50_s": "s",
    "units_per_s": "units/s",
    "peak_rss_mb": "MB",
}
LAYER_COUNTERS = {
    "words.cyclic_reduce.letters": "count",
    "words.count_subwords.letters": "count",
    "automorphisms.apply_inverse.letters_out": "count",
}


def per_layer_units() -> dict[str, str]:
    """Every per-layer metric name with its unit, in a fixed order."""
    units = {}
    for target in TARGETS:
        units[f"{target}.calls"] = "count"
        units[f"{target}.self_s"] = "s"
        units[f"{target}.errors"] = "count"
    units.update(LAYER_COUNTERS)
    units["currents.power_free_classes.useful_ratio"] = "ratio"
    units["dynamics.tree_orbit_limit.implied_length_calls"] = "count"
    units["trees.length.calls_in_tree_orbit_limit"] = "count"
    units["trace.overhead_ratio"] = "ratio"
    return units


@dataclass
class ReportResult:
    argv: tuple[str, ...]
    seconds: float
    units: int
    problems: list[str]
    traced: bool


def git_rev() -> str:
    """HEAD's commit id read from .git, or a note when this is no git checkout."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


class Runner:
    """Runs reports in-process, checks them and remembers their digests."""

    def __init__(self, lib, reference: dict[str, str]):
        self.cli = lib.cli
        self.reference = reference
        self.seen: dict[str, str] = {}
        self.digest_checked = 0

    def run(self, plan: Plan, traced: bool = False) -> ReportResult:
        out, err = io.StringIO(), io.StringIO()
        problems: list[str] = []
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            start = time.perf_counter()
            try:
                code = self.cli.main(list(plan.argv))
            except SystemExit as exc:
                code = exc.code
            except Exception:  # a crashing report is a failed report, not a crashed run
                code = None
                problems.append(traceback.format_exc(limit=3))
            seconds = time.perf_counter() - start
        stdout = out.getvalue()
        found, units = check_report(plan, code, stdout)
        problems.extend(found)
        if err.getvalue():
            problems.append(f"stderr: {err.getvalue().strip()[:200]}")
        key = shlex.join(plan.argv)
        digest = hashlib.sha256(stdout.encode()).hexdigest()
        expected = self.reference.get(key)
        if expected is not None:
            self.digest_checked += 1
            if digest != expected:
                problems.append("stdout differs from the reference digest")
        if self.seen.setdefault(key, digest) != digest:
            problems.append("stdout differs from an earlier run of the same argv")
        return ReportResult(plan.argv, seconds, 0 if problems else units, problems, traced)


def measure(runner: Runner, workload: Workload, plans: list[Plan], budget: float) -> list[ReportResult]:
    """Run whole rounds of reports in order (cycling) while the next should mostly fit."""
    results: list[ReportResult] = []
    start = time.perf_counter()
    while True:
        elapsed = time.perf_counter() - start
        if results and elapsed + workload.round_size * report_p50(workload, results) / 2 > budget:
            return results
        for _ in range(workload.round_size):
            results.append(runner.run(plans[len(results) % len(plans)]))


def report_p50(workload: Workload, results: list[ReportResult]) -> float:
    """Median report time, each report's time averaged within its round.

    On tree-orbit a round pairs theorem-main with product-minimal; the plain
    median of that two-valued mix would sit between two extreme samples.
    """
    size = workload.round_size
    rounds = [results[i : i + size] for i in range(0, len(results), size)]
    return statistics.median(statistics.fmean(r.seconds for r in rnd) for rnd in rounds)


def setup_probes(workload: str, seed: int, count: int) -> list[float]:
    """Wall times of fresh interpreters that import the library and ready the inputs."""
    times = []
    command = [sys.executable, str(HERE / "setup_probe.py"), workload, str(seed)]
    for _ in range(count):
        start = time.perf_counter()
        done = subprocess.run(command, cwd=ROOT, capture_output=True, text=True)
        times.append(time.perf_counter() - start)
        if done.returncode != 0:
            raise BenchError(f"set-up probe failed: {done.stderr.strip()}")
    return times


@dataclass
class Outcome:
    """What one run measured, before it is printed."""

    results: list[ReportResult]
    metrics: dict[str, float]
    units: dict[str, str]
    context: dict
    spans: dict | None = None
    notes: list[str] = field(default_factory=list)


def end_to_end_run(workload: Workload, seed: int, seconds: int, runner: Runner) -> Outcome:
    """Untraced reports for ``seconds``, between two halves of the set-up probes.

    Probing before and after the reports spreads ``setup_s`` over the run, so
    a slow spell of the host moves it less.
    """
    setup = setup_probes(workload.name, seed, SETUP_PROBES // 2)
    results = measure(runner, workload, workload.plans(seed), seconds)
    setup += setup_probes(workload.name, seed, SETUP_PROBES - SETUP_PROBES // 2)
    metrics = {
        "setup_s": statistics.median(setup),
        "report_p50_s": report_p50(workload, results),
        "units_per_s": sum(r.units for r in results) / sum(r.seconds for r in results),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    context = {
        "report_p50_samples": len(results) // workload.round_size,
        "setup_probes": SETUP_PROBES,
    }
    return Outcome(results, metrics, END_TO_END_UNITS, context)


def traced_run(workload: Workload, seed: int, seconds: int, runner: Runner) -> Outcome:
    """Untraced reports for half of ``seconds``, then the first reports traced."""
    plans = workload.plans(seed)
    untraced = measure(runner, workload, plans, seconds / 2)
    tracer = Tracer()
    tracer.install()
    try:
        traced = [runner.run(plan, traced=True) for plan in plans[: workload.traced_reports]]
    finally:
        tracer.uninstall()
    baseline = untraced[: len(traced)]  # the same reports, untraced
    metrics = layer_metrics(tracer, report_p50(workload, traced) / report_p50(workload, baseline))
    context = {
        "traced_reports": len(traced),
        "spans": tracer.span_count(),
        "absent_targets": tracer.absent,
    }
    spans = {
        "functions": tracer.names,
        "fid": list(tracer.fids),
        "parent": list(tracer.parents),
        "start": list(tracer.starts),
        "end": list(tracer.ends),
        "error": list(tracer.errors),
    }
    notes = [f"binding not restored: {name}" for name in leftover_wrappers()]
    return Outcome(untraced + traced, metrics, per_layer_units(), context, spans, notes)


def layer_metrics(tracer: Tracer, overhead: float) -> dict[str, float]:
    metrics: dict[str, float] = {}
    for target, row in tracer.per_function().items():
        for key, value in row.items():
            metrics[f"{target}.{key}"] = value
    counts = tracer.counters
    for name in LAYER_COUNTERS:
        metrics[name] = counts.get(name, 0)
    candidates = counts.get("power_free.candidates", 0)
    metrics["currents.power_free_classes.useful_ratio"] = (
        counts.get("power_free.returned", 0) / candidates if candidates else 0.0
    )
    metrics["dynamics.tree_orbit_limit.implied_length_calls"] = counts.get(
        "tree_orbit_limit.implied_length_calls", 0
    )
    metrics["trees.length.calls_in_tree_orbit_limit"] = tracer.calls_below(
        "trees.length", "dynamics.tree_orbit_limit"
    )
    metrics["trace.overhead_ratio"] = overhead
    return metrics


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")

    os.environ.pop(THREADS_ENV, None)
    workload = WORKLOADS[args.workload]
    try:
        runner = Runner(load_library(), json.loads(DIGESTS.read_text())["digests"])
        run = traced_run if args.trace else end_to_end_run
        outcome = run(workload, args.seed, args.seconds, runner)
    except (BenchError, OSError, ValueError, KeyError) as exc:
        print(f"perfbench: cannot run: {exc}", file=sys.stderr)
        return 2

    results = outcome.results
    failed = [r for r in results if r.problems]
    context = {
        "workload": workload.name,
        "unit": workload.unit,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "python": platform.python_version(),
        "cpu_count": os.cpu_count(),
        "git_rev": git_rev(),
        THREADS_ENV: "unset (sequential path)",
        "reports": len(results),
        "reports_with_reference_digest": runner.digest_checked,
        "argvs": sorted({shlex.join(r.argv) for r in results}),
        **outcome.context,
    }
    print(f"perfbench {workload.name} seed={args.seed} seconds={args.seconds} trace={args.trace}")
    print("context " + json.dumps(context, sort_keys=True))
    for report in failed[:5]:
        print(f"FAILED {shlex.join(report.argv)}: {'; '.join(report.problems)[:500]}")
    for note in outcome.notes:
        print(f"FAILED {note}")
    print(f"{'fail_ratio':46s} {len(failed) / len(results):.6g} ratio ({len(failed)}/{len(results)} reports)")
    for name, value in outcome.metrics.items():
        print(f"{name:46s} {value:.6g} {outcome.units[name]}")

    OUT.mkdir(exist_ok=True)
    record = {
        "context": context,
        "metrics": outcome.metrics,
        "reports": [
            {"argv": list(r.argv), "seconds": r.seconds, "traced": r.traced, "problems": r.problems}
            for r in results
        ],
        "spans": outcome.spans,
    }
    (OUT / f"{workload.name}-seed{args.seed}-trace{args.trace}.json").write_text(json.dumps(record))
    result = {
        "correct": not failed and not outcome.notes,
        "attempted": len(results),
        "failed": len(failed),
        "metrics": {
            name: {"value": value, "unit": outcome.units[name]}
            for name, value in outcome.metrics.items()
        },
    }
    print(json.dumps(result))
    return 0




if __name__ == "__main__":
    sys.exit(main())
