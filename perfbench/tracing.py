"""Span tracing around the public functions of each currents_lab layer.

A traced function is wrapped by rebinding every attribute of every loaded
``currents_lab`` module that holds the original function object (and, for a
method, the attribute of its class), so a call reaches the wrapper whichever
module it is looked up in: ``trees.length`` is also ``dynamics.tree_length``.
Each call appends one span (function, parent span, start, end, error flag) to
in-memory arrays; nothing is written while spans are recorded.  ``uninstall``
puts every original object back, and ``leftover_wrappers`` proves it did.

The layer code runs single-threaded (``CURRENTS_LAB_THREADS`` is unset by the
benchmark), so one stack of open spans gives every span its parent.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import sys
import time
from array import array
from collections import Counter
from typing import Callable, Sequence

PACKAGE = "currents_lab"
MARK = "__perfbench_traced__"

# Public functions wrapped in a traced run, named ``module.qualname``.
TARGETS: tuple[str, ...] = (
    "words.cyclic_reduce",
    "words.count_subwords",
    "words.primitive_root",
    "words.occurrences",
    "words.free_reduce",
    "automorphisms.apply_inverse",
    "automorphisms.apply",
    "automorphisms.apply_cyclic",
    "currents.act",
    "currents.projective_vector",
    "currents.projective_distance",
    "currents.coordinate",
    "currents.power_free_classes",
    "trees.length",
    "trees.length_britton",
    "trees.length_limit",
    "trees.intersection_form",
    "trees.projective_tree_vector",
    "dynamics.tree_orbit_limit",
    "dynamics.iterate_current",
    "dynamics.escape_from_critical",
    "dynamics.walk_to_target",
    "dynamics.run_theorem_main",
    "dynamics.run_theorem_back",
    "dynamics.run_product_minimal",
    "dynamics.run_primitive_limit",
    "dynamics.run_off_critical_perturbation",
    "dynamics.run_outlook_identity",
    "dynamics.run_minimality_walk",
    "dynamics.ConvergenceReport.to_json",
    "corpus.random_current",
    "parallel.parallel_map",
    "cli.main",
    "selftest.run_selftest",
)


def candidate_words(rank: int, max_len: int) -> int:
    """Reduced words of length 1..max_len: sum of 2k(2k-1)^(n-1)."""
    return sum(2 * rank * (2 * rank - 1) ** (n - 1) for n in range(1, max_len + 1))


def class_count(rank: int, max_len: int) -> int:
    """Power-free conjugacy classes of length <= max_len, one per inverse pair.

    Cyclically reduced words of length n number (2k-1)^n + 1 + (k-1)(1+(-1)^n);
    Moebius inversion over the divisors of n keeps the primitive ones, each
    class has n rotations, and no nontrivial class equals its inverse.
    """
    def cyclically_reduced(n: int) -> int:
        return (2 * rank - 1) ** n + 1 + (rank - 1) * (1 + (-1) ** n)

    total = 0
    for n in range(1, max_len + 1):
        primitive = sum(
            _moebius(n // d) * cyclically_reduced(d) for d in range(1, n + 1) if n % d == 0
        )
        total += primitive // (2 * n)
    return total


def _moebius(n: int) -> int:
    result = 1
    p = 2
    while p * p <= n:
        if n % p == 0:
            n //= p
            if n % p == 0:
                return 0
            result = -result
        p += 1
    return -result if n > 1 else result


def _count_letters(name: str) -> Callable:
    def hook(counters: Counter, bound: Callable, args, kwargs, result) -> None:
        counters[name] += len(args[0])
    return hook


def _count_letters_out(name: str) -> Callable:
    def hook(counters: Counter, bound: Callable, args, kwargs, result) -> None:
        counters[name] += len(result)
    return hook


def _power_free_hook(counters: Counter, bound: Callable, args, kwargs, result) -> None:
    call = bound(args, kwargs)
    counters["power_free.returned"] += len(result)
    counters["power_free.candidates"] += candidate_words(call["basis"].rank, call["max_len"])


def _orbit_limit_hook(counters: Counter, bound: Callable, args, kwargs, result) -> None:
    call = bound(args, kwargs)
    classes = class_count(call["tree"].basis.rank, call["level"])
    counters["tree_orbit_limit.implied_length_calls"] += (call["cap"] + 1) * classes


# Extra counters recorded after a call returns normally.
HOOKS: dict[str, Callable] = {
    "words.cyclic_reduce": _count_letters("words.cyclic_reduce.letters"),
    "words.count_subwords": _count_letters("words.count_subwords.letters"),
    "automorphisms.apply_inverse": _count_letters_out("automorphisms.apply_inverse.letters_out"),
    "currents.power_free_classes": _power_free_hook,
    "dynamics.tree_orbit_limit": _orbit_limit_hook,
}


def _binder(fn: Callable) -> Callable:
    """Maps a call's arguments to parameter names, defaults filled in."""
    signature = inspect.signature(fn)

    def bind(args, kwargs) -> dict:
        bound = signature.bind(*args, **kwargs)
        bound.apply_defaults()
        return bound.arguments

    return bind


def _package_modules() -> list:
    return [
        module
        for name, module in sorted(sys.modules.items())
        if module is not None and (name == PACKAGE or name.startswith(PACKAGE + "."))
    ]


def _resolve(target: str):
    """(owner, attribute, original) for a target, or None when it does not exist."""
    module_name, _, qualname = target.partition(".")
    try:
        owner = importlib.import_module(f"{PACKAGE}.{module_name}")
    except ImportError:
        return None
    *outer, attr = qualname.split(".")
    for part in outer:
        owner = getattr(owner, part, None)
        if not isinstance(owner, type):
            return None
    original = vars(owner).get(attr)
    if not inspect.isfunction(original):
        return None
    return owner, attr, original


class Tracer:
    """Records spans for the wrapped functions while installed."""

    def __init__(self, targets: Sequence[str] = TARGETS):
        self.names = list(targets)
        self.fids = array("i")
        self.parents = array("i")
        self.starts = array("d")
        self.ends = array("d")
        self.errors = array("b")
        self.counters: Counter = Counter()
        self.absent: list[str] = []
        self._stack: list[int] = []
        self._bindings: list[tuple[object, str, object]] = []

    # -- installation ------------------------------------------------------

    def install(self) -> None:
        if self._bindings:
            raise RuntimeError("tracer is already installed")
        resolved = [_resolve(target) for target in self.names]
        modules = _package_modules()
        for index, (target, found) in enumerate(zip(self.names, resolved)):
            if found is None:
                self.absent.append(target)
                continue
            owner, attr, original = found
            wrapper = self._wrap(index, original, HOOKS.get(target))
            if isinstance(owner, type):
                self._rebind(owner, attr, original, wrapper)
                continue
            for module in modules:
                for name, value in list(vars(module).items()):
                    if value is original:
                        self._rebind(module, name, original, wrapper)

    def _rebind(self, owner, attr: str, original, wrapper) -> None:
        setattr(owner, attr, wrapper)
        self._bindings.append((owner, attr, original))

    def uninstall(self) -> None:
        while self._bindings:
            owner, attr, original = self._bindings.pop()
            setattr(owner, attr, original)

    def _wrap(self, index: int, fn: Callable, hook: Callable | None) -> Callable:
        fids, parents, starts, ends, errors = (
            self.fids, self.parents, self.starts, self.ends, self.errors
        )
        stack = self._stack
        counters = self.counters
        clock = time.perf_counter
        bind = _binder(fn) if hook is not None else None

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = len(fids)
            fids.append(index)
            parents.append(stack[-1] if stack else -1)
            ends.append(0.0)
            errors.append(0)
            stack.append(span)
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                ends[span] = clock()
                errors[span] = 1
                stack.pop()
                raise
            ends[span] = clock()
            stack.pop()
            if hook is not None:
                hook(counters, bind, args, kwargs, result)
            return result

        setattr(traced, MARK, True)
        return traced

    # -- results -----------------------------------------------------------

    def span_count(self) -> int:
        return len(self.fids)

    def per_function(self) -> dict[str, dict[str, float]]:
        """calls, self_s and errors for every target (zeros when never called)."""
        table = {name: {"calls": 0, "self_s": 0.0, "errors": 0} for name in self.names}
        own = self_times(self.parents, self.starts, self.ends)
        for span, fid in enumerate(self.fids):
            row = table[self.names[fid]]
            row["calls"] += 1
            row["self_s"] += own[span]
            row["errors"] += self.errors[span]
        return table

    def calls_below(self, callee: str, ancestor: str) -> int:
        """Calls of ``callee`` made (at any depth) inside ``ancestor`` calls that returned.

        Relies on spans being recorded parent first, as ``_wrap`` does.
        """
        callee_id = self.names.index(callee)
        ancestor_id = self.names.index(ancestor)
        inside = array("i", [-1]) * len(self.fids)
        count = 0
        for span, fid in enumerate(self.fids):
            parent = self.parents[span]
            owner = inside[parent] if parent >= 0 else -1
            if fid == ancestor_id and owner < 0:
                owner = span
            inside[span] = owner
            if fid == callee_id and owner >= 0 and not self.errors[owner]:
                count += 1
        return count


def self_times(parents: Sequence[int], starts: Sequence[float], ends: Sequence[float]) -> list[float]:
    """Each span's duration minus the part of it that its direct children cover.

    Children are clipped to their parent's interval and overlapping or
    touching children are merged first, so no instant is subtracted twice.
    """
    children: dict[int, list[int]] = {}
    for span, parent in enumerate(parents):
        if parent >= 0:
            children.setdefault(parent, []).append(span)
    result = []
    for span in range(len(parents)):
        lo, hi = starts[span], ends[span]
        covered = 0.0
        reach = lo
        for child in sorted(children.get(span, ()), key=lambda c: starts[c]):
            begin = max(starts[child], reach)
            finish = min(ends[child], hi)
            if finish > begin:
                covered += finish - begin
                reach = finish
        result.append((hi - lo) - covered)
    return result


def leftover_wrappers() -> list[str]:
    """Attributes of currents_lab modules and classes that still hold a wrapper."""
    found = []
    for module in _package_modules():
        for name, value in vars(module).items():
            if getattr(value, MARK, False):
                found.append(f"{module.__name__}.{name}")
            if isinstance(value, type) and value.__module__ == module.__name__:
                for attr, member in vars(value).items():
                    if getattr(member, MARK, False):
                        found.append(f"{module.__name__}.{name}.{attr}")
    return found
