"""Spans and counts for the traced run, recorded from outside the package.

``Tracer.install`` wraps the public functions listed in ``HOOKS``.  Each call
of a wrapped function records one span -- name, start, end and the span that
was open when it was called -- and adds counts read from its arguments and
result.  Spans stay in memory; per-layer self time is a span's duration less
the time its child spans cover.

The package binds names at import time (``from .vm import parse_program``),
so a function has one binding per importing module, and ``cli._ALGOS`` holds
the generators in a dict.  ``install`` replaces every binding it finds in
every loaded ``countones`` module; methods are replaced on their class, which
also covers ``execute``.  ``uninstall`` puts every original back, and
``leaks`` proves that no wrapper is left for an untraced pass to hit.
"""

from __future__ import annotations

import importlib
import sys
from array import array
from collections import Counter
from time import perf_counter
from typing import Any, Callable


def _arg(args: tuple, kwargs: dict, pos: int, name: str) -> Any:
    return args[pos] if len(args) > pos else kwargs[name]


def _run_name(args: tuple, kwargs: dict, result: Any) -> str:
    return "vm.run_traced" if result.trace is not None else "vm.run"


def _run_counts(counts: Counter, args: tuple, kwargs: dict, result: Any) -> None:
    key = _run_name(args, kwargs, result)
    steps = result.counters.total_steps
    counts[f"{key}.steps"] += steps
    counts[f"{key}.incdec_steps"] += result.counters.incdec_steps
    halt = result.halt_reason.name.lower()
    counts[f"vm.run.halt.{halt}"] += 1
    if result.trace is not None:
        counts["vm.run_traced.snapshots"] += len(result.trace)
        counts[f"vm.run_traced.halt.{halt}"] += 1
    if halt == "budget_exhausted":
        counts["vm.run.budget_steps"] += steps


def _parse_counts(counts: Counter, args: tuple, kwargs: dict, result: Any) -> None:
    counts["vm.parse_program.instructions"] += len(result)


def _generate_counts(counts: Counter, args: tuple, kwargs: dict, result: Any) -> None:
    counts["programs.generate.instructions"] += len(result.program)


def _invariant_counts(counts: Counter, args: tuple, kwargs: dict, result: Any) -> None:
    trace = _arg(args, kwargs, 0, "trace")
    params = _arg(args, kwargs, 1, "params")
    counts["adversary.check_prefix_invariant.snapshots_checked"] += result.snapshots_checked
    counts["adversary.check_prefix_invariant.snapshots_offered"] += len(trace)
    # A snapshot follows every instruction and each INC/DEC raises the index
    # by one, so the window 1 <= i <= m was checked iff m >= 1 and some
    # INC/DEC ran.
    if params.m >= 1 and trace and trace[-1].incdec_index >= 1:
        counts["fuzzing.window_reached"] += 1


# (module, attribute path, span name or function of the call, count hook)
HOOKS: tuple[tuple[str, str, str | Callable, Callable | None], ...] = (
    ("countones.words", "popcount_naive", "words.popcount_naive", None),
    ("countones.words", "Word.__init__", "words.word_init", None),
    ("countones.vm", "Machine.run", _run_name, _run_counts),
    ("countones.vm", "parse_program", "vm.parse_program", _parse_counts),
    ("countones.vm", "diff_traces", "vm.diff_traces", None),
    ("countones.programs", "wegner_program", "programs.generate", _generate_counts),
    ("countones.programs", "dense_program", "programs.generate", _generate_counts),
    ("countones.programs", "combined_program", "programs.generate", _generate_counts),
    ("countones.programs", "twobit_program", "programs.generate", _generate_counts),
    ("countones.programs", "constant_program", "programs.generate", _generate_counts),
    ("countones.adversary", "check_prefix_invariant", "adversary.check_prefix_invariant",
     _invariant_counts),
    ("countones.adversary", "lower_bound_audit", "adversary.lower_bound_audit", None),
    ("countones.adversary", "msb_flip_probe", "adversary.msb_flip_probe", None),
    ("countones.fuzzing", "random_program_text", "fuzzing.random_program_text", None),
    ("countones.fuzzing", "fuzz_invariant", "fuzzing.fuzz_invariant", None),
    ("countones.fuzzing", "fuzz_divergence", "fuzzing.fuzz_divergence", None),
    ("countones.cli", "verify_suite", "cli.verify_suite", None),
    ("countones.cli", "sweep_rows", "cli.sweep_rows", None),
    ("countones.cli", "main", "cli.main", None),
)


class Tracer:
    def __init__(self) -> None:
        self.names: list[str] = []
        self.parents = array("q")
        self.starts = array("d")
        self.ends = array("d")  # the wrapped call returned
        self.dones = array("d")  # the wrapper's own bookkeeping finished
        self.counts: Counter[str] = Counter()
        self.hook_errors: list[str] = []
        self.missing: list[str] = []
        self._stack = [-1]
        self._patched: list[tuple[Any, str, Any]] = []
        self._wrappers: set[int] = set()

    def wrap(self, fn: Callable, name: str | Callable, after: Callable | None) -> Callable:
        names, parents, starts, ends, dones = (
            self.names, self.parents, self.starts, self.ends, self.dones)
        stack, counts = self._stack, self.counts

        def wrapper(*args: Any, **kwargs: Any) -> Any:
            idx = len(names)
            names.append(name if isinstance(name, str) else "")
            parents.append(stack[-1])
            starts.append(0.0)
            ends.append(0.0)
            dones.append(0.0)
            stack.append(idx)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                starts[idx] = start
                ends[idx] = dones[idx] = end
            try:
                if not isinstance(name, str):
                    names[idx] = name(args, kwargs, result)
                if after is not None:
                    after(counts, args, kwargs, result)
            except (AttributeError, IndexError, KeyError, TypeError) as exc:
                # The public API moved under the hook: keep the pass alive and
                # report the hook as broken instead of counting wrongly.
                self.hook_errors.append(f"{getattr(fn, '__qualname__', fn)}: {exc!r}")
            dones[idx] = perf_counter()
            return result

        self._wrappers.add(id(wrapper))
        return wrapper

    def install(self) -> None:
        modules = _package_modules()
        for module_name, path, name, after in HOOKS:
            owner_path, _, attr = path.rpartition(".")
            owner: Any = importlib.import_module(module_name)
            try:
                for part in filter(None, owner_path.split(".")):
                    owner = getattr(owner, part)
                original = getattr(owner, attr)
            except AttributeError:
                self.missing.append(f"{module_name}.{path}")
                continue
            wrapper = self.wrap(original, name, after)
            if isinstance(owner, type):
                self._patch(owner, attr, original, wrapper)
                continue
            for namespace in modules:
                for key, value in list(namespace.items()):
                    if value is original:
                        self._patch(namespace, key, original, wrapper)
                    elif isinstance(value, dict):
                        for dkey, dvalue in list(value.items()):
                            if dvalue is original:
                                self._patch(value, dkey, original, wrapper)

    def _patch(self, target: Any, key: str, original: Any, replacement: Any) -> None:
        _set(target, key, replacement)
        self._patched.append((target, key, original))

    def uninstall(self) -> None:
        while self._patched:
            target, key, original = self._patched.pop()
            _set(target, key, original)

    def leaks(self) -> list[str]:
        """Bindings that still hold one of this tracer's wrappers."""
        found = []
        for namespace in _package_modules():
            for key, value in namespace.items():
                values = [value, *value.values()] if isinstance(value, dict) else [value]
                if isinstance(value, type):
                    values += list(vars(value).values())
                if any(id(v) in self._wrappers for v in values):
                    found.append(f"{namespace.get('__name__')}.{key}")
        return found

    def self_times(self) -> dict[str, float]:
        covered = [0.0] * len(self.names)
        for i, parent in enumerate(self.parents):
            if parent >= 0:
                covered[parent] += self.dones[i] - self.starts[i]
        totals: dict[str, float] = {}
        for i, name in enumerate(self.names):
            totals[name] = totals.get(name, 0.0) + self.ends[i] - self.starts[i] - covered[i]
        return totals

    def calls(self) -> Counter[str]:
        return Counter(self.names)


def _package_modules() -> list[dict]:
    return [
        vars(module)
        for name, module in list(sys.modules.items())
        if module is not None and (name == "countones" or name.startswith("countones."))
    ]


def _set(target: Any, key: str, value: Any) -> None:
    if isinstance(target, dict):
        target[key] = value
    else:
        setattr(target, key, value)


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(tracer: Tracer, items: int) -> tuple[dict[str, float], dict[str, int]]:
    """Per-layer metrics of one traced pass, and the exact counts behind them."""
    self_s = tracer.self_times()
    calls = tracer.calls()
    c = tracer.counts
    counts: dict[str, int] = {f"{name}.calls": n for name, n in sorted(calls.items())}
    counts.update(sorted(c.items()))

    m: dict[str, float] = {}
    for fn in ("words.popcount_naive", "words.word_init", "vm.run", "vm.run_traced",
               "vm.parse_program", "vm.diff_traces", "programs.generate",
               "adversary.check_prefix_invariant", "adversary.lower_bound_audit",
               "adversary.msb_flip_probe", "fuzzing.random_program_text"):
        m[f"{fn}.calls"] = calls[fn]
        m[f"{fn}.self_s"] = self_s.get(fn, 0.0)
    for fn in ("fuzzing.fuzz_invariant", "fuzzing.fuzz_divergence", "cli.main",
               "cli.verify_suite", "cli.sweep_rows"):
        m[f"{fn}.self_s"] = self_s.get(fn, 0.0)

    for key in ("vm.run.steps", "vm.run.incdec_steps", "vm.run_traced.steps",
                "vm.run_traced.snapshots", "vm.parse_program.instructions",
                "programs.generate.instructions",
                "adversary.check_prefix_invariant.snapshots_checked",
                "vm.run.halt.out", "vm.run.halt.budget_exhausted", "vm.run.halt.fell_off_end"):
        m[key] = c[key]
    m["vm.run.steps_per_s"] = _ratio(c["vm.run.steps"], m["vm.run.self_s"])
    m["vm.run_traced.steps_per_s"] = _ratio(c["vm.run_traced.steps"], m["vm.run_traced.self_s"])
    m["vm.run.budget_step_ratio"] = _ratio(
        c["vm.run.budget_steps"], c["vm.run.steps"] + c["vm.run_traced.steps"])
    m["vm.run.runs_per_item"] = _ratio(calls["vm.run"] + calls["vm.run_traced"], items)
    m["adversary.window_ratio"] = _ratio(
        c["adversary.check_prefix_invariant.snapshots_checked"],
        c["adversary.check_prefix_invariant.snapshots_offered"])
    m["fuzzing.window_reached_ratio"] = _ratio(
        c["fuzzing.window_reached"], calls["adversary.check_prefix_invariant"])
    m["fuzzing.budget_exhausted_ratio"] = _ratio(
        c["vm.run_traced.halt.budget_exhausted"], calls["vm.run_traced"])
    return m, counts
