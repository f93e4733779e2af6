"""One benchmark process for one workload: set-up probe, measured run or traced run.

``run.py`` starts it as a fresh process, so ``setup_s`` and ``peak_rss_mb``
belong to this workload alone:

    python3 bench/worker.py setup   WORKLOAD
    python3 bench/worker.py measure WORKLOAD SEED SECONDS
    python3 bench/worker.py trace   WORKLOAD SEED

It drives ``countones.cli.main`` in-process in a closed loop (one client;
each pass starts when the previous one returns), checks every pass's stdout
and prints one JSON object on its own stdout.
"""

import contextlib
import gc
import io
import os
import sys
from time import perf_counter

BENCH = os.path.dirname(os.path.abspath(__file__))
sys.path[:0] = [BENCH, os.path.join(os.path.dirname(BENCH), "src")]

import workloads as wl  # noqa: E402

# Set-up is timed from here, before anything the package imports is loaded;
# the benchmark's other modules are imported only once set-up is done.
STARTED = perf_counter()

MIN_PASSES = 3
HARD_CAP_S = 120.0  # since process start; keeps a badly regressed tree inside the time limit


def run_pass(cli, argv: list[str]) -> tuple[float, str, int]:
    """Wall time, stdout and exit code of one ``countones`` invocation.

    ``cli.main`` is looked up on every call, so a traced pass enters its wrapper.
    """
    buf = io.StringIO()
    gc.collect()
    start = perf_counter()
    with contextlib.redirect_stdout(buf):
        try:
            code = cli.main(argv)
        except SystemExit as exc:
            code = exc.code if isinstance(exc.code, int) else 1
    elapsed = perf_counter() - start
    return elapsed, buf.getvalue(), code


def set_up(workload: str):
    """Import the package and do the workload's set-up; returns (cli module, setup_s)."""
    import countones.cli as cli

    extra = wl.setup_args(workload)
    if extra is not None:
        _, _, code = run_pass(cli, extra)
        if code != 0:
            raise SystemExit(f"set-up command {extra} exited {code}")
    return cli, perf_counter() - STARTED


class Passes:
    """Checked passes of one workload at one seed."""

    def __init__(self, workload: str, seed: int, cli) -> None:
        import checks

        self.cli = cli
        self.checker = checks.Checker(workload, seed, checks.load_expected())
        self.argv = wl.cli_args(workload, seed)
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.output_bytes = 0

    def run(self) -> float:
        elapsed, out, code = run_pass(self.cli, self.argv)
        failed, problems = self.checker.failed_items(out, code)
        self.attempted += self.checker.items
        self.failed += failed
        self.problems += problems
        self.output_bytes = len(out.encode())
        return elapsed


def measure(passes: Passes, seconds: float) -> dict:
    """A warm-up pass, then timed passes until the next one would end after ``seconds``."""
    import resource
    import statistics

    warmup = passes.run()
    start = perf_counter()
    times: list[float] = []
    while True:
        estimate = statistics.median(times) if times else warmup
        if times and perf_counter() - STARTED + estimate > HARD_CAP_S:
            break
        if len(times) >= MIN_PASSES and perf_counter() - start + estimate > seconds:
            break
        times.append(passes.run())
    return {
        "warmup_s": warmup,
        "pass_s": times,
        "items_per_pass": passes.checker.items,
        "recorded_reference": passes.checker.recorded,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }


def trace(passes: Passes) -> dict:
    """One untraced pass for the overhead base, then two traced passes whose counts must agree."""
    import tracing

    passes.run()  # warm-up
    untraced = passes.run()
    runs = []
    for _ in range(2):
        tracer = tracing.Tracer()
        tracer.install()
        try:
            elapsed = passes.run()
        finally:
            tracer.uninstall()
        metrics, counts = tracing.layer_metrics(tracer, passes.checker.items)
        metrics["cli.output_bytes"] = passes.output_bytes
        metrics["trace_overhead_ratio"] = elapsed / untraced
        runs.append((metrics, counts, tracer))

    (first, counts_a, tracer_a), (second, counts_b, tracer_b) = runs
    self_check = []
    if counts_a != counts_b:
        diff = sorted(k for k in counts_a.keys() | counts_b.keys()
                      if counts_a.get(k) != counts_b.get(k))
        self_check.append(f"traced counts differ between two runs of one seed: {diff[:8]}")
    leaks = tracer_a.leaks() + tracer_b.leaks()
    if leaks:
        self_check.append(f"wrappers left installed after the traced run: {leaks[:8]}")
    if self_check:  # fails the last pass's items
        passes.failed += passes.checker.items
        passes.problems += self_check
    # Counts are equal in both runs; times are the mean of the two.
    timed = ("self_s", "_per_s", "overhead_ratio")
    return {
        "metrics": {k: (v + second[k]) / 2 if k.endswith(timed) else v
                    for k, v in first.items()},
        "counts": counts_a,
        "untraced_pass_s": untraced,
        "missing_hooks": tracer_a.missing,
        "hook_errors": (tracer_a.hook_errors + tracer_b.hook_errors)[:5],
    }


def main() -> None:
    mode, workload, *rest = sys.argv[1:]
    cli, setup_s = set_up(workload)
    import json

    result: dict = {"setup_s": setup_s}
    if mode in ("measure", "trace"):
        passes = Passes(workload, int(rest[0]), cli)
        result.update(measure(passes, float(rest[1])) if mode == "measure" else trace(passes))
        result.update(attempted=passes.attempted, failed=passes.failed,
                      problems=passes.problems[:8])
    elif mode != "setup":
        raise SystemExit(f"unknown mode {mode!r}")
    print(json.dumps(result))


if __name__ == "__main__":
    main()
