"""The countones benchmark.  Run from the repository root:

    python3 bench/run.py --workload verify|fuzz|sweep-wide --seed N --seconds S --trace 0|1

``--trace 0`` prints the end-to-end metrics of ``BENCHMARK.json`` with
tracing off: set-up time is the median of several fresh processes, and one
more fresh process runs the workload in a closed loop for ``--seconds``.
``--trace 1`` prints the per-layer metrics from a separate traced process.
Every pass's output is checked (see ``checks.py``).  The last stdout line is
one JSON object with ``correct``, ``attempted``, ``failed`` and ``metrics``;
the line before it records the machine, the pass times and anything that
failed.  The exit code is 0 only when every output was correct.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))  # also under python -P, which leaves the script's directory out

import checks  # noqa: E402

# Fresh processes timed for set-up besides the measuring one; half run before
# it and half after, so that set-up is sampled in two stretches of machine load.
SETUP_PROBES = 8
TIMEOUT_S = 170.0  # the whole run; a run must end within 180 s


def worker(deadline: float, *args: object) -> dict:
    """Run ``worker.py`` in a fresh process and return its JSON result."""
    try:
        proc = subprocess.run(
            [sys.executable, str(BENCH / "worker.py"), *map(str, args)],
            cwd=ROOT, capture_output=True, text=True,
            timeout=max(1.0, deadline - time.monotonic()),
        )
    except subprocess.TimeoutExpired:
        raise SystemExit(f"worker {' '.join(map(str, args))} ran past the time limit") from None
    sys.stderr.write(proc.stderr)
    if proc.returncode != 0:
        raise SystemExit(f"worker {' '.join(map(str, args))} exited {proc.returncode}")
    return json.loads(proc.stdout.splitlines()[-1])


def git_sha() -> str | None:
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                              text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def machine() -> dict:
    return {
        "cpu_count": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": f"{platform.python_implementation()} {platform.python_version()}",
        "platform": platform.platform(),
        "git_sha": git_sha(),
        "source_sha256": checks.source_digest(ROOT),
        "reference_source_sha256": checks.load_expected()["source_sha256"],
    }


def tail(times: list[float]) -> dict:
    """The highest percentile with at least ten passes beyond it, if there are enough passes."""
    n = len(times)
    if n <= 10:
        return {"percentile": None, "value_s": None, "why": f"{n} passes; 11 needed"}
    return {"percentile": round(100 * (n - 10) / n, 1), "value_s": sorted(times)[n - 11]}


def end_to_end(args: argparse.Namespace, deadline: float) -> tuple[dict, dict]:
    def probes(count: int) -> list[float]:
        return [worker(deadline, "setup", args.workload)["setup_s"] for _ in range(count)]

    before = probes(SETUP_PROBES // 2)
    run = worker(deadline, "measure", args.workload, args.seed, args.seconds)
    setups = before + [run["setup_s"]] + probes(SETUP_PROBES - SETUP_PROBES // 2)
    times = run["pass_s"]
    metrics = {
        "setup_s": statistics.median(setups),
        "wall_s": statistics.median(times),
        "items_per_s": run["items_per_pass"] * len(times) / sum(times),
        "peak_rss_mb": run["peak_rss_mb"],
    }
    details = {
        "passes": len(times),
        "items_per_pass": run["items_per_pass"],
        "pass_s": times,
        "warmup_s": run["warmup_s"],
        "wall_s_tail": tail(times),
        "setup_samples_s": setups,
        "reference_output": "recorded" if run["recorded_reference"] else
        "unrecorded seed: every pass must match the first and pass the report checks",
    }
    return metrics, {**run, "details": details}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    if not (ROOT / "src" / "countones" / "__init__.py").is_file():
        print(f"error: no countones sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    if args.workload not in {w["name"] for w in spec["workloads"]}:
        print(f"error: unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    layers = json.loads((BENCH / "layers.json").read_text())
    if set(layers) != {m["name"] for m in spec["per_layer"]}:
        print("error: bench/layers.json does not map exactly the per_layer metrics",
              file=sys.stderr)
        return 2

    deadline = time.monotonic() + TIMEOUT_S
    if args.trace:
        run = worker(deadline, "trace", args.workload, args.seed)
        declared = spec["per_layer"]
        values = run["metrics"]
        details = {k: run[k] for k in ("untraced_pass_s", "counts", "missing_hooks",
                                       "hook_errors")}
    else:
        declared = spec["end_to_end"]
        values, run = end_to_end(args, deadline)
        details = run["details"]

    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in declared}
    correct = run["failed"] == 0 and not run["problems"]
    for name, metric in metrics.items():
        print(f"{args.workload} {name} = {metric['value']:.6g} {metric['unit']}")
    print(json.dumps({"workload": args.workload, "seed": args.seed, "trace": args.trace,
                      "machine": machine(), "problems": run["problems"], **details}))
    print(json.dumps({"correct": correct, "attempted": run["attempted"],
                      "failed": run["failed"], "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
