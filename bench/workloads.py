"""The benchmark's workloads: the ``countones`` arguments each pass runs.

This module imports nothing, so a set-up probe can read it before timing
``import countones`` without importing anything the package would import.
"""

FUZZ_COUNT = 10_000
FUZZ_DIVERGENCE_COUNT = max(1, FUZZ_COUNT // 10)  # `countones fuzz` probes count // 10 pairs
SWEEP_WIDTH = 64
SWEEP_ALGO = "combined"
SWEEP_ROWS = 4096  # rows `countones sweep` samples when the width is too wide to enumerate


def cli_args(workload: str, seed: int) -> list[str]:
    """The ``countones`` arguments of one pass.  ``verify`` is exhaustive and ignores the seed."""
    if workload == "verify":
        return ["verify"]
    if workload == "fuzz":
        return ["fuzz", "--seed", str(seed), "--count", str(FUZZ_COUNT)]
    if workload == "sweep-wide":
        return ["sweep", "--width", str(SWEEP_WIDTH), "--algo", SWEEP_ALGO, "--seed", str(seed)]
    raise ValueError(f"unknown workload {workload!r}")


def setup_args(workload: str) -> list[str] | None:
    """CLI work that belongs to set-up beyond ``import countones``: building the wide program."""
    if workload == "sweep-wide":
        return ["gen", "--algo", SWEEP_ALGO, "--width", str(SWEEP_WIDTH)]
    return None
