"""Record the reference outputs that ``run.py`` checks every pass against.

Run from the repository root, at the tree whose outputs are the reference:

    python3 bench/record.py

It writes ``bench/expected.json``:

* ``verify``: the digest of ``countones verify`` stdout and its item count
  (inputs checked: one per input, program and width).
* ``fuzz``: the stdout digest of ``countones fuzz --seed S --count 10000``
  for each seed in ``FUZZ_SEEDS``.  Other seeds are still checked for a
  clean report and for identical output on every pass of a run.
* ``sweep-wide``: ``(incdec_steps, total_steps)`` of the width-64
  ``combined`` program for each count of ones.  Both depend only on that
  count (checked here on sampled inputs for every count), so the whole
  ``sweep`` output can be rebuilt for any seed.

Outputs must stay byte-identical across changes, so re-record only when an
output contract changes on purpose.
"""

from __future__ import annotations

import contextlib
import io
import json
import random
import re
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import checks  # noqa: E402
import workloads as wl  # noqa: E402
from countones.cli import main  # noqa: E402
from countones.programs import combined_program  # noqa: E402
from countones.vm import HaltReason, execute  # noqa: E402
from countones.words import Word  # noqa: E402

FUZZ_SEEDS = range(100)
SWEEP_SAMPLES_PER_COUNT = 16
SWEEP_CHECK_SEEDS = range(4)


def run_cli(argv: list[str]) -> str:
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = main(argv)
    if code != 0:
        raise SystemExit(f"countones {' '.join(argv)} exited {code}")
    return buf.getvalue()


def sweep_steps_by_nu() -> list[list[int]]:
    program = combined_program(wl.SWEEP_WIDTH).program
    rng = random.Random(0)
    table = []
    for nu in range(wl.SWEEP_WIDTH + 1):
        seen = set()
        for _ in range(SWEEP_SAMPLES_PER_COUNT):
            value = sum(1 << b for b in rng.sample(range(wl.SWEEP_WIDTH), nu))
            res = execute(program, Word(wl.SWEEP_WIDTH, value))
            if res.halt_reason is not HaltReason.OUT or res.output.value != nu:
                raise SystemExit(f"combined miscounts {value:#x}")
            seen.add((res.counters.incdec_steps, res.counters.total_steps))
        if len(seen) != 1:
            raise SystemExit(f"steps at nu={nu} depend on more than nu: {sorted(seen)}")
        table.append(list(seen.pop()))
    return table


def main_record() -> None:
    verify_out = run_cli(wl.cli_args("verify", 0))
    items = sum(
        1 << int(n)
        for n in re.findall(r"^PASS oracle-equivalence \S+ n=(\d+):", verify_out, re.M)
    )

    steps = sweep_steps_by_nu()
    for seed in SWEEP_CHECK_SEEDS:
        got = run_cli(wl.cli_args("sweep-wide", seed))
        if got != checks.sweep_expected_text(seed, steps):
            raise SystemExit(f"rebuilt sweep output differs from the CLI at seed {seed}")

    fuzz = {}
    for seed in FUZZ_SEEDS:
        fuzz[str(seed)] = checks.digest(run_cli(wl.cli_args("fuzz", seed)))
        print(f"fuzz seed {seed} recorded", file=sys.stderr)

    expected = {
        "source_sha256": checks.source_digest(ROOT),
        "verify": {"digest": checks.digest(verify_out), "items": items},
        "fuzz": {"count": wl.FUZZ_COUNT, "digests": fuzz},
        "sweep-wide": {"width": wl.SWEEP_WIDTH, "algo": wl.SWEEP_ALGO, "steps_by_nu": steps},
    }
    checks.EXPECTED_PATH.write_text(json.dumps(expected, indent=1) + "\n")


if __name__ == "__main__":
    main_record()
