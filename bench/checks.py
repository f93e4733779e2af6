"""Output checks: every pass's stdout against the reference tree's output.

Each workload's stdout must equal the output of the reference tree recorded
in ``expected.json`` (see ``record.py``), and independent checks that need
no recording back that up: ``verify`` must end ``OK: n/n``, ``fuzz`` must
report zero violations over the requested run counts, and every
``sweep-wide`` row is rebuilt from the seed with Python's own
``int.bit_count`` as the oracle.
"""

from __future__ import annotations

import hashlib
import json
import random
import re
from dataclasses import dataclass, field
from pathlib import Path

import workloads as wl

EXPECTED_PATH = Path(__file__).with_name("expected.json")
SWEEP_HEADER = "input_bits,nu,output,incdec_steps,total_steps"


def digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def source_digest(root: Path) -> str:
    """Digest of the package sources, naming the tree a result came from."""
    h = hashlib.sha256()
    for path in sorted((root / "src" / "countones").glob("*.py")):
        h.update(path.name.encode() + b"\0" + path.read_bytes() + b"\0")
    return h.hexdigest()


def load_expected() -> dict:
    return json.loads(EXPECTED_PATH.read_text())


def sweep_expected_text(seed: int, steps_by_nu: list[list[int]]) -> str:
    """The exact ``sweep-wide`` stdout, rebuilt without the program under test.

    Inputs follow the CLI's sampling contract (``random.Random(seed)``,
    ``randrange(2**64)``, ``SWEEP_ROWS`` draws); the count comes from
    ``int.bit_count``, independent of ``countones.words``; step counts come
    from the recorded table, which depends only on the count of ones.
    """
    rng = random.Random(seed)
    lines = [SWEEP_HEADER]
    for _ in range(wl.SWEEP_ROWS):
        bits = format(rng.randrange(1 << wl.SWEEP_WIDTH), f"0{wl.SWEEP_WIDTH}b")
        nu = int(bits, 2).bit_count()
        incdec, total = steps_by_nu[nu]
        lines.append(f"{bits},{nu},{nu},{incdec},{total}")
    return "\n".join(lines) + "\n"


@dataclass
class Checker:
    """Checks every pass of one workload at one seed against the reference output."""

    workload: str
    seed: int
    expected: dict
    items: int = 0
    reference: str | None = None  # digest every pass must match
    recorded: bool = True  # False when the digest came from this run's first pass
    _expected_rows: list[str] = field(default_factory=list, repr=False)

    def __post_init__(self) -> None:
        if self.workload == "verify":
            self.items = self.expected["verify"]["items"]
            self.reference = self.expected["verify"]["digest"]
        elif self.workload == "fuzz":
            self.items = wl.FUZZ_COUNT + wl.FUZZ_DIVERGENCE_COUNT
            self.reference = self.expected["fuzz"]["digests"].get(str(self.seed))
            self.recorded = self.reference is not None
        elif self.workload == "sweep-wide":
            text = sweep_expected_text(self.seed, self.expected["sweep-wide"]["steps_by_nu"])
            self.items = wl.SWEEP_ROWS
            self.reference = digest(text)
            self._expected_rows = text.splitlines()[1:]
        else:
            raise ValueError(f"unknown workload {self.workload!r}")

    def failed_items(self, stdout: str, exit_code: int) -> tuple[int, list[str]]:
        """Items of one pass that failed, and why.

        A wrong ``sweep-wide`` row fails that row; any other mismatch fails
        every item of the pass.
        """
        problems = [f"exit code {exit_code}"] if exit_code != 0 else []
        problems += self._report_problems(stdout)
        bad_rows = 0
        if self.workload == "sweep-wide" and not problems:
            rows = stdout.splitlines()[1:]
            bad_rows = sum(a != b for a, b in zip(rows, self._expected_rows))
        got = digest(stdout)
        if self.reference is None:
            self.reference = got
        if got != self.reference and not bad_rows:
            problems.append("stdout differs from the reference output")
        if problems:
            return self.items, problems
        if bad_rows:
            return bad_rows, [f"{bad_rows} sweep rows differ from the rows rebuilt with int.bit_count"]
        return 0, []

    def _report_problems(self, stdout: str) -> list[str]:
        if self.workload == "verify":
            last = stdout.rstrip("\n").rsplit("\n", 1)[-1]
            match = re.fullmatch(r"OK: (\d+)/(\d+) checks passed", last)
            if not match or match.group(1) != match.group(2):
                return [f"verify did not pass: {last!r}"]
        elif self.workload == "fuzz":
            pattern = (
                rf"prefix-invariant fuzz: {wl.FUZZ_COUNT} runs, \d+ budget-exhausted, 0 violations\n"
                rf"msb-flip divergence fuzz: {wl.FUZZ_DIVERGENCE_COUNT} runs, \d+ diverged, "
                r"0 early divergences\n"
            )
            if not re.fullmatch(pattern, stdout):
                return [f"fuzz report is not clean: {stdout[:300]!r}"]
        else:
            lines = stdout.splitlines()
            if not lines or lines[0] != SWEEP_HEADER or len(lines) - 1 != wl.SWEEP_ROWS:
                return ["sweep output has the wrong header or row count"]
        return []
