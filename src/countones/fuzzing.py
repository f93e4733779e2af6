"""Random-program fuzzing for the prefix invariant and the flip bound.

The invariant and the divergence bound quantify over *all* programs of the
machine, so beyond the shipped generators we sample the program space:
valid random programs (up to 8 registers), built directly as
:class:`Program` values and run on randomly drawn adversary inputs, with
the checks attached to the interpreter as observers.  Expected violation
count is exactly zero -- any hit means an interpreter bug, which is
precisely what the deliberately broken machines in the test suite
demonstrate.

Everything is reproducible from the seed.  Non-terminating programs are cut
by the per-run budget; their states up to the cut are still checked.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from .adversary import (
    AdversaryParams,
    MsbFlipProbe,
    PrefixInvariantCheck,
    Violation,
    adversary_input,
    msb_flip_probe,
)
from .vm import OPCODES, HaltReason, Instruction, Machine, Program

__all__ = [
    "FUZZ_BUDGET",
    "random_program",
    "random_program_text",
    "random_adversary_params",
    "InvariantFuzzReport",
    "fuzz_invariant",
    "DivergenceFuzzReport",
    "fuzz_divergence",
]

# Default per-run step budget for fuzzing.  Random programs loop forever all
# the time; a few hundred steps is plenty to exercise the invariant, whose
# non-vacuous window closes after at most n/2 inc/dec events anyway.
FUZZ_BUDGET = 512

_REG_POOL = ("x", "a", "b", "c", "d", "e", "f", "g")

# Weighted opcode deck; duplicates are the weights.
_OP_DECK = (
    ("INC",) * 10
    + ("DEC",) * 10
    + ("MOV",) * 8
    + ("AND",) * 7
    + ("OR",) * 7
    + ("ZERO",) * 4
    + ("BZ",) * 8
    + ("BNZ",) * 8
    + ("BEQ",) * 6
    + ("BLT",) * 6
    + ("JMP",) * 6
    + ("OUT",) * 6
)


def random_program(rng: random.Random, max_len: int = 24) -> Program:
    """A random program of 2..``max_len`` instructions; ``max_len < 2``
    raises ``ValueError`` before anything is drawn from ``rng``."""
    if max_len < 2:
        raise ValueError(f"max_len must be >= 2 (a random program has at least two "
                         f"instructions), got {max_len}")
    length = rng.randint(2, max_len)
    regs = _REG_POOL[: rng.randint(2, len(_REG_POOL))]
    instructions = []
    for _ in range(length):
        op = rng.choice(_OP_DECK)
        spec = OPCODES[op]
        operands = [rng.choice(regs) for _ in range(spec.regs)]
        target = rng.randrange(length) if spec.label else None
        instructions.append(Instruction(op, *operands, target=target))
    return Program(tuple(instructions))


def random_program_text(rng: random.Random, max_len: int = 24) -> str:
    """Source text of :func:`random_program` on the same draws; jump targets
    are labelled ``L<index>``, and ``parse_program`` gives the program back."""
    instructions = random_program(rng, max_len).instructions
    targets = {ins.target for ins in instructions if ins.target is not None}
    lines = []
    for idx, ins in enumerate(instructions):
        parts = [ins.op, *(reg for reg in (ins.a, ins.b) if reg is not None)]
        if ins.target is not None:
            parts.append(f"L{ins.target}")
        prefix = f"L{idx}: " if idx in targets else ""
        lines.append(prefix + " ".join(parts))
    return "\n".join(lines)


def random_adversary_params(
    rng: random.Random,
    width_range: tuple[int, int],
    equal_ends: bool = False,
) -> AdversaryParams:
    """Draw adversary parameters; ``equal_ends`` forces ``e == d``."""
    lo, hi = width_range
    n = rng.randint(lo, hi)
    m = rng.randint(0, (n - 1) // 2)
    e = rng.randint(0, 1)
    d = e if equal_ends else rng.randint(0, 1)
    return AdversaryParams(e, m, d, n)


@dataclass(frozen=True)
class InvariantFuzzReport:
    seed: int
    runs: int
    budget_exhausted: int
    violating_runs: tuple[tuple[int, AdversaryParams, tuple[Violation, ...]], ...]

    @property
    def violation_count(self) -> int:
        return sum(len(violations) for _, _, violations in self.violating_runs)

    @property
    def ok(self) -> bool:
        return self.violation_count == 0


def fuzz_invariant(
    seed: int,
    program_count: int,
    width_range: tuple[int, int] = (4, 16),
    max_len: int = 24,
    budget: int = FUZZ_BUDGET,
    machine: Machine | None = None,
) -> InvariantFuzzReport:
    """Run ``program_count`` random (program, adversary input) pairs and
    check the prefix invariant online at every state with ``i <= m``.

    ``machine`` may be a deliberately broken interpreter; with the stock
    machine the expected violation count is zero.
    """
    rng = random.Random(seed)
    machine = machine or Machine()
    exhausted = 0
    violating: list[tuple[int, AdversaryParams, tuple[Violation, ...]]] = []
    for run_idx in range(program_count):
        program = random_program(rng, max_len)
        params = random_adversary_params(rng, width_range)
        check = PrefixInvariantCheck(params)
        result = machine.run(
            program, adversary_input(params), budget=budget, observer=check.observe
        )
        if result.halt_reason is HaltReason.BUDGET_EXHAUSTED:
            exhausted += 1
        if not check.ok:
            violating.append((run_idx, params, tuple(check.violations)))
    return InvariantFuzzReport(seed, program_count, exhausted, tuple(violating))


@dataclass(frozen=True)
class DivergenceFuzzReport:
    seed: int
    runs: int
    diverged: int
    violating_probes: tuple[tuple[int, MsbFlipProbe], ...]

    @property
    def violation_count(self) -> int:
        return len(self.violating_probes)

    @property
    def ok(self) -> bool:
        return self.violation_count == 0


def fuzz_divergence(
    seed: int,
    program_count: int,
    width_range: tuple[int, int] = (2, 16),
    max_len: int = 24,
    budget: int = FUZZ_BUDGET,
) -> DivergenceFuzzReport:
    """Probe random programs on adversary pairs (x, msb-flip(x)) with e = d.

    Counts probes whose first control-flow divergence lands below
    ``min(nu, n - nu)`` inc/dec steps; the expected count is zero.
    """
    rng = random.Random(seed)
    diverged = 0
    violating: list[tuple[int, MsbFlipProbe]] = []
    for run_idx in range(program_count):
        program = random_program(rng, max_len)
        params = random_adversary_params(rng, width_range, equal_ends=True)
        probe = msb_flip_probe(program, params, budget=budget)
        if probe.divergence is not None:
            diverged += 1
        if not probe.bound_holds:
            violating.append((run_idx, probe))
    return DivergenceFuzzReport(seed, program_count, diverged, tuple(violating))
