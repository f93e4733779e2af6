"""Random-program fuzzing for the prefix invariant and the flip bound.

The invariant and the divergence bound quantify over *all* programs of the
machine, so beyond the shipped generators we sample the program space:
valid random programs (up to 8 registers), built directly as
:class:`Program` values and run on randomly drawn adversary inputs, with
the checks attached to the interpreter as observers.  Expected violation
count is exactly zero -- any hit means an interpreter bug, which is
precisely what the deliberately broken machines in the test suite
demonstrate.

Everything is reproducible from the seed.  Every draw follows
:func:`_below`, which spells out the rule that ``choice``, ``randint`` and
``randrange`` all end in, the same in CPython 3.10 to 3.13; so the seeded
programs are exactly those of that spelling, at a fraction of its cost.
Each instruction is built once per process and shared by every program
that draws it, jump targets included.

Non-terminating programs are cut by the per-run budget.  Each check is
shown every state up to and including the first repeat the machine
finds; then the run fast-forwards to its budget.  The states after the
repeat replay those shown, at the same or a higher inc/dec index, and the
invariant is closed under replays, so the verdict is that of the whole
run.  A counter loop repeats no state within the budget, but once its
check has detached (past ``i = m``) the run is unobserved, and
:meth:`Machine.run` jumps over the passes of a loop that moves every
register by the same amount each pass, exactly, up to the first branch
that goes the other way; so most budget-exhausted runs step through a few
passes only, as do the flip probes' pairs of lanes, and every result and
verdict is that of a stepped run.
"""

from __future__ import annotations

import random
from collections import namedtuple
from collections.abc import Callable

from .adversary import (
    AdversaryParams,
    MsbFlipProbe,
    PrefixInvariantCheck,
    Violation,
    msb_flip_probe,
)
from .vm import OPCODES, HaltReason, Instruction, Machine, Program
from .words import MAX_WIDTH

__all__ = [
    "FUZZ_BUDGET",
    "random_program",
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


def _below(getrandbits: Callable[[int], int], n: int) -> int:
    """``Random.randrange(n)`` for ``n >= 1``, draw for draw: ``getrandbits``
    of ``n``'s bit length until the draw is below ``n``, as in CPython's
    ``Random._randbelow``, which ``choice``, ``randint`` and ``randrange``
    all end in."""
    k = n.bit_length()
    r = getrandbits(k)
    while r >= n:
        r = getrandbits(k)
    return r


# The deck as (opcode, register operands, takes a label), in deck order.
_DECK = tuple((op, OPCODES[op].regs, OPCODES[op].label) for op in _OP_DECK)

# Every instruction drawn, under its fields (op, a, b, target), shared by every
# program that draws it: at most 224 without a target (ZERO, INC, DEC and OUT
# over 8 registers, MOV, AND and OR over 8 x 8) and 145 per target (BZ and BNZ
# over 8 registers, BEQ and BLT over 8 x 8, JMP).  A target is below max_len,
# so the memo holds at most 224 + 145 * max_len for the largest max_len drawn
# in the process, and never more instructions than were drawn.
_MEMO: dict[tuple[str, str | None, str | None, int | None], Instruction] = {}


def random_program(rng: random.Random, max_len: int = 24) -> Program:
    """A random program of 2..``max_len`` instructions; ``max_len < 2``
    raises ``ValueError`` before anything is drawn from ``rng``."""
    if max_len < 2:
        raise ValueError(f"max_len must be >= 2 (a random program has at least two "
                         f"instructions), got {max_len}")
    # every draw spells _below's rule inline: getrandbits of the bound's bit
    # length until the draw is below the bound
    bits = rng.getrandbits
    span = max_len - 1
    k = span.bit_length()
    length = bits(k)
    while length >= span:
        length = bits(k)
    length += 2
    span = len(_REG_POOL) - 1
    k = span.bit_length()
    count = bits(k)
    while count >= span:
        count = bits(k)
    count += 2
    regs = _REG_POOL[:count]
    deck = len(_DECK)
    kreg, kdeck, ktarget = count.bit_length(), deck.bit_length(), length.bit_length()
    instructions = []
    for _ in range(length):
        d = bits(kdeck)
        while d >= deck:
            d = bits(kdeck)
        op, nregs, label = _DECK[d]
        a = b = target = None
        if nregs:
            r = bits(kreg)
            while r >= count:
                r = bits(kreg)
            a = regs[r]
            if nregs == 2:
                r = bits(kreg)
                while r >= count:
                    r = bits(kreg)
                b = regs[r]
        if label:
            target = bits(ktarget)
            while target >= length:
                target = bits(ktarget)
        key = (op, a, b, target)
        instructions.append(_MEMO.get(key) or _MEMO.setdefault(key, Instruction(*key)))
    return Program(tuple(instructions))


def random_adversary_params(
    rng: random.Random,
    width_range: tuple[int, int],
    equal_ends: bool = False,
) -> AdversaryParams:
    """Draw adversary parameters; ``equal_ends`` forces ``e == d``."""
    lo, hi = width_range
    if not 1 <= lo <= hi <= MAX_WIDTH:
        raise ValueError(
            f"width range must satisfy 1 <= lo <= hi <= {MAX_WIDTH}, got {width_range}")
    # _below's rule inline, as in random_program: getrandbits of the bound's bit
    # length until the draw is below the bound (2 bits for the bound 2 of e and d)
    bits = rng.getrandbits
    span = hi - lo + 1
    k = span.bit_length()
    n = bits(k)
    while n >= span:
        n = bits(k)
    n += lo
    span = (n - 1) // 2 + 1
    k = span.bit_length()
    m = bits(k)
    while m >= span:
        m = bits(k)
    e = bits(2)
    while e >= 2:
        e = bits(2)
    d = e
    if not equal_ends:
        d = bits(2)
        while d >= 2:
            d = bits(2)
    return AdversaryParams(e, m, d, n)


class InvariantFuzzReport(namedtuple("InvariantFuzzReport",
                                     "seed runs budget_exhausted violating_runs")):
    """``violating_runs`` holds ``(run index, params, violations)`` per run that broke it."""

    __slots__ = ()

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
        result = machine.run(program, check.x, params.n, budget, check.observe)
        if result.halt_reason is HaltReason.BUDGET_EXHAUSTED:
            exhausted += 1
        if not check.ok:
            violating.append((run_idx, params, tuple(check.violations)))
    return InvariantFuzzReport(seed, program_count, exhausted, tuple(violating))


class DivergenceFuzzReport(namedtuple("DivergenceFuzzReport",
                                      "seed runs diverged violating_probes")):
    """``violating_probes`` holds ``(run index, probe)`` per probe that broke the bound."""

    __slots__ = ()

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
