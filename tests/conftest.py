import pytest

from countones import DEFAULT_BUDGET, ExecResult, HaltReason, Machine


def record_run(program, x, width, budget=DEFAULT_BUDGET, machine=None):
    """A run of ``machine`` (the stock one by default) on the ``width``-bit
    input ``x``, stepped one instruction at a time through its ``_inc``,
    ``_dec`` and ``_mov``, with no cycle search and none of ``Machine.run``:
    its result, whose ``cycle`` is ``None``, and every state, as
    ``(incdec_index, pc, registers)`` in the form an observer is shown it,
    the initial state first."""
    machine = machine or Machine()
    mask = (1 << width) - 1
    regs = dict.fromkeys(program.register_names, 0)
    regs["x"] = x & mask
    states = [(0, None, dict(regs))]
    pc = incdec = 0
    while pc < len(program) and len(states) <= budget:
        ins = program.instructions[pc]
        op, a, b = ins.op, ins.a, ins.b
        if op == "INC" or op == "DEC":
            regs[a] = (machine._inc if op == "INC" else machine._dec)(regs[a], mask)
            incdec += 1
        elif op == "MOV":
            regs[a] = machine._mov(regs[b], mask)
        elif op == "AND":
            regs[a] &= regs[b]
        elif op == "OR":
            regs[a] |= regs[b]
        elif op == "ZERO":
            regs[a] = 0
        states.append((incdec, pc, dict(regs)))
        if op == "OUT":
            return ExecResult(regs[a], len(states) - 1, incdec, HaltReason.OUT), states
        taken = (op == "JMP" or op == "BZ" and regs[a] == 0 or op == "BNZ" and regs[a] != 0
                 or op == "BEQ" and regs[a] == regs[b] or op == "BLT" and regs[a] < regs[b])
        pc = ins.target if taken else pc + 1
    halt = HaltReason.FELL_OFF_END if pc >= len(program) else HaltReason.BUDGET_EXHAUSTED
    return ExecResult(None, len(states) - 1, incdec, halt), states


class NonWrappingIncMachine(Machine):
    """Broken interpreter: INC does not wrap, so registers escape the width."""

    def _inc(self, value, mask):
        return value + 1


class ComplementMovMachine(Machine):
    """Broken interpreter: MOV stores the complement of its source."""

    def _mov(self, value, mask):
        return ~value & mask


@pytest.fixture
def non_wrapping_machine():
    return NonWrappingIncMachine()


@pytest.fixture
def complement_mov_machine():
    return ComplementMovMachine()


def wrong_programs(width):
    """Deliberately wrong counting programs at ``width``, each failing a
    different check: the identity (output, and the bound from n = 3 on), a
    law off by one on the ``nu = 2`` class only, a program that falls off
    its end on every non-zero input and, at n = 2, an identity named
    twobit, which breaks the single-step rule as well."""
    from countones import GeneratedProgram, wegner_program

    programs = [
        GeneratedProgram("identity", width, "OUT x", lambda nu: 0),
        GeneratedProgram("off-by-one", width, wegner_program(width).text,
                         lambda nu: 2 * nu + (nu == 2)),
        GeneratedProgram("falls-off", width, "BNZ x end\nOUT x\nend: ZERO c", lambda nu: 0),
    ]
    if width == 2:
        programs.append(GeneratedProgram("twobit", 2, "OUT x", lambda nu: 0))
    return programs
