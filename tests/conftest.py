import pytest

from countones import DEFAULT_BUDGET, Machine


def record_run(program, x, budget=DEFAULT_BUDGET, machine=None):
    """A run's result and a copy of every state its observer was shown, as
    ``(incdec_index, pc, registers)``, the initial state first."""
    states = []
    result = (machine or Machine()).run(
        program, x, budget=budget, observer=lambda i, pc, regs: states.append((i, pc, dict(regs))))
    return result, states


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
