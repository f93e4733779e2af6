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
