import functools

import pytest

from countones import Machine, shipped_programs


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


@pytest.fixture(scope="session")
def generators():
    """Shipped counting programs per width, built once for the whole run."""
    return functools.cache(shipped_programs)
