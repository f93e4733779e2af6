import pytest
from hypothesis import given
from hypothesis import strategies as st

from countones import ExecResult, Machine, execute, measure, parse_program, popcount_naive


def popcount_second_opinion(x: int, width: int) -> int:
    # independent of the bin() count in popcount_naive
    return sum((x >> i) & 1 for i in range(width))


# The machine's word operations, as programs: every semantic test below runs
# on the lane executor and on the reference loop and needs both to agree.
INC = parse_program("INC x\nOUT x")
DEC = parse_program("DEC x\nOUT x")
INC_DEC = parse_program("INC x\nDEC x\nOUT x")
DEC_INC = parse_program("DEC x\nINC x\nOUT x")
CLEAR_LOWEST_ONE = parse_program("MOV t x\nDEC t\nAND x t\nOUT x")  # x AND (x-1)
SET_LOWEST_ZERO = parse_program("MOV t x\nINC t\nOR x t\nOUT x")  # x OR (x+1)
IDENTITY = parse_program("OUT x")


def run_both(program, x, width):
    ((_, _, output, incdec, total, halt),) = measure(program, width, [x])
    lanes = ExecResult(output, total, incdec, halt)
    assert lanes == execute(program, x, width)
    assert lanes.output >> width == 0  # the output stayed in its word
    return lanes.output


# (width, value) pairs
words = st.integers(min_value=1, max_value=64).flatmap(
    lambda w: st.tuples(st.just(w), st.integers(0, (1 << w) - 1))
)


def test_popcount_examples():
    assert popcount_naive(0) == 0
    assert popcount_naive(0b1111) == 4
    assert popcount_naive(0b101111) == 5


@given(words)
def test_popcount_against_independent_loop(word):
    width, x = word
    assert popcount_naive(x) == popcount_second_opinion(x, width) == x.bit_count()


def test_popcount_exhaustive_at_width_16():
    for value in range(1 << 16):
        assert popcount_naive(value) == value.bit_count()


def test_wraparound_at_the_boundaries():
    assert run_both(INC, 0b1111, 4) == 0
    assert run_both(INC, 0, 4) == 1
    assert run_both(INC, 0b101111, 6) == 0b110000
    assert run_both(DEC, 0, 4) == 0b1111
    assert run_both(DEC, 0b1011, 4) == 0b1010
    assert run_both(DEC, 1, 1) == 0
    assert run_both(DEC, 0, 64) == (1 << 64) - 1
    assert run_both(INC, (1 << 64) - 1, 64) == 0


@given(words)
def test_inc_dec_are_inverse(word):
    width, x = word
    assert run_both(INC_DEC, x, width) == x
    assert run_both(DEC_INC, x, width) == x


def test_and_or_examples():
    # 1011 AND 1010, i.e. x AND (x-1); 1101 OR 1110, i.e. x OR (x+1)
    assert run_both(CLEAR_LOWEST_ONE, 0b1011, 4) == 0b1010
    assert run_both(SET_LOWEST_ZERO, 0b1101, 4) == 0b1111


@pytest.mark.parametrize("width", [0, -1, 65, 100])
def test_bad_widths_rejected(width):
    # on the reference loop, on measure's reference path and on the lanes
    message = f"width must be 1..64, got {width}"
    with pytest.raises(ValueError, match=message):
        execute(IDENTITY, 0, width)
    with pytest.raises(ValueError, match=message):
        list(measure(IDENTITY, width, [0], machine=Machine()))
    with pytest.raises(ValueError, match=message):
        list(measure(IDENTITY, width, [0]))


def test_value_reduced_modulo_width():
    assert execute(IDENTITY, 16, 4).output == 0
    assert execute(IDENTITY, 17, 4).output == 1
    assert execute(IDENTITY, -1, 4).output == 0b1111
    # each row's value and output, on measure's reference path and on the lanes
    for machine in (Machine(), None):
        rows = measure(IDENTITY, 4, [16, 17, -1], machine=machine)
        assert [(value, output) for value, _, output, *_ in rows] == [(0, 0), (1, 1), (15, 15)]


def _exhaustive_words(max_width):
    for width in range(1, max_width + 1):
        for value in range(1 << width):
            yield width, value


def test_clearing_lowest_one_drops_count_exhaustive():
    # x AND (x-1) deletes the right-most one, for every x != 0, widths <= 12
    for width, x in _exhaustive_words(12):
        if x == 0:
            continue
        assert popcount_naive(run_both(CLEAR_LOWEST_ONE, x, width)) == popcount_naive(x) - 1


def test_setting_lowest_zero_raises_count_exhaustive():
    # x OR (x+1) sets the right-most zero, for every x != all-ones, widths <= 12
    for width, x in _exhaustive_words(12):
        if x == (1 << width) - 1:
            continue
        assert popcount_naive(run_both(SET_LOWEST_ZERO, x, width)) == popcount_naive(x) + 1


@given(words)
def test_step_laws_on_wide_words(word):
    width, x = word
    if x != 0:
        assert popcount_naive(run_both(CLEAR_LOWEST_ONE, x, width)) == popcount_naive(x) - 1
    if not x == (1 << width) - 1:
        assert popcount_naive(run_both(SET_LOWEST_ZERO, x, width)) == popcount_naive(x) + 1
