import pytest
from hypothesis import given
from hypothesis import strategies as st

from countones import Machine, Word, execute, parse_program, popcount_naive


def popcount_second_opinion(x: Word) -> int:
    # independent of the bin() count in popcount_naive
    return sum((x.value >> i) & 1 for i in range(x.width))


# The machine's word operations, as programs: every semantic test below runs
# on the compiled path and on the reference loop and needs both to agree.
INC = parse_program("INC x\nOUT x")
DEC = parse_program("DEC x\nOUT x")
INC_DEC = parse_program("INC x\nDEC x\nOUT x")
DEC_INC = parse_program("DEC x\nINC x\nOUT x")
CLEAR_LOWEST_ONE = parse_program("MOV t x\nDEC t\nAND x t\nOUT x")  # x AND (x-1)
SET_LOWEST_ZERO = parse_program("MOV t x\nINC t\nOR x t\nOUT x")  # x OR (x+1)


def run_both(program, x):
    compiled = execute(program, x)
    # an observer that detaches at once keeps the run on the reference loop
    reference = Machine().run(program, x, observer=lambda *a: False)
    assert compiled == reference
    assert "_segments" in vars(program)  # the compiled path ran
    assert compiled.output >> x.width == 0  # the output stayed in its word
    return Word(x.width, compiled.output)


words = st.integers(min_value=1, max_value=64).flatmap(
    lambda w: st.builds(Word, st.just(w), st.integers(0, (1 << w) - 1))
)


def test_popcount_examples():
    assert popcount_naive(Word(4, 0)) == 0
    assert popcount_naive(Word(4, 0b1111)) == 4
    assert popcount_naive(Word(6, 0b101111)) == 5


@given(words)
def test_popcount_against_independent_loop(x):
    assert popcount_naive(x) == popcount_second_opinion(x) == x.value.bit_count()


def test_popcount_exhaustive_at_width_16():
    for value in range(1 << 16):
        assert popcount_naive(Word(16, value)) == value.bit_count()


def test_wraparound_at_the_boundaries():
    assert run_both(INC, Word(4, 0b1111)) == Word(4, 0)
    assert run_both(INC, Word(4, 0)) == Word(4, 1)
    assert run_both(INC, Word(6, 0b101111)) == Word(6, 0b110000)
    assert run_both(DEC, Word(4, 0)) == Word(4, 0b1111)
    assert run_both(DEC, Word(4, 0b1011)) == Word(4, 0b1010)
    assert run_both(DEC, Word(1, 1)) == Word(1, 0)
    assert run_both(DEC, Word(64, 0)) == Word(64, (1 << 64) - 1)
    assert run_both(INC, Word(64, (1 << 64) - 1)) == Word(64, 0)


@given(words)
def test_inc_dec_are_inverse(x):
    assert run_both(INC_DEC, x) == x
    assert run_both(DEC_INC, x) == x


def test_and_or_examples():
    # 1011 AND 1010, i.e. x AND (x-1); 1101 OR 1110, i.e. x OR (x+1)
    assert run_both(CLEAR_LOWEST_ONE, Word(4, 0b1011)) == Word(4, 0b1010)
    assert run_both(SET_LOWEST_ZERO, Word(4, 0b1101)) == Word(4, 0b1111)


@pytest.mark.parametrize("width", [0, -1, 65, 100])
def test_bad_widths_rejected(width):
    with pytest.raises(ValueError):
        Word(width, 0)


def test_value_reduced_modulo_width():
    assert Word(4, 16).value == 0
    assert Word(4, 17).value == 1
    assert Word(4, -1).value == 0b1111


def test_bit_string_round_trip():
    w = Word.from_bits("101111")
    assert w == Word(6, 47)
    assert w.to_bits() == "101111"
    assert Word(6, 0).to_bits() == "000000"
    with pytest.raises(ValueError):
        Word.from_bits("")
    with pytest.raises(ValueError):
        Word.from_bits("10x1")


def _exhaustive_words(max_width):
    for width in range(1, max_width + 1):
        for value in range(1 << width):
            yield Word(width, value)


def test_clearing_lowest_one_drops_count_exhaustive():
    # x AND (x-1) deletes the right-most one, for every x != 0, widths <= 12
    for x in _exhaustive_words(12):
        if x.value == 0:
            continue
        assert popcount_naive(run_both(CLEAR_LOWEST_ONE, x)) == popcount_naive(x) - 1


def test_setting_lowest_zero_raises_count_exhaustive():
    # x OR (x+1) sets the right-most zero, for every x != all-ones, widths <= 12
    for x in _exhaustive_words(12):
        if x.value == (1 << x.width) - 1:
            continue
        assert popcount_naive(run_both(SET_LOWEST_ZERO, x)) == popcount_naive(x) + 1


@given(words)
def test_step_laws_on_wide_words(x):
    if x.value != 0:
        assert popcount_naive(run_both(CLEAR_LOWEST_ONE, x)) == popcount_naive(x) - 1
    if not x.value == (1 << x.width) - 1:
        assert popcount_naive(run_both(SET_LOWEST_ZERO, x)) == popcount_naive(x) + 1
