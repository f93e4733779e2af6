from dataclasses import replace

import pytest

from countones import (
    HaltReason,
    Machine,
    ParseError,
    Word,
    diff_traces,
    execute,
    parse_program,
    wegner_program,
)

WEGNER_TEXT = """\
loop: BZ x done
MOV t x
DEC t
AND x t
INC c
JMP loop
done: OUT c
"""


def test_parse_two_instruction_program():
    program = parse_program("ZERO c\nOUT c")
    assert len(program) == 2
    assert program.instructions[0].op == "ZERO"
    assert program.register_names == ("x", "c")


def test_parse_wegner_program():
    program = parse_program(WEGNER_TEXT)
    assert len(program) == 7
    assert program.instructions[0].target == 6  # BZ x done
    assert program.instructions[5].target == 0  # JMP loop


def test_registers_are_implicitly_declared():
    program = parse_program("MOV t y")
    assert set(program.register_names) == {"x", "t", "y"}


def test_comments_and_blank_lines():
    program = parse_program("; header\n\nZERO c ; clear\n   \nOUT c")
    assert len(program) == 2


@pytest.mark.parametrize(
    "text, fragment",
    [
        ("NOP x", "unknown opcode"),
        ("BZ x nowhere", "unresolved label"),
        ("a: ZERO c\na: OUT c", "duplicate label"),
        ("INC 5", "identifier"),
        ("MOV t 3", "identifier"),
        ("BZ x 3", "label"),
        ("INC", "operand"),
        ("MOV t", "operand"),
        ("INC a b", "operand"),
        ("lonely:", "without an instruction"),
    ],
)
def test_parse_errors_carry_line_numbers(text, fragment):
    with pytest.raises(ParseError) as err:
        parse_program(text)
    assert fragment in str(err.value)
    assert err.value.lineno >= 1


def test_no_literal_other_than_zero_parses():
    # the grammar has no numeric tokens at all; constants can only come from ZERO
    for bad in ("MOV t 1", "ZERO 0", "AND x 255", "OUT 7"):
        with pytest.raises(ParseError):
            parse_program(bad)


def test_execute_wegner_hand_trace():
    program = parse_program(WEGNER_TEXT)
    res = execute(program, Word(4, 0b1011))
    assert res.halt_reason is HaltReason.OUT
    assert res.output == Word(4, 3)
    assert res.counters.incdec_steps == 6
    assert res.counters.total_steps == 20


def test_identity_program():
    program = parse_program("OUT x")
    res = execute(program, Word(6, 0b101010))
    assert res.output == Word(6, 0b101010)
    assert res.counters == type(res.counters)(total_steps=1, incdec_steps=0)


def test_budget_exhaustion():
    program = parse_program("loop: JMP loop")
    res = execute(program, Word(4, 0), budget=100)
    assert res.halt_reason is HaltReason.BUDGET_EXHAUSTED
    assert res.output is None
    assert res.counters.total_steps == 100


def test_fell_off_end():
    res = execute(parse_program("ZERO c"), Word(4, 0))
    assert res.halt_reason is HaltReason.FELL_OFF_END
    assert res.output is None


def test_budget_must_be_positive():
    with pytest.raises(ValueError):
        execute(parse_program("OUT x"), Word(4, 0), budget=0)


def test_wraparound_through_the_machine():
    inc = execute(parse_program("INC x\nOUT x"), Word(4, 0b1111))
    assert inc.output == Word(4, 0)
    dec = execute(parse_program("DEC x\nOUT x"), Word(4, 0))
    assert dec.output == Word(4, 0b1111)


def test_comparison_branches():
    # BLT is unsigned; BEQ compares registers
    text = "MOV a x\nDEC a\nBLT a x yes\nZERO r\nOUT r\nyes: INC r\nOUT r"
    assert execute(parse_program(text), Word(4, 5)).output.value == 1
    # x = 0: a = 15 after DEC, not below x
    assert execute(parse_program(text), Word(4, 0)).output.value == 0
    beq = "MOV a x\nBEQ a x yes\nZERO r\nOUT r\nyes: INC r\nOUT r"
    assert execute(parse_program(beq), Word(4, 9)).output.value == 1


def test_bnz_branch():
    text = "BNZ x one\nOUT x\none: INC c\nOUT c"
    assert execute(parse_program(text), Word(4, 0)).output.value == 0
    assert execute(parse_program(text), Word(4, 7)).output.value == 1


def test_determinism():
    program = parse_program(WEGNER_TEXT)
    a = execute(program, Word(6, 0b110101), trace=True)
    b = execute(program, Word(6, 0b110101), trace=True)
    assert a == b


def test_trace_contract():
    program = parse_program(WEGNER_TEXT)
    res = execute(program, Word(4, 0b1011), trace=True)
    trace = res.trace
    # initial snapshot plus one per executed instruction
    assert len(trace) == res.counters.total_steps + 1
    assert trace[0].pc is None and trace[0].incdec_index == 0
    assert trace[0].registers == {"x": 0b1011, "t": 0, "c": 0}
    # counter soundness: incdec_steps equals the number of inc/dec events
    events = sum(
        1 for a, b in zip(trace, trace[1:]) if b.incdec_index == a.incdec_index + 1
    )
    assert events == res.counters.incdec_steps
    assert trace[-1].incdec_index == res.counters.incdec_steps
    # width preservation
    for snap in trace:
        for value in snap.registers.values():
            assert 0 <= value < (1 << 4)


def test_observer_sees_every_traced_state():
    program = parse_program(WEGNER_TEXT)
    seen = []
    res = execute(program, Word(6, 0b110101), trace=True)
    observed = Machine().run(
        program, Word(6, 0b110101), observer=lambda i, pc, regs: seen.append((i, pc, dict(regs)))
    )
    assert observed.trace is None
    assert observed == replace(res, trace=None)
    assert seen == [(s.incdec_index, s.pc, s.registers) for s in res.trace]


@pytest.mark.parametrize("detach_at", [0, 1, 5, 31])
def test_observer_detaches_and_the_run_goes_on(detach_at):
    program = parse_program(WEGNER_TEXT)
    calls = []

    def observer(i, pc, regs):
        calls.append(pc)
        return len(calls) <= detach_at

    res = Machine().run(program, Word(6, 0b111011), observer=observer)
    assert len(calls) == detach_at + 1
    assert res == execute(program, Word(6, 0b111011))


def test_observer_cut_by_the_budget():
    program = parse_program("loop: INC a\nJMP loop")
    seen = []
    res = Machine().run(program, Word(4, 0), budget=5, observer=lambda i, pc, regs: seen.append(i))
    assert res.halt_reason is HaltReason.BUDGET_EXHAUSTED
    assert seen == [0, 1, 1, 2, 2, 3]


def test_observer_and_trace_are_exclusive():
    with pytest.raises(ValueError):
        Machine().run(parse_program("OUT x"), Word(4, 1), trace=True, observer=lambda *a: None)


def test_diff_traces_identical_runs():
    program = parse_program(WEGNER_TEXT)
    a = execute(program, Word(6, 0b001010), trace=True)
    b = execute(program, Word(6, 0b001010), trace=True)
    assert diff_traces(a, b) is None


def test_diff_traces_wegner_divergence():
    program = wegner_program(6).program
    a = execute(program, Word.from_bits("001010"), trace=True)
    b = execute(program, Word.from_bits("101010"), trace=True)
    div = diff_traces(a, b)
    # hand trace: the third BZ resolves differently, after 4 inc/dec steps
    assert div is not None
    assert div.step_index == 13
    assert div.incdec_index == 4
    assert div.incdec_index >= 2  # min(nu, n - nu) of 001010


def test_diff_traces_branchless_program():
    program = parse_program("OUT x")
    a = execute(program, Word(4, 1), trace=True)
    b = execute(program, Word(4, 2), trace=True)
    assert diff_traces(a, b) is None


def test_diff_traces_requires_traces():
    program = parse_program("OUT x")
    a = execute(program, Word(4, 1), trace=True)
    b = execute(program, Word(4, 2))
    with pytest.raises(ValueError):
        diff_traces(a, b)
