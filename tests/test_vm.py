import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from countones import (
    HaltReason,
    Machine,
    ParseError,
    Word,
    execute,
    parse_program,
    shipped_programs,
)
from countones.fuzzing import _OP_DECK, random_program
from countones.vm import OPCODES, SEG, Instruction, Program

from conftest import record_run

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


@pytest.mark.parametrize("op", OPCODES)
@pytest.mark.parametrize("delta", [-1, 1])
def test_operand_count_comes_from_the_table(op, delta):
    spec = OPCODES[op]
    want = spec.regs + spec.label
    with pytest.raises(ParseError) as err:
        parse_program(" ".join([op] + ["a"] * (want + delta)))
    assert f"expects {want} operand(s)" in str(err.value)


def test_every_opcode_reaches_the_fuzzer():
    # so that every opcode meets the compiled-vs-reference differential below
    assert set(_OP_DECK) == set(OPCODES)


def test_no_literal_other_than_zero_parses():
    # the grammar has no numeric tokens at all; constants can only come from ZERO
    for bad in ("MOV t 1", "ZERO 0", "AND x 255", "OUT 7"):
        with pytest.raises(ParseError):
            parse_program(bad)


def test_execute_wegner_hand_trace():
    program = parse_program(WEGNER_TEXT)
    res = execute(program, Word(4, 0b1011))
    assert res.halt_reason is HaltReason.OUT
    assert res.output == 3
    assert res.incdec_steps == 6
    assert res.total_steps == 20


def test_identity_program():
    program = parse_program("OUT x")
    res = execute(program, Word(6, 0b101010))
    assert res.output == 0b101010
    assert (res.total_steps, res.incdec_steps) == (1, 0)


def test_budget_exhaustion():
    program = parse_program("loop: JMP loop")
    res = execute(program, Word(4, 0), budget=100)
    assert res.halt_reason is HaltReason.BUDGET_EXHAUSTED
    assert res.output is None
    assert res.total_steps == 100


def test_fell_off_end():
    res = execute(parse_program("ZERO c"), Word(4, 0))
    assert res.halt_reason is HaltReason.FELL_OFF_END
    assert res.output is None


def test_budget_must_be_positive():
    with pytest.raises(ValueError):
        execute(parse_program("OUT x"), Word(4, 0), budget=0)


def test_wraparound_through_the_machine():
    inc = execute(parse_program("INC x\nOUT x"), Word(4, 0b1111))
    assert inc.output == 0
    dec = execute(parse_program("DEC x\nOUT x"), Word(4, 0))
    assert dec.output == 0b1111


def test_comparison_branches():
    # BLT is unsigned; BEQ compares registers
    text = "MOV a x\nDEC a\nBLT a x yes\nZERO r\nOUT r\nyes: INC r\nOUT r"
    assert execute(parse_program(text), Word(4, 5)).output == 1
    # x = 0: a = 15 after DEC, not below x
    assert execute(parse_program(text), Word(4, 0)).output == 0
    beq = "MOV a x\nBEQ a x yes\nZERO r\nOUT r\nyes: INC r\nOUT r"
    assert execute(parse_program(beq), Word(4, 9)).output == 1


def test_bnz_branch():
    text = "BNZ x one\nOUT x\none: INC c\nOUT c"
    assert execute(parse_program(text), Word(4, 0)).output == 0
    assert execute(parse_program(text), Word(4, 7)).output == 1


def test_determinism():
    program = parse_program(WEGNER_TEXT)
    a = record_run(program, Word(6, 0b110101))
    b = record_run(program, Word(6, 0b110101))
    assert a == b


def test_trace_contract():
    program = parse_program(WEGNER_TEXT)
    res, trace = record_run(program, Word(4, 0b1011))
    # initial state plus one per executed instruction
    assert len(trace) == res.total_steps + 1
    assert trace[0] == (0, None, {"x": 0b1011, "t": 0, "c": 0})
    # counter soundness: incdec_steps equals the number of inc/dec events
    events = sum(1 for (i, _, _), (j, _, _) in zip(trace, trace[1:]) if j == i + 1)
    assert events == res.incdec_steps
    assert trace[-1][0] == res.incdec_steps
    # width preservation
    for _, _, registers in trace:
        for value in registers.values():
            assert 0 <= value < (1 << 4)


def test_observer_sees_every_traced_state():
    # hand trace: the initial state, then the state after each instruction
    program = parse_program("INC a\nMOV b a\nOUT b")
    observed, seen = record_run(program, Word(4, 5))
    assert observed == execute(program, Word(4, 5))
    assert seen == [
        (0, None, {"x": 5, "a": 0, "b": 0}),
        (1, 0, {"x": 5, "a": 1, "b": 0}),
        (1, 1, {"x": 5, "a": 1, "b": 1}),
        (1, 2, {"x": 5, "a": 1, "b": 1}),
    ]


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


# ------------------------------------------- compiled runs vs the reference


def reference_run(program, x, budget):
    # an observer that detaches at once keeps the run on the reference loop
    return Machine().run(program, x, budget=budget, observer=lambda *a: False)


def test_compiled_matches_reference_on_random_programs():
    rng = random.Random(2024)
    halts = set()
    for _ in range(1000):
        program = random_program(rng, max_len=rng.choice((4, 24, 160)))
        for _ in range(4):
            width = rng.randint(1, 64)
            x = Word(width, rng.randrange(1 << width))
            budget = rng.randint(1, 400)
            got = execute(program, x, budget=budget)
            assert got == reference_run(program, x, budget), (program, x, budget)
            halts.add(got.halt_reason)
        assert "_segments" in vars(program)  # the compiled path ran
    assert halts == set(HaltReason)


def test_compiled_matches_reference_on_shipped_programs():
    for width in (2, 3, 5, 8):
        for gen in shipped_programs(width):
            for value in range(1 << width):
                x = Word(width, value)
                assert execute(gen.program, x) == reference_run(gen.program, x, 1_000_000)
    rng = random.Random(7)
    for gen in shipped_programs(64):
        for _ in range(20):
            x = Word(64, rng.randrange(1 << 64))
            assert execute(gen.program, x) == reference_run(gen.program, x, 1_000_000)


def test_compiled_budget_cut_at_segment_boundaries():
    # For every segment a run enters after t steps, cut it one step short,
    # exactly at its end and one step past it.
    rng = random.Random(11)
    cases = 0
    for width in (8, 64):
        for gen in shipped_programs(width):
            program = gen.program
            execute(program, Word(width, 0))  # compile
            segments = program._segments
            for _ in range(3):
                x = Word(width, rng.randrange(1 << width))
                _, trace = record_run(program, x)
                for t, (_, pc, _) in enumerate(trace[1:]):
                    if segments[pc] is None:
                        continue  # not where a segment starts
                    length = segments[pc][1]
                    for budget in (t + length - 1, t + length, t + length + 1):
                        if budget >= 1:
                            cases += 1
                            assert execute(program, x, budget=budget) == reference_run(
                                program, x, budget), (gen.name, width, x, budget)
    assert cases > 100


def test_segments_are_capped_and_compiled_lazily():
    program = parse_program("\n".join(["INC a"] * (2 * SEG + 5) + ["OUT a"]))
    assert "_segments" not in vars(program)
    Machine().run(program, Word(8, 0), observer=lambda *a: None)
    assert "_segments" not in vars(program)
    res = execute(program, Word(8, 0))
    assert res.output == 2 * SEG + 5
    lengths = [seg[1] for seg in program._segments if seg is not None]
    assert lengths == [SEG, SEG, 6]
    for budget in (SEG - 1, SEG, SEG + 1, 2 * SEG, 2 * SEG + 6):
        assert execute(program, Word(8, 0), budget=budget) == reference_run(
            program, Word(8, 0), budget)
    # the end of the program takes precedence over a budget spent on the last step
    fell = execute(parse_program("ZERO c"), Word(4, 0), budget=1)
    assert fell.halt_reason is HaltReason.FELL_OFF_END


@pytest.mark.parametrize("instructions", [
    (Instruction("JMP"),),  # jump without a target
    (Instruction("JMP", target=-2), Instruction("OUT", "x")),  # negative target
    (Instruction("JMP", target=2), Instruction("OUT", "x")),  # target == len
    (Instruction("NOP"), Instruction("OUT", "x")),  # unknown opcode
    (Instruction("MOV", "a"), Instruction("OUT", "a")),  # missing source register
    (Instruction("INC", None, "a"), Instruction("OUT", "a")),  # register in the wrong slot
    (Instruction("INC", "a", "b"), Instruction("OUT", "a")),  # surplus register
    (Instruction("JMP", "x", target=0),),  # surplus register on a jump
    (Instruction("INC", "a", target=0), Instruction("OUT", "a")),  # target on a non-jump
])
def test_malformed_programs_are_rejected_when_built(instructions):
    with pytest.raises(ValueError, match="instruction "):
        Program(instructions)


def test_hand_built_program_derives_its_registers():
    program = Program((Instruction("MOV", "b", "a"), Instruction("BEQ", "x", "b", 0),
                       Instruction("JMP", target=1), Instruction("OUT", "b")))
    assert program.register_names == ("x", "b", "a")
    assert Program(()).register_names == ("x",)
    assert program.register_names == parse_program(
        "l0: MOV b a\nl1: BEQ x b l0\nJMP l1\nOUT b").register_names
    assert execute(program, Word(4, 5), budget=10) == reference_run(program, Word(4, 5), 10)


def test_hook_overrides_keep_the_reference_semantics_untraced(
    complement_mov_machine, non_wrapping_machine
):
    res = complement_mov_machine.run(parse_program("MOV a x\nOUT a"), Word(4, 0b0011))
    assert res.output == 0b1100
    # a non-wrapping INC leaves 16 in a 4-bit register, which is not zero
    wraps = parse_program("INC x\nBZ x zero\nOUT y\nzero: INC y\nOUT y")
    assert execute(wraps, Word(4, 0b1111)).output == 1
    assert non_wrapping_machine.run(wraps, Word(4, 0b1111)).output == 0
    # the output is the register as the machine left it, escaped width included
    assert non_wrapping_machine.run(parse_program("INC x\nOUT x"), Word(4, 0b1111)).output == 16


_TOKENS = st.sampled_from(
    [*OPCODES, "x", "a", "b", "l", "l:", "x:", ":", ";", "0", "1", "\n", "\n", " ", "\t", "é", "_"]
)


@settings(max_examples=300, deadline=None)
@given(st.one_of(st.text(), st.lists(_TOKENS, max_size=40).map(" ".join),
                 st.lists(_TOKENS, max_size=40).map("".join)))
def test_any_text_parses_or_raises_parse_error(text):
    try:
        program = parse_program(text)
    except ParseError:
        return
    x = Word(4, 0b0110)
    assert execute(program, x, budget=50) == reference_run(program, x, 50)
