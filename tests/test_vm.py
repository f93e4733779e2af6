import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from countones import (
    DEFAULT_BUDGET,
    ExecResult,
    HaltReason,
    Machine,
    ParseError,
    execute,
    measure,
    parse_program,
    popcount_naive,
    run_slices,
    shipped_programs,
)
from countones import vm
from countones.fuzzing import _OP_DECK, random_program
from countones.vm import OPCODES, Instruction, Program, _input_slices, _transpose

from conftest import ComplementMovMachine, NonWrappingIncMachine, record_run

WEGNER_TEXT = """\
loop: BZ x done
MOV t x
DEC t
AND x t
INC c
JMP loop
done: OUT c
"""


def observed_run(program, x, width, budget=DEFAULT_BUDGET, machine=None):
    """A run of ``Machine.run`` and a copy of every state it showed its observer."""
    states = []
    result = (machine or Machine()).run(
        program, x, width, budget, observer=lambda i, pc, regs: states.append((i, pc, dict(regs))))
    return result, states


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
    # so that every opcode meets the lanes-vs-reference differential below
    assert set(_OP_DECK) == set(OPCODES)


def test_no_literal_other_than_zero_parses():
    # the grammar has no numeric tokens at all; constants can only come from ZERO
    for bad in ("MOV t 1", "ZERO 0", "AND x 255", "OUT 7"):
        with pytest.raises(ParseError):
            parse_program(bad)


def test_execute_wegner_hand_trace():
    program = parse_program(WEGNER_TEXT)
    res = execute(program, 0b1011, 4)
    assert res.halt_reason is HaltReason.OUT
    assert res.output == 3
    assert res.incdec_steps == 6
    assert res.total_steps == 20


def test_identity_program():
    program = parse_program("OUT x")
    res = execute(program, 0b101010, 6)
    assert res.output == 0b101010
    assert (res.total_steps, res.incdec_steps) == (1, 0)


def test_budget_exhaustion():
    program = parse_program("loop: JMP loop")
    res = execute(program, 0, 4, budget=100)
    assert res.halt_reason is HaltReason.BUDGET_EXHAUSTED
    assert res.output is None
    assert res.total_steps == 100


def test_fell_off_end():
    res = execute(parse_program("ZERO c"), 0, 4)
    assert res.halt_reason is HaltReason.FELL_OFF_END
    assert res.output is None


def test_budget_must_be_positive():
    with pytest.raises(ValueError):
        execute(parse_program("OUT x"), 0, 4, budget=0)


def test_wraparound_through_the_machine():
    inc = execute(parse_program("INC x\nOUT x"), 0b1111, 4)
    assert inc.output == 0
    dec = execute(parse_program("DEC x\nOUT x"), 0, 4)
    assert dec.output == 0b1111


def test_comparison_branches():
    # BLT is unsigned; BEQ compares registers
    text = "MOV a x\nDEC a\nBLT a x yes\nZERO r\nOUT r\nyes: INC r\nOUT r"
    assert execute(parse_program(text), 5, 4).output == 1
    # x = 0: a = 15 after DEC, not below x
    assert execute(parse_program(text), 0, 4).output == 0
    beq = "MOV a x\nBEQ a x yes\nZERO r\nOUT r\nyes: INC r\nOUT r"
    assert execute(parse_program(beq), 9, 4).output == 1


def test_bnz_branch():
    text = "BNZ x one\nOUT x\none: INC c\nOUT c"
    assert execute(parse_program(text), 0, 4).output == 0
    assert execute(parse_program(text), 7, 4).output == 1


def test_determinism():
    program = parse_program(WEGNER_TEXT)
    a = observed_run(program, 0b110101, 6)
    b = observed_run(program, 0b110101, 6)
    assert a == b == record_run(program, 0b110101, 6)


def test_trace_contract():
    program = parse_program(WEGNER_TEXT)
    res, trace = observed_run(program, 0b1011, 4)
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
    observed, seen = observed_run(program, 5, 4)
    assert observed == execute(program, 5, 4)
    assert (observed, seen) == record_run(program, 5, 4)
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

    res = Machine().run(program, 0b111011, 6, observer=observer)
    assert len(calls) == detach_at + 1
    assert res == execute(program, 0b111011, 6)


def test_observer_cut_by_the_budget():
    program = parse_program("loop: INC a\nJMP loop")
    seen = []
    res = Machine().run(program, 0, 4, budget=5, observer=lambda i, pc, regs: seen.append(i))
    assert res.halt_reason is HaltReason.BUDGET_EXHAUSTED
    assert seen == [0, 1, 1, 2, 2, 3]


# ------------------------------------------- fast-forward vs step by step


@pytest.mark.parametrize("machine", [Machine, NonWrappingIncMachine, ComplementMovMachine])
@pytest.mark.parametrize("seed", [3, 14, 15])
def test_fast_forward_matches_step_by_step(seed, machine):
    # conftest's stepper runs every step, with no cycle search; an observed
    # run fast-forwards too, to the same result, but for where a stock
    # unobserved run finds its repeat, as a jump may pass over it
    machine = machine()
    rng = random.Random(seed)
    halts = set()
    for _ in range(150):
        program = random_program(rng, max_len=rng.choice((4, 24)))
        width = rng.randint(1, 16)
        x = rng.randrange(1 << width)
        for budget in (1, 2, 3, 7, 512, 10_000):
            res = machine.run(program, x, width, budget)
            assert res._replace(cycle=None) == record_run(program, x, width, budget, machine)[0], (
                program, width, x, budget)
            observed = machine.run(program, x, width, budget, observer=lambda *a: None)
            if type(machine) is Machine:
                res, observed = res._replace(cycle=None), observed._replace(cycle=None)
            assert res == observed
            halts.add(res.halt_reason)
    assert halts == set(HaltReason)


@pytest.mark.parametrize("machine", [Machine, NonWrappingIncMachine, ComplementMovMachine])
def test_the_cycle_is_exact(machine):
    # in an observed run or on a broken machine, the state after `saved` steps
    # comes back `period` steps later, and not before; an observer is shown
    # each state up to and including that repeat.  A stock unobserved run may
    # jump past that repeat, so any repeat it reports is a true one, found
    # later or not at all, and the rest of its result is the observed run's
    machine = machine()
    rng = random.Random(8)
    found = halted = moved = 0
    for _ in range(300):
        program = random_program(rng, max_len=rng.choice((4, 24)))
        width = rng.randint(1, 12)
        x = rng.randrange(1 << width)
        budget = rng.choice((7, 60, 512))
        res, shown = observed_run(program, x, width, budget, machine)
        unobserved = machine.run(program, x, width, budget)
        _, states = record_run(program, x, width, budget, machine)

        def state(t):  # (pc, registers) after t steps: the pc is the next one executed
            return states[t + 1][1], states[t][2]

        if type(machine) is not Machine:
            assert unobserved == res
        else:
            assert unobserved._replace(cycle=None) == res._replace(cycle=None)
            if unobserved.cycle is not None:
                saved, period = unobserved.cycle
                assert saved + period < budget and state(saved + period) == state(saved)
            moved += unobserved.cycle != res.cycle
        if res.cycle is None:
            assert shown == states
            halted += res.halt_reason is not HaltReason.BUDGET_EXHAUSTED
            continue
        found += 1
        saved, period = res.cycle
        assert res.halt_reason is HaltReason.BUDGET_EXHAUSTED and saved + period < budget
        assert state(saved + period) == state(saved)
        assert all(state(t) != state(saved) for t in range(saved + 1, saved + period))
        assert shown == states[:saved + period + 1]
    assert found >= 50 and halted >= 50
    # the stock machine's unobserved runs jump past some repeats (4 of them
    # here, one found again later); no other run does
    assert (moved >= 3) if type(machine) is Machine else (moved == 0)


# B // 3 whole periods of INC, DEC, JMP, then the first B % 3 steps of one more;
# the state after 4 steps, saved at a power of two, is the first to come back
@pytest.mark.parametrize("budget", [10**12 - 1, 10**12, 10**12 + 1])
def test_fast_forward_exact_counts(budget):
    res = execute(parse_program("L0: INC a\nDEC a\nJMP L0"), 5, 8, budget)
    assert res == ExecResult(None, budget, 2 * (budget // 3) + min(budget % 3, 2),
                             HaltReason.BUDGET_EXHAUSTED, cycle=(4, 3))


def test_fast_forward_after_a_prefix_and_a_long_period():
    # one INC b before a loop without INC/DEC
    res = execute(parse_program("INC b\nL1: ZERO a\nJMP L1"), 0, 4, 10**12 + 1)
    assert res == ExecResult(None, 10**12 + 1, 1, HaltReason.BUDGET_EXHAUSTED, cycle=(4, 2))
    # a wraps after 2**10 INCs: a period of 2,048 steps, half of them INC, found
    # from the first save past it by an observed run; unobserved, the counter
    # jumps past that repeat and finds none
    program = parse_program("L0: INC a\nJMP L0")
    res = Machine().run(program, 0, 10, 10**12 + 1, observer=lambda *a: None)
    assert res == ExecResult(None, 10**12 + 1, 10**12 // 2 + 1, HaltReason.BUDGET_EXHAUSTED,
                             cycle=(4096, 2048))
    assert execute(program, 0, 10, 10**12 + 1) == res._replace(cycle=None)


def test_fast_forward_after_the_observer_detaches():
    # the search runs from the first state, whether or not an observer is
    # attached: one that detaches itself early leaves the cycle as it is
    program = parse_program("L0: INC a\nDEC a\nJMP L0")
    seen = []
    res = Machine().run(program, 5, 8, 10**12,
                        observer=lambda i, pc, regs: seen.append(pc) or len(seen) < 5)
    assert seen == [None, 0, 1, 2, 0]
    assert res == execute(program, 5, 8, 10**12)
    # one that never detaches is detached at the repeat, after 4 + 3 steps
    seen.clear()
    assert Machine().run(program, 5, 8, 10**12,
                         observer=lambda i, pc, regs: seen.append(pc)) == res
    assert seen == [None, 0, 1, 2, 0, 1, 2, 0] and res.cycle == (4, 3)


# ------------------------------------------------ affine jumps vs steps


@pytest.fixture
def jumps(monkeypatch):
    """Each call of the affine proof, as ``(q, passes, proof)``: the steps of
    the pass, the most passes it may cover and what the proof returned."""
    import countones._affine as affine

    calls, prove = [], affine.prove

    def counted(*args):
        proof = prove(*args)
        calls.append((args[5], args[6], proof))
        return proof

    monkeypatch.setattr(affine, "prove", counted)
    return calls


def test_jumps_match_step_by_step(jumps):
    # every result is that of the run stepped one instruction at a time
    # (conftest's stepper) and of an observed run, which never jumps, but for
    # where the repeat is found, as a jump may pass over it
    rng = random.Random(29)
    for _ in range(1000):
        program = random_program(rng, max_len=rng.choice((4, 8, 24)))
        width = rng.randint(1, 64) if rng.getrandbits(1) else rng.randint(1, 10)
        x = rng.getrandbits(width)
        budget = rng.choice((1, 2, 7, 60, 512, 2048, 20_000, 20_000, 20_000))
        res = Machine().run(program, x, width, budget)
        assert res._replace(cycle=None) == record_run(program, x, width, budget)[0], (
            program, width, x, budget)
        assert res._replace(cycle=None) == Machine().run(
            program, x, width, budget, observer=lambda *a: None)._replace(cycle=None)
    assert sum(jumped is not None for _, _, jumped in jumps) >= 40


@pytest.mark.parametrize("text, width, x, want", [
    # the counter runs x passes, down to the BNZ that falls through
    ("MOV c x\nL0: INC a\nDEC c\nBNZ c L0\nOUT a", 64, 10**11 + 7,
     lambda x, n: (x, 3 * x + 2, 2 * x)),
    ("MOV c x\nL0: INC a\nDEC c\nBNZ c L0\nOUT a", 64, 1, lambda x, n: (x, 5, 2)),
    # BEQ exits at the pass j with 3*j = x (mod 2**n): j is x / 3 mod 2**n
    ("L0: INC a\nINC a\nINC a\nBEQ a x out\nJMP L0\nout: OUT a", 36, 1,
     lambda x, n: (x, 5 * (j := x * pow(3, -1, 1 << n) % (1 << n)), 3 * j)),
    # unsigned BLT: a climbs from 0 and b falls from 2**n - 1 until they meet halfway
    ("L0: INC a\nDEC b\nBLT a b L0\nOUT a", 38, 0,
     lambda x, n: (1 << n - 1, 3 * (1 << n - 1) + 1, 1 << n)),
    # unsigned BLT taken once a climbs past x
    ("L0: INC a\nBLT x a out\nJMP L0\nout: OUT a", 40, 10**11,
     lambda x, n: (x + 1, 3 * x + 3, x + 1)),
    # BLT on a wrap: x < a holds until a wraps to 0
    ("MOV a x\nL0: INC a\nBLT x a L0\nOUT a", 40, (1 << 40) - 10**11,
     lambda x, n: (0, 2 * ((1 << n) - x) + 2, (1 << n) - x)),
])
def test_jumps_in_closed_form(text, width, x, want, jumps):
    # far past what any stepper could run in a test
    output, total, incdec = want(x, width)
    res = execute(parse_program(text), x, width, 10**12)
    assert res == ExecResult(output, total, incdec, HaltReason.OUT)
    assert total < 100 or any(jumped is not None for _, _, jumped in jumps)


def test_a_jump_runs_past_a_true_repeat(jumps):
    # a width-4 counter repeats every 32 steps, which an observed run finds at
    # 64 + 32; unobserved, the jump tried at step 6 proves the pass of 2 steps
    # and covers every pass that fits in the budget, so it finds no repeat
    program = parse_program("L0: INC a\nJMP L0")
    res = execute(program, 0, 4, 10**12)
    assert res == ExecResult(None, 10**12, 10**12 // 2, HaltReason.BUDGET_EXHAUSTED)
    observed = Machine().run(program, 0, 4, 10**12, observer=lambda *a: None)
    assert observed == res._replace(cycle=(64, 32))
    passes = (10**12 - 6) // 2
    assert [(q, most, proof[:2]) for q, most, proof in jumps] == [(2, passes, (passes, 1))]


def test_a_jump_resets_brents_save(jumps):
    # the jump tried at step 7, the first visit to the pc saved at step 4,
    # covers 997 passes of 3 steps, up to the one whose BNZ falls through; the
    # search saves afresh one step after it, at 2,999, and finds the JMP's
    # repeat at the first mark past the loop, 5,998, where an observed run,
    # which never jumps, finds it at 4,096
    program = parse_program("MOV c x\nL0: INC a\nDEC c\nBNZ c L0\nL4: JMP L4")
    res = execute(program, 1000, 16, 10**6)
    assert res == ExecResult(None, 10**6, 2000, HaltReason.BUDGET_EXHAUSTED, (5998, 1))
    observed = Machine().run(program, 1000, 16, 10**6, observer=lambda *a: None)
    assert observed == res._replace(cycle=(4096, 1))
    assert [(q, proof[:2]) for q, _, proof in jumps] == [(3, (997, 2))]


def test_a_branch_on_zero_flips_at_the_first_pass(jumps):
    # c is 0 at the jump's first pass and moves off it, so its BZ flips at
    # pass 1 and the jump tried there covers no pass; the two arms have the
    # same length and effect at different pcs, so only Brent's saved pc would
    # show a jump that ran one pass too far
    program = parse_program("\n".join([
        "MOV c x", "ZERO z", "ZERO z", "L0: INC c", "BZ c LA", "INC a", "INC a", "INC a",
        "JMP L0", "LA: INC a", "INC a", "INC a", "JMP L0"]))
    res = execute(program, 0, 2, 100)
    assert res == Machine().run(program, 0, 2, 100, observer=lambda *a: None)
    assert res == ExecResult(None, 100, 65, HaltReason.BUDGET_EXHAUSTED, cycle=(32, 24))
    assert res._replace(cycle=None) == record_run(program, 0, 2, 100)[0]
    assert jumps


@pytest.mark.parametrize("machine", [NonWrappingIncMachine, ComplementMovMachine])
def test_broken_and_observed_runs_never_jump(machine, jumps):
    # the entry point of the jump is never called; the stock machine calls it
    program, x = parse_program("MOV c x\nL0: INC a\nDEC c\nBNZ c L0\nOUT a"), 200
    assert machine().run(program, x, 8, 10**6) == record_run(program, x, 8, 10**6, machine())[0]
    want = ExecResult(200, 602, 400, HaltReason.OUT)
    assert Machine().run(program, x, 8, 10**6, observer=lambda *a: None) == want
    assert jumps == []
    assert execute(program, x, 8, 10**6) == want and jumps


# ------------------------------------------------- lanes vs the reference


def lanes_match_reference(program, width, values, budget=DEFAULT_BUDGET):
    """``measure()``'s lane rows of ``values``, held to one reference run per
    input; returns each row's :class:`ExecResult`."""
    rows = list(measure(program, width, values, budget=budget))
    want = []
    for v in values:
        res = execute(program, v, width, budget)
        want.append((v, popcount_naive(v), res.output, res.incdec_steps,
                     res.total_steps, res.halt_reason))
    assert rows == want, (program, width, values, budget)
    return [ExecResult(out, total, incdec, halt) for _, _, out, incdec, total, halt in rows]


def test_lanes_match_reference_on_random_programs():
    rng = random.Random(2024)
    halts = set()
    for _ in range(1000):
        program = random_program(rng, max_len=rng.choice((4, 24, 160)))
        for _ in range(4):
            width = rng.randint(1, 64)
            values = [rng.randrange(1 << width) for _ in range(rng.randint(1, 8))]
            budget = rng.randint(1, 400)
            halts.update(r.halt_reason for r in lanes_match_reference(program, width, values, budget))
    assert halts == set(HaltReason)


def test_lanes_match_reference_on_shipped_programs():
    for width in (2, 3, 5, 8):
        for gen in shipped_programs(width):
            lanes_match_reference(gen.program, width, range(1 << width))
    rng = random.Random(7)
    for gen in shipped_programs(64):
        lanes_match_reference(gen.program, 64, [rng.randrange(1 << 64) for _ in range(20)])


def test_lanes_budget_cut_at_every_step():
    # sampled runs of every shipped program, cut at every budget up to one past their end
    rng = random.Random(11)
    cases = 0
    for width in (8, 64):
        for gen in shipped_programs(width):
            values = [rng.randrange(1 << width) for _ in range(3)]
            longest = max(execute(gen.program, v, width).total_steps for v in values)
            for budget in range(1, longest + 2):
                cases += 1
                lanes_match_reference(gen.program, width, values, budget)
    assert cases > 100


# widths and counts on and off whole bytes: each word is padded to whole bytes
@pytest.mark.parametrize("width", [1, 2, 7, 8, 9, 17, 33, 63, 64])
@pytest.mark.parametrize("count", [1, 64, 65, 4095, 4096])
def test_transpose_round_trips(width, count):
    rng = random.Random(count * 100 + width)
    words = [rng.getrandbits(width) for _ in range(count)]
    slices = _transpose(words, width)
    assert slices == [sum((w >> b & 1) << j for j, w in enumerate(words)) for b in range(width)]
    assert _transpose(slices, count) == words


def test_closed_form_input_slices_equal_the_transpose(monkeypatch):
    # whole ranges, and aligned chunks of 4,096 as measure() and sweep hand them over
    for width in range(1, 21):
        cases = [range(1 << width)] if width <= 16 else []
        for start in {0, 4096, 0b1010 << 12, (1 << width) - 4096} if width > 12 else ():
            cases.append(range(start, start + 4096))
        for values in cases:
            assert _input_slices(values, width) == _transpose(values, width), (width, values)
    # wider than 16 bits, a whole range is its chunks side by side
    for width in range(17, 21):
        whole = _input_slices(range(1 << width), width)
        chunks = [_input_slices(range(start, start + 4096), width)
                  for start in range(0, 1 << width, 4096)]
        assert whole == [sum(chunk[b] << 4096 * i for i, chunk in enumerate(chunks))
                         for b in range(width)], width
    # anything else goes through the transpose
    calls = []
    monkeypatch.setattr(vm, "_transpose", lambda words, width: calls.append(words) or
                        _transpose(words, width))
    others = [list(range(8)), range(4, 12), range(1, 9), range(0, 6), range(0, 16, 2),
              range(8, 0, -1)]
    for values in others:
        assert _input_slices(values, 5) == _transpose(values, 5)
    assert calls == others
    x, _, _ = run_slices(parse_program("OUT x"), 5, range(8, 16))
    assert calls == others and x == _transpose(range(8, 16), 5)


def test_transpose_masks_bits_above_its_width():
    assert _transpose([0b1111_0101, -1], 4) == [0b11, 0b10, 0b11, 0b10]
    assert _transpose([0b110], 1) == [0]


def test_lanes_aliasing_and_edge_cases():
    # an instruction whose two registers are one
    for text in ("MOV x x\nOUT x", "AND x x\nOUT x", "BEQ x x yes\nOUT a\nyes: INC a\nOUT a",
                 "BLT x x yes\nOUT a\nyes: INC a\nOUT a"):
        lanes_match_reference(parse_program(text), 4, range(16))
    assert run_slices(parse_program("OUT x"), 4, []) == ([0] * 4, [0] * 4, [])
    assert lanes_match_reference(parse_program(WEGNER_TEXT), 64, [(1 << 64) - 1]) == [
        ExecResult(64, 6 * 64 + 2, 2 * 64, HaltReason.OUT)]
    # the end of the program takes precedence over a budget spent on the last step
    fell = lanes_match_reference(parse_program("ZERO c"), 4, [0, 5], budget=1)
    assert {r.halt_reason for r in fell} == {HaltReason.FELL_OFF_END}


# ------------------------------------- each group runs on its own registers

# Splits the lanes on the low bit of x: odd inputs fall through, even inputs
# jump to `even`.  `b` is 1 on odd lanes and 0 on even ones.
_LOW_BIT = """\
ZERO one
INC one
MOV r x
MOV b x
AND b one
BZ b even
"""


def _lanes_where(values, pred):
    return sum(1 << j for j, v in enumerate(values) if pred(v))


def _partition(halts):
    """The lanes of ``halts``, checked to be disjoint: a carry in their sum would lose a bit."""
    lanes = sum(group for group, *_ in halts)
    assert sum(group.bit_count() for group, *_ in halts) == lanes.bit_count()
    return lanes


def test_a_lone_survivor_overwrites_the_registers_of_halted_lanes(monkeypatch):
    # the taken even lanes run first, alone and unmasked, and write r in every
    # lane of their own registers; the odd lanes wait with theirs and then
    # halt with r = x
    text = _LOW_BIT + "OUT r\neven: INC c\nMOV r one\nOR r x\nAND r x\nZERO r\nOR r x\nINC r\nOUT r"
    program = parse_program(text)
    seen = []
    real = vm._lane_step
    monkeypatch.setattr(vm, "_lane_step", lambda ins, regs, width, m:
                        seen.append((ins.op, m)) or real(ins, regs, width, m))
    values = range(16)
    outputs = [v + 1 if v % 2 == 0 else v for v in values]
    assert [r.output for r in lanes_match_reference(program, 4, values)] == outputs
    odd, even = _lanes_where(values, lambda v: v % 2), _lanes_where(values, lambda v: v % 2 == 0)
    assert seen[6:] == [(op, even) for op in ("INC", "MOV", "OR", "AND", "ZERO", "OR", "INC")]
    x, out, halts = run_slices(program, 4, values)
    assert x == _transpose(values, 4)
    assert out == _transpose(outputs, 4)
    assert halts == [(even, 14, 3, HaltReason.OUT), (odd, 7, 1, HaltReason.OUT)]


@pytest.mark.parametrize("write", ["ZERO r", "MOV r one", "AND r one", "OR r one", "INC r"])
def test_a_live_group_keeps_what_another_group_writes_around_it(write):
    # the taken even lanes read r and halt; only then do the waiting odd lanes
    # write it, so each group reads r as its own path left it
    text = _LOW_BIT + f"{write}\nOUT r\neven: INC c\nOUT r"
    rows = lanes_match_reference(parse_program(text), 4, range(16))
    assert [r.output for r in rows][::2] == list(range(0, 16, 2))


@pytest.mark.parametrize("write", ["ZERO r", "MOV r one", "AND r one", "OR r one", "INC r", "DEC r"])
def test_a_waiting_group_keeps_what_the_taken_group_writes_before_it(write):
    # the taken even lanes write r and halt before the odd lanes, which wait
    # on the split, read r; it must still be x
    text = _LOW_BIT + f"OUT r\neven: {write}\nOUT r"
    rows = lanes_match_reference(parse_program(text), 4, range(16))
    assert [r.output for r in rows][1::2] == list(range(1, 16, 2))


def test_a_diamond_that_rejoins_keeps_its_two_groups():
    # both arms reach `j` on the same step with the same inc/dec count, and
    # halt as two groups: groups that meet again are not merged
    text = ("ZERO one\nINC one\nMOV b x\nAND b one\nBZ b l\nMOV a x\nJMP j\n"
            "l: MOV a one\nJMP j\nj: INC a\nOUT a")
    program = parse_program(text)
    values = range(16)
    lanes_match_reference(program, 4, values)
    _, _, halts = run_slices(program, 4, values)
    assert sorted(halts) == [(0x5555, 9, 2, HaltReason.OUT), (0xaaaa, 9, 2, HaltReason.OUT)]


@pytest.mark.parametrize("branch", ["BZ x next", "BNZ x next", "BEQ x one next", "BLT one x next"])
def test_a_branch_to_its_own_fall_through_keeps_one_group(branch):
    values = range(16)
    alone = parse_program(f"ZERO one\nINC one\n{branch}\nnext: INC c\nOUT c")
    _, _, halts = run_slices(alone, 4, values)
    assert halts == [((1 << 16) - 1, 5, 2, HaltReason.OUT)]
    lanes_match_reference(alone, 4, values)
    # the same branch with a second group live beside it
    beside = parse_program(_LOW_BIT + f"INC c\n{branch}\nnext: INC c\nOUT c\neven: JMP next")
    assert _partition(run_slices(beside, 4, values)[2]) == (1 << 16) - 1
    lanes_match_reference(beside, 4, values)


def test_a_budget_cut_inside_a_lone_stretch_and_on_a_split():
    program = parse_program("INC a\nINC a\nINC a\nBZ x zero\nOUT a\nzero: OUT x")
    values = range(16)
    for budget in range(1, 8):
        lanes_match_reference(program, 4, values, budget)
    # three INCs run alone, then the cut: the BZ never runs
    assert run_slices(program, 4, values, 3)[2] == [((1 << 16) - 1, 3, 3, HaltReason.BUDGET_EXHAUSTED)]
    # the BZ splits the lanes on the last step the budget allows: both halves are cut
    assert run_slices(program, 4, values, 4)[2] == [
        (1, 4, 3, HaltReason.BUDGET_EXHAUSTED), ((1 << 16) - 2, 4, 3, HaltReason.BUDGET_EXHAUSTED)]


def test_out_slices_are_zero_outside_the_lanes_that_halted_with_out():
    rng = random.Random(19)
    for _ in range(500):
        program = random_program(rng, max_len=rng.choice((4, 24)))
        width = rng.randint(1, 12)
        values = [rng.randrange(1 << width) for _ in range(rng.randint(1, 32))]
        _, out, halts = run_slices(program, width, values, rng.randint(1, 200))
        assert _partition(halts) == (1 << len(values)) - 1
        with_out = sum(lanes for lanes, _, _, reason in halts if reason is HaltReason.OUT)
        assert all(s & ~with_out == 0 for s in out), program


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
    lanes_match_reference(program, 4, range(16), budget=10)


def test_hook_overrides_keep_the_reference_semantics_untraced(
    complement_mov_machine, non_wrapping_machine
):
    res = complement_mov_machine.run(parse_program("MOV a x\nOUT a"), 0b0011, 4)
    assert res.output == 0b1100
    # a non-wrapping INC leaves 16 in a 4-bit register, which is not zero
    wraps = parse_program("INC x\nBZ x zero\nOUT y\nzero: INC y\nOUT y")
    assert execute(wraps, 0b1111, 4).output == 1
    assert non_wrapping_machine.run(wraps, 0b1111, 4).output == 0
    # the output is the register as the machine left it, escaped width included
    assert non_wrapping_machine.run(parse_program("INC x\nOUT x"), 0b1111, 4).output == 16


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
    lanes_match_reference(program, 4, [0b0110, 0b1001], budget=50)
