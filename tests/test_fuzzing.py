import random
from itertools import chain

import pytest

from countones import (
    DEFAULT_BUDGET,
    OPCODES,
    AdversaryParams,
    Divergence,
    DivergenceFuzzReport,
    ExecResult,
    HaltReason,
    Instruction,
    InvariantFuzzReport,
    Machine,
    MsbFlipProbe,
    PrefixInvariantCheck,
    Program,
    Violation,
    adversary_input,
    combined_program,
    dense_program,
    format_program,
    fuzz_divergence,
    fuzz_invariant,
    msb_flip_probe,
    parse_program,
    popcount_naive,
    random_program,
    shipped_programs,
    wegner_program,
)
from countones.fuzzing import (
    _MEMO,
    _OP_DECK,
    _REG_POOL,
    FUZZ_BUDGET,
    random_adversary_params,
)

from conftest import ComplementMovMachine, NonWrappingIncMachine, record_run

# ----------------------------------------------------------------- reference
# The campaigns recomputed from the same rng draws the slow way: program
# text through the parser, runs stepped one state at a time by conftest's
# ``record_run``, and the checks applied to the recorded states afterwards.


def reference_random_program(rng, max_len):
    """The draws of :func:`random_program`, spelled with ``randint``, ``choice``
    and ``randrange``."""
    length = rng.randint(2, max_len)
    regs = _REG_POOL[: rng.randint(2, len(_REG_POOL))]
    instructions = []
    for _ in range(length):
        op = rng.choice(_OP_DECK)
        spec = OPCODES[op]
        operands = [rng.choice(regs) for _ in range(spec.regs)]
        target = rng.randrange(length) if spec.label else None
        instructions.append(Instruction(op, *operands, target=target))
    return Program(tuple(instructions))


def reference_adversary_params(rng, width_range, equal_ends=False):
    lo, hi = width_range
    n = rng.randint(lo, hi)
    m = rng.randint(0, (n - 1) // 2)
    e = rng.randint(0, 1)
    d = e if equal_ends else rng.randint(0, 1)
    return AdversaryParams(e, m, d, n)


def reference_violations(states, params):
    """The invariant stated on bit strings, state by state."""
    n, m = params.n, params.m
    xbits = format(adversary_input(params), f"0{n}b")
    violations = []
    for snap_idx, (i, _, registers) in enumerate(states):
        if i > m:
            break
        k = n if i == 0 else 2 * (m - i) + 1
        allowed = ("0" * k, "1" * k, xbits[:k])
        for name, value in registers.items():
            prefix = format(value >> (n - k), f"0{k}b")
            if prefix not in allowed:
                violations.append(Violation(snap_idx, i, name, prefix, allowed))
    return tuple(violations)


def first_divergence(a, b):
    """Where two recorded runs of one program first execute different
    instructions; a run whose path is a prefix of the other's is no divergence."""
    for idx, ((_, pc_a, _), (_, pc_b, _)) in enumerate(zip(a[1:], b[1:])):
        if pc_a != pc_b:
            return Divergence(idx, a[idx][0])
    return None


def shown(states, result):
    """The recorded ``states`` that ``Machine.run`` shows an observer: each one up
    to and including the first repeat it finds, ``result.cycle``."""
    return states[:sum(result.cycle) + 1] if result.cycle else states


def reference_probe(program, params, budget):
    x = adversary_input(params)
    flipped = x ^ 1 << (params.n - 1)
    _, states_x = record_run(program, x, params.n, budget)
    _, states_flipped = record_run(program, flipped, params.n, budget)
    nu = popcount_naive(x)
    return MsbFlipProbe(
        params, x, flipped, nu, min(nu, params.n - nu), first_divergence(states_x, states_flipped)
    )


def reference_invariant(seed, count, budget=FUZZ_BUDGET, machine=None):
    rng = random.Random(seed)
    machine = machine or Machine()
    exhausted = violation_count = cut_in_window = 0
    violating = []
    for run_idx in range(count):
        program = parse_program(format_program(random_program(rng)))
        params = random_adversary_params(rng, (4, 16))
        result, states = record_run(program, adversary_input(params), params.n, budget, machine)
        if result.halt_reason is HaltReason.BUDGET_EXHAUSTED:
            exhausted += 1
            cut_in_window += states[-1][0] <= params.m
        # the check sees no replay after the repeat the machine finds, and an
        # observed run finds the first one, as it never jumps
        repeat = machine.run(program, adversary_input(params), params.n, budget,
                             observer=lambda *a: None)
        violations = reference_violations(shown(states, repeat), params)
        if violations:
            violation_count += len(violations)
            violating.append((run_idx, params, violations))
    report = InvariantFuzzReport(seed, count, exhausted, tuple(violating))
    assert report.violation_count == violation_count  # the derived sum
    return report, cut_in_window


def reference_divergence(seed, count, budget=FUZZ_BUDGET):
    rng = random.Random(seed)
    diverged = 0
    violating = []
    for run_idx in range(count):
        program = parse_program(format_program(random_program(rng)))
        params = random_adversary_params(rng, (2, 16), equal_ends=True)
        probe = reference_probe(program, params, budget)
        diverged += probe.divergence is not None
        if not probe.bound_holds:
            violating.append((run_idx, probe))
    return DivergenceFuzzReport(seed, count, diverged, tuple(violating))


# ------------------------------------------------------------------ programs


def test_generated_programs_always_parse():
    # the text of a random or shipped program parses back to that program
    for max_len in (2, 24, 60):
        rng = random.Random(99)
        for _ in range(300):
            program = random_program(rng, max_len)
            assert parse_program(format_program(program)) == program
    for gen in chain.from_iterable(map(shipped_programs, range(1, 65))):  # twobit at 2
        assert parse_program(format_program(gen.program)) == gen.program, (gen.name, gen.width)
    # each jump target is labelled by its index
    assert format_program(parse_program("L: BZ x L\nOUT x")) == "L0: BZ x L0\nOUT x"


@pytest.mark.parametrize("max_len", [2, 3, 24, 160])
@pytest.mark.parametrize("equal_ends", [False, True])
def test_draws_equal_the_randint_choice_spelling(max_len, equal_ends):
    # the same programs and params, and the rng left in the same state, so
    # that a caller drawing on from the same rng sees the same numbers too
    for seed in range(300):
        rng, ref = random.Random(seed), random.Random(seed)
        width_range = ((4, 16), (2, 16), (1, 64))[seed % 3]
        assert random_program(rng, max_len) == reference_random_program(ref, max_len)
        assert (random_adversary_params(rng, width_range, equal_ends)
                == reference_adversary_params(ref, width_range, equal_ends))
        assert rng.getstate() == ref.getstate()
    # the memo holds each instruction drawn under its own fields, at most 224
    # without a target and 145 per target; a target is below the largest
    # max_len drawn in the process, so there are at most 224 + 145 * L
    assert _MEMO
    for key, ins in _MEMO.items():
        assert key == (ins.op, ins.a, ins.b, ins.target)
    largest = max(max_len, 1 + max(ins.target for ins in _MEMO.values() if ins.target is not None))
    assert len(_MEMO) <= 224 + 145 * largest
    # two programs that draw the same instruction share one object
    first, again = (random_program(random.Random(7), max_len) for _ in range(2))
    assert all(a is b for a, b in zip(first.instructions, again.instructions, strict=True))


def test_empty_width_range_is_rejected():
    for width_range in ((5, 4), (0, 3)):
        with pytest.raises(ValueError, match="width range"):
            random_adversary_params(random.Random(1), width_range)


def test_max_len_below_two_is_rejected_before_drawing():
    rng = random.Random(5)
    state = rng.getstate()
    with pytest.raises(ValueError, match="max_len must be >= 2"):
        random_program(rng, max_len=1)
    assert rng.getstate() == state
    with pytest.raises(ValueError, match="max_len must be >= 2"):
        fuzz_invariant(seed=1, program_count=5, max_len=1)
    with pytest.raises(ValueError, match="max_len must be >= 2"):
        fuzz_divergence(seed=1, program_count=5, max_len=1)


# ------------------------------------------ online checks vs recorded runs


@pytest.mark.parametrize("seed", [1, 2, 42])
def test_invariant_fuzz_matches_traced_reference(seed):
    report, _ = reference_invariant(seed, 400)
    assert fuzz_invariant(seed, 400) == report


@pytest.mark.parametrize("machine", [NonWrappingIncMachine, ComplementMovMachine])
@pytest.mark.parametrize("seed", [1, 7])
def test_broken_machine_reports_match_traced_reference(seed, machine):
    report, _ = reference_invariant(seed, 300, machine=machine())
    assert report.violation_count >= 1
    assert fuzz_invariant(seed, 300, machine=machine()) == report


@pytest.mark.parametrize("machine", [Machine, NonWrappingIncMachine])
def test_budget_cut_inside_the_window_matches_traced_reference(machine):
    report, cut_in_window = reference_invariant(3, 300, budget=6, machine=machine())
    assert cut_in_window >= 1
    assert fuzz_invariant(3, 300, budget=6, machine=machine()) == report


def test_check_detaches_from_a_clean_loop():
    # the machine detaches the check at the first repeat it finds, and the
    # run fast-forwards to its budget
    params = AdversaryParams(0, 0, 0, 6)  # the zero word
    check = PrefixInvariantCheck(params)
    res = Machine().run(parse_program("L0: BZ x L0"), adversary_input(params), params.n, 10**9,
                        observer=check.observe)
    assert res == ExecResult(None, 10**9, 0, HaltReason.BUDGET_EXHAUSTED, cycle=(2, 1))
    assert check.ok
    assert check.checked == 4
    # a loop with INC/DEC repeats its registers at a higher i; the window
    # i <= m is still open there, but the replays would pass where their
    # first showing did, so the check sees 8 of the run's 11 states in it
    params = AdversaryParams(1, 7, 1, 16)
    program = parse_program("L0: INC a\nDEC a\nJMP L0")
    check = PrefixInvariantCheck(params)
    res = Machine().run(program, adversary_input(params), params.n, 10**9, observer=check.observe)
    _, states = record_run(program, adversary_input(params), params.n, 100)
    assert check.ok and res.cycle == (4, 3)
    assert check.checked == 8 < sum(i <= params.m for i, _, _ in states) == 11


def test_check_detaches_from_a_violating_loop_at_its_repeat():
    # the complementing MOV breaks the invariant on every state after the
    # first; each state shown is reported once, and the 44 replays after the
    # repeat at 4 + 2 steps are not shown
    params = AdversaryParams(1, 1, 0, 6)
    program = parse_program("L0: MOV a x\nJMP L0")
    check = PrefixInvariantCheck(params)
    res = ComplementMovMachine().run(program, adversary_input(params), params.n, 50,
                                     observer=check.observe)
    _, states = record_run(program, adversary_input(params), params.n, 50, ComplementMovMachine())
    assert res.cycle == (4, 2)
    assert tuple(check.violations) == reference_violations(states[:7], params)
    assert len(check.violations) == 6 and check.checked == 7
    assert len(reference_violations(states, params)) == 50


def test_checks_on_equal_params_share_the_schedule_and_keep_their_own_reports():
    # the word and the k_i schedule are built once per params and shared; the
    # complementing MOV leaves b != x, so that run halts at once, while the
    # non-wrapping INC lets a escape its width at i = 2 on the longer path
    program = parse_program("MOV b x\nBEQ b x L3\nOUT b\nL3: ZERO a\nDEC a\nINC a\nOUT a")
    first = PrefixInvariantCheck(AdversaryParams(1, 2, 1, 8))
    second = PrefixInvariantCheck(AdversaryParams(1, 2, 1, 8))  # equal params, another object
    assert first.x is second.x and first._allowed is second._allowed
    assert isinstance(first._allowed, tuple)
    assert all(isinstance(level, tuple) for level in first._allowed)
    cases = ((first, NonWrappingIncMachine(), 7, 2), (second, ComplementMovMachine(), 4, 3))
    for check, machine, _, _ in cases:
        machine.run(program, check.x, check.params.n, FUZZ_BUDGET, observer=check.observe)
    for check, machine, checked, violations in cases:
        _, states = record_run(program, check.x, check.params.n, FUZZ_BUDGET, machine)
        assert tuple(check.violations) == reference_violations(states, check.params)
        assert (check.checked, len(check.violations)) == (checked, violations)


@pytest.mark.parametrize("machine", [Machine, NonWrappingIncMachine, ComplementMovMachine])
def test_the_invariant_is_closed_under_replays(machine):
    # the check is shown no state after the repeat; the replays after it
    # come at the same or a higher i, and pass wherever their first showing
    # passed, so the verdict equals that of the whole run
    machine = machine()
    rng = random.Random(29)
    replays_in_window = violating = 0
    for _ in range(400):
        program = random_program(rng)
        params = random_adversary_params(rng, (4, 16))
        check = PrefixInvariantCheck(params)
        result = machine.run(program, check.x, params.n, FUZZ_BUDGET, observer=check.observe)
        _, states = record_run(program, check.x, params.n, FUZZ_BUDGET, machine)
        assert tuple(check.violations) == reference_violations(shown(states, result), params)
        assert check.ok == (not reference_violations(states, params))
        replays_in_window += bool(result.cycle) and states[sum(result.cycle) + 1][0] <= params.m
        violating += not check.ok
    assert replays_in_window >= 20
    assert bool(violating) == (type(machine) is not Machine)


@pytest.mark.parametrize("seed", [1, 2, 42])
def test_divergence_fuzz_matches_traced_reference(seed):
    assert fuzz_divergence(seed, 200) == reference_divergence(seed, 200)


def test_flip_probe_matches_traced_reference():
    rng = random.Random(11)
    outcomes = set()
    for _ in range(400):
        program = random_program(rng)
        params = random_adversary_params(rng, (2, 16), equal_ends=True)
        budget = rng.choice((1, 2, 7, 30, FUZZ_BUDGET))
        probe = msb_flip_probe(program, params, budget=budget)
        assert probe == reference_probe(program, params, budget)
        halt = Machine().run(program, probe.x, params.n, budget).halt_reason
        outcomes.add((probe.divergence is not None, halt))
    # both verdicts were reached, and runs were cut by the budget
    assert {d for d, _ in outcomes} == {False, True}
    assert any(h is HaltReason.BUDGET_EXHAUSTED for _, h in outcomes)


# Hand cases for the probe, as (params, program text).  At a budget of 10**9
# each probe below ends at a parting or at a repeat of the pair's state, and
# each run alone fast-forwards in Machine.run, observed or not: step by step,
# either would take minutes.
PROBE_CASES = {
    # on 1111 and its flip 0111, a counts modulo 16 and modulo 8: one path of
    # pcs, and the runs repeat with periods 48 and 24, so the pair repeats
    # with period 48 and the runs never part
    "periods differ": (AdversaryParams(1, 0, 1, 4), "L0: INC a\nAND a x\nJMP L0"),
    # a counts up from x again after each wrap: 16 rounds of 3 on 0000, then 8
    # on its flip 1000, which repeats at state 58; the runs part at state 75,
    # when both runs already loop, with periods 50 and 26, but the pair has not
    "parted in the tail": (AdversaryParams(0, 0, 0, 4),
                           "L0: OR a a\nINC a\nBNZ a L0\nMOV a x\nBEQ x x L0"),
    # b = x + 1 is 0 on 1111 and 8 on its flip, so only the run on x leaves
    # the loop, at a = 0 after 16 rounds, and halts; the flipped run loops
    "x halts": (AdversaryParams(1, 0, 1, 4),
                "MOV b x\nINC b\nL2: INC a\nAND a x\nBEQ a b L6\nJMP L2\nL6: OUT a"),
    # the flip's top bit moves on from b to c to d, one register a round, and
    # the flipped run halts in round 3; the run on 0000 repeats from round 1,
    # but the pair does not, as the flipped run's registers still change
    "flip halts": (AdversaryParams(0, 0, 0, 4),
                   "L0: INC a\nMOV d c\nMOV c b\nMOV b x\nDEC a\nBZ d L0\nOUT d"),
    # only the run on 0000 takes the first BZ, to the next line, so both runs
    # execute pc 1 next and do not part there; they part at the BLT, which only
    # the flipped run takes, as a = 1 < 8
    "next line": (AdversaryParams(0, 0, 0, 4), "L0: BZ x L1\nL1: INC a\nBLT a x L0\nOUT a"),
    # only the run on 0000 takes the BZ, and its flip 1000 falls off the end
    # there: a run that has ended executes nothing, so under today's rule the
    # runs do not part (ROADMAP item 17)
    "off the end": (AdversaryParams(0, 0, 0, 4), "L0: INC a\nBZ x L0"),
    # a climbs by one a round and either arm of the BLT adds one to b, so each
    # run alone is an affine loop; the pair tries a jump at step 12, in the
    # round where only the flipped run 10100 still takes the BLT, so their
    # paths of pcs part in it and the pair must step on, to part at step 14
    "arms of one length": (AdversaryParams(0, 1, 0, 5),
                           "L0: INC a\nBLT a x L3\nINC b\nJMP L0\nL3: INC b\nJMP L0"),
}


def test_probe_fast_forwards_both_runs():
    def runs(case):
        params, text = PROBE_CASES[case]
        program = parse_program(text)
        probe = msb_flip_probe(program, params, budget=10**9)
        results = []
        for word in (probe.x, probe.x_flipped):
            # an observed run never jumps, so it finds the first repeat; an
            # unobserved one may jump past it, to the same end
            observed = Machine().run(program, word, params.n, 10**9, observer=lambda *a: None)
            unobserved = Machine().run(program, word, params.n, 10**9)
            assert unobserved._replace(cycle=None) == observed._replace(cycle=None)
            results.append(observed)
        return probe.divergence, *results

    divergence, run_x, run_flipped = runs("periods differ")
    assert divergence is None
    assert run_x == ExecResult(None, 10**9, 333_333_334, HaltReason.BUDGET_EXHAUSTED,
                               cycle=(64, 48))
    assert run_flipped == run_x._replace(cycle=(32, 24))
    divergence, run_x, run_flipped = runs("parted in the tail")
    assert divergence == Divergence(74, 24)
    assert run_x == ExecResult(None, 10**9, 320_000_000, HaltReason.BUDGET_EXHAUSTED,
                               cycle=(64, 50))
    assert run_flipped == ExecResult(None, 10**9, 307_692_309, HaltReason.BUDGET_EXHAUSTED,
                                     cycle=(32, 26))
    divergence, run_x, run_flipped = runs("x halts")
    assert divergence == Divergence(65, 17)
    assert run_x == ExecResult(0, 66, 17, HaltReason.OUT)
    assert run_flipped == ExecResult(None, 10**9, 250_000_001, HaltReason.BUDGET_EXHAUSTED,
                                     cycle=(64, 32))
    divergence, run_x, run_flipped = runs("flip halts")
    assert divergence == Divergence(18, 6)
    assert run_x == ExecResult(None, 10**9, 333_333_333, HaltReason.BUDGET_EXHAUSTED,
                               cycle=(8, 6))
    assert run_flipped == ExecResult(8, 19, 6, HaltReason.OUT)
    divergence, run_x, run_flipped = runs("next line")
    assert divergence == Divergence(3, 1)
    assert run_x == ExecResult(1, 4, 1, HaltReason.OUT)
    assert run_flipped == ExecResult(8, 25, 8, HaltReason.OUT)
    divergence, run_x, run_flipped = runs("off the end")
    assert divergence is None
    assert run_x == ExecResult(None, 10**9, 500_000_000, HaltReason.BUDGET_EXHAUSTED,
                               cycle=(64, 32))
    assert run_flipped == ExecResult(None, 2, 1, HaltReason.FELL_OFF_END)


@pytest.mark.parametrize("case", PROBE_CASES)
@pytest.mark.parametrize("budget", [1, 7, 14, 18, 19, 50, 58, 64, 66, 74, 75, 100, 114, 1000])
def test_probe_hand_cases_match_traced_reference(case, budget):
    # the budgets cut before, at and after the repeats and the parting, and
    # 50, 100 and 1000 inside a cycle
    params, text = PROBE_CASES[case]
    program = parse_program(text)
    assert msb_flip_probe(program, params, budget) == reference_probe(program, params, budget)


@pytest.mark.parametrize("n", [17, 33, 64])
def test_probe_shipped_programs_at_wide_words(n):
    for m in (0, 1, (n - 1) // 4, (n - 1) // 2):
        for bit in (0, 1):
            params = AdversaryParams(bit, m, bit, n)
            for gen in (wegner_program(n), dense_program(n), combined_program(n)):
                probe = msb_flip_probe(gen.program, params)
                assert probe == reference_probe(gen.program, params, DEFAULT_BUDGET), gen.name
                assert probe.bound_holds


@pytest.fixture
def pair_jumps(monkeypatch):
    """What each call of the flip probe's pair jump returned."""
    import countones._affine as affine

    calls, jump_pair = [], affine.jump_pair

    def counted(*args):
        calls.append(jump_pair(*args))
        return calls[-1]

    monkeypatch.setattr(affine, "jump_pair", counted)
    return calls


def test_pair_jumps_match_traced_reference(pair_jumps):
    # the pair jumps over the passes of counter loops that its stepping would
    # run to the budget; every probe equals the two stepped runs compared
    rng = random.Random(34)
    for _ in range(1000):
        program = random_program(rng, rng.choice((4, 8, 24)))
        params = random_adversary_params(rng, (2, 64), equal_ends=True)
        budget = rng.choice((1, 7, 60, 512, 512, 2048, 2048, 20_000))
        probe = msb_flip_probe(program, params, budget)
        assert probe == reference_probe(program, params, budget), (program, params, budget)
    assert sum(jumped is not None for jumped in pair_jumps) >= 40


@pytest.mark.parametrize("e", [0, 1])
@pytest.mark.parametrize("m", [1, 9, 19])
def test_pair_jumps_a_counter_in_closed_form(e, m, pair_jumps):
    # c counts x (never 0 here) down in passes of 3 steps; the lane with the
    # smaller x leaves the loop first, at pass k, where the pair parts after
    # 1 + 3*k steps, far past what any stepper could run in a test
    program = parse_program("MOV c x\nL0: INC a\nDEC c\nBNZ c L0\nOUT a")
    params = AdversaryParams(e, m, e, 40)
    probe = msb_flip_probe(program, params, 10**12)
    k = min(probe.x, probe.x_flipped)
    assert probe.divergence == Divergence(1 + 3 * k, 2 * k)
    assert probe.bound_holds and any(pair_jumps)


def test_a_pair_jump_stops_before_a_branch_flips_at_pass_1(pair_jumps, monkeypatch):
    # on 00100 (4) and its flip 10100 (20), c counts down from x; the pair
    # tries a jump at step 7, back at the pc saved at step 4 with c at 2 and
    # 18.  The run on 4 takes its BZ at pass 1, so its proof fails and the pair
    # jumps no pass: it steps on and parts there, at step 12.  Alone, the proof
    # of the run on 20 would cover that pass.
    import countones._affine as affine

    proofs, prove = [], affine.prove
    monkeypatch.setattr(affine, "prove", lambda *args: proofs.append(prove(*args)) or proofs[-1])
    program = parse_program("MOV c x\nL1: DEC c\nBZ c L4\nJMP L1\nL4: OUT c")
    params = AdversaryParams(0, 1, 0, 5)
    for budget in (10, 12, 13, 100):
        assert msb_flip_probe(program, params, budget) == reference_probe(program, params, budget)
    proofs.clear()
    pair_jumps.clear()
    assert msb_flip_probe(program, params, 10**6).divergence == Divergence(12, 4)
    # the try at step 10, back at the pc saved at step 8, fails the same way
    assert pair_jumps == [None, None]
    assert [proof and proof[:2] for proof in proofs] == [None, (17, 1), None, (16, 1)]


def test_random_params_respect_the_constraints():
    rng = random.Random(5)
    for _ in range(500):
        p = random_adversary_params(rng, (2, 16))
        assert 2 * p.m < p.n
    for _ in range(500):
        p = random_adversary_params(rng, (2, 16), equal_ends=True)
        assert p.e == p.d


def test_invariant_fuzz_clean_on_stock_machine():
    report = fuzz_invariant(seed=1, program_count=400)
    assert report.ok
    assert report.runs == 400
    assert report.budget_exhausted < 400  # some programs do halt


def test_invariant_fuzz_empty_campaign():
    report = fuzz_invariant(seed=1, program_count=0)
    assert report.ok and report.runs == 0 and not report.violating_runs


def test_invariant_fuzz_reproducible():
    a = fuzz_invariant(seed=42, program_count=150)
    b = fuzz_invariant(seed=42, program_count=150)
    assert a == b
    c = fuzz_invariant(seed=43, program_count=150)
    assert c.budget_exhausted != a.budget_exhausted or c == a  # seed actually used


def test_invariant_fuzz_detects_broken_interpreter(non_wrapping_machine):
    report = fuzz_invariant(seed=1, program_count=300, machine=non_wrapping_machine)
    assert report.violation_count >= 1


def test_invariant_fuzz_detects_complement_mov(complement_mov_machine):
    report = fuzz_invariant(seed=1, program_count=300, machine=complement_mov_machine)
    assert report.violation_count >= 1


def test_divergence_fuzz_clean():
    report = fuzz_divergence(seed=1, program_count=300)
    assert report.ok
    assert report.diverged >= 1  # branches on x do diverge, just never early


def test_divergence_fuzz_reproducible():
    assert fuzz_divergence(seed=7, program_count=100) == fuzz_divergence(
        seed=7, program_count=100
    )
