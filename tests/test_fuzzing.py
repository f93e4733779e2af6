import random

import pytest

from countones import (
    AdversaryParams,
    Divergence,
    DivergenceFuzzReport,
    ExecResult,
    HaltReason,
    InvariantFuzzReport,
    Machine,
    MsbFlipProbe,
    PrefixInvariantCheck,
    Violation,
    Word,
    adversary_input,
    fuzz_divergence,
    fuzz_invariant,
    msb_flip_probe,
    parse_program,
    popcount_naive,
    random_program,
    random_program_text,
)
from countones.fuzzing import FUZZ_BUDGET, random_adversary_params

from conftest import ComplementMovMachine, NonWrappingIncMachine, record_run

# ----------------------------------------------------------------- reference
# The campaigns recomputed from the same rng draws the slow way: program
# text through the parser, runs that record every state, and the checks
# applied to the recorded states afterwards.


def reference_violations(states, params):
    """The invariant stated on bit strings, state by state."""
    n, m = params.n, params.m
    xbits = adversary_input(params).to_bits()
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


def reference_probe(program, params, budget):
    x = adversary_input(params)
    flipped = Word(params.n, x.value ^ (1 << (params.n - 1)))
    result_x, states_x = record_run(program, x, budget)
    result_flipped, states_flipped = record_run(program, flipped, budget)
    nu = popcount_naive(x)
    return MsbFlipProbe(
        params, x, flipped, nu, min(nu, params.n - nu),
        first_divergence(states_x, states_flipped), result_x, result_flipped,
    )


def reference_invariant(seed, count, budget=FUZZ_BUDGET, machine=None):
    rng = random.Random(seed)
    machine = machine or Machine()
    exhausted = violation_count = cut_in_window = 0
    violating = []
    for run_idx in range(count):
        program = parse_program(random_program_text(rng))
        params = random_adversary_params(rng, (4, 16))
        result, states = record_run(program, adversary_input(params), budget, machine)
        if result.halt_reason is HaltReason.BUDGET_EXHAUSTED:
            exhausted += 1
            cut_in_window += states[-1][0] <= params.m
        violations = reference_violations(states, params)
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
        program = parse_program(random_program_text(rng))
        params = random_adversary_params(rng, (2, 16), equal_ends=True)
        probe = reference_probe(program, params, budget)
        diverged += probe.divergence is not None
        if not probe.bound_holds:
            violating.append((run_idx, probe))
    return DivergenceFuzzReport(seed, count, diverged, tuple(violating))


# ------------------------------------------------------------------ programs


def test_generated_programs_always_parse():
    # the text is a rendering of the directly built program, and parses back to it
    for max_len in (2, 24, 60):
        text_rng, program_rng = random.Random(99), random.Random(99)
        for _ in range(300):
            text = random_program_text(text_rng, max_len)
            assert parse_program(text) == random_program(program_rng, max_len)


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
    # a loop with no INC/DEC replays states already found clean, so the
    # check detaches and the run fast-forwards to its budget
    params = AdversaryParams(0, 0, 0, 6)  # the zero word
    check = PrefixInvariantCheck(params)
    res = Machine().run(parse_program("L0: BZ x L0"), adversary_input(params), 10**9,
                        observer=check.observe)
    assert res == ExecResult(None, 10**9, 0, HaltReason.BUDGET_EXHAUSTED)
    assert check.ok
    assert check.checked < 10
    # a loop with INC/DEC repeats its registers at a higher i, which is no
    # replay: the check stays attached until the window i <= m closes
    params = AdversaryParams(1, 5, 1, 12)
    program = parse_program("L0: INC a\nDEC a\nJMP L0")
    check = PrefixInvariantCheck(params)
    Machine().run(program, adversary_input(params), 10**9, observer=check.observe)
    _, states = record_run(program, adversary_input(params), 100)
    assert check.ok
    assert check.checked == sum(i <= params.m for i, _, _ in states) == 8


def test_check_stays_attached_to_a_violating_loop():
    # the complementing MOV breaks the invariant on every state after the
    # first, and every one of them is reported
    params = AdversaryParams(1, 1, 0, 6)
    program = parse_program("L0: MOV a x\nJMP L0")
    check = PrefixInvariantCheck(params)
    ComplementMovMachine().run(program, adversary_input(params), 50, observer=check.observe)
    _, states = record_run(program, adversary_input(params), 50, ComplementMovMachine())
    assert tuple(check.violations) == reference_violations(states, params)
    assert len(check.violations) == 50 and check.checked == 51


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
        outcomes.add((probe.divergence is not None, probe.result_x.halt_reason))
    # both verdicts were reached, and runs were cut by the budget
    assert {d for d, _ in outcomes} == {False, True}
    assert any(h is HaltReason.BUDGET_EXHAUSTED for _, h in outcomes)


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
