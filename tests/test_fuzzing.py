import random
from dataclasses import replace

import pytest

from countones import (
    DivergenceFuzzReport,
    HaltReason,
    InvariantFuzzReport,
    Machine,
    MsbFlipProbe,
    Violation,
    Word,
    adversary_input,
    check_prefix_invariant,
    diff_traces,
    fuzz_divergence,
    fuzz_invariant,
    msb_flip_probe,
    parse_program,
    popcount_naive,
    random_program,
    random_program_text,
)
from countones.fuzzing import FUZZ_BUDGET, random_adversary_params

from conftest import ComplementMovMachine, NonWrappingIncMachine

# ----------------------------------------------------------------- reference
# The campaigns recomputed from the same rng draws the slow way: program
# text through the parser, fully traced runs, and the checks applied to the
# recorded traces afterwards.


def reference_violations(trace, params):
    """The invariant stated on bit strings, snapshot by snapshot: (checked, violations)."""
    n, m = params.n, params.m
    xbits = adversary_input(params).to_bits()
    checked, violations = 0, []
    for snap_idx, snap in enumerate(trace):
        i = snap.incdec_index
        if i > m:
            break
        k = n if i == 0 else 2 * (m - i) + 1
        allowed = ("0" * k, "1" * k, xbits[:k])
        for name, value in snap.registers.items():
            prefix = format(value >> (n - k), f"0{k}b")
            if prefix not in allowed:
                violations.append(Violation(snap_idx, i, name, prefix, allowed))
        checked += 1
    return checked, tuple(violations)


def reference_probe(program, params, budget):
    x = adversary_input(params)
    flipped = Word(params.n, x.value ^ (1 << (params.n - 1)))
    result_x = Machine().run(program, x, budget=budget, trace=True)
    result_flipped = Machine().run(program, flipped, budget=budget, trace=True)
    nu = popcount_naive(x)
    return MsbFlipProbe(
        params, x, flipped, nu, min(nu, params.n - nu),
        diff_traces(result_x, result_flipped),
        replace(result_x, trace=None),
        replace(result_flipped, trace=None),
    )


def reference_invariant(seed, count, budget=FUZZ_BUDGET, machine=None):
    rng = random.Random(seed)
    machine = machine or Machine()
    exhausted = violation_count = cut_in_window = 0
    violating = []
    for run_idx in range(count):
        program = parse_program(random_program_text(rng))
        params = random_adversary_params(rng, (4, 16))
        result = machine.run(program, adversary_input(params), budget=budget, trace=True)
        if result.halt_reason is HaltReason.BUDGET_EXHAUSTED:
            exhausted += 1
            cut_in_window += result.trace[-1].incdec_index <= params.m
        report = check_prefix_invariant(result.trace, params)
        assert (report.snapshots_checked, report.violations) == reference_violations(
            result.trace, params)
        if not report.ok:
            violation_count += len(report.violations)
            violating.append((run_idx, params, report.violations))
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


# -------------------------------------------------- online checks vs traces


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
        assert probe.result_x.trace is None and probe.result_flipped.trace is None
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
