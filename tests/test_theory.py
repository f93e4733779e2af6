import random
from itertools import product

import pytest
from hypothesis import given
from hypothesis import strategies as st

from countones import (
    AUDIT_WIDTH_MAX,
    DEFAULT_BUDGET,
    AdversaryParams,
    AuditFailure,
    Divergence,
    HaltReason,
    LowerBoundCheck,
    Machine,
    PrefixInvariantCheck,
    adversary_input,
    combined_program,
    dense_program,
    lower_bound_audit,
    measure,
    msb_flip_probe,
    parse_program,
    popcount_naive,
    shipped_programs,
    twobit_program,
    wegner_program,
)

from countones import adversary, vm
from countones.adversary import _lanes, _nu_slices, fold_slices
from conftest import ComplementMovMachine, record_run, wrong_programs

adversary_params = st.integers(1, 24).flatmap(
    lambda n: st.builds(
        AdversaryParams,
        st.integers(0, 1),
        st.integers(0, (n - 1) // 2),
        st.integers(0, 1),
        st.just(n),
    )
)


# --------------------------------------------------------- adversary words


def test_adversary_input_examples():
    assert adversary_input(AdversaryParams(1, 1, 1, 6)) == 0b101111
    word = adversary_input(AdversaryParams(0, 2, 0, 6))
    assert word == 0b001010
    assert popcount_naive(word) == 2
    assert adversary_input(AdversaryParams(0, 0, 0, 4)) == 0b0000


def test_adversary_input_equals_its_bit_string_spelling():
    # the closed form against the word spelled out bit by bit, at every width
    for n in range(1, 65):
        for m, e, d in product(range((n - 1) // 2 + 1), (0, 1), (0, 1)):
            bits = f"{e}" + "01" * m + str(d) * (n - 2 * m - 1)
            assert len(bits) == n
            assert adversary_input(AdversaryParams(e, m, d, n)) == int(bits, 2), bits


def test_adversary_params_validation():
    with pytest.raises(ValueError):
        AdversaryParams(0, 3, 0, 6)  # m >= n/2
    with pytest.raises(ValueError):
        AdversaryParams(2, 0, 0, 6)
    with pytest.raises(ValueError):
        AdversaryParams(0, -1, 0, 6)


@given(adversary_params)
def test_adversary_population_formula(p):
    word = adversary_input(p)
    assert 0 <= word < 1 << p.n
    assert popcount_naive(word) == p.e + p.m + p.d * (p.n - 2 * p.m - 1)
    if p.e == p.d:  # nu is m or n - m with 2m < n, so msb_flip_probe never meets nu = n/2
        assert 2 * popcount_naive(word) != p.n


# --------------------------------------------------------- prefix invariant


def invariant_check(program, params, machine=None):
    """The prefix invariant checked online over one run on ``adversary_input(params)``."""
    check = PrefixInvariantCheck(params)
    (machine or Machine()).run(program, adversary_input(params), params.n, observer=check.observe)
    return check


def test_initial_state_always_satisfies_invariant():
    params = AdversaryParams(1, 2, 1, 8)
    x = adversary_input(params)
    check = PrefixInvariantCheck(params)
    check.observe(0, None, {"x": x, "a": 0, "b": 0})
    assert check.ok
    assert check.checked == 1


def test_fabricated_violation_detected():
    params = AdversaryParams(1, 2, 0, 8)
    # a register whose top three bits are 010 at inc/dec index 1:
    # allowed prefixes there are 000, 111 and 101
    check = PrefixInvariantCheck(params)
    check.observe(1, 0, {"r": 0b010_00000})
    assert len(check.violations) == 1
    v = check.violations[0]
    assert v.register == "r"
    assert v.prefix == "010"
    assert set(v.allowed) == {"000", "111", "101"}


def test_wegner_trace_satisfies_invariant():
    params = AdversaryParams(0, 2, 0, 6)
    program = wegner_program(6).program
    check = invariant_check(program, params)
    assert check.ok
    # every state up to the last one with i <= m was checked
    _, states = record_run(program, adversary_input(params), params.n)
    assert check.checked == sum(1 for i, _, _ in states if i <= params.m) > 1


@given(adversary_params)
def test_shipped_program_traces_satisfy_invariant(p):
    for gen in (wegner_program(p.n), dense_program(p.n)):
        check = invariant_check(gen.program, p)
        assert check.ok, check.violations[:3]


def test_vacuous_beyond_m_snapshots_are_skipped():
    params = AdversaryParams(0, 1, 0, 6)
    # arbitrary garbage at inc/dec index 2 (> m) must not be flagged, and
    # detaches the check
    check = PrefixInvariantCheck(params)
    assert check.observe(0, None, {"x": adversary_input(params)}) is True
    assert check.observe(2, 0, {"x": 0b110011}) is False
    assert check.ok
    assert check.checked == 1


# ------------------------------------------------------------- flip probes


def test_probe_wegner_divergence_respects_bound():
    params = AdversaryParams(0, 2, 0, 6)
    probe = msb_flip_probe(wegner_program(6).program, params)
    assert probe.x == 0b001010
    assert probe.x_flipped == 0b101010
    assert probe.bound == 2
    # hand trace: the third BZ resolves differently, after 4 inc/dec steps
    assert probe.divergence == Divergence(13, 4)
    assert probe.bound_holds


def test_probe_branchless_program_never_diverges():
    probe = msb_flip_probe(
        parse_program("OUT x"), AdversaryParams(1, 1, 1, 6)
    )
    assert probe.divergence is None
    assert probe.bound_holds


def test_probe_dense_program():
    probe = msb_flip_probe(dense_program(6).program, AdversaryParams(1, 1, 1, 6))
    assert probe.nu == 5 and probe.bound == 1
    assert probe.bound_holds


@pytest.mark.xfail(strict=True, reason="a path that is a prefix of the other is no divergence, "
                                        "so a branch that falls off the end goes unseen")
def test_probe_sees_a_branch_off_the_end():
    # 0000 loops until the budget ends; its flip 1000 falls off the end
    probe = msb_flip_probe(parse_program("L0: INC a\nBZ x L0"), AdversaryParams(0, 0, 0, 4),
                           budget=50)
    assert probe.divergence is not None


def test_probe_rejects_mixed_end_bits():
    # on 1 0^(n-1) the flipped word is zero and any first branch tells them
    # apart, so the bound claim is restricted to e == d inputs
    with pytest.raises(ValueError):
        msb_flip_probe(wegner_program(6).program, AdversaryParams(1, 0, 0, 6))


def test_probe_rejects_a_budget_below_one():
    # with Machine.run's message, and only once the end bits have passed
    with pytest.raises(ValueError, match=r"^budget must be >= 1, got 0$"):
        msb_flip_probe(wegner_program(6).program, AdversaryParams(1, 0, 1, 6), budget=0)
    with pytest.raises(ValueError, match="needs e == d"):
        msb_flip_probe(wegner_program(6).program, AdversaryParams(1, 0, 0, 6), budget=0)


def test_probe_exhaustive_equal_end_params():
    for n in range(2, 9):
        for m in range((n - 1) // 2 + 1):
            for bit in (0, 1):
                params = AdversaryParams(bit, m, bit, n)
                for gen in (wegner_program(n), dense_program(n)):
                    assert msb_flip_probe(gen.program, params).bound_holds


# -------------------------------------------------------------- the audits


def test_audit_wegner_width_8():
    report = lower_bound_audit(wegner_program(8))
    assert report.ok
    assert report.min_ratio == 2.0  # incdec = 2*nu against a nu bound
    assert report.max_incdec == 16


def test_audit_dense_and_twobit():
    assert lower_bound_audit(dense_program(8)).ok
    twobit = lower_bound_audit(twobit_program())
    assert twobit.ok
    assert twobit.max_incdec == 1


def test_audit_reports_unchanged():
    # whole checks, as the audit gave them before it became a fold of measure()
    assert lower_bound_audit(wegner_program(12)) == LowerBoundCheck(
        "wegner", 12, 4096, [], 2.0, 24)
    assert lower_bound_audit(dense_program(8)) == LowerBoundCheck(
        "dense", 8, 256, [], 11 / 3, 21)
    assert lower_bound_audit(dense_program(12)) == LowerBoundCheck(
        "dense", 12, 4096, [], 3.2, 30)
    assert lower_bound_audit(combined_program(12)) == LowerBoundCheck(
        "combined", 12, 4096, [], 4.2, 29)
    assert lower_bound_audit(twobit_program()) == LowerBoundCheck("twobit", 2, 4, [], None, 1)


def test_audit_is_a_fold_of_measure(complement_mov_machine):
    gen = twobit_program()
    check = LowerBoundCheck("twobit", 2)
    for row in measure(gen.program, 2, range(4), complement_mov_machine):
        check.add(row)
    report = lower_bound_audit(gen, machine=complement_mov_machine)
    assert check == report
    assert report.failures == [
        AuditFailure("10", 1, "output", "expected 1, got 2"),
        AuditFailure("11", 2, "output", "expected 2, got 3"),
    ]
    assert report.inputs == 4 and report.max_incdec == 1


def test_audit_verdict_is_the_output_check():
    # the broken MOV machine's loops that never end are fast-forwarded, so
    # each costs about one period, not the default budget
    broken, wrong = ComplementMovMachine(), 0
    for width in range(2, 6):
        for gen in shipped_programs(width):
            inputs = range(1 << width)
            check = LowerBoundCheck(gen.name, width)
            rejected = [f"{row[0]:0{width}b}" for row in measure(gen.program, width, inputs, broken)
                        if not check.add(row)]
            report = lower_bound_audit(gen, machine=broken)
            assert rejected == [f.input_bits for f in report.failures if f.kind == "output"]
            wrong += len(rejected)
            stock = LowerBoundCheck(gen.name, width)
            assert all(stock.add(row) for row in measure(gen.program, width, inputs))
    assert wrong > 0


def _slices(values, width):
    """Bit ``j`` of slice ``b`` is bit ``b`` of ``values[j]``, built one bit at a time."""
    return [sum((value >> b & 1) << j for j, value in enumerate(values)) for b in range(width)]


def test_nu_slices_equal_the_naive_count():
    cases = [(width, range(1 << width)) for width in range(1, AUDIT_WIDTH_MAX + 1)]
    rng = random.Random(64)
    cases.append((64, [rng.randrange(1 << 64) for _ in range(500)] + [0, (1 << 64) - 1]))
    for width, values in cases:
        nu = _nu_slices(_slices(values, width))
        assert len(nu) == width.bit_length()
        assert [sum((s >> j & 1) << i for i, s in enumerate(nu)) for j in range(len(values))] == [
            popcount_naive(value) for value in values], width


def test_lanes_are_the_set_bits_lowest_first():
    full = (1 << 4096) - 1
    rng = random.Random(4096)
    masks = [0, 1, 1 << 4095, full, full // 3, full // 3 << 1]  # // 3: alternating bits
    masks += [rng.getrandbits(4096) & rng.getrandbits(4096) for _ in range(20)]
    masks += [rng.getrandbits(rng.randrange(1, 4097)) for _ in range(20)]
    for mask in masks:
        assert list(_lanes(mask)) == [j for j in range(mask.bit_length()) if mask >> j & 1]


def test_audit_on_slices_equals_the_row_path():
    for width in range(2, AUDIT_WIDTH_MAX + 1):
        for gen in shipped_programs(width):
            assert lower_bound_audit(gen) == lower_bound_audit(gen, machine=Machine())
    failing = 0
    for width in range(2, 6):
        for gen in wrong_programs(width):
            report = lower_bound_audit(gen)
            assert report == lower_bound_audit(gen, machine=Machine()), (gen.name, width)
            failing += len(report.failures)
    assert failing > 3


def _failing_rows(gen, budget=DEFAULT_BUDGET):
    """The rows of the row path that add a failure to a fresh audit, in input order."""
    check, failing = LowerBoundCheck(gen.name, gen.width), []
    for row in measure(gen.program, gen.width, range(1 << gen.width), budget=budget):
        before = len(check.failures)
        check.add(row)
        if len(check.failures) > before:
            failing.append(row)
    return failing


def test_fold_expands_exactly_the_failing_lanes(monkeypatch):
    for width in range(2, 6):
        for gen in wrong_programs(width):
            check = LowerBoundCheck(gen.name, width)
            assert fold_slices(check, gen.program) == _failing_rows(gen), (gen.name, width)
    # the identity: every input but 0 and 1 outputs itself, and 1 misses its bound
    identity = wrong_programs(5)[0]
    check = LowerBoundCheck(identity.name, 5)
    assert len(fold_slices(check, identity.program)) == 31 and check.inputs == 1
    assert fold_slices(LowerBoundCheck("wegner", 5), wegner_program(5).program) == []
    # cut by the budget: wegner takes 6*nu + 2 steps, so nu >= 4 is cut at 20
    wegner = wegner_program(6)
    check = LowerBoundCheck("wegner", 6)
    monkeypatch.setattr(adversary, "run_slices",
                        lambda p, w, v, budget=20: vm.run_slices(p, w, v, budget))
    rows = fold_slices(check, wegner.program)
    assert rows == _failing_rows(wegner, budget=20)
    assert {row[1] for row in rows} == {4, 5, 6} and check.inputs == 64 - len(rows)
    assert {row[-1] for row in rows} == {HaltReason.BUDGET_EXHAUSTED}


def test_measure_rows():
    rows = list(measure(wegner_program(3).program, 3, [0b101, 0b000]))
    assert rows == [(0b101, 2, 2, 4, 14, HaltReason.OUT), (0, 0, 0, 0, 2, HaltReason.OUT)]
    # a cut run has no output
    (row,) = measure(wegner_program(3).program, 3, [0b111], budget=5)
    assert row == (0b111, 3, None, 2, 5, HaltReason.BUDGET_EXHAUSTED)
    lazy = measure(wegner_program(3).program, 3, iter(range(8)))
    assert next(lazy)[:3] == (0, 0, 0)


def test_audit_rejects_bad_widths():
    for width in (1, AUDIT_WIDTH_MAX + 1):
        with pytest.raises(ValueError, match=rf"2\.\.{AUDIT_WIDTH_MAX}, got {width}$"):
            lower_bound_audit(wegner_program(width))


def test_audit_catches_a_wrong_counter():
    # a program that outputs x instead of the count
    from countones import GeneratedProgram

    fake = GeneratedProgram(
        name="identity",
        width=3,
        text="OUT x",
        predicted_incdec=lambda nu: 0,
    )
    assert fake.program == parse_program("OUT x")
    report = lower_bound_audit(fake)
    assert not report.ok
    assert any(f.kind == "output" for f in report.failures)


# ---------------------------------------------------- checker sensitivity


def test_non_wrapping_inc_breaks_invariant(non_wrapping_machine):
    program = parse_program("DEC a\nINC a\nOUT a")
    params = AdversaryParams(0, 5, 0, 12)
    check = invariant_check(program, params, non_wrapping_machine)
    assert not check.ok
    assert any(v.incdec_index == 2 for v in check.violations)


def test_complement_mov_breaks_invariant(complement_mov_machine):
    program = parse_program("MOV a x\nOUT a")
    params = AdversaryParams(0, 3, 0, 8)
    check = invariant_check(program, params, complement_mov_machine)
    assert not check.ok
    assert check.violations[0].incdec_index == 0
