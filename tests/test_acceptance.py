"""Acceptance suite: every exit criterion at its stated tolerance.

Each test prints a single PASS line on success; failures show witnesses.
Total runtime is a couple of minutes, dominated by the fuzzing campaign and
the million-word oracle sweeps.
"""

import math
import random

import pytest

from countones import (
    CONSTANT_STEP_FACTOR,
    AdversaryParams,
    Word,
    broadword_popcount,
    constant_inc_count,
    constant_program,
    execute,
    fuzz_divergence,
    fuzz_invariant,
    hakmem_popcount,
    lower_bound_audit,
    measure,
    msb_flip_probe,
    popcount_naive,
    shipped_programs,
    twobit_program,
)
from countones.cli import main

from conftest import NonWrappingIncMachine

WIDTHS = range(2, 13)


@pytest.fixture(scope="module")
def measurements():
    """One exhaustive run of every shipped program on every input, n = 2..12."""
    # (name, width) -> (program, [(value, nu, output, incdec, total, halt), ...])
    return {
        (gen.name, width): (gen, list(measure(gen.program, width, range(1 << width))))
        for width in WIDTHS
        for gen in shipped_programs(width)
    }


def test_oracle_equivalence_exhaustive(measurements):
    """outputs equal the naive bit count for every input, n = 2..12"""
    checked = 0
    for (name, width), (_, data) in measurements.items():
        for value, nu, out, *_ in data:
            assert out == nu, (
                f"{name} n={width} x={value:0{width}b}: expected {nu}, got {out}"
            )
            checked += 1
    # the width-2 special case, spelled out
    twobit = {v: out for v, _, out, *_ in measurements[("twobit", 2)][1]}
    assert twobit == {0: 0, 1: 1, 2: 1, 3: 2}
    print(f"\nPASS oracle equivalence: {checked} program runs match popcount_naive")


def test_exact_step_laws(measurements):
    """measured inc/dec equals the closed form on every input, n = 2..12"""
    for (name, width), (gen, data) in measurements.items():
        predicted = gen.predicted_incdec
        for value, nu, _, incdec, _, _ in data:
            assert incdec == predicted(nu), (
                f"{name} n={width} x={value:0{width}b}: incdec {incdec}, "
                f"law says {predicted(nu)}"
            )
    # frozen spot values from hand traces
    spot = {v: i for v, _, _, i, _, _ in measurements[("wegner", 4)][1]}
    assert spot[0b1011] == 6
    spot = {v: i for v, _, _, i, _, _ in measurements[("dense", 4)][1]}
    assert spot[0b1101] == 6 and spot[0b1111] == 4
    print("PASS exact step laws: 2*nu (wegner) and gen(n)+2*(n-nu)+1 (dense), "
          "plus the exact combined form")


def test_total_step_laws(measurements):
    """total steps depend only on (n, nu) for wegner, dense and combined, n = 2..12"""
    for (name, width), (_, data) in measurements.items():
        if name == "twobit":
            continue
        totals: dict[int, int] = {}
        for value, nu, _, _, total, _ in data:
            assert totals.setdefault(nu, total) == total, (
                f"{name} n={width} x={value:0{width}b}: total {total}, "
                f"another input with nu={nu} took {totals[nu]}"
            )
        assert sorted(totals) == list(range(width + 1))
        if name == "wegner":
            assert totals == {nu: 6 * nu + 2 for nu in range(width + 1)}
    print("PASS total-step laws: a function of (n, nu) for all three counters; "
          "6*nu + 2 for wegner")


def test_constant_generation_exact_and_logarithmic():
    """every target <= 4096 exactly, steps <= factor * log2(t + 2)"""
    for target in range(4097):
        gen = constant_program(target, 13)
        res = execute(gen.program, Word(13, 0))
        assert res.output == target
        assert res.incdec_steps == constant_inc_count(target)
        limit = CONSTANT_STEP_FACTOR * math.log2(target + 2)
        assert res.total_steps <= limit, (target, res.total_steps)
    rng = random.Random(2)
    for _ in range(1000):
        target = rng.randrange(1 << 16)
        gen = constant_program(target, 17)
        res = execute(gen.program, Word(17, 0))
        assert res.output == target
        assert res.total_steps <= CONSTANT_STEP_FACTOR * math.log2(target + 2)
    print(f"PASS constant generation: 4097 exhaustive + 1000 sampled targets, "
          f"steps within {CONSTANT_STEP_FACTOR}*log2(t+2)")


def test_lower_bound_audit_exhaustive():
    """incdec >= min(nu, n-nu) whenever nu != n/2, for every shipped program"""
    audited = 0
    for width in WIDTHS:
        for gen in shipped_programs(width):
            report = lower_bound_audit(gen)
            assert report.ok, report.failures[:3]
            audited += report.inputs
    # the two-bit floor: every non-zero input costs exactly one inc/dec
    twobit = twobit_program()
    for value in (1, 2, 3):
        res = execute(twobit.program, Word(2, value))
        assert res.incdec_steps == 1
    assert execute(twobit.program, Word(2, 0)).incdec_steps == 0
    print(f"PASS lower-bound audit: {audited} audited runs, zero bound violations; "
          "width-2 floor is exactly one inc/dec")


def test_prefix_invariant_fuzz_and_checker_sensitivity():
    """10^4 random observed runs stay clean; a broken interpreter does not"""
    report = fuzz_invariant(seed=1, program_count=10_000, width_range=(4, 16))
    assert report.ok, report.violating_runs[:2]
    mutated = fuzz_invariant(
        seed=1, program_count=300, width_range=(4, 16), machine=NonWrappingIncMachine()
    )
    assert mutated.violation_count >= 1
    print(f"PASS prefix-invariant fuzz: {report.runs} clean runs "
          f"({report.budget_exhausted} budget-cut); non-wrapping INC fixture "
          f"raised {mutated.violation_count} violations")


def test_msb_flip_divergence_bounds():
    """no control-flow divergence below min(nu, n-nu), shipped and fuzzed"""
    probes = 0
    for n in range(2, 17):
        programs = shipped_programs(n)
        for m in range((n - 1) // 2 + 1):
            for bit in (0, 1):
                params = AdversaryParams(bit, m, bit, n)
                for gen in programs:
                    probe = msb_flip_probe(gen.program, params)
                    assert probe.bound_holds, (gen.name, params, probe.divergence)
                    probes += 1
    fuzzed = fuzz_divergence(seed=1, program_count=1000, width_range=(2, 16))
    assert fuzzed.ok, fuzzed.violating_probes[:2]
    print(f"PASS divergence bounds: {probes} shipped-program probes and "
          f"{fuzzed.runs} fuzzed probes ({fuzzed.diverged} diverged, none early)")


def test_reference_popcount_oracles():
    """broadword and octal/mod-63 routines agree with the bit-count oracle"""
    for value in range(1 << 16):
        w = Word(16, value)
        assert broadword_popcount(w) == popcount_naive(w)
    rng = random.Random(3)
    for _ in range(1_000_000):
        w = Word(64, rng.getrandbits(64))
        assert broadword_popcount(w) == popcount_naive(w)
    assert hakmem_popcount(Word(32, 0)) == 0
    assert hakmem_popcount(Word(32, (1 << 32) - 1)) == 32
    for _ in range(1_000_000):
        w = Word(32, rng.getrandbits(32))
        assert hakmem_popcount(w) == popcount_naive(w)
    print("PASS reference oracles: width-16 exhaustive + 10^6 random words each")


def test_cli_reproducibility(tmp_path, capsys):
    """verify exits 0; seeded commands emit byte-identical CSV"""
    assert main(["verify"]) == 0  # default widths 2..12
    capsys.readouterr()

    sweeps = []
    for name in ("a", "b"):
        path = tmp_path / f"sweep_{name}.csv"
        assert main(["sweep", "--width", "21", "--algo", "dense",
                     "--seed", "11", "--out", str(path)]) == 0
        sweeps.append(path.read_bytes())
    assert sweeps[0] == sweeps[1]

    fuzzes = []
    for name in ("a", "b"):
        path = tmp_path / f"fuzz_{name}.csv"
        assert main(["fuzz", "--seed", "11", "--count", "150", "--out", str(path)]) == 0
        fuzzes.append(path.read_bytes())
    capsys.readouterr()
    assert fuzzes[0] == fuzzes[1]
    print("\nPASS reproducibility: verify exit 0, same-seed CSV byte-identical")
