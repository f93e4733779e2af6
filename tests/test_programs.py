import math
import random

import pytest

from countones import (
    CONSTANT_STEP_FACTOR,
    GeneratedProgram,
    ParseError,
    Word,
    broadword_popcount,
    combined_program,
    constant_inc_count,
    constant_program,
    dense_program,
    execute,
    hakmem_popcount,
    parse_program,
    popcount_naive,
    shipped_programs,
    twobit_program,
    wegner_program,
)


def run(gen, width, value):
    return execute(gen.program, Word(width, value))


# ------------------------------------------------------------------ wegner


def test_wegner_spot_values():
    g = wegner_program(4)
    assert (run(g, 4, 0b1011).output, run(g, 4, 0b1011).incdec_steps) == (3, 6)
    assert (run(g, 4, 0).output, run(g, 4, 0).incdec_steps) == (0, 0)
    g12 = wegner_program(12)
    res = run(g12, 12, (1 << 12) - 1)
    assert res.output == 12
    assert res.incdec_steps == 24 == g12.predicted_incdec(12)


# ---------------------------------------------------------------- constant


def test_constant_spot_values():
    g = constant_program(6, 4)
    res = run(g, 4, 0)
    assert res.output == 6
    assert res.incdec_steps == 4

    g0 = constant_program(0, 4)
    res0 = run(g0, 4, 0)
    assert res0.output == 0
    assert res0.incdec_steps == 0
    assert g0.text.splitlines()[0] == "ZERO acc"


@pytest.mark.parametrize("k", range(12))
def test_constant_powers_of_two(k):
    g = constant_program(1 << k, 13)
    res = run(g, 13, 0)
    assert res.output == 1 << k
    assert res.incdec_steps == k + 1


def test_constant_exact_values_and_step_bound():
    for target in range(513):
        g = constant_program(target, 10)
        res = run(g, 10, 0)
        assert res.output == target
        assert res.incdec_steps == constant_inc_count(target)
        assert res.total_steps <= CONSTANT_STEP_FACTOR * math.log2(target + 2)


def test_constant_rejects_unrepresentable_target():
    with pytest.raises(ValueError):
        constant_program(16, 4)
    with pytest.raises(ValueError):
        constant_program(-1, 4)


# ------------------------------------------------------------------- dense


def test_dense_spot_values():
    g = dense_program(4)
    for value, out, incdec in ((0b1101, 3, 6), (0b1111, 4, 4), (0, 0, 12)):
        res = run(g, 4, value)
        assert (res.output, res.incdec_steps) == (out, incdec)


# ---------------------------------------------------------------- combined


def test_combined_tiny_width_exhaustive():
    g = combined_program(2)
    for value in range(4):
        res = run(g, 2, value)
        assert res.output == popcount_naive(Word(2, value))


def test_combined_sparse_input_bound():
    g = combined_program(12)
    res = run(g, 12, 1 << 5)  # nu = 1
    assert res.output == 1
    bound = 2 * min(2 * 1, constant_inc_count(12) + 2 * 11 + 1) + 2
    assert res.incdec_steps <= bound == 6
    assert res.incdec_steps == g.predicted_incdec(1)


def test_combined_dense_input_finishes_early():
    g = combined_program(12)
    res = run(g, 12, (1 << 12) - 1)
    assert res.output == 12
    # far below what the clearing loop alone would need (24)
    assert res.incdec_steps == g.predicted_incdec(12) < 24


# ------------------------------------------------ exhaustive program laws


@pytest.mark.parametrize("width", range(1, 11))
def test_outputs_and_exact_step_laws_exhaustive(width):
    for gen in shipped_programs(width)[:3]:
        for value in range(1 << width):
            word = Word(width, value)
            nu = popcount_naive(word)
            res = execute(gen.program, word)
            assert res.output == nu, (gen.name, value)
            assert res.incdec_steps == gen.predicted_incdec(nu), (
                gen.name,
                value,
            )


@pytest.mark.parametrize("width", range(1, 11))
def test_combined_never_exceeds_interleave_bound(width):
    g = combined_program(width)
    gen_cost = constant_inc_count(width)
    for value in range(1 << width):
        word = Word(width, value)
        nu = popcount_naive(word)
        res = execute(g.program, word)
        bound = 2 * min(2 * nu, gen_cost + 2 * (width - nu) + 1) + 2
        assert res.incdec_steps <= bound, (width, value)


# ------------------------------------------------------------------ twobit


def test_twobit_observation():
    g = twobit_program()
    expectations = {
        0b00: (0, 0),
        0b01: (1, 1),
        0b10: (1, 1),
        0b11: (2, 1),
    }
    for value, (out, incdec) in expectations.items():
        res = run(g, 2, value)
        assert (res.output, res.incdec_steps) == (out, incdec)


# ------------------------------------------------------------- round trips


@pytest.mark.parametrize("width", [2, 4, 7, 12])
def test_generated_text_round_trips(width):
    for gen in shipped_programs(width):
        reparsed = parse_program(gen.text)
        for value in range(min(1 << width, 64)):
            word = Word(width, value)
            assert execute(reparsed, word) == execute(gen.program, word)


def test_generated_program_parses_its_text_when_built():
    with pytest.raises(ParseError, match="line 2"):
        GeneratedProgram("broken", 3, "OUT x\nNOPE x", lambda nu: 0)


def test_width_validation():
    for bad in (0, 65):
        with pytest.raises(ValueError):
            wegner_program(bad)
        with pytest.raises(ValueError):
            dense_program(bad)
        with pytest.raises(ValueError):
            combined_program(bad)


# -------------------------------------------------------- reference oracles


def test_broadword_spot_values():
    assert broadword_popcount(Word(4, 0)) == 0
    assert broadword_popcount(Word(64, 0xAAAA_AAAA_AAAA_AAAA)) == 32
    assert broadword_popcount(Word(64, (1 << 64) - 1)) == 64


def test_broadword_exhaustive_width_12():
    for value in range(1 << 12):
        w = Word(12, value)
        assert broadword_popcount(w) == popcount_naive(w)


def test_broadword_random_64():
    rng = random.Random(7)
    for _ in range(20_000):
        w = Word(64, rng.getrandbits(64))
        assert broadword_popcount(w) == popcount_naive(w)


def test_hakmem_spot_values():
    assert hakmem_popcount(Word(32, 0)) == 0
    assert hakmem_popcount(Word(32, 0xFFFF_FFFF)) == 32


def test_hakmem_random_32():
    rng = random.Random(7)
    for _ in range(20_000):
        w = Word(32, rng.getrandbits(32))
        assert hakmem_popcount(w) == popcount_naive(w)


def test_hakmem_requires_width_32():
    with pytest.raises(ValueError):
        hakmem_popcount(Word(16, 0))
