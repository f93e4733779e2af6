import os
import random
import subprocess
import sys
from pathlib import Path
from types import SimpleNamespace

import pytest

from countones import (
    MAX_WIDTH,
    AdversaryParams,
    Divergence,
    Machine,
    cli,
    dense_program,
    execute,
    measure,
    msb_flip_probe,
    parse_program,
    render_lanes,
    twobit_program,
    wegner_program,
)
from countones import adversary, vm, words
from countones.cli import main, verify_suite
from countones.fuzzing import _below

from conftest import NonWrappingIncMachine, wrong_programs


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


# ------------------------------------------------------------------- gen


def test_gen_wegner_round_trips(capsys):
    code, out = run_cli(capsys, "gen", "--algo", "wegner", "--width", "4")
    assert code == 0
    assert len(out.strip().splitlines()) == 7
    reparsed = parse_program(out)
    direct = wegner_program(4).program
    for value in range(16):
        assert execute(reparsed, value, 4) == execute(direct, value, 4)


def test_gen_constant_requires_target(capsys):
    with pytest.raises(SystemExit):
        main(["gen", "--algo", "constant"])
    code, out = run_cli(capsys, "gen", "--algo", "constant", "--target", "6", "--width", "4")
    assert code == 0
    res = execute(parse_program(out), 0, 4)
    assert res.output == 6


@pytest.mark.parametrize("argv", [
    ["--target", "-1"],
    ["--target", "300", "--width", "4"],
    ["--target", str(1 << 64)],
])
def test_gen_constant_target_out_of_range(capsys, argv):
    with pytest.raises(SystemExit) as err:
        main(["gen", "--algo", "constant", *argv])
    assert err.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ") and captured.err.count("\n") == 1


def test_gen_twobit_width_guard(capsys):
    with pytest.raises(SystemExit):
        main(["gen", "--algo", "twobit", "--width", "4"])


@pytest.mark.parametrize("width", [1, 3, 20])
def test_twobit_width_rule_is_stated_once(capsys, width):
    with pytest.raises(ValueError, match="twobit is defined for width 2 only"):
        twobit_program(width)
    for argv in (["sweep", "--width", str(width), "--algo", "twobit"],
                 ["gen", "--algo", "twobit", "--width", str(width)]):
        with pytest.raises(SystemExit) as err:
            main(argv)
        assert err.value.code == 2
        assert capsys.readouterr() == ("", "error: twobit is defined for width 2 only\n")
    code, out = run_cli(capsys, "sweep", "--width", "2", "--algo", "twobit")
    assert code == 0 and [line.split(",")[:3] for line in out.splitlines()[1:]] == [
        ["00", "0", "0"], ["01", "1", "1"], ["10", "1", "1"], ["11", "2", "2"]]


def test_every_generator_builds_the_width_it_was_asked_for():
    # sweep and measure take the requested width on trust; a generator
    # that cannot build a width must raise, not return another width's program
    for algo, make in cli._ALGOS.items():
        for width in range(1, MAX_WIDTH + 1):
            try:
                gen = make(width)
            except ValueError:
                continue
            assert gen.width == width, (algo, width)


# ------------------------------------------------------------------ sweep


def test_sweep_rows_and_values(capsys):
    code, out = run_cli(capsys, "sweep", "--width", "4", "--algo", "wegner")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "input_bits,nu,output,incdec_steps,total_steps"
    assert len(lines) == 17
    assert "1011,3,3,6,20" in out
    assert lines[1].startswith("0000,0,0,0,")


def test_sweep_reports_runs_that_do_not_halt(capsys):
    # wegner takes 6*nu + 2 steps: only the zero word halts within 5
    code = main(["sweep", "--width", "4", "--algo", "wegner", "--budget", "5"])
    captured = capsys.readouterr()
    assert code == 1
    lines = captured.out.splitlines()
    assert lines[0] == "input_bits,nu,output,incdec_steps,total_steps"
    assert lines[1] == "0000,0,0,0,2"
    assert "1011,3,-1,2,5" in lines
    assert len(lines) == 17 and sum(",-1," in line for line in lines) == 15
    assert captured.err == "15 of 16 runs did not halt within the budget (output=-1)\n"


def test_sweep_streams_its_rows(monkeypatch, tmp_path, capsys):
    writes = []
    monkeypatch.setattr(sys, "stdout", SimpleNamespace(write=writes.append, flush=lambda: None))
    assert main(["sweep", "--width", "13", "--algo", "wegner"]) == 0
    # the header and 8,192 rows, written cli.EMIT_CHUNK lines at a time
    chunk = cli.EMIT_CHUNK
    assert [lines.count("\n") for lines in writes] == [chunk, chunk, 1]
    text = "".join(writes)
    assert text.startswith("input_bits,nu,output,incdec_steps,total_steps\n0000000000000,0,0,0,2\n")
    assert text.endswith("\n1111111111111,13,13,26,80\n")
    # nothing runs before --out is open, and a lazy sweep runs only what is read
    monkeypatch.setattr(adversary, "run_slices", lambda *args: pytest.fail("ran a row"))
    with pytest.raises(SystemExit) as err:
        main(["sweep", "--width", "4", "--algo", "wegner", "--out", str(tmp_path / "no" / "x")])
    assert err.value.code == 2 and capsys.readouterr().err.count("\n") == 1
    chunks = render_lanes(dense_program(20).program, 20, range(1 << 20), lambda *tail: tail)
    monkeypatch.undo()
    values, tails, stuck = next(chunks)
    assert (values[0], *tails[0][:2]) == (0, 0, 0) and stuck == 0


def sweep_path_rows(program, width, values, budget=vm.DEFAULT_BUDGET):
    """``sweep``'s rows of ``values`` as the lanes render them, the value
    first; also the stuck counts and how often a tail was rendered."""
    calls = []
    chunks = list(render_lanes(program, width, values,
                               lambda *tail: calls.append(tail) or tail, budget))
    rows = [(value, *tail) for chunk, tails, _ in chunks for value, tail in zip(chunk, tails)]
    return rows, sum(stuck for *_, stuck in chunks), len(calls)


def reference_rows(program, width, values, budget=vm.DEFAULT_BUDGET):
    return [row[:5] for row in measure(program, width, values, Machine(), budget)]


def test_sweep_path_equals_the_reference_loop():
    # whole ranges take the closed-form input slices; seeded inputs, as a wide
    # sweep draws them, go through the transpose both ways
    cases = [(width, range(1 << width)) for width in range(1, 11)]
    for width in (21, 33, 57, 64):
        rng = random.Random(width)
        cases.append((width, [0, (1 << width) - 1] + [rng.getrandbits(width) for _ in range(198)]))
    for algo, make in cli._ALGOS.items():
        for width, values in cases:
            try:
                gen = make(width)
            except ValueError:
                continue
            longest = max(total for *_, total in reference_rows(gen.program, width, values))
            for budget in (vm.DEFAULT_BUDGET, longest, longest - 1, longest // 2, 1):
                want = reference_rows(gen.program, width, values, budget)
                rows, stuck, _ = sweep_path_rows(gen.program, width, values, budget)
                assert rows == want, (algo, width, budget)
                assert stuck == sum(row[2] is None for row in want)
    # a wrong output on every lane but 0 and 1, so most lanes leave the cells
    for width in range(1, 11):
        identity = parse_program("OUT x")
        assert sweep_path_rows(identity, width, range(1 << width))[0] == reference_rows(
            identity, width, range(1 << width))


def test_sweep_path_renders_each_cell_once():
    # wegner spends 2*nu inc/dec and 6*nu + 2 steps: one cell per nu
    rows, stuck, renders = sweep_path_rows(wegner_program(10).program, 10, range(1 << 10))
    assert len(rows) == 1024 and stuck == 0 and renders == 11
    # 01 and 10 share nu and total steps but not inc/dec, so each keeps its own tail
    program = parse_program("""\
        BZ x zero
        MOV t x
        DEC t
        AND t x
        BNZ t two
        ZERO c
        INC c
        BEQ x c low
        MOV d d
        MOV d d
        OUT c
    low: INC d
        DEC d
        OUT c
    two: ZERO c
        INC c
        INC c
        OUT c
    zero: OUT x""")
    rows, _, _ = sweep_path_rows(program, 2, range(4))
    assert rows == reference_rows(program, 2, range(4))
    assert rows[1][1:] == (1, 1, 4, 11) and rows[2][1:] == (1, 1, 2, 11)


@pytest.mark.parametrize("width", [21, 33, 64])
def test_sampled_sweep_draws_are_randrange_draws(capsys, width):
    for seed in (0, 1, 3, 9, 2024):
        fast, slow = random.Random(seed), random.Random(seed)
        assert ([_below(fast.getrandbits, 1 << width) for _ in range(500)]
                == [slow.randrange(1 << width) for _ in range(500)])
        assert fast.getstate() == slow.getstate()
    code, out = run_cli(capsys, "sweep", "--width", str(width), "--algo", "wegner", "--seed", "5")
    rng = random.Random(5)
    assert code == 0 and [line.split(",")[0] for line in out.splitlines()[1:51]] == [
        f"{rng.randrange(1 << width):0{width}b}" for _ in range(50)]


def test_a_closed_pipe_ends_without_a_traceback():
    # as in `countones sweep --width 16 --algo dense | head -1`
    src = Path(cli.__file__).resolve().parent.parent
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [str(src), os.environ.get("PYTHONPATH")])))
    argv = [sys.executable, "-m", "countones.cli", "sweep", "--width", "16", "--algo", "dense"]
    proc = subprocess.Popen(argv, stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env)
    assert proc.stdout.readline() == b"input_bits,nu,output,incdec_steps,total_steps\n"
    proc.stdout.close()
    err = proc.stderr.read().decode()
    assert proc.wait(timeout=60) == 1
    assert "Traceback" not in err and "Exception ignored" not in err, err


def test_sweep_markdown(capsys):
    code, out = run_cli(capsys, "sweep", "--width", "2", "--algo", "dense",
                        "--format", "markdown")
    assert code == 0
    assert out.startswith("| input_bits |")


def test_sweep_deterministic_bytes(tmp_path):
    paths = [tmp_path / "a.csv", tmp_path / "b.csv"]
    for path in paths:
        assert main(["sweep", "--width", "22", "--algo", "wegner",
                     "--seed", "3", "--out", str(path)]) == 0
    assert paths[0].read_bytes() == paths[1].read_bytes()
    # sampled regime: header + 4096 rows
    assert len(paths[0].read_text().splitlines()) == 4097


# ------------------------------------------------------------------- fuzz


def test_fuzz_small_campaign(tmp_path, capsys):
    out_path = tmp_path / "fuzz.csv"
    code, out = run_cli(capsys, "fuzz", "--seed", "1", "--count", "60",
                        "--out", str(out_path))
    assert code == 0
    assert "0 violations" in out
    assert out_path.read_text().splitlines() == ["kind,run,width,e,m,d,detail"]


def test_fuzz_deterministic_bytes(tmp_path):
    paths = [tmp_path / "a.csv", tmp_path / "b.csv"]
    for path in paths:
        assert main(["fuzz", "--seed", "5", "--count", "40", "--out", str(path)]) == 0
    assert paths[0].read_bytes() == paths[1].read_bytes()


def test_fuzz_out_writes_violation_rows(tmp_path, capsys, monkeypatch):
    # a broken interpreter yields invariant rows; the divergence row is faked,
    # since the flip fuzz always runs the stock machine
    real_invariant, real_divergence = cli.fuzz_invariant, cli.fuzz_divergence
    monkeypatch.setattr(cli, "fuzz_invariant", lambda *args, **kwargs: real_invariant(
        *args, **kwargs, machine=NonWrappingIncMachine()))
    probe = msb_flip_probe(wegner_program(4).program, AdversaryParams(1, 1, 1, 4))
    early = probe._replace(divergence=Divergence(0, 0))
    monkeypatch.setattr(cli, "fuzz_divergence", lambda *args, **kwargs: real_divergence(
        *args, **kwargs)._replace(violating_probes=((0, early),)))
    out_path = tmp_path / "fuzz.csv"
    code, out = run_cli(capsys, "fuzz", "--seed", "3", "--count", "300",
                        "--out", str(out_path))
    assert code == 1
    assert "3 violations" in out and "1 early divergences" in out
    assert out_path.read_text().splitlines() == [
        "kind,run,width,e,m,d,detail",
        "invariant,155,15,1,7,0,i=3 reg=e prefix=1000000000",
        "invariant,155,15,1,7,0,i=3 reg=e prefix=1000000000",
        "invariant,155,15,1,7,0,i=4 reg=e prefix=10000000",
        "divergence,0,4,1,1,1,incdec=0 bound=1",
    ]


def test_fuzz_usage_errors(capsys):
    assert main(["fuzz", "--count", "0"]) == 2
    assert main(["fuzz", "--width-min", "9", "--width-max", "4"]) == 2
    capsys.readouterr()
    # the flip probes need two-bit words; a random program needs two instructions
    for argv in (["--width-min", "1", "--width-max", "1"], ["--max-len", "1"]):
        assert main(["fuzz", *argv]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: ") and captured.err.count("\n") == 1


# ------------------------------------------------------------------ table


def test_table_contains_all_operation_sets(capsys):
    code, out = run_cli(capsys, "table")
    assert code == 0
    for fragment in (
        "increment, decrement, AND, OR, constant 0",
        "addition, AND, OR",
        "addition, shift, AND, OR",
        "multiplication",
        "division",
    ):
        assert fragment in out
    assert "n=8" in out and "n=12" in out


def test_table_csv_deterministic(tmp_path):
    paths = [tmp_path / "a.csv", tmp_path / "b.csv"]
    for path in paths:
        assert main(["table", "--format", "csv", "--out", str(path)]) == 0
    assert paths[0].read_bytes() == paths[1].read_bytes()
    assert paths[0].read_text().startswith("operation_set,lower_bound,upper_bound,measured")


# ----------------------------------------------------------------- verify


def test_verify_single_width(capsys):
    code, out = run_cli(capsys, "verify", "--width", "4")
    assert code == 0
    assert "PASS oracle-equivalence wegner n=4" in out
    assert "PASS step-law dense n=4" in out
    assert "PASS lower-bound-audit combined n=4" in out
    assert "FAIL" not in out


def test_verify_width_one_checks_the_identity(capsys):
    code, out = run_cli(capsys, "verify", "--width", "1")
    assert code == 0
    assert "single-bit-identity" in out
    assert "wegner" not in out


def test_verify_csv_output(tmp_path, capsys):
    out_path = tmp_path / "verify.csv"
    code, _ = run_cli(capsys, "verify", "--width", "3", "--out", str(out_path))
    assert code == 0
    lines = out_path.read_text().splitlines()
    assert lines[0] == "check,program,width,status,detail"
    assert all(",PASS," in line for line in lines[1:])


def test_verify_fails_on_broken_machine(non_wrapping_machine):
    # the dense loop relies on INC wrapping to detect the all-ones word; it
    # loops on every input, and combined takes one extra INC on three of them
    ok, rows = verify_suite([4], machine=non_wrapping_machine)
    assert not ok
    stuck = "; ".join(f"x={bits} expected {nu} got budget-exhausted"
                      for bits, nu in (("0000", 0), ("0001", 1), ("0010", 1)))
    stuck_audit = "; ".join(f"x={bits} output: expected {nu}, got budget-exhausted"
                            for bits, nu in (("0000", 0), ("0001", 1), ("0010", 1)))
    law = "measured inc/dec equals the closed form on every input"
    assert rows == [
        ("oracle-equivalence", "wegner", 4, "PASS", "all 16 inputs match the bit-count oracle"),
        ("step-law", "wegner", 4, "PASS", law),
        ("lower-bound-audit", "wegner", 4, "PASS", "tightest incdec/bound 2.000, worst incdec 8"),
        ("oracle-equivalence", "dense", 4, "FAIL", stuck),
        ("step-law", "dense", 4, "PASS", law),
        ("lower-bound-audit", "dense", 4, "FAIL", stuck_audit),
        ("oracle-equivalence", "combined", 4, "PASS", "all 16 inputs match the bit-count oracle"),
        ("step-law", "combined", 4, "FAIL",
         "x=0111 incdec 13 != 12; x=1011 incdec 13 != 12; x=1101 incdec 13 != 12"),
        ("lower-bound-audit", "combined", 4, "PASS",
         "tightest incdec/bound 5.000, worst incdec 17"),
    ]


def test_verify_on_slices_equals_the_row_path(monkeypatch):
    assert verify_suite(range(1, 13)) == verify_suite(range(1, 13), machine=Machine())
    monkeypatch.setattr(cli, "shipped_programs", wrong_programs)
    ok, rows = verify_suite(range(2, 6))
    assert (ok, rows) == verify_suite(range(2, 6), machine=Machine())
    failed = {(check, program) for check, program, _, status, _ in rows if status == "FAIL"}
    assert failed == {("oracle-equivalence", "identity"), ("lower-bound-audit", "identity"),
                      ("step-law", "off-by-one"), ("oracle-equivalence", "falls-off"),
                      ("lower-bound-audit", "falls-off"), ("oracle-equivalence", "twobit"),
                      ("lower-bound-audit", "twobit"), ("twobit-single-step", "twobit")}
    # more than three failures, so the detail keeps the first three
    assert ("lower-bound-audit", "identity", 5, "FAIL",
            "x=00001 bound: incdec 0 < bound 1; x=00010 output: expected 1, got 2; "
            "x=00011 output: expected 2, got 3") in rows


def test_passing_verify_turns_no_lane_into_a_word(monkeypatch):
    counts = {"popcount_naive": 0, "_transpose": 0}

    def counted(name, real):
        def wrapper(*args):
            counts[name] += 1
            return real(*args)
        return wrapper

    for module in (adversary, words):
        monkeypatch.setattr(module, "popcount_naive",
                            counted("popcount_naive", words.popcount_naive))
    # the transpose of the OUT slices back into outputs, not that of the inputs
    monkeypatch.setattr(adversary, "_transpose", counted("_transpose", vm._transpose))
    assert verify_suite(range(2, 13))[0]
    assert counts == {"popcount_naive": 0, "_transpose": 0}
    # the row path, by contrast, counts each input's ones
    assert verify_suite([3], machine=Machine())[0]
    assert counts["popcount_naive"] == 3 * 8


class CountingMachine(Machine):
    """The stock machine, counting its runs; a machine passed to
    ``verify_suite`` runs every input on its own reference loop."""

    def __init__(self):
        self.runs = 0

    def run(self, *args, **kwargs):
        self.runs += 1
        return super().run(*args, **kwargs)


def test_verify_runs_each_pair_once():
    machine = CountingMachine()
    ok, rows = verify_suite(range(2, 13), machine=machine)
    assert ok
    # every input of wegner, dense and combined at n = 2..12, plus twobit's 4
    assert machine.runs == 3 * sum(1 << n for n in range(2, 13)) + 4 == 24_568
    assert all(status == "PASS" for _, _, _, status, _ in rows)
    machine = CountingMachine()
    assert verify_suite([1], machine=machine)[0] and machine.runs == 2


@pytest.mark.parametrize("argv", [
    ["table"],
    ["table", "--format", "csv"],
    ["sweep", "--width", "2", "--algo", "wegner"],
    ["gen", "--algo", "wegner"],
    ["fuzz", "--count", "10"],
])
def test_unwritable_out_path_is_a_usage_error(tmp_path, capsys, argv):
    # no such directory; a directory; and, where it exists, a device whose writes fail
    full = [Path("/dev/full")] if Path("/dev/full").exists() else []
    for path in (tmp_path / "missing" / "x.csv", tmp_path, *full):
        with pytest.raises(SystemExit) as err:
            main([*argv, "--out", str(path)])
        assert err.value.code == 2
        captured = capsys.readouterr()
        assert captured.err.startswith(f"error: cannot write --out {path}: ")
        assert captured.err.count("\n") == 1


def test_verify_to_an_unwritable_out_path(tmp_path, capsys):
    path = tmp_path / "missing" / "x.csv"
    with pytest.raises(SystemExit) as err:
        main(["verify", "--width", "2", "--out", str(path)])
    assert err.value.code == 2
    captured = capsys.readouterr()
    assert captured.out.endswith("OK: 13/13 checks passed\n")  # the report still reaches stdout
    assert captured.err.startswith(f"error: cannot write --out {path}: ")
    assert captured.err.count("\n") == 1


def test_usage_error_exit_codes():
    with pytest.raises(SystemExit) as err:
        main(["sweep", "--width", "4", "--algo", "nonsense"])
    assert err.value.code == 2
    with pytest.raises(SystemExit) as err:
        main(["sweep", "--algo", "wegner"])  # missing --width
    assert err.value.code == 2
