from dataclasses import replace

import pytest

from countones import (
    MAX_WIDTH,
    AdversaryParams,
    Divergence,
    Machine,
    Word,
    cli,
    execute,
    msb_flip_probe,
    parse_program,
    wegner_program,
)
from countones.cli import main, verify_suite

from conftest import NonWrappingIncMachine


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
        assert execute(reparsed, Word(4, value)) == execute(direct, Word(4, value))


def test_gen_constant_requires_target(capsys):
    with pytest.raises(SystemExit):
        main(["gen", "--algo", "constant"])
    code, out = run_cli(capsys, "gen", "--algo", "constant", "--target", "6", "--width", "4")
    assert code == 0
    res = execute(parse_program(out), Word(4, 0))
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
        cli.sweep_rows(width, "twobit")
    for argv in (["sweep", "--width", str(width), "--algo", "twobit"],
                 ["gen", "--algo", "twobit", "--width", str(width)]):
        with pytest.raises(SystemExit) as err:
            main(argv)
        assert err.value.code == 2
        assert capsys.readouterr() == ("", "error: twobit is defined for width 2 only\n")
    assert [row[:3] for row in cli.sweep_rows(2, "twobit")] == [
        ("00", 0, 0), ("01", 1, 1), ("10", 1, 1), ("11", 2, 2)]


def test_every_generator_builds_the_width_it_was_asked_for():
    # sweep_rows and measure take the requested width on trust; a generator
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
    early = replace(probe, divergence=Divergence(0, 0))
    monkeypatch.setattr(cli, "fuzz_divergence", lambda *args, **kwargs: replace(
        real_divergence(*args, **kwargs), violating_probes=((0, early),)))
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


class CountingMachine(Machine):
    """The stock machine, counting its runs; it keeps the stock hooks, so
    its runs stay on the compiled path."""

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
    for path in (tmp_path / "missing" / "x.csv", tmp_path):  # no such directory; a directory
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
