import os
import subprocess
import sys
from pathlib import Path

import pytest

import countones
from countones import (
    AdversaryParams,
    AuditFailure,
    Divergence,
    DivergenceFuzzReport,
    ExecResult,
    GeneratedProgram,
    HaltReason,
    Instruction,
    InvariantFuzzReport,
    LowerBoundCheck,
    MsbFlipProbe,
    Program,
    Violation,
    adversary,
    fuzzing,
    programs,
    vm,
    words,
)

MODULES = (adversary, fuzzing, programs, vm, words)


def test_top_level_exports_each_modules_all():
    joined = [name for module in MODULES for name in module.__all__]
    assert countones.__all__ == joined
    assert len(set(joined)) == len(joined)
    for module in MODULES:
        for name in module.__all__:
            assert getattr(countones, name) is getattr(module, name)


def test_importing_the_package_does_not_load_the_cli():
    src = Path(countones.__file__).resolve().parent.parent
    done = subprocess.run(
        [sys.executable, "-c", "import sys, countones; print('countones.cli' in sys.modules)"],
        env=dict(os.environ, PYTHONPATH=str(src)), capture_output=True, text=True, timeout=60)
    assert done.returncode == 0, done.stderr
    assert done.stdout == "False\n"


def test_importing_the_cli_does_not_load_dataclasses():
    # -S leaves out what the host's site module imports
    src = Path(countones.__file__).resolve().parent.parent
    done = subprocess.run(
        [sys.executable, "-S", "-c",
         "import sys, countones.cli; print('dataclasses' in sys.modules)"],
        env=dict(os.environ, PYTHONPATH=str(src)), capture_output=True, text=True, timeout=60)
    assert done.returncode == 0, done.stderr
    assert done.stdout == "False\n"


def test_importing_the_cli_does_not_load_typing():
    # nor the affine jump, which Machine.run and the flip probe load at their
    # first jump attempt
    src = Path(countones.__file__).resolve().parent.parent
    done = subprocess.run(
        [sys.executable, "-S", "-c",
         "import sys, countones.cli; print('typing' in sys.modules, "
         "'countones._affine' in sys.modules)"],
        env=dict(os.environ, PYTHONPATH=str(src)), capture_output=True, text=True, timeout=60)
    assert done.returncode == 0, done.stderr
    assert done.stdout == "False False\n"


def law(nu):
    return nu


_INSTRUCTIONS = (Instruction("INC", "a"), Instruction("BNZ", "a", target=0),
                 Instruction("OUT", "x"))
_PARAMS = AdversaryParams(1, 1, 1, 4)
_VIOLATION = (1, 0, "a", "10", ("00", "11", "01"))
_PROBE = (_PARAMS, 13, 5, 3, 1, Divergence(2, 1))

# Each record class: its constructor's field names in order, one value per
# field, and what the fields and properties of the record built from them read.
RECORDS = {
    Instruction: (("op", "a", "b", "target"), ("BEQ", "a", "x", 0), {}),
    Program: (("instructions",), (_INSTRUCTIONS,),
              {"register_names": ("x", "a")}),
    ExecResult: (("output", "total_steps", "incdec_steps", "halt_reason"),
                 (2, 7, 3, HaltReason.OUT), {}),
    GeneratedProgram: (("name", "width", "text", "predicted_incdec"),
                       ("loop", 4, "L0: INC a\nBNZ a L0\nOUT x", law),
                       {"program": Program(_INSTRUCTIONS)}),
    AdversaryParams: (("e", "m", "d", "n"), (1, 1, 1, 4), {}),
    Violation: (("snapshot_index", "incdec_index", "register", "prefix", "allowed"),
                _VIOLATION, {}),
    Divergence: (("step_index", "incdec_index"), (2, 1), {}),
    MsbFlipProbe: (("params", "x", "x_flipped", "nu", "bound", "divergence"),
                   _PROBE, {"bound_holds": True}),
    AuditFailure: (("input_bits", "nu", "kind", "detail"),
                   ("0110", 2, "output", "expected 2, got 3"), {}),
    LowerBoundCheck: (("program", "width", "inputs", "failures", "min_ratio", "max_incdec"),
                      ("wegner", 4, 16, [AuditFailure("0110", 2, "bound", "")], 1.5, 4),
                      {"ok": False}),
    InvariantFuzzReport: (("seed", "runs", "budget_exhausted", "violating_runs"),
                          (3, 10, 2, ((4, _PARAMS, (Violation(*_VIOLATION),) * 2),)),
                          {"violation_count": 2, "ok": False}),
    DivergenceFuzzReport: (("seed", "runs", "diverged", "violating_probes"),
                           (3, 10, 5, ((7, MsbFlipProbe(*_PROBE)),)),
                           {"violation_count": 1, "ok": False}),
}


@pytest.mark.parametrize("cls", RECORDS, ids=lambda cls: cls.__name__)
def test_record_contract(cls):
    fields, values, derived = RECORDS[cls]
    record = cls(*values)
    assert record == cls(**dict(zip(fields, values)))
    if cls is not LowerBoundCheck:
        assert hash(record) == hash(cls(**dict(zip(fields, values))))
    for name, value in zip(fields, values):
        assert getattr(record, name) == value
    for name, value in derived.items():
        assert getattr(record, name) == value
    if cls is not LowerBoundCheck:
        for name in (*fields, *derived):
            with pytest.raises(AttributeError):
                setattr(record, name, getattr(record, name))


def test_record_defaults():
    assert Instruction("INC", "a") == Instruction("INC", "a", None, None)
    assert Instruction("JMP", target=2) == Instruction("JMP", None, None, 2)
    assert ExecResult._field_defaults == {}
    assert len(Program(_INSTRUCTIONS)) == len(_INSTRUCTIONS) == 3
    checks = LowerBoundCheck("wegner", 4), LowerBoundCheck("wegner", 4)
    assert checks[0] == LowerBoundCheck("wegner", 4, 0, [], None, 0)
    checks[0].failures.append(AuditFailure("0110", 2, "bound", ""))
    assert checks[1].failures == [] and checks[0].failures is not checks[1].failures
    assert checks[0] != checks[1] and checks[0].ok is False and checks[1].ok is True
