"""Counting ones on a minimal register machine.

A laboratory for population count under a deliberately poor instruction set:
unsigned fixed-width registers, increment, decrement, AND, OR, assignment,
comparisons, and zero as the only constant.  The package provides

* exact word semantics and the naive bit-count oracle (:mod:`.words`),
* a parser and step-counting interpreter for the instruction set
  (:mod:`.vm`),
* generators emitting the counting algorithms as machine programs with
  exact inc/dec step laws, plus classic host-level reference popcounts
  (:mod:`.programs`),
* adversary inputs, the prefix invariant, MSB-flip probes, the shared
  measurement loop and exhaustive lower-bound audits (:mod:`.adversary`),
* random-program fuzzing of the invariant and the divergence bound
  (:mod:`.fuzzing`),
* a command-line front end (:mod:`.cli`), installed as ``countones``.
"""

from .adversary import (
    AdversaryParams,
    AuditFailure,
    AuditReport,
    KSchedule,
    LowerBoundCheck,
    MsbFlipProbe,
    PrefixInvariantCheck,
    Violation,
    ViolationReport,
    adversary_input,
    check_prefix_invariant,
    lower_bound_audit,
    measure,
    msb_flip_probe,
)
from .fuzzing import (
    DivergenceFuzzReport,
    InvariantFuzzReport,
    fuzz_divergence,
    fuzz_invariant,
    random_program,
    random_program_text,
)
from .programs import (
    CONSTANT_STEP_FACTOR,
    GeneratedProgram,
    broadword_popcount,
    combined_program,
    constant_inc_count,
    constant_program,
    dense_program,
    hakmem_popcount,
    shipped_programs,
    twobit_program,
    wegner_program,
)
from .vm import (
    DEFAULT_BUDGET,
    Divergence,
    ExecResult,
    HaltReason,
    Instruction,
    Machine,
    ParseError,
    Program,
    StepCounters,
    TraceSnapshot,
    diff_traces,
    execute,
    parse_program,
)
from .words import (
    MAX_WIDTH,
    Word,
    bit_and,
    bit_or,
    msb_prefix,
    popcount_naive,
    wrap_dec,
    wrap_inc,
)

__version__ = "0.1.0"

__all__ = [
    "AdversaryParams",
    "AuditFailure",
    "AuditReport",
    "CONSTANT_STEP_FACTOR",
    "DEFAULT_BUDGET",
    "Divergence",
    "DivergenceFuzzReport",
    "ExecResult",
    "GeneratedProgram",
    "HaltReason",
    "Instruction",
    "InvariantFuzzReport",
    "KSchedule",
    "LowerBoundCheck",
    "MAX_WIDTH",
    "Machine",
    "MsbFlipProbe",
    "ParseError",
    "PrefixInvariantCheck",
    "Program",
    "StepCounters",
    "TraceSnapshot",
    "Violation",
    "ViolationReport",
    "Word",
    "adversary_input",
    "bit_and",
    "bit_or",
    "broadword_popcount",
    "check_prefix_invariant",
    "combined_program",
    "constant_inc_count",
    "constant_program",
    "dense_program",
    "diff_traces",
    "execute",
    "fuzz_divergence",
    "fuzz_invariant",
    "hakmem_popcount",
    "lower_bound_audit",
    "measure",
    "msb_flip_probe",
    "msb_prefix",
    "parse_program",
    "popcount_naive",
    "random_program",
    "random_program_text",
    "shipped_programs",
    "twobit_program",
    "wegner_program",
    "wrap_dec",
    "wrap_inc",
]
