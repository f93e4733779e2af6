"""Parser and interpreter for the restricted instruction set.

Text format, one instruction per line::

    label: OPCODE operand operand   ; comment

Labels are optional and must sit on the instruction they name.  Operands are
whitespace-separated identifiers; ``x`` is the input register and every other
register springs into existence holding zero.  No numeric literal is valid
anywhere: the only way to write a constant is ``ZERO r`` (and ``BZ``/``BNZ``
compare against zero), so a program containing any other literal simply does
not parse.

Opcodes::

    ZERO r        r <- 0
    MOV r s       r <- s
    INC r         r <- r + 1  (wraps)          counted as an inc/dec step
    DEC r         r <- r - 1  (wraps)          counted as an inc/dec step
    AND r s       r <- r AND s
    OR r s        r <- r OR s
    BZ r lbl      jump if r = 0
    BNZ r lbl     jump if r != 0
    BEQ r s lbl   jump if r = s
    BLT r s lbl   jump if r < s  (unsigned)
    JMP lbl       unconditional jump
    OUT r         halt with output r

Every executed instruction costs one ``total_steps``; only INC and DEC add
to ``incdec_steps``, the measure the lower-bound audits care about.

The interpreter is a pure function of (program, input, budget): no shared
mutable state, so any number of executions may run concurrently.  Trace
memory belongs to the caller of each execution.

Observers.  :meth:`Machine.run` takes one optional ``observer`` callback,
called as ``observer(incdec_index, pc, registers)`` on the initial state
(``pc`` is ``None``, ``incdec_index`` 0) and again after every executed
instruction, with ``pc`` the index of that instruction.  The observer stays
attached until it returns ``False`` (any other value, ``None`` included,
keeps it attached); once detached it is never called again, and the run
goes on to its normal halt with the same counters as an unobserved run.
``registers`` is the interpreter's live register dict: read it during the
call, copy what must outlive it, and never mutate it.  ``trace=True`` is the
recording observer that copies each state into a :class:`TraceSnapshot`.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Callable

from .words import Word

__all__ = [
    "DEFAULT_BUDGET",
    "ParseError",
    "Instruction",
    "Program",
    "parse_program",
    "HaltReason",
    "StepCounters",
    "TraceSnapshot",
    "ExecResult",
    "Observer",
    "Machine",
    "execute",
    "Divergence",
    "diff_traces",
]

DEFAULT_BUDGET = 1_000_000

# opcode -> (number of register operands, takes a label)
_SIGNATURES = {
    "ZERO": (1, False),
    "MOV": (2, False),
    "INC": (1, False),
    "DEC": (1, False),
    "AND": (2, False),
    "OR": (2, False),
    "BZ": (1, True),
    "BNZ": (1, True),
    "BEQ": (2, True),
    "BLT": (2, True),
    "JMP": (0, True),
    "OUT": (1, False),
}


class ParseError(ValueError):
    """Raised on malformed program text; carries the 1-based line number."""

    def __init__(self, lineno: int, message: str):
        super().__init__(f"line {lineno}: {message}")
        self.lineno = lineno


@dataclass(frozen=True, slots=True)
class Instruction:
    op: str
    a: str | None = None
    b: str | None = None
    target: int | None = None


@dataclass(frozen=True)
class Program:
    """A parsed program: labels resolved, registers collected in first-use order."""

    instructions: tuple[Instruction, ...]
    register_names: tuple[str, ...]

    def __len__(self) -> int:
        return len(self.instructions)


def _ident(token: str, lineno: int, what: str) -> str:
    if not token.isidentifier():
        raise ParseError(lineno, f"{what} must be an identifier, got {token!r}")
    return token


def parse_program(text: str) -> Program:
    """Parse source text into a :class:`Program`.

    Errors (unknown opcode, bad operand count, non-identifier operands,
    duplicate or unresolved labels) raise :class:`ParseError` with the
    offending line number.
    """
    rows: list[tuple[int, str, list[str], str | None]] = []
    labels: dict[str, int] = {}

    for lineno, raw in enumerate(text.splitlines(), start=1):
        code = raw.split(";", 1)[0].strip()
        if not code:
            continue
        tokens = code.split()
        if ":" in tokens[0]:
            name, rest = tokens[0].split(":", 1)
            _ident(name, lineno, "label")
            if name in labels:
                raise ParseError(lineno, f"duplicate label {name!r}")
            labels[name] = len(rows)
            tokens = ([rest] if rest else []) + tokens[1:]
            if not tokens:
                raise ParseError(lineno, f"label {name!r} without an instruction")
        op = tokens[0]
        if op not in _SIGNATURES:
            raise ParseError(lineno, f"unknown opcode {op!r}")
        n_regs, takes_label = _SIGNATURES[op]
        operands = tokens[1:]
        if len(operands) != n_regs + (1 if takes_label else 0):
            raise ParseError(lineno, f"{op} expects {n_regs + takes_label} operand(s), got {len(operands)}")
        for reg in operands[:n_regs]:
            _ident(reg, lineno, "register")
        rows.append((lineno, op, operands[:n_regs], operands[n_regs] if takes_label else None))

    instructions = []
    registers: dict[str, None] = {"x": None}
    for lineno, op, regs, label in rows:
        target = None
        if label is not None:
            _ident(label, lineno, "label")
            if label not in labels:
                raise ParseError(lineno, f"unresolved label {label!r}")
            target = labels[label]
        for reg in regs:
            registers.setdefault(reg)
        a = regs[0] if len(regs) > 0 else None
        b = regs[1] if len(regs) > 1 else None
        instructions.append(Instruction(op, a, b, target))
    return Program(tuple(instructions), tuple(registers))


class HaltReason(enum.Enum):
    OUT = "out"
    BUDGET_EXHAUSTED = "budget-exhausted"
    FELL_OFF_END = "fell-off-end"


@dataclass(frozen=True, slots=True)
class StepCounters:
    total_steps: int
    incdec_steps: int


@dataclass(frozen=True, slots=True)
class TraceSnapshot:
    """Register file after one executed instruction.

    ``incdec_index`` is the number of INC/DEC executed so far, ``pc`` the
    index of the instruction just executed (``None`` for the initial state).
    Register values are plain ints; they all share the input's width.
    """

    incdec_index: int
    pc: int | None
    registers: dict[str, int]


# observer(incdec_index, pc, registers); returning False detaches it.
Observer = Callable[[int, int | None, dict[str, int]], bool | None]


@dataclass(frozen=True)
class ExecResult:
    output: Word | None
    counters: StepCounters
    halt_reason: HaltReason
    trace: list[TraceSnapshot] | None = field(default=None, repr=False)


class Machine:
    """The interpreter.

    Subclasses may override :meth:`_inc`, :meth:`_dec` or :meth:`_mov` to
    build deliberately broken variants (the test suite uses a non-wrapping
    INC and a complementing MOV to prove the invariant checker actually
    bites).  The stock machine wraps at the word boundary.
    """

    def _inc(self, value: int, mask: int) -> int:
        return (value + 1) & mask

    def _dec(self, value: int, mask: int) -> int:
        return (value - 1) & mask

    def _mov(self, value: int, mask: int) -> int:
        return value

    def run(
        self,
        program: Program,
        x: Word,
        budget: int = DEFAULT_BUDGET,
        trace: bool = False,
        observer: Observer | None = None,
    ) -> ExecResult:
        """Run ``program`` on ``x`` until OUT, the end of the program or ``budget`` steps.

        ``observer`` is called with ``(incdec_index, pc, registers)`` on the
        initial state and after each executed instruction, until it returns
        ``False``; the run itself is unaffected either way.  ``registers`` is
        the live register dict: do not keep or mutate it.  ``trace=True``
        records every state as a :class:`TraceSnapshot` in ``result.trace``;
        it cannot be combined with an ``observer``.
        """
        if budget < 1:
            raise ValueError(f"budget must be >= 1, got {budget}")
        if trace and observer is not None:
            raise ValueError("trace=True records through its own observer; pass one or the other")
        width = x.width
        mask = (1 << width) - 1
        regs: dict[str, int] = {name: 0 for name in program.register_names}
        regs["x"] = x.value

        instructions = program.instructions
        size = len(instructions)
        pc = 0
        total = 0
        incdec = 0
        output: Word | None = None
        halt: HaltReason | None = None
        snaps: list[TraceSnapshot] | None = None
        if trace:
            snaps = []

            def record(incdec_index: int, at: int | None, registers: dict[str, int]) -> None:
                snaps.append(TraceSnapshot(incdec_index, at, dict(registers)))

            observer = record
        if observer is not None and observer(0, None, regs) is False:
            observer = None

        while True:
            if pc >= size:
                halt = HaltReason.FELL_OFF_END
                break
            if total >= budget:
                halt = HaltReason.BUDGET_EXHAUSTED
                break
            ins = instructions[pc]
            op = ins.op
            next_pc = pc + 1
            total += 1
            match op:
                case "INC":
                    regs[ins.a] = self._inc(regs[ins.a], mask)
                    incdec += 1
                case "DEC":
                    regs[ins.a] = self._dec(regs[ins.a], mask)
                    incdec += 1
                case "AND":
                    regs[ins.a] &= regs[ins.b]
                case "OR":
                    regs[ins.a] |= regs[ins.b]
                case "MOV":
                    regs[ins.a] = self._mov(regs[ins.b], mask)
                case "ZERO":
                    regs[ins.a] = 0
                case "BZ":
                    if regs[ins.a] == 0:
                        next_pc = ins.target
                case "BNZ":
                    if regs[ins.a] != 0:
                        next_pc = ins.target
                case "BEQ":
                    if regs[ins.a] == regs[ins.b]:
                        next_pc = ins.target
                case "BLT":
                    if regs[ins.a] < regs[ins.b]:
                        next_pc = ins.target
                case "JMP":
                    next_pc = ins.target
                case "OUT":
                    output = Word(width, regs[ins.a])
                    halt = HaltReason.OUT
            if observer is not None and observer(incdec, pc, regs) is False:
                observer = None
            if halt is not None:
                break
            pc = next_pc

        return ExecResult(output, StepCounters(total, incdec), halt, snaps)


def execute(
    program: Program,
    x: Word,
    budget: int = DEFAULT_BUDGET,
    trace: bool = False,
) -> ExecResult:
    """Run ``program`` on input ``x`` with the stock machine."""
    return Machine().run(program, x, budget=budget, trace=trace)


@dataclass(frozen=True, slots=True)
class Divergence:
    """First point where two executions of the same program took different paths.

    ``step_index`` is the 0-based position in the executed-instruction
    sequence; ``incdec_index`` the number of INC/DEC completed before that
    instruction (equal in both runs, since everything before it matched).
    """

    step_index: int
    incdec_index: int


def diff_traces(a: ExecResult, b: ExecResult) -> Divergence | None:
    """Locate the earliest control-flow divergence between two traced runs.

    Both results must carry traces produced by the *same* program (that part
    of the contract is the caller's).  Returns ``None`` when the executed
    instruction sequences are identical, or when one is a prefix of the other
    (possible only under unequal budgets): in neither case did a branch
    resolve differently.
    """
    if a.trace is None or b.trace is None:
        raise ValueError("diff_traces needs both results traced (trace=True)")
    for idx, (sa, sb) in enumerate(zip(a.trace[1:], b.trace[1:])):
        if sa.pc != sb.pc:
            return Divergence(idx, a.trace[idx].incdec_index)
    return None
