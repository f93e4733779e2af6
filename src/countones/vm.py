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

:data:`OPCODES` is the one table of this instruction set: per opcode, its
register operands, whether a label follows, whether it is metered and its
source in a compiled segment.  The parser, the segment compiler and
:func:`countones.fuzzing.random_program` all read it, and a :class:`Program`
is checked against it when built: ``ValueError`` unless every opcode is in
the table with exactly its register operands, and with a target in
``0..len-1`` exactly where it takes a label.  So both executors run only
well-formed programs.  The reference loop spells the semantics out by hand
in its own ``match``, so that it stays an independent oracle for the
compiled path.

The interpreter is a pure function of (program, input, budget): no shared
mutable state, so any number of executions may run concurrently.  What an
observer keeps belongs to the caller of each execution.

Observers.  :meth:`Machine.run` takes one optional ``observer`` callback,
called as ``observer(incdec_index, pc, registers)`` on the initial state
(``pc`` is ``None``, ``incdec_index`` 0) and again after every executed
instruction, with ``pc`` the index of that instruction.  The observer stays
attached until it returns ``False`` (any other value, ``None`` included,
keeps it attached); once detached it is never called again, and the run
goes on to its normal halt with the same counters as an unobserved run.
``registers`` is the interpreter's live register dict: read it during the
call, copy what must outlive it, and never mutate it.  An observer is the
one way to watch a run: to record one, append a copy of each state, as in
``observer=lambda i, pc, regs: states.append((i, pc, dict(regs)))``.

Compiled runs.  A run with no observer and a machine whose class keeps the
stock ``_inc``/``_dec``/``_mov`` executes compiled code; every other run,
and every hook override, uses the reference loop, which stays the oracle.
On a program's first such run it is split into straight-line segments of at
most :data:`SEG` instructions, one Python function each, cached on the
:class:`Program` (nothing is compiled at parse time).  A segment starts at
0, at every jump target and after every JMP/OUT; inside it the registers
live in a list, a taken conditional branch is a side exit, and the step
counts of every exit are compile-time constants.  Before a segment runs, the
end of the program is tested first and then ``total + len(segment) >
budget``; a segment that might cross the budget is not entered, and the
reference loop resumes at that ``pc`` with the same registers and counters.
The budget cut-off, the halt reason and both counters are therefore exactly
those of the reference loop.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from functools import cached_property
from types import MappingProxyType
from typing import Callable, Mapping, NamedTuple

from .words import Word

__all__ = [
    "DEFAULT_BUDGET",
    "SEG",
    "OpSpec",
    "OPCODES",
    "ParseError",
    "Instruction",
    "Program",
    "parse_program",
    "HaltReason",
    "ExecResult",
    "Observer",
    "Machine",
    "execute",
]

DEFAULT_BUDGET = 1_000_000

# Most instructions in one compiled segment.  One ``compile()`` of a long
# program costs transient memory in proportion to its size, so segments stay
# small even where the code is straight-line.
SEG = 64


class OpSpec(NamedTuple):
    """One opcode of the machine, as the parser, the fuzzer and the compiler see it."""

    regs: int  # register operands
    label: bool  # a jump label follows the registers
    metered: bool  # counted in ``incdec_steps``
    # Python source in a compiled segment: ``r`` is the register list, ``m``
    # the width mask, ``{exit}`` a constant ``(next_pc, steps, incdec)``.
    source: str


# The instruction set, written down once; see the module docstring.  It is
# read-only, since compiled segments and fuzz seeds depend on it.
OPCODES: Mapping[str, OpSpec] = MappingProxyType({
    "ZERO": OpSpec(1, False, False, "r[{a}] = 0"),
    "MOV": OpSpec(2, False, False, "r[{a}] = r[{b}]"),
    "INC": OpSpec(1, False, True, "r[{a}] = (r[{a}] + 1) & m"),
    "DEC": OpSpec(1, False, True, "r[{a}] = (r[{a}] - 1) & m"),
    "AND": OpSpec(2, False, False, "r[{a}] &= r[{b}]"),
    "OR": OpSpec(2, False, False, "r[{a}] |= r[{b}]"),
    "BZ": OpSpec(1, True, False, "if not r[{a}]: return {exit}"),
    "BNZ": OpSpec(1, True, False, "if r[{a}]: return {exit}"),
    "BEQ": OpSpec(2, True, False, "if r[{a}] == r[{b}]: return {exit}"),
    "BLT": OpSpec(2, True, False, "if r[{a}] < r[{b}]: return {exit}"),
    "JMP": OpSpec(0, True, False, "return {exit}"),
    "OUT": OpSpec(1, False, False, "return {exit}"),
})

# Per opcode, which of an instruction's ``(a, b, target)`` are present.
_OPERANDS = {op: (spec.regs > 0, spec.regs > 1, spec.label) for op, spec in OPCODES.items()}


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
    """A well-formed program (see the module docstring); ``register_names`` is
    derived: ``x`` first, then the other register operands in first-use order."""

    instructions: tuple[Instruction, ...]
    register_names: tuple[str, ...] = field(init=False)

    def __post_init__(self) -> None:
        targets = range(len(self.instructions))
        names: dict[str | None, None] = {"x": None}
        for pc, ins in enumerate(self.instructions):
            if _OPERANDS.get(ins.op) != (ins.a is not None, ins.b is not None, ins.target is not None):
                raise ValueError(f"instruction {pc}: {ins} does not fit its opcode in OPCODES")
            if ins.target is not None and ins.target not in targets:
                raise ValueError(f"instruction {pc}: target {ins.target} is not in 0..{len(targets) - 1}")
            names[ins.a] = names[ins.b] = None  # a key set again keeps its first position
        names.pop(None, None)
        object.__setattr__(self, "register_names", tuple(names))

    def __len__(self) -> int:
        return len(self.instructions)

    @cached_property
    def _segments(self) -> list[tuple[Callable, int] | None]:
        """Per pc, the compiled segment starting there and its length (``None``
        where no segment starts); see the module docstring."""
        return _compile_segments(self)


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
        spec = OPCODES.get(op)
        if spec is None:
            raise ParseError(lineno, f"unknown opcode {op!r}")
        n_regs = spec.regs
        operands = tokens[1:]
        if len(operands) != n_regs + spec.label:
            raise ParseError(lineno, f"{op} expects {n_regs + spec.label} operand(s), got {len(operands)}")
        for reg in operands[:n_regs]:
            _ident(reg, lineno, "register")
        rows.append((lineno, op, operands[:n_regs], operands[n_regs] if spec.label else None))

    instructions = []
    for lineno, op, regs, label in rows:
        target = None
        if label is not None:
            _ident(label, lineno, "label")
            if label not in labels:
                raise ParseError(lineno, f"unresolved label {label!r}")
            target = labels[label]
        instructions.append(Instruction(op, *regs, target=target))
    return Program(tuple(instructions))


def _compile_segments(program: Program) -> list[tuple[Callable, int] | None]:
    instructions = program.instructions
    size = len(instructions)
    index = {name: i for i, name in enumerate(program.register_names)}
    leaders = {0}
    for pc, ins in enumerate(instructions):
        if ins.target is not None:
            leaders.add(ins.target)
        if ins.op in ("JMP", "OUT"):
            leaders.add(pc + 1)

    segments: list[tuple[Callable, int] | None] = [None] * size
    start = 0
    while start < size:
        lines = ["def segment(r, m):"]
        pc = start
        steps = incdec = 0
        while True:
            ins = instructions[pc]
            spec = OPCODES[ins.op]
            pc += 1
            steps += 1
            incdec += spec.metered
            a = index.get(ins.a)
            side_exit = (~a if ins.op == "OUT" else ins.target, steps, incdec)
            lines.append("    " + spec.source.format(a=a, b=index.get(ins.b), exit=side_exit))
            if ins.op in ("JMP", "OUT"):
                break
            if pc == size or pc in leaders or steps == SEG:
                lines.append(f"    return {(pc, steps, incdec)}")
                break
        namespace: dict = {}
        exec(compile("\n".join(lines), f"<segment {start}..{pc - 1}>", "exec"), namespace)
        segments[start] = (namespace["segment"], steps)
        start = pc
    return segments


class HaltReason(enum.Enum):
    OUT = "out"
    BUDGET_EXHAUSTED = "budget-exhausted"
    FELL_OFF_END = "fell-off-end"


# observer(incdec_index, pc, registers); returning False detaches it.
Observer = Callable[[int, int | None, dict[str, int]], bool | None]


@dataclass(frozen=True, slots=True)
class ExecResult:
    """One run.  ``output`` is the OUT register as the machine left it, even
    out of its width (``None`` unless the run halted with OUT)."""

    output: int | None
    total_steps: int
    incdec_steps: int
    halt_reason: HaltReason


class Machine:
    """The interpreter.

    Subclasses may override :meth:`_inc`, :meth:`_dec` or :meth:`_mov` to
    build deliberately broken variants (the test suite uses a non-wrapping
    INC and a complementing MOV to prove the invariant checker actually
    bites).  The stock machine wraps at the word boundary.

    Unobserved runs of a machine that overrides none of these hooks
    execute compiled segments (see the module docstring); every other run
    takes the reference loop, so an override always applies.  Both paths
    give identical :class:`ExecResult` values, budget cut-off included.
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
        observer: Observer | None = None,
    ) -> ExecResult:
        """Run ``program`` on ``x`` until OUT, the end of the program or ``budget`` steps.

        ``observer`` is called with ``(incdec_index, pc, registers)`` on the
        initial state and after each executed instruction, until it returns
        ``False``; the run itself is unaffected either way.  ``registers`` is
        the live register dict: do not keep or mutate it.  A run without an
        observer, on a machine without hook overrides, executes compiled code.
        """
        if budget < 1:
            raise ValueError(f"budget must be >= 1, got {budget}")
        cls = type(self)
        if (
            observer is None
            and cls._inc is Machine._inc
            and cls._dec is Machine._dec
            and cls._mov is Machine._mov
        ):
            return self._run_compiled(program, x, budget)

        regs: dict[str, int] = {name: 0 for name in program.register_names}
        regs["x"] = x.value
        if observer is not None and observer(0, None, regs) is False:
            observer = None
        return self._interpret(program, x.width, regs, budget, 0, 0, 0, observer)

    def _run_compiled(self, program: Program, x: Word, budget: int) -> ExecResult:
        """Run segment by segment; hand a segment that might cross ``budget`` to the reference loop."""
        segments = program._segments
        size = len(segments)
        width = x.width
        mask = (1 << width) - 1
        r = [0] * len(program.register_names)
        r[0] = x.value
        pc = total = incdec = 0
        while True:
            if pc >= size:
                return ExecResult(None, total, incdec, HaltReason.FELL_OFF_END)
            segment, length = segments[pc]
            if total + length > budget:
                regs = dict(zip(program.register_names, r))
                return self._interpret(program, width, regs, budget, pc, total, incdec, None)
            pc, steps, k = segment(r, mask)
            total += steps
            incdec += k
            if pc < 0:
                return ExecResult(r[~pc], total, incdec, HaltReason.OUT)

    def _interpret(
        self,
        program: Program,
        width: int,
        regs: dict[str, int],
        budget: int,
        pc: int,
        total: int,
        incdec: int,
        observer: Observer | None,
    ) -> ExecResult:
        """The reference loop, from ``pc`` with the given registers and counters."""
        mask = (1 << width) - 1
        instructions = program.instructions
        size = len(instructions)
        output: int | None = None
        halt: HaltReason | None = None

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
                    output = regs[ins.a]
                    halt = HaltReason.OUT
            if observer is not None and observer(incdec, pc, regs) is False:
                observer = None
            if halt is not None:
                break
            pc = next_pc

        return ExecResult(output, total, incdec, halt)


def execute(program: Program, x: Word, budget: int = DEFAULT_BUDGET) -> ExecResult:
    """Run ``program`` on input ``x`` with the stock machine."""
    return Machine().run(program, x, budget=budget)

