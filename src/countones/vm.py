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
register operands, whether a label follows and whether it is metered.  The
parser, the lane executor and :func:`countones.fuzzing.random_program` read
it, each :class:`Instruction` checks its shape against it once, when built,
and a :class:`Program` reads those verdicts: ``ValueError`` unless every
opcode is in the table with exactly its register operands, and with a
target in ``0..len-1`` exactly where it takes a label.  So both
executors run only well-formed programs.  The reference loop spells the
semantics out by hand in its own ``match``, so that it stays an independent
oracle for the lane executor.

The interpreter is a pure function of (program, x, width, budget): no shared
mutable state, so any number of executions may run concurrently.  What an
observer keeps belongs to the caller of each execution.

Observers.  :meth:`Machine.run` takes one optional ``observer`` callback,
called as ``observer(incdec_index, pc, registers)`` on the initial state
(``pc`` is ``None``, ``incdec_index`` 0) and again after every executed
instruction, with ``pc`` the index of that instruction.  It is shown each
state up to and including the first repeat the machine finds, or until it
returns ``False`` (any other value, ``None`` included, keeps it attached);
then it detaches and is never called again, and the run goes on to the
result of an unobserved run.  ``registers`` is the interpreter's live
register dict: read it during the call, copy what must outlive it, and
never mutate it.  An observer is the one way to watch a run: to record one,
append a copy of each state, as in
``observer=lambda i, pc, regs: states.append((i, pc, dict(regs)))``.

Fast-forward.  The machine is deterministic: its next state depends only on
``(pc, registers)``, so a run that comes back to a state loops until its
budget runs out.  :meth:`Machine.run` finds such a repeat by Brent's cycle
detection (Brent, BIT 1980), observed or not, and adds every whole period
that fits in the budget at once; the result equals the step-by-step one
exactly.  A counter loop at a useful width never repeats a state within a
budget, so an unobserved run on the stock machine that comes back to the
saved pc with other registers tries an affine jump (:mod:`._affine`,
imported at the first try): if one symbolic pass shows every register
moving by the same amount each pass, it adds whole passes at once, up to
the first pass in which a branch goes the other way, solved exactly mod
``2**width``, and the search starts afresh one step later.  Either way the
result is the stepped run's, field for field.  An observed run or an
overridden :meth:`Machine._inc`, ``_dec`` or ``_mov`` never jumps, and each
save gets one try.

Lanes.  :func:`run_slices` runs one program on many inputs at once,
bit-sliced (Biham, FSE 1997): bit ``j`` of a register's slice ``b`` is its
bit ``b`` in lane ``j``, the run on ``values[j]``.  Lanes that share a path
form one group under one mask, with its own ``(pc, incdec_steps, step)``
and its own register dict.  One loop takes a group off a stack and runs it
alone, unmasked, until it halts or a branch splits it; then the taken lanes
run on and the fall-through lanes wait on the stack with a shallow copy of
the registers.  That copy suffices because :func:`_lane_step`, the one
bit-sliced spelling of each instruction but OUT, writes a fresh list for
every op but INC and DEC, whose carry starts at the group's mask, so a
group never changes another group's lanes.  Groups that meet again are not
merged.  A group's ``step`` is the ``total_steps`` of its lanes, and the
end of the program is tested before the budget, as in the reference loop.
It returns the input slices, the OUT slices and the halt groups;
:func:`countones.adversary.measure` turns lanes back into rows.  One
transpose, :func:`_transpose`, goes both ways: it packs the words, each
padded to whole bytes, into one int, formats that int once and reads each
slice as one strided slice of that string.  The input slices of an aligned
power-of-two ``range`` skip it, since they have a closed form
(:func:`_input_slices`).
"""

from __future__ import annotations

import enum
from collections import namedtuple
from collections.abc import Callable, Mapping, Sequence
from functools import reduce
from operator import attrgetter, or_, xor
from types import MappingProxyType

from .words import _check_width

__all__ = [
    "DEFAULT_BUDGET",
    "OpSpec",
    "OPCODES",
    "ParseError",
    "Instruction",
    "Program",
    "parse_program",
    "format_program",
    "HaltReason",
    "ExecResult",
    "Observer",
    "Machine",
    "execute",
    "run_slices",
]

DEFAULT_BUDGET = 1_000_000


class OpSpec(namedtuple("OpSpec", "regs label metered")):
    """One opcode of the machine, as the parser, the fuzzer and the lane executor
    see it: its count of register operands ``regs``, whether a jump ``label``
    follows them and whether it is ``metered`` in ``incdec_steps``."""

    __slots__ = ()


# The instruction set, written down once; see the module docstring.  It is
# read-only, since fuzz seeds depend on it.
OPCODES: Mapping[str, OpSpec] = MappingProxyType({
    "ZERO": OpSpec(1, False, False),
    "MOV": OpSpec(2, False, False),
    "INC": OpSpec(1, False, True),
    "DEC": OpSpec(1, False, True),
    "AND": OpSpec(2, False, False),
    "OR": OpSpec(2, False, False),
    "BZ": OpSpec(1, True, False),
    "BNZ": OpSpec(1, True, False),
    "BEQ": OpSpec(2, True, False),
    "BLT": OpSpec(2, True, False),
    "JMP": OpSpec(0, True, False),
    "OUT": OpSpec(1, False, False),
})

# Per opcode, which of an instruction's ``(a, b, target)`` are present.
_OPERANDS = {op: (spec.regs > 0, spec.regs > 1, spec.label) for op, spec in OPCODES.items()}


class ParseError(ValueError):
    """Raised on malformed program text; carries the 1-based line number."""

    def __init__(self, lineno: int, message: str):
        super().__init__(f"line {lineno}: {message}")
        self.lineno = lineno


class _Frozen:
    """Base of the package's immutable records kept in slots: those that check
    or derive a field as they are built, and :class:`Instruction`, which the
    executors read at every step.  (The other frozen records are
    ``namedtuple``s.)  The slots are set once by ``__init__`` with
    ``object.__setattr__``; none can be assigned or deleted after that.  The
    fields are the slots whose names do not start with ``_``: records of one
    class compare and hash by their fields, in ``__slots__`` order, and show
    them in their ``repr``.  A slot named ``_...`` holds what the record
    derives from its fields for the package's own use."""

    __slots__ = ()

    def __init_subclass__(cls) -> None:
        cls._fields = tuple(name for name in cls.__slots__ if name[0] != "_")
        cls._key = attrgetter(*cls._fields)

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._key(self) == self._key(other)

    def __hash__(self) -> int:
        return hash(self._key(self))

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{type(self).__name__}({fields})"


class Instruction(_Frozen):
    """One instruction: ``op`` with the operands that :data:`OPCODES` gives it,
    ``None`` for the others.  Slots rather than a ``namedtuple``, since both
    executors read its fields at every step, and a slot reads faster.  It
    checks its own shape once, when built: ``_fits`` says whether ``op`` is in
    :data:`OPCODES` with exactly these operands, for :class:`Program` to read."""

    __slots__ = ("op", "a", "b", "target", "_fits")
    op: str
    a: str | None
    b: str | None
    target: int | None

    def __init__(self, op: str, a: str | None = None, b: str | None = None,
                 target: int | None = None) -> None:
        object.__setattr__(self, "op", op)
        object.__setattr__(self, "a", a)
        object.__setattr__(self, "b", b)
        object.__setattr__(self, "target", target)
        object.__setattr__(self, "_fits", _OPERANDS.get(op) == (
            a is not None, b is not None, target is not None))


class Program(_Frozen):
    """A well-formed program (see the module docstring); ``register_names`` is
    derived: ``x`` first, then the other register operands in first-use order."""

    __slots__ = ("instructions", "register_names")
    instructions: tuple[Instruction, ...]
    register_names: tuple[str, ...]

    def __init__(self, instructions: tuple[Instruction, ...]) -> None:
        targets = range(len(instructions))
        names: dict[str | None, None] = {"x": None}
        for ins in instructions:
            if not ins._fits or ins.target is not None and ins.target not in targets:
                # the first instruction equal to this one fails too, so it is this one
                pc = instructions.index(ins)
                raise ValueError(f"instruction {pc}: {ins} does not fit its opcode in OPCODES"
                                 if not ins._fits else
                                 f"instruction {pc}: target {ins.target} is not in 0..{len(targets) - 1}")
            names[ins.a] = names[ins.b] = None  # a key set again keeps its first position
        names.pop(None, None)
        object.__setattr__(self, "instructions", instructions)
        object.__setattr__(self, "register_names", tuple(names))

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


def format_program(program: Program) -> str:
    """The source text of ``program``, which :func:`parse_program` gives back:
    one line per instruction, each jump target labelled ``L<index>``."""
    targets = {ins.target for ins in program.instructions}
    lines = []
    for idx, ins in enumerate(program.instructions):
        parts = [ins.op, *(reg for reg in (ins.a, ins.b) if reg is not None)]
        if ins.target is not None:
            parts.append(f"L{ins.target}")
        lines.append((f"L{idx}: " if idx in targets else "") + " ".join(parts))
    return "\n".join(lines)


class HaltReason(enum.Enum):
    OUT = "out"
    BUDGET_EXHAUSTED = "budget-exhausted"
    FELL_OFF_END = "fell-off-end"


# observer(incdec_index, pc, registers); returning False detaches it.
Observer = Callable[[int, int | None, dict[str, int]], bool | None]


class ExecResult(namedtuple("ExecResult", "output total_steps incdec_steps halt_reason")):
    """One run.  ``output`` is the OUT register as the machine left it, even
    out of its width (``None`` unless the run halted with OUT).  Every way of
    executing a run gives the same result."""

    __slots__ = ()


class Machine:
    """The reference interpreter, one instruction at a time.

    Subclasses may override :meth:`_inc`, :meth:`_dec` or :meth:`_mov` to
    build deliberately broken variants (the test suite uses a non-wrapping
    INC and a complementing MOV to prove the invariant checker actually
    bites).  An override must be a pure function of ``(value, mask)``: runs
    that do not halt, observed or not, are fast-forwarded over the repeats of
    their cycle, which holds only if a state determines the rest of the run.
    The stock machine wraps at the word boundary, and its :meth:`run` is the
    oracle that :func:`run_slices` must match exactly.
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
        x: int,
        width: int,
        budget: int = DEFAULT_BUDGET,
        observer: Observer | None = None,
    ) -> ExecResult:
        """Run ``program`` on ``x`` mod ``2**width`` to OUT, the end or ``budget`` steps.

        ``observer`` is called with ``(incdec_index, pc, registers)`` on the
        initial state and after each executed instruction, up to the first
        repeat or until it returns ``False``; the run is unaffected either
        way.  ``registers`` is the live register dict: do not keep or mutate it.
        """
        _check_width(width)
        if budget < 1:
            raise ValueError(f"budget must be >= 1, got {budget}")
        mask = (1 << width) - 1
        instructions = program.instructions
        size = len(instructions)
        regs: dict[str, int] = dict.fromkeys(program.register_names, 0)
        regs["x"] = x & mask
        pc = total = incdec = 0
        output: int | None = None
        halt: HaltReason | None = None
        # Brent's cycle detection, observed or not: the state (pc, registers)
        # is saved at total = mark, mark doubling up to the budget, as the pc
        # and a copy of the register dict, and each later state whose pc
        # matches compares its live dict with that copy.  saved_pc -1 means
        # nothing is saved.
        mark = 1
        saved_pc, saved_regs, saved_total, saved_incdec = -1, {}, 0, 0
        tried = False  # an affine jump was tried since the last save
        if observer is not None and observer(0, None, regs) is False:
            observer = None

        while True:
            if pc >= size:
                halt = HaltReason.FELL_OFF_END
                break
            if total >= mark:
                if total >= budget:
                    halt = HaltReason.BUDGET_EXHAUSTED
                    break
                saved_pc, saved_regs, saved_total, saved_incdec = pc, dict(regs), total, incdec
                mark, tried = min(2 * total, budget), False
            elif pc == saved_pc:
                if regs == saved_regs:
                    # A repeated state loops forever: detach the observer, add every
                    # whole period that fits in the budget, then run out the rest.
                    period = total - saved_total
                    cycles = (budget - total) // period
                    total += cycles * period
                    incdec += cycles * (incdec - saved_incdec)
                    saved_pc, mark, observer = -1, budget, None
                    continue
                if observer is None and not tried:
                    # Back at saved_pc in a new state: an unobserved run on the
                    # stock machine jumps over the passes of an affine loop.
                    tried = True
                    if (type(self)._inc is Machine._inc and type(self)._dec is Machine._dec
                            and type(self)._mov is Machine._mov):
                        from ._affine import prove

                        q = total - saved_total
                        proof = prove(instructions, mask, regs, saved_regs, pc, q,
                                      (budget - total) // q)
                        if proof is not None:
                            passes, delta, slopes, _ = proof
                            for name, slope in slopes.items():
                                regs[name] = (regs[name] + slope * passes) & mask
                            total += passes * q
                            incdec += passes * delta
                            saved_pc, mark = -1, min(total + 1, budget)
                            continue
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


def execute(program: Program, x: int, width: int, budget: int = DEFAULT_BUDGET) -> ExecResult:
    """Run ``program`` on the ``width``-bit input ``x`` with the stock machine."""
    return Machine().run(program, x, width, budget)


def run_slices(
    program: Program, width: int, values: Sequence[int], budget: int = DEFAULT_BUDGET
) -> tuple[list[int], list[int], list[tuple[int, int, int, HaltReason]]]:
    """Run ``program`` on every ``width``-bit input in ``values`` at once, bit-sliced.

    Returns the input slices, the OUT slices (0 in lanes that did not halt
    with OUT) and the halt groups ``(lanes, total, incdec, reason)``, which
    partition the lanes in no promised order; lane ``j`` runs ``values[j]``.
    Each group runs alone until it halts, and a branch that splits it runs
    on with the taken lanes while the fall-through lanes wait on a stack.
    """
    if budget < 1:
        raise ValueError(f"budget must be >= 1, got {budget}")
    _check_width(width)
    if not values:
        return [0] * width, [0] * width, []
    x = _input_slices(values, width)
    regs = {name: [0] * width for name in program.register_names}
    regs["x"] = list(x)  # a copy: INC and DEC update slices in place
    out = [0] * width  # the OUT register of each lane that halted with OUT
    instructions = program.instructions
    size = len(instructions)
    groups = [(0, 0, 0, (1 << len(values)) - 1, regs)]  # (pc, incdec_steps, step, lanes, registers)
    halts: list[tuple[int, int, int, HaltReason]] = []  # (lanes, total, incdec, reason)
    while groups:
        pc, k, step, m, regs = groups.pop()
        while pc < size and step < budget and (ins := instructions[pc]).op != "OUT":
            taken = _lane_step(ins, regs, width, m)
            k += OPCODES[ins.op].metered
            step += 1
            if taken and taken != m and ins.target != pc + 1:
                # a shallow copy, as only INC and DEC write a slice in place, and only
                # in their own lanes; the taken lanes go first, so a loop's exit runs
                # to OUT at once rather than waiting with its copy until the loop ends
                groups.append((pc + 1, k, step, m ^ taken, dict(regs)))
                m = taken
            pc = ins.target if taken else pc + 1
        if pc >= size:
            halts.append((m, step, k, HaltReason.FELL_OFF_END))
        elif step >= budget:
            halts.append((m, step, k, HaltReason.BUDGET_EXHAUSTED))
        else:
            out = [o | a & m for o, a in zip(out, regs[ins.a])]
            halts.append((m, step + 1, k, HaltReason.OUT))
    return x, out, halts


def _lane_step(ins: Instruction, regs: dict[str, list[int]], width: int, m: int) -> int:
    """Run ``ins`` (any opcode but OUT) in the lanes of ``m``.  INC and DEC change
    their slices in place, in those lanes only; every other write is a fresh list,
    whose lanes outside ``m`` may hold anything.  Returns the lanes of ``m`` that
    jump to ``ins.target``."""
    taken = 0
    match ins.op:
        case "INC" | "DEC":
            # a carry ripples on through 1 bits, a borrow through 0 bits (~r = r ^ -1)
            r, carry, flip = regs[ins.a], m, -1 if ins.op == "DEC" else 0
            for b in range(width):
                carry, r[b] = carry & (r[b] ^ flip), r[b] ^ carry
                if not carry:
                    break
        case "AND":
            regs[ins.a] = [a & s for a, s in zip(regs[ins.a], regs[ins.b])]
        case "OR":
            regs[ins.a] = [a | s for a, s in zip(regs[ins.a], regs[ins.b])]
        case "MOV":
            regs[ins.a] = regs[ins.b][:]
        case "ZERO":
            regs[ins.a] = [0] * width
        case "BZ" | "BNZ":
            nonzero = m & reduce(or_, regs[ins.a])
            taken = m ^ nonzero if ins.op == "BZ" else nonzero
        case "BEQ":
            taken = m & ~reduce(or_, map(xor, regs[ins.a], regs[ins.b]))
        case "BLT":
            # from the MSB down: lanes still equal, and lanes where a < s
            equal = m
            for a, s in zip(reversed(regs[ins.a]), reversed(regs[ins.b])):
                taken |= equal & s & ~a
                equal &= ~(a ^ s)
        case "JMP":
            taken = m
    return taken


def _input_slices(values: Sequence[int], width: int) -> list[int]:
    """``_transpose(values, width)``, in closed form when ``values`` is an aligned
    ``range(start, start + 2^k)``: there slice ``b < k`` repeats ``2^b`` zeros and
    ``2^b`` ones, and slice ``b >= k`` is bit ``b`` of ``start`` in every lane."""
    lanes = len(values)
    if not (isinstance(values, range) and values.step == 1 and not lanes & lanes - 1
            and not values.start % lanes):
        return _transpose(values, width)
    slices = []
    for b in range(width):
        h = 1 << b
        if h < lanes:  # one period, doubled until it spans the lanes
            s, span = ((1 << h) - 1) << h, 2 * h
            while span < lanes:
                s, span = s | s << span, 2 * span
        else:
            s = ((1 << lanes) - 1) * (values.start >> b & 1)
        slices.append(s)
    return slices


def _transpose(words: Sequence[int], width: int) -> list[int]:
    """Bit ``j`` of item ``b`` is bit ``b`` of ``words[j]``, for ``b < width``: the
    lanes' one bit transpose, from values to slices and, given the lane count, back."""
    mask = (1 << width) - 1
    size = (width + 7) // 8
    stride = 8 * size
    # word j padded to whole bytes at bits stride*j.., all packed into one int and
    # formatted once, MSB first: item b is every stride-th character from stride-1-b
    packed = int.from_bytes(b"".join([(word & mask).to_bytes(size, "little") for word in words]),
                            "little")
    bits = format(packed, f"0{stride * len(words)}b")
    return [int(bits[stride - 1 - b::stride], 2) for b in range(width)]
