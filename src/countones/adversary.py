"""Adversary inputs, the prefix invariant, flip probes and lower-bound audits.

The machinery that makes the ``min(nu, n - nu)`` inc/dec lower bound
empirically checkable:

* :func:`adversary_input` builds words of the form ``e (01)^m d^(n-2m-1)``
  (MSB first).  On such inputs, *every* program of this machine keeps every
  register in a tight straitjacket:

* the **prefix invariant** (:class:`PrefixInvariantCheck`, run online as a
  :meth:`Machine.run` observer): after ``i`` inc/dec steps, the top
  ``k_i`` bits of every register are all-zeros, all-ones, or the input's
  own top ``k_i`` bits, where ``k_0 = n`` and ``k_i = 2*(m - i) + 1``.
  Each inc/dec can chew at most two bits off the protected prefix, which
  is what the shrinking schedule expresses.

* the **MSB flip probe** (:func:`msb_flip_probe`): on inputs with ``e = d``,
  flipping the most significant bit cannot change the branch decisions of
  any program until at least ``min(nu, n - nu)`` inc/dec steps have run, so
  the two runs must agree on their executed path up to that point; the
  probe reports where they first part as a :class:`Divergence`.

* the **lower-bound audit** (:func:`lower_bound_audit`): exhaustively checks
  a counting program for correctness and for ``incdec_steps >=
  min(nu, n - nu)`` on every input with ``nu != n/2``.  It is a fold of
  :func:`measure` rows into a :class:`LowerBoundCheck`, which it returns.

* **measurement** (:func:`measure`): the one loop that runs a program over a
  set of inputs, yielding ``(value, nu, output, incdec, total, halt)`` per
  input with ``nu`` from the naive oracle.  ``countones verify``, ``sweep``
  and ``table`` read their rows from it, and ``verify`` feeds each row to
  all of its checks at once, so every (program, input) pair runs once.

Each check is its own report: a :class:`PrefixInvariantCheck` or
:class:`LowerBoundCheck` holds what it has seen so far and says ``ok``.

Audits and fuzzing are embarrassingly parallel across (program, input)
pairs; every execution is independent.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Iterator

from .programs import GeneratedProgram
from .vm import DEFAULT_BUDGET, ExecResult, HaltReason, Machine, Program
from .words import MAX_WIDTH, Word, popcount_naive

__all__ = [
    "AdversaryParams",
    "adversary_input",
    "KSchedule",
    "Violation",
    "PrefixInvariantCheck",
    "Divergence",
    "MsbFlipProbe",
    "msb_flip_probe",
    "Row",
    "measure",
    "AuditFailure",
    "LowerBoundCheck",
    "lower_bound_audit",
    "AUDIT_WIDTH_MAX",
]

# The widest word whose every input ``lower_bound_audit`` and ``verify`` run.
AUDIT_WIDTH_MAX = 12


@dataclass(frozen=True, slots=True)
class AdversaryParams:
    """Parameters (e, m, d, n) of the word ``e (01)^m d^(n-2m-1)``."""

    e: int
    m: int
    d: int
    n: int

    def __post_init__(self) -> None:
        if self.e not in (0, 1) or self.d not in (0, 1):
            raise ValueError("e and d must be single bits")
        if not 1 <= self.n <= MAX_WIDTH:
            raise ValueError(f"n must be 1..{MAX_WIDTH}, got {self.n}")
        if not 0 <= 2 * self.m < self.n:
            raise ValueError(f"m must satisfy 0 <= m < n/2, got m={self.m}, n={self.n}")


def adversary_input(p: AdversaryParams) -> Word:
    """The word ``e (01)^m d^(n-2m-1)``, MSB first."""
    bits = f"{p.e}" + "01" * p.m + str(p.d) * (p.n - 2 * p.m - 1)
    return Word.from_bits(bits)


@dataclass(frozen=True, slots=True)
class KSchedule:
    """Protected-prefix lengths: ``k_0 = n`` and ``k_i = 2*(m - i) + 1``.

    Beyond ``i = m`` the schedule runs out (the would-be length is no longer
    positive) and the invariant is vacuous; ``k_value`` returns ``None``
    there.
    """

    n: int
    m: int

    def k_value(self, i: int) -> int | None:
        if i < 0:
            raise ValueError(f"index must be >= 0, got {i}")
        if i == 0:
            return self.n
        k = 2 * (self.m - i) + 1
        return k if k >= 1 else None


@dataclass(frozen=True, slots=True)
class Violation:
    snapshot_index: int
    incdec_index: int
    register: str
    prefix: str
    allowed: tuple[str, str, str]


def _prefix_bits(value: int, k: int) -> str:
    # A register that escaped its width renders wider than k; that is the
    # point -- such a state is itself a violation worth seeing verbatim.
    return format(value, f"0{k}b")


class PrefixInvariantCheck:
    """The prefix invariant, checked online as a :meth:`Machine.run` observer.

    Pass :meth:`observe` as the observer of a run on ``adversary_input(params)``.
    At each state with inc/dec index ``i <= m``, every register's top ``k_i``
    bits must be one of all-zeros, all-ones, or the input's own prefix.
    Prefixes are compared as integers (``value >> (n - k)``), which
    additionally flags any register whose value escaped the word width.  The
    first state past ``i = m`` detaches the check: the inc/dec index only
    grows, so the rest of the run is vacuous.  ``checked`` counts the states
    seen so far and ``violations`` lists what they broke; a violation's
    ``snapshot_index`` counts the initial state as 0.
    """

    def __init__(self, params: AdversaryParams) -> None:
        x = adversary_input(params).value
        schedule = KSchedule(params.n, params.m)
        self.params = params
        self.checked = 0
        self.violations: list[Violation] = []
        # per index i <= m: (shift, all-zeros, all-ones, input prefix)
        self._allowed: list[tuple[int, int, int, int]] = []
        for i in range(params.m + 1):
            k = schedule.k_value(i)
            shift = params.n - k
            self._allowed.append((shift, 0, (1 << k) - 1, x >> shift))

    def observe(self, incdec_index: int, pc: int | None, registers: dict[str, int]) -> bool:
        if incdec_index > self.params.m:
            return False
        shift, zeros, ones, xpref = self._allowed[incdec_index]
        for name, value in registers.items():
            prefix = value >> shift
            if prefix != zeros and prefix != ones and prefix != xpref:
                k = self.params.n - shift
                self.violations.append(
                    Violation(
                        self.checked,
                        incdec_index,
                        name,
                        _prefix_bits(prefix, k),
                        (
                            _prefix_bits(zeros, k),
                            _prefix_bits(ones, k),
                            _prefix_bits(xpref, k),
                        ),
                    )
                )
        self.checked += 1
        return True

    @property
    def ok(self) -> bool:
        return not self.violations


@dataclass(frozen=True, slots=True)
class Divergence:
    """First point where two executions of the same program took different paths.

    ``step_index`` is the 0-based position in the executed-instruction
    sequence; ``incdec_index`` the number of INC/DEC completed before that
    instruction (equal in both runs, since everything before it matched).
    """

    step_index: int
    incdec_index: int


@dataclass(frozen=True)
class MsbFlipProbe:
    """Outcome of running a program on an adversary word and its MSB flip.

    ``result_x`` and ``result_flipped`` are the complete results of both runs.
    """

    params: AdversaryParams
    x: Word
    x_flipped: Word
    nu: int
    bound: int
    divergence: Divergence | None
    result_x: ExecResult = field(repr=False)
    result_flipped: ExecResult = field(repr=False)

    @property
    def bound_holds(self) -> bool:
        return self.divergence is None or self.divergence.incdec_index >= self.bound


def msb_flip_probe(
    program: Program,
    params: AdversaryParams,
    budget: int = DEFAULT_BUDGET,
) -> MsbFlipProbe:
    """Run ``program`` on ``x`` and on ``x`` with its MSB flipped.

    Requires ``e == d`` (the families ``1(01)^m 1^...`` and ``0(01)^m
    0^...``): those are the inputs for which the flip argument is sound, and
    for them ``min(nu, n - nu) = m`` and ``nu != n/2`` automatically.  For
    mixed ``e != d`` words the claimed bound is simply false -- ``1 0^(n-1)``
    flips to the zero word, which any program can tell apart with its first
    branch -- so such parameters are rejected.

    Returns the first control-flow divergence (if any) and whether it
    respects ``incdec_index >= min(nu, n - nu)``.  The run on ``x`` records
    its path of executed instructions through an observer; the run on the
    flipped word is compared against it online and stops comparing at the
    first difference or where that path ends.  A path that is a prefix of
    the other is no divergence, so a last branch that one run takes and the
    other falls through, off the end, goes unseen (``L0: INC a`` / ``BZ x
    L0`` on ``0000`` and ``1000`` under budget 50).
    """
    if params.e != params.d:
        raise ValueError(
            "msb_flip_probe needs e == d; the flip argument does not hold "
            "for mixed leading/trailing bits"
        )
    x = adversary_input(params)
    nu = popcount_naive(x)
    flipped = Word(params.n, x.value ^ (1 << (params.n - 1)))
    # (pc, incdec_index) of every state of the run on x, the initial one first
    path: list[tuple[int | None, int]] = []
    result_x = Machine().run(
        program, x, budget=budget, observer=lambda i, pc, regs: path.append((pc, i))
    )

    divergence: Divergence | None = None
    step = 0

    def compare(i: int, pc: int | None, regs: dict[str, int]) -> bool:
        nonlocal divergence, step
        if step == len(path):
            return False  # one path is a prefix of the other, which is no divergence
        if pc != path[step][0]:
            divergence = Divergence(step - 1, path[step - 1][1])
            return False
        step += 1
        return True

    result_flipped = Machine().run(program, flipped, budget=budget, observer=compare)
    return MsbFlipProbe(
        params=params,
        x=x,
        x_flipped=flipped,
        nu=nu,
        bound=min(nu, params.n - nu),
        divergence=divergence,
        result_x=result_x,
        result_flipped=result_flipped,
    )


# One measured input: (value, nu, output, incdec_steps, total_steps, halt).
# ``output`` is ``None`` unless the run halted with OUT.
Row = tuple[int, int, int | None, int, int, HaltReason]


def measure(
    program: Program,
    width: int,
    values: Iterable[int],
    machine: Machine | None = None,
    budget: int = DEFAULT_BUDGET,
) -> Iterator[Row]:
    """Run ``program`` once on each ``width``-bit input in ``values``, lazily.

    Yields one :data:`Row` per input, in order: the input value, its naive
    bit count ``nu``, the output (``None`` if the run did not halt with
    OUT), both step counters and the halt reason.  Rows are produced as they
    are consumed, so a caller that folds them keeps no per-input state.
    """
    run = (machine or Machine()).run
    for value in values:
        word = Word(width, value)
        res = run(program, word, budget)
        yield (
            word.value,
            popcount_naive(word),
            res.output,
            res.incdec_steps,
            res.total_steps,
            res.halt_reason,
        )


@dataclass(frozen=True, slots=True)
class AuditFailure:
    input_bits: str
    nu: int
    kind: str  # "output" or "bound"
    detail: str


@dataclass
class LowerBoundCheck:
    """The lower-bound audit of one program at one width, fed row by row.

    :meth:`add` takes each :data:`Row` of :func:`measure`: the output must
    equal ``nu`` (including at density n/2), and where ``nu != n/2`` the
    inc/dec steps must reach ``min(nu, n - nu)``.  It returns whether the
    row's output was correct, the one verdict ``verify`` reads too.  The
    fields summarize the rows added so far: ``inputs`` counted, the
    ``failures``, the tightest incdec/bound ratio over inputs with bound
    >= 1 (``min_ratio``) and the worst-case inc/dec steps (``max_incdec``).
    """

    program: str
    width: int
    inputs: int = 0
    failures: list[AuditFailure] = field(default_factory=list)
    min_ratio: float | None = None
    max_incdec: int = 0

    @property
    def ok(self) -> bool:
        return not self.failures

    def add(self, row: Row) -> bool:
        value, nu, out, incdec, _, halt = row
        width = self.width
        self.inputs += 1
        if incdec > self.max_incdec:
            self.max_incdec = incdec
        if halt is not HaltReason.OUT or out != nu:
            got = out if out is not None else halt.value
            self.failures.append(AuditFailure(
                f"{value:0{width}b}", nu, "output", f"expected {nu}, got {got}"))
            return False
        if 2 * nu != width:
            bound = min(nu, width - nu)
            if incdec < bound:
                self.failures.append(AuditFailure(
                    f"{value:0{width}b}", nu, "bound", f"incdec {incdec} < bound {bound}"))
            elif bound > 0:
                ratio = incdec / bound
                if self.min_ratio is None or ratio < self.min_ratio:
                    self.min_ratio = ratio
        return True


def lower_bound_audit(g: GeneratedProgram, machine: Machine | None = None) -> LowerBoundCheck:
    """Exhaustively audit a counting program at its own width ``g.width``.

    For every input: the output must equal the naive bit count (including at
    density n/2), and for every input with ``nu != n/2`` the measured
    inc/dec steps must reach ``min(nu, n - nu)``.  Returns the filled
    :class:`LowerBoundCheck`, tightest step/bound ratio and worst case included.
    """
    width = g.width
    if not 2 <= width <= AUDIT_WIDTH_MAX:
        raise ValueError(f"audit width must be 2..{AUDIT_WIDTH_MAX}, got {width}")
    check = LowerBoundCheck(g.name, width)
    for row in measure(g.program, width, range(1 << width), machine):
        check.add(row)
    return check
