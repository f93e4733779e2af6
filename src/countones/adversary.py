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
  probe runs them as two lanes of one group and reports where they first
  part as a :class:`Divergence`.

* the **lower-bound audit** (:func:`lower_bound_audit`): exhaustively checks
  a counting program for correctness and for ``incdec_steps >=
  min(nu, n - nu)`` on every input with ``nu != n/2``.  It is a fold into
  a :class:`LowerBoundCheck`, which it returns.

* **measurement** (:func:`measure`): the one loop that yields a row
  ``(value, nu, output, incdec, total, halt)`` per input, ``nu`` from the
  naive oracle, on the lanes of :func:`run_slices` (:func:`_lane_rows`) or
  on a given machine.  ``verify`` and the audit read it when given a
  machine, and the tests hold the lanes to its reference branch.

* **cells of lanes** (:func:`_cells`): a run's tail ``(nu, output, incdec,
  total)`` is a function of its halt group and ``nu`` class wherever the
  output equals ``nu``, ``nu`` being a ripple add of the input slices
  (:func:`_nu_slices`).  So on the stock machine each check of ``verify``
  and the audit runs once per such cell (:func:`fold_slices`), and so does
  ``sweep``'s rendering of a tail (:func:`render_lanes`); only the other
  lanes become rows, as :func:`measure` makes them.

Each check is its own report: a :class:`PrefixInvariantCheck` or
:class:`LowerBoundCheck` holds what it has seen so far and says ``ok``.
"""

from __future__ import annotations

from collections import namedtuple
from collections.abc import Callable, Iterable, Iterator, Sequence
from functools import cache, reduce
from itertools import islice
from operator import and_, or_, xor

from .programs import GeneratedProgram
from .vm import (DEFAULT_BUDGET, OPCODES, HaltReason, Machine, Program, _Frozen, _lane_step,
                 _transpose, run_slices)
from .words import MAX_WIDTH, popcount_naive

__all__ = [
    "AdversaryParams",
    "adversary_input",
    "Violation",
    "PrefixInvariantCheck",
    "Divergence",
    "MsbFlipProbe",
    "msb_flip_probe",
    "Row",
    "measure",
    "render_lanes",
    "AuditFailure",
    "LowerBoundCheck",
    "fold_slices",
    "lower_bound_audit",
    "AUDIT_WIDTH_MAX",
    "LANE_CHUNK",
]

# The widest word whose every input ``lower_bound_audit`` and ``verify`` run.
AUDIT_WIDTH_MAX = 12
# Inputs per run of the lanes in :func:`measure` and :func:`render_lanes`.
LANE_CHUNK = 4096


class AdversaryParams(_Frozen):
    """Parameters (e, m, d, n) of the word ``e (01)^m d^(n-2m-1)``."""

    __slots__ = ("e", "m", "d", "n")
    e: int
    m: int
    d: int
    n: int

    def __init__(self, e: int, m: int, d: int, n: int) -> None:
        if e not in (0, 1) or d not in (0, 1):
            raise ValueError("e and d must be single bits")
        if not 1 <= n <= MAX_WIDTH:
            raise ValueError(f"n must be 1..{MAX_WIDTH}, got {n}")
        if not 0 <= 2 * m < n:
            raise ValueError(f"m must satisfy 0 <= m < n/2, got m={m}, n={n}")
        object.__setattr__(self, "e", e)
        object.__setattr__(self, "m", m)
        object.__setattr__(self, "d", d)
        object.__setattr__(self, "n", n)


def adversary_input(p: AdversaryParams) -> int:
    """The ``n``-bit word ``e (01)^m d^(n-2m-1)``, MSB first, in closed form:
    ``(01)^m`` is ``4**m // 3``, above the ``low = n-1-2m`` copies of ``d``."""
    low = p.n - 1 - 2 * p.m
    return p.e << (p.n - 1) | (4**p.m // 3) << low | (-p.d & ((1 << low) - 1))


@cache
def _schedule(e: int, m: int, d: int, n: int) -> tuple[int, tuple[tuple[int, int, int, int], ...]]:
    """``adversary_input`` of ``(e, m, d, n)`` and, per inc/dec index ``i <= m``,
    the ``(shift, all-zeros, all-ones, input prefix)`` of its top ``k_i`` bits;
    built once per params in the process and shared, so it is immutable.
    Keyed on ints, which hash in C."""
    x = adversary_input(AdversaryParams(e, m, d, n))
    allowed = []
    for i in range(m + 1):
        k = 2 * (m - i) + 1 if i else n
        shift = n - k
        allowed.append((shift, 0, (1 << k) - 1, x >> shift))
    return x, tuple(allowed)


class Violation(namedtuple("Violation", "snapshot_index incdec_index register prefix allowed")):
    """A register whose top bits broke the invariant: its ``prefix`` and the
    three ``allowed`` ones, as bit strings."""

    __slots__ = ()


def _prefix_bits(value: int, k: int) -> str:
    # A register that escaped its width renders wider than k; that is the
    # point -- such a state is itself a violation worth seeing verbatim.
    return format(value, f"0{k}b")


class PrefixInvariantCheck:
    """The prefix invariant, checked online as a :meth:`Machine.run` observer.

    Pass :meth:`observe` as the observer of a run on ``adversary_input(params)``
    at width ``n``, which the check keeps as ``x``.  The word and the ``k_i``
    schedule are built once per params in the process and shared by every
    check and flip probe on those params; each check keeps its own
    ``checked`` and ``violations``.
    At each state with inc/dec index ``i <= m``, every register's top ``k_i``
    bits must be one of all-zeros, all-ones, or the input's own prefix.
    Prefixes are compared as integers (``value >> (n - k)``), which
    additionally flags any register whose value escaped the word width.  The
    first state past ``i = m`` detaches the check: the inc/dec index only
    grows, so the rest of the run is vacuous.  So does the first repeat the
    machine finds, after which the run replays states shown, at the same or
    a higher ``i``.  Replays pass where their first showing did: ``k_i``
    only shrinks as ``i`` grows, and top bits all zeros, all ones or the
    input's stay so when cut to fewer.  ``checked`` counts the states
    checked up to the detach and ``violations`` lists what they broke; a
    violation's ``snapshot_index`` counts the initial state as 0.
    """

    def __init__(self, params: AdversaryParams) -> None:
        self.x, self._allowed = _schedule(params.e, params.m, params.d, params.n)
        self.params = params
        self.checked = 0
        self.violations: list[Violation] = []

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


class Divergence(namedtuple("Divergence", "step_index incdec_index")):
    """First point where two executions of the same program took different paths.

    ``step_index`` is the 0-based position in the executed-instruction
    sequence; ``incdec_index`` the number of INC/DEC completed before that
    instruction (equal in both runs, since everything before it matched).
    """

    __slots__ = ()


class MsbFlipProbe(namedtuple("MsbFlipProbe", "params x x_flipped nu bound divergence")):
    """Outcome of running a program on the adversary word ``x`` and its MSB flip.

    ``divergence`` is a :class:`Divergence` or ``None``.
    """

    __slots__ = ()

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
    respects ``incdec_index >= min(nu, n - nu)``.  The two runs are lanes 0
    and 1 of one group, stepped together by :func:`vm._lane_step` until a
    branch splits them, the pair's whole state ``(pc, slices)`` repeats
    (Brent's cycle detection; a pair that repeats never parts) or they end.
    Like an unobserved :meth:`Machine.run`, the pair jumps the passes of an
    affine loop (:func:`._affine.jump_pair`), in none of which it parts.
    They part at the first instruction they execute differently, and a run
    that has ended executes nothing.  So a split counts only at a branch
    whose target is not ``pc + 1``, and only if both runs execute a next
    instruction: ``step < budget``, and ``pc + 1 < size`` for the run that
    falls through.  It is reported as ``Divergence(step, incdec)``, both
    counted after the branch.  A last branch that one run takes while the
    other falls off the end therefore goes unseen (``L0: INC a`` / ``BZ x
    L0`` on ``0000`` and ``1000`` under budget 50); item 17 of ROADMAP.md
    deletes the ``pc + 1 < size`` condition, so that such a branch counts.
    """
    if params.e != params.d:
        raise ValueError(
            "msb_flip_probe needs e == d; the flip argument does not hold "
            "for mixed leading/trailing bits"
        )
    if budget < 1:
        raise ValueError(f"budget must be >= 1, got {budget}")
    n = params.n
    x = _schedule(params.e, params.m, params.d, n)[0]
    nu = popcount_naive(x)
    flipped = x ^ 1 << (n - 1)
    regs = {name: [0] * n for name in program.register_names}
    # x in lane 0, its flip in lane 1: 3 * bit below the MSB, 2 - e at it
    regs["x"] = [3 * (x >> b & 1) for b in range(n - 1)] + [2 - params.e]
    instructions = program.instructions
    size = len(instructions)
    pc = step = incdec = 0
    # Brent's save rule: the state at step = mark is saved, mark doubling, as
    # the pc and a copy of every slice list, since INC and DEC write in place
    mark, saved_pc, saved_regs, saved_step, tried = 1, -1, {}, 0, False
    divergence = None
    while pc < size and step < budget and (ins := instructions[pc]).op != "OUT":
        if step >= mark:
            mark, saved_pc, saved_step, tried = 2 * step, pc, step, False
            saved_regs = {name: s[:] for name, s in regs.items()}
        elif pc == saved_pc:
            if regs == saved_regs:
                break
            if not tried:
                from ._affine import jump_pair

                tried = True
                jumped = jump_pair(instructions, regs, saved_regs, pc, step - saved_step,
                                   budget - step, n)
                if jumped:
                    step, incdec = step + jumped[0], incdec + jumped[1]
                    mark, saved_pc = step + 1, -1
                    continue
        taken = _lane_step(ins, regs, n, 3)
        incdec += OPCODES[ins.op].metered
        step += 1
        if taken in (1, 2) and ins.target != pc + 1:  # one lane of the two jumps
            if step < budget and pc + 1 < size:
                divergence = Divergence(step, incdec)
            break
        pc = ins.target if taken else pc + 1
    return MsbFlipProbe(params, x, flipped, nu, min(nu, n - nu), divergence)


# One measured input: (value, nu, output, incdec_steps, total_steps, halt).
# ``output`` is ``None`` unless the run halted with OUT.
Row = tuple[int, int, int | None, int, int, HaltReason]


def _lanes(mask: int) -> Iterator[int]:
    """The set bits of ``mask`` (>= 0), lowest first: the lanes it selects.  The
    mask is formatted once and scanned in C from one set bit to the next, so it
    costs one Python step per set bit, not one per lane below its highest."""
    bits = format(mask, "b")[::-1]  # character j is bit j
    find = bits.find
    j = find("1")
    while j >= 0:
        yield j
        j = find("1", j + 1)


def _lane_rows(
    values: Sequence[int], width: int, out: list[int], halts: list, lanes: int = -1
) -> Iterator[Row]:
    """The :data:`Row` of each lane in ``lanes`` of a :func:`run_slices` run on
    ``values``, in lane order and lazily; ``nu`` is from the naive oracle.
    The outputs are transposed only if some lane is selected."""
    lanes &= (1 << len(values)) - 1
    if not lanes:
        return
    outputs = _transpose(out, len(values))
    ends: list = [(0, 0, None)] * len(values)  # a selected lane's group [total, incdec, halt]
    for group, *end in halts:
        for j in _lanes(group & lanes):
            ends[j] = end
    for value, output, (total, incdec, halt) in zip(values, outputs, ends):
        if halt is not None:
            value &= (1 << width) - 1
            yield (value, popcount_naive(value), output if halt is HaltReason.OUT else None,
                   incdec, total, halt)


def _chunks(values: Iterable[int]) -> Iterator[Sequence[int]]:
    """``values`` in runs of ``LANE_CHUNK``; a sequence is sliced, so that a
    ``range`` stays a range for :func:`run_slices`' closed-form input slices."""
    if isinstance(values, Sequence):
        for i in range(0, len(values), LANE_CHUNK):
            yield values[i:i + LANE_CHUNK]
        return
    values = iter(values)
    while chunk := list(islice(values, LANE_CHUNK)):
        yield chunk


def measure(
    program: Program,
    width: int,
    values: Iterable[int],
    machine: Machine | None = None,
    budget: int = DEFAULT_BUDGET,
) -> Iterator[Row]:
    """Run ``program`` once on each ``width``-bit input in ``values``, lazily.

    Yields one :data:`Row` per input, in order, its value reduced mod
    ``2**width`` and ``nu`` from the naive oracle.  Each input runs on
    ``machine.run`` if a machine is given, the reference path; otherwise the
    inputs run on :func:`run_slices` in chunks of ``LANE_CHUNK``, so a caller
    that folds the rows keeps at most one chunk of per-input state.
    """
    if machine is not None:
        for value in values:
            res = machine.run(program, value, width, budget)
            value &= (1 << width) - 1
            yield (value, popcount_naive(value), res.output, res.incdec_steps,
                   res.total_steps, res.halt_reason)
        return
    for chunk in _chunks(values):
        _, out, halts = run_slices(program, width, chunk, budget)
        yield from _lane_rows(chunk, width, out, halts)


def _nu_slices(x: list[int]) -> list[int]:
    """Each lane's count of one bits, as slices: a ripple-carry add of the input slices ``x``."""
    nu = [0] * len(x).bit_length()
    for carry in x:
        for i, digit in enumerate(nu):
            nu[i], carry = digit ^ carry, digit & carry
            if not carry:
                break
    return nu


def _cells(x: list[int], out: list[int], halts: list) -> Iterator[tuple[int, int, int, int]]:
    """The correct cells of a :func:`run_slices` run with input and OUT slices
    ``x`` and ``out``, as ``(lanes, nu, incdec, total)``, lazily: per halt
    group that halted with OUT and per ``nu`` class (:func:`_nu_slices`), the
    lanes whose output equals their ``nu``, if there are any."""
    width = len(x)
    nu = _nu_slices(x)
    # per nu class, and where the output equals nu; both are read under a halt group's mask
    classes = [reduce(and_, (s if v >> i & 1 else ~s for i, s in enumerate(nu)), -1)
               for v in range(width + 1)]
    correct = ~reduce(or_, map(xor, out, nu + [0] * (width - len(nu))))
    for group, total, incdec, halt in halts:
        if halt is HaltReason.OUT and (rest := group & correct):
            for v, members in enumerate(classes):
                if cell := rest & members:
                    yield cell, v, incdec, total
                    if not (rest := rest ^ cell):
                        break


def render_lanes(
    program: Program,
    width: int,
    values: Iterable[int],
    render: Callable[[int, int | None, int, int], object],
    budget: int = DEFAULT_BUDGET,
) -> Iterator[tuple[Sequence[int], list, int]]:
    """Run ``program`` on each ``width``-bit input in ``values`` on the lanes,
    ``LANE_CHUNK`` at a time, and yield ``(chunk, tails, stuck)`` per chunk, lazily.

    ``tails[j]`` is ``render(nu, output, incdec, total)`` of the run on
    ``chunk[j]``, ``output`` being ``None`` unless it halted with OUT, and
    ``stuck`` counts the chunk's runs that did not.  ``render`` is called once
    per cell of :func:`_cells`, whose lanes share what it returns, and once
    per other lane, whose row comes from :func:`_lane_rows`.
    """
    for chunk in _chunks(values):
        x, out, halts = run_slices(program, width, chunk, budget)
        tails: list = [None] * len(chunk)
        covered = 0
        for cell, v, incdec, total in _cells(x, out, halts):
            tail = render(v, v, incdec, total)
            for j in _lanes(cell):
                tails[j] = tail
            covered |= cell
        rest = ~covered & (1 << len(chunk)) - 1
        for j, (_, nu, output, incdec, total, _) in zip(
                _lanes(rest), _lane_rows(chunk, width, out, halts, rest)):
            tails[j] = render(nu, output, incdec, total)
        stuck = sum(group.bit_count() for group, _, _, halt in halts if halt is not HaltReason.OUT)
        yield chunk, tails, stuck


class AuditFailure(namedtuple("AuditFailure", "input_bits nu kind detail")):
    """One input that failed the audit; ``kind`` is ``"output"`` or ``"bound"``."""

    __slots__ = ()


class LowerBoundCheck:
    """The lower-bound audit of one program at one width, fed row by row.

    :meth:`add` takes each :data:`Row` of :func:`measure`: the output must
    equal ``nu`` (including at density n/2), and where ``nu != n/2`` the
    inc/dec steps must reach ``min(nu, n - nu)``.  It returns whether the
    row's output was correct, the one verdict ``verify`` reads too, and
    :meth:`add_lanes` is its bulk form.  The fields summarize the inputs added
    so far: ``inputs`` counted, the ``failures``, the tightest incdec/bound
    ratio over inputs with bound >= 1 (``min_ratio``) and the worst-case
    inc/dec steps (``max_incdec``).  A check built without ``failures`` gets
    a list of its own.
    """

    def __init__(self, program: str, width: int, inputs: int = 0,
                 failures: list[AuditFailure] | None = None, min_ratio: float | None = None,
                 max_incdec: int = 0) -> None:
        self.program = program
        self.width = width
        self.inputs = inputs
        self.failures = [] if failures is None else failures
        self.min_ratio = min_ratio
        self.max_incdec = max_incdec

    def __eq__(self, other: object) -> bool:
        return vars(self) == vars(other) if other.__class__ is self.__class__ else NotImplemented

    def __repr__(self) -> str:
        return f"LowerBoundCheck({', '.join(f'{k}={v!r}' for k, v in vars(self).items())})"

    @property
    def ok(self) -> bool:
        return not self.failures

    def add_lanes(self, nu: int, incdec: int, count: int) -> bool:
        """Fold ``count`` inputs with ``nu`` one bits that output ``nu`` after
        ``incdec`` inc/dec steps if they meet the bound; return whether they did."""
        bound = min(nu, self.width - nu) if 2 * nu != self.width else 0
        if incdec < bound:
            return False
        self.inputs += count
        self.max_incdec = max(self.max_incdec, incdec)
        if bound and (self.min_ratio is None or incdec / bound < self.min_ratio):
            self.min_ratio = incdec / bound
        return True

    def add(self, row: Row) -> bool:
        value, nu, out, incdec, _, halt = row
        correct = halt is HaltReason.OUT and out == nu
        if correct and self.add_lanes(nu, incdec, 1):
            return True
        self.inputs += 1
        self.max_incdec = max(self.max_incdec, incdec)
        self.failures.append(AuditFailure(f"{value:0{self.width}b}", nu, *(
            ("bound", f"incdec {incdec} < bound {min(nu, self.width - nu)}") if correct else
            ("output", f"expected {nu}, got {out if out is not None else halt.value}"))))
        return correct


def fold_slices(
    check: LowerBoundCheck,
    program: Program,
    passes: Callable[[int, int], bool] = lambda nu, incdec: True,
    machine: Machine | None = None,
) -> Iterable[Row]:
    """Run ``program`` on every ``check.width``-bit input as one batch of lanes,
    fold what passes into ``check`` and return the :data:`Row` of every other
    input, in input order, for the caller's row code.

    A cell of correct lanes (:func:`_cells`) that meets ``passes(nu,
    incdec)`` and the bound is folded in bulk.  Given a ``machine``, it folds
    nothing and returns :func:`measure`'s row of every input, run on it.
    """
    width = check.width
    if machine is not None:
        return measure(program, width, range(1 << width), machine)
    x, out, halts = run_slices(program, width, range(1 << width))
    folded = 0
    for cell, v, incdec, _ in _cells(x, out, halts):
        if passes(v, incdec) and check.add_lanes(v, incdec, cell.bit_count()):
            folded |= cell
    return list(_lane_rows(range(1 << width), width, out, halts, ~folded))


def lower_bound_audit(g: GeneratedProgram, machine: Machine | None = None) -> LowerBoundCheck:
    """Exhaustively audit a counting program at its own width ``g.width``.

    For every input: the output must equal the naive bit count (including at
    density n/2), and for every input with ``nu != n/2`` the measured
    inc/dec steps must reach ``min(nu, n - nu)``.  Returns the filled
    :class:`LowerBoundCheck`, tightest step/bound ratio and worst case
    included, from :func:`fold_slices`, on ``machine`` if one is given.
    """
    width = g.width
    if not 2 <= width <= AUDIT_WIDTH_MAX:
        raise ValueError(f"audit width must be 2..{AUDIT_WIDTH_MAX}, got {width}")
    check = LowerBoundCheck(g.name, width)
    for row in fold_slices(check, g.program, machine=machine):
        check.add(row)
    return check
