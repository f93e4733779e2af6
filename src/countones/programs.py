"""Counting programs for the restricted machine, with exact step laws.

Each generator emits program text for one word length ``n`` (its ``width``)
together with a closed-form ``predicted_incdec(nu)`` giving the exact number
of INC/DEC steps the program performs on any ``n``-bit input with ``nu`` one
bits.  The asymptotic claims about these algorithms thereby become testable
equalities:

========  =======================================  ========================
program   idea                                     inc/dec steps
========  =======================================  ========================
wegner    ``x AND (x-1)`` clears the lowest one    ``2*nu``
dense     ``x OR (x+1)`` sets the lowest zero,     ``gen(n) + 2*(n-nu) + 1``
          counting down from a generated ``n``
combined  both of the above interleaved, first     exact piecewise form;
          finisher wins                            ``<= 2*min(2*nu,
                                                   gen(n)+2*(n-nu)+1) + 2``
twobit    width 2 special case                     ``0`` if x = 0 else ``1``
========  =======================================  ========================

``gen(t)`` is the cost of building the constant ``t`` from zero with INC and
OR only (:func:`constant_inc_count`).  Each loop body is written once, as a
step (:func:`_wegner_step`, :func:`_dense_step`): wegner and dense wrap
their step in a loop, and combined emits both steps, on disjoint registers,
in every round.  :func:`shipped_programs` lists the counters checked at one
width, which every generator but twobit checks with
:func:`~countones.words._check_width`.  The four counter generators are
memoized, so each width's program is parsed once per process;
:func:`constant_program` is not, since callers build many one-shot constants.

The module also houses two classic host-level popcounts of a plain int
(broadword fold, HAKMEM-style octal trick).  Nothing in the package calls
them: the tests check them against :func:`~countones.words.popcount_naive`,
and ``table`` quotes their hand counts of word ops.  ROADMAP item 14
measures the fold as a machine program over opt-in ops and then deletes both.
"""

from __future__ import annotations

from collections.abc import Callable
from functools import cache

from .vm import Program, _Frozen, parse_program
from .words import _check_width

__all__ = [
    "GeneratedProgram",
    "constant_inc_count",
    "wegner_program",
    "constant_program",
    "dense_program",
    "combined_program",
    "twobit_program",
    "shipped_programs",
    "broadword_popcount",
    "hakmem_popcount",
    "CONSTANT_STEP_FACTOR",
]

# Documented constant for the constant-generation step bound:
# total_steps(constant_program(t)) <= CONSTANT_STEP_FACTOR * log2(t + 2).
# The measured worst ratio is just under 6.0 (at t = 2**k - 1).
CONSTANT_STEP_FACTOR = 8


class GeneratedProgram(_Frozen):
    """A program for ``width``-bit words plus its exact inc/dec step law.

    ``program`` is derived: it is parsed from ``text`` when built, so a text
    that does not parse raises :class:`countones.vm.ParseError`.
    ``predicted_incdec(nu)`` must equal the measured ``incdec_steps`` on
    every input with ``nu`` one bits -- exhaustively testable for small widths.
    """

    __slots__ = ("name", "width", "text", "predicted_incdec", "program")
    name: str
    width: int
    text: str
    predicted_incdec: Callable[[int], int]
    program: Program

    def __init__(self, name: str, width: int, text: str,
                 predicted_incdec: Callable[[int], int]) -> None:
        object.__setattr__(self, "name", name)
        object.__setattr__(self, "width", width)
        object.__setattr__(self, "text", text)
        object.__setattr__(self, "predicted_incdec", predicted_incdec)
        object.__setattr__(self, "program", parse_program(text))


def constant_inc_count(target: int) -> int:
    """INC steps the constant generator spends building ``target`` from zero.

    One INC per rung of the ladder t_i = 2**i - 1 (there are
    ``bit_length - 1`` of those) plus one INC per set bit to lift t_i to
    2**i before ORing it into the accumulator.
    """
    if target < 0:
        raise ValueError("target must be non-negative")
    if target == 0:
        return 0
    return target.bit_length() - 1 + bin(target).count("1")


def _constant_blocks(target: int, t: str, s: str, acc: str) -> list[list[str]]:
    """Instruction blocks leaving ``target`` in register ``acc``.

    Walks the ladder t_{i+1} = t_i OR (t_i + 1) (so t_i = 2**i - 1) in
    register ``t``; whenever bit i of ``target`` is set, ORs t_i + 1 = 2**i
    into ``acc``.  Every block contains exactly one INC, which lets callers
    pace the increments when interleaving.
    """
    blocks: list[list[str]] = []
    if target == 0:
        return blocks
    k_max = target.bit_length() - 1
    for i in range(k_max + 1):
        if (target >> i) & 1:
            blocks.append([f"MOV {s} {t}", f"INC {s}", f"OR {acc} {s}"])
        if i < k_max:
            blocks.append([f"MOV {s} {t}", f"INC {s}", f"OR {t} {s}"])
    return blocks


def _wegner_step(x: str, t: str, c: str, out: str) -> list[str]:
    """One wegner iteration: leave for ``out`` once ``x`` is zero, else clear
    its lowest one (``x AND (x-1)``, via ``t``) and count it in ``c``."""
    return [f"BZ {x} {out}", f"MOV {t} {x}", f"DEC {t}", f"AND {x} {t}", f"INC {c}"]


def _dense_step(x: str, y: str, b: str, out: str) -> list[str]:
    """One dense iteration: leave for ``out`` once ``x + 1`` wraps to zero,
    else set the lowest zero of ``x`` (``x OR (x+1)``, via ``y``) and count
    it off ``b``."""
    return [f"MOV {y} {x}", f"INC {y}", f"BZ {y} {out}", f"OR {x} {y}", f"DEC {b}"]


@cache
def wegner_program(width: int) -> GeneratedProgram:
    """Clear the lowest set bit until nothing is left, counting clears.

    For non-zero x, ``x AND (x-1)`` deletes the right-most one, so the loop
    body runs exactly nu times; each pass costs one DEC and one INC, hence
    exactly ``2*nu`` inc/dec steps.
    """
    _check_width(width)
    first, *rest = _wegner_step("x", "t", "c", "done")
    text = "\n".join([f"loop: {first}", *rest, "JMP loop", "done: OUT c"])
    return GeneratedProgram(
        name="wegner",
        width=width,
        text=text,
        predicted_incdec=lambda nu: 2 * nu,
    )


def constant_program(target: int, width: int) -> GeneratedProgram:
    """Build the constant ``target`` from zero using INC and OR only.

    Spends exactly :func:`constant_inc_count` increments and at most
    ``CONSTANT_STEP_FACTOR * log2(target + 2)`` total steps.  ``target = 0``
    emits just a ZERO.
    """
    _check_width(width)
    if not 0 <= target < (1 << width):
        raise ValueError(f"target {target} not representable in {width} bits")
    blocks = _constant_blocks(target, "t", "s", "acc")
    if target == 0:
        lines = ["ZERO acc"]
    else:
        lines = ["ZERO t", "ZERO acc"]
        for block in blocks:
            lines.extend(block)
    lines.append("OUT acc")
    text = "\n".join(lines)
    incs = constant_inc_count(target)
    return GeneratedProgram(
        name=f"constant[{target}]",
        width=width,
        text=text,
        predicted_incdec=lambda nu: incs,
    )


@cache
def dense_program(width: int) -> GeneratedProgram:
    """Count down from ``n`` over the zeros of x.

    Initializes a counter b with the word length, then repeats
    ``x <- x OR (x+1)`` (which sets the lowest zero) until ``x + 1`` wraps to
    zero, decrementing b once per iteration.  The number of iterations equals
    the number of zeros, so b ends at nu.  Exact inc/dec cost:
    ``gen(n) + 2*(n - nu) + 1`` (the +1 is the final wrap check).
    """
    _check_width(width)
    lines = ["ZERO ct", "ZERO b"]
    for block in _constant_blocks(width, "ct", "cs", "b"):
        lines.extend(block)
    first, *rest = _dense_step("x", "y", "b", "done")
    lines.extend([f"loop: {first}", *rest, "JMP loop", "done: OUT b"])
    text = "\n".join(lines)
    gen = constant_inc_count(width)
    return GeneratedProgram(
        name="dense",
        width=width,
        text=text,
        predicted_incdec=lambda nu: gen + 2 * (width - nu) + 1,
    )


def _combined_predicted(width: int, gen: int, chunk_count: int) -> Callable[[int], int]:
    def predicted(nu: int) -> int:
        zeros = width - nu
        dense_exit_round = chunk_count + zeros + 1  # its turn comes first in a round
        wegner_exit_round = nu + 1
        if dense_exit_round <= wegner_exit_round:
            # dense outputs first: its full cost plus a wegner iteration in
            # every earlier round
            return gen + 2 * zeros + 1 + 2 * (dense_exit_round - 1)
        if wegner_exit_round >= chunk_count:
            # wegner outputs first, after the whole constant prefix plus
            # (rounds - prefix) dense iterations have run
            return 2 * nu + gen + 2 * (wegner_exit_round - chunk_count)
        # wegner outputs while the constant prefix is still being paid off
        # in chunks of two increments per round
        return 2 * nu + 2 * wegner_exit_round
    return predicted


@cache
def combined_program(width: int) -> GeneratedProgram:
    """Interleave the wegner and dense methods; the first finisher answers.

    Each side works on its own copy of the input with disjoint registers.
    Rounds alternate one step per side (the same :func:`_dense_step` and
    :func:`_wegner_step` the single loops use), dense turn first; the dense
    side's early turns pay for its constant generation two increments at a
    time.  Whoever outputs first is correct (both are), and the pacing keeps
    the total within ``2*min(2*nu, gen(n) + 2*(n-nu) + 1) + 2`` inc/dec
    steps.  ``predicted_incdec`` is the exact value, not just the bound.

    The trailing self-jump is unreachable; it exists so that a codegen bug
    would show up as budget exhaustion instead of a silently wrong output.
    """
    _check_width(width)
    blocks = _constant_blocks(width, "ct", "cs", "bd")
    chunks = [blocks[i : i + 2] for i in range(0, len(blocks), 2)]
    p = len(chunks)
    rounds = p + width + 1

    lines = ["MOV xw x", "MOV xd x", "ZERO ct", "ZERO bd"]
    for r in range(1, rounds + 1):
        if r <= p:
            for block in chunks[r - 1]:
                lines.extend(block)
        else:
            lines.extend(_dense_step("xd", "yd", "bd", "out_d"))
        lines.extend(_wegner_step("xw", "tw", "cw", "out_w"))
    lines.extend(["stuck: JMP stuck", "out_d: OUT bd", "out_w: OUT cw"])
    text = "\n".join(lines)
    gen = constant_inc_count(width)
    return GeneratedProgram(
        name="combined",
        width=width,
        text=text,
        predicted_incdec=_combined_predicted(width, gen, p),
    )


@cache
def twobit_program(width: int = 2) -> GeneratedProgram:
    """Count ones in a two-bit word with at most one decrement.

    Zero answers for itself; otherwise y = x - 1 is the answer unless it is
    zero, in which case x itself (which must be 01) is.  One DEC for any
    non-zero input, none for zero -- and that single step is unavoidable.
    Any other ``width`` raises ``ValueError``.
    """
    if width != 2:
        raise ValueError("twobit is defined for width 2 only")
    text = "\n".join(
        [
            "BZ x out_x",
            "MOV y x",
            "DEC y",
            "BZ y out_x",
            "OUT y",
            "out_x: OUT x",
        ]
    )
    return GeneratedProgram(
        name="twobit",
        width=2,
        text=text,
        predicted_incdec=lambda nu: 0 if nu == 0 else 1,
    )


def shipped_programs(width: int) -> list[GeneratedProgram]:
    """The counting programs checked at ``width``: wegner, dense and combined,
    plus twobit at width 2."""
    programs = [wegner_program(width), dense_program(width), combined_program(width)]
    if width == 2:
        programs.append(twobit_program())
    return programs


_M1 = 0x5555555555555555
_M2 = 0x3333333333333333
_M4 = 0x0F0F0F0F0F0F0F0F


def broadword_popcount(value: int) -> int:
    """Tree-fold popcount using addition, shift and AND only (18 word ops).

    Pairs of bits are summed in place, then nibbles, bytes and so on; after
    the byte stage the partial sums are small enough that the folds need no
    further masking.  Valid for any ``0 <= value < 2**64``.
    """
    v = (value & _M1) + ((value >> 1) & _M1)
    v = (v & _M2) + ((v >> 2) & _M2)
    v = (v + (v >> 4)) & _M4
    v = v + (v >> 8)
    v = v + (v >> 16)
    v = v + (v >> 32)
    return v & 0x7F


def hakmem_popcount(value: int) -> int:
    """Octal-digit popcount with a final ``mod 63`` (10 word ops, 32 bits).

    Each octal digit of ``t`` becomes the bit count of the corresponding
    three input bits; adjacent digits are then paired and the base-64 digit
    sum is taken with ``% 63``.  The modulus trick is only valid while the
    count fits below 63, hence the hard requirement ``0 <= value < 2**32``.
    """
    if not 0 <= value < 1 << 32:
        raise ValueError(f"hakmem_popcount requires 0 <= value < 2**32, got {value}")
    t = value - ((value >> 1) & 0o33333333333) - ((value >> 2) & 0o11111111111)
    return ((t + (t >> 3)) & 0o30707070707) % 63
