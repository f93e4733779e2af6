"""Command-line front end: verify, sweep, fuzz, gen, table.

Exit codes: 0 success, 1 check failure or a closed stdout, 2 usage error.

CSV schemas (stable, part of the public contract):

* ``sweep``:  ``input_bits,nu,output,incdec_steps,total_steps`` -- one row
  per input, inputs rendered MSB-first.  A run that does not halt with OUT
  within the budget has ``output`` -1; ``sweep`` then still writes every
  row, reports their count on stderr and exits 1.
* ``verify --out``: ``check,program,width,status,detail``.
* ``fuzz --out``: ``kind,run,width,e,m,d,detail`` -- one row per violation
  (header only when the campaign is clean).
* ``table --format csv``: ``operation_set,lower_bound,upper_bound,measured``.

One function, ``_table``, writes every CSV and markdown table above; it
turns a ``,`` inside a CSV cell into ``;`` so that each row keeps its
columns.  ``sweep`` lays out its rows itself, in ``_table``'s layout
(``_LAYOUT``), one rendered tail per cell of lanes: its cells are ints and
bit strings, which hold no ``,``.

All output is deterministic for a given seed: identical invocations emit
byte-identical bytes.
"""

from __future__ import annotations

import argparse
import os
import random
import sys
from collections.abc import Callable, Iterable, Iterator, Sequence
from contextlib import nullcontext
from functools import cache
from itertools import chain, islice, starmap

from .adversary import (
    AUDIT_WIDTH_MAX,
    LowerBoundCheck,
    fold_slices,
    lower_bound_audit,
    measure,
    render_lanes,
)
from .fuzzing import FUZZ_BUDGET, _below, fuzz_divergence, fuzz_invariant
from .programs import (
    GeneratedProgram,
    combined_program,
    constant_program,
    dense_program,
    shipped_programs,
    twobit_program,
    wegner_program,
)
from .vm import DEFAULT_BUDGET, Machine, parse_program
from .words import MAX_WIDTH

__all__ = ["main", "build_parser", "verify_suite"]


_ALGOS: dict[str, Callable[[int], GeneratedProgram]] = {
    "wegner": wegner_program,
    "dense": dense_program,
    "combined": combined_program,
    "twobit": twobit_program,
}

SAMPLED_SWEEP_SIZE = 4096  # rows when the width is too wide to enumerate
EMIT_CHUNK = 4096  # lines per write, so a streamed table never sits whole in memory
EXHAUSTIVE_WIDTH_LIMIT = 20


def _emit(lines: Iterable[str], out_path: str | None) -> None:
    """Write ``lines``, each ending in a newline, ``EMIT_CHUNK`` lines per write;
    ``--out`` is opened before the first line is made."""
    lines = iter(lines)
    try:
        with nullcontext(sys.stdout) if out_path is None else open(out_path, "w", newline="") as fh:
            while chunk := list(islice(lines, EMIT_CHUNK)):
                fh.write("\n".join([*chunk, ""]))
    except OSError as exc:
        if out_path is None:
            raise
        raise SystemExit(_usage_error(f"cannot write --out {out_path}: {exc.strerror}"))


# per table format: what opens a line, what parts its cells and what closes it
_LAYOUT = {"csv": ("", ",", ""), "markdown": ("| ", " | ", " |")}


def _table(header: Sequence[str], rows: Iterable[Sequence[object]], fmt: str) -> Iterator[str]:
    """The lines of a ``csv`` table (``,`` in a cell becomes ``;``) or of a
    ``markdown`` one (header, ``---`` row, one line per row), lazily."""
    start, sep, end = _LAYOUT[fmt]
    yield start + sep.join(header) + end
    if fmt == "markdown":
        yield "|" + "|".join("---" for _ in header) + "|"
    cell = (lambda c: str(c).replace(",", ";")) if fmt == "csv" else str
    for row in rows:
        yield start + sep.join(map(cell, row)) + end


# ---------------------------------------------------------------- verify


def verify_suite(
    widths: Sequence[int], machine: Machine | None = None
) -> tuple[bool, list[tuple[str, str, int, str, str]]]:
    """Oracle equivalence, exact step laws and lower-bound audits.

    Returns ``(ok, rows)`` with one ``(check, program, width, status,
    detail)`` row per check; failures carry a witness input in the detail.
    Width 1 only admits the single-bit identity check (the input already is
    the count).  Each (program, input) pair runs once; its row feeds every
    check, though on the stock machine only failing lanes become rows
    (:func:`fold_slices`).  ``ok`` is whether all rows pass.
    """
    rows: list[tuple[str, str, int, str, str]] = []

    def record(check: str, program: str, width: int, failures: list[str], detail: str) -> None:
        if failures:
            rows.append((check, program, width, "FAIL", "; ".join(failures[:3])))
        else:
            rows.append((check, program, width, "PASS", detail))

    for width in widths:
        if width == 1:
            failures = [f"x={value}" for value, _, out, _, _, _
                        in measure(parse_program("OUT x"), 1, (0, 1), machine) if out != value]
            record("single-bit-identity", "OUT x", 1, failures, "input is its own count")
            continue

        for gen in shipped_programs(width):
            oracle_failures: list[str] = []
            law_failures: list[str] = []
            audit = LowerBoundCheck(gen.name, width)
            # every non-zero input of twobit costs exactly one inc/dec
            single_step = [] if gen.name == "twobit" else None
            predicted = gen.predicted_incdec
            law_ok = lambda nu, incdec: incdec == predicted(nu)
            step_ok = lambda nu, incdec: single_step is None or not nu or incdec == 1
            if machine is None:
                rows_in = fold_slices(audit, gen.program,
                                      lambda nu, incdec: law_ok(nu, incdec) and step_ok(nu, incdec))
            else:
                rows_in = measure(gen.program, width, range(1 << width), machine)
            for row in rows_in:
                value, nu, out, incdec, _, halt = row
                if not step_ok(nu, incdec):
                    single_step.append(f"x={value:02b} incdec {incdec} != 1")
                if not audit.add(row):
                    got = out if out is not None else halt.value
                    oracle_failures.append(f"x={value:0{width}b} expected {nu} got {got}")
                elif not law_ok(nu, incdec):
                    law_failures.append(f"x={value:0{width}b} incdec {incdec} != {predicted(nu)}")
            record("oracle-equivalence", gen.name, width, oracle_failures,
                   f"all {1 << width} inputs match the bit-count oracle")
            record("step-law", gen.name, width, law_failures,
                   "measured inc/dec equals the closed form on every input")
            audit_failures = [f"x={f.input_bits} {f.kind}: {f.detail}" for f in audit.failures]
            ratio = "n/a" if audit.min_ratio is None else f"{audit.min_ratio:.3f}"
            record("lower-bound-audit", gen.name, width, audit_failures,
                   f"tightest incdec/bound {ratio}, worst incdec {audit.max_incdec}")
            if single_step is not None:
                record("twobit-single-step", "twobit", 2, single_step,
                       "every non-zero input costs exactly one inc/dec")

    return all(row[3] == "PASS" for row in rows), rows


def cmd_verify(args: argparse.Namespace) -> int:
    widths = [args.width] if args.width is not None else range(2, AUDIT_WIDTH_MAX + 1)
    for width in widths:
        if not 1 <= width <= AUDIT_WIDTH_MAX:
            raise SystemExit(_usage_error(f"verify supports widths 1..{AUDIT_WIDTH_MAX}"))
    ok, rows = verify_suite(widths)
    lines = [f"{status} {check} {program} n={width}: {detail}"
             for check, program, width, status, detail in rows]
    lines.append(f"{'OK' if ok else 'FAILED'}: {sum(r[3] == 'PASS' for r in rows)}"
                 f"/{len(rows)} checks passed")
    print("\n".join(lines))
    if args.out:
        _emit(_table(("check", "program", "width", "status", "detail"), rows, "csv"), args.out)
    return 0 if ok else 1


# ---------------------------------------------------------------- sweep


def cmd_sweep(args: argparse.Namespace) -> int:
    """One row per input, or per seeded sample past width 20; output -1 for a
    run that did not halt with OUT."""
    start, sep, end = _LAYOUT[args.format]
    width = args.width
    try:
        gen = _ALGOS[args.algo](width)
    except ValueError as exc:  # a generator's own rule, such as twobit's width
        raise SystemExit(_usage_error(str(exc)))
    if width <= EXHAUSTIVE_WIDTH_LIMIT:
        values = range(1 << width)
    else:
        draw = random.Random(args.seed).getrandbits  # draw for draw rng.randrange(1 << width)
        values = [_below(draw, 1 << width) for _ in range(SAMPLED_SWEEP_SIZE)]
    chunks = render_lanes(gen.program, width, values, lambda nu, out, *steps: (
        sep + sep.join(map(str, (nu, -1 if out is None else out, *steps))) + end), args.budget)
    seen = stuck = 0  # rows, and rows that did not halt, counted as they stream
    bits = f"0{width}b"
    def lines(values: Sequence[int], tails: list[str], cut: int) -> list[str]:
        nonlocal seen, stuck
        seen += len(values)
        stuck += cut
        return [start + format(value, bits) + tail for value, tail in zip(values, tails)]

    header = ("input_bits", "nu", "output", "incdec_steps", "total_steps")
    body = chain.from_iterable(starmap(lines, chunks))
    _emit(chain(_table(header, (), args.format), body), args.out)
    if stuck:
        print(f"{stuck} of {seen} runs did not halt within the budget (output=-1)",
              file=sys.stderr)
        return 1
    return 0


# ---------------------------------------------------------------- fuzz


def cmd_fuzz(args: argparse.Namespace) -> int:
    if args.width_max < 2:
        return _usage_error("fuzz needs --width-max >= 2: the flip probes need two-bit words")
    invariant = fuzz_invariant(
        args.seed,
        args.count,
        width_range=(args.width_min, args.width_max),
        max_len=args.max_len,
        budget=args.budget,
    )
    divergence = fuzz_divergence(
        args.seed,
        max(1, args.count // 10),
        width_range=(max(2, args.width_min), args.width_max),
        max_len=args.max_len,
        budget=args.budget,
    )
    print(
        f"prefix-invariant fuzz: {invariant.runs} runs, "
        f"{invariant.budget_exhausted} budget-exhausted, "
        f"{invariant.violation_count} violations"
    )
    print(
        f"msb-flip divergence fuzz: {divergence.runs} runs, "
        f"{divergence.diverged} diverged, "
        f"{divergence.violation_count} early divergences"
    )
    if args.out:
        rows = [("invariant", run_idx, p.n, p.e, p.m, p.d,
                 f"i={v.incdec_index} reg={v.register} prefix={v.prefix}")
                for run_idx, p, violations in invariant.violating_runs for v in violations]
        rows += [("divergence", run_idx, probe.params.n, probe.params.e, probe.params.m,
                  probe.params.d, f"incdec={probe.divergence.incdec_index} bound={probe.bound}")
                 for run_idx, probe in divergence.violating_probes]
        _emit(_table(("kind", "run", "width", "e", "m", "d", "detail"), rows, "csv"), args.out)
    return 0 if invariant.ok and divergence.ok else 1


# ---------------------------------------------------------------- gen


def cmd_gen(args: argparse.Namespace) -> int:
    if args.algo == "constant":
        if args.target is None:
            raise SystemExit(_usage_error("--algo constant requires --target"))
        if args.target < 0:
            raise SystemExit(_usage_error("--target must be >= 0"))
        width = args.width if args.width is not None else min(
            MAX_WIDTH, max(1, args.target.bit_length() + 1))
        if args.target >= 1 << width:
            raise SystemExit(_usage_error(f"--target {args.target} does not fit in {width} bits"))
        gen = constant_program(args.target, width)
    else:
        if args.target is not None:
            raise SystemExit(_usage_error("--target only applies to --algo constant"))
        width = args.width if args.width is not None else (2 if args.algo == "twobit" else 8)
        try:
            gen = _ALGOS[args.algo](width)
        except ValueError as exc:
            raise SystemExit(_usage_error(str(exc)))
    _emit(gen.text.splitlines(), args.out)
    return 0


# ---------------------------------------------------------------- table


# Hand-counted word operations in the reference routines (see programs.py).
_BROADWORD_OPS = 18
_HAKMEM_OPS = 10
_TABLE_WIDTHS = (8, 12)


def cmd_table(args: argparse.Namespace) -> int:
    restricted = "; ".join(
        f"{algo} worst inc/dec " + ", ".join(
            f"n={width}: {lower_bound_audit(_ALGOS[algo](width)).max_incdec}"
            for width in _TABLE_WIDTHS)
        for algo in ("wegner", "dense", "combined")
    )
    rows = [
        (
            "increment, decrement, AND, OR, constant 0",
            "min(nu, n-nu)",
            "min(nu, n-nu+log n)",
            restricted,
        ),
        ("addition, AND, OR", "log n / log log n", "log^2 n", "-"),
        (
            "addition, shift, AND, OR",
            "log n / log log n",
            "log n",
            f"broadword fold: {_BROADWORD_OPS} word ops at width 64",
        ),
        ("addition, shift, AND, OR, multiplication", "-", "log* n", "-"),
        (
            "addition, shift, AND, OR, division",
            "-",
            "log log n",
            f"octal/mod-63 routine: {_HAKMEM_OPS} word ops at width 32",
        ),
    ]
    header = ("operation_set", "lower_bound", "upper_bound", "measured")
    _emit(_table(header, rows, args.format), args.out)
    return 0


# ---------------------------------------------------------------- plumbing


def _usage_error(message: str) -> int:
    print(f"error: {message}", file=sys.stderr)
    return 2


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="countones",
        description="population-count laboratory for a minimal register machine",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("verify", help="exhaustive correctness, step-law and bound checks")
    p.add_argument("--width", type=int,
                   help=f"check a single width (default: 2..{AUDIT_WIDTH_MAX})")
    p.add_argument("--out", help="also write a CSV summary to this path")
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("sweep", help="per-input measurements for one program")
    p.add_argument("--width", type=int, required=True, choices=range(1, MAX_WIDTH + 1),
                   metavar="N")
    p.add_argument("--algo", required=True, choices=sorted(_ALGOS))
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--budget", type=int, default=DEFAULT_BUDGET)
    p.add_argument("--format", choices=("csv", "markdown"), default="csv")
    p.add_argument("--out")
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser("fuzz", help="random-program invariant and divergence fuzzing")
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--count", type=int, default=10_000)
    p.add_argument("--budget", type=int, default=FUZZ_BUDGET)
    p.add_argument("--max-len", type=int, default=24)
    p.add_argument("--width-min", type=int, default=4)
    p.add_argument("--width-max", type=int, default=16)
    p.add_argument("--out", help="CSV of violations (header only when clean)")
    p.set_defaults(func=cmd_fuzz)

    p = sub.add_parser("gen", help="emit a generated program as instruction text")
    p.add_argument("--algo", required=True, choices=sorted(_ALGOS) + ["constant"])
    p.add_argument("--width", type=int, choices=range(1, MAX_WIDTH + 1), metavar="N")
    p.add_argument("--target", type=int, help="constant to build (--algo constant)")
    p.add_argument("--out")
    p.set_defaults(func=cmd_gen)

    p = sub.add_parser("table", help="operation-set bounds table with measurements")
    p.add_argument("--format", choices=("csv", "markdown"), default="markdown")
    p.add_argument("--out")
    p.set_defaults(func=cmd_table)

    return parser


@cache
def _parser() -> argparse.ArgumentParser:
    """One parser per process: parsing leaves it as it was, and building one costs milliseconds."""
    return build_parser()


def main(argv: Sequence[str] | None = None) -> int:
    args = _parser().parse_args(argv)
    # a random program has at least two instructions
    for attr, least in (("count", 1), ("budget", 1), ("max_len", 2)):
        value = getattr(args, attr, None)
        if value is not None and value < least:
            return _usage_error(f"--{attr.replace('_', '-')} must be >= {least}")
    if getattr(args, "width_min", None) is not None:
        if not 1 <= args.width_min <= args.width_max <= MAX_WIDTH:
            return _usage_error("need 1 <= width-min <= width-max <= 64")
    try:
        code = args.func(args)
        sys.stdout.flush()  # so that a closed pipe shows here, not at exit
    except BrokenPipeError:  # as Python's signal docs advise: exit's own flush goes to devnull
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1
    return code


if __name__ == "__main__":
    sys.exit(main())
