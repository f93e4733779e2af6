"""Command-line front end: verify, sweep, fuzz, gen, table.

Exit codes: 0 success, 1 assertion/check failure, 2 usage error.

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
turns a ``,`` inside a cell into ``;`` so that each row keeps its columns.

All output is deterministic for a given seed: identical invocations emit
byte-identical bytes.
"""

from __future__ import annotations

import argparse
import random
import sys
from typing import Callable, Iterable, Sequence

from .adversary import AUDIT_WIDTH_MAX, LowerBoundCheck, lower_bound_audit, measure
from .fuzzing import FUZZ_BUDGET, fuzz_divergence, fuzz_invariant
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

__all__ = ["main", "build_parser", "verify_suite", "sweep_rows", "table_rows"]


def _twobit(width: int) -> GeneratedProgram:
    if width != 2:
        raise ValueError("twobit is defined for width 2 only")
    return twobit_program()


_ALGOS: dict[str, Callable[[int], GeneratedProgram]] = {
    "wegner": wegner_program,
    "dense": dense_program,
    "combined": combined_program,
    "twobit": _twobit,
}

SAMPLED_SWEEP_SIZE = 4096  # rows when the width is too wide to enumerate
EXHAUSTIVE_WIDTH_LIMIT = 20


def _emit(lines: list[str], out_path: str | None) -> None:
    data = "\n".join(lines) + "\n"
    if out_path is None:
        sys.stdout.write(data)
    else:
        try:
            with open(out_path, "w", newline="") as fh:
                fh.write(data)
        except OSError as exc:
            raise SystemExit(_usage_error(f"cannot write --out {out_path}: {exc.strerror}"))


def _table(header: Sequence[str], rows: Iterable[Sequence[object]], fmt: str) -> list[str]:
    """The lines of a ``csv`` table (``,`` in a cell becomes ``;``) or of a
    ``markdown`` one (header, ``---`` row, one line per row)."""
    if fmt == "csv":
        return [",".join(header)] + [
            ",".join(str(cell).replace(",", ";") for cell in row) for row in rows]
    return ["| " + " | ".join(header) + " |", "|" + "|".join("---" for _ in header) + "|"] + [
        "| " + " | ".join(str(cell) for cell in row) + " |" for row in rows]


# ---------------------------------------------------------------- verify


def verify_suite(
    widths: Sequence[int], machine: Machine | None = None
) -> tuple[bool, list[tuple[str, str, int, str, str]]]:
    """Oracle equivalence, exact step laws and lower-bound audits.

    Returns ``(ok, rows)`` with one ``(check, program, width, status,
    detail)`` row per check; failures carry a witness input in the detail.
    Width 1 only admits the single-bit identity check (the input already is
    the count).  Each (program, input) pair runs once, and its
    :func:`measure` row feeds every check; ``ok`` is whether all rows pass.
    """
    machine = machine or Machine()
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
            for row in measure(gen.program, width, range(1 << width), machine):
                value, nu, out, incdec, _, halt = row
                if single_step is not None and value and incdec != 1:
                    single_step.append(f"x={value:02b} incdec {incdec} != 1")
                if not audit.add(row):
                    got = out if out is not None else halt.value
                    oracle_failures.append(f"x={value:0{width}b} expected {nu} got {got}")
                    continue
                want = predicted(nu)
                if incdec != want:
                    law_failures.append(f"x={value:0{width}b} incdec {incdec} != {want}")
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


def sweep_rows(
    width: int, algo: str, seed: int = 0, budget: int = DEFAULT_BUDGET
) -> list[tuple[str, int, int, int, int]]:
    """(input_bits, nu, output, incdec_steps, total_steps) per input.

    Exhaustive up to width 20; wider words get ``SAMPLED_SWEEP_SIZE`` seeded
    samples.
    """
    gen = _ALGOS[algo](width)
    if width <= EXHAUSTIVE_WIDTH_LIMIT:
        values = range(1 << width)
    else:
        rng = random.Random(seed)
        values = [rng.randrange(1 << width) for _ in range(SAMPLED_SWEEP_SIZE)]
    return [
        (f"{value:0{width}b}", nu, -1 if out is None else out, incdec, total)
        for value, nu, out, incdec, total, _ in measure(gen.program, width, values, budget=budget)
    ]


def cmd_sweep(args: argparse.Namespace) -> int:
    try:
        rows = sweep_rows(args.width, args.algo, seed=args.seed, budget=args.budget)
    except ValueError as exc:  # a generator's own rule, such as twobit's width
        raise SystemExit(_usage_error(str(exc)))
    header = ("input_bits", "nu", "output", "incdec_steps", "total_steps")
    _emit(_table(header, rows, args.format), args.out)
    stuck = sum(row[2] == -1 for row in rows)
    if stuck:
        print(f"{stuck} of {len(rows)} runs did not halt within the budget (output=-1)",
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


def table_rows() -> list[tuple[str, str, str, str]]:
    """Bounds-vs-measurement table rows for the operation-set comparison."""
    restricted = "; ".join(
        f"{algo} worst inc/dec " + ", ".join(
            f"n={width}: {lower_bound_audit(_ALGOS[algo](width)).max_incdec}"
            for width in _TABLE_WIDTHS)
        for algo in ("wegner", "dense", "combined")
    )
    return [
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


def cmd_table(args: argparse.Namespace) -> int:
    header = ("operation_set", "lower_bound", "upper_bound", "measured")
    _emit(_table(header, table_rows(), args.format), args.out)
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


def main(argv: Sequence[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    # a random program has at least two instructions
    for attr, least in (("count", 1), ("budget", 1), ("max_len", 2)):
        value = getattr(args, attr, None)
        if value is not None and value < least:
            return _usage_error(f"--{attr.replace('_', '-')} must be >= {least}")
    if getattr(args, "width_min", None) is not None:
        if not 1 <= args.width_min <= args.width_max <= MAX_WIDTH:
            return _usage_error("need 1 <= width-min <= width-max <= 64")
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
