#!/usr/bin/env python3
"""The lower bound, audited: counting needs min(nu, n - nu) inc/dec steps.

Two empirical angles on it.  First the flip probe: on inputs e (01)^m e^...,
flip the most significant bit and run the same program on both words --
the executed instruction streams cannot part ways before min(nu, n - nu)
inc/dec steps, because until then every register prefix is too coarse for
any branch to tell the two inputs apart.  Second the exhaustive audit:
every shipped counter, on every input of every width up to 12, performs at
least the bound (and exactly one step at width two, where one decrement is
both enough and necessary).
"""

from countones import (
    AdversaryParams,
    execute,
    lower_bound_audit,
    msb_flip_probe,
    twobit_program,
    wegner_program,
)

params = AdversaryParams(e=0, m=2, d=0, n=6)
probe = msb_flip_probe(wegner_program(6).program, params)
bits = f"0{params.n}b"
print(f"probe wegner on {format(probe.x, bits)} vs {format(probe.x_flipped, bits)}:")
print(f"  nu={probe.nu}, bound={probe.bound}")
print(f"  first divergence: executed step {probe.divergence.step_index}, "
      f"after {probe.divergence.incdec_index} inc/dec steps")
print(f"  bound respected: {probe.bound_holds}")

print("\nexhaustive audits (tightest measured/bound ratio, worst inc/dec):")
for width in (4, 8, 12):
    report = lower_bound_audit(wegner_program(width))  # audits at the program's own width
    print(f"  {report.program} n={report.width}: ok={report.ok} "
          f"ratio={report.min_ratio} worst={report.max_incdec}")

print("\nwidth two, where the floor is exactly one decrement:")
g = twobit_program()
for value in range(4):
    res = execute(g.program, value, 2)
    print(f"  x={value:02b} -> {res.output} "
          f"({res.incdec_steps} inc/dec)")
