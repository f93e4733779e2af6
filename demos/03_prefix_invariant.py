#!/usr/bin/env python3
"""Why adversary inputs are hard: the shrinking prefix invariant.

Feed any program a word of the form e (01)^m d^(n-2m-1) and watch its
registers: after i inc/dec steps, the top k_i bits of every register are
all-zeros, all-ones, or a copy of the input's own prefix, where k_0 = n and
k_i = 2*(m - i) + 1.  AND/OR/MOV can shuffle those three shapes around but
never escape them; each inc/dec chews at most two bits off the protected
prefix.  A broken interpreter, on the other hand, gets caught immediately.
"""

from countones import (
    AdversaryParams,
    KSchedule,
    Machine,
    PrefixInvariantCheck,
    adversary_input,
    fuzz_invariant,
    parse_program,
    wegner_program,
)

params = AdversaryParams(e=0, m=2, d=0, n=6)
x = adversary_input(params)
sched = KSchedule(params.n, params.m)
print(f"adversary input: {x.to_bits()}  (e={params.e}, m={params.m}, d={params.d})")
print("protected prefix lengths:",
      {i: sched.k_value(i) for i in range(params.m + 2)})

# the checker watches the run as an observer and lets go once i > m
check = PrefixInvariantCheck(params)
result = Machine().run(wegner_program(params.n).program, x, observer=check.observe)
print(f"\nwegner run: {result.total_steps + 1} states, "
      f"{check.checked} checked, violations: {len(check.violations)}")

print("\nfuzzing 2000 random programs on random adversary words:")
fuzz = fuzz_invariant(seed=1, program_count=2000)
print(f"  {fuzz.runs} runs, {fuzz.budget_exhausted} cut by budget, "
      f"{fuzz.violation_count} violations")


class NonWrappingInc(Machine):
    """Sabotage: INC that silently overflows the word."""

    def _inc(self, value, mask):
        return value + 1


broken = NonWrappingInc()
program = parse_program("DEC a\nINC a\nOUT a")
wide = AdversaryParams(e=0, m=5, d=0, n=12)
check = PrefixInvariantCheck(wide)
broken.run(program, adversary_input(wide), observer=check.observe)
print("\nthe same checker against a non-wrapping INC:")
for v in check.violations:
    print(f"  snapshot {v.snapshot_index} (i={v.incdec_index}): register "
          f"{v.register} has prefix {v.prefix}, allowed {v.allowed}")
