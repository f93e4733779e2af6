#!/usr/bin/env python3
"""A first look at the restricted machine.

Registers hold fixed-width unsigned words that wrap around; the instruction
set is increment, decrement, AND, OR, assignment, branches, and OUT.  The
only constant anywhere is zero.  Every executed instruction costs one step,
and INC/DEC are additionally counted on their own meter -- that second meter
is the whole point of the laboratory.
"""

from countones import Machine, Word, execute, parse_program

SOURCE = """\
; count the ones of x by clearing the lowest set bit per pass
loop: BZ x done     ; finished once x is empty
MOV t x
DEC t               ; t = x - 1
AND x t             ; deletes the right-most one of x
INC c
JMP loop
done: OUT c
"""

program = parse_program(SOURCE)
print(f"parsed {len(program)} instructions, registers {program.register_names}")

x = Word.from_bits("1011")
# an observer is shown every state of the run; this one keeps a copy of each
states = []
result = Machine().run(program, x, observer=lambda i, pc, regs: states.append((i, pc, dict(regs))))
print(f"input {x.to_bits()} -> output {result.output}")
print(f"steps: {result.total_steps} total, "
      f"{result.incdec_steps} inc/dec")

print("\nfirst few states (inc/dec meter, just-executed pc, registers):")
for i, pc, registers in states[:8]:
    print(f"  i={i}  pc={pc}  {registers}")

print("\nwraparound is load-bearing:")
print("  1111 + 1 ->", format(execute(parse_program("INC x\nOUT x"), Word(4, 0b1111)).output, "04b"))
print("  0000 - 1 ->", format(execute(parse_program("DEC x\nOUT x"), Word(4, 0)).output, "04b"))
