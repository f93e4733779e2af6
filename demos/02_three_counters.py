#!/usr/bin/env python3
"""The three counting programs and their exact step laws.

wegner pays two inc/dec per *one* in the input; dense pays a logarithmic
setup plus two per *zero*; combined interleaves them and lets the first
finisher answer.  None of this is asymptotic hand-waving here: each
generator ships a closed form that the machine's meter matches exactly,
input by input.
"""

from countones import (
    Word,
    combined_program,
    dense_program,
    execute,
    popcount_naive,
    wegner_program,
)

N = 12
programs = [wegner_program(N), dense_program(N), combined_program(N)]

samples = {
    "sparse      ": Word(N, 0b000000100000),
    "half        ": Word(N, 0b010101010101),
    "dense       ": Word(N, 0b111111110111),
    "all ones    ": Word(N, (1 << N) - 1),
    "empty       ": Word(N, 0),
}

print(f"width {N}, measured inc/dec per program (law value in parentheses)\n")
header = "input         bits           nu   " + "   ".join(f"{g.name:>10}" for g in programs)
print(header)
for label, word in samples.items():
    nu = popcount_naive(word)
    cells = []
    for g in programs:
        measured = execute(g.program, word).incdec_steps
        law = g.predicted_incdec(nu)
        assert measured == law
        cells.append(f"{measured:>5} ({law:>3})")
    print(f"{label}  {word.to_bits()}  {nu:>2}   " + "  ".join(cells))

print("\ncombined tracks the cheaper branch within a constant:")
for nu_target in (0, 1, 6, 11, 12):
    value = (1 << nu_target) - 1
    word = Word(N, value)
    nu = popcount_naive(word)
    w, d, c = (execute(g.program, word).incdec_steps for g in programs)
    print(f"  nu={nu:>2}: wegner {w:>3}  dense {d:>3}  combined {c:>3}"
          f"  (2*min+2 = {2 * min(w, d) + 2})")
