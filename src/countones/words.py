"""Fixed-width unsigned machine words and the naive bit-count oracle.

The value domain everything else in this package builds on: unsigned
integers of an explicit bit width between 1 and 64, reduced modulo
``2**width``.  The machine's operations on them (wrapping INC and DEC, AND,
OR) are defined once, in :data:`countones.vm.OPCODES`; shifts, complement
and wider arithmetic are deliberately absent from the model (the reference
popcounts in :mod:`countones.programs` use them, but only as host-level
oracles).

Words are immutable, so they can be shared freely between concurrent
executions.
"""

from __future__ import annotations

from dataclasses import dataclass

MAX_WIDTH = 64

__all__ = [
    "MAX_WIDTH",
    "Word",
    "popcount_naive",
]


@dataclass(frozen=True, slots=True)
class Word:
    """An unsigned ``width``-bit value; ``value`` is reduced mod ``2**width``."""

    width: int
    value: int

    def __post_init__(self) -> None:
        if not 1 <= self.width <= MAX_WIDTH:
            raise ValueError(f"width must be 1..{MAX_WIDTH}, got {self.width}")
        object.__setattr__(self, "value", self.value & ((1 << self.width) - 1))

    @classmethod
    def from_bits(cls, bits: str) -> Word:
        """Parse an MSB-first bit string: ``"101111"`` -> width 6, value 47."""
        if not bits or set(bits) - {"0", "1"}:
            raise ValueError(f"not a bit string: {bits!r}")
        return cls(len(bits), int(bits, 2))

    def to_bits(self) -> str:
        """MSB-first bit string, zero-padded to the full width."""
        return format(self.value, f"0{self.width}b")


def popcount_naive(x: Word) -> int:
    """Count one bits by inspecting every digit of ``bin(x.value)``.

    This is the ground-truth oracle: every counting program and every fancier
    popcount routine in this package is checked against it, so it must stay
    independent of the ``x AND (x-1)`` trick and of any table or fold.
    """
    return bin(x.value).count("1")
