"""Fixed-width unsigned machine words and the naive bit-count oracle.

The value domain everything else in this package builds on: unsigned
integers of an explicit bit width between 1 and 64, reduced modulo
``2**width``.  The machine's operations on them (wrapping INC and DEC, AND,
OR) are defined once, in :data:`countones.vm.OPCODES`; shifts, complement
and wider arithmetic are deliberately absent from the model (the host-level
popcounts in :mod:`countones.programs` use them; nothing in the package
calls those, see ROADMAP item 14).

Words are immutable, so they can be shared freely between concurrent
executions.  :class:`_Frozen` makes them so, as it does the package's other
records kept in slots.
"""

from __future__ import annotations

from operator import attrgetter

MAX_WIDTH = 64

__all__ = [
    "MAX_WIDTH",
    "Word",
    "popcount_naive",
]


class _Frozen:
    """Base of the package's immutable records kept in slots: those that check
    or derive a field as they are built, and :class:`~countones.vm.Instruction`,
    which the executors read at every step.  (The other frozen records are
    ``namedtuple``s.)  The slots are set once by ``__init__`` with
    ``object.__setattr__``; none can be assigned or deleted after that.  The
    fields are the slots whose names do not start with ``_``: records of one
    class compare and hash by their fields, in ``__slots__`` order, and show
    them in their ``repr``.  A slot named ``_...`` holds what the record
    derives from its fields for the package's own use."""

    __slots__ = ()

    def __init_subclass__(cls) -> None:
        cls._fields = tuple(name for name in cls.__slots__ if name[0] != "_")
        cls._key = attrgetter(*cls._fields)

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._key(self) == self._key(other)

    def __hash__(self) -> int:
        return hash(self._key(self))

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{type(self).__name__}({fields})"


class Word(_Frozen):
    """An unsigned ``width``-bit value; ``value`` is reduced mod ``2**width``."""

    __slots__ = ("width", "value")
    width: int
    value: int

    def __init__(self, width: int, value: int) -> None:
        if not 1 <= width <= MAX_WIDTH:
            raise ValueError(f"width must be 1..{MAX_WIDTH}, got {width}")
        object.__setattr__(self, "width", width)
        object.__setattr__(self, "value", value & ((1 << width) - 1))

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
