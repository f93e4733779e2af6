"""The machine's word length and the naive bit-count oracle.

An input of the machine is a plain int, reduced modulo ``2**width``; its
word length ``width`` (the paper's ``n``) travels beside it, between 1 and
:data:`MAX_WIDTH`, and :func:`_check_width` is the one check of that range.
The machine's operations on words (wrapping INC and DEC, AND, OR) are
defined once, in :data:`countones.vm.OPCODES`; shifts, complement and wider
arithmetic are deliberately absent from the model (the host-level popcounts
in :mod:`countones.programs` use them; nothing in the package calls those,
see ROADMAP item 14).
"""

MAX_WIDTH = 64

__all__ = [
    "MAX_WIDTH",
    "popcount_naive",
]


def _check_width(width: int) -> None:
    """Raise ``ValueError`` unless ``width`` is a word length, ``1..MAX_WIDTH``."""
    if not 1 <= width <= MAX_WIDTH:
        raise ValueError(f"width must be 1..{MAX_WIDTH}, got {width}")


def popcount_naive(value: int) -> int:
    """Count the one bits of ``value`` (>= 0) by inspecting every digit of ``bin(value)``.

    This is the ground-truth oracle: every counting program and every fancier
    popcount routine in this package is checked against it, so it must stay
    independent of the ``x AND (x-1)`` trick and of any table or fold.
    """
    return bin(value).count("1")
