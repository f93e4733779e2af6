"""Counting ones on a minimal register machine.

A laboratory for population count under a deliberately poor instruction set:
unsigned fixed-width registers, increment, decrement, AND, OR, assignment,
comparisons, and zero as the only constant.  The package provides

* fixed-width words and the naive bit-count oracle (:mod:`.words`),
* the instruction set as one opcode table, with a parser and a
  step-counting interpreter for it (:mod:`.vm`),
* generators emitting the counting algorithms as machine programs with
  exact inc/dec step laws, plus classic host-level reference popcounts
  (:mod:`.programs`),
* adversary inputs, the prefix invariant, MSB-flip probes, the shared
  measurement loop and exhaustive lower-bound audits (:mod:`.adversary`),
* random-program fuzzing of the invariant and the divergence bound
  (:mod:`.fuzzing`),
* a command-line front end (:mod:`.cli`, not imported here), installed as ``countones``.

The top level exports exactly each module's ``__all__``.
"""

from .adversary import *
from .fuzzing import *
from .programs import *
from .vm import *
from .words import *

__version__ = "0.1.0"

__all__ = [*adversary.__all__, *fuzzing.__all__, *programs.__all__, *vm.__all__, *words.__all__]
