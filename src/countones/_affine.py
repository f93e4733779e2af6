"""Exact jumps over affine loops, for :meth:`countones.vm.Machine.run` and
the flip probe's pair of lanes (:func:`countones.adversary.msb_flip_probe`).

The machine counts only with INC and DEC, so a loop that never repeats a
state is mostly a counter loop: each pass of it adds the same amount to
every register.  :func:`prove` proves that of the loop a run is in, so that
its caller can skip whole passes at once.

The proof.  The run stands at ``pc`` with registers ``a``, and was at the
same ``pc`` ``q`` steps before with registers ``a - b``.  One pass is run
symbolically from here, with register ``r`` written as ``a[r] + b[r]*k``
(mod ``2**n``) at pass ``k``: INC and DEC shift ``a``, MOV copies a form,
ZERO gives ``(0, 0)``, and AND and OR are taken only where their result is
a form again (two constants, one register with itself, or the constant 0
or all-ones on one side).  If the pass takes exactly ``q`` steps, comes
back to ``pc`` only at its end and leaves every register at ``a + b*(k+1)``,
then by induction every pass does so until one of its branches goes the
other way.  That pass is solved for exactly: BZ, BNZ and BEQ flip at the
least ``k`` with ``a + b*k = 0`` (mod ``2**n``), a linear congruence; BLT
is held to the passes before either operand wraps, read with ``b`` signed,
and before the two operands cross.

The jump.  ``k`` passes add ``k*q`` steps, ``k`` times the pass's inc/dec
steps and ``b*k`` to each register.  The states inside the jumped passes
are never seen, so a caller's Brent search starts afresh after a jump.  A
repeat among them changes no result: a deterministic run from the state
after the jump is the stepped run from there on.  The flip probe's two lanes
jump together only where each lane's proof holds and both take one path of
pcs in the pass: each lane keeps its pass-0 branch decisions for every pass
of the jump, so the pair takes one path through all of them and parts in
none (:func:`jump_pair`).
"""

from __future__ import annotations

from .vm import _transpose

NEVER = float("inf")  # the pass at which a branch that cannot change flips


def prove(instructions, mask, regs, last_regs, pc, q, passes):
    """Prove that the loop through ``pc`` is affine: ``regs`` stand at ``pc``,
    and stood there as ``last_regs`` ``q`` steps before.  Returns ``None``
    unless at least two passes, and at most ``passes``, keep the path of the
    first; otherwise ``(passes, delta, slopes, path)``: how many passes do,
    the inc/dec steps of one pass, each register's change per pass (a dict
    in the order of ``regs``) and the pcs of the pass, in order."""
    if passes < 2:
        return None
    a = dict(regs)
    b = {name: (value - last_regs[name]) & mask for name, value in regs.items()}
    b0 = tuple(b.values())
    path = []
    size = len(instructions)
    p, delta = pc, 0
    while len(path) < q:
        if p >= size or p == pc and path:
            return None
        path.append(p)
        ins = instructions[p]
        op, r, s = ins.op, ins.a, ins.b
        p += 1
        if op == "INC" or op == "DEC":
            a[r] = (a[r] + (1 if op == "INC" else -1)) & mask
            delta += 1
        elif op == "MOV":
            a[r], b[r] = a[s], b[s]
        elif op == "ZERO":
            a[r] = b[r] = 0
        elif op == "AND" or op == "OR":
            if r != s:
                form = _bitwise(op == "AND", (a[r], b[r]), (a[s], b[s]), mask)
                if form is None:
                    return None
                a[r], b[r] = form
        elif op == "JMP":
            p = ins.target
        elif op == "OUT":
            return None
        else:
            taken, flips = _branch(op, a, b, r, s, mask)
            passes = min(passes, flips)
            if passes < 2:
                return None
            if taken:
                p = ins.target
    if p != pc or tuple(b.values()) != b0 or any(
            (a[name] - x - y) & mask for (name, x), y in zip(regs.items(), b0)):
        return None
    return passes, delta, b, path


def jump_pair(instructions, regs, saved_regs, pc, q, steps, width):
    """Jump the flip probe's two lanes, lanes 0 and 1 of the slices ``regs``,
    over whole passes of their loop, as :func:`prove` shows it for each lane
    from the slices ``saved_regs`` of ``q`` steps before, in at most
    ``steps`` steps.  Returns ``None`` and leaves ``regs`` alone unless both
    proofs hold with one path of pcs; otherwise writes both lanes back as
    fresh slices and returns the steps and inc/dec steps jumped."""
    mask = (1 << width) - 1
    now = {name: _transpose(s, 2) for name, s in regs.items()}
    before = {name: _transpose(s, 2) for name, s in saved_regs.items()}
    proofs = [prove(instructions, mask, {name: v[lane] for name, v in now.items()},
                    {name: v[lane] for name, v in before.items()}, pc, q, steps // q)
              for lane in (0, 1)]
    if None in proofs or proofs[0][3] != proofs[1][3]:
        return None
    passes = min(proofs[0][0], proofs[1][0])
    for name, (x0, x1) in now.items():
        regs[name] = _transpose(((x0 + proofs[0][2][name] * passes) & mask,
                                 (x1 + proofs[1][2][name] * passes) & mask), width)
    return passes * q, passes * proofs[0][1]


def _bitwise(is_and, x, y, mask):
    """The form of ``x AND y`` (or ``x OR y``) for forms ``x`` and ``y`` of
    different registers, or ``None`` where it is not one."""
    (ax, bx), (ay, by) = x, y
    if not bx and not by:
        return (ax & ay if is_and else ax | ay), 0
    absorbing = 0 if is_and else mask
    for (const, slope), other in ((x, y), (y, x)):
        if not slope and (const == 0 or const == mask):
            return (const, 0) if const == absorbing else other
    return None


def _branch(op, a, b, r, s, mask):
    """Whether branch ``op`` on the forms ``a + b*k`` is taken at ``k = 0``,
    and the least ``k >= 1`` at which that may change."""
    if op == "BLT":
        x, y = a[r], a[s]
        bx, by = _signed(b[r], mask), _signed(b[s], mask)
        gap, closing = y - x, by - bx
        flips = min(_span(x, bx, mask), _span(y, by, mask))
        if gap > 0 and closing < 0:
            flips = min(flips, -(gap // closing))
        elif gap <= 0 and closing > 0:
            flips = min(flips, -gap // closing + 1)
        return gap > 0, flips
    if op == "BEQ":
        x, y = (a[r] - a[s]) & mask, (b[r] - b[s]) & mask
    else:
        x, y = a[r], b[r]
    taken = (x == 0) == (op != "BNZ")
    if not y:
        return taken, NEVER
    if not x:
        return taken, 1
    return taken, _solve(y, -x, mask)


def _signed(slope, mask):
    return slope - mask - 1 if slope > mask >> 1 else slope


def _span(x, slope, mask):
    """The passes before ``x + slope*k`` leaves ``0..mask``, ``slope`` signed."""
    if slope > 0:
        return (mask - x) // slope + 1
    if slope < 0:
        return x // -slope + 1
    return NEVER


def _solve(slope, c, mask):
    """The least ``k >= 1`` with ``slope*k = c`` (mod ``mask + 1``), for ``c``
    not 0 (mod ``mask + 1``); ``NEVER`` if there is none."""
    slope, c = slope & mask, c & mask
    t = (slope & -slope).bit_length() - 1
    if c & ((1 << t) - 1):
        return NEVER
    m = (mask + 1) >> t
    return (c >> t) * pow(slope >> t, -1, m) % m
