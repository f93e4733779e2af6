"""Exact jumps over affine loops, for :meth:`countones.vm.Machine.run`.

The machine counts only with INC and DEC, so a loop that never repeats a
state is mostly a counter loop: each pass of it adds the same amount to
every register.  :func:`jump` proves that of the loop a run is in, and then
skips whole passes at once.

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
steps and ``b*k`` to each register.  Brent's search in the machine must
end as it would have step by step, so each mark the jump crosses saves the
state at that mark, read off the forms, and the jump stops at the start
of the first pass in which a state equals the saved one (one congruence
per register, all moduli powers of two); the machine then finds that
repeat itself, at the same step.
"""

from __future__ import annotations

# The longest pass that is proved: each of its steps keeps one snapshot of the forms.
MAX_PERIOD = 4096
NEVER = float("inf")  # the pass at which a branch that cannot change flips


def jump(instructions, mask, budget, regs, pc, total, incdec, last, mark, saved):
    """Jump ``regs`` (at ``pc``, after ``total`` steps and ``incdec`` inc/dec
    steps) over whole passes of the loop it is in, if that loop is affine.

    ``last`` is ``(registers, total)`` at the previous visit to ``pc``;
    ``mark`` and ``saved``, ``(pc, registers, total, incdec)``, are the
    machine's Brent state.  Returns ``None`` and leaves ``regs`` alone unless
    at least two passes are jumped; otherwise updates ``regs`` in place and
    returns the new ``(total, incdec, mark, *saved)``.
    """
    last_regs, last_total = last
    q = total - last_total
    passes = (budget - total) // q
    if q > MAX_PERIOD or passes < 2:
        return None
    a = dict(regs)
    b = {name: (value - last_regs[name]) & mask for name, value in regs.items()}
    a0 = fa = tuple(a.values())
    b0 = fb = tuple(b.values())
    # per step of the pass: (pc, inc/dec steps so far, forms before the step);
    # steps that write no form share the tuples of the step before
    path = []
    size = len(instructions)
    p, delta = pc, 0
    while len(path) < q:
        if p >= size or p == pc and path:
            return None
        if fa is None:
            fa = tuple(a.values())
        if fb is None:
            fb = tuple(b.values())
        path.append((p, delta, fa, fb))
        ins = instructions[p]
        op, r, s = ins.op, ins.a, ins.b
        p += 1
        if op == "INC" or op == "DEC":
            a[r] = (a[r] + (1 if op == "INC" else -1)) & mask
            delta += 1
            fa = None
        elif op == "MOV":
            a[r], b[r] = a[s], b[s]
            fa = fb = None
        elif op == "ZERO":
            a[r] = b[r] = 0
            fa = fb = None
        elif op == "AND" or op == "OR":
            if r != s:
                form = _bitwise(op == "AND", (a[r], b[r]), (a[s], b[s]), mask)
                if form is None:
                    return None
                a[r], b[r] = form
                fa = fb = None
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
            (x - y - z) & mask for x, y, z in zip(a.values(), a0, b0)):
        return None

    # Brent's search over the passes: states after `lo` compare with the saved
    # one until the mark, where the state is saved; `saves` are those crossed
    end = total + passes * q
    lo, at, saves = total, mark, []
    spc, sregs = saved[0], tuple(saved[1].values())
    while True:
        hit = _first_repeat(path, spc, sregs, lo, min(at, end), total, q, mask)
        if hit is not None:
            end = hit - (hit - total) % q
            break
        if at >= end:
            break
        i, s = divmod(at - total, q)
        spc, d, forms, slopes = path[s]
        sregs = [(x + y * i) & mask for x, y in zip(forms, slopes)]
        saves.append((at, spc, sregs, incdec + i * delta + d))
        lo, at = at, min(2 * at, budget)
    passes = (end - total) // q
    if passes < 2:
        return None
    saves = [save for save in saves if save[0] < end]
    if saves:
        at, spc, sregs, sincdec = saves[-1]
        saved = spc, dict(zip(regs, sregs)), at, sincdec
        mark = min(2 * at, budget)
    for name, x, y in zip(regs, a0, b0):
        regs[name] = (x + y * passes) & mask
    return (end, incdec + passes * delta, mark, *saved)


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
    return taken, _solve(y, -x, mask)[0] or NEVER


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
    """The ``k`` with ``slope*k = c`` (mod ``mask + 1``), as ``(k0, e)``: those
    with ``k = k0`` (mod ``2**e``), ``k0 < 2**e``; ``(None, 0)`` if there are none."""
    slope, c = slope & mask, c & mask
    if not slope:
        return (None, 0) if c else (0, 0)
    t = (slope & -slope).bit_length() - 1
    if c & ((1 << t) - 1):
        return None, 0
    m = (mask + 1) >> t
    return (c >> t) * pow(slope >> t, -1, m) % m, m.bit_length() - 1


def _first_repeat(path, spc, sregs, lo, hi, total, q, mask):
    """The first step count in ``lo + 1 .. hi - 1`` at which the jumped run is
    at ``(spc, sregs)``, or ``None``; the run is at offset ``s`` of pass ``i``
    after ``total + i*q + s`` steps."""
    first = hi
    for s, (p, _, forms, slopes) in enumerate(path):
        if p != spc:
            continue
        k = e = 0  # the passes that match every register so far: k (mod 2**e)
        for x, y, want in zip(forms, slopes, sregs):
            if not y:  # a constant matches in every pass or in none
                if x != want:
                    break
                continue
            k1, e1 = _solve(y, want - x, mask)
            if k1 is None or (k - k1) & ((1 << (e if e < e1 else e1)) - 1):
                break
            if e1 > e:
                k, e = k1, e1
        else:
            i = (lo - total - s) // q + 1
            if i < 0:
                i = 0
            at = total + (i + (k - i) % (1 << e)) * q + s
            if at < first:
                first = at
    return first if first < hi else None
