"""Kernels for the partition-side hot loops.

Raw part tuples in, raw part tuples out.  An arm sequence arrives as its
value table, indexed from t = 1, or as None for the horizontal formula.
High-level wrappers live in :mod:`affinecrystal.partition_crystal`.
"""

from functools import cmp_to_key

from .errors import HorizonExceedsTable


def horizontal_value(n, t):
    """A_t = ceil(n t / 2) - 1, the height-ordered arm sequence."""
    return (n * t + 1) // 2 - 1


def arm_value(t, n, table):
    """A_t from ``table``, or from the horizontal formula when it is None."""
    if table is None:
        return horizontal_value(n, t)
    if t > len(table):
        raise HorizonExceedsTable(t, len(table))
    return table[t - 1]


def corner_tokens(parts, i, n, table):
    """Residue-i corners as (row, col, side) with side +1 addable, -1 removable.

    Sorted so the list reads strictly decreasing in the arm-sequence order.
    """
    toks = []
    length = len(parts)
    for r in range(1, length + 1):
        p = parts[r - 1]
        if (r == 1 or parts[r - 2] > p) and (p + 1 - r) % n == i:
            toks.append((r, p + 1, 1))
        nxt = parts[r] if r < length else 0
        if p > nxt and (p - r) % n == i:
            toks.append((r, p, -1))
    if (1 - (length + 1)) % n == i:
        toks.append((length + 1, 1, 1))

    def cmp(a, b):
        # corners lie on distinct diagonals, so the content gap is a
        # nonzero multiple of n and the order is total
        t = ((a[1] - a[0]) - (b[1] - b[0])) // n
        if t > 0:
            gt = a[1] - b[1] > arm_value(t, n, table)
        else:
            gt = not (b[1] - a[1] > arm_value(-t, n, table))
        return -1 if gt else 1

    toks.sort(key=cmp_to_key(cmp))
    return toks


def _scan(toks):
    """(eps, phi, rightmost unmatched close, leftmost unmatched open)."""
    stack = []
    eps = 0
    last_close = -1
    for idx, tok in enumerate(toks):
        if tok[2] > 0:
            stack.append(idx)
        elif stack:
            stack.pop()
        else:
            eps += 1
            last_close = idx
    first_open = stack[0] if stack else -1
    return eps, len(stack), last_close, first_open


def _add(parts, r):
    if r == len(parts) + 1:
        return parts + (1,)
    return parts[: r - 1] + (parts[r - 1] + 1,) + parts[r:]


def _remove(parts, r):
    p = parts[r - 1] - 1
    if p == 0:
        return parts[: r - 1] + parts[r:]
    return parts[: r - 1] + (p,) + parts[r:]


def f_step(parts, i, n, table):
    """Add the box of the leftmost unmatched '(' or return None."""
    toks = corner_tokens(parts, i, n, table)
    _, _, _, first_open = _scan(toks)
    if first_open < 0:
        return None
    return _add(parts, toks[first_open][0])


def e_step(parts, i, n, table):
    """Remove the box of the rightmost unmatched ')' or return None."""
    toks = corner_tokens(parts, i, n, table)
    _, _, last_close, _ = _scan(toks)
    if last_close < 0:
        return None
    return _remove(parts, toks[last_close][0])


def unmatched_counts(parts, i, n, table):
    toks = corner_tokens(parts, i, n, table)
    eps, phi, _, _ = _scan(toks)
    return eps, phi


def is_regular(parts, n, table):
    """True when no box has hook n*t together with arm A_t."""
    if not parts:
        return True
    conj = [0] * parts[0]
    for p in parts:
        for c in range(p):
            conj[c] += 1
    for r, p in enumerate(parts, 1):
        for c in range(1, p + 1):
            h = p - c + conj[c - 1] - r + 1
            if h % n == 0 and p - c == arm_value(h // n, n, table):
                return False
    return True
