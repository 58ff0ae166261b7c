"""Kernels for the partition-side hot loops.

Raw part tuples in, raw part tuples out.  An arm sequence arrives as its
value table, indexed from t = 1, or as None for the horizontal formula.
:func:`arm_value` is the one reader of a table: every A_t goes through it,
and it alone raises HorizonExceedsTable past the table's end.
High-level wrappers live in :mod:`affinecrystal.arms`, the kernel's one caller.

A corner is the token ``(height, -row, side)``: the box (row, col) has
height row + col - 1, so col = height - row + 1, and ``side`` is OPEN for
an addable corner and CLOSE for a removable one.  No two corners share a
height and a row, and at one height a higher row means a larger content,
so the horizontal order, height then content descending, is the tokens'
own order reversed.
:func:`corners` reads every color's corners in one pass over the rows,
for :func:`f_children` and the ``Partition`` corner lists;
:func:`corner_tokens` reads one color's, for the single-color operators.
:func:`illegal_boxes` is the one scan of every box for the regularity rule.
"""

from functools import cmp_to_key
from itertools import accumulate

from .brackets import CLOSE, OPEN, scan
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


def precedes(r, c, r2, c2, n, table):
    """Whether the box (r2, c2) strictly precedes (r, c) in the arm order.

    The boxes lie on distinct diagonals of equal residue, so their content
    gap (c2 - r2) - (c - r) is n t for a nonzero t: for t > 0 the test is
    c2 - c > A_t, and the t < 0 case is the negation with the roles
    swapped, so the order is total.
    """
    t = ((c2 - r2) - (c - r)) // n
    if t > 0:
        return c2 - c > arm_value(t, n, table)
    return not (c - c2 > arm_value(-t, n, table))


def corner_tokens(parts, i, n, table):
    """Residue-i corners as (height, -row, side): OPEN addable, CLOSE removable.

    Sorted so the list reads strictly decreasing in the arm-sequence order.
    """
    toks = []
    length = len(parts)
    # its own row loop: corners(parts, n)[i] plus the sort took 19% longer
    for r in range(1, length + 1):
        p = parts[r - 1]
        if (r == 1 or parts[r - 2] > p) and (p + 1 - r) % n == i:
            toks.append((r + p, -r, OPEN))
        nxt = parts[r] if r < length else 0
        if p > nxt and (p - r) % n == i:
            toks.append((r + p - 1, -r, CLOSE))
    if (1 - (length + 1)) % n == i:
        toks.append((length + 1, -length - 1, OPEN))
    if table is None:
        toks.sort(reverse=True)
    else:
        toks.sort(key=_table_key(n, table))
    return toks


def _table_key(n, table):
    """Sort key that puts corner tokens decreasing in the order of ``table``."""

    def cmp(a, b):
        # col = height + 1 - row, and the token holds -row
        return -1 if precedes(-b[1], b[0] + 1 + b[1], -a[1], a[0] + 1 + a[1],
                              n, table) else 1

    return cmp_to_key(cmp)


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
    _, _, _, first_open = scan(toks)
    if first_open is None:
        return None
    return _add(parts, -toks[first_open][1])


def e_step(parts, i, n, table):
    """Remove the box of the rightmost unmatched ')' or return None."""
    toks = corner_tokens(parts, i, n, table)
    _, _, last_close, _ = scan(toks)
    if last_close is None:
        return None
    return _remove(parts, -toks[last_close][1])


def unmatched_counts(parts, i, n, table):
    return scan(corner_tokens(parts, i, n, table))[:2]


def corners(parts, n):
    """n lists of corner tokens (height, -row, side), one per residue, in row order.

    Row r gives its addable corner (OPEN) when the row above is longer,
    then its removable one (CLOSE) when the row below is shorter; the
    new-row corner below the last row comes last.
    """
    buckets = [[] for _ in range(n)]
    length = len(parts)
    above = None  # the row above r, None for the first row
    for r, p in enumerate(parts, 1):
        if above is None or above > p:
            buckets[(p + 1 - r) % n].append((r + p, -r, OPEN))
        if p > (parts[r] if r < length else 0):
            buckets[(p - r) % n].append((r + p - 1, -r, CLOSE))
        above = p
    buckets[-length % n].append((length + 1, -length - 1, OPEN))
    return buckets


def f_children(parts, n, table):
    """[f_0(parts), ..., f_(n-1)(parts)], None where f_i annihilates.

    The :func:`corners` buckets hold each color's tokens in the order
    :func:`corner_tokens` appends them; each bucket is sorted in color
    order, so a table too short for some comparison raises exactly as the
    per-color :func:`f_step` calls would.  The loop finds the leftmost
    unmatched ``(`` as :func:`brackets.scan` does, which stays the
    reference this is tested against.
    """
    key = None if table is None else _table_key(n, table)
    children = []
    for toks in corners(parts, n):
        if key is None:
            toks.sort(reverse=True)
        else:
            toks.sort(key=key)
        phi = 0
        for tok in toks:
            if tok[2] == OPEN:
                if not phi:
                    neg_row = tok[1]
                phi += 1
            elif phi:
                phi -= 1
        children.append(_add(parts, -neg_row) if phi else None)
    return children


def columns(parts):
    """Column lengths of ``parts``, a list: the transposed diagram."""
    conj = []
    for r in range(len(parts), 0, -1):
        conj.extend([r] * (parts[r - 1] - len(conj)))
    return conj


def illegal_boxes(parts, n, table):
    """(row, col, hook, arm) of every box with hook n*t and arm A_t.

    Yields in reading order, the top row first and each row left to
    right.  Only a box whose hook is a multiple n t of n reads A_t, through
    :func:`arm_value`, so a table too short for some box raises only when
    the scan reaches it.
    """
    conj = columns(parts)
    for r, p in enumerate(parts, 1):
        a = p
        # rows 1..r all reach every column of row r, so the box in column
        # c + 1 has leg conj[c] - r and hook a + conj[c] - r + 1
        for leg in conj[:p]:
            a -= 1
            h = a + leg - r + 1
            if h % n == 0 and arm_value(h // n, n, table) == a:
                yield r, p - a, h, a


def is_regular(parts, n, table):
    """True when no box has hook n*t together with arm A_t."""
    return next(illegal_boxes(parts, n, table), None) is None


def regular_counts(n, table, max_size):
    """Number of regular partitions of each size 0..max_size.

    Removing the first row of a regular partition leaves a regular
    partition, so every regular partition grows from the empty one by
    prepending rows p >= the current first part.  Over placed rows
    r_0 <= ... <= r_(m-1) the column legs do not increase, so the columns
    of leg d are [r_(m-d-1), r_(m-d)), with r_(-1) = 0 and no upper end
    for d = 0.  A box of leg d = n t - 1 - A_t and arm A_t is illegal, so
    each such rule with d <= m forbids the lengths
    [r_(m-d-1) + A_t + 1, r_(m-d) + A_t + 1) for the new row.  Only rows
    p <= (max_size - size) // 2 can take another row above them; every
    run of legal longer rows is counted at once in a difference array.
    The runs come in increasing order, so once one starts past that bound
    no later run enters the recursion loop, and a leaf, which places no
    row above (about two thirds of the calls at size 28), enters none.
    The rules read A_t for t <= max_size // n through :func:`arm_value`
    before any row is placed, so a table of horizon H with
    max_size >= n (H + 1) fails there, on A_(H+1), at once.
    """
    rules = []  # (leg d, arm + 1) of each illegal box shape, by leg
    for t in range(1, max_size // n + 1):
        a = arm_value(t, n, table)
        if 0 <= a < n * t:  # else no box has arm a and hook n t
            rules.append((n * t - 1 - a, a + 1))
    rules.sort()
    diff = [1, -1] + [0] * max_size  # counts[k] is the sum of diff[:k + 1]
    rows = [0]  # r_(-1) = 0, then the placed rows, the bottom row first

    def grow(size, m):
        room = max_size - size
        half = room // 2 + 1  # rows p < half can take another row above
        cuts = []
        for d, a1 in rules:
            if d > m:
                break
            lo = rows[m - d] + a1
            if lo <= room:
                cuts.append((lo, rows[m - d + 1] + a1 if d else room + 1))
        cuts.sort()
        cuts.append((room + 1, 0))
        p = rows[m] or 1
        for lo, hi in cuts:
            if lo > p:  # the rows p..lo - 1 are legal
                diff[size + p] += 1
                diff[size + lo] -= 1
                if p < half:  # p never falls, so no later run recurses either
                    for q in range(p, min(lo, half)):
                        rows.append(q)
                        grow(size + q, m + 1)
                        rows.pop()
            if hi > p:
                p = hi

    grow(0, 0)
    return list(accumulate(diff[:-1]))
