"""Smith normal form of integer matrices, by exact row/column reduction.

Small matrices only; used as an independent check on emitted group
presentations via their abelianizations.
"""

from __future__ import annotations


def smith_normal_form(matrix: list[list[int]]) -> list[int]:
    """Diagonal d_1 | d_2 | ... of the Smith normal form, nonnegative.

    Returns only the diagonal (transforms are not tracked).  Trailing
    zero diagonal entries are included up to min(rows, cols).

    One loop of unimodular row and column operations.  Each pass takes
    the nonzero entry of least absolute value as the pivot and clears
    its column with row operations and its row with column operations.
    A nonzero remainder is smaller than the pivot and becomes the next
    pass's pivot.  When the pivot's row and column are clear but some
    entry is not divisible by the pivot, that entry's row is added to
    the pivot row and the entry is reduced modulo the pivot (a column
    operation against the cleared pivot column), again leaving a
    smaller entry.  So every pass that records nothing lowers the least
    absolute value.  A pivot that divides every entry left is recorded
    as |pivot| and its row and column are deleted.  The invariant: each
    recorded factor divides every entry still in the matrix, which
    makes the recorded diagonal a divisibility chain.
    """
    a = [list(row) for row in matrix]
    size = min(len(a), len(a[0])) if a else 0
    diag = []
    while True:
        nonzero = [(abs(v), i, j) for i, row in enumerate(a) for j, v in enumerate(row) if v]
        if not nonzero:
            break
        _, i, j = min(nonzero)
        pivot_row, p = a[i], a[i][j]
        for k, row in enumerate(a):
            if k != i and row[j]:
                f = row[j] // p
                a[k] = [x - f * y for x, y in zip(row, pivot_row)]
        for col, v in enumerate(pivot_row):
            if col != j and v:
                f = v // p
                for row in a:
                    row[col] -= f * row[j]
        if sum(1 for row in a if row[j]) + sum(1 for v in pivot_row if v) > 2:
            continue  # a remainder is left in the pivot's row or column
        offender = next(((k, col) for k, row in enumerate(a) for col, v in enumerate(row) if v % p), None)
        if offender:
            k, col = offender
            a[i] = [x + y for x, y in zip(pivot_row, a[k])]
            a[i][col] %= p
            continue
        diag.append(abs(p))
        del a[i]
        for row in a:
            del row[j]
    return diag + [0] * (size - len(diag))


def invariant_factors(matrix: list[list[int]], ncols: int) -> tuple[tuple[int, ...], int]:
    """(torsion factors > 1, free rank) of Z^ncols modulo the row lattice."""
    diag = smith_normal_form(matrix)
    rank = sum(1 for d in diag if d != 0)
    torsion = tuple(d for d in diag if d > 1)
    return torsion, ncols - rank
