"""Exact integer linear algebra for cycle spaces: no tolerances, no floats.

`integer_echelon` is a fraction-free, gcd-normalised Gauss-Jordan over Python
ints. Each row it returns is the primitive integer multiple, with a positive
pivot, of the matching row of the reduced row echelon form, so the rows carry
the same information without any `Fraction`. `nullspace_basis` reads the
integer effect basis straight off those rows. `independent` answers the
rank question alone, by Bareiss's fraction-free forward elimination.

`rref` is the `fractions.Fraction` Gauss-Jordan kept as the oracle the tests
compare against; the production path never calls it.
"""

from __future__ import annotations

from math import gcd, lcm
from typing import Iterable, Sequence

IntRows = tuple[tuple[int, ...], ...]


def rref(rows: Sequence[Sequence]) -> tuple[list[list], tuple[int, ...]]:
    """Reduced row echelon form over `Fraction`s, and its pivot columns.

    Deterministic: the pivot for each column is the first row (top to bottom)
    with a nonzero entry there. Pivots are scaled to 1 and their columns
    cleared above and below, so the result is canonical for the row space.
    Zero rows come last; the rank is the number of pivot columns.
    """
    from fractions import Fraction  # the oracle only: production stays in ints

    rows = [[Fraction(v) for v in r] for r in rows]
    n_rows, n_cols = len(rows), len(rows[0]) if rows else 0
    pivot_cols: list[int] = []
    pivot_row = 0
    for col in range(n_cols):
        if pivot_row == n_rows:
            break
        # first row at or below pivot_row with a nonzero entry in this column
        hit = None
        for r in range(pivot_row, n_rows):
            if rows[r][col] != 0:
                hit = r
                break
        if hit is None:
            continue
        rows[pivot_row], rows[hit] = rows[hit], rows[pivot_row]
        lead = rows[pivot_row][col]
        if lead != 1:
            rows[pivot_row] = [v / lead for v in rows[pivot_row]]
        for r in range(n_rows):
            if r != pivot_row and rows[r][col] != 0:
                factor = rows[r][col]
                rows[r] = [a - factor * b for a, b in zip(rows[r], rows[pivot_row])]
        pivot_cols.append(col)
        pivot_row += 1
    return rows, tuple(pivot_cols)


def integer_echelon(
    vectors: Iterable[Sequence[int]], cols: int
) -> tuple[IntRows, tuple[int, ...]]:
    """Basis rows of the span of `vectors`, and their pivot columns, ascending.

    Row k is zero at every pivot column but its own, pivots[k], where it is
    positive; its entries have gcd 1. Dividing it by that pivot gives row k
    of `rref` on the same vectors. Each vector is reduced against the kept
    rows, and a remainder is kept after clearing its pivot column from them.
    Stops reading at rank `cols`.
    """
    kept: dict[int, list[int]] = {}  # pivot column -> row, zero at other pivots
    for vector in vectors:
        v = list(vector)
        for col, row in kept.items():
            if v[col]:
                v = _eliminate(v, row, col)
        lead = next((c for c, x in enumerate(v) if x), None)
        if lead is None:
            continue
        g = gcd(*v)
        v = [x // g for x in v] if v[lead] > 0 else [-x // g for x in v]
        for col, row in kept.items():
            if row[lead]:
                kept[col] = _eliminate(row, v, lead)
        kept[lead] = v
        if len(kept) == cols:
            break
    pivots = tuple(sorted(kept))
    return tuple(tuple(kept[c]) for c in pivots), pivots


def _eliminate(v: list[int], row: list[int], col: int) -> list[int]:
    """A combination of `v` and `row` that is zero at `col`, entries of gcd 1.
    With `row[col]` positive, entries of `v` where `row` is zero keep their
    sign, so a kept row's pivot stays positive."""
    g = gcd(row[col], v[col])
    a, b = row[col] // g, v[col] // g
    w = [a * x - b * y for x, y in zip(v, row)]
    g = gcd(*w)
    return [x // g for x in w] if g > 1 else w


def independent(vectors: Sequence[Sequence[int]]) -> bool:
    """Are `vectors` linearly independent? Bareiss's forward elimination
    (Math. Comp. 22, 1968): once a row has pivoted, every later entry is a
    minor of the input, so each division by the previous pivot is exact. No
    gcd and no back-substitution; a row that reduces to zero is dependent."""
    rows = [list(v) for v in vectors]
    previous = 1
    for k, row in enumerate(rows):
        col = next((c for c, x in enumerate(row) if x), None)
        if col is None:
            return False
        pivot = row[col]
        for j in range(k + 1, len(rows)):
            x = rows[j][col]
            rows[j] = [(pivot * a - x * b) // previous for a, b in zip(rows[j], row)]
        previous = pivot
    return True


def nullspace_basis(rows: IntRows, pivots: Sequence[int], cols: int) -> list[tuple[int, ...]]:
    """Integer basis of {v : row . v = 0 for every row}, one vector per free
    column, for rows in the form `integer_echelon` returns.

    Vectors come out in ascending free-column order. Each is the smallest
    positive multiple with integer entries of the rational solution that is
    1 at its free column and 0 at the other free columns, which makes the
    result deterministic: the free coordinate is the lcm L over rows of
    row[pivot] / gcd(row[free], row[pivot]), and each pivot coordinate is
    -L * row[free] / row[pivot].
    """
    pivot_set = set(pivots)
    basis: list[tuple[int, ...]] = []
    for free in range(cols):
        if free in pivot_set:
            continue
        scale = lcm(*(row[p] // gcd(row[free], row[p]) for row, p in zip(rows, pivots)))
        v = [0] * cols
        v[free] = scale
        for row, p in zip(rows, pivots):
            v[p] = -(scale * row[free]) // row[p]
        basis.append(tuple(v))
    return basis
