"""Exact linear algebra for small dense matrices: no tolerances, no floats.

`integer_echelon` eliminates in Python ints and builds `fractions.Fraction`
entries only for its final reduced form. `rref` is the `Fraction`
Gauss-Jordan oracle; in production it runs only inside `nullspace_basis`,
on a cycle base that is already small and reduced.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd
from typing import Iterable, Sequence

Scalar = int | Fraction
_ZERO = Fraction(0)


def _frac(value: Scalar) -> Fraction:
    return value if isinstance(value, Fraction) else Fraction(value)


@dataclass(frozen=True)
class RatVector:
    """Immutable vector of rationals."""

    entries: tuple[Fraction, ...]

    @classmethod
    def make(cls, values: Iterable[Scalar]) -> "RatVector":
        return cls(tuple(_frac(v) for v in values))

    def __len__(self) -> int:
        return len(self.entries)

    def __getitem__(self, i: int) -> Fraction:
        return self.entries[i]

    def dot(self, other: "RatVector") -> Fraction:
        if len(self) != len(other):
            raise ValueError(
                f"dot of vectors with different lengths ({len(self)} vs {len(other)})"
            )
        return sum((a * b for a, b in zip(self.entries, other.entries)), Fraction(0))

    def is_zero(self) -> bool:
        return all(e == 0 for e in self.entries)

    def scaled_to_integers(self) -> tuple[int, ...]:
        """Clear denominators: the smallest positive multiple with integer entries."""
        lcm = 1
        for e in self.entries:
            d = e.denominator
            lcm = lcm * d // gcd(lcm, d)
        return tuple(int(e * lcm) for e in self.entries)


@dataclass(frozen=True)
class RatMatrix:
    """Row-major matrix of rationals. `rows` may be 0 (then `cols` still matters)."""

    rows: int
    cols: int
    entries: tuple[Fraction, ...]

    def __post_init__(self) -> None:
        if len(self.entries) != self.rows * self.cols:
            raise ValueError("entry count does not match rows*cols")

    @classmethod
    def from_rows(cls, rows: Sequence[Sequence[Scalar]], cols: int | None = None) -> "RatMatrix":
        """Build from an iterable of rows; `cols` is required when rows is empty."""
        rows = [list(r) for r in rows]
        if rows:
            width = len(rows[0])
            if any(len(r) != width for r in rows):
                raise ValueError("ragged rows")
            if cols is not None and cols != width:
                raise ValueError("cols does not match row width")
            cols = width
        elif cols is None:
            raise ValueError("empty matrix needs an explicit column count")
        flat = tuple(_frac(v) for r in rows for v in r)
        return cls(len(rows), cols, flat)

    def row(self, i: int) -> RatVector:
        start = i * self.cols
        return RatVector(self.entries[start : start + self.cols])

    def stacked_with(self, extra: RatVector) -> "RatMatrix":
        if len(extra) != self.cols:
            raise ValueError(
                f"cannot stack length-{len(extra)} vector under {self.cols}-column matrix"
            )
        return RatMatrix(self.rows + 1, self.cols, self.entries + extra.entries)


@dataclass(frozen=True)
class Echelon:
    """Result of Gauss-Jordan elimination."""

    reduced: RatMatrix
    rank: int
    pivot_cols: tuple[int, ...]


def rref(matrix: RatMatrix) -> Echelon:
    """Reduced row echelon form.

    Deterministic: the pivot for each column is the first row (top to bottom)
    with a nonzero entry there. Pivots are scaled to 1 and their columns
    cleared above and below, so the result is canonical for the row space.
    """
    rows = [list(matrix.row(i).entries) for i in range(matrix.rows)]
    n_rows, n_cols = matrix.rows, matrix.cols
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
    flat = tuple(v for r in rows for v in r)
    return Echelon(RatMatrix(n_rows, n_cols, flat), len(pivot_cols), tuple(pivot_cols))


def integer_echelon(vectors: Iterable[Sequence[int]], cols: int) -> Echelon:
    """The nonzero rows of `rref` on the same vectors, by fraction-free,
    gcd-normalised Gauss-Jordan: each vector is reduced against the kept
    rows, and a remainder is kept after clearing its pivot column from them.
    Stops reading at rank `cols`; `Fraction` runs only on the final rows."""
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
        v = [x // g for x in v]
        for col, row in kept.items():
            if row[lead]:
                kept[col] = _eliminate(row, v, lead)
        kept[lead] = v
        if len(kept) == cols:
            break
    pivots = tuple(sorted(kept))
    flat = tuple(Fraction(x, kept[c][c]) if x else _ZERO for c in pivots for x in kept[c])
    return Echelon(RatMatrix(len(pivots), cols, flat), len(pivots), pivots)


def _eliminate(v: list[int], row: list[int], col: int) -> list[int]:
    """A combination of `v` and `row` that is zero at `col`, entries of gcd 1."""
    g = gcd(row[col], v[col])
    a, b = row[col] // g, v[col] // g
    w = [a * x - b * y for x, y in zip(v, row)]
    g = gcd(*w)
    return [x // g for x in w] if g > 1 else w


def nullspace_basis(matrix: RatMatrix) -> list[RatVector]:
    """Basis of {v : matrix @ v = 0}, one vector per free column.

    Vectors come out in ascending free-column order with a 1 in the free
    coordinate, which makes the result deterministic.
    """
    ech = rref(matrix)
    pivots = ech.pivot_cols
    pivot_of_col = {c: r for r, c in enumerate(pivots)}
    basis: list[RatVector] = []
    for free in range(matrix.cols):
        if free in pivot_of_col:
            continue
        v = [Fraction(0)] * matrix.cols
        v[free] = Fraction(1)
        for r, c in enumerate(pivots):
            v[c] = -ech.reduced.row(r)[free]
        basis.append(RatVector(tuple(v)))
    return basis


def in_span(rows: RatMatrix, vector: RatVector) -> bool:
    """Is `vector` a rational combination of the matrix rows?"""
    if len(vector) != rows.cols:
        raise ValueError(
            f"length-{len(vector)} vector vs {rows.cols}-column matrix"
        )
    base_rank = rref(rows).rank
    return rref(rows.stacked_with(vector)).rank == base_rank
