import itertools
import random
from fractions import Fraction

import pytest
import sympy
from hypothesis import given, settings
from hypothesis import strategies as st

from labelsplit.linalg import (
    RatMatrix,
    RatVector,
    in_span,
    integer_echelon,
    nullspace_basis,
    rref,
)


def mat(rows, cols=None):
    return RatMatrix.from_rows(rows, cols=cols)


def vec(values):
    return RatVector.make(values)


def span_equal(vectors_a, vectors_b, cols):
    ma = mat([list(v.entries) for v in vectors_a], cols=cols)
    mb = mat([list(v.entries) for v in vectors_b], cols=cols)
    return all(in_span(ma, v) for v in vectors_b) and all(
        in_span(mb, v) for v in vectors_a
    )


def test_rref_identity():
    ech = rref(mat([[1, 0, 0], [0, 1, 0], [0, 0, 1]]))
    assert ech.rank == 3
    assert ech.pivot_cols == (0, 1, 2)
    assert ech.reduced == mat([[1, 0, 0], [0, 1, 0], [0, 0, 1]])


def test_rref_single_row():
    ech = rref(mat([[1, 1, 1]]))
    assert ech.rank == 1
    assert ech.pivot_cols == (0,)


def test_rref_dependent_rows():
    ech = rref(mat([[1, 1, 1], [2, 2, 2]]))
    assert ech.rank == 1
    assert ech.reduced.row(1).is_zero()


def test_rref_fractions_exact():
    ech = rref(mat([[Fraction(1, 3), Fraction(1, 7)], [Fraction(2, 3), Fraction(2, 7)]]))
    assert ech.rank == 1


def test_rref_empty_matrix():
    ech = rref(mat([], cols=3))
    assert ech.rank == 0
    assert ech.pivot_cols == ()


def test_nullspace_identity_is_trivial():
    assert nullspace_basis(mat([[1, 0], [0, 1]])) == []


def test_nullspace_of_sum_row():
    basis = nullspace_basis(mat([[1, 1, 1]]))
    assert len(basis) == 2
    expected = [vec([-1, 1, 0]), vec([-1, 0, 1])]
    assert span_equal(basis, expected, cols=3)


def test_nullspace_empty_matrix_is_full():
    basis = nullspace_basis(mat([], cols=3))
    assert [list(v.entries) for v in basis] == [
        [1, 0, 0],
        [0, 1, 0],
        [0, 0, 1],
    ]


def test_in_span_zero_vector():
    assert in_span(mat([], cols=2), vec([0, 0]))
    assert not in_span(mat([], cols=2), vec([1, 0]))


def test_in_span_scalar_multiple():
    assert in_span(mat([[1, 2]]), vec([2, 4]))
    assert not in_span(mat([[1, 2]]), vec([2, 5]))


def test_in_span_dimension_mismatch():
    with pytest.raises(ValueError):
        in_span(mat([[1, 2]]), vec([1, 2, 3]))


def test_dot_length_mismatch():
    with pytest.raises(ValueError):
        vec([1, 2]).dot(vec([1, 2, 3]))


def test_scaled_to_integers():
    assert vec([Fraction(1, 2), Fraction(1, 3), 1]).scaled_to_integers() == (3, 2, 6)
    assert vec([0, 0]).scaled_to_integers() == (0, 0)


def test_rref_idempotent_random():
    rng = random.Random(7)
    for _ in range(40):
        rows = rng.randint(1, 5)
        cols = rng.randint(1, 5)
        m = mat([[rng.randint(-4, 4) for _ in range(cols)] for _ in range(rows)])
        once = rref(m)
        twice = rref(once.reduced)
        assert once.reduced == twice.reduced
        assert once.rank == twice.rank


def test_nullspace_vectors_are_solutions():
    rng = random.Random(11)
    for _ in range(40):
        rows = rng.randint(1, 5)
        cols = rng.randint(1, 6)
        m = mat([[rng.randint(-3, 3) for _ in range(cols)] for _ in range(rows)])
        basis = nullspace_basis(m)
        assert len(basis) == cols - rref(m).rank  # rank-nullity
        for v in basis:
            for r in range(m.rows):
                assert m.row(r).dot(v) == 0


def test_in_span_agrees_with_sympy():
    # independent oracle: solvability of the explicit linear system
    rng = random.Random(23)
    for _ in range(60):
        rows = rng.randint(1, 4)
        cols = rng.randint(1, 4)
        entries = [[rng.randint(-2, 2) for _ in range(cols)] for _ in range(rows)]
        target = [rng.randint(-2, 2) for _ in range(cols)]
        ours = in_span(mat(entries), vec(target))
        a = sympy.Matrix(entries).T
        b = sympy.Matrix(target)
        xs = sympy.symbols(f"x0:{rows}")
        solutions = sympy.linsolve((a, b), xs)
        assert ours == (solutions != sympy.EmptySet)


# --- integer echelon against the Fraction oracle --------------------------


@st.composite
def integer_matrices(draw):
    """Small integer matrices, often rank deficient: zero rows, negative
    entries, and rows that are integer combinations of earlier rows."""
    cols = draw(st.integers(0, 6))
    entry = st.integers(-6, 6) | st.just(0)
    rows = []
    for _ in range(draw(st.integers(0, 8))):
        kind = draw(st.sampled_from(["fresh", "zero", "combination"]))
        if kind == "zero" or (kind == "combination" and not rows):
            rows.append([0] * cols)
        elif kind == "fresh":
            rows.append(draw(st.lists(entry, min_size=cols, max_size=cols)))
        else:
            a, b = draw(st.sampled_from(rows)), draw(st.sampled_from(rows))
            x, y = draw(entry), draw(entry)
            rows.append([x * p + y * q for p, q in zip(a, b)])
    return rows, cols


def nonzero_rows_of_rref(rows, cols):
    ech = rref(RatMatrix.from_rows(rows, cols=cols))
    kept = ech.reduced.entries[: ech.rank * cols]
    return RatMatrix(ech.rank, cols, kept), ech.rank, ech.pivot_cols


@settings(max_examples=300, deadline=None)
@given(integer_matrices())
def test_integer_echelon_equals_fraction_rref(case):
    rows, cols = case
    ech = integer_echelon(rows, cols)
    assert (ech.reduced, ech.rank, ech.pivot_cols) == nonzero_rows_of_rref(rows, cols)
    assert all(isinstance(x, Fraction) for x in ech.reduced.entries)


def test_integer_echelon_equals_sympy_rref():
    # the same property against sympy, independent of the package
    rng = random.Random(29)
    for _ in range(40):
        cols = rng.randint(1, 5)
        rows = [[rng.randint(-3, 3) for _ in range(cols)] for _ in range(rng.randint(1, 5))]
        reduced, pivots = sympy.Matrix(rows).rref()
        ech = integer_echelon(rows, cols)
        assert ech.pivot_cols == pivots
        expected = [[Fraction(int(x.p), int(x.q)) for x in reduced.row(r)] for r in range(len(pivots))]
        assert [list(ech.reduced.row(r).entries) for r in range(ech.rank)] == expected


def test_integer_echelon_stops_at_full_rank():
    # once the rank reaches the column count nothing more is read, so an
    # endless tail of vectors is never touched
    vectors = itertools.chain([[2, 4], [0, -3]], itertools.repeat([1, 1]))
    ech = integer_echelon(vectors, 2)
    assert ech.reduced == mat([[1, 0], [0, 1]])
    assert ech.pivot_cols == (0, 1)


def test_integer_echelon_no_vectors():
    ech = integer_echelon([], 3)
    assert (ech.reduced, ech.rank, ech.pivot_cols) == (mat([], cols=3), 0, ())
