import itertools
import random
from fractions import Fraction

import pytest
import sympy
from hypothesis import example, given, settings
from hypothesis import strategies as st

from labelsplit.linalg import independent, integer_echelon, nullspace_basis, rref
from oracles import dot, in_span, rref_nullspace, rref_rows, scaled_to_integers


def nullspace(rows, cols):
    return nullspace_basis(*integer_echelon(rows, cols), cols)


def span_equal(vectors_a, vectors_b):
    return all(in_span(vectors_a, v) for v in vectors_b) and all(
        in_span(vectors_b, v) for v in vectors_a
    )


def test_rref_identity():
    reduced, pivots = rref([[1, 0, 0], [0, 1, 0], [0, 0, 1]])
    assert pivots == (0, 1, 2)
    assert reduced == [[1, 0, 0], [0, 1, 0], [0, 0, 1]]


def test_rref_single_row():
    reduced, pivots = rref([[1, 1, 1]])
    assert len(pivots) == 1
    assert pivots == (0,)


def test_rref_dependent_rows():
    reduced, pivots = rref([[1, 1, 1], [2, 2, 2]])
    assert len(pivots) == 1
    assert all(x == 0 for x in reduced[1])


def test_rref_fractions_exact():
    _, pivots = rref([[Fraction(1, 3), Fraction(1, 7)], [Fraction(2, 3), Fraction(2, 7)]])
    assert len(pivots) == 1


def test_rref_empty_matrix():
    assert rref([]) == ([], ())


def test_nullspace_identity_is_trivial():
    assert nullspace([[1, 0], [0, 1]], 2) == []


def test_nullspace_of_sum_row():
    basis = nullspace([[1, 1, 1]], 3)
    assert basis == [(-1, 1, 0), (-1, 0, 1)]
    assert span_equal(basis, [(1, -1, 0), (0, 1, -1)])


def test_nullspace_empty_matrix_is_full():
    assert nullspace([], 3) == [(1, 0, 0), (0, 1, 0), (0, 0, 1)]


def test_in_span_zero_vector():
    assert in_span([], [0, 0])
    assert not in_span([], [1, 0])


def test_in_span_scalar_multiple():
    assert in_span([[1, 2]], [2, 4])
    assert not in_span([[1, 2]], [2, 5])


def test_in_span_dimension_mismatch():
    with pytest.raises(ValueError):
        in_span([[1, 2]], [1, 2, 3])


def test_dot_length_mismatch():
    with pytest.raises(ValueError):
        dot([1, 2], [1, 2, 3])


def test_scaled_to_integers():
    assert scaled_to_integers([Fraction(1, 2), Fraction(1, 3), 1]) == (3, 2, 6)
    assert scaled_to_integers([0, 0]) == (0, 0)


def test_rref_idempotent_random():
    rng = random.Random(7)
    for _ in range(40):
        rows = rng.randint(1, 5)
        cols = rng.randint(1, 5)
        m = [[rng.randint(-4, 4) for _ in range(cols)] for _ in range(rows)]
        once = rref(m)
        assert rref(once[0]) == once


def test_nullspace_vectors_are_solutions():
    rng = random.Random(11)
    for _ in range(40):
        rows = rng.randint(1, 5)
        cols = rng.randint(1, 6)
        m = [[rng.randint(-3, 3) for _ in range(cols)] for _ in range(rows)]
        basis = nullspace(m, cols)
        assert len(basis) == cols - len(rref(m)[1])  # rank-nullity
        for v in basis:
            for row in m:
                assert dot(row, v) == 0
        # sympy uses the same convention: one vector per free column with a 1 there
        expected = [
            scaled_to_integers([Fraction(int(x.p), int(x.q)) for x in v])
            for v in sympy.Matrix(m).nullspace()
        ]
        assert basis == expected


def test_in_span_agrees_with_sympy():
    # independent oracle: solvability of the explicit linear system
    rng = random.Random(23)
    for _ in range(60):
        rows = rng.randint(1, 4)
        cols = rng.randint(1, 4)
        entries = [[rng.randint(-2, 2) for _ in range(cols)] for _ in range(rows)]
        target = [rng.randint(-2, 2) for _ in range(cols)]
        ours = in_span(entries, target)
        a = sympy.Matrix(entries).T
        b = sympy.Matrix(target)
        xs = sympy.symbols(f"x0:{rows}")
        solutions = sympy.linsolve((a, b), xs)
        assert ours == (solutions != sympy.EmptySet)


# --- integer echelon and nullspace against the Fraction oracle ----------


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


@settings(max_examples=300, deadline=None)
@given(integer_matrices())
def test_integer_echelon_equals_fraction_rref(case):
    rows, cols = case
    basis, pivots = integer_echelon(rows, cols)
    assert (list(basis), pivots) == rref_rows(rows)
    assert all(type(x) is int for row in basis for x in row)


@settings(max_examples=300, deadline=None)
@given(integer_matrices())
def test_nullspace_basis_equals_scaled_fraction_nullspace(case):
    rows, cols = case
    expected = [scaled_to_integers(v) for v in rref_nullspace(rows, cols)]
    assert nullspace(rows, cols) == expected


def test_integer_echelon_equals_sympy_rref():
    # the same property against sympy, independent of the package
    rng = random.Random(29)
    for _ in range(40):
        cols = rng.randint(1, 5)
        rows = [[rng.randint(-3, 3) for _ in range(cols)] for _ in range(rng.randint(1, 5))]
        reduced, pivots = sympy.Matrix(rows).rref()
        basis, ours = integer_echelon(rows, cols)
        assert ours == pivots
        expected = [
            scaled_to_integers([Fraction(int(x.p), int(x.q)) for x in reduced.row(r)])
            for r in range(len(pivots))
        ]
        assert list(basis) == expected


def test_integer_echelon_stops_at_full_rank():
    # once the rank reaches the column count nothing more is read, so an
    # endless tail of vectors is never touched
    vectors = itertools.chain([[2, 4], [0, -3]], itertools.repeat([1, 1]))
    assert integer_echelon(vectors, 2) == (((1, 0), (0, 1)), (0, 1))


def test_integer_echelon_no_vectors():
    assert integer_echelon([], 3) == ((), ())


# --- the rank-only test ---------------------------------------------------


@st.composite
def vector_lists(draw):
    """Integer vectors of one length, up to 8 of them over 0-6 columns, so
    often more vectors than columns: zero vectors, combinations of earlier
    ones, and entries drawn evenly up to 10^6, where an inexact division in
    the elimination would change the answer."""
    rng = random.Random(draw(st.integers(0, 2**32)))
    cols = draw(st.integers(0, 6))
    vectors: list[list[int]] = []
    for kind in draw(st.lists(st.sampled_from(["fresh", "zero", "combination"]), max_size=8)):
        if kind == "zero" or (kind == "combination" and not vectors):
            vectors.append([0] * cols)
        elif kind == "fresh":
            vectors.append([rng.randint(-(10**6), 10**6) for _ in range(cols)])
        else:
            a, b, x, y = rng.choice(vectors), rng.choice(vectors), rng.randint(-9, 9), rng.randint(-9, 9)
            vectors.append([x * p + y * q for p, q in zip(a, b)])
    return vectors, cols


@settings(derandomize=True, max_examples=400, deadline=None)
@given(vector_lists())
@example(([], 3))
@example(([[0, 0]], 2))
@example(([[]], 0))
@example(([[1, 2], [3, 4], [5, 6]], 2))
@example(([[999_983, 1_000_000, 3], [-1_000_000, 999_979, 7], [2, 5, -999_961]], 3))
def test_independent_equals_sympy_full_rank(case):
    vectors, cols = case
    matrix = sympy.Matrix(len(vectors), cols, [x for v in vectors for x in v])
    assert independent(vectors) == (matrix.rank() == len(vectors))
