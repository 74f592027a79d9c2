"""Exact arithmetic layer: kernels, solves, positivity, differential operators.

Positivity is cross-checked against two independent oracles: a fixed probe
set of Gaussian-rational vectors and the characteristic-polynomial sign
rule (all elementary symmetric functions positive, valid because Hermitian
matrices have real spectrum).
"""

import io
import random
from contextlib import ExitStack, contextmanager, redirect_stdout
from fractions import Fraction
from math import gcd
from pathlib import Path
from unittest.mock import patch

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import field_oracles
from field_oracles import (
    field_combine,
    field_det,
    field_leading_minors,
    field_product,
    field_route,
    field_symmetric_pivots,
    field_rref,
    sparse_entries,
)
from filtration_oracles import rank_of_vectors
from volume_oracles import variable
from hlmod import cli, exact, hodge_lefschetz
from hlmod.exact import (
    GaussianRational,
    Matrix,
    MultiPoly,
    NotHermitianError,
    apply_diff_op,
    as_fraction,
    echelon_basis,
    first_nonpositive_minor,
    format_rational,
    format_scalar,
    greedy_echelon,
    hermitian_pd,
    hermitian_psd,
    independent_indices,
    integer_det,
    kernel_basis,
    parse_scalar,
    fractions_over,
    hstack,
    poly_det,
)

I = GaussianRational(0, 1)
FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"


def F(a, b=1):
    return Fraction(a, b)


def solve_columns(m: Matrix, rhs_list) -> list:
    """Some exact solution of ``m x = b`` for each b, or None where inconsistent.

    All right-hand sides ride along one row reduction of ``[m | b_1 .. b_s]``
    whose pivots are limited to the columns of ``m``; free variables are 0.
    The rows below the rank are all a consistency test reads of ``rref``'s
    output there.
    """
    rhs_list = [list(b) for b in rhs_list]
    if any(len(b) != m.rows for b in rhs_list):
        raise ValueError("right-hand side length mismatch")
    if not rhs_list:
        return []
    n = m.cols
    rr, pivots = hstack(m, Matrix.from_columns(rhs_list, m.rows)).rref(n)
    rows, d = rr.numerators()
    out = []
    for j in range(n, n + len(rhs_list)):
        if any(row[j] for row in rows[len(pivots) :]):
            out.append(None)
            continue
        x = [0] * n
        for r, c in enumerate(pivots):
            x[c] = rows[r][j]
        out.append(fractions_over(x, d))
    return out


# ---------------------------------------------------------------------------
# kernels and solving
# ---------------------------------------------------------------------------


def test_kernel_identity():
    basis, rank = kernel_basis(Matrix.identity(3))
    assert basis == [] and rank == 3


def test_kernel_zero_matrix():
    basis, rank = kernel_basis(Matrix.zeros(2, 2))
    assert rank == 0 and len(basis) == 2


def test_kernel_rank_one():
    basis, rank = kernel_basis(Matrix([[1, 1], [2, 2]]))
    assert rank == 1 and len(basis) == 1
    (v,) = basis
    # spans (1, -1)
    assert v[0] * (-1) == v[1] and v[0] != 0


def test_kernel_of_empty_matrix():
    basis, rank = kernel_basis(Matrix([], 0, 3))
    assert rank == 0 and len(basis) == 3


def test_solve_identity():
    assert solve_columns(Matrix.identity(2), [[F(3), F(5)]])[0] == [F(3), F(5)]


def test_solve_inconsistent():
    assert solve_columns(Matrix.zeros(2, 2), [[F(1), F(0)]])[0] is None


def test_solve_scalar_division():
    assert solve_columns(Matrix([[2]]), [[F(3)]])[0] == [F(3, 2)]


small_fraction = st.fractions(
    min_value=-4, max_value=4, max_denominator=6
)


@st.composite
def small_matrix(draw, max_dim=4):
    rows = draw(st.integers(min_value=1, max_value=max_dim))
    cols = draw(st.integers(min_value=1, max_value=max_dim))
    data = draw(
        st.lists(
            st.lists(small_fraction, min_size=cols, max_size=cols),
            min_size=rows,
            max_size=rows,
        )
    )
    return Matrix(data, rows, cols)


@settings(max_examples=40, deadline=None)
@given(small_matrix())
def test_rank_nullity_and_membership(m):
    basis, rank = kernel_basis(m)
    assert rank + len(basis) == m.cols
    assert m.rank() == rank
    for v in basis:
        assert all(not e for e in m.apply(list(v)))


@settings(max_examples=40, deadline=None)
@given(small_matrix(), st.data())
def test_solve_produces_solutions(m, data):
    b = data.draw(
        st.lists(small_fraction, min_size=m.rows, max_size=m.rows)
    )
    x = solve_columns(m, [b])[0]
    if x is not None:
        assert m.apply(x) == [Fraction(e) for e in b]


# -- batched elimination against one-vector-at-a-time references ------------


def _solve_by_full_rref(m, b):
    """One right-hand side: full RREF of [m | b], b allowed as a pivot."""
    aug = Matrix([[*row, e] for row, e in zip(m.data, b)], m.rows, m.cols + 1)
    rr, pivots = aug.rref()
    if m.cols in pivots:
        return None
    x = [Fraction(0)] * m.cols
    for r, c in enumerate(pivots):
        x[c] = rr.data[r][m.cols]
    return x


def _greedy_by_rank(vectors):
    """Keep each vector that raises the rank of those kept before it."""
    kept, chosen = [], []
    for i, v in enumerate(vectors):
        if rank_of_vectors(kept + [list(v)]) > len(kept):
            kept.append(list(v))
            chosen.append(i)
    return chosen


def _scalar(rng, gaussian):
    re = Fraction(rng.randint(-3, 3), rng.randint(1, 3))
    return GaussianRational(re, Fraction(rng.randint(-2, 2), rng.randint(1, 2))) if gaussian else re


def _low_rank_matrix(rng, rows, cols, gaussian):
    """A rows x cols product of random factors of inner size <= min(rows, cols)."""
    inner = rng.randint(0, min(rows, cols))
    left = Matrix([[_scalar(rng, gaussian) for _ in range(inner)] for _ in range(rows)], rows, inner)
    right = Matrix([[_scalar(rng, gaussian) for _ in range(cols)] for _ in range(inner)], inner, cols)
    return left * right


@pytest.mark.parametrize("gaussian", [False, True], ids=["Q", "Q(i)"])
def test_solve_columns_matches_per_column_solve(gaussian):
    rng = random.Random(4242 + gaussian)
    for _ in range(60):
        rows, cols = rng.randint(0, 5), rng.randint(0, 5)
        m = _low_rank_matrix(rng, rows, cols, gaussian)
        rhs = []
        for _ in range(rng.randint(1, 6)):
            kind = rng.randrange(3)
            if kind == 0:  # consistent by construction
                rhs.append(m.apply([_scalar(rng, gaussian) for _ in range(cols)]))
            elif kind == 1:  # usually inconsistent when m is rank-deficient
                rhs.append([_scalar(rng, gaussian) for _ in range(rows)])
            else:
                rhs.append([Fraction(0)] * rows)
        got = solve_columns(m, rhs)
        assert got == [solve_columns(m, [b])[0] for b in rhs]
        assert got == [_solve_by_full_rref(m, b) for b in rhs]
        rank = m.rank()
        for b, x in zip(rhs, got):
            augmented = Matrix([[*row, e] for row, e in zip(m.data, b)], rows, cols + 1)
            assert (x is not None) == (augmented.rank() == rank)
            if x is not None:
                assert m.apply(x) == b


def test_solve_columns_edge_shapes():
    no_cols = Matrix.zeros(3, 0)
    assert solve_columns(no_cols, [[F(0)] * 3, [F(0), F(1), F(0)]]) == [[], None]
    no_rows = Matrix([], 0, 2)
    assert solve_columns(no_rows, [[]]) == [[F(0), F(0)]]
    assert solve_columns(Matrix.identity(2), []) == []
    singular = Matrix([[1, 2], [2, 4]])
    assert solve_columns(singular, [[F(1), F(2)], [F(1), F(0)], [F(0), F(0)]]) == [
        [F(1), F(0)],
        None,
        [F(0), F(0)],
    ]
    with pytest.raises(ValueError):
        solve_columns(singular, [[F(1)]])


def test_rref_pivot_limit_carries_the_other_columns():
    m = Matrix([[1, 2, 1, 0], [2, 4, 0, 1]])
    rr, pivots = m.rref(2)
    assert pivots == [0]
    assert rr.data[0][:2] == (F(1), F(2))
    assert rr.data[1][:2] == (F(0), F(0))
    # the carried columns hold the same row operations: R2 - 2 R1
    assert rr.data[1][2:] == (F(-2), F(1))
    assert m.rref()[1] == [0, 2]


def test_hstack_sets_any_number_of_matrices_side_by_side():
    # one carrier over the lcm of the denominators, the columns in order
    a = Matrix([[F(1, 2)], [F(3)]])
    b = Matrix([[F(1, 3), 0], [1, F(-2, 9)]])
    c = Matrix([[parse_scalar("1/4 i")], [0]])
    m = hstack(a, b, c)
    assert m.numerators()[1] == 36
    assert m.data == ((F(1, 2), F(1, 3), F(0), parse_scalar("1/4 i")), (F(3), F(1), F(-2, 9), F(0)))
    assert hstack(a) == a and hstack(a, Matrix.zeros(2, 0)) == a
    with pytest.raises(ValueError, match="row mismatch"):
        hstack(a, b, Matrix.identity(3))


@pytest.mark.parametrize("gaussian", [False, True], ids=["Q", "Q(i)"])
def test_independent_indices_matches_greedy_rank_loop(gaussian):
    rng = random.Random(777 + gaussian)
    for _ in range(60):
        dim = rng.randint(0, 5)
        basis = _low_rank_matrix(rng, dim, rng.randint(0, 4), gaussian).columns()
        vectors = []
        for _ in range(rng.randint(0, 7)):
            kind = rng.randrange(4)
            if kind == 0 or not basis:
                vectors.append([_scalar(rng, gaussian) for _ in range(dim)])
            elif kind == 1:
                vectors.append([Fraction(0)] * dim)
            else:  # a combination of earlier directions
                coeffs = [_scalar(rng, gaussian) for _ in basis]
                vectors.append([sum((c * v[t] for c, v in zip(coeffs, basis)), Fraction(0)) for t in range(dim)])
        assert independent_indices(vectors) == _greedy_by_rank(vectors)


def test_greedy_echelon_keeps_a_greedy_basis_with_coordinates_in_lowest_terms():
    # sparse integer vectors, many of them integer combinations of earlier
    # ones with a common factor: the kept indices are the greedy scan's, and
    # each vector v is sum_m c_m kept_m / s with s > 0 and gcd(s, c) = 1
    rng = random.Random(4)
    for _ in range(80):
        dim = rng.randint(1, 6)
        vectors: list[dict] = []
        for _ in range(rng.randint(1, 9)):
            if vectors and rng.random() < 0.6:
                picks = rng.sample(vectors, min(len(vectors), rng.randint(1, 3)))
                v = {}
                for w in picks:
                    c = rng.choice((-6, -4, -3, 2, 3, 9))
                    for t, x in w.items():
                        v[t] = v.get(t, 0) + c * x
                vectors.append({t: x for t, x in v.items() if x})
            else:
                vectors.append({(t,): rng.randint(-4, 4) * rng.choice((1, 6)) for t in rng.sample(range(dim), rng.randint(0, dim))})
                vectors[-1] = {t: x for t, x in vectors[-1].items() if x}
        kept, coords = greedy_echelon(vectors)
        dense = [[Fraction(v.get((t,), 0)) for t in range(dim)] for v in vectors]
        assert kept == independent_indices(dense)
        for v, (c, s) in zip(vectors, coords):
            assert s > 0 and gcd(s, *c.values()) == 1 and all(c.values())
            combination = {}
            for m, x in c.items():
                for t, y in vectors[kept[m]].items():
                    combination[t] = combination.get(t, 0) + x * y
            assert {t: x for t, x in combination.items() if x} == {t: s * x for t, x in v.items()}


def test_integer_det_matches_matrix_det():
    # mostly zero entries, so pivots vanish, rows swap and some matrices are
    # singular
    rng = random.Random(4242)
    dets = []
    for _ in range(300):
        n = rng.randint(1, 6)
        rows = [[rng.choice((0, 0, 0, rng.randint(-9, 9))) for _ in range(n)] for _ in range(n)]
        dets.append(integer_det(rows))
        assert dets[-1] == Matrix([[F(c) for c in row] for row in rows]).det(), rows
    assert 0 in dets and any(dets)


@pytest.mark.parametrize(
    "rows, expected",
    [
        ([[-7]], -7),
        ([[0, 1], [1, 0]], -1),  # zero first pivot: one row swap
        ([[0, 0, 2], [0, 3, 0], [5, 0, 0]], -30),
        ([[1, 2, 3], [0, 0, 4], [0, 5, 6]], -20),  # zero pivot after one step
        ([[1, 2], [2, 4]], 0),  # singular
        ([[0, 1], [0, 2]], 0),  # zero column
        ([], 1),
    ],
)
def test_integer_det_cases(rows, expected):
    assert integer_det(rows) == expected


def test_inverse_round_trip():
    m = Matrix([[1, 2], [3, 5]])
    assert m * m.inverse() == Matrix.identity(2)
    with pytest.raises(ValueError):
        Matrix([[1, 1], [1, 1]]).inverse()


def test_det_of_int_matrix_is_exact():
    m = Matrix([
        [-4, -3, 1, 0, 0, 0],
        [0, 5, 2, 0, 0, 1],
        [-8, 0, 0, 3, 0, 0],
        [8, 0, 0, 8, -1, 0],
        [0, -7, 0, -3, 0, 0],
        [2, 2, 0, 0, 0, 0],
    ])
    det = m.det()
    assert type(det) is Fraction and det == 6


def test_inverse_of_int_matrix_is_exact():
    inverse = Matrix([[1, 2], [3, 5]]).inverse()
    assert inverse.data == ((-5, 2), (3, -1))
    assert all(type(e) is Fraction for row in inverse.data for e in row)


def test_matrix_rows_are_immutable():
    m = Matrix([[1, 2], [3, 4]])
    with pytest.raises(TypeError):
        m.data[0][0] = 5
    with pytest.raises(TypeError):
        m.data[0] = (5, 6)
    with pytest.raises(TypeError):
        (m * m).data[0][0] = 5
    assert m.data == ((1, 2), (3, 4))


@pytest.mark.parametrize("gaussian", [False, True], ids=["Q", "Q(i)"])
def test_kernel_carriers_read_as_their_numerators(gaussian):
    # products, sums, slices, RREFs and inverses are built on numerators
    # and read as scalars only through .data, which must be num / d
    rng = random.Random(8 + gaussian)
    m = Matrix([[_scalar(rng, gaussian) for _ in range(4)] for _ in range(4)])
    built = [m * m, m + m.scale(F(2, 3)), m.submatrix([2, 0], [1, 3]), m.transpose(), m.rref(2)[0], m.rref()[0]]
    if m.det():
        built.append(m.inverse())
    for c in built:
        assert c._data is None
        rows, d = c.numerators()
        assert type(d) is int and d > 0
        assert c.data == tuple(tuple(v * Fraction(1, d) for v in row) for row in rows)


def test_solve_on_int_matrix_is_exact():
    (x,) = solve_columns(Matrix([[3, 1], [1, 2]]), [[1, 1]])
    assert x == [Fraction(1, 5), Fraction(2, 5)]
    assert all(type(e) is Fraction for e in x)


# ---------------------------------------------------------------------------
# the kernels on numerators against the field oracle
# ---------------------------------------------------------------------------


# ints and Fractions mixed, zeros often, so ranks drop and pivots vanish
mixed_entry = st.one_of(st.just(0), st.integers(min_value=-3, max_value=3), small_fraction)
# 0, units and small Gaussian rationals
gaussian_entry = st.one_of(
    st.just(0),
    st.sampled_from((1, -1, I, -I)),
    st.builds(GaussianRational, small_fraction, small_fraction),
)


@st.composite
def scalar_matrix(draw, rows=None, cols=None, max_dim=5, entry=mixed_entry):
    """A matrix of ``entry`` scalars, 0 x n and n x 0 included, whose rows
    are often zero or combinations of the rows before them."""
    rows = draw(st.integers(min_value=0, max_value=max_dim)) if rows is None else rows
    cols = draw(st.integers(min_value=0, max_value=max_dim)) if cols is None else cols
    data = []
    for _ in range(rows):
        kind = draw(st.sampled_from(("free", "zero", "combination")))
        if kind == "zero":
            data.append([0] * cols)
        elif kind == "combination" and data:
            coeffs = [draw(entry) for _ in data]
            data.append([sum((c * row[j] for c, row in zip(coeffs, data)), 0) for j in range(cols)])
        else:
            data.append([draw(entry) for _ in range(cols)])
    return Matrix(data, rows, cols)


def gaussian_matrix(rows=None, cols=None):
    return scalar_matrix(rows, cols, entry=gaussian_entry)


def square_matrix(entry):
    return st.integers(min_value=0, max_value=5).flatmap(lambda n: scalar_matrix(n, n, entry=entry))


def _canonical(m):
    """Every entry a Fraction, or a GaussianRational that is not real."""
    return all(type(e) is Fraction or (type(e) is GaussianRational and e.imag) for row in m.data for e in row)


def _multiple(row, reference):
    """Whether ``row`` is a nonzero multiple of ``reference`` (or both are zero)."""
    j = next((j for j, e in enumerate(reference) if e), None)
    if j is None:
        return not any(row)
    return bool(row[j]) and all(a * reference[j] == b * row[j] for a, b in zip(row, reference))


def _check_rref(m, limit):
    rr, pivots = m.rref(limit)
    field_rr, field_pivots = field_rref(m, limit)
    assert pivots == field_pivots
    rank = len(pivots)
    assert rr.data[:rank] == field_rr.data[:rank]
    assert limit is not None or m.rank() == rank
    assert _canonical(rr)
    # rows below the rank: multiples of the oracle's, zero exactly where its are
    for row, field_row in zip(rr.data[rank:], field_rr.data[rank:]):
        assert _multiple(row, field_row)


def _check_det_and_minors(m):
    assert m.det() == field_det(m)
    hermitian = m + m.transpose().conjugate()
    expected = next(((s, v) for s, v in enumerate(field_leading_minors(hermitian), 1) if as_fraction(v) <= 0), None)
    found = first_nonpositive_minor(hermitian)
    assert found == expected
    assert found is None or type(found[1]) is Fraction


def _check_product(shape, data, matrices):
    rows, inner, cols = shape
    a, b = data.draw(matrices(rows, inner)), data.draw(matrices(inner, cols))
    product = a * b
    assert product == field_product(a, b)
    assert _canonical(product)


def _check_combine(dim, count, data, matrices):
    mats = tuple(data.draw(matrices(dim, dim)) for _ in range(count))
    family = hodge_lefschetz.OperatorFamily(tuple(f"g{i}" for i in range(count)), mats)
    coefficients = [data.draw(mixed_entry) for _ in range(count)]
    total = family.combine(coefficients, dim)
    assert total == field_combine(family, coefficients, dim)
    assert _canonical(total)


@settings(max_examples=40, deadline=None)
@given(scalar_matrix(), st.data())
def test_integer_rref_matches_field_rref(m, data):
    _check_rref(m, data.draw(st.one_of(st.none(), st.integers(min_value=0, max_value=m.cols))))


@settings(max_examples=40, deadline=None)
@given(square_matrix(mixed_entry))
def test_integer_det_and_minors_match_field_route(m):
    _check_det_and_minors(m)


@settings(max_examples=40, deadline=None)
@given(st.tuples(*[st.integers(min_value=0, max_value=4)] * 3), st.data())
def test_integer_product_matches_field_product(shape, data):
    _check_product(shape, data, scalar_matrix)


@settings(max_examples=40, deadline=None)
@given(st.integers(min_value=1, max_value=4), st.integers(min_value=0, max_value=3), st.data())
def test_integer_combine_matches_field_combine(dim, count, data):
    _check_combine(dim, count, data, scalar_matrix)


@settings(max_examples=60, deadline=None)
@given(gaussian_matrix(), st.data())
def test_gaussian_rref_matches_field_oracle(m, data):
    _check_rref(m, data.draw(st.one_of(st.none(), st.integers(min_value=0, max_value=m.cols))))


@settings(max_examples=60, deadline=None)
@given(square_matrix(gaussian_entry))
def test_gaussian_det_and_minors_match_field_oracle(m):
    _check_det_and_minors(m)


@settings(max_examples=40, deadline=None)
@given(st.tuples(*[st.integers(min_value=0, max_value=4)] * 3), st.data())
def test_gaussian_product_matches_field_oracle(shape, data):
    _check_product(shape, data, gaussian_matrix)


@settings(max_examples=40, deadline=None)
@given(st.integers(min_value=1, max_value=4), st.integers(min_value=0, max_value=3), st.data())
def test_gaussian_combine_matches_field_oracle(dim, count, data):
    _check_combine(dim, count, data, gaussian_matrix)


@settings(max_examples=40, deadline=None)
@given(st.integers(min_value=0, max_value=4).flatmap(lambda n: st.tuples(gaussian_matrix(n, n), gaussian_matrix(n, n))))
def test_sparse_mul_matches_field_oracle(pair):
    a, b = pair
    (na, da), (nb, db) = a.sparse_numerators(), b.sparse_numerators()
    product = hodge_lefschetz._sparse_mul(na, nb)
    scaled = [{j: exact.fractions_over([v], da * db)[0] for j, v in row.items()} for row in product]
    assert scaled == sparse_entries(field_product(a, b))


class ExactInt(int):
    """An int whose floor divisions must be exact, counted in ``divisions``;
    its arithmetic with ints returns ExactInts."""

    divisions = 0

    def __add__(self, other):
        return _exact(int.__add__(self, other))

    __radd__ = __add__

    def __sub__(self, other):
        return _exact(int.__sub__(self, other))

    def __rsub__(self, other):
        return _exact(int.__rsub__(self, other))

    def __mul__(self, other):
        return _exact(int.__mul__(self, other))

    __rmul__ = __mul__

    def __neg__(self):
        return ExactInt(-int(self))

    def __floordiv__(self, other):
        if not isinstance(other, int):
            return NotImplemented
        q, r = divmod(int(self), int(other))
        assert not r, f"inexact division {int(self)} // {int(other)}"
        ExactInt.divisions += 1
        return ExactInt(q)

    def __rfloordiv__(self, other):
        return ExactInt(other).__floordiv__(self) if isinstance(other, int) else NotImplemented


def _exact(value):
    return value if value is NotImplemented else ExactInt(value)


def _exact_numerator(v):
    if isinstance(v, GaussianRational):
        return GaussianRational(ExactInt(v.re), ExactInt(v.im))
    return ExactInt(v)


@contextmanager
def exact_divisions():
    """The kernels' numerators as ExactInts (the parts of a complex one
    too), so every ``//`` they take asserts that it leaves no remainder."""
    integer_rows = exact.integer_rows

    def checked(rows):
        ints, d = integer_rows(rows)
        return [[_exact_numerator(v) for v in row] for row in ints], d

    ExactInt.divisions = 0
    with patch.object(exact, "integer_rows", checked):
        yield


@settings(max_examples=60, deadline=None)
@given(st.one_of(square_matrix(gaussian_entry), square_matrix(mixed_entry)), st.data())
def test_every_bareiss_division_is_exact(m, data):
    limit = data.draw(st.one_of(st.none(), st.integers(min_value=0, max_value=m.cols)))
    with exact_divisions():
        _check_det_and_minors(m)
        _check_rref(m, limit)


def test_bareiss_rows_that_wait_divide_exactly():
    # rows 2 and 3 have zeros in the first pivot columns, so they wait for
    # their first update; the checked divisions did run
    m = Matrix([[2, I, 1, 0], [1, 3, 0, I], [0, 1 - I, F(5, 2), 0], [0, 0, 1, 2]])
    with exact_divisions():
        _check_det_and_minors(m)
        _check_rref(m, None)
    assert ExactInt.divisions > 0


def test_gaussian_matrices_match_the_field_oracle():
    h = Matrix([[F(2), I, F(1, 2)], [-I, F(3), F(0)], [F(1, 2), F(0), F(1)]])
    other = Matrix([[I, 1, 0], [F(1, 3), 0, -I], [0, 2, 1]])
    family = hodge_lefschetz.OperatorFamily(("a", "b"), (h, other))
    assert any(isinstance(v, GaussianRational) for m in family.matrices for row in m.numerators()[0] for v in row)
    for m in (h, other, h - Matrix.identity(3).scale(2)):
        _check_rref(m, None)
        _check_rref(m, 1)
        _check_det_and_minors(m)
    assert h * other == field_product(h, other)
    assert family.combine([F(1, 2), 3], 3) == field_combine(family, [F(1, 2), 3], 3)


def test_inconsistent_rational_system_on_both_routes():
    m = Matrix([[F(1, 2), F(1, 3)], [1, F(2, 3)]])
    assert solve_columns(m, [[1, 3]]) == [None]
    with field_route():
        assert solve_columns(m, [[1, 3]]) == [None]


def _replay(argv):
    """Every rref, rank, det and product input of one CLI run, each compared
    with the field oracle; returns the recorded calls."""
    calls = {"rref": [], "rank": [], "det": [], "mul": []}
    rref, rank, det, mul = Matrix.rref, Matrix.rank, Matrix.det, Matrix.__mul__

    def record(name, fn):
        def wrapper(self, *args):
            calls[name].append((self, *args))
            return fn(self, *args)

        return wrapper

    with patch.object(Matrix, "rref", record("rref", rref)), patch.object(Matrix, "rank", record("rank", rank)), patch.object(
        Matrix, "det", record("det", det)
    ), patch.object(Matrix, "__mul__", record("mul", mul)), redirect_stdout(io.StringIO()):
        assert cli.main(argv) == 0
    assert all(calls.values()), {name: len(cs) for name, cs in calls.items()}
    for c in calls["rref"]:
        (rr, pivots), (field_rr, field_pivots) = rref(*c), field_rref(*c)
        assert pivots == field_pivots
        assert rr.data[: len(pivots)] == field_rr.data[: len(pivots)]
    assert [rank(*c) for c in calls["rank"]] == [len(field_rref(*c)[1]) for c in calls["rank"]]
    assert [det(*c) for c in calls["det"]] == [field_det(*c) for c in calls["det"]]
    assert [mul(*c) for c in calls["mul"]] == [field_product(*c) for c in calls["mul"]]
    return calls


def test_integer_route_replays_a_polytope_check():
    _replay(["polytope", "check", str(FIXTURES / "cube4.json"), "--all", "--seed", "7", "--tuples", "1"])


def test_gaussian_route_replays_a_torus_check():
    calls = _replay(["torus", "check", str(FIXTURES / "torus2.json"), "--all", "--seed", "7", "--tuples", "1"])

    def gaussian(m):
        return any(isinstance(e, GaussianRational) and e.imag for row in m.data for e in row)

    # each kernel saw Q(i) input
    assert all(any(gaussian(c[0]) for c in cs) for cs in calls.values())


def test_no_kernel_takes_field_arithmetic(t2_module):
    """With Q(i) field arithmetic disabled, every kernel still runs on a torus
    module: + - * see no Fraction part, so they run on Z[i] numerators, and
    no kernel divides in Q(i)."""
    module = t2_module
    dim = module.dim
    form = module.form
    generator = module.family.matrices[2]
    reference = module.reference
    pencil = module.cone.combine(reference, 2)

    def ring_only(op):
        fn = getattr(GaussianRational, op)

        def checked(a, b):
            if any(type(part) is Fraction for x in (a, b) for part in (x.real, x.imag)):
                raise AssertionError(f"field arithmetic in a kernel: {a!r} {op} {b!r}")
            return fn(a, b)

        return checked

    def refuse(*args):
        raise AssertionError("division in Q(i) in a kernel")

    ops = {op: ring_only(op) for op in ("__add__", "__radd__", "__sub__", "__rsub__", "__mul__", "__rmul__")}
    ops |= {"__truediv__": refuse, "__rtruediv__": refuse}
    with ExitStack() as stack:
        for op, fn in ops.items():
            stack.enter_context(patch.object(GaussianRational, op, fn))
        assert form.rref()[1] == list(range(dim))
        assert generator.rref(dim // 2)[1]
        assert form.det()
        assert generator * generator == module.family.combine([0, 0, 1], dim) * generator
        assert module.family.combine(reference, dim) == module.operator(module.reference)
        assert first_nonpositive_minor(pencil) is None
        assert hodge_lefschetz.validate_structure(module).passed
    assert generator * generator == field_product(generator, generator)
    assert first_nonpositive_minor(pencil) == next(
        ((s, v) for s, v in enumerate(field_leading_minors(pencil), 1) if as_fraction(v) <= 0), None
    )


# ---------------------------------------------------------------------------
# Hermitian positivity with two oracles
# ---------------------------------------------------------------------------


def test_pd_identity_and_boundary():
    assert hermitian_pd(Matrix.identity(4)) is True
    assert hermitian_pd(Matrix([[0]])) is False


def test_pd_gaussian_example():
    h = Matrix([[F(2), I], [-I, F(2)]])
    assert hermitian_pd(h) is True
    assert list(exact._symmetric_pivots(h)) == [2, 3]


def test_first_nonpositive_minor():
    assert first_nonpositive_minor(Matrix.identity(3)) is None
    # minors 2, -1, ...: the second one is the first that is not positive
    h = Matrix([[F(2), F(1), F(0)], [F(1), F(0), F(0)], [F(0), F(0), F(5)]])
    assert first_nonpositive_minor(h) == (2, F(-1))
    assert first_nonpositive_minor(Matrix([[I * 0]])) == (1, 0)


def test_pd_requires_hermitian():
    with pytest.raises(NotHermitianError):
        hermitian_pd(Matrix([[F(0), F(1)], [F(2), F(0)]]))


def _charpoly_symmetric_functions(m):
    """Faddeev-LeVerrier: elementary symmetric functions of the spectrum.

    The recurrence produces det(tI - M) = t^n + c_1 t^(n-1) + ... + c_n with
    c_j = -tr(M B_{j-1}) / j; the j-th symmetric function is (-1)^j c_j.
    """
    n = m.rows
    b = Matrix.identity(n)
    out = []
    for step in range(1, n + 1):
        a = m * b
        trace = sum((a.data[i][i] for i in range(n)), Fraction(0))
        c = -as_fraction(trace) / step
        out.append(c if step % 2 == 0 else -c)
        b = a + Matrix.identity(n).scale(c)
    return out


def _probe_vectors(n):
    vecs = []
    for i in range(n):
        e = [Fraction(0)] * n
        e[i] = Fraction(1)
        vecs.append(list(e))
        for j in range(i + 1, n):
            for extra in (Fraction(1), Fraction(-1), I, -I):
                v = list(e)
                v[j] = extra
                vecs.append(v)
    return vecs


def _random_hermitian(rng, n):
    data = [[Fraction(0)] * n for _ in range(n)]
    for i in range(n):
        data[i][i] = Fraction(rng.randint(-3, 6))
        for j in range(i + 1, n):
            re = Fraction(rng.randint(-2, 2))
            im = Fraction(rng.randint(-2, 2))
            data[i][j] = GaussianRational(re, im)
            data[j][i] = GaussianRational(re, -im)
    return Matrix(data)


def test_pd_agrees_with_charpoly_and_probes():
    import random

    rng = random.Random(20240)
    for _ in range(60):
        n = rng.randint(1, 4)
        h = _random_hermitian(rng, n)
        verdict = hermitian_pd(h)
        sym = _charpoly_symmetric_functions(h)
        oracle = all(c > 0 for c in sym)
        assert verdict == oracle
        if verdict:
            for v in _probe_vectors(n):
                hv = h.apply(v)
                val = sum(
                    (v[i].conjugate() * hv[i] for i in range(n)),
                    Fraction(0),
                )
                assert as_fraction(val) > 0


def test_psd_agrees_with_charpoly():
    # semidefinite exactly when every elementary symmetric function of the
    # spectrum is >= 0; shifted by the smallest integer eigenvalue candidates,
    # so that singular semidefinite matrices occur
    import random

    rng = random.Random(20241)
    singular = 0
    for _ in range(80):
        n = rng.randint(1, 4)
        h = _random_hermitian(rng, n)
        shift = rng.randint(-2, 2)
        h = h - Matrix.identity(n).scale(F(shift))
        sym = _charpoly_symmetric_functions(h)
        assert hermitian_psd(h) == all(c >= 0 for c in sym)
        singular += hermitian_psd(h) and not hermitian_pd(h)
    assert singular


def test_psd_agrees_with_charpoly_on_singular_gram_matrices():
    # A A^H for a complex n x r A with r < n is semidefinite and singular;
    # a small negative shift of it is not
    rng = random.Random(20242)
    for _ in range(40):
        n = rng.randint(2, 6)
        r = rng.randint(1, n - 1)
        entry = lambda: F(rng.randint(-2, 2), rng.randint(1, 3))
        a = Matrix([[GaussianRational(entry(), entry()) for _ in range(r)] for _ in range(n)])
        gram = a * a.conjugate().transpose()
        for shift in (0, F(1, rng.randint(2, 50))):
            h = gram - Matrix.identity(n).scale(F(shift))
            sym = _charpoly_symmetric_functions(h)
            assert hermitian_psd(h) == all(c >= 0 for c in sym) == (shift == 0)


def test_psd_with_a_zero_first_pivot_agrees_with_charpoly():
    # the first pivot is 0: with a zero row it is passed over, without one
    # the matrix is indefinite
    cases = [
        (Matrix([[F(0), F(0), F(0)], [F(0), F(2), I], [F(0), -I, F(1)]]), True),
        (Matrix([[F(0), F(0)], [F(0), F(-1)]]), False),
        (Matrix([[F(0), F(1, 2), F(0)], [F(1, 2), F(2), F(0)], [F(0), F(0), F(1)]]), False),
        (Matrix([[F(0), I, F(0)], [-I, F(3), F(0)], [F(0), F(0), F(0)]]), False),
    ]
    for h, psd in cases:
        assert list(exact._symmetric_pivots(h))[0] == 0
        assert hermitian_psd(h) == all(c >= 0 for c in _charpoly_symmetric_functions(h)) == psd


def test_field_route_sends_the_hermitian_pivots_through_the_field_oracle():
    rng = random.Random(20243)
    zero_row = Matrix([[F(0), F(0), F(0)], [F(0), F(2, 3), I], [F(0), -I, F(5, 2)]])
    mats = [zero_row, Matrix([[F(0), F(1, 2)], [F(1, 2), F(1)]])]
    mats += [_random_hermitian(rng, rng.randint(1, 4)).scale(F(1, rng.randint(1, 3))) for _ in range(30)]
    expected = [(first_nonpositive_minor(h), hermitian_pd(h), hermitian_psd(h)) for h in mats]
    assert any(pd for _, pd, _ in expected) and any(psd and not pd for _, pd, psd in expected)
    calls = []

    def counted(h):
        calls.append(h)
        return field_symmetric_pivots(h)

    with patch.object(field_oracles, "field_symmetric_pivots", counted), field_route():
        assert [(first_nonpositive_minor(h), hermitian_pd(h), hermitian_psd(h)) for h in mats] == expected
    assert len(calls) == 3 * len(mats)


def test_psd_examples():
    assert hermitian_psd(Matrix([[F(1), F(1)], [F(1), F(1)]]))
    assert not hermitian_psd(Matrix([[F(1), F(2)], [F(2), F(1)]]))
    assert hermitian_psd(Matrix([[F(1), I], [-I, F(1)]]))  # eigenvalues 0 and 2
    assert not hermitian_psd(Matrix([[F(0), I], [-I, F(0)]]))  # eigenvalues -1 and 1
    assert hermitian_psd(Matrix.zeros(3, 3))
    assert hermitian_psd(Matrix.diagonal([F(0), F(2)]))
    assert not hermitian_psd(Matrix.diagonal([F(0), F(-1)]))
    assert not hermitian_pd(Matrix.diagonal([F(0), F(2)]))
    with pytest.raises(NotHermitianError):
        hermitian_psd(Matrix([[F(0), F(1)], [F(2), F(0)]]))


# ---------------------------------------------------------------------------
# polynomials and differential operators
# ---------------------------------------------------------------------------


def _poly(nvars, terms):
    return MultiPoly(nvars, terms)


def test_diff_single_variable():
    f = _poly(2, {(1, 1): 1})  # x1 x2
    assert apply_diff_op([1, 0], f) == _poly(2, {(0, 1): 1})


def test_diff_overdifferentiation_is_zero():
    f = _poly(2, {(1, 1): 1})
    assert not apply_diff_op([2, 0], f)


def test_diff_mixed_on_square_form():
    # (x1 + x2)^2 / 2 = x1^2/2 + x1 x2 + x2^2/2
    f = _poly(2, {(2, 0): F(1, 2), (1, 1): 1, (0, 2): F(1, 2)})
    assert apply_diff_op([1, 1], f) == _poly(2, {(0, 0): 1})


small_exponent = st.tuples(
    st.integers(min_value=0, max_value=2),
    st.integers(min_value=0, max_value=2),
    st.integers(min_value=0, max_value=2),
)


@st.composite
def small_poly(draw):
    n_terms = draw(st.integers(min_value=0, max_value=5))
    terms = {}
    for _ in range(n_terms):
        e = draw(small_exponent)
        c = draw(small_fraction)
        if c:
            terms[e] = terms.get(e, Fraction(0)) + c
    return MultiPoly(3, terms)


@settings(max_examples=40, deadline=None)
@given(small_exponent, small_exponent, small_poly())
def test_diff_ops_compose_additively(alpha, beta, f):
    lhs = apply_diff_op(alpha, apply_diff_op(beta, f))
    combined = tuple(a + b for a, b in zip(alpha, beta))
    assert lhs == apply_diff_op(combined, f)


@settings(max_examples=40, deadline=None)
@given(small_exponent, small_poly(), small_poly())
def test_diff_ops_are_linear(alpha, f, g):
    assert apply_diff_op(alpha, f + g) == apply_diff_op(alpha, f) + apply_diff_op(alpha, g)


def test_poly_det_matches_hand_expansion():
    x = variable(2, 0)
    y = variable(2, 1)
    one = MultiPoly.constant(2, 1)
    det = poly_det([[x, y], [one, x]])
    assert det == x * x - y


# ---------------------------------------------------------------------------
# scalar arithmetic and wire format
# ---------------------------------------------------------------------------


def test_gaussian_field_axioms_sample():
    a = GaussianRational(F(1, 2), F(-2, 3))
    b = GaussianRational(F(3), F(1, 5))
    assert (a * b) / b == a
    assert a * a.conjugate() == a.re * a.re + a.im * a.im
    assert a.conjugate().conjugate() == a
    assert (a + b).conjugate() == a.conjugate() + b.conjugate()


small_int = st.integers(min_value=-6, max_value=6)
# an int or a Fraction, 0 often, so values are often real
scalar_part = st.one_of(st.just(0), small_int, small_fraction)
# a computed value (real ones plain ints and Fractions) or a value built
# directly, whose imaginary part may be 0
gaussian_value = st.one_of(
    st.builds(exact.gaussian, scalar_part, scalar_part), st.builds(GaussianRational, scalar_part, scalar_part)
)


def _pair(x):
    return Fraction(x.real), Fraction(x.imag)


def _check_value(result, re, im):
    """``result`` is re + im i, a GaussianRational exactly when im != 0."""
    assert _pair(result) == (re, im)
    assert type(result) in ((GaussianRational,) if im else (int, Fraction)), repr(result)


@settings(max_examples=200, deadline=None)
@given(st.builds(GaussianRational, scalar_part, scalar_part), gaussian_value)
def test_gaussian_operations_match_the_formulas(a, b):
    (a0, a1), (b0, b1) = _pair(a), _pair(b)
    for x, y, (x0, x1), (y0, y1) in ((a, b, (a0, a1), (b0, b1)), (b, a, (b0, b1), (a0, a1))):
        _check_value(x + y, x0 + y0, x1 + y1)
        _check_value(x - y, x0 - y0, x1 - y1)
        _check_value(x * y, x0 * y0 - x1 * y1, x0 * y1 + x1 * y0)
        n = y0 * y0 + y1 * y1
        if n:  # one of x and y is a GaussianRational, whose / this is
            _check_value(x / y, (x0 * y0 + x1 * y1) / n, (x1 * y0 - x0 * y1) / n)
    _check_value(-a, -a0, -a1)
    _check_value(a.conjugate(), a0, -a1)


@settings(max_examples=100, deadline=None)
@given(scalar_part, scalar_part)
def test_equal_gaussian_values_hash_equal(re, im):
    a, b = GaussianRational(re, im), GaussianRational(Fraction(re), Fraction(im))
    assert a == b and hash(a) == hash(b)
    assert (a == re) == (not im)
    if not im:
        assert hash(a) == hash(re) == hash(Fraction(re))


@settings(max_examples=200, deadline=None)
@given(small_int, small_int, small_int, small_int)
def test_floor_division_is_exact_in_zi(a0, a1, b0, b1):
    a, b = exact.gaussian(a0, a1), exact.gaussian(b0, b1)
    if b:
        for product in (a * b, b * a):
            _check_value(product // b, Fraction(a0), Fraction(a1))


@settings(max_examples=200, deadline=None)
@given(gaussian_value)
def test_scalar_wire_encoding_round_trips(x):
    back = parse_scalar(format_scalar(x))
    assert back == x
    assert type(back) is (GaussianRational if x.imag else Fraction)


def test_scalar_exponent_notation_is_refused():
    # Fraction() reads "1e10000000" by writing out every digit, for seconds
    for text in ("1e5", "1E5", "2.5e-3", "1e5 i", "1+1e5 i", "1e5+1 i", "1e10000000"):
        with pytest.raises(ValueError, match="exponent"):
            parse_scalar(text)


def test_scalar_wire_round_trips():
    # real input of any type is written as format_rational writes it
    cases = [
        (Fraction(0), "0"),
        (Fraction(-1), "-1"),
        (Fraction(3, 2), "3/2"),
        (Fraction(-7, 4), "-7/4"),
        (0, "0"),
        (-5, "-5"),
        (12, "12"),
        (True, "1"),
        (False, "0"),
        (GaussianRational(0, 1), "1 i"),
        (GaussianRational(0, -1), "-1 i"),
        (GaussianRational(F(1, 2), F(1, 3)), "1/2+1/3 i"),
        (GaussianRational(F(-1, 2), F(-5)), "-1/2-5 i"),
        (GaussianRational(F(2), 0), "2"),
        (GaussianRational(0, 0), "0"),
    ]
    for value, text in cases:
        assert format_scalar(value) == text, value
        if not isinstance(value, GaussianRational):
            assert format_rational(value) == text, value
        back = parse_scalar(text)
        assert back == value, (text, back)
        assert isinstance(back, GaussianRational if value.imag else Fraction), text


def test_scalar_parse_examples():
    assert parse_scalar("3/2") == F(3, 2)
    assert parse_scalar("-1") == F(-1)
    assert parse_scalar("1/2+1/3 i") == GaussianRational(F(1, 2), F(1, 3))
    assert parse_scalar("1/2-1/3 i") == GaussianRational(F(1, 2), F(-1, 3))
    assert parse_scalar("2 i") == GaussianRational(0, 2)
    assert parse_scalar("-2/3 i") == GaussianRational(0, F(-2, 3))
    assert parse_scalar("i") == I
    assert parse_scalar("-i") == -I
    assert parse_scalar("1/2 + 1/3 i") == GaussianRational(F(1, 2), F(1, 3))
    # every "0" is one shared Fraction; other spellings of zero are read too
    assert parse_scalar("0") is parse_scalar("0")
    assert type(parse_scalar("0")) is Fraction and parse_scalar("0") == 0
    for text in (" 0", "-0", "0/3", "00"):
        assert parse_scalar(text) == 0 and type(parse_scalar(text)) is Fraction
    for text in ("", " ", "one half", "0x", "0.0.0", "i i"):
        with pytest.raises(ValueError):
            parse_scalar(text)
    for text in ("1/0", "0/0", "1/0 i", "2+1/0 i", "1/0-1 i"):
        with pytest.raises(ValueError, match="zero denominator"):
            parse_scalar(text)


def test_echelon_basis_is_canonical():
    b1 = echelon_basis([[F(2), F(0)], [F(2), F(2)]])
    b2 = echelon_basis([[F(1), F(1)], [F(0), F(3)], [F(1), F(4)]])
    assert b1 == b2 == [(F(1), F(0)), (F(0), F(1))]
