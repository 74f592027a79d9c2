"""Exact arithmetic substrate: Gaussian rationals, matrices, polynomials.

Every scalar in this package lives in Q or Q(i): an ``int`` or a
``fractions.Fraction`` when real, and a :class:`GaussianRational` when not.
One Gaussian type serves the field and its ring of integers Z[i], and every
operation on it returns a real result as a plain ``int`` or ``Fraction``.
All linear algebra (kernels, solves, determinants, positivity tests) is
carried out by exact elimination, so every rank and sign decision is a
statement about the input and never an approximation.  No floating point
appears anywhere.

A :class:`Matrix` carries its entries as numerators in Z[i] over one
positive integer denominator, and each kernel has one route on them:
``rref``, ``det``, products, sums and slices read the numerators and
return a matrix of numerators, fraction-free, so a chain of kernels builds
no scalar in between.  Every rank, RREF, kernel, span and inverse is one
sparse elimination, :func:`greedy_echelon`, on the nonzero numerators of
the rows or columns; the determinant and the Hermitian sign tests read the
pivots of one Bareiss elimination (Bareiss 1968).  Scalars are built where
a value leaves the kernels (a returned vector, a witness, a report, a
file), and read into numerators (:func:`integer_rows`) where they enter.
A real numerator is a plain ``int``, so rational input runs on Python
integers alone; a complex one is a :class:`GaussianRational` with ``int``
parts.  Fraction-free elimination needs only exact division in an
integral domain, and Z[i] is one; the sparse elimination keeps its vectors
primitive by their gcd in Z[i], found by Euclid's algorithm.

Wire encoding of scalars: a rational is written ``"p/q"`` with the ``/q``
omitted when the denominator is 1; a Gaussian rational is ``"p/q+r/s i"``
with either part omissible.
"""

from __future__ import annotations

import math
from fractions import Fraction
from itertools import permutations, takewhile
from math import gcd, lcm
from typing import Iterable, Sequence


class NotHermitianError(ValueError):
    """Raised when a matrix fed to a Hermitian test differs from its adjoint."""


# ---------------------------------------------------------------------------
# Scalars
# ---------------------------------------------------------------------------


class GaussianRational:
    """An element ``re + im*i`` of Q(i) whose parts are ``int`` or ``Fraction``.

    One type serves both roles: a value with two ``int`` parts is an element
    of Z[i], a numerator of the exact kernels, on which ``//`` is exact
    division; any value is an element of the field, on which ``/`` divides.
    Every operation returns a real result as the plain ``int`` or
    ``Fraction`` of its real part, as :func:`gaussian` builds it, so a
    computed value is a ``GaussianRational`` exactly when it is not real.
    Operands mix freely with ``int`` and ``Fraction``.  Values are immutable
    by convention.  ``.real``/``.imag``/``.conjugate()`` follow the stdlib
    numeric protocol, which lets generic code treat the three types
    uniformly.
    """

    __slots__ = ("re", "im")

    def __init__(self, re=0, im=0):
        self.re = re
        self.im = im

    # -- numeric protocol ---------------------------------------------------

    def conjugate(self):
        return gaussian(self.re, -self.im)

    def norm(self):
        return self.re * self.re + self.im * self.im

    def __add__(self, other):
        if isinstance(other, GaussianRational):
            return gaussian(self.re + other.re, self.im + other.im)
        return GaussianRational(self.re + other, self.im) if self.im else self.re + other

    __radd__ = __add__

    def __sub__(self, other):
        if isinstance(other, GaussianRational):
            return gaussian(self.re - other.re, self.im - other.im)
        return GaussianRational(self.re - other, self.im) if self.im else self.re - other

    def __rsub__(self, other):
        return GaussianRational(other - self.re, -self.im) if self.im else other - self.re

    def __mul__(self, other):
        if isinstance(other, GaussianRational):
            return gaussian(self.re * other.re - self.im * other.im, self.re * other.im + self.im * other.re)
        return GaussianRational(self.re * other, self.im * other) if self.im and other else self.re * other

    __rmul__ = __mul__

    def __truediv__(self, other):
        if isinstance(other, GaussianRational):
            n = other.norm()
            return gaussian(
                Fraction(self.re * other.re + self.im * other.im, n),
                Fraction(self.im * other.re - self.re * other.im, n),
            )
        return gaussian(Fraction(self.re, other), Fraction(self.im, other))

    def __rtruediv__(self, other):
        n = self.norm()
        return gaussian(Fraction(other * self.re, n), Fraction(-other * self.im, n))

    def __floordiv__(self, other):
        """Exact division in Z[i]: the quotient of Z[i] values when it lies in Z[i]."""
        if isinstance(other, GaussianRational):
            return self * other.conjugate() // other.norm()
        return gaussian(self.re // other, self.im // other)

    def __rfloordiv__(self, other):
        return other * self.conjugate() // self.norm()

    def __neg__(self):
        return gaussian(-self.re, -self.im)

    def __pos__(self):
        return self

    def __bool__(self):
        return bool(self.re) or bool(self.im)

    def __eq__(self, other):
        if isinstance(other, GaussianRational):
            return self.re == other.re and self.im == other.im
        if isinstance(other, (int, Fraction)):
            return not self.im and self.re == other
        return NotImplemented

    def __hash__(self):
        # matches hash(re) when the value is real, and ints and Fractions of
        # one value hash alike, keeping the cross-type __eq__ consistent
        if not self.im:
            return hash(self.re)
        return hash((self.re, self.im))

    def __repr__(self):
        return f"GaussianRational({self.re!r}, {self.im!r})"

    def __str__(self):
        return format_scalar(self)

    def as_integer_ratio(self):
        """(n, d) with this number n / d: n in Z[i], an ``int`` when real, and
        d > 0 the least common denominator of the two parts."""
        (a, b), (c, e) = self.re.as_integer_ratio(), self.im.as_integer_ratio()
        d = lcm(b, e)
        return gaussian(a * (d // b), c * (d // e)), d


# .real and .imag read the slots themselves, as fast as .re and .im
GaussianRational.real, GaussianRational.imag = GaussianRational.re, GaussianRational.im


def gaussian(re, im):
    """re + im*i: ``re`` itself when im is 0, so a real value is never a
    :class:`GaussianRational`."""
    return GaussianRational(re, im) if im else re


I = GaussianRational(0, 1)

IMAGINARY_UNIT_POWERS = (1, I, -1, -I)


def i_power(n: int):
    """i**n, returned as an ``int`` when real so rational code stays rational."""
    return IMAGINARY_UNIT_POWERS[n % 4]


def conj(x):
    """Complex conjugate for int, Fraction, or GaussianRational."""
    return x.conjugate()


def as_fraction(x) -> Fraction:
    """Convert a real scalar to Fraction, rejecting nonreal values."""
    if isinstance(x, GaussianRational):
        raise ValueError(f"scalar {x} is not real")
    return x if isinstance(x, Fraction) else Fraction(x)


# -- wire encoding ----------------------------------------------------------


def format_rational(x) -> str:
    """``"p/q"``, or ``"p"`` when q is 1, at any length: ``str`` of an int
    refuses more than 4300 digits, and ``Decimal`` has no such limit."""
    x = x if type(x) is Fraction else Fraction(x)
    try:
        return str(x)
    except ValueError:
        from decimal import Decimal  # imported here: this path is rare, and the import is not free

        p, q = str(Decimal(x.numerator)), str(Decimal(x.denominator))
        return p if q == "1" else f"{p}/{q}"


def format_scalar(x) -> str:
    """Encode a scalar as ``"p/q"`` or ``"p/q+r/s i"``."""
    if not isinstance(x, GaussianRational):
        return format_rational(x)
    re, im = x.re, x.im
    if not im:
        return format_rational(re)
    im_str = f"{format_rational(im)} i"
    if not re:
        return im_str
    if im > 0:
        return f"{format_rational(re)}+{im_str}"
    return f"{format_rational(re)}-{format_rational(-im)} i"


# the value of every "0" that parse_scalar reads: most entries of a module file
ZERO = Fraction(0)


def parse_rational(text: str) -> Fraction:
    """Decode ``"p/q"``.  ``Fraction()`` also reads exponent notation, which
    the wire format does not have and which it expands to any number of
    digits ("1e10000000" takes seconds), so an exponent is refused.

    Raises ValueError for any text that is not a rational, a zero
    denominator included.
    """
    if "e" in text or "E" in text:
        raise ValueError(f"exponent notation in scalar {text!r}")
    try:
        return Fraction(text)
    except ZeroDivisionError as exc:
        raise ValueError(f"zero denominator in scalar {text!r}") from exc


def parse_scalar(s: str):
    """Decode the wire encoding; returns Fraction or GaussianRational.

    Raises ValueError for any text that is not a scalar (see
    :func:`parse_rational`).
    """
    if s == "0":
        return ZERO
    text = s.strip().replace(" ", "")
    if not text:
        raise ValueError("empty scalar string")
    if not text.endswith("i"):
        return parse_rational(text)
    # split a trailing signed rational, its 1 omissible, from a real part
    body = text[:-1]
    pos = max(body.rfind("+", 1), body.rfind("-", 1), 0)
    re_text, im_text = body[:pos], body[pos:]
    im = parse_rational(im_text + "1" if im_text in ("", "+", "-") else im_text)
    return gaussian(parse_rational(re_text) if re_text else ZERO, im)


# ---------------------------------------------------------------------------
# Exact matrices
# ---------------------------------------------------------------------------


class Matrix:
    """Matrix over Q or Q(i), immutable: rows of numerators in Z[i]
    over one positive ``int`` denominator, which the kernels read and build
    (:meth:`over`), and rows of scalars ``data``, tuples built on first read.
    A matrix made from scalars holds their numerators (:func:`integer_rows`)
    in their place once a kernel reads it.  Its sparse view
    (:meth:`sparse_numerators`) is derived on first read, or kept from the
    reader that built the matrix from it (:meth:`from_sparse`), whose dense
    rows are then built on their first read.  Zero-row and zero-column
    shapes are fully supported since graded blocks of the modules built
    elsewhere are frequently empty.
    """

    __slots__ = ("rows", "cols", "_data", "_numerators", "_sparse")  # _sparse unset until read

    def __init__(self, data: Sequence[Sequence], rows: int | None = None, cols: int | None = None):
        data = tuple(map(tuple, data))
        self.rows = len(data) if rows is None else rows
        if cols is None:
            cols = len(data[0]) if data else 0
        self.cols = cols
        for row in data:
            if len(row) != cols:
                raise ValueError("ragged matrix rows")
        if len(data) != self.rows:
            raise ValueError("row count mismatch")
        self._data, self._numerators = data, None

    # -- constructors -------------------------------------------------------

    @classmethod
    def over(cls, numerators: Sequence[Sequence], d: int, cols: int) -> "Matrix":
        """The matrix numerators / d, for rows of Z[i] values that no one
        writes afterwards and an ``int`` d > 0."""
        m = cls.__new__(cls)
        m.rows, m.cols, m._data, m._numerators = len(numerators), cols, None, (numerators, d)
        return m

    @classmethod
    def from_sparse(cls, rows: list[dict], d: int, cols: int) -> "Matrix":
        """The matrix with ``rows[i][j]`` / d at each (i, j) of the dicts and
        zeros elsewhere, which keeps ``(rows, d)`` as its sparse view and
        builds its dense rows on their first read (:meth:`numerators`)."""
        m = cls.__new__(cls)
        m.rows, m.cols, m._data, m._numerators, m._sparse = len(rows), cols, None, None, (rows, d)
        return m

    @classmethod
    def zeros(cls, rows: int, cols: int) -> "Matrix":
        return cls.over([[0] * cols] * rows, 1, cols)

    @classmethod
    def identity(cls, n: int) -> "Matrix":
        return cls.over([[int(i == j) for j in range(n)] for i in range(n)], 1, n)

    @classmethod
    def from_columns(cls, columns: Sequence[Sequence], nrows: int | None = None) -> "Matrix":
        columns = [list(c) for c in columns]
        if nrows is None:
            if not columns:
                raise ValueError("cannot infer row count from zero columns")
            nrows = len(columns[0])
        ints, d = integer_rows(columns)
        return cls.over([[c[i] for c in ints] for i in range(nrows)], d, len(columns))

    @classmethod
    def from_blocks(cls, rows: int, cols: int, blocks: Iterable[tuple]) -> "Matrix":
        """The rows x cols matrix that holds each matrix of ``blocks``, given
        as (row indices, column indices, matrix), at those rows and columns,
        and zeros elsewhere."""
        blocks = list(blocks)
        denom = lcm(*(m.numerators()[1] for *_, m in blocks))
        out = [[0] * cols for _ in range(rows)]
        for row_idx, col_idx, m in blocks:
            num, d = m.numerators()
            for i, row in zip(row_idx, num):
                for j, v in zip(col_idx, row):
                    out[i][j] = v * (denom // d)
        return cls.over(out, denom, cols)

    @classmethod
    def diagonal(cls, entries: Sequence) -> "Matrix":
        (ints,), d = integer_rows([entries])
        return cls.over([[e if i == j else 0 for j in range(len(ints))] for i, e in enumerate(ints)], d, len(ints))

    @property
    def data(self) -> tuple[tuple, ...]:
        """The rows of scalars, built from the numerators when first read."""
        if self._data is None:
            rows, d = self.numerators()
            self._data = tuple(tuple(fractions_over(row, d)) for row in rows)
        return self._data

    def numerators(self) -> tuple[Sequence[Sequence], int]:
        """The rows of numerators in Z[i] and their one denominator d > 0,
        which no caller may write."""
        if self._numerators is None:
            if self._data is None:  # from_sparse: the dense rows of its view
                rows, d = self._sparse
                self._numerators = [[0] * self.cols for _ in rows], d
                for out, row in zip(self._numerators[0], rows):
                    for j, e in row.items():
                        out[j] = e
            else:
                self._numerators, self._data = integer_rows(self._data), None
        return self._numerators

    def sparse_numerators(self) -> tuple[list[dict], int]:
        """The nonzero numerators in Z[i] of each row as one ``{col: value}``
        dict, and the denominator d > 0, which no caller may write."""
        try:
            return self._sparse
        except AttributeError:
            rows, d = self.numerators()
            self._sparse = [{j: e for j, e in enumerate(row) if e} for row in rows], d
            return self._sparse

    # -- basic structure ----------------------------------------------------

    def __eq__(self, other):
        if not isinstance(other, Matrix):
            return NotImplemented
        if (self.rows, self.cols) != (other.rows, other.cols):
            return False
        if self._data is not None and other._data is not None:
            return self._data == other._data
        (a, da), (b, db) = self.numerators(), other.numerators()
        return all(x * db == y * da for ra, rb in zip(a, b) for x, y in zip(ra, rb))

    def __hash__(self):
        return hash((self.rows, self.cols))

    def __repr__(self):
        return f"Matrix({self.rows}x{self.cols})"

    def __getitem__(self, ij):
        i, j = ij
        return self.data[i][j]

    def column(self, j: int) -> list:
        return [row[j] for row in self.data]

    def columns(self) -> list[list]:
        return [self.column(j) for j in range(self.cols)]

    def is_zero(self) -> bool:
        return not any(map(any, self.numerators()[0]))

    def is_square(self) -> bool:
        return self.rows == self.cols

    def transpose(self) -> "Matrix":
        rows, d = self.numerators()
        return Matrix.over([[row[j] for row in rows] for j in range(self.cols)], d, self.rows)

    def conjugate(self) -> "Matrix":
        rows, d = self.numerators()
        return Matrix.over([[conj(e) for e in row] for row in rows], d, self.cols)

    def is_hermitian(self) -> bool:
        """Equal to its adjoint: the numerators are, the denominator being real."""
        rows, _ = self.numerators()
        return self.is_square() and all(a == conj(b) for row, col in zip(rows, zip(*rows)) for a, b in zip(row, col))

    def submatrix(self, row_idx: Sequence[int], col_idx: Sequence[int]) -> "Matrix":
        rows, d = self.numerators()
        return Matrix.over([[rows[i][j] for j in col_idx] for i in row_idx], d, len(col_idx))

    # -- arithmetic ----------------------------------------------------------

    def __add__(self, other: "Matrix") -> "Matrix":
        if (self.rows, self.cols) != (other.rows, other.cols):
            raise ValueError("shape mismatch")
        (a, da), (b, db) = self.numerators(), other.numerators()
        d = lcm(da, db)
        sa, sb = d // da, d // db
        return Matrix.over([[x * sa + y * sb for x, y in zip(ra, rb)] for ra, rb in zip(a, b)], d, self.cols)

    def __sub__(self, other: "Matrix") -> "Matrix":
        return self + -other

    def __neg__(self) -> "Matrix":
        return self.scale(-1)

    def scale(self, s) -> "Matrix":
        (sn, sd), (rows, d) = s.as_integer_ratio(), self.numerators()
        return Matrix.over([[sn * e for e in row] for row in rows], d * sd, self.cols)

    def __mul__(self, other: "Matrix") -> "Matrix":
        if not isinstance(other, Matrix):
            return NotImplemented
        if self.cols != other.rows:
            raise ValueError(f"cannot multiply {self.rows}x{self.cols} by {other.rows}x{other.cols}")
        left, da = self.numerators()
        right, db = other.numerators()
        nonzero = [[(j, y) for j, y in enumerate(row) if y] for row in right]
        out = []
        for row in left:
            acc = [0] * other.cols
            for x, entries in zip(row, nonzero):
                if x:
                    for j, y in entries:
                        acc[j] += x * y
            out.append(acc)
        return Matrix.over(out, da * db, other.cols)

    def apply(self, vec: Sequence) -> list:
        """Matrix-vector product on numerators, skipping zero entries."""
        if len(vec) != self.cols:
            raise ValueError("vector length mismatch")
        rows, d = self.numerators()
        (x,), dx = integer_rows([vec])
        out = [0] * self.rows
        for j, v in enumerate(x):
            if v:
                for i, row in enumerate(rows):
                    if row[j]:
                        out[i] += row[j] * v
        return fractions_over(out, d * dx)

    # -- elimination-based queries -------------------------------------------

    def rref(self) -> tuple["Matrix", list[int]]:
        """Reduced row echelon form and the list of pivot columns, read off
        one :func:`greedy_echelon` of the columns: the columns it keeps are
        the pivots, and each column's coordinates over them are its column
        of the form, whose rows below the rank are zero."""
        pivots, coords = greedy_echelon(_columns(self))
        d = lcm(*(s for _, s in coords))
        out = [[0] * self.cols for _ in range(self.rows)]
        for j, (c, s) in enumerate(coords):
            for r, x in c.items():
                out[r][j] = x * (d // s)
        return Matrix.over(out, d, self.cols), pivots

    def rank(self) -> int:
        """The number of rows, or of columns when they are fewer, that
        :func:`greedy_echelon` keeps, which carries no coordinates here."""
        return len(_greedy_echelon(self.sparse_numerators()[0] if self.rows <= self.cols else _columns(self), False)[0])

    def det(self):
        """Exact determinant: :func:`integer_det` of the numerators over d,
        divided by d**n."""
        if not self.is_square():
            raise ValueError("determinant of non-square matrix")
        rows, d = self.numerators()
        return fractions_over([integer_det(rows)], d**self.rows)[0]

    def inverse(self) -> "Matrix":
        """Exact inverse; raises ValueError when singular."""
        if not self.is_square():
            raise ValueError("inverse of non-square matrix")
        n = self.rows
        rr, pivots = hstack(self, Matrix.identity(n)).rref()
        if pivots != list(range(n)):
            raise ValueError("matrix is singular")
        return rr.submatrix(range(n), range(n, 2 * n))


def _columns(m: Matrix) -> list[dict]:
    """The nonzero numerators of each column of ``m`` as one ``{row: value}`` dict."""
    columns = [{} for _ in range(m.cols)]
    for i, row in enumerate(m.sparse_numerators()[0]):
        for j, e in row.items():
            columns[j][i] = e
    return columns


def hstack(first: Matrix, *rest: Matrix) -> Matrix:
    """The matrices side by side, in one pass over their numerators."""
    blocks = (first, *rest)
    if any(m.rows != first.rows for m in rest):
        raise ValueError("row mismatch in hstack")
    parts = [m.numerators() for m in blocks]
    d = lcm(*(e for _, e in parts))
    out = [[] for _ in range(first.rows)]
    for rows, e in parts:
        s = d // e
        for acc, row in zip(out, rows):
            acc.extend(row if s == 1 else [x * s for x in row])
    return Matrix.over(out, d, sum(m.cols for m in blocks))


def integer_det(rows: Sequence[Sequence]) -> int:
    """Determinant of a square matrix over Z[i] (ints where real) by Bareiss
    elimination with row exchanges: the last :func:`_bareiss_step` pivot,
    pivot s being the leading minor of size s + 1 of the exchanged matrix,
    signed by the exchanges; 0 at a column without a pivot."""
    m = [list(row) for row in rows]
    n = len(m)
    lag, prev, sign = [1] * n, 1, 1
    for c in range(n):
        if not m[c][c]:
            pr = next((i for i in range(c + 1, n) if m[i][c]), None)
            if pr is None:
                return 0
            m[c], m[pr], lag[c], lag[pr] = m[pr], m[c], lag[pr], lag[c]
            sign = -sign
        prev = _bareiss_step(m, c, lag, prev)
    return sign * prev


def _bareiss_step(m: list[list], c: int, lag: list, prev):
    """One step of Bareiss elimination over Z[i], in place: bring row c up
    to date with the last pivot ``prev`` and return its pivot m[c][c];
    when that is not 0, clear the column below it.  Every division is
    exact, an updated entry being a minor of the input.  A row with a zero
    in the pivot column would only be scaled by pivot / prev, so it waits:
    ``lag[i]`` is the pivot that row i's last update divided by."""
    top, n = m[c], len(m)
    if lag[c] != prev:
        for j in range(c, n):
            if top[j]:
                top[j] = top[j] * prev // lag[c]
    pivot = top[c]
    for i in range(c + 1, n) if pivot else ():
        row = m[i]
        a = row[c]
        if not a:
            continue
        for j in range(c + 1, n):
            y = top[j]
            if y:
                row[j] = (pivot * row[j] - a * y) // lag[i]
            elif row[j]:
                row[j] = pivot * row[j] // lag[i]
        lag[i] = pivot
    return pivot


# -- numerators ----------------------------------------------------------------


def integer_rows(rows: Iterable[Iterable]) -> tuple[list[list], int]:
    """Rows of scalars times one common denominator d > 0 of their entries,
    and d: numerators in Z[i], plain ints where real."""
    ratios = [[c.as_integer_ratio() if c else (0, 1) for c in row] for row in rows]
    d = lcm(*{q for row in ratios for _, q in row})
    return [[p * (d // q) for p, q in row] for row in ratios], d


def _gcd(*values) -> int:
    """The gcd of the real and imaginary parts of ``values`` in Z[i]."""
    try:
        return gcd(*values)
    except TypeError:  # a complex value among them
        return gcd(*(v.real for v in values), *(v.imag for v in values))


def _round_div(a: int, n: int) -> int:
    """a / n rounded to a nearest integer, for n > 0."""
    return divmod(2 * a + n, 2 * n)[0]


def _gaussian_gcd(values) -> tuple[int, int]:
    """The parts of a gcd in Z[i] of ``values``, by Euclid's algorithm: a -
    q b, for q the parts of a conj(b) / |b|^2 rounded, has at most half
    the norm of b.  It stops early at a unit."""
    ar = ai = 0
    for v in values:
        br, bi = v.real, v.imag
        while br or bi:
            n = br * br + bi * bi
            qr, qi = _round_div(ar * br + ai * bi, n), _round_div(ai * br - ar * bi, n)
            ar, ai, br, bi = br, bi, ar - qr * br + qi * bi, ai - qr * bi - qi * br
        if ar * ar + ai * ai == 1:
            break
    return ar, ai


def _gaussian_content(values: list):
    """A gcd in Z[i] of ``values``, or 1 when that is a unit: a common
    factor that is not a unit divides every norm, so Euclid's algorithm
    (:func:`_gaussian_gcd`) runs only when the norms have a common factor."""
    if gcd(*(x.real * x.real + x.imag * x.imag for x in values)) == 1:
        return 1
    gr, gi = _gaussian_gcd(values)
    return gaussian(gr, gi) if gr * gr + gi * gi > 1 else 1


def fractions_over(numerators: Sequence, d: int) -> list:
    """The scalars v / d for v in Z[i], each zero the shared ``ZERO``; every
    caller passes a positive ``int`` d, a denominator of :meth:`Matrix.over`
    or :func:`integer_rows` or a product or power of those."""
    return [
        (Fraction(v, d) if type(v) is int else gaussian(Fraction(v.real, d), Fraction(v.imag, d))) if v else ZERO
        for v in numerators
    ]


# -- the contract operations -------------------------------------------------


def kernel_basis(m: Matrix) -> tuple[list[tuple], int]:
    """Exact kernel basis and rank; rank + len(basis) == m.cols."""
    rr, pivots = m.rref()
    rows, d = rr.numerators()
    pivot_set = set(pivots)
    free = [c for c in range(m.cols) if c not in pivot_set]
    basis = []
    for f in free:
        v = [0] * m.cols
        v[f] = d
        for r, c in enumerate(pivots):
            v[c] = -rows[r][f]
        basis.append(tuple(fractions_over(v, d)))
    return basis, len(pivots)


def _symmetric_pivots(h: Matrix):
    """The diagonal pivots, in order, of fraction-free symmetric elimination
    (:func:`_bareiss_step`) of the numerators of a Hermitian ``h`` over
    their denominator d.  While the pivots before it are positive, pivot s
    is the leading principal minor of size s + 1 times d**(s + 1).  A zero
    pivot is passed over when its row is zero, and ends the elimination
    when it is not."""
    m = [list(row) for row in h.numerators()[0]]
    lag, prev = [1] * len(m), 1
    for c in range(len(m)):
        pivot = _bareiss_step(m, c, lag, prev)
        yield pivot
        if pivot:
            prev = pivot
        elif any(m[c][c + 1 :]):
            return


def first_nonpositive_minor(h: Matrix) -> tuple[int, object] | None:
    """Size and value of the first leading principal minor of a Hermitian
    ``h`` that is not positive; None when ``h`` is positive definite
    (Sylvester's criterion).  The minors are the :func:`_symmetric_pivots`,
    read up to the first that is not positive, which alone is built as a
    Fraction."""
    if not h.is_square():
        raise ValueError("minors of non-square matrix")
    for size, pivot in enumerate(_symmetric_pivots(h), 1):
        if pivot <= 0:
            return size, fractions_over([pivot], h.numerators()[1] ** size)[0]
    return None


def hermitian_pd(h: Matrix) -> bool:
    """Positive definiteness of a Hermitian matrix by Sylvester's criterion.

    Raises :class:`NotHermitianError` when ``h`` is not equal to its
    conjugate transpose; :func:`first_nonpositive_minor` gives the failure
    witness.
    """
    if not h.is_hermitian():
        raise NotHermitianError("matrix is not Hermitian")
    return first_nonpositive_minor(h) is None


def hermitian_psd(h: Matrix) -> bool:
    """Positive semidefiniteness of a Hermitian matrix: no
    :func:`_symmetric_pivots` pivot is negative, and each zero one has a
    zero row.  The Schur complement of a positive pivot is semidefinite
    exactly when the matrix is, and a zero diagonal entry of a semidefinite
    matrix has a zero row.  On a diagonal ``h``, every entry is >= 0."""
    if not h.is_hermitian():
        raise NotHermitianError("matrix is not Hermitian")
    return sum(1 for _ in takewhile(lambda p: p >= 0, _symmetric_pivots(h))) == h.rows


# ---------------------------------------------------------------------------
# Subspace utilities (vectors are sequences of scalars in ambient coordinates)
# ---------------------------------------------------------------------------


def echelon_basis(vectors: Iterable[Sequence] | Matrix) -> list[tuple]:
    """Canonical (RREF) basis of the span of the given vectors, or of the
    rows of a matrix."""
    rr, pivots = (vectors if isinstance(vectors, Matrix) else Matrix(vectors)).rref()
    rows, d = rr.numerators()
    return [tuple(fractions_over(row, d)) for row in rows[: len(pivots)]]


def independent_indices(vectors: Iterable[Sequence]) -> list[int]:
    """Indices of the vectors a greedy scan keeps: each one not in the span
    of those before it, as :func:`greedy_echelon` keeps them."""
    rows, _ = integer_rows(vectors)
    return _greedy_echelon(({j: e for j, e in enumerate(row) if e} for row in rows), False)[0]


def greedy_echelon(vectors: Iterable[dict]) -> tuple[list[int], list[tuple[dict, int]]]:
    """The indices of the sparse vectors ``{key: value}`` over Z[i], keyed
    by values of one ordered type, outside the span of those before them,
    and each one's coordinates over these as ``({kept position: c}, s)``:
    c / s with c in Z[i] and an ``int`` s > 0, in lowest terms.

    Fraction-free: v becomes p v - f b at the pivot (largest key) of each
    kept remainder b, p and f divided by the gcd of their parts, and is
    kept primitive, together with the combination of kept vectors it
    carries, by their gcd in Z[i] (:func:`_gaussian_content` when one is
    complex).  A vector with a remainder is kept; one without reads its
    coordinates off that combination, s the coefficient of v itself, made
    a positive ``int`` through its conjugate.
    """
    return _greedy_echelon(vectors, True)


def _greedy_echelon(vectors: Iterable[dict], coordinates: bool) -> tuple[list[int], list[tuple[dict, int]]]:
    """:func:`greedy_echelon`; without ``coordinates``, the kept indices and
    no coordinates, each vector carrying an empty combination (a carried one
    is never empty: it holds v's own coefficient), for a caller that reads
    only which vectors are kept (a rank, a span basis)."""
    kept, coords, reduced = [], [], []  # reduced: (pivot, value there, remainder, its combination)
    for n, v in enumerate(vectors):
        v, combo = dict(v), {len(kept): 1} if coordinates else {}
        for pivot, p, b, b_combo in reduced:
            if f := v.get(pivot):
                p, f = p // (g := _gcd(p, f)), f // g
                if p != 1:
                    v = {t: p * x for t, x in v.items()}
                    if combo:
                        combo = {t: p * x for t, x in combo.items()}
                for w, u in ((v, b), (combo, b_combo)) if combo else ((v, b),):
                    for t, y in u.items():
                        if x := w.get(t, 0) - f * y:
                            w[t] = x
                        else:
                            del w[t]
                try:
                    g = gcd(*v.values(), *combo.values())
                except TypeError:  # a complex value among them
                    g = _gaussian_content([*v.values(), *combo.values()])
                if g != 1:
                    v, combo = {t: x // g for t, x in v.items()}, {t: x // g for t, x in combo.items()}
        if v:
            pivot = max(v)
            if coordinates:
                coords.append(({len(kept): 1}, 1))
            kept.append(n)
            reduced.append((pivot, v[pivot], v, combo))
            continue
        if not coordinates:
            continue
        s = combo.pop(len(kept))
        if isinstance(s, GaussianRational):
            u, s = -s.conjugate(), s.norm()
            combo = {m: u * x for m, x in combo.items()}
            if (g := _gcd(s, *combo.values())) > 1:
                combo, s = {m: x // g for m, x in combo.items()}, s // g
        elif s > 0:
            combo = {m: -x for m, x in combo.items()}
        coords.append((combo, abs(s)))
    return kept, coords


# ---------------------------------------------------------------------------
# Multivariate polynomials over Q
# ---------------------------------------------------------------------------


class MultiPoly:
    """Polynomial in ``nvars`` variables with exact rational coefficients.

    Terms are stored sparsely as exponent-tuple -> coefficient, with zero
    coefficients dropped eagerly.
    """

    __slots__ = ("nvars", "terms")

    def __init__(self, nvars: int, terms: dict | None = None):
        self.nvars = nvars
        clean: dict[tuple, Fraction] = {}
        if terms:
            for exps, coeff in terms.items():
                c = coeff if isinstance(coeff, Fraction) else Fraction(coeff)
                if not c:
                    continue
                key = tuple(exps)
                if len(key) != nvars:
                    raise ValueError("exponent length mismatch")
                clean[key] = c
        self.terms = clean

    @classmethod
    def zero(cls, nvars: int) -> "MultiPoly":
        return cls(nvars)

    @classmethod
    def constant(cls, nvars: int, value) -> "MultiPoly":
        return cls(nvars, {tuple([0] * nvars): Fraction(value)})

    def __bool__(self):
        return bool(self.terms)

    def __eq__(self, other):
        if isinstance(other, MultiPoly):
            return self.nvars == other.nvars and self.terms == other.terms
        if isinstance(other, (int, Fraction)):
            return self == MultiPoly.constant(self.nvars, other)
        return NotImplemented

    def __hash__(self):
        return hash((self.nvars, frozenset(self.terms.items())))

    def __add__(self, other):
        other = self._coerce(other)
        out = dict(self.terms)
        for e, c in other.terms.items():
            s = out.get(e, Fraction(0)) + c
            if s:
                out[e] = s
            else:
                out.pop(e, None)
        return MultiPoly(self.nvars, out)

    __radd__ = __add__

    def __sub__(self, other):
        return self + (-self._coerce(other))

    def __rsub__(self, other):
        return self._coerce(other) + (-self)

    def __neg__(self):
        return MultiPoly(self.nvars, {e: -c for e, c in self.terms.items()})

    def _coerce(self, other) -> "MultiPoly":
        if isinstance(other, MultiPoly):
            if other.nvars != self.nvars:
                raise ValueError("variable count mismatch")
            return other
        return MultiPoly.constant(self.nvars, other)

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            s = Fraction(other)
            return MultiPoly(self.nvars, {e: c * s for e, c in self.terms.items()})
        other = self._coerce(other)
        out: dict[tuple, Fraction] = {}
        for e1, c1 in self.terms.items():
            for e2, c2 in other.terms.items():
                key = tuple(a + b for a, b in zip(e1, e2))
                s = out.get(key, Fraction(0)) + c1 * c2
                if s:
                    out[key] = s
                else:
                    out.pop(key, None)
        return MultiPoly(self.nvars, out)

    __rmul__ = __mul__

    def __truediv__(self, scalar):
        return self * (Fraction(1) / Fraction(scalar))

    def __repr__(self):
        if not self.terms:
            return "MultiPoly(0)"
        bits = []
        for e in sorted(self.terms, reverse=True):
            c = self.terms[e]
            mono = "*".join(
                f"x{i + 1}" + (f"^{p}" if p > 1 else "")
                for i, p in enumerate(e)
                if p
            )
            bits.append(f"{c}" + (f"*{mono}" if mono else ""))
        return "MultiPoly(" + " + ".join(bits) + ")"


def apply_diff_op(exponent: Sequence[int], f: MultiPoly) -> MultiPoly:
    """Apply the constant-coefficient operator ∂^exponent to ``f`` exactly.

    Over-differentiation simply yields the zero polynomial.
    """
    if len(exponent) != f.nvars:
        raise ValueError("exponent length mismatch")
    out: dict[tuple, Fraction] = {}
    for e, c in f.terms.items():
        factor = 1
        ok = True
        for b, a in zip(e, exponent):
            if b < a:
                ok = False
                break
            if a:
                factor *= math.perm(b, a)
        if not ok:
            continue
        key = tuple(b - a for b, a in zip(e, exponent))
        s = out.get(key, Fraction(0)) + c * factor
        if s:
            out[key] = s
        else:
            out.pop(key, None)
    return MultiPoly(f.nvars, out)


# largest n for which poly_det expands an n x n determinant (n! terms)
POLY_DET_MAX = 5


def poly_det(entries: Sequence[Sequence[MultiPoly]]) -> MultiPoly:
    """Determinant of a small matrix of polynomials by permutation expansion."""
    n = len(entries)
    if n == 0:
        raise ValueError("empty polynomial matrix")
    nvars = entries[0][0].nvars
    if n > POLY_DET_MAX:
        raise ValueError(f"polynomial determinants limited to {POLY_DET_MAX}x{POLY_DET_MAX}")
    total = MultiPoly.zero(nvars)
    for perm in permutations(range(n)):
        inversions = sum(
            1 for a in range(n) for b in range(a + 1, n) if perm[a] > perm[b]
        )
        term = MultiPoly.constant(nvars, 1 if inversions % 2 == 0 else -1)
        for i in range(n):
            term = term * entries[i][perm[i]]
        total = total + term
    return total
