"""Exact arithmetic substrate: Gaussian rationals, dense matrices, polynomials.

Every scalar in this package lives in Q or Q(i): plain ``fractions.Fraction``
for real values and :class:`GaussianRational` for complex ones.  All linear
algebra (kernels, solves, determinants, positivity tests) is carried out by
exact row reduction, so every rank and sign decision is a statement about the
input and never an approximation.  No floating point appears anywhere.

Each kernel has one route.  ``rref``, ``det``, the product and the leading
minors scale the matrix, or each operand, by one common positive integer
denominator (:func:`integer_rows`) and work on numerators in Z[i] with
fraction-free updates, building one scalar per output entry.  A real
numerator is a plain ``int``, so rational input runs on Python integers
alone; a complex one is a :class:`GaussianInteger`.  Fraction-free
elimination needs only exact division in an integral domain (Bareiss 1968),
and Z[i] is one.

Wire encoding of scalars: a rational is written ``"p/q"`` with the ``/q``
omitted when the denominator is 1; a Gaussian rational is ``"p/q+r/s i"``
with either part omissible.
"""

from __future__ import annotations

import math
from fractions import Fraction
from itertools import permutations
from math import gcd, lcm
from typing import Iterable, Sequence


class NotHermitianError(ValueError):
    """Raised when a matrix fed to a Hermitian test differs from its adjoint."""


# ---------------------------------------------------------------------------
# Scalars
# ---------------------------------------------------------------------------


class GaussianRational:
    """An element ``re + im*i`` of Q(i) with exact rational parts.

    Values are immutable by convention.  Arithmetic coerces ``int`` and
    ``Fraction`` operands, so Gaussian and plain rationals mix freely in
    matrix code.  ``.real``/``.imag``/``.conjugate()`` follow the stdlib
    numeric protocol, which lets generic code treat ``Fraction`` and
    ``GaussianRational`` uniformly.
    """

    __slots__ = ("re", "im")

    def __init__(self, re=0, im=0):
        self.re = re if isinstance(re, Fraction) else Fraction(re)
        self.im = im if isinstance(im, Fraction) else Fraction(im)

    # -- numeric protocol ---------------------------------------------------

    @property
    def real(self) -> Fraction:
        return self.re

    @property
    def imag(self) -> Fraction:
        return self.im

    def conjugate(self) -> "GaussianRational":
        return GaussianRational(self.re, -self.im)

    @staticmethod
    def _coerce(x):
        if isinstance(x, GaussianRational):
            return x
        if isinstance(x, (int, Fraction)):
            return GaussianRational(x)
        return None

    def __add__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return GaussianRational(self.re + o.re, self.im + o.im)

    __radd__ = __add__

    def __sub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return GaussianRational(self.re - o.re, self.im - o.im)

    def __rsub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return GaussianRational(o.re - self.re, o.im - self.im)

    def __mul__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        if not o.im:
            return GaussianRational(self.re * o.re, self.im * o.re)
        if not self.im:
            return GaussianRational(self.re * o.re, self.re * o.im)
        return GaussianRational(
            self.re * o.re - self.im * o.im,
            self.re * o.im + self.im * o.re,
        )

    __rmul__ = __mul__

    def __truediv__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        if not o.re and not o.im:
            raise ZeroDivisionError("division by zero in Q(i)")
        n = o.re * o.re + o.im * o.im
        return GaussianRational(
            (self.re * o.re + self.im * o.im) / n,
            (self.im * o.re - self.re * o.im) / n,
        )

    def __rtruediv__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return o.__truediv__(self)

    def __neg__(self):
        return GaussianRational(-self.re, -self.im)

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
        # matches hash(Fraction) when the value is real, keeping the
        # cross-type __eq__ consistent with hashing
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
        return gaussian_integer(a * (d // b), c * (d // e)), d


class GaussianInteger:
    """A numerator ``re + im*i`` of the exact kernels with ``im`` never 0.

    A real numerator is a plain ``int``: every operation returns one when the
    imaginary part cancels, so a ``GaussianInteger`` is always true and never
    equals an ``int``.  ``//`` is exact division in Z[i].
    """

    __slots__ = ("re", "im")

    def __init__(self, re: int, im: int):
        self.re = re
        self.im = im

    def __add__(self, other):
        if isinstance(other, GaussianInteger):
            return gaussian_integer(self.re + other.re, self.im + other.im)
        return GaussianInteger(self.re + other, self.im)

    __radd__ = __add__

    def __sub__(self, other):
        if isinstance(other, GaussianInteger):
            return gaussian_integer(self.re - other.re, self.im - other.im)
        return GaussianInteger(self.re - other, self.im)

    def __rsub__(self, other):
        return GaussianInteger(other - self.re, -self.im)

    def __mul__(self, other):
        if isinstance(other, GaussianInteger):
            return gaussian_integer(self.re * other.re - self.im * other.im, self.re * other.im + self.im * other.re)
        return GaussianInteger(self.re * other, self.im * other) if other else 0

    __rmul__ = __mul__

    def __floordiv__(self, other):
        if isinstance(other, GaussianInteger):
            return self * other.conjugate() // other.norm()
        return gaussian_integer(self.re // other, self.im // other)

    def __rfloordiv__(self, other):
        return other * self.conjugate() // self.norm()

    def __neg__(self):
        return GaussianInteger(-self.re, -self.im)

    def __eq__(self, other):
        return isinstance(other, GaussianInteger) and self.re == other.re and self.im == other.im

    def __repr__(self):
        return f"GaussianInteger({self.re}, {self.im})"

    def conjugate(self) -> "GaussianInteger":
        return GaussianInteger(self.re, -self.im)

    def norm(self) -> int:
        return self.re * self.re + self.im * self.im


def gaussian_integer(re: int, im: int):
    """re + im*i: a plain ``int`` when im is 0."""
    return GaussianInteger(re, im) if im else re


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
        if x.im:
            raise ValueError(f"scalar {x} is not real")
        return x.re
    return x if isinstance(x, Fraction) else Fraction(x)


# -- wire encoding ----------------------------------------------------------


def format_rational(x: Fraction) -> str:
    x = Fraction(x)
    if x.denominator == 1:
        return str(x.numerator)
    return f"{x.numerator}/{x.denominator}"


def format_scalar(x) -> str:
    """Encode a scalar as ``"p/q"`` or ``"p/q+r/s i"``."""
    if type(x) is Fraction:  # str(Fraction) is format_rational's encoding
        return str(x)
    if isinstance(x, GaussianRational):
        re, im = x.re, x.im
    else:
        re, im = Fraction(x), Fraction(0)
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


def parse_scalar(s: str):
    """Decode the wire encoding; returns Fraction or GaussianRational.

    Raises ValueError for any text that is not a scalar, a zero denominator
    included.
    """
    if s == "0":
        return ZERO
    text = s.strip().replace(" ", "")
    if not text:
        raise ValueError("empty scalar string")
    try:
        if not text.endswith("i"):
            return Fraction(text)
        body = text[:-1].strip()
        if body == "":
            return GaussianRational(0, 1)
        if body in "+-":
            return GaussianRational(0, 1 if body == "+" else -1)
        # split a trailing signed rational from an optional real part
        pos = max(body.rfind("+", 1), body.rfind("-", 1))
        if pos <= 0:
            return GaussianRational(0, Fraction(body))
        re_part = Fraction(body[:pos].strip())
        im_text = body[pos:].strip()
        if im_text in "+-":
            im_part = Fraction(1 if im_text == "+" else -1)
        else:
            im_part = Fraction(im_text)
        return GaussianRational(re_part, im_part)
    except ZeroDivisionError as exc:
        raise ValueError(f"zero denominator in scalar {s!r}") from exc


# ---------------------------------------------------------------------------
# Dense exact matrices
# ---------------------------------------------------------------------------


class Matrix:
    """Dense matrix over Q or Q(i); rows of scalars, immutable by convention.

    Zero-row and zero-column shapes are fully supported since graded blocks
    of the modules built elsewhere are frequently empty.
    """

    __slots__ = ("rows", "cols", "data")

    def __init__(self, data: Sequence[Sequence], rows: int | None = None, cols: int | None = None):
        data = [list(row) for row in data]
        self.rows = len(data) if rows is None else rows
        if cols is None:
            cols = len(data[0]) if data else 0
        self.cols = cols
        for row in data:
            if len(row) != cols:
                raise ValueError("ragged matrix rows")
        if len(data) != self.rows:
            raise ValueError("row count mismatch")
        self.data = data

    # -- constructors -------------------------------------------------------

    @classmethod
    def zeros(cls, rows: int, cols: int) -> "Matrix":
        return cls([[Fraction(0)] * cols for _ in range(rows)], rows, cols)

    @classmethod
    def identity(cls, n: int) -> "Matrix":
        m = cls.zeros(n, n)
        for i in range(n):
            m.data[i][i] = Fraction(1)
        return m

    @classmethod
    def from_columns(cls, columns: Sequence[Sequence], nrows: int | None = None) -> "Matrix":
        columns = [list(c) for c in columns]
        if nrows is None:
            if not columns:
                raise ValueError("cannot infer row count from zero columns")
            nrows = len(columns[0])
        data = [[col[i] for col in columns] for i in range(nrows)]
        return cls(data, nrows, len(columns))

    @classmethod
    def diagonal(cls, entries: Sequence) -> "Matrix":
        n = len(entries)
        m = cls.zeros(n, n)
        for i, e in enumerate(entries):
            m.data[i][i] = e
        return m

    # -- basic structure ----------------------------------------------------

    def __eq__(self, other):
        if not isinstance(other, Matrix):
            return NotImplemented
        if (self.rows, self.cols) != (other.rows, other.cols):
            return False
        return all(
            self.data[i][j] == other.data[i][j]
            for i in range(self.rows)
            for j in range(self.cols)
        )

    def __hash__(self):
        return hash((self.rows, self.cols))

    def __repr__(self):
        return f"Matrix({self.rows}x{self.cols})"

    def __getitem__(self, ij):
        i, j = ij
        return self.data[i][j]

    def column(self, j: int) -> list:
        return [self.data[i][j] for i in range(self.rows)]

    def columns(self) -> list[list]:
        return [self.column(j) for j in range(self.cols)]

    def is_zero(self) -> bool:
        return all(not e for row in self.data for e in row)

    def is_square(self) -> bool:
        return self.rows == self.cols

    def transpose(self) -> "Matrix":
        return Matrix(
            [[self.data[i][j] for i in range(self.rows)] for j in range(self.cols)],
            self.cols,
            self.rows,
        )

    def conjugate(self) -> "Matrix":
        return Matrix([[conj(e) for e in row] for row in self.data], self.rows, self.cols)

    def conj_transpose(self) -> "Matrix":
        return self.transpose().conjugate()

    def is_hermitian(self) -> bool:
        return self.is_square() and self == self.conj_transpose()

    def submatrix(self, row_idx: Sequence[int], col_idx: Sequence[int]) -> "Matrix":
        return Matrix(
            [[self.data[i][j] for j in col_idx] for i in row_idx],
            len(row_idx),
            len(col_idx),
        )

    # -- arithmetic ----------------------------------------------------------

    def __add__(self, other: "Matrix") -> "Matrix":
        self._require_same_shape(other)
        return Matrix(
            [[a + b for a, b in zip(r1, r2)] for r1, r2 in zip(self.data, other.data)],
            self.rows,
            self.cols,
        )

    def __sub__(self, other: "Matrix") -> "Matrix":
        self._require_same_shape(other)
        return Matrix(
            [[a - b for a, b in zip(r1, r2)] for r1, r2 in zip(self.data, other.data)],
            self.rows,
            self.cols,
        )

    def __neg__(self) -> "Matrix":
        return Matrix([[-e for e in row] for row in self.data], self.rows, self.cols)

    def scale(self, s) -> "Matrix":
        return Matrix([[s * e for e in row] for row in self.data], self.rows, self.cols)

    def _require_same_shape(self, other: "Matrix") -> None:
        if (self.rows, self.cols) != (other.rows, other.cols):
            raise ValueError("shape mismatch")

    def __mul__(self, other: "Matrix") -> "Matrix":
        if not isinstance(other, Matrix):
            return NotImplemented
        if self.cols != other.rows:
            raise ValueError(f"cannot multiply {self.rows}x{self.cols} by {other.rows}x{other.cols}")
        left, da = integer_rows(self.data)
        right, db = integer_rows(other.data)
        nonzero = [[(j, y) for j, y in enumerate(row) if y] for row in right]
        out = []
        for row in left:
            acc = [0] * other.cols
            for x, entries in zip(row, nonzero):
                if x:
                    for j, y in entries:
                        acc[j] += x * y
            out.append(fractions_over(acc, da * db))
        return Matrix(out, self.rows, other.cols)

    def apply(self, vec: Sequence) -> list:
        """Matrix-vector product, skipping zero entries."""
        if len(vec) != self.cols:
            raise ValueError("vector length mismatch")
        out = [Fraction(0)] * self.rows
        for j, x in enumerate(vec):
            if not x:
                continue
            for i in range(self.rows):
                y = self.data[i][j]
                if y:
                    out[i] = out[i] + y * x
        return out

    # -- elimination-based queries -------------------------------------------

    def rref(self, pivot_cols: int | None = None) -> tuple["Matrix", list[int]]:
        """Reduced row echelon form and the list of pivot columns.

        With ``pivot_cols`` set, only the first ``pivot_cols`` columns are
        eliminated; the remaining columns (right-hand sides) are carried
        along by the row operations but never used as pivots.

        On numerators in Z[i], the pivot the first nonzero entry at or below
        the current row: a row with f in the pivot column becomes
        p row - f top (p the pivot, both divided by the gcd of their parts),
        kept primitive (the gcd of all real and imaginary parts divided
        out), and each pivot row is divided by its pivot at the end.  Rows
        below the rank, nonzero only past ``pivot_cols``, are nonzero
        multiples of what division in the field gives, which is all a
        consistency test (:func:`solve_columns`) reads.
        """
        ncols = self.cols if pivot_cols is None else pivot_cols
        rows = [_primitive(row) for row in integer_rows(self.data)[0]]
        pivots: list[int] = []
        r = 0
        for c in range(ncols):
            pr = next((i for i in range(r, self.rows) if rows[i][c]), None)
            if pr is None:
                continue
            rows[r], rows[pr] = rows[pr], rows[r]
            top = rows[r]
            p = top[c]
            for i, row in enumerate(rows):
                f = row[c]
                if f and i != r:
                    g = _gcd(p, f)
                    ps, fs = p // g, f // g
                    rows[i] = _primitive([ps * a - fs * b for a, b in zip(row, top)])
            pivots.append(c)
            r += 1
            if r == self.rows:
                break
        out = [fractions_over(row, row[c]) for row, c in zip(rows, pivots)]
        out += [fractions_over(row, 1) for row in rows[r:]]
        return Matrix(out, self.rows, self.cols), pivots

    def rank(self) -> int:
        return len(self.rref()[1])

    def det(self):
        """Exact determinant: :func:`integer_det` of the rows times one
        common denominator d, divided by d**n."""
        if not self.is_square():
            raise ValueError("determinant of non-square matrix")
        rows, d = integer_rows(self.data)
        return fractions_over([integer_det(rows)], d**self.rows)[0]

    def inverse(self) -> "Matrix":
        """Exact inverse; raises ValueError when singular."""
        if not self.is_square():
            raise ValueError("inverse of non-square matrix")
        n = self.rows
        aug = hstack(self, Matrix.identity(n))
        rr, pivots = aug.rref(n)
        if len(pivots) != n:
            raise ValueError("matrix is singular")
        return rr.submatrix(list(range(n)), list(range(n, 2 * n)))

    def to_lists(self) -> list[list]:
        return [list(row) for row in self.data]


def hstack(left: Matrix, right: Matrix) -> Matrix:
    if left.rows != right.rows:
        raise ValueError("row mismatch in hstack")
    return Matrix(
        [lr + rr for lr, rr in zip(left.data, right.data)],
        left.rows,
        left.cols + right.cols,
    )


def integer_det(rows: Sequence[Sequence]) -> int:
    """Determinant of a square matrix over Z[i] (ints where real): the last
    :func:`_bareiss` pivot with row exchanges."""
    return ([1] + list(_bareiss(rows, exchange=True)))[-1]


def _bareiss(rows: Sequence[Sequence], exchange: bool):
    """The pivots of Bareiss elimination over Z[i], signed by the row
    exchanges: pivot s is the leading minor of size s + 1 of the exchanged
    matrix.  A column without a pivot (without ``exchange``, a zero diagonal
    entry) yields 0 and ends it.  Every division is exact, an updated entry
    being a minor of the input.  A row with a zero in the pivot column would
    only be scaled by pivot / prev, so it waits: its next update divides by
    the pivot ``piv[stage]`` of its last one, and a pivot row is brought up
    to date first.
    """
    m = [list(row) for row in rows]
    n = len(m)
    stage = [0] * n  # index into piv of each row's last update
    piv = [1]
    sign = 1
    for c in range(n):
        if not m[c][c]:
            pr = next((i for i in range(c + 1, n) if m[i][c]), None) if exchange else None
            if pr is None:
                yield 0
                return
            m[c], m[pr] = m[pr], m[c]
            stage[c], stage[pr] = stage[pr], stage[c]
            sign = -sign
        top, prev = m[c], piv[-1]
        if stage[c] != c:
            lag = piv[stage[c]]
            for j in range(c, n):
                if top[j]:
                    top[j] = top[j] * prev // lag
        pivot = top[c]
        yield pivot if sign == 1 else -pivot
        for i in range(c + 1, n):
            row = m[i]
            a = row[c]
            if not a:
                continue
            lag = piv[stage[i]]
            for j in range(c + 1, n):
                y = top[j]
                if y:
                    row[j] = (pivot * row[j] - a * y) // lag
                elif row[j]:
                    row[j] = pivot * row[j] // lag
            stage[i] = c + 1
        piv.append(pivot)


# -- numerators ----------------------------------------------------------------


def integer_rows(rows: Iterable[Iterable]) -> tuple[list[list], int]:
    """Rows of scalars times one common denominator d > 0 of their entries,
    and d: numerators in Z[i], plain ints where real."""
    ratios = [[c.as_integer_ratio() for c in row] for row in rows]
    d = lcm(*{q for row in ratios for _, q in row})
    return [[p * (d // q) for p, q in row] for row in ratios], d


def _gcd(*values) -> int:
    """The gcd of the integers among ``values`` and of the real and imaginary
    parts of the Gaussian integers."""
    try:
        return gcd(*values)
    except TypeError:  # a GaussianInteger among them
        return gcd(*(x for v in values for x in ((v.re, v.im) if isinstance(v, GaussianInteger) else (v,))))


def _primitive(row: list) -> list:
    """The row divided by the gcd of its entries' parts."""
    g = _gcd(*row)
    return [a // g for a in row] if g > 1 else row


def fractions_over(numerators: Sequence, d) -> list:
    """The scalars v / d for v and d != 0 in Z[i]: a Fraction where real, a
    GaussianRational otherwise, each zero the shared ``ZERO``."""
    if isinstance(d, GaussianInteger):
        numerators, d = [v * d.conjugate() if v else 0 for v in numerators], d.norm()
    return [
        (GaussianRational(Fraction(v.re, d), Fraction(v.im, d)) if type(v) is GaussianInteger else Fraction(v, d))
        if v else ZERO
        for v in numerators
    ]


# -- the contract operations -------------------------------------------------


def kernel_basis(m: Matrix) -> tuple[list[tuple], int]:
    """Exact kernel basis and rank; rank + len(basis) == m.cols."""
    rr, pivots = m.rref()
    pivot_set = set(pivots)
    free = [c for c in range(m.cols) if c not in pivot_set]
    basis = []
    for f in free:
        v = [Fraction(0)] * m.cols
        v[f] = Fraction(1)
        for r, c in enumerate(pivots):
            coeff = rr.data[r][f]
            if coeff:
                v[c] = -coeff
        basis.append(tuple(v))
    return basis, len(pivots)


def solve_columns(m: Matrix, rhs_list: Sequence[Sequence]) -> list[list | None]:
    """Some exact solution of ``m x = b`` for each b, or None where inconsistent.

    All right-hand sides ride along one row reduction of ``[m | b_1 .. b_s]``
    whose pivots are limited to the columns of ``m``; free variables are 0.
    """
    rhs_list = [list(b) for b in rhs_list]
    if any(len(b) != m.rows for b in rhs_list):
        raise ValueError("right-hand side length mismatch")
    if not rhs_list:
        return []
    n = m.cols
    aug = Matrix(
        [row + [b[i] for b in rhs_list] for i, row in enumerate(m.data)],
        m.rows,
        n + len(rhs_list),
    )
    rr, pivots = aug.rref(n)
    rank = len(pivots)
    out: list[list | None] = []
    for j in range(n, aug.cols):
        if any(rr.data[i][j] for i in range(rank, m.rows)):
            out.append(None)
            continue
        x = [Fraction(0)] * n
        for r, c in enumerate(pivots):
            x[c] = rr.data[r][j]
        out.append(x)
    return out


def _leading_minors(h: Matrix):
    """The leading principal minors of a square ``h`` in order, up to and
    including the first zero one: the :func:`_bareiss` pivots, without row
    exchanges, of the rows times one common denominator d, pivot s being the
    minor of size s times d**s.  A Hermitian minor is a Fraction."""
    m, d = integer_rows(h.data)
    for size, pivot in enumerate(_bareiss(m, exchange=False), 1):
        yield fractions_over([pivot], d**size)[0]


def leading_principal_minors(h: Matrix) -> list:
    """Determinants of the leading principal submatrices, in order.

    One elimination gives them up to the first zero one; each larger one is
    a :meth:`Matrix.det` of its own.
    """
    if not h.is_square():
        raise ValueError("minors of non-square matrix")
    minors = list(_leading_minors(h))
    idx = list(range(h.rows))
    return minors + [h.submatrix(idx[:s], idx[:s]).det() for s in range(len(minors) + 1, h.rows + 1)]


def first_nonpositive_minor(h: Matrix) -> tuple[int, object] | None:
    """Size and value of the first leading principal minor of a Hermitian
    ``h`` that is not positive; None when ``h`` is positive definite
    (Sylvester's criterion).  The minors come from one elimination, which
    stops at the first that is not positive."""
    if not h.is_square():
        raise ValueError("minors of non-square matrix")
    for size, minor in enumerate(_leading_minors(h), 1):
        if as_fraction(minor) <= 0:
            return size, minor
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
    """Positive semidefiniteness of a Hermitian matrix.

    The eigenvalues are real, so they are all >= 0 exactly when the
    coefficients of det(tI - h) alternate in sign: then the polynomial has
    no negative root, and a polynomial whose roots are all >= 0 is a product
    of factors t - a with a >= 0.  For a diagonal ``h`` this is the test
    that every entry is >= 0.  The polynomial is interpolated from its
    values at t = 0, ..., n, one :meth:`Matrix.det` each, by Newton's
    forward differences.
    """
    if not h.is_hermitian():
        raise NotHermitianError("matrix is not Hermitian")
    n = h.rows
    diffs = [as_fraction((Matrix.identity(n).scale(t) - h).det()) for t in range(n + 1)]
    coeffs = [Fraction(0)] * (n + 1)
    binomial = [Fraction(1)]  # coefficients of C(t, i), lowest degree first
    for i in range(n + 1):
        for j, b in enumerate(binomial):
            coeffs[j] += diffs[0] * b
        diffs = [b - a for a, b in zip(diffs, diffs[1:])]
        binomial = [(lower - i * upper) / (i + 1) for lower, upper in zip([0] + binomial, binomial + [0])]
    return all((-1) ** (n - j) * c >= 0 for j, c in enumerate(coeffs))


# ---------------------------------------------------------------------------
# Subspace utilities (vectors are sequences of scalars in ambient coordinates)
# ---------------------------------------------------------------------------


def echelon_basis(vectors: Iterable[Sequence]) -> list[tuple]:
    """Canonical (RREF) basis of the span of the given vectors."""
    vectors = [list(v) for v in vectors]
    if not vectors:
        return []
    rr, pivots = Matrix(vectors).rref()
    return [tuple(rr.data[i]) for i in range(len(pivots))]


def independent_indices(vectors: Iterable[Sequence]) -> list[int]:
    """Indices of the vectors a greedy scan keeps: each one not in the span
    of those before it.  These are the pivot columns of one RREF."""
    vectors = [list(v) for v in vectors]
    if not vectors:
        return []
    return Matrix.from_columns(vectors).rref()[1]


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

    @classmethod
    def variable(cls, nvars: int, i: int) -> "MultiPoly":
        exps = [0] * nvars
        exps[i] = 1
        return cls(nvars, {tuple(exps): Fraction(1)})

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

    def constant_term(self) -> Fraction:
        return self.terms.get(tuple([0] * self.nvars), Fraction(0))

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
