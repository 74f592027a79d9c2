"""The field route of the exact kernels, kept as the oracle of their tests.

hlmod runs ``rref``, ``det``, products, the leading minors and ``combine``
on numerators in Z[i] over one positive integer denominator.  The loops
here are the elimination and accumulation those kernels replaced: the same
pivot choice, one scalar operation at a time in the scalars' own arithmetic
(``Fraction`` and ``GaussianRational``).  :func:`field_route` puts them in
place of the kernels for a block of code.  :func:`full_scan_structure` is
the scan ``validate_structure`` replaced by checks on a basis of the
generators' span: every pair and every generator, on matrix products.
"""

from __future__ import annotations

from contextlib import contextmanager
from fractions import Fraction
from itertools import combinations
from unittest.mock import patch

from hlmod import exact
from hlmod.exact import Matrix
from hlmod.hodge_lefschetz import HLModule, OperatorFamily, validate_structure
from hlmod.report import INPUT_ERROR, CheckReport


def sparse_entries(m: Matrix) -> list[dict]:
    """The nonzero entries of ``m`` as one ``{col: value}`` dict per row."""
    return [{j: e for j, e in enumerate(row) if e} for row in m.data]


def field_rref(m: Matrix, pivot_cols: int | None = None) -> tuple[Matrix, list[int]]:
    """:meth:`Matrix.rref`: each pivot row divided by its pivot, then cleared
    from every other row."""
    ncols = m.cols if pivot_cols is None else pivot_cols
    rows = [list(r) for r in m.data]
    pivots: list[int] = []
    r = 0
    for c in range(ncols):
        pr = next((i for i in range(r, m.rows) if rows[i][c]), None)
        if pr is None:
            continue
        rows[r], rows[pr] = rows[pr], rows[r]
        pv = rows[r][c]
        if pv != 1:
            inv = Fraction(1) / pv
            rows[r] = [e * inv if e else e for e in rows[r]]
        for i in range(m.rows):
            if i != r and rows[i][c]:
                f = rows[i][c]
                rows[i] = [a - f * b if b else a for a, b in zip(rows[i], rows[r])]
        pivots.append(c)
        r += 1
        if r == m.rows:
            break
    return Matrix(rows, m.rows, m.cols), pivots


def field_det(m: Matrix):
    """:meth:`Matrix.det` by Gaussian elimination with row swaps."""
    if not m.is_square():
        raise ValueError("determinant of non-square matrix")
    n = m.rows
    rows = [list(r) for r in m.data]
    sign = 1
    det = Fraction(1)
    for c in range(n):
        pr = next((i for i in range(c, n) if rows[i][c]), None)
        if pr is None:
            return Fraction(0)
        if pr != c:
            rows[c], rows[pr] = rows[pr], rows[c]
            sign = -sign
        pv = rows[c][c]
        det = det * pv
        inv = Fraction(1) / pv
        for i in range(c + 1, n):
            if rows[i][c]:
                f = rows[i][c] * inv
                rows[i] = [a - f * b if b else a for a, b in zip(rows[i], rows[c])]
    return det if sign == 1 else -det


def field_product(a: Matrix, b: Matrix) -> Matrix:
    """:meth:`Matrix.__mul__`, skipping zero entries."""
    if not isinstance(b, Matrix):
        return NotImplemented
    if a.cols != b.rows:
        raise ValueError(f"cannot multiply {a.rows}x{a.cols} by {b.rows}x{b.cols}")
    out = [[Fraction(0)] * b.cols for _ in range(a.rows)]
    for ai, oi in zip(a.data, out):
        for x, bt in zip(ai, b.data):
            if x:
                for j, y in enumerate(bt):
                    if y:
                        oi[j] = oi[j] + x * y
    return Matrix(out, a.rows, b.cols)


def field_leading_minors(h: Matrix):
    """The leading principal minors of ``h``, up to the first zero one: the
    products of the first s pivots of one elimination without row exchanges."""
    rows = [list(r) for r in h.data]
    minor = Fraction(1)
    for c in range(h.rows):
        pv = rows[c][c]
        if not pv:
            yield Fraction(0)
            return
        minor = minor * pv
        yield minor
        inv = Fraction(1) / pv
        for i in range(c + 1, h.rows):
            if rows[i][c]:
                f = rows[i][c] * inv
                rows[i] = [a - f * b if b else a for a, b in zip(rows[i], rows[c])]


def field_symmetric_pivots(h: Matrix):
    """``exact._symmetric_pivots`` in the field: the diagonal entry of the
    Schur complement at each index, times the pivots kept before it and
    d**(kept + 1) for the denominator d of ``h``; a zero one is passed over
    when its row is zero and ends the elimination when it is not."""
    rows, d = [list(r) for r in h.data], h.numerators()[1]
    kept, scale = 0, Fraction(1)
    for c in range(h.rows):
        pv = rows[c][c]
        yield pv * scale * d ** (kept + 1)
        if not pv:
            if any(rows[c][c + 1 :]):
                return
            continue
        for i in range(c + 1, h.rows):
            if rows[i][c]:
                f = rows[i][c] / pv
                rows[i] = [a - f * b if b else a for a, b in zip(rows[i], rows[c])]
        kept, scale = kept + 1, scale * pv


def field_combine(family: OperatorFamily, coefficients, dim: int) -> Matrix:
    """:meth:`OperatorFamily.combine`: sum_j c_j G_j over the generators'
    nonzero entries."""
    for c, mat in zip(coefficients, family.matrices):
        if c and (mat.rows, mat.cols) != (dim, dim):
            raise ValueError("shape mismatch")
    total = [[Fraction(0)] * dim for _ in range(dim)]
    for c, mat in zip(coefficients, family.matrices):
        if c:
            for out, row in zip(total, sparse_entries(mat)):
                for j, e in row.items():
                    out[j] = out[j] + c * e
    return Matrix(total, dim, dim)


@contextmanager
def field_route():
    """Every kernel on its field loop for the duration of the block."""
    with patch.object(Matrix, "rref", field_rref), patch.object(Matrix, "det", field_det), patch.object(
        Matrix, "__mul__", field_product
    ), patch.object(exact, "_symmetric_pivots", field_symmetric_pivots), patch.object(
        OperatorFamily, "combine", field_combine
    ):
        yield


def full_scan_structure(module: HLModule) -> CheckReport:
    """``validate_structure``'s report with its operator subchecks taken by
    the full scan: commutation on every pair of generators, bidegree by a
    column-major scan of every generator's nonzero entries, G^T Q = -Q G
    and G C = C conj(G) on every generator, all on Matrix products.  The
    subchecks before them, and the data, are ``validate_structure``'s own."""
    rep = validate_structure(module)
    if rep.verdict == INPUT_ERROR:
        return rep
    out = CheckReport(rep.check, rep.tag)
    for sub in rep.subchecks:
        if not sub.name.startswith("operator"):
            out.add(sub.name, sub.passed, sub.witness)
    vecs, c, q = module.space.vectors, module.space.conjugation, module.form
    names, mats = module.family.names, module.family.matrices
    bad = next(
        ({"first": names[a], "second": names[b]} for a, b in combinations(range(len(mats)), 2) if mats[a] * mats[b] != mats[b] * mats[a]),
        None,
    )
    out.add("operators-commute", bad is None, bad)
    for name, g in zip(names, mats):
        bad = next(
            (
                {"generator": name, "column": j, "row": i}
                for j in range(g.cols)
                for i in range(g.rows)
                if g.data[i][j]
                and (vecs[i].grade, vecs[i].p, vecs[i].q) != (vecs[j].grade - 2, vecs[j].p - 1, vecs[j].q - 1)
            ),
            None,
        )
        out.add(f"operator-bidegree[{name}]", bad is None, bad)
        skew = g.transpose() * q == -(q * g)
        out.add(f"operator-skew[{name}]", skew, None if skew else {"generator": name})
        real = g * c == c * g.conjugate()
        out.add(f"operator-real[{name}]", real, None if real else {"generator": name})
    out.data.update(rep.data)
    return out
