"""Broken inputs built as new matrices: a ``Matrix`` is immutable, so a test
that needs a changed entry takes a copy with that entry replaced."""

from hlmod.exact import Matrix


def with_entries(m: Matrix, entries) -> Matrix:
    """A copy of ``m`` with entry (i, j) replaced by v for each ``(i, j): v``
    of ``entries``."""
    rows = [list(row) for row in m.data]
    for (i, j), v in entries.items():
        rows[i][j] = v
    return Matrix(rows, m.rows, m.cols)
