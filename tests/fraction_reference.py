"""Reference algorithms in plain Fraction arithmetic, for the tests to compare
the library's integer paths against.

Rank, inverse and basis coordinates by rational Gauss-Jordan elimination
(``_row_reduce``), the Weyl dimension formula over ambient pairings, and the
lattice spanned by dependent generators.  No library code path calls any of
these.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Sequence

from twinefold.linalg import (
    ONE,
    ZERO,
    Matrix,
    Vec,
    integer_echelon,
    scaled_rows,
    vadd,
)
from twinefold.rootcore import Lattice, RootDatum, RootSystemError


def _row_reduce(
    rows: Sequence[Sequence[Fraction]], ncols: int
) -> tuple[list[list[Fraction]], list[int]]:
    """Gauss-Jordan elimination on the first ``ncols`` columns of ``rows``.

    The pivot of each column is its first non-zero entry at or below the
    current row; pivot rows are scaled to 1 and the column is cleared above
    and below.  Returns the reduced rows and the pivot columns.  Columns past
    ``ncols`` (right-hand sides) ride along.
    """
    a = [list(row) for row in rows]
    pivots: list[int] = []
    for col in range(ncols):
        r = len(pivots)
        pivot = next((i for i in range(r, len(a)) if a[i][col] != 0), None)
        if pivot is None:
            continue
        if pivot != r:
            a[r], a[pivot] = a[pivot], a[r]
        inv = ONE / a[r][col]
        a[r] = [e * inv for e in a[r]]
        for i, row in enumerate(a):
            if i != r and row[col]:
                f = row[col]
                a[i] = [e - f * q if q else e for e, q in zip(row, a[r])]
        pivots.append(col)
    return a, pivots


def identity(n: int) -> Matrix:
    return tuple(
        tuple(ONE if i == j else ZERO for j in range(n)) for i in range(n)
    )


def mat_inv(m: Matrix) -> Matrix:
    n = len(m)
    eye = identity(n)
    reduced, pivots = _row_reduce([tuple(row) + eye[i] for i, row in enumerate(m)], n)
    if len(pivots) < n:
        raise ValueError("matrix is singular")
    return tuple(tuple(row[n:]) for row in reduced)


def coords_in_basis(basis: Sequence[Vec], v: Vec) -> Vec | None:
    """Coordinates of ``v`` in the given (independent) basis, or None: the
    right-hand column of [basis^T | v] reduced, unless a zero row keeps a
    non-zero entry there."""
    n = len(basis)
    reduced, pivots = _row_reduce(list(zip(*basis, v)), n)
    if len(pivots) < n or any(row[n] for row in reduced[n:]):
        return None
    return tuple(row[n] for row in reduced[:n])


def rank_of(rows: Sequence[Vec]) -> int:
    return len(_row_reduce(rows, len(rows[0]) if rows else 0)[1])


def weyl_dimension(datum: RootDatum, lam: Vec) -> int:
    """Dimension by the product formula prod (lam+rho, a) / (rho, a)."""
    if not all(p >= 0 and p.denominator == 1 for p in datum.pairings(lam)):
        raise RootSystemError("weight must be dominant and integral")
    rho = datum.weyl_vector
    num = ONE
    den = ONE
    shifted = vadd(lam, rho)
    for a in datum.positive_roots:
        num *= datum.inner(shifted, a)
        den *= datum.inner(rho, a)
    q = num / den
    if q.denominator != 1:
        raise RootSystemError(f"expected an integer, got {q}")
    return q.numerator


def lattice_span(vectors, ambient_dim: int) -> Lattice:
    """The lattice generated by ``vectors``, which need not be independent:
    its basis is their integer echelon, scaled back by the common
    denominator."""
    den, rows = scaled_rows(vectors)
    return Lattice(den, [row for _, row, _ in integer_echelon(rows)], ambient_dim)
