"""Reference algorithms in plain Fraction arithmetic, for the tests to compare
the library's integer paths against.

Rank, inverse and basis coordinates by rational Gauss-Jordan elimination
(``linalg._row_reduce`` and ``solve``), the Weyl dimension formula over
ambient pairings, and the lattice spanned by dependent generators.  No
library code path calls any of these.
"""

from __future__ import annotations

from typing import Sequence

from twinefold.linalg import (
    ONE,
    ZERO,
    Matrix,
    Vec,
    _row_reduce,
    integer_echelon,
    scaled_rows,
    solve,
    transpose,
    vadd,
)
from twinefold.rootcore import Lattice, RootDatum, RootSystemError


def identity(n: int) -> Matrix:
    return tuple(
        tuple(ONE if i == j else ZERO for j in range(n)) for i in range(n)
    )


def is_zero_vec(u: Vec) -> bool:
    return all(a == 0 for a in u)


def mat_inv(m: Matrix) -> Matrix:
    n = len(m)
    eye = identity(n)
    reduced, pivots = _row_reduce([tuple(row) + eye[i] for i, row in enumerate(m)], n)
    if len(pivots) < n:
        raise ValueError("matrix is singular")
    return tuple(tuple(row[n:]) for row in reduced)


def coords_in_basis(basis: Sequence[Vec], v: Vec) -> Vec | None:
    """Coordinates of ``v`` in the given (independent) basis, or None."""
    if not basis:
        return () if is_zero_vec(v) else None
    a = transpose(tuple(basis))
    return solve(a, v)


def rank_of(rows: Sequence[Vec]) -> int:
    return len(_row_reduce(rows, len(rows[0]) if rows else 0)[1])


def weyl_dimension(datum: RootDatum, lam: Vec) -> int:
    """Dimension by the product formula prod (lam+rho, a) / (rho, a)."""
    if not datum.is_dominant_integral(lam):
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
    return Lattice.from_rows(
        den, [row for _, row, _ in integer_echelon(rows)], ambient_dim
    )
