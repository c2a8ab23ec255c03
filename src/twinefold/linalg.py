"""Exact linear algebra over the rationals and the integers.

Vectors are tuples of ``fractions.Fraction``; matrices are tuples of row
tuples.  Everything here is pure and allocation-cheap at the ranks we care
about (a dozen at most), so no numpy: exactness matters more than speed, and
lattice membership tests must never go through floats.

One Gauss-Jordan routine, ``_row_reduce``, does every rational elimination:
``rank_of``, ``solve`` and ``mat_inv`` read its reduced rows and pivot
columns.  Exact determinants and the inverses of integer matrices come from
one fraction-free elimination, ``_bareiss``: ``mat_det`` scales a rational
matrix to integers first, and ``integer_inverse`` returns an integer matrix
over one denominator (a Cartan matrix's inverse, say).  Lattice membership
never goes through either: ``integer_echelon`` row-reduces an integer basis
over Z with gcd row operations (once per ``rootcore.Lattice``), and
``echelon_coords`` reads a vector's integer coordinates off that echelon.  The
Smith normal form of a quotient of lattices comes from the same routine, run
alternately over rows and columns; it returns the diagonal only, with no
transforms.
"""

from __future__ import annotations

import itertools
import math
from fractions import Fraction
from typing import Sequence

Vec = tuple[Fraction, ...]
Matrix = tuple[tuple[Fraction, ...], ...]

ZERO = Fraction(0)
ONE = Fraction(1)


def vec(*entries) -> Vec:
    return tuple(Fraction(e) for e in entries)


def zero_vec(n: int) -> Vec:
    return (ZERO,) * n


def vadd(u: Vec, v: Vec) -> Vec:
    return tuple(a + b for a, b in zip(u, v, strict=True))


def vsub(u: Vec, v: Vec) -> Vec:
    return tuple(a - b for a, b in zip(u, v, strict=True))


def vneg(u: Vec) -> Vec:
    return tuple(-a for a in u)


def vscale(c, u: Vec) -> Vec:
    c = Fraction(c)
    return tuple(c * a for a in u)


def vdot(u: Vec, v: Vec) -> Fraction:
    # simple roots are unit vectors and Gram rows are sparse: skip zero factors
    return sum((a * b for a, b in zip(u, v, strict=True) if a and b), ZERO)


def is_zero_vec(u: Vec) -> bool:
    return all(a == 0 for a in u)


def mat(rows: Sequence[Sequence]) -> Matrix:
    return tuple(tuple(Fraction(e) for e in row) for row in rows)


def identity(n: int) -> Matrix:
    return tuple(
        tuple(ONE if i == j else ZERO for j in range(n)) for i in range(n)
    )


def mat_vec(m: Matrix, v: Vec) -> Vec:
    return tuple(vdot(row, v) for row in m)


def transpose(m: Matrix) -> Matrix:
    return tuple(zip(*m)) if m else ()


def mat_mul(a: Matrix, b: Matrix) -> Matrix:
    bt = transpose(b)
    return tuple(tuple(vdot(row, col) for col in bt) for row in a)


def bilinear(g: Matrix, u: Vec, v: Vec) -> Fraction:
    # u^T g v, reading only the rows of g where u is non-zero
    return sum((a * vdot(row, v) for a, row in zip(u, g, strict=True) if a), ZERO)


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


def scaled_rows(vectors) -> tuple[int, list[list[int]]]:
    """The lcm ``den`` of the denominators of ``vectors``, and den times each
    vector as an integer row."""
    den = math.lcm(*(x.denominator for b in vectors for x in b))
    return den, [[x.numerator * (den // x.denominator) for x in b] for b in vectors]


def _bareiss(rows: Sequence[Sequence[int]], n: int) -> tuple[list[list[int]], int, int]:
    """Fraction-free Gauss-Jordan elimination of the n x n integer matrix in
    the first n columns of ``rows`` (Bareiss, Math. Comp. 22 (1968)).

    At each column the pivot row q (pivot p, after a row swap if needed)
    turns every other row r into (p r - r[col] q) / p', with p' the previous
    pivot; the division is exact, as every entry is then a minor of the
    row-swapped input.  Returns the rows, the last pivot d and the sign of
    the row swaps: det = sign * d, and on [A | I] the columns past n end as
    d A^-1.  d is 0 (and the rows unfinished) when the matrix is singular.
    Only columns from the current one on are updated.
    """
    a = [list(row) for row in rows]
    prev, sign = 1, 1
    for col in range(n):
        pivot = next((i for i in range(col, n) if a[i][col]), None)
        if pivot is None:
            return a, 0, sign
        if pivot != col:
            a[col], a[pivot] = a[pivot], a[col]
            sign = -sign
        q = a[col][col:]
        p = q[0]
        for i, row in enumerate(a):
            if i != col:
                f = row[col]
                row[col:] = [(p * x - f * y) // prev for x, y in zip(row[col:], q)]
        prev = p
    return a, prev, sign


def mat_det(m: Matrix) -> Fraction:
    """Exact determinant: ``m`` scaled to integers by the lcm L of its
    denominators, eliminated by ``_bareiss``, and divided by L^n."""
    n = len(m)
    den, rows = scaled_rows(m)
    _, d, sign = _bareiss(rows, n)
    return Fraction(sign * d, den**n)


def integer_inverse(m: Sequence[Sequence[int]]) -> tuple[tuple[tuple[int, ...], ...], int]:
    """(N, d) with m^-1 = N / d for an invertible integer matrix, d > 0 the
    least common denominator of m^-1 (no common factor of d and N).

    ``_bareiss`` on [m | I]; raises ValueError on a singular matrix.
    """
    n = len(m)
    rows, d, _ = _bareiss(
        [list(row) + [int(i == j) for j in range(n)] for i, row in enumerate(m)], n
    )
    if not d:
        raise ValueError("matrix is singular")
    g = math.gcd(d, *(x for row in rows for x in row[n:]))
    g = g if d > 0 else -g
    return tuple(tuple(x // g for x in row[n:]) for row in rows), d // g


def mat_inv(m: Matrix) -> Matrix:
    n = len(m)
    eye = identity(n)
    reduced, pivots = _row_reduce([tuple(row) + eye[i] for i, row in enumerate(m)], n)
    if len(pivots) < n:
        raise ValueError("matrix is singular")
    return tuple(tuple(row[n:]) for row in reduced)


def solve(a: Matrix, b: Vec) -> Vec | None:
    """Solve ``a @ x = b`` exactly; ``None`` if inconsistent.

    ``a`` is m x n with full column rank (the only case we need: expressing a
    vector in a linearly independent basis).
    """
    n = len(a[0]) if a else 0
    aug = [tuple(row) + (bi,) for row, bi in zip(a, b, strict=True)]
    reduced, pivots = _row_reduce(aug, n)
    # inconsistency: a zero row with a nonzero right-hand side
    if len(pivots) < n or any(row[n] != 0 for row in reduced[len(pivots):]):
        return None
    x = [ZERO] * n
    for row, col in zip(reduced, pivots):
        x[col] = row[n]
    return tuple(x)


def coords_in_basis(basis: Sequence[Vec], v: Vec) -> Vec | None:
    """Coordinates of ``v`` in the given (independent) basis, or None."""
    if not basis:
        return () if is_zero_vec(v) else None
    a = transpose(tuple(basis))
    return solve(a, v)


def rank_of(rows: Sequence[Vec]) -> int:
    return len(_row_reduce(rows, len(rows[0]) if rows else 0)[1])


# ---------------------------------------------------------------------------
# integer matrices: echelon form over Z and the Smith normal form
# ---------------------------------------------------------------------------


def integer_echelon(
    rows: Sequence[Sequence[int]],
) -> tuple[tuple[int, tuple[int, ...], tuple[int, ...]], ...]:
    """Row echelon form of an integer matrix over Z.

    Returns (pivot column, row, combination) triples with increasing pivot
    columns, where each row is the integer combination
    ``combination`` of the input rows.  Each column is cleared below its pivot
    by the Euclidean algorithm on the rows (subtract integer multiples of the
    row with the smallest entry there), so every step is unimodular and the
    rows span the same Z-module as the input.  Zero rows are dropped: the
    number of triples is the rank.  See Cohen, A Course in Computational
    Algebraic Number Theory, 2.4.
    """
    n = len(rows)
    ncols = len(rows[0]) if rows else 0
    # each row carries its combination of the input rows in columns ncols...
    rest = [list(row) + [int(i == j) for j in range(n)] for i, row in enumerate(rows)]
    echelon = []
    for col in range(ncols):
        live = [row for row in rest if row[col]]
        while len(live) > 1:
            p = min(live, key=lambda row: abs(row[col]))
            for row in live:
                if row is not p:
                    q = row[col] // p[col]
                    row[col:] = [x - q * y for x, y in zip(row[col:], p[col:])]
            live = [row for row in live if row[col]]
        if live:
            p = live[0]
            rest = [row for row in rest if row is not p]
            echelon.append((col, tuple(p[:ncols]), tuple(p[ncols:])))
    return tuple(echelon)


def echelon_coords(
    echelon: Sequence[tuple[int, Sequence[int], Sequence[int]]], w: Sequence[int]
) -> list[int] | None:
    """Integer coordinates of ``w`` in the input rows of ``integer_echelon``,
    or None when ``w`` is not in their Z-span.

    ``w`` is reduced to zero against the echelon rows; the multiples taken
    are its coordinates in those rows, and their combinations turn them into
    coordinates in the input rows.
    """
    w = list(w)
    coords = [0] * len(echelon[0][2]) if echelon else []
    for col, row, combination in echelon:
        q, r = divmod(w[col], row[col])
        if r:
            return None
        if q:
            w[col:] = [x - q * y for x, y in zip(w[col:], row[col:], strict=True)]
            coords = [c + q * y for c, y in zip(coords, combination)]
    return None if any(w) else coords


def smith_normal_form(a: Sequence[Sequence[int]]) -> tuple[int, ...]:
    """Diagonal d_1 | d_2 | ... of the Smith normal form of ``a``, zeros last,
    with min(rows, columns) entries.

    ``integer_echelon`` passes alternate over the rows and the columns (each
    pass transposes its result) until every row has one non-zero entry; each
    pass can only keep or shrink the corner entry, and keeps it only once its
    row and column are clear (Cohen, A Course in Computational Algebraic
    Number Theory, 2.4).  The matrix is then diagonal up to a permutation,
    and replacing pairs of entries by their gcd and lcm turns the entries
    into a divisor chain.
    """
    rows = [[int(e) for e in row] for row in a]
    size = min(len(rows), len(rows[0])) if rows else 0
    while True:
        rows = [row for _, row, _ in integer_echelon(rows)]
        if all(sum(1 for x in row if x) == 1 for row in rows):
            break
        rows = transpose(rows)
    diag = [abs(next(x for x in row if x)) for row in rows]
    for i, j in itertools.combinations(range(len(diag)), 2):
        diag[i], diag[j] = math.gcd(diag[i], diag[j]), math.lcm(diag[i], diag[j])
    return tuple(diag) + (0,) * (size - len(diag))


def invariant_factors(a: Sequence[Sequence[int]]) -> tuple[int, ...]:
    """Nonzero diagonal of the Smith normal form of ``a``."""
    return tuple(d for d in smith_normal_form(a) if d)
