"""Exact linear algebra over the rationals and the integers.

Vectors are tuples of ``fractions.Fraction``; matrices are tuples of row
tuples.  Everything here is pure and allocation-cheap at the ranks we care
about (a dozen at most), so no numpy: exactness matters more than speed, and
lattice membership tests must never go through floats.

One fraction-free elimination, ``_bareiss``, does every exact elimination:
``mat_det`` scales a rational matrix to integers first, ``integer_inverse``
returns an integer matrix over one denominator (a Cartan matrix's inverse,
say), and ``solve`` eliminates the integer normal equations of its system.
The rational Gauss-Jordan reference that the tests compare against lives
with the tests.  Lattice membership never goes through an elimination over
Q: ``hermite_normal_form``, the one integer row reduction, brings an integer
basis to its canonical form over Z with gcd row operations (once per
``rootcore.Lattice``), which decides lattice equality, and
``hermite_coords`` reads a vector's integer coordinates off that form.  The
Smith normal form of a quotient of lattices comes from the same routine, run
alternately over rows and columns; it returns the diagonal only, with no
transforms.
"""

from __future__ import annotations

import itertools
import math
from fractions import Fraction
from operator import mul
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


def vneg(u: Vec) -> Vec:
    return tuple(-a for a in u)


def vscale(c, u: Vec) -> Vec:
    c = Fraction(c)
    return tuple(c * a for a in u)


def vdot(u: Vec, v: Vec) -> Fraction:
    # simple roots are unit vectors and Gram rows are sparse: skip zero factors
    return sum((a * b for a, b in zip(u, v, strict=True) if a and b), ZERO)


def mat(rows: Sequence[Sequence]) -> Matrix:
    return tuple(tuple(Fraction(e) for e in row) for row in rows)


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


def scaled_rows(vectors) -> tuple[int, list[list[int]]]:
    """The lcm ``den`` of the denominators of ``vectors``, and den times each
    vector as an integer row."""
    den = math.lcm(*(x.denominator for b in vectors for x in b))
    return den, [[x.numerator * (den // x.denominator) for x in b] for b in vectors]


def reduced_rows(den: int, rows) -> tuple[int, tuple[tuple[int, ...], ...]]:
    """The vectors row / den in lowest terms: ``den`` and the rows divided by
    the gcd of ``den`` and every entry, the rows as tuples (``den`` > 0)."""
    if (g := math.gcd(den, *itertools.chain.from_iterable(rows))) == 1:
        return den, tuple(map(tuple, rows))
    return den // g, tuple(tuple(x // g for x in row) for row in rows)


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


def solve(a: Matrix, b: Vec) -> Vec | None:
    """Solve ``a @ x = b`` exactly; ``None`` if inconsistent or if ``a``, only
    ever a linearly independent basis, has dependent columns.  ``_bareiss``
    eliminates the normal equations A^T A x = A^T B of [a | b] scaled to
    integer rows [A | B], leaving d x in the last column."""
    n = len(a[0]) if a else 0
    _, rows = scaled_rows([tuple(row) + (bi,) for row, bi in zip(a, b, strict=True)])
    cols = list(zip(*rows))
    normal, d, _ = _bareiss([[sum(map(mul, c, e)) for e in cols] for c in cols[:n]], n)
    dx = [row[n] for row in normal]
    if not d or any(sum(map(mul, row[:n], dx)) != d * row[n] for row in rows):
        return None
    return tuple(Fraction(x, d) for x in dx)


# ---------------------------------------------------------------------------
# integer matrices: the Hermite and Smith normal forms
# ---------------------------------------------------------------------------


def hermite_normal_form(
    rows: Sequence[Sequence[int]],
) -> tuple[tuple[int, tuple[int, ...]], ...]:
    """Row Hermite normal form of an integer matrix over Z, as (pivot column,
    row) pairs with increasing pivot columns.

    Each column is cleared below its pivot by the Euclidean algorithm on the
    rows (subtract integer multiples of the row with the smallest entry
    there), the pivot is made positive, and each entry above it is reduced
    into [0, pivot) by the pivot's row (Cohen, A Course in Computational
    Algebraic Number Theory, 2.4.2).  Every step is unimodular, so the rows
    span the same Z-module as the input, and the form is the same for every
    basis of it: two modules are equal exactly when their forms are.  Zero
    rows are dropped: the number of pairs is the rank.
    """
    rest = [list(row) for row in rows]
    hnf: list[tuple[int, list[int]]] = []
    for col in range(len(rows[0]) if rows else 0):
        live = [row for row in rest if row[col]]
        while len(live) > 1:
            p = min(live, key=lambda row: abs(row[col]))
            for row in live:
                if row is not p:
                    q = row[col] // p[col]
                    row[col:] = [x - q * y for x, y in zip(row[col:], p[col:])]
            live = [row for row in live if row[col]]
        if live:
            p = live[0]  # zero before col, as every earlier column is cleared
            rest = [row for row in rest if row is not p]
            if p[col] < 0:
                p[col:] = [-x for x in p[col:]]
            for _, h in hnf:
                if q := h[col] // p[col]:
                    h[col:] = [x - q * y for x, y in zip(h[col:], p[col:])]
            hnf.append((col, p))
    return tuple((col, tuple(row)) for col, row in hnf)


def hermite_coords(
    hnf: Sequence[tuple[int, Sequence[int]]], w: Sequence[int]
) -> list[int] | None:
    """Integer coordinates of ``w`` in the rows of ``hermite_normal_form``, or
    None when ``w`` is not in their Z-span: the multiples of each row taken
    to reduce ``w`` to zero (a remainder at a pivot stays, as the later rows
    are zero there)."""
    w = list(w)
    coords = []
    for col, row in hnf:
        if q := w[col] // row[col]:
            w[col:] = [x - q * y for x, y in zip(w[col:], row[col:], strict=True)]
        coords.append(q)
    return None if any(w) else coords


def smith_normal_form(a: Sequence[Sequence[int]]) -> tuple[int, ...]:
    """Diagonal d_1 | d_2 | ... of the Smith normal form of ``a``, zeros last,
    with min(rows, columns) entries.

    ``hermite_normal_form`` passes alternate over the rows and the columns
    (each pass transposes its result) until every row has one non-zero
    entry; each pass can only keep or shrink the corner entry, and keeps it
    only once its row and column are clear (Cohen, A Course in Computational
    Algebraic Number Theory, 2.4).  The matrix is then diagonal up to a
    permutation, and replacing pairs of entries by their gcd and lcm turns
    the entries into a divisor chain.
    """
    rows = [[int(e) for e in row] for row in a]
    size = min(len(rows), len(rows[0])) if rows else 0
    while True:
        rows = [row for _, row in hermite_normal_form(rows)]
        if all(sum(1 for x in row if x) == 1 for row in rows):
            break
        rows = transpose(rows)
    diag = [next(x for x in row if x) for row in rows]  # the positive pivots
    for i, j in itertools.combinations(range(len(diag)), 2):
        diag[i], diag[j] = math.gcd(diag[i], diag[j]), math.lcm(diag[i], diag[j])
    return tuple(diag) + (0,) * (size - len(diag))


def invariant_factors(a: Sequence[Sequence[int]]) -> tuple[int, ...]:
    """Nonzero diagonal of the Smith normal form of ``a``."""
    return tuple(d for d in smith_normal_form(a) if d)
