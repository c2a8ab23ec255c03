"""Reference algorithms in plain Fraction arithmetic, and reference tables,
for the tests to compare the library's integer paths against.

Rank, inverse and basis coordinates by rational Gauss-Jordan elimination
(``_row_reduce``), the Weyl dimension formula over ambient pairings, the
lattice spanned by dependent generators, and affine reflections and their
words applied in ``Fraction`` vectors.  Lattices built from ``Fraction``
vectors or from a datum's coroots and coweights, vector subtraction and the
kappa-average of a folding context serve only the tests, so they live here
too.  The Weyl-group orders, root counts and root half-lengths of the simple
types are tables by family, which the library derives from the root data
instead.
No library code path calls any of these.
"""

from __future__ import annotations

from fractions import Fraction
from math import factorial, prod
from typing import Sequence

from twinefold.linalg import (
    ONE,
    ZERO,
    Matrix,
    Vec,
    hermite_normal_form,
    scaled_rows,
    vadd,
    vdot,
    vscale,
)
from twinefold.alcove import AffineReflection
from twinefold.rootcore import Lattice, RootDatum, RootSystemError, parse_type_label

_WEYL_ORDERS = {
    "A": lambda n: factorial(n + 1),
    "B": lambda n: 2**n * factorial(n),
    "C": lambda n: 2**n * factorial(n),
    "D": lambda n: 2 ** (n - 1) * factorial(n),
    "E6": lambda n: 51840,
    "F4": lambda n: 1152,
    "G2": lambda n: 12,
}


def classical_weyl_order(label: str) -> int:
    """|W| of a simple type by the table."""
    family, rank = parse_type_label(label)
    if family in ("E", "F", "G"):
        return _WEYL_ORDERS[label](rank)
    return _WEYL_ORDERS[family](rank)


def system_weyl_order(label: str) -> int:
    """|W| of a type label, reducible ones 'X+Y' as the product over the
    components; '' (no nodes) is the trivial group."""
    return prod(classical_weyl_order(c) for c in label.split("+") if c)


_ROOT_COUNTS = {
    "A": lambda n: n * (n + 1),
    "B": lambda n: 2 * n * n,
    "C": lambda n: 2 * n * n,
    "D": lambda n: 2 * n * (n - 1),
    "E6": lambda n: 72,
    "F4": lambda n: 48,
    "G2": lambda n: 12,
}


def system_root_count(label: str) -> int:
    """The number of roots of a type label by the table, reducible ones 'X+Y'
    as the sum over the components."""
    total = 0
    for component in label.split("+"):
        family, rank = parse_type_label(component)
        total += _ROOT_COUNTS[component if family in ("E", "F", "G") else family](rank)
    return total


def root_half_lengths(family: str, rank: int) -> tuple[Fraction, ...]:
    """d_i = (alpha_i, alpha_i)/2 by the table, long roots at squared length 2."""
    n = rank
    one = Fraction(1)
    if family in ("A", "D", "E"):
        return (one,) * n
    if family == "B":
        return (one,) * (n - 1) + (Fraction(1, 2),)
    if family == "C":
        return (Fraction(1, 2),) * (n - 1) + (one,)
    if family == "F":
        return (one, one, Fraction(1, 2), Fraction(1, 2))
    if family == "G":
        return (one, Fraction(1, 3))
    raise RootSystemError(f"unknown family {family!r}")


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


def vsub(u: Vec, v: Vec) -> Vec:
    return tuple(a - b for a, b in zip(u, v, strict=True))


def lattice(basis, ambient_dim: int) -> Lattice:
    """The lattice with the independent ``Fraction`` vectors ``basis``."""
    return Lattice(*scaled_rows(tuple(basis)), ambient_dim)


def coroot_lattice(datum: RootDatum) -> Lattice:
    return Lattice(*datum.coroot_rows(), datum.ambient_dim)


def coweight_lattice(datum: RootDatum) -> Lattice:
    return Lattice(*datum.coweight_rows(), datum.ambient_dim)


def lattice_span(vectors, ambient_dim: int) -> Lattice:
    """The lattice generated by ``vectors``, which need not be independent:
    its basis is their Hermite normal form, scaled back by the common
    denominator."""
    den, rows = scaled_rows(vectors)
    return Lattice(den, [row for _, row in hermite_normal_form(rows)], ambient_dim)


def project(ctx, v: Vec) -> Vec:
    """The kappa-average (1/|kappa|) sum_t kappa^t v of a folding context: each
    simple-root coordinate replaced by its mean over the node orbit, read off
    the library's integer projection ``ctx._scaled_projection``."""
    den, (row,) = scaled_rows([v])
    scale = ctx.kappa.order * den
    return tuple(Fraction(x, scale) for x in ctx._scaled_projection(row))


def fraction_wall(wall) -> tuple[Vec, Fraction, Vec]:
    """(G alpha, k, alpha^vee) of an ``alcove.AffineReflection`` as
    ``Fraction`` vectors."""
    covector, k, coroot, den = wall
    return (
        tuple(Fraction(x, den) for x in covector),
        Fraction(k),
        tuple(Fraction(x, den) for x in coroot),
    )


def affine_reflection(covector: Vec, k: int, coroot: Vec):
    """The ``alcove.AffineReflection`` in <alpha, x> = k of the ``Fraction``
    vectors G alpha and alpha^vee, over their common denominator."""
    den, (c, r) = scaled_rows([covector, coroot])
    return AffineReflection(tuple(c), k, tuple(r), den)


def reference_apply(g, v: Vec) -> Vec:
    """``AffineElement.apply`` as a ``Fraction`` loop: the translation, then
    x -> x - (<alpha, x> - k) alpha^vee for each reflection of the word."""
    if g.shift:
        v = vadd(v, g.shift)
    for covector, k, coroot in map(fraction_wall, g.word):
        v = vsub(v, vscale(vdot(covector, v) - k, coroot))
    return v
