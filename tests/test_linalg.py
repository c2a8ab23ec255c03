import itertools
import math
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings, strategies as st

from twinefold.linalg import (
    ZERO,
    hermite_coords,
    hermite_normal_form,
    integer_inverse,
    invariant_factors,
    mat,
    mat_det,
    mat_mul,
    mat_vec,
    smith_normal_form,
    solve,
    transpose,
    vec,
)
from twinefold.rootcore import standard_cartan_matrix

from fraction_reference import coords_in_basis, identity, mat_inv, rank_of


def test_solve_exact():
    a = mat([[2, 1], [1, 3]])
    x = solve(a, vec(5, 10))
    assert x == vec(1, 3)


def test_solve_inconsistent():
    a = mat([[1, 1], [2, 2]])
    assert solve(a, vec(1, 3)) is None


def test_solve_overdetermined():
    # 3 equations, 2 unknowns, consistent
    a = mat([[1, 0], [0, 1], [1, 1]])
    assert solve(a, vec(2, 3, 5)) == vec(2, 3)
    assert solve(a, vec(2, 3, 6)) is None


def test_coords_in_basis():
    basis = (vec(1, 1, 0), vec(0, 1, 1))
    assert coords_in_basis(basis, vec(2, 3, 1)) == vec(2, 1)
    assert coords_in_basis(basis, vec(1, 0, 0)) is None


def test_det_and_inverse():
    m = mat([[2, 1], [1, 1]])
    assert mat_det(m) == 1
    inv = mat_inv(m)
    assert mat_mul(m, inv) == mat([[1, 0], [0, 1]])
    with pytest.raises(ValueError):
        mat_inv(mat([[1, 2], [2, 4]]))


def test_rank():
    assert rank_of([vec(1, 2), vec(2, 4)]) == 1
    assert rank_of([vec(1, 0), vec(0, 1)]) == 2


def test_invariant_factors_cartan_a2():
    # index of the A2 root lattice in the weight lattice
    assert invariant_factors([[2, -1], [-1, 2]]) == (1, 3)


def test_snf_of_unimodular_matrix_with_large_entries():
    # determinant 1; an elimination that lets entries grow never finishes here
    a = [
        [0, -15, -6384, 85278417, 31765664],
        [-3, -212, -90288, 1206080469, 449257248],
        [-2, -132, -56211, 750874871, 279696079],
        [1, 0, 0, 0, 0],
        [-6, -429, -182716, 2440747333, 909162745],
    ]
    assert smith_normal_form(a) == (1, 1, 1, 1, 1)


@st.composite
def _integer_matrices(draw):
    """Integer matrices up to 6 x 7 with entries in [-50, 50], zero and
    repeated rows mixed in."""
    ncols = draw(st.integers(1, 7))
    row = st.lists(st.integers(-50, 50), min_size=ncols, max_size=ncols)
    rows = draw(st.lists(st.one_of(row, st.just([0] * ncols)), min_size=1, max_size=6))
    for _ in range(draw(st.integers(0, 6 - len(rows)))):
        rows.insert(draw(st.integers(0, len(rows))), list(draw(st.sampled_from(rows))))
    return rows


@settings(deadline=None, max_examples=300)
@given(_integer_matrices(), st.data())
def test_hermite_normal_form_is_the_canonical_basis_of_the_row_module(rows, data):
    ncols = len(rows[0])
    hnf = hermite_normal_form(rows)
    pivots = [col for col, _ in hnf]
    form = [row for _, row in hnf]
    assert all(a < b for a, b in itertools.pairwise(pivots))
    for i, (col, row) in enumerate(hnf):
        assert row[col] > 0 and not any(row[:col])
        assert all(0 <= h[col] < row[col] for h in form[:i])
    assert len(hnf) == rank_of([vec(*r) for r in rows])

    # the same form for a permutation and a unimodular change of the rows
    changed = [list(rows[i]) for i in data.draw(st.permutations(range(len(rows))))]
    for _ in range(data.draw(st.integers(0, 8))):
        i, j = (data.draw(st.integers(0, len(rows) - 1)) for _ in range(2))
        q = data.draw(st.integers(-3, 3))
        changed[i] = [-x for x in changed[i]] if i == j else [
            x + q * y for x, y in zip(changed[i], changed[j])
        ]
    assert hermite_normal_form(changed) == hnf

    # every input row reduces to zero, with integer coordinates that rebuild it
    for r in rows:
        coords = hermite_coords(hnf, r)
        assert coords is not None and all(type(c) is int for c in coords)
        assert [sum(c * h[k] for c, h in zip(coords, form)) for k in range(ncols)] == r

    # off the span: a unit vector at the first column without a pivot, or at
    # the first pivot above 1, and a random vector, against the rational
    # coordinates in the form's rows
    units = [j for j in range(ncols) if j not in pivots][:1]
    units += [col for col, row in hnf if row[col] > 1][:1]
    off = [[int(k == j) for k in range(ncols)] for j in units]
    for v in off + [data.draw(st.lists(st.integers(-50, 50), min_size=ncols, max_size=ncols))]:
        ref = coords_in_basis([vec(*h) for h in form], vec(*v))
        if ref is not None and all(c.denominator == 1 for c in ref):
            assert v not in off
            assert hermite_coords(hnf, v) == [int(c) for c in ref]
        else:
            assert hermite_coords(hnf, v) is None


def _minor_gcd(a, k):
    """gcd of all k x k minors of a."""
    g = 0
    for rows in itertools.combinations(range(len(a)), k):
        for cols in itertools.combinations(range(len(a[0])), k):
            g = math.gcd(g, int(mat_det(mat([[a[i][j] for j in cols] for i in rows]))))
    return g


@settings(deadline=None, max_examples=200)
@given(st.integers(1, 4), st.integers(1, 5), st.data())
def test_invariant_factors_are_ratios_of_minor_gcds(rows, cols, data):
    a = data.draw(st.lists(
        st.lists(st.integers(-6, 6), min_size=cols, max_size=cols), min_size=rows, max_size=rows
    ))
    factors = invariant_factors(a)
    # d_k / d_(k-1) with d_0 = 1, up to the rank, where d_k is the kth minor gcd
    d = [1] + [_minor_gcd(a, k) for k in range(1, min(rows, cols) + 1)]
    rank = sum(1 for g in d[1:] if g)
    assert factors == tuple(d[k] // d[k - 1] for k in range(1, rank + 1))
    for f, g in zip(factors, factors[1:]):
        assert g % f == 0
    snf = smith_normal_form(a)
    assert len(snf) == min(rows, cols)
    assert snf == factors + (0,) * (len(snf) - len(factors))



def test_det_sign_of_row_swaps():
    # every pivot needs a swap: the anti-diagonal permutation matrices
    assert mat_det(mat([[0, 1], [1, 0]])) == -1
    assert mat_det(mat([[0, 0, 1], [0, 1, 0], [1, 0, 0]])) == -1
    assert mat_det(mat([[0, 1, 0], [0, 0, 1], [1, 0, 0]])) == 1
    assert mat_det(mat([[0, 2], [3, 1]])) == -6


# random integer matrices with n <= 4 and entries -3..3
ENTRY = st.integers(-3, 3)


@st.composite
def square_matrices(draw, max_n=4):
    n = draw(st.integers(1, max_n))
    return mat(draw(st.lists(st.lists(ENTRY, min_size=n, max_size=n), min_size=n, max_size=n)))


def _leibniz_det(m):
    """sum over permutations p of sign(p) prod_i m[i][p(i)]."""
    n = len(m)
    total = 0
    for p in itertools.permutations(range(n)):
        inversions = sum(1 for i, j in itertools.combinations(range(n), 2) if p[i] > p[j])
        term = (-1) ** inversions
        for i in range(n):
            term *= m[i][p[i]]
        total += term
    return total


@settings(deadline=None, max_examples=200)
@given(square_matrices())
def test_det_matches_leibniz(m):
    assert mat_det(m) == _leibniz_det(m)


@settings(deadline=None, max_examples=200)
@given(square_matrices(), st.lists(ENTRY, min_size=4, max_size=4))
def test_inverse_and_solve(m, xs):
    n = len(m)
    ints = [[int(x) for x in row] for row in m]
    if _leibniz_det(m) == 0:
        with pytest.raises(ValueError, match="matrix is singular"):
            mat_inv(m)
        with pytest.raises(ValueError, match="matrix is singular"):
            integer_inverse(ints)
        return
    assert mat_mul(m, mat_inv(m)) == identity(n)
    num, den = integer_inverse(ints)
    assert tuple(tuple(Fraction(x, den) for x in row) for row in num) == mat_inv(m)
    assert den > 0 and math.gcd(den, *(x for row in num for x in row)) == 1
    x = vec(*xs[:n])
    assert solve(m, mat_vec(m, x)) == x


@settings(deadline=None, max_examples=200)
@given(st.integers(1, 4), st.integers(1, 4), st.data())
def test_rank_of_transpose(rows, cols, data):
    m = mat(data.draw(st.lists(
        st.lists(ENTRY, min_size=cols, max_size=cols), min_size=rows, max_size=rows
    )))
    assert rank_of(m) == rank_of(transpose(m))
    assert rank_of(m) <= min(rows, cols)


@settings(deadline=None, max_examples=200)
@given(square_matrices(max_n=3), st.integers(1, 2), st.data())
def test_overdetermined_solve(b, extra, data):
    # a = b stacked on c.b has full column rank when b does, and a x = (y, z)
    # is consistent exactly when z = c y; the rows are then shuffled
    assume(_leibniz_det(b) != 0)
    n = len(b)
    c = mat(data.draw(st.lists(st.lists(ENTRY, min_size=n, max_size=n),
                               min_size=extra, max_size=extra)))
    y = vec(*data.draw(st.lists(ENTRY, min_size=n, max_size=n)))
    delta = vec(*data.draw(st.lists(ENTRY, min_size=extra, max_size=extra)))
    order = data.draw(st.permutations(range(n + extra)))
    a = b + mat_mul(c, b)
    rhs = y + tuple(z + d for z, d in zip(mat_vec(c, y), delta))
    a = tuple(a[i] for i in order)
    rhs = tuple(rhs[i] for i in order)
    x = solve(a, rhs)
    if any(d != ZERO for d in delta):
        assert x is None
    else:
        assert x is not None and mat_vec(a, x) == rhs


# every type standard_cartan_matrix supports, up to rank 8
_CARTAN_TYPES = (
    [("A", n) for n in range(1, 9)] + [("B", n) for n in range(2, 9)]
    + [("C", n) for n in range(2, 9)] + [("D", n) for n in range(4, 9)]
    + [("E", 6), ("F", 4), ("G", 2)]
)


@settings(deadline=None, max_examples=20)
@given(st.data())
def test_integer_inverse_of_relabeled_cartan_matrices(data):
    for family, rank in _CARTAN_TYPES:
        a = standard_cartan_matrix(family, rank)
        p = data.draw(st.permutations(range(rank)))
        a = [[a[p[i]][p[j]] for j in range(rank)] for i in range(rank)]
        num, den = integer_inverse(a)
        # A (N / d) = I, with d the least common denominator
        assert [[sum(x * y for x, y in zip(row, col)) for col in zip(*num)] for row in a] == [
            [den * (i == j) for j in range(rank)] for i in range(rank)
        ]
        assert den > 0 and math.gcd(den, *(x for row in num for x in row)) == 1
        inverse = tuple(tuple(Fraction(x, den) for x in row) for row in num)
        assert inverse == mat_inv(mat(a))
