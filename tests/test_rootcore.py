import copy
import itertools
import math
import pickle
from fractions import Fraction
from types import SimpleNamespace

import pytest
from hypothesis import assume, given, settings, strategies as st

from twinefold.checks import FOLDINGS
from twinefold.linalg import bilinear, mat, scaled_rows, vadd, vdot, vec, vscale
from twinefold import rootcore
from twinefold.alcove import fold_to_alcove, fundamental_alcove, stabilizer_datum
from twinefold.folding import automorphism_by_name, fold
from twinefold.fusion import dual_coxeter_number, level_data
from twinefold.twining import TorusPoint, is_regular
from twinefold.rootcore import (
    FourierPolynomial,
    Lattice,
    RootDatum,
    RootSystemError,
    WeylOverflowError,
    build_root_datum,
    cartan_isomorphisms,
    cartan_matrices_match,
    decompose_into_irreducibles,
    dominant_conjugate,
    freudenthal_multiplicities,
    irreducible_character,
    is_sublattice,
    lattice_eq,
    lattice_index,
    lattice_quotient,
    parse_type_label,
    regular_dominant_labels,
    signed_orbit,
    standard_cartan_matrix,
    weyl_traverse,
)

from fraction_reference import (
    classical_weyl_order,
    coords_in_basis,
    lattice,
    lattice_span,
    mat_inv,
    rank_of,
    root_half_lengths,
    system_weyl_order,
    vsub,
    weyl_dimension,
)


def test_a2_root_counts():
    a2 = build_root_datum("A2")
    assert len(a2.positive_roots) == 3
    assert a2.rank == 2


def test_a1_basics():
    a1 = build_root_datum("A1")
    assert a1.positive_roots == (a1.simple_roots[0],)
    assert a1.weyl_vector == vscale(Fraction(1, 2), a1.simple_roots[0])


def test_f4_counts_and_theta():
    f4 = build_root_datum("F4")
    assert len(f4.positive_roots) == 24
    assert f4.norm_sq(f4.highest_root) == 2
    assert f4.norm_sq(f4.highest_short_root) == 1


@pytest.mark.parametrize(
    "label,n_pos",
    [("A3", 6), ("B2", 4), ("B3", 9), ("C3", 9), ("D4", 12), ("G2", 6), ("E6", 36)],
)
def test_positive_root_counts(label, n_pos):
    d = build_root_datum(label)
    assert len(d.positive_roots) == n_pos


def test_long_roots_have_length_two():
    for label in ("A2", "B3", "C3", "D4", "F4", "G2", "E6"):
        d = build_root_datum(label)
        assert max(d.norm_sq(a) for a in d.positive_roots) == 2


def test_cartan_matches_gram():
    b3 = build_root_datum("B3")
    assert b3.cartan == ((2, -1, 0), (-1, 2, -1), (0, -2, 2))


def test_invalid_type():
    with pytest.raises(RootSystemError):
        build_root_datum("D3")
    with pytest.raises(RootSystemError):
        build_root_datum("E7")
    with pytest.raises(RootSystemError):
        build_root_datum("B1")


def test_rho_identities():
    for label in ("A3", "B2", "G2", "D4"):
        d = build_root_datum(label)
        two_rho = vscale(2, d.weyl_vector)
        acc = d.positive_roots[0]
        for a in d.positive_roots[1:]:
            acc = vadd(acc, a)
        assert acc == two_rho


def _ambient(d, labels):
    out = rootcore.zero_vec(d.ambient_dim)
    for m, w in zip(labels, d.fundamental_weights):
        out = vadd(out, vscale(m, w))
    return out


def _length_sign(d):
    """u -> (-1)^#{alpha > 0 : <u, alpha> < 0} for u in Dynkin labels.

    <u, alpha> = sum_i c_i m_i (alpha_i, alpha_i)/2 for alpha = sum_i c_i alpha_i.
    """
    half = [d.norm_sq(a) / 2 for a in d.simple_roots]
    rows = [
        [c * h for c, h in zip(coords_in_basis(d.simple_roots, alpha), half)]
        for alpha in d.positive_roots
    ]

    def sign(labels):
        negative = sum(1 for r in rows if sum(m * x for m, x in zip(labels, r)) < 0)
        return (-1) ** negative

    return sign


def test_weyl_traverse_counts():
    # the orbit of rho; E6's 51840 elements are sign-checked on a sample
    for label, stride in [("A2", 1), ("B2", 1), ("G2", 1), ("A3", 1), ("F4", 1),
                          ("E6", 97)]:
        d = build_root_datum(label)
        els = list(weyl_traverse(d, d.labels_of(d.weyl_vector)))
        assert len(els) == classical_weyl_order(label)
        assert len({u for _, u in els}) == len(els)
        assert els[0] == (1, (1,) * d.rank)
        assert _ambient(d, els[0][1]) == d.weyl_vector
        sign = _length_sign(d)
        for det, u in els[::stride]:
            assert det == sign(u)


def test_weyl_traverse_cap(monkeypatch):
    """|W(A3)| = 24 exceeds the cap, so the first element already raises."""
    d = build_root_datum("A3")
    monkeypatch.setenv("TWINEFOLD_WEYL_CAP", "5")
    orbit = weyl_traverse(d, d.labels_of(d.weyl_vector))
    with pytest.raises(WeylOverflowError, match="^Weyl orbit exceeds the traversal cap 5$"):
        next(orbit)


@pytest.mark.parametrize("labels", [(1, 0, 1), (1, -1, 1), (0, 0, 0), (-2, 3, 1)])
def test_weyl_traverse_rejects_a_label_below_one(labels, monkeypatch):
    """A zero or negative label raises before the cap is consulted."""
    d = build_root_datum("A3")
    with pytest.raises(RootSystemError, match="^weight must be regular dominant integral$"):
        next(weyl_traverse(d, labels))
    monkeypatch.setenv("TWINEFOLD_WEYL_CAP", "5")
    with pytest.raises(RootSystemError, match="^weight must be regular dominant integral$"):
        next(weyl_traverse(d, labels))


def test_weyl_traverse_of_rank_zero_yields_the_identity():
    """The empty labels are regular: the trivial group has one element."""
    trivial = SimpleNamespace(weyl_order=1, cartan=(), _alpha_labels=())
    assert list(weyl_traverse(trivial, ())) == [(1, ())]


# the nine foldings, the flips of A2, A7, A12 and D10, and identity folds with
# unequal root lengths
WEYL_ORDER_CASES = [(g, a) for g, a, _, _ in FOLDINGS] + [
    ("A2", "flip"), ("A7", "flip"), ("A12", "flip"), ("D10", "flip"),
    ("B3", "id"), ("C4", "id"), ("F4", "id"), ("G2", "id"),
]


@pytest.mark.parametrize("group,name", WEYL_ORDER_CASES)
def test_weyl_order_of_base_and_orbit_data(group, name):
    base = build_root_datum(group)
    ctx = fold(base, automorphism_by_name(base, name))
    for datum in (base, ctx.orbit.datum):
        assert datum.weyl_order == classical_weyl_order(datum.type_label)


def test_weyl_order_of_a_reducible_datum():
    d4, a4 = build_root_datum("D4"), build_root_datum("A4")
    for d, nodes, label, order in [(d4, (0, 2, 3), "A1+A1+A1", 8), (a4, (0, 2, 3), "A1+A2", 12)]:
        sub = RootDatum(None, scaled_rows([d.simple_roots[i] for i in nodes]), d.gram_rows)
        assert sub.type_label == label
        assert sub.weyl_order == order == system_weyl_order(label)


# every simple type the tables cover: A1-A12, B2-B10, C2-C10, D4-D10, E6, F4, G2
TABLE_TYPES = (
    [f"A{n}" for n in range(1, 13)]
    + [f"{f}{n}" for f in "BC" for n in range(2, 11)]
    + [f"D{n}" for n in range(4, 11)]
    + ["E6", "F4", "G2"]
)


@settings(deadline=None, max_examples=100)
@given(data=st.data())
def test_weyl_order_of_a_stabilizer_matches_the_table(data):
    # |W_mu| of the zero labels of mu, read off the closure as _check_orbit
    # does, against the table's orders over the classified components
    family, rank = parse_type_label(data.draw(st.sampled_from(TABLE_TYPES)))
    cartan = standard_cartan_matrix(family, rank)
    zeros = sorted(data.draw(st.sets(st.integers(0, rank - 1))))
    sub = [[cartan[i][j] for j in zeros] for i in zeros]
    closure = rootcore._positive_roots_by_closure(sub)
    assert rootcore._weyl_order(closure) == system_weyl_order(rootcore._classify_system(sub))


@pytest.mark.parametrize("label", TABLE_TYPES)
def test_ambient_gram_matches_the_half_length_table(label):
    family, rank = parse_type_label(label)
    cartan, d = standard_cartan_matrix(family, rank), root_half_lengths(family, rank)
    gram = tuple(tuple(d[i] * a for a in row) for i, row in enumerate(cartan))
    datum = build_root_datum(label)
    assert datum.ambient_gram == gram
    assert datum.weyl_order == classical_weyl_order(label)


def test_label_character_obeys_the_cap(monkeypatch):
    """With |W(A3)| = 24 over the cap, an orbit of 4 is expanded and the
    regular orbit of (1, 1, 1) raises before Freudenthal's recursion."""
    d = build_root_datum("A3")
    expected = dict(rootcore.label_character(build_root_datum("A3"), (1, 0, 0)))
    monkeypatch.setenv("TWINEFOLD_WEYL_CAP", "5")
    assert rootcore.label_character(d, (1, 0, 0)) == expected
    assert len(expected) == 4

    def no_recursion(datum, lam):
        raise AssertionError("Freudenthal's recursion ran")

    monkeypatch.setattr(rootcore, "_dominant_multiplicities", no_recursion)
    with pytest.raises(WeylOverflowError, match="^Weyl orbit exceeds the traversal cap 5$"):
        rootcore.label_character(d, (1, 1, 1))


def test_label_character_sizes_a_reducible_stabilizer(monkeypatch):
    """omega_2 of A3 is fixed by A1+A1, so its orbit has 24 / 4 = 6 elements:
    over a cap of 5, within a cap of 6."""
    monkeypatch.setenv("TWINEFOLD_WEYL_CAP", "5")
    with pytest.raises(WeylOverflowError, match="^Weyl orbit exceeds the traversal cap 5$"):
        rootcore.label_character(build_root_datum("A3"), (0, 1, 0))
    monkeypatch.setenv("TWINEFOLD_WEYL_CAP", "6")
    terms = rootcore.label_character(build_root_datum("A3"), (0, 1, 0))
    assert len(terms) == 6 and set(terms.values()) == {1}


@settings(deadline=None, max_examples=25)
@given(
    label=st.sampled_from(["A3", "B3", "C3", "G2"]),
    coeffs=st.lists(st.integers(0, 3), min_size=3, max_size=3),
)
def test_signed_orbit_of_shifted_weight(label, coeffs):
    d = build_root_datum(label)
    lam = rootcore.zero_vec(d.ambient_dim)
    for n, w in zip(coeffs, d.fundamental_weights):
        lam = vadd(lam, vscale(n, w))
    els = list(weyl_traverse(d, d.labels_of(vadd(lam, d.weyl_vector))))
    assert len(els) == classical_weyl_order(label)
    sign = _length_sign(d)
    assert all(det == sign(u) for det, u in els)
    assert sum(det for det, _ in els) == 0


def test_simple_reflection_permutes_positive_roots():
    d = build_root_datum("B3")
    for alpha in d.simple_roots:
        coroot = d.coroot(alpha)
        images = {vsub(beta, vscale(d.inner(beta, coroot), alpha)) for beta in d.positive_roots}
        flipped = {b for b in d.positive_roots if rootcore.vneg(b) in images}
        assert flipped == {alpha}


def test_character_a1_fundamental():
    a1 = build_root_datum("A1")
    w = a1.fundamental_weights[0]
    chi = irreducible_character(a1, w)
    assert chi.terms == {w: 1, rootcore.vneg(w): 1}


def test_character_a2_adjoint():
    a2 = build_root_datum("A2")
    lam = vadd(a2.fundamental_weights[0], a2.fundamental_weights[1])
    chi = irreducible_character(a2, lam)
    assert chi.constant_term(2) == 2
    assert chi.total_mass == 8
    assert weyl_dimension(a2, lam) == 8


def test_character_trivial():
    a2 = build_root_datum("A2")
    chi = irreducible_character(a2, rootcore.zero_vec(2))
    assert chi.terms == {rootcore.zero_vec(2): 1}


def test_weyl_dimension_su2():
    a1 = build_root_datum("A1")
    w = a1.fundamental_weights[0]
    for k in range(5):
        assert weyl_dimension(a1, vscale(k, w)) == k + 1


def test_dimension_mass_agreement():
    for label in ("A2", "B2", "G2"):
        d = build_root_datum(label)
        for i in range(d.rank):
            lam = d.fundamental_weights[i]
            chi = irreducible_character(d, lam)
            assert chi.total_mass == weyl_dimension(d, lam)


def test_decompose_clebsch_gordan_a1():
    a1 = build_root_datum("A1")
    w = a1.fundamental_weights[0]
    chi = irreducible_character(a1, w)
    dec = decompose_into_irreducibles(a1, chi * chi)
    assert dec == {rootcore.zero_vec(1): 1, vscale(2, w): 1}


def test_decompose_3_times_3bar():
    a2 = build_root_datum("A2")
    w1, w2 = a2.fundamental_weights
    prod = irreducible_character(a2, w1) * irreducible_character(a2, w2)
    dec = decompose_into_irreducibles(a2, prod)
    assert dec == {rootcore.zero_vec(2): 1, vadd(w1, w2): 1}


def test_decompose_recomposition_a2():
    a2 = build_root_datum("A2")
    w1, w2 = a2.fundamental_weights
    prod = irreducible_character(a2, vadd(w1, w1)) * irreducible_character(a2, w2)
    dec = decompose_into_irreducibles(a2, prod)
    total = FourierPolynomial({})
    for lam, m in dec.items():
        assert m > 0
        total = total + irreducible_character(a2, lam).scaled(m)
    assert total == prod


def test_decompose_virtual_character():
    # peeling the first character exposes weights absent from the input
    a2 = build_root_datum("A2")
    w1, w2 = a2.fundamental_weights
    big, small = vadd(w1, w1), w2
    diff = irreducible_character(a2, big) - irreducible_character(a2, small)
    assert decompose_into_irreducibles(a2, diff) == {big: 1, small: -1}


def test_character_memoized_on_datum():
    a2 = build_root_datum("A2")
    lam = vadd(*a2.fundamental_weights)
    chi = irreducible_character(a2, lam)
    assert irreducible_character(a2, lam) is chi
    assert chi == irreducible_character(build_root_datum("A2"), lam)


def test_lattice_quotient_doubling():
    z2 = lattice([vec(1, 0), vec(0, 1)], 2)
    two_z2 = lattice([vec(2, 0), vec(0, 2)], 2)
    q = lattice_quotient(two_z2, z2)
    assert q.invariant_factors == (2, 2)
    assert q.order == 4


def test_lattice_quotient_a2_center():
    a2 = build_root_datum("A2")
    root_lat = lattice(a2.simple_roots, 2)
    weight_lat = lattice(a2.fundamental_weights, 2)
    q = lattice_quotient(root_lat, weight_lat)
    assert q.invariant_factors == (3,)


def test_lattice_quotient_trivial():
    l = lattice([vec(1, 2), vec(0, 1)], 2)
    assert lattice_quotient(l, l).is_trivial


def test_lattice_quotient_not_contained():
    z2 = lattice([vec(1, 0), vec(0, 1)], 2)
    half = lattice([vec(Fraction(1, 2), 0), vec(0, 1)], 2)
    with pytest.raises(ValueError):
        lattice_quotient(half, z2)


_RATIONAL = st.builds(Fraction, st.integers(-6, 6), st.integers(1, 4))


def _reference_contains(basis, v):
    """Fraction membership: rational coordinates in the basis, all integral."""
    c = coords_in_basis(basis, v)
    return c is not None and all(x.denominator == 1 for x in c)


def _unimodular_change(data, basis):
    """The basis under random row swaps, sign flips and integer row additions."""
    rows = [list(b) for b in basis]
    for _ in range(data.draw(st.integers(0, 8))):
        i, j = data.draw(st.integers(0, len(rows) - 1)), data.draw(st.integers(0, len(rows) - 1))
        op = data.draw(st.sampled_from(["swap", "negate", "add"]))
        if op == "swap":
            rows[i], rows[j] = rows[j], rows[i]
        elif op == "negate":
            rows[i] = [-x for x in rows[i]]
        elif i != j:
            q = data.draw(st.integers(-3, 3))
            rows[i] = [x + q * y for x, y in zip(rows[i], rows[j])]
    return [tuple(r) for r in rows]


def _draw_basis(data):
    """A dimension <= 6 and up to that many random rational vectors, which
    are independent unless a draw happens to make them dependent."""
    dim = data.draw(st.integers(1, 6))
    rank = data.draw(st.integers(1, dim))
    return dim, [
        tuple(data.draw(st.lists(_RATIONAL, min_size=dim, max_size=dim)))
        for _ in range(rank)
    ]


@settings(deadline=None, max_examples=150)
@given(st.data())
def test_lattice_membership_matches_fraction_reference(data):
    dim, basis = _draw_basis(data)
    rank = len(basis)
    # each lattice is also built from integer rows over a common denominator,
    # which a drawn factor m keeps from being the least one
    m = data.draw(st.integers(1, 3))

    def constructions(vectors):
        den, rows = scaled_rows(vectors)
        return (
            lambda: lattice(vectors, dim),
            lambda: Lattice(m * den, [[m * x for x in r] for r in rows], dim),
        )

    if rank_of(basis) < rank:
        for make in constructions(basis):
            with pytest.raises(ValueError, match="linearly independent"):
                make()
        return
    lats = [make() for make in constructions(basis)]
    ints = st.integers(-4, 4)
    vectors = [
        # in the span: integer and non-integral combinations of the basis
        data.draw(st.lists(ints, min_size=rank, max_size=rank)),
        [Fraction(c, data.draw(st.integers(1, 3)))
         for c in data.draw(st.lists(ints, min_size=rank, max_size=rank))],
    ]
    vs = [
        tuple(sum((c * b[k] for c, b in zip(cs, basis)), Fraction(0)) for k in range(dim))
        for cs in vectors
    ]
    # and an arbitrary vector, mostly outside the span when rank < dim
    vs.append(tuple(data.draw(st.lists(_RATIONAL, min_size=dim, max_size=dim))))
    other = lattice(_unimodular_change(data, basis), dim)
    # an index-2 sublattice, both ways
    doubled = [make() for make in constructions([vscale(2, basis[0])] + basis[1:])]
    for lat in lats:
        assert lat.basis == lats[0].basis == tuple(basis)
        assert (lat.rank, lat.ambient_dim) == (rank, dim)
        for v in vs:
            assert lat.contains(v) == _reference_contains(basis, v), (basis, v)
        assert lat.contains(vs[0])

        # the same lattice under a unimodular change of basis
        assert lattice_eq(lat, other) and lattice_eq(other, lat)
        # an index-2 sublattice is contained but not equal
        for sub in doubled:
            assert is_sublattice(sub, lat) and not lattice_eq(sub, lat)
            assert lattice_quotient(sub, lat).invariant_factors == (2,)

    # a dependent basis: an extra rational combination of the rows
    extra = tuple(
        sum((c * b[k] for c, b in zip(vectors[1], basis)), Fraction(0)) for k in range(dim)
    )
    for make in constructions(basis + [extra]):
        with pytest.raises(ValueError, match="linearly independent"):
            make()


@settings(deadline=None, max_examples=100)
@given(st.data())
def test_lattice_span_of_dependent_generators(data):
    dim, basis = _draw_basis(data)
    assume(rank_of(basis) == len(basis))
    combos = data.draw(st.lists(
        st.lists(st.integers(-3, 3), min_size=len(basis), max_size=len(basis)), max_size=4
    ))
    extra = [
        tuple(sum((c * b[k] for c, b in zip(cs, basis)), Fraction(0)) for k in range(dim))
        for cs in combos
    ]
    order = data.draw(st.permutations(range(len(basis) + len(extra))))
    gens = [(basis + extra)[i] for i in order]
    assert lattice_eq(lattice_span(gens, dim), lattice(basis, dim))


def test_lattice_span_and_lower_rank_quotients():
    # 2 and 3 generate Z
    assert lattice_eq(lattice_span([vec(2), vec(3)], 1), lattice([vec(1)], 1))
    # <(2, 2)> in Z^2: the quotient is Z/2 + Z, and only its torsion is reported
    z2 = lattice([vec(1, 0), vec(0, 1)], 2)
    diagonal = lattice([vec(2, 2)], 2)
    assert lattice_quotient(diagonal, z2).invariant_factors == (2,)
    assert lattice_quotient(lattice([vec(1, 1)], 2), z2).is_trivial
    with pytest.raises(ValueError, match="ranks differ"):
        lattice_index(diagonal, z2)


def _integer_basis(data, dim):
    """Up to ``dim`` integer rows of length ``dim`` and full row rank, with a
    denominator."""
    rank = data.draw(st.integers(1, dim))
    rows = [
        tuple(data.draw(st.lists(st.integers(-5, 5), min_size=dim, max_size=dim)))
        for _ in range(rank)
    ]
    assume(rank_of([vec(*r) for r in rows]) == rank)
    return rows, data.draw(st.integers(1, 12))


@settings(deadline=None, max_examples=150)
@given(st.data())
def test_hermite_form_decides_lattice_equality(data):
    """``lattice_eq`` compares Hermite normal forms; two-way ``is_sublattice``
    is the reference.  A full-rank integer basis over a random denominator
    equals itself after unimodular row operations and a common scaling of
    rows and denominator, and its form does not depend on the row order.  On
    that copy, an index-2 sublattice, an index-2 superlattice and a random
    second basis, the two decisions agree both ways."""
    dim = data.draw(st.integers(1, 6))
    rows, den = _integer_basis(data, dim)
    lat = Lattice(den, rows, dim)
    m = data.draw(st.integers(1, 3))
    same = Lattice(m * den, [[m * x for x in r] for r in _unimodular_change(data, rows)], dim)
    order = data.draw(st.permutations(range(len(rows))))
    assert Lattice(den, [rows[i] for i in order], dim).hermite == lat.hermite == same.hermite
    i = data.draw(st.integers(0, len(rows) - 1))
    doubled = [tuple(2 * x for x in r) if j == i else r for j, r in enumerate(rows)]
    others = [
        same,
        Lattice(den, doubled, dim),
        Lattice(2 * den, [tuple(2 * x for x in r) if j != i else r for j, r in enumerate(rows)], dim),
        Lattice(*_integer_basis(data, dim)[::-1], dim),
    ]
    assert lattice_eq(lat, same) and not lattice_eq(lat, others[1])
    for other in others:
        both_ways = is_sublattice(lat, other) and is_sublattice(other, lat)
        assert lattice_eq(lat, other) == lattice_eq(other, lat) == both_ways


def _reference_closure(cartan):
    """Positive roots in simple-root coordinates by a full reflection closure
    (positive and negative roots) split by sign, sorted by height."""
    rank = len(cartan)
    simple = [tuple(int(i == j) for j in range(rank)) for i in range(rank)]
    roots = set(simple) | {tuple(-c for c in s) for s in simple}
    frontier = set(roots)
    while frontier:
        nxt = set()
        for beta in frontier:
            for i in range(rank):
                pairing = sum(c * cartan[i][j] for j, c in enumerate(beta))
                gamma = tuple(c - pairing * (j == i) for j, c in enumerate(beta))
                if gamma not in roots:
                    roots.add(gamma)
                    nxt.add(gamma)
        frontier = nxt
    positive = sorted((r for r in roots if all(c >= 0 for c in r)), key=lambda r: (sum(r), r))
    assert 2 * len(positive) == len(roots)
    return positive


def _reference_datum(d):
    """Every field of d that construction computes, by Fraction formulas: G
    alpha_i, the Gram and Cartan matrices as Fraction dot products, the full
    reflection closure, A^-1 by Fraction elimination (``mat_inv``), roots,
    rho and fundamental weights as sums c_i alpha_i, and the label frame from
    those.  The type label is left out (the classification tests pin it)."""
    n, dim = d.rank, d.ambient_dim
    galpha = [tuple(vdot(row, a) for row in d.ambient_gram) for a in d.simple_roots]
    gram = tuple(tuple(vdot(a, gb) for gb in galpha) for a in d.simple_roots)
    cartan = tuple(tuple(2 * gij / row[i] for gij in row) for i, row in enumerate(gram))
    assert all(x.denominator == 1 for row in cartan for x in row)
    cartan = tuple(tuple(int(x) for x in row) for row in cartan)

    def combo(coords):
        out = tuple(Fraction(0) for _ in range(dim))
        for c, a in zip(coords, d.simple_roots):
            out = vadd(out, vscale(c, a))
        return out

    closure = _reference_closure(cartan)
    positive = tuple(combo(c) for c in closure)
    rho = tuple(Fraction(0) for _ in range(dim))
    for beta in positive:
        rho = vadd(rho, vscale(Fraction(1, 2), beta))
    cinv = mat_inv(mat(cartan))
    weights = tuple(combo([cinv[j][i] for j in range(n)]) for i in range(n))
    labels = tuple(
        tuple(sum(a * c for a, c in zip(row, coords)) for row in cartan) for coords in closure
    )
    form = [[cinv[i][j] * gram[i][i] / 2 for j in range(n)] for i in range(n)]
    form_den = math.lcm(*(x.denominator for row in form for x in row))
    form = tuple(tuple(int(x * form_den) for x in row) for row in form)
    cinv_den = math.lcm(*(x.denominator for row in cinv for x in row))
    alpha_den = math.lcm(*(x.denominator for a in d.simple_roots for x in a))

    def norm(v):
        return bilinear(d.ambient_gram, v, v)

    def dominant_of_norm(target):
        return next(
            (b for b in positive if norm(b) == target
             and all(bilinear(d.ambient_gram, b, a) >= 0 for a in d.simple_roots)),
            None,
        )

    norms = tuple(norm(b) for b in positive)
    return {
        "cartan": cartan,
        "_coroot_covectors": tuple(vscale(2 / gram[i][i], ga) for i, ga in enumerate(galpha)),
        "positive_roots": positive,
        "_pos_norms": tuple(int(n * form_den) for n in norms),
        "weyl_vector": rho,
        "fundamental_weights": weights,
        "highest_root": dominant_of_norm(max(norms)),
        "highest_short_root": dominant_of_norm(min(norms)),
        "_alpha_labels": tuple(zip(*cartan)),
        "_pos_labels": labels,
        "_form": form,
        "_form_den": form_den,
        "_root_covectors": tuple(
            tuple(sum(f * x for f, x in zip(row, a)) for row in form) for a in labels
        ),
        "_rho_covector": tuple(sum(row) for row in form),
        "_omega_num": tuple(
            tuple(int(w[k] * alpha_den * cinv_den) for w in weights) for k in range(dim)
        ),
        "_omega_den": alpha_den * cinv_den,
        "_alpha_den": alpha_den,
        "_pos_num": tuple(tuple(int(x * alpha_den) for x in b) for b in positive),
    }


_PINNED_TYPES = ([f"A{n}" for n in range(1, 9)] + [f"B{n}" for n in range(2, 7)]
                 + [f"C{n}" for n in range(2, 7)] + [f"D{n}" for n in range(4, 9)]
                 + ["E6", "F4", "G2"])
_PINNED_FOLDINGS = [(g, a) for g, a, _, _ in FOLDINGS] + [("A2", "flip")]


def _assert_matches_reference(datum):
    for name, value in _reference_datum(datum).items():
        assert getattr(datum, name) == value, name


@pytest.mark.parametrize("label", _PINNED_TYPES)
def test_root_datum_matches_fraction_reference(label):
    _assert_matches_reference(build_root_datum(label))


def _realized(ctx):
    """The folded datum (or the B and C subsystems of BC_n), then the orbit datum."""
    folded = ctx.folded
    parts = ([folded.datum] if folded.datum is not None
             else [folded.b_subsystem, folded.c_subsystem])
    return parts + [ctx.orbit.datum]


@pytest.mark.parametrize("group,name", _PINNED_FOLDINGS)
def test_folded_and_orbit_data_match_fraction_reference(group, name):
    base = build_root_datum(group)
    ctx = fold(base, automorphism_by_name(base, name))
    for datum in _realized(ctx):
        _assert_matches_reference(datum)


# the Fraction views a RootDatum builds on first read
LAZY_VIEWS = ("positive_roots", "weyl_vector", "fundamental_weights", "_coroot_covectors")


@pytest.mark.parametrize("group,name", [(g, a) for g, a, _, _ in FOLDINGS])
def test_lazy_views_survive_pickle_and_deepcopy(group, name):
    """Copies taken before and after the views are read equal the reference."""
    base = build_root_datum(group)
    assert not any(view in base.__dict__ for view in LAZY_VIEWS)
    fresh_base = [pickle.loads(pickle.dumps(base)), copy.deepcopy(base)]
    ctx = fold(base, automorphism_by_name(base, name))
    data = [base] + _realized(ctx)
    unread = [fresh_base] + [
        [pickle.loads(pickle.dumps(d)), copy.deepcopy(d)] for d in data[1:]
    ]
    for datum, copies in zip(data, unread):
        for c in copies:
            assert not any(
                view in c.__dict__ for view in ("positive_roots", "fundamental_weights")
            )
            _assert_matches_reference(c)
        _assert_matches_reference(datum)
        for c in (pickle.loads(pickle.dumps(datum)), copy.deepcopy(datum)):
            assert all(view in c.__dict__ for view in LAZY_VIEWS)
            _assert_matches_reference(c)


@pytest.mark.parametrize("group,name", [(g, a) for g, a, _, _ in FOLDINGS])
def test_signed_orbit_is_memoized_per_datum(group, name):
    """J(rho) and J(theta + rho) of the orbit datum are read once, equal the
    traversal, and survive pickle and deepcopy with the datum."""
    base = build_root_datum(group)
    datum = fold(base, automorphism_by_name(base, name)).orbit.datum
    keys = [(1,) * datum.rank, tuple(m + 1 for m in datum.theta_labels)]
    unread = [pickle.loads(pickle.dumps(datum)), copy.deepcopy(datum)]
    assert datum._signed_orbit_cache == {}
    orbits = [signed_orbit(datum, key) for key in keys]
    for key, orbit in zip(keys, orbits):
        assert signed_orbit(datum, key) is orbit
        assert orbit == [(u, sign) for sign, u in weyl_traverse(datum, key)]
        assert len(orbit) == datum.weyl_order
    for c in unread:
        assert c._signed_orbit_cache == {}
        assert [signed_orbit(c, key) for key in keys] == orbits
    for c in (pickle.loads(pickle.dumps(datum)), copy.deepcopy(datum)):
        assert c._signed_orbit_cache == dict(zip(keys, orbits))
        assert [signed_orbit(c, key) for key in keys] == orbits


@pytest.mark.parametrize("group,name", [(g, a) for g, a, _, _ in FOLDINGS])
def test_fold_builds_no_fraction_views(group, name):
    base = build_root_datum(group)
    ctx = fold(base, automorphism_by_name(base, name))
    assert "roots" not in ctx.folded.__dict__
    for datum in _realized(ctx):
        for view in ("positive_roots", "fundamental_weights"):
            assert view not in datum.__dict__, view


@pytest.mark.parametrize("group,name", [(g, a) for g, a, _, _ in FOLDINGS])
def test_points_and_theta_data_build_no_fraction_views(group, name):
    """Coroot coordinates, the alcove walk, stabilizers and level data read
    the base and orbit data's integer rows, not their Fraction views."""
    base = build_root_datum(group)
    ctx = fold(base, automorphism_by_name(base, name))
    data = (base, ctx.orbit.datum)
    views = [{v for v in LAZY_VIEWS if v in d.__dict__} for d in data]
    for v in fundamental_alcove(ctx).vertices:
        for xi in (v, vscale(-Fraction(7, 3), v)):
            base.from_coroot_coords(*base.coroot_coords(xi))
            is_regular(ctx, TorusPoint(xi))
            stabilizer_datum(ctx, fold_to_alcove(ctx, xi)[0])
    level_data(ctx, 2)
    assert views == [{v for v in LAZY_VIEWS if v in d.__dict__} for d in data]


def test_comark_checks_fire(monkeypatch):
    """One integrality and one positivity check guard the comarks
    2 (F t)_i / tFt, for every reader of theta's extended-diagram data."""
    base = build_root_datum("A3")
    ctx = fold(base, automorphism_by_name(base, "flip"))
    orbit = ctx.orbit.datum
    i, origin = orbit._theta_index, (Fraction(0),) * 3
    ft = orbit._root_covectors[i]
    assert (ft, orbit._pos_norms[i]) == ((2, 2), 4)
    readers = [
        lambda: orbit.comarks,
        lambda: orbit.extended_cartan,
        lambda: dual_coxeter_number(ctx),
        lambda: level_data(ctx, 1),
        lambda: fold_to_alcove(ctx, origin),
        lambda: stabilizer_datum(ctx, origin),
    ]
    for patched, message in [
        ((3, 2), "^theta\\^vee is not an integer combination of the simple coroots$"),
        ((-2, -2), "^a fundamental weight pairs non-positively with theta$"),
    ]:
        covectors = list(orbit._root_covectors)
        covectors[i] = patched
        monkeypatch.setattr(orbit, "_root_covectors", tuple(covectors))
        for read in readers:
            with pytest.raises(RootSystemError, match=message):
                read()
    monkeypatch.undo()
    assert orbit.comarks == (1, 1) and dual_coxeter_number(ctx) == 3


@pytest.mark.parametrize("group,name", [(g, a) for g, a, _, _ in FOLDINGS])
def test_stabilizer_data_match_fraction_reference(group, name):
    base = build_root_datum(group)
    ctx = fold(base, automorphism_by_name(base, name))
    for vertex in fundamental_alcove(ctx).vertices:
        stab = stabilizer_datum(ctx, vertex)
        _assert_matches_reference(RootDatum(None, scaled_rows(stab.surviving), base.gram_rows))


def test_every_component_root_count_is_checked(monkeypatch):
    # a closure that loses a root is caught for a reducible datum as for a simple one
    d4 = build_root_datum("D4")
    closure = rootcore._positive_roots_by_closure
    monkeypatch.setattr(
        rootcore, "_positive_roots_by_closure", lambda c: dict(list(closure(c).items())[:-1])
    )
    with pytest.raises(RootSystemError, match=r"^A1\+A1\+A1: closure produced 4 roots, expected 6$"):
        RootDatum(None, scaled_rows([d4.simple_roots[i] for i in (0, 2, 3)]), d4.gram_rows)
    with pytest.raises(RootSystemError, match="^A2: closure produced 4 roots, expected 6$"):
        build_root_datum("A2")


def test_half_sum_is_checked_against_the_fundamental_weights(monkeypatch):
    # a wrong A^-1 (halved) moves the fundamental weights but not rho
    inverse = rootcore.integer_inverse
    monkeypatch.setattr(rootcore, "integer_inverse", lambda a: (inverse(a)[0], 2 * inverse(a)[1]))
    for label in ("A2", "G2"):
        with pytest.raises(RootSystemError, match="^half-sum of positive roots disagrees"):
            build_root_datum(label)


def test_classify():
    for label in ("A2", "B3", "C3", "D4", "G2", "F4", "E6"):
        d = build_root_datum(label)
        assert RootDatum(None, d.root_rows(), d.gram_rows).type_label == label


def test_is_of_type_on_realized_c3():
    # C3 in its own coordinates and as the orbit datum of A6 flip
    a6 = build_root_datum("A6")
    for c3 in (build_root_datum("C3"), fold(a6, automorphism_by_name(a6, "flip")).orbit.datum):
        assert c3.type_label == "C3"
        assert RootDatum("C3", c3.root_rows(), c3.gram_rows).type_label == "C3"
        for wrong in ("B3", "C4"):
            with pytest.raises(RootSystemError, match=f"not of type {wrong}"):
                RootDatum(wrong, c3.root_rows(), c3.gram_rows)


@settings(deadline=None, max_examples=60)
@given(data=st.data())
def test_classified_subsystems_match_root_counts(data):
    # any set of simple roots spans a subsystem whose components' ranks add
    # up to its size and whose roots are those of the named components
    d = build_root_datum(
        data.draw(st.sampled_from(("A5", "B4", "C4", "D5", "E6", "F4", "G2")))
    )
    subset = data.draw(st.sets(st.integers(0, d.rank - 1), min_size=1))
    order = data.draw(st.permutations(sorted(subset)))
    sub = RootDatum(None, scaled_rows([d.simple_roots[i] for i in order]), d.gram_rows)
    parts = [parse_type_label(c) for c in sub.type_label.split("+")]
    assert sum(rank for _, rank in parts) == len(subset)
    assert 2 * len(sub.positive_roots) == sum(
        rootcore._ROOT_COUNTS[family](rank) for family, rank in parts
    )


def _orbit_datum(label, name):
    d = build_root_datum(label)
    return fold(d, automorphism_by_name(d, name)).orbit.datum


_WCF_DATA = {label: build_root_datum(label)
             for label in ("A1", "A2", "A3", "B2", "B3", "C3", "G2", "D4")}
_WCF_DATA["A3 flip"] = _orbit_datum("A3", "flip")
_WCF_DATA["D4 rot"] = _orbit_datum("D4", "rot")


def _alternant(d, v):
    """J(v) = sum_w det(w) e^{w.v} from the signed orbit of weyl_traverse."""
    return FourierPolynomial(
        {_ambient(d, u): sign for sign, u in weyl_traverse(d, d.labels_of(v))}
    )


@settings(deadline=None, max_examples=30)
@given(data=st.data(), name=st.sampled_from(sorted(_WCF_DATA)))
def test_weyl_character_formula(data, name):
    """chi_lam * J(rho) == J(lam + rho) as exact polynomials, labels <= 2.

    On D4 the labels sum to at most 2: chi_{2 rho} has 7009 weights, and the
    exact product with the 192 terms of J(rho) takes ~40 s.
    """
    d = _WCF_DATA[name]
    labels = data.draw(
        st.lists(st.integers(0, 2), min_size=d.rank, max_size=d.rank).filter(
            lambda m: name != "D4" or sum(m) <= 2
        )
    )
    lam = _ambient(d, labels)
    chi = irreducible_character(d, lam)
    assert chi * _alternant(d, d.weyl_vector) == _alternant(d, vadd(lam, d.weyl_vector))
    assert chi.total_mass == weyl_dimension(d, lam)


def test_label_frame_matches_the_form():
    for label in ("A3", "B3", "C3", "G2", "F4", "E6"):
        d = build_root_datum(label)
        for i, wi in enumerate(d.fundamental_weights):
            assert d.labels_of(wi) == tuple(int(i == j) for j in range(d.rank))
            for j, wj in enumerate(d.fundamental_weights):
                assert d.inner(wi, wj) == Fraction(d._form[i][j], d._form_den)
        for alpha, a in zip(d.positive_roots, d._pos_labels):
            assert d.labels_of(alpha) == a
            assert d.from_labels(a) == alpha


def test_weight_off_the_root_span_raises():
    # omega1 + omega3 + (alpha1 - alpha3) has the orbit labels of omega1 + omega3,
    # but alpha1 - alpha3 is orthogonal to the kappa-fixed span
    d = _orbit_datum("A3", "flip")
    w1, _, w3 = build_root_datum("A3").fundamental_weights
    off = vadd(vadd(w1, w3), vec(1, 0, -1))
    labels = tuple(vdot(off, c) for c in d._coroot_covectors)
    assert labels == d.labels_of(vadd(w1, w3))
    with pytest.raises(RootSystemError, match="outside the root span"):
        irreducible_character(d, off)
    with pytest.raises(RootSystemError, match="outside the root span"):
        freudenthal_multiplicities(d, off)
    with pytest.raises(RootSystemError, match="outside the root span"):
        decompose_into_irreducibles(d, FourierPolynomial({off: 1}))


def test_decompose_key_off_the_weight_lattice_raises():
    a2 = build_root_datum("A2")
    w1, w2 = a2.fundamental_weights
    half = vscale(Fraction(1, 2), w1)
    poly = irreducible_character(a2, w2) + FourierPolynomial({half: 1})
    with pytest.raises(RootSystemError, match="not on the weight lattice"):
        decompose_into_irreducibles(a2, poly)


def test_decompose_non_invariant_raises():
    a2 = build_root_datum("A2")
    w1, _ = a2.fundamental_weights
    with pytest.raises(RootSystemError, match="not Weyl-invariant"):
        decompose_into_irreducibles(a2, FourierPolynomial({rootcore.vneg(w1): 1}))
    # a dominant highest term over a non-invariant remainder
    poly = irreducible_character(a2, w1) + FourierPolynomial({rootcore.vneg(w1): 1})
    with pytest.raises(RootSystemError, match="not Weyl-invariant"):
        decompose_into_irreducibles(a2, poly)


@settings(deadline=None, max_examples=40)
@given(
    label=st.sampled_from(["A1", "A3", "B3", "C4", "D4", "G2", "F4", "E6"]),
    data=st.data(),
)
def test_label_dimension_matches_weyl_dimension(label, data):
    d = build_root_datum(label)
    labels = data.draw(st.lists(st.integers(0, 4), min_size=d.rank, max_size=d.rank))
    lam = d.from_labels(tuple(labels))
    assert rootcore.label_dimension(d, tuple(labels)) == weyl_dimension(d, lam)


# every standard Cartan matrix of rank <= 6, by rank
_STANDARD = {}
for _family, _ranks in [("A", range(1, 7)), ("B", range(2, 7)), ("C", range(2, 7)),
                        ("D", range(4, 7)), ("E", [6]), ("F", [4]), ("G", [2])]:
    for _n in _ranks:
        _STANDARD.setdefault(_n, []).append(standard_cartan_matrix(_family, _n))
_STANDARD_PAIRS = [(a, b) for mats in _STANDARD.values() for a in mats for b in mats]


def _brute_isomorphisms(a, b):
    n = len(a)
    return [
        p for p in itertools.permutations(range(n))
        if all(a[p[i]][p[j]] == b[i][j] for i in range(n) for j in range(n))
    ]


def test_isomorphisms_of_standard_matrices():
    for a, b in _STANDARD_PAIRS:
        assert list(cartan_isomorphisms(a, b)) == _brute_isomorphisms(a, b)
    b3, c3 = standard_cartan_matrix("B", 3), standard_cartan_matrix("C", 3)
    assert not cartan_matrices_match(b3, c3)
    assert not cartan_matrices_match(b3, standard_cartan_matrix("B", 4))


@settings(deadline=None, max_examples=100)
@given(data=st.data(), pair=st.sampled_from(_STANDARD_PAIRS))
def test_isomorphisms_of_relabeled_matrices(data, pair):
    a, b = pair
    n = len(a)
    p = data.draw(st.permutations(range(n)))
    q = data.draw(st.permutations(range(n)))
    a = tuple(tuple(a[p[i]][p[j]] for j in range(n)) for i in range(n))
    b = tuple(tuple(b[q[i]][q[j]] for j in range(n)) for i in range(n))
    found = list(cartan_isomorphisms(a, b))
    assert found == _brute_isomorphisms(a, b)
    assert cartan_matrices_match(a, b) == bool(found)


@settings(deadline=None, max_examples=60)
@given(data=st.data(), label=st.sampled_from(["A3", "B3", "C3", "D4", "F4", "G2"]))
def test_regular_dominant_labels(data, label):
    d = build_root_datum(label)
    m = tuple(data.draw(st.lists(st.integers(-5, 5), min_size=d.rank, max_size=d.rank)))
    pairings = [sum(x * c for x, c in zip(m, cov)) for cov in d._root_covectors]
    got = regular_dominant_labels(d, m)
    if 0 in pairings:
        assert got is None
        return
    sign, dom = got
    assert all(x > 0 for x in dom)
    assert dominant_conjugate(d, m)[1] == dom
    assert sign == (-1) ** sum(1 for p in pairings if p < 0)
