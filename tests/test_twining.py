import cmath
import math
import random
from fractions import Fraction
from functools import lru_cache
from itertools import islice

import pytest
from hypothesis import given, settings, strategies as st

from twinefold import checks
from twinefold.alcove import fold_to_alcove, fundamental_alcove
from twinefold.linalg import mat_vec, vadd, vdot, vneg, vscale, vsub, zero_vec
from twinefold.rootcore import (
    FourierPolynomial,
    RootSystemError,
    build_root_datum,
    decompose_into_irreducibles,
    irreducible_character,
    label_character,
    signed_orbit,
)
from twinefold.folding import automorphism_by_name, fold, fundamental_coweights
from twinefold.twining import (
    SingularPointError,
    TorusPoint,
    adjoint_oracle,
    denominator_norm_sq,
    evaluate_labels,
    inner_product,
    is_regular,
    jantzen_eval,
    twining_character,
    weyl_denominator,
)

TOL = 1e-9


def ctx_for(label, name="flip"):
    d = build_root_datum(label)
    return fold(d, automorphism_by_name(d, name))


def seeded_points(ctx, seed):
    """Endless random combinations of the orbit fundamental coweights."""
    rng = random.Random(seed)
    cws = fundamental_coweights(ctx.orbit.datum)
    while True:
        xi = zero_vec(ctx.base.ambient_dim)
        for cw in cws:
            c = Fraction(rng.randint(1, 400), rng.randint(401, 997))
            xi = vadd(xi, vscale(c, cw))
        yield TorusPoint(xi)


def random_regular_points(ctx, count, seed=0):
    regular = (pt for pt in seeded_points(ctx, seed) if is_regular(ctx, pt))
    return list(islice(regular, count))


def test_denominator_a2():
    ctx = ctx_for("A2")
    theta = ctx.base.highest_root
    poly = weyl_denominator(ctx).poly
    assert poly.terms == {zero_vec(2): 1, vneg(vscale(2, theta)): -1}


def test_denominator_trivial_a1():
    d = build_root_datum("A1")
    ctx = fold(d, automorphism_by_name(d, "id"))
    poly = weyl_denominator(ctx).poly
    assert poly.terms == {zero_vec(1): 1, vneg(d.simple_roots[0]): -1}


def test_denominator_vanishes_at_identity():
    for label, name in [("A2", "flip"), ("A3", "flip"), ("D4", "rot")]:
        ctx = ctx_for(label, name)
        value = weyl_denominator(ctx).eval(ctx, TorusPoint(zero_vec(ctx.base.ambient_dim)))
        assert abs(value) < 1e-12


def test_evaluate_labels_matches_evaluate():
    """The label-keyed value equals the ambient polynomial's value exactly."""
    for label, name in [("A3", "flip"), ("D4", "rot"), ("A4", "flip")]:
        ctx = ctx_for(label, name)
        gram = ctx.base.ambient_gram
        chi = twining_character(ctx, vscale(2, ctx.base.highest_root))
        poly = chi.poly
        terms = label_character(ctx.orbit.datum, chi.labels)
        assert {ctx.orbit.datum.from_labels(u): c for u, c in terms.items()} == poly.terms
        for pt in random_regular_points(ctx, 3, seed=5):
            value = evaluate_labels(terms.items(), ctx.orbit.datum.coroot_coords(pt.xi))
            assert value == poly.evaluate(gram, pt.xi)


@pytest.mark.parametrize(
    "group,name", [(g, n) for g, n, _, _ in checks.FOLDINGS] + [("A2", "flip")]
)
def test_torus_values_match_ambient_references(group, name):
    """Every value at a torus point, read from the integer label phases,
    equals its ambient Fraction reference bit for bit, at regular points and
    at the alcove vertices, which lie on walls."""
    ctx = checks.context(group, name)
    gram = ctx.base.ambient_gram
    chi = twining_character(ctx, ctx.base.highest_root)
    delta = weyl_denominator(ctx)
    vertices = [TorusPoint(v) for v in fundamental_alcove(ctx).vertices]
    points = list(islice(seeded_points(ctx, seed=13), 3))
    for pt in points + vertices:
        gx = mat_vec(gram, pt.xi)
        phases = [vdot(alpha, gx) for alpha in ctx.orbit.datum.positive_roots]
        regular = all(p.denominator != 1 for p in phases)
        angles = [2 * math.pi * float(p % 1) for p in phases]
        norm_sq = math.prod(4 * math.sin(a / 2) ** 2 for a in angles)
        assert is_regular(ctx, pt) == regular
        assert denominator_norm_sq(ctx, pt.xi) == norm_sq
        assert chi.eval(ctx, pt) == chi.poly.evaluate(gram, pt.xi)
        assert delta.eval(ctx, pt) == delta.poly.evaluate(gram, pt.xi)
    assert all(is_regular(ctx, pt) for pt in points)
    assert not any(is_regular(ctx, pt) for pt in vertices)


def fraction_coroot_coords(datum, xi):
    """Reference for ``RootDatum.coroot_coords``: the pairings <omega_j, xi>
    as Fraction dot products of the fundamental weights with G xi, over the
    lcm of their denominators."""
    gx = mat_vec(datum.ambient_gram, xi)
    pairings = [vdot(w, gx) for w in datum.fundamental_weights]
    den = math.lcm(*(p.denominator for p in pairings))
    return tuple(int(p * den) for p in pairings), den


# the nine foldings, A2 flip, and identity folds with unequal root lengths
FRAME_CASES = [(g, n) for g, n, _, _ in checks.FOLDINGS] + [
    ("A2", "flip"), ("B3", "id"), ("C4", "id"), ("F4", "id"), ("G2", "id")
]
fractions_strategy = st.fractions(min_value=-50, max_value=50, max_denominator=60)


@settings(deadline=None, max_examples=80)
@given(
    case=st.sampled_from(FRAME_CASES),
    orbit=st.booleans(),
    data=st.data(),
)
def test_coroot_coords_match_fraction_pairings(case, orbit, data):
    """The integer frame equals the Fraction pairings at any ambient point of
    the base or orbit datum, and ``from_coroot_coords`` inverts it on the
    coroot span."""
    ctx = checks.context(*case)
    datum = ctx.orbit.datum if orbit else ctx.base
    dim = datum.ambient_dim
    xi = tuple(data.draw(st.lists(fractions_strategy, min_size=dim, max_size=dim)))
    assert datum.coroot_coords(xi) == fraction_coroot_coords(datum, xi)
    # a point of the coroot span, sum_j c_j alpha_j^vee
    c = data.draw(st.lists(fractions_strategy, min_size=datum.rank, max_size=datum.rank))
    den, rows = datum.coroot_rows()
    point = tuple(
        sum((cj * Fraction(x, den) for cj, x in zip(c, col)), Fraction(0))
        for col in zip(*rows)
    )
    nums, d = datum.coroot_coords(point)
    assert tuple(Fraction(n, d) for n in nums) == tuple(c)
    assert datum.from_coroot_coords(nums, d) == point


def test_twining_character_trivial_weight():
    ctx = ctx_for("A3")
    chi = twining_character(ctx, zero_vec(3))
    assert chi.poly.terms == {zero_vec(3): 1}


def test_twining_character_dimensions():
    assert twining_character(ctx_for("A2"), ctx_for("A2").base.highest_root).dimension_at_identity == 2
    ctx3 = ctx_for("A3")
    assert twining_character(ctx3, ctx3.base.highest_root).dimension_at_identity == 5
    ctxd = ctx_for("D4", "rot")
    assert twining_character(ctxd, ctxd.base.highest_root).dimension_at_identity == 7


def test_twining_character_rejects_bad_weights():
    ctx = ctx_for("A3")
    with pytest.raises(RootSystemError):
        twining_character(ctx, ctx.base.fundamental_weights[0])  # not kappa-fixed
    with pytest.raises(RootSystemError):
        twining_character(ctx, vneg(ctx.base.highest_root))  # not dominant


def test_jantzen_matches_polynomial():
    cases = [("A2", "flip"), ("A3", "flip"), ("A4", "flip"), ("D4", "rot")]
    for label, name in cases:
        ctx = ctx_for(label, name)
        lam = ctx.base.highest_root
        chi = twining_character(ctx, lam)
        for pt in random_regular_points(ctx, 5, seed=hash(label) % 1000):
            lhs = jantzen_eval(ctx, lam, pt)
            rhs = chi.eval(ctx, pt)
            assert abs(lhs - rhs) <= TOL * max(1.0, abs(rhs))


def test_jantzen_trivial_weight_is_one():
    ctx = ctx_for("A3")
    for pt in random_regular_points(ctx, 3, seed=7):
        assert abs(jantzen_eval(ctx, zero_vec(3), pt) - 1) < TOL


def test_jantzen_singular_point():
    ctx = ctx_for("A2")
    with pytest.raises(SingularPointError):
        jantzen_eval(ctx, ctx.base.highest_root, TorusPoint(zero_vec(2)))


def test_adjoint_oracle_identity_values():
    assert abs(adjoint_oracle(ctx_for("A2"), TorusPoint(zero_vec(2))) - 2) < TOL
    assert abs(adjoint_oracle(ctx_for("A3"), TorusPoint(zero_vec(3))) - 5) < TOL
    ctxd = ctx_for("D4", "rot")
    assert abs(adjoint_oracle(ctxd, TorusPoint(zero_vec(4))) - 7) < TOL


def test_adjoint_oracle_matches_twining_character():
    cases = [("A2", "flip"), ("A3", "flip"), ("A4", "flip"), ("A5", "flip"),
             ("D4", "rot"), ("D4", "swap34"), ("E6", "flip")]
    for label, name in cases:
        ctx = ctx_for(label, name)
        chi = twining_character(ctx, ctx.base.highest_root)
        for pt in random_regular_points(ctx, 4, seed=len(label)):
            lhs = adjoint_oracle(ctx, pt)
            rhs = chi.eval(ctx, pt)
            assert abs(lhs - rhs) <= TOL * max(1.0, abs(rhs)), (label, name)


def test_inner_product_normalization():
    ctx = ctx_for("A2")
    one = FourierPolynomial.constant(2)
    assert inner_product(ctx, one, one) == 1


def test_exact_orthogonality_a2():
    ctx = ctx_for("A2")
    theta = ctx.base.highest_root
    weights = [zero_vec(2), theta, vscale(2, theta), vscale(3, theta)]
    chars = [twining_character(ctx, w).poly for w in weights]
    for i, f in enumerate(chars):
        for j, g in enumerate(chars):
            assert inner_product(ctx, f, g) == (1 if i == j else 0)


def test_exact_orthogonality_a3():
    ctx = ctx_for("A3")
    w1, w2, w3 = ctx.base.fundamental_weights
    # note theta = w1 + w3 here, so these four are pairwise distinct
    fixed = [zero_vec(3), w2, vadd(w1, w3), vscale(2, w2)]
    chars = [twining_character(ctx, w).poly for w in fixed]
    for i, f in enumerate(chars):
        for j, g in enumerate(chars):
            assert inner_product(ctx, f, g) == (1 if i == j else 0)


def test_weight_containment():
    for label, name in [("A2", "flip"), ("A3", "flip"), ("D4", "rot")]:
        ctx = ctx_for(label, name)
        lam = ctx.base.highest_root
        base_weights = set(irreducible_character(ctx.base, lam).terms)
        fixed = {w for w in base_weights if ctx.kappa.apply(w) == w}
        support = set(twining_character(ctx, lam).poly.terms)
        assert support <= fixed


def test_multiplicativity():
    ctx = ctx_for("A3")
    lam = ctx.base.highest_root
    chi = twining_character(ctx, lam).poly
    dec = decompose_into_irreducibles(ctx.orbit.datum, chi * chi)
    assert all(m > 0 for m in dec.values())
    # 5 (x) 5 = 1 + 10 + 14 for the B2 vector representation
    assert sum(dec.values()) == 3
    assert dec.get(vscale(2, lam)) == 1


@lru_cache(maxsize=None)
def reference_denominator(ctx):
    """Delta = prod over positive orbit roots of (1 - e^{-alpha}), multiplied
    out by ambient convolution."""
    dim = ctx.base.ambient_dim
    poly = FourierPolynomial.constant(dim)
    for alpha in ctx.orbit.datum.positive_roots:
        poly = poly * FourierPolynomial({zero_vec(dim): 1, vneg(alpha): -1})
    return poly


def reference_inner_product(ctx, f, g):
    """(1/|W_O|) CT(conj(f) g Delta conj(Delta)) by ambient convolution."""
    delta = reference_denominator(ctx)
    product = f.conj() * g * delta * delta.conj()
    return Fraction(product.constant_term(ctx.base.ambient_dim), ctx.orbit.datum.weyl_order)


def test_signed_rho_orbit_is_shifted_denominator():
    """J(rho) = e^rho Delta in orbit Dynkin labels, and weyl_denominator is
    Delta, against the product multiplied out."""
    for group, name, _, _ in checks.FOLDINGS:
        ctx = checks.context(group, name)
        datum = ctx.orbit.datum
        delta = reference_denominator(ctx)
        rho = datum.labels_of(ctx.orbit.datum.weyl_vector)
        shifted = {
            tuple(a + b for a, b in zip(datum.labels_of(mu), rho)): c
            for mu, c in delta.terms.items()
        }
        orbit = dict(signed_orbit(datum, rho))
        assert len(orbit) == ctx.orbit.datum.weyl_order
        assert orbit == shifted, (group, name)
        assert weyl_denominator(ctx).poly == delta, (group, name)


def _monomial_sums(datum):
    """Small integer combinations of e^mu with mu on the orbit weight lattice."""
    labels = st.tuples(*[st.integers(-2, 2)] * datum.rank)
    return st.dictionaries(labels, st.integers(-3, 3), min_size=1, max_size=4).map(
        lambda terms: FourierPolynomial(
            {datum.from_labels(m): c for m, c in terms.items()}
        )
    )


@settings(deadline=None, max_examples=40)
@given(
    case=st.sampled_from([("A2", "flip"), ("A3", "flip"), ("A4", "flip"), ("D4", "rot")]),
    data=st.data(),
)
def test_inner_product_matches_convolution(case, data):
    """The J(rho) dot product equals the constant term of conj(f) g |Delta|^2
    on polynomials that need not be Weyl-invariant, and is symmetric."""
    ctx = checks.context(*case)
    f = data.draw(_monomial_sums(ctx.orbit.datum))
    g = data.draw(_monomial_sums(ctx.orbit.datum))
    value = inner_product(ctx, f, g)
    assert value == reference_inner_product(ctx, f, g)
    assert value == inner_product(ctx, g, f)


def test_inner_product_rejects_weights_off_the_fixed_lattice():
    ctx = ctx_for("A3")
    one = FourierPolynomial.constant(3)
    w1, _, w3 = ctx.base.fundamental_weights
    off_lattice = vscale(Fraction(1, 2), ctx.orbit.datum.fundamental_weights[0])
    # w1 - w3 pairs to zero with every kappa-fixed coroot but is not zero
    off_span = vsub(w1, w3)
    for mu, cause in ((off_lattice, "not on the weight lattice"),
                      (off_span, "outside the root span")):
        bad = FourierPolynomial({mu: 1})
        for f, g in ((bad, one), (one, bad)):
            with pytest.raises(
                RootSystemError, match="polynomial support lies outside the fixed weight lattice"
            ) as excinfo:
                inner_product(ctx, f, g)
            assert cause in str(excinfo.value.__cause__)


# D_n flip against O(2n): kappa is the reflection in the last vector e_n of
# the orthonormal basis, and a kappa-fixed xi = sum_i c_i alpha_i^vee has
# e_n-coordinate c_n - c_{n-1} = 0, so exp(xi) kappa acts on C^{2n} with the
# eigenvalues e^{+-2 pi i t_j}, j < n, and 1, -1.


def o2n_angles(ctx, xi):
    """t_1 = c_1, t_j = c_j - c_{j-1} for 2 <= j <= n-2 and
    t_{n-1} = c_{n-1} + c_n - c_{n-2}, for c the simple-coroot coordinates
    of a kappa-fixed xi of D_n."""
    nums, den = ctx.base.coroot_coords(xi)
    c = [Fraction(x, den) for x in nums]
    return [c[0]] + [b - a for a, b in zip(c[:-3], c[1:-2])] + [c[-2] + c[-1] - c[-3]]


def elementary_symmetric(k, values):
    e = [1] + [0] * k
    for v in values:
        for i in range(k, 0, -1):
            e[i] += e[i - 1] * v
    return e[k]


@pytest.mark.parametrize("n", [4, 5, 6, 7])
def test_dn_flip_twining_values_are_o2n_traces(n):
    """The highest weight vector e_1 ^ ... ^ e_k of V(omega_k) =
    Lambda^k C^{2n}, k <= n-2, does not involve e_n, so kappa fixes it and
    the twining character of omega_k is the trace of exp(xi) kappa there:
    the k-th elementary symmetric function of its eigenvalues on C^{2n}."""
    ctx = ctx_for(f"D{n}")
    for point in random_regular_points(ctx, 5, seed=n):
        eigenvalues = [
            cmath.exp(2j * math.pi * s * t) for t in o2n_angles(ctx, point.xi) for s in (1, -1)
        ] + [1, -1]
        for k in range(1, n - 1):
            value = twining_character(ctx, ctx.base.fundamental_weights[k - 1]).eval(ctx, point)
            expected = elementary_symmetric(k, eigenvalues)
            assert abs(value - expected) <= checks.REL_TOL * max(1.0, abs(expected)), (n, k)


@pytest.mark.parametrize("n", [4, 5, 6, 7])
def test_dn_flip_alcove_fold_keeps_the_o2n_spectrum(n):
    """For 50 far kappa-fixed points, the folded point has the multiset
    {+-t_j mod 1} of the point itself, exactly.  The check is one-way: SO(2n)
    sees a twisted class of Spin(2n) only up to the centre, so equal spectra
    do not show that two points lie in one class."""
    ctx = ctx_for(f"D{n}")
    rng = random.Random(n)
    coweights = fundamental_coweights(ctx.orbit.datum)

    def spectrum(xi):
        return sorted(s * t % 1 for t in o2n_angles(ctx, xi) for s in (1, -1))

    for _ in range(50):
        xi = zero_vec(ctx.base.ambient_dim)
        for cw in coweights:
            c = Fraction(rng.randint(-97 * 10**3, 97 * 10**3), rng.randint(1, 29))
            xi = vadd(xi, vscale(c, cw))
        folded, _ = fold_to_alcove(ctx, xi)
        assert folded != xi and spectrum(folded) == spectrum(xi)
