import cmath
import copy
import dataclasses
from fractions import Fraction
from functools import lru_cache
import itertools
import math
import pickle
import re

import pytest
from hypothesis import given, settings, strategies as st

from twinefold import checks, fusion, twining
from twinefold.linalg import scaled_rows, vadd, vdot, vscale, zero_vec
from twinefold.rootcore import (
    FourierPolynomial,
    RootDatum,
    RootSystemError,
    build_root_datum,
    decompose_into_irreducibles,
    dominant_conjugate,
    irreducible_character,
    label_character,
    label_dimension,
    lattice_index,
    signed_orbit,
    standard_cartan_matrix,
)
from twinefold.folding import automorphism_by_name, fold
from twinefold.twining import (
    TorusPoint,
    _root_residues,
    denominator_norm_sq,
    evaluate_labels,
    twining_character,
)
from twinefold.alcove import fold_to_alcove, fundamental_alcove
from twinefold.fusion import (
    INTEGRALITY_TOL,
    FusionError,
    LevelData,
    fusion_table,
    level_data,
    phi_project,
    ring_product,
    verlinde_coefficient,
)

from fraction_reference import fraction_wall, lattice_span, vsub, weyl_dimension


def ctx_for(label, name="flip"):
    d = build_root_datum(label)
    return fold(d, automorphism_by_name(d, name))


def dual_labels(datum, m):
    """-w0 on labels: the dominant conjugate of -m."""
    return dominant_conjugate(datum, tuple(-x for x in m))[1]


def dual_indices(level):
    """The index of nu* for each level-weight index nu."""
    return [level.label_index[dual_labels(level.datum, m)] for m in level.labels]


def dual_weight(ctx, lam):
    """-w0(lam) on the orbit system."""
    datum = ctx.orbit.datum
    return datum.from_labels(dual_labels(datum, datum.labels_of(lam)))


def s_points(ctx, level):
    """The s-point (lam + rho) / ((k + h) c) of each level weight, c the basic
    rescaling, checked against the frame ``level_data`` keeps for it."""
    rho = ctx.orbit.datum.weyl_vector
    shift = Fraction(1, level.k + level.dual_coxeter) / level.rescale
    points = []
    for lam, frame in zip(level.level_weights, level.phases):
        pt = TorusPoint(vscale(shift, vadd(lam, rho)))
        assert ctx.orbit.datum.coroot_coords(pt.xi) == frame
        points.append(pt)
    return points


def test_basic_rescale_values():
    assert level_data(ctx_for("A2"), 1).rescale == 4
    assert level_data(ctx_for("A3"), 1).rescale == 2
    assert level_data(ctx_for("E6"), 1).rescale == 2
    assert level_data(ctx_for("D4", "rot"), 1).rescale == 3


def test_ring_product_clebsch_gordan():
    # on the A2 folding the basic character squares to 1 + the next one
    ctx = ctx_for("A2")
    theta = ctx.base.highest_root
    chi = {theta: 1}
    sq = ring_product(ctx, chi, chi)
    assert sq == {zero_vec(2): 1, vscale(2, theta): 1}


def test_ring_product_drops_cancelled_terms():
    # (chi + 1)(chi - 1) = chi^2 - 1 = chi_{2 theta}: the theta and constant
    # terms cancel and leave no zero coefficient behind
    ctx = ctx_for("A2")
    theta, unit = ctx.base.highest_root, zero_vec(2)
    product = ring_product(ctx, {theta: 1, unit: 1}, {theta: 1, unit: -1})
    assert product == {vscale(2, theta): 1}


def test_self_dual_basic_character():
    ctx = ctx_for("A3")
    theta = ctx.base.highest_root
    chi = {theta: 1}
    assert dual_weight(ctx, theta) == theta  # self-dual orbit representation
    # so chi * chi contains the trivial representation once, and chi does not
    unit = zero_vec(ctx.base.ambient_dim)
    assert ring_product(ctx, chi, chi).get(unit, 0) == 1
    assert chi.get(unit, 0) == 0


def test_level_data_a2():
    ctx = ctx_for("A2")
    ld = level_data(ctx, 1)
    assert ld.rescale == 4
    assert ld.dual_coxeter == 2
    theta = ctx.base.highest_root
    assert set(ld.level_weights) == {zero_vec(2), theta}
    assert ld.t_group_order == 6


# |T| at levels 1 and 2
T_GROUP_ORDERS = {
    ("A3", "flip"): (64, 100), ("A4", "flip"): (64, 100), ("A5", "flip"): (864, 1372),
    ("A6", "flip"): (1000, 1728), ("D5", "flip"): (20736, 38416),
    ("D6", "flip"): (537824, 1048576), ("D4", "swap34"): (1000, 1728),
    ("D4", "rot"): (75, 108), ("E6", "flip"): (40000, 58564), ("A2", "flip"): (6, 8),
}


@pytest.mark.parametrize("case", sorted(T_GROUP_ORDERS))
def test_t_group_order_pinned(case):
    ctx = ctx_for(*case)
    assert tuple(level_data(ctx, k).t_group_order for k in (1, 2)) == T_GROUP_ORDERS[case]


def test_level_data_rejects_bad_level():
    """A level that is no int >= 1 fails with one message; a bool is no
    level, and neither is a float or a string that names an integer."""
    ctx = ctx_for("A2")
    for k in (2.0, 1.5, "2", True, 0, -1):
        for build in (level_data, fusion_table):
            with pytest.raises(FusionError, match="^level must be a positive integer$"):
                build(ctx, k)


def test_phi_project_a2_level_one():
    ctx = ctx_for("A2")
    ld = level_data(ctx, 1)
    theta = ctx.base.highest_root
    assert phi_project(ctx, ld, vscale(2, theta)) is None
    sign, lam = phi_project(ctx, ld, vscale(3, theta))
    assert sign == -1 and lam == theta
    assert phi_project(ctx, ld, zero_vec(2)) == (1, zero_vec(2))


def test_phi_project_rejects_unfixed_weight():
    ctx = ctx_for("A3")
    ld = level_data(ctx, 1)
    with pytest.raises(FusionError):
        phi_project(ctx, ld, ctx.base.fundamental_weights[0])


def test_wall_weights_have_vanishing_characters():
    """Weights folding to a wall give characters that vanish at every s-point."""
    ctx = ctx_for("A2")
    ld = level_data(ctx, 1)
    theta = ctx.base.highest_root
    wall = vscale(2, theta)
    assert phi_project(ctx, ld, wall) is None
    for pt in s_points(ctx, ld):
        value = twining_character(ctx, wall).poly.evaluate(ctx.base.ambient_gram, pt.xi)
        assert abs(value) < 1e-9


def test_phi_sign_rule_at_s_points():
    """chi_lambda(s) = sign * chi_lambda'(s) whenever lambda folds to lambda'."""
    ctx = ctx_for("A2")
    ld = level_data(ctx, 2)
    theta = ctx.base.highest_root
    for m in range(7):
        lam = vscale(m, theta)
        out = phi_project(ctx, ld, lam)
        for pt in s_points(ctx, ld):
            lhs = twining_character(ctx, lam).poly.evaluate(ctx.base.ambient_gram, pt.xi)
            if out is None:
                assert abs(lhs) < 1e-9
            else:
                sign, lam0 = out
                rhs = twining_character(ctx, lam0).poly.evaluate(ctx.base.ambient_gram, pt.xi)
                assert abs(lhs - sign * rhs) < 1e-9


def test_su2_normalization():
    ctx = ctx_for("A2")
    ld = level_data(ctx, 1)
    zero = zero_vec(2)
    assert verlinde_coefficient(ctx, ld, zero, zero, zero) == 1


def test_route_equivalence_builds():
    # fusion_table raises on any Verlinde/folding disagreement
    for label, name, ks in [("A2", "flip", (1, 2, 3, 4)),
                            ("A3", "flip", (1, 2, 3)),
                            ("D4", "rot", (1, 2, 3))]:
        ctx = ctx_for(label, name)
        for k in ks:
            fusion_table(ctx, k)


def test_symmetric_in_first_two_slots():
    ctx = ctx_for("A3")
    table = fusion_table(ctx, 2)
    for lam, mu, nu in itertools.product(range(len(table.rows)), repeat=3):
        assert table.rows[lam][mu].get(nu, 0) == table.rows[mu][lam].get(nu, 0)


def test_associativity_a2_level_two():
    ctx = ctx_for("A2")
    ld = level_data(ctx, 2)
    ws = ld.level_weights

    def fuse(lam, mu):
        return {nu: verlinde_coefficient(ctx, ld, lam, mu, nu) for nu in ws}

    for a in ws:
        for b in ws:
            for c in ws:
                lhs = {}
                for x, n in fuse(a, b).items():
                    for nu, m in fuse(x, c).items():
                        lhs[nu] = lhs.get(nu, 0) + n * m
                rhs = {}
                for x, n in fuse(b, c).items():
                    for nu, m in fuse(a, x).items():
                        rhs[nu] = rhs.get(nu, 0) + n * m
                assert lhs == rhs


def test_trivial_automorphism_su2_tables():
    """Identity folding of A1 reproduces the textbook SU(2) fusion rules."""
    d = build_root_datum("A1")
    ctx = fold(d, automorphism_by_name(d, "id"))
    for k in (1, 2, 3):
        table = fusion_table(ctx, k)
        ws = table.level.level_weights  # sorted: spins 0, 1/2, ..., k/2
        for i, lam in enumerate(ws):
            for j, mu in enumerate(ws):
                for l, nu in enumerate(ws):
                    expect = int(
                        abs(i - j) <= l <= min(i + j, 2 * k - i - j)
                        and (i + j + l) % 2 == 0
                    )
                    assert table.get(lam, mu, nu) == expect


def test_denominator_product_formula_matches_alternating_sum():
    """|J(rho)(s)|^2 by the product formula against the alternating sum."""
    for label, name, k in [("A2", "flip", 3), ("A3", "flip", 2),
                           ("D4", "rot", 2), ("E6", "flip", 1)]:
        ctx = ctx_for(label, name)
        rho = (1,) * ctx.orbit.datum.rank
        for pt in s_points(ctx, level_data(ctx, k)):
            product = denominator_norm_sq(ctx, pt.xi)
            phases = ctx.orbit.datum.coroot_coords(pt.xi)
            alternating = evaluate_labels(signed_orbit(ctx.orbit.datum, rho), phases)
            reference = abs(alternating) ** 2
            assert abs(product - reference) <= 1e-9 * reference


def test_fusion_table_shares_correct_characters():
    """Memoized characters read after a table equal freshly computed ones."""
    for label, name, k in [("A3", "flip", 2), ("D4", "rot", 2)]:
        ctx = ctx_for(label, name)
        table = fusion_table(ctx, k)
        fresh = ctx_for(label, name).orbit.datum
        for lam in table.level.level_weights:
            assert irreducible_character(ctx.orbit.datum, lam) == (
                irreducible_character(fresh, lam)
            )


def test_dual_weight_permutes_level_weights():
    for label, name, k in [("A2", "flip", 3), ("A3", "flip", 2), ("D4", "rot", 2),
                           ("A4", "flip", 2), ("D4", "swap34", 1)]:
        ctx = ctx_for(label, name)
        ws = level_data(ctx, k).level_weights
        assert sorted(dual_weight(ctx, nu) for nu in ws) == sorted(ws)


@pytest.mark.parametrize("k", [1, 2])
@pytest.mark.parametrize("group", ["A2", "A3", "A4", "A5", "D5", "E6"])
def test_characters_at_the_dual_weight_are_conjugate(group, k):
    """chi_{nu*}(s_p) is the conjugate of chi_nu(s_p) at every s-point, the
    identity the Verlinde sum reads instead of a dual index; each case has a
    level weight that is not self-dual."""
    level = level_data(ctx_for(group, "id"), k)
    chi = level.characters
    duals = dual_indices(level)
    assert any(star != nu for nu, star in enumerate(duals))
    for nu, star in enumerate(duals):
        for p, value in enumerate(chi[nu]):
            assert abs(chi[star][p] - value.conjugate()) <= 1e-12, (nu, p)


def test_fusion_table_skips_weyl_traversal_and_reports_residual():
    ctx = ctx_for("A3")
    table = fusion_table(ctx, 2)
    assert ctx.orbit.datum._signed_orbit_cache == {}
    assert 0 <= table.max_residual <= INTEGRALITY_TOL


# the nine foldings of criterion 01 and A2 flip
FOLDING_CASES = [(g, a) for g, a, *_ in checks.FOLDINGS] + [("A2", "flip")]


@lru_cache(maxsize=None)
def small_weights(case):
    """kappa-fixed dominant weights of label sum <= 2 whose orbit irreducible
    has dimension <= 200, so the Fraction-keyed oracle product stays cheap."""
    ctx = checks.context(*case)
    datum = ctx.orbit.datum
    return [
        w for w in checks.fixed_dominant_weights(ctx, 2)
        if weyl_dimension(datum, w) <= 200
    ]


@settings(deadline=None, max_examples=40)
@given(case=st.sampled_from(FOLDING_CASES), data=st.data())
def test_ring_product_matches_character_product(case, data):
    """Racah-Speiser against the peel-off of the exact character product."""
    ctx = checks.context(*case)
    datum = ctx.orbit.datum
    terms = st.tuples(st.sampled_from(small_weights(case)), st.integers(-2, 2))
    factors = []
    for _ in range(2):
        element, poly = {}, FourierPolynomial()
        for lam, c in data.draw(st.lists(terms, min_size=1, max_size=2)):
            element[lam] = element.get(lam, 0) + c
            poly = poly + irreducible_character(datum, lam).scaled(c)
        factors.append((element, poly))
    (a, pa), (b, pb) = factors
    expected = decompose_into_irreducibles(datum, pa * pb)
    assert ring_product(ctx, a, b) == {
        lam: c for lam, c in expected.items() if c
    }


# each (folding, level) whose table takes at most ~0.1 s: k = 1 on every case,
# k = 2 on all but D5 and D6 flip
RING_LAW_TABLES = [(case, 1) for case in FOLDING_CASES] + [
    (case, 2) for case in FOLDING_CASES if case not in {("D5", "flip"), ("D6", "flip")}
]


@lru_cache(maxsize=None)
def table_for(case, k):
    return fusion_table(checks.context(*case), k)


@settings(deadline=None, max_examples=60)
@given(case_k=st.sampled_from(RING_LAW_TABLES), data=st.data())
def test_fusion_ring_laws(case_k, data):
    """Commutativity, the unit, N_{lam mu}^nu = N_{lam nu*}^{mu*} and
    associativity at a random triple of level-weight indices."""
    case, k = case_k
    table = table_for(case, k)
    level = table.level

    def n(lam, mu, nu):
        return table.rows[lam][mu].get(nu, 0)

    size = len(level.labels)
    lam, mu, nu = data.draw(st.tuples(*[st.integers(0, size - 1)] * 3))
    unit = level.labels.index((0,) * len(level.labels[0]))
    dual = dual_indices(level)
    assert n(lam, mu, nu) == n(mu, lam, nu)
    assert n(unit, mu, nu) == int(mu == nu)
    assert n(lam, mu, nu) == n(lam, dual[nu], dual[mu])
    for rho in range(size):
        left = sum(n(lam, mu, x) * n(x, nu, rho) for x in range(size))
        right = sum(n(mu, nu, x) * n(lam, x, rho) for x in range(size))
        assert left == right


@lru_cache(maxsize=None)
def level_for(case, k):
    return level_data(checks.context(*case), k)


# (group, automorphism, level) for the recursive fusion rows against the
# pairwise reference: the nine foldings and A2 flip at k = 1-3, and G2 and B2
# id at k = 1-2
RECURSION_TABLES = [
    (g, a, k) for g, a in FOLDING_CASES for k in (1, 2, 3)
] + [(g, "id", k) for g in ("G2", "B2") for k in (1, 2)]

# the fundamental weights whose comark exceeds k, so that they are no level
# weights and no generator rows; every other table has all of them
NON_LEVEL_FUNDAMENTALS = {
    ("A5", "flip", 1): [1], ("D4", "rot", 1): [0], ("E6", "flip", 1): [0, 2, 3],
    ("E6", "flip", 2): [2], ("G2", "id", 1): [0],
}


@pytest.mark.parametrize("group,name,k", RECURSION_TABLES)
def test_recursive_rows_match_the_pairwise_reference(group, name, k):
    """The fusion matrices of ``_fusion_rows`` against Kac-Walton on each
    pair (``_folded_product``): N[lam][mu] and N[mu][lam] both equal the
    folded product of lam and mu, and none of the three holds a zero.  Every
    pair with a factor of dimension <= 1000 is compared, which is every pair
    but on D5 and D6 flip k = 2-3 and E6 flip k = 3; there every row is still
    compared, against the columns of the small factors (the unit among
    them)."""
    level = level_for((group, name), k)
    datum, labels, n = level.datum, level.labels, len(level.labels)
    units = [tuple(int(j == i) for j in range(datum.rank)) for i in range(datum.rank)]
    missing = [i for i, u in enumerate(units) if u not in level.label_index]
    assert missing == NON_LEVEL_FUNDAMENTALS.get((group, name, k), [])
    rows = fusion._fusion_rows(level)
    dims = [label_dimension(datum, m) for m in labels]
    for lam, mu in itertools.combinations_with_replacement(range(n), 2):
        if min(dims[lam], dims[mu]) <= 1000:
            reference = fusion._folded_product(level, labels[lam], labels[mu])
            assert all(reference.values()), (lam, mu)
            assert rows[lam][mu] == reference, (lam, mu)
            assert rows[mu][lam] == reference, (mu, lam)


def test_fusion_table_checks_both_orders(monkeypatch):
    """A folded entry changed in one order only is a route disagreement:
    the one Verlinde value of each pair is compared with both N[lam][mu] and
    N[mu][lam], so the recursion's commutativity is checked too."""
    build = fusion._fusion_rows

    def skewed(level):
        rows = build(level)
        rows[2][1][0] = rows[2][1].get(0, 0) + 1
        return rows

    monkeypatch.setattr(fusion, "_fusion_rows", skewed)
    ctx = ctx_for("A3")
    w = level_data(ctx, 2).level_weights
    with pytest.raises(FusionError, match=re.escape(f"at ({w[2]}, {w[1]}, {w[0]})")):
        fusion_table(ctx, 2)


def test_fusion_table_rows_hold_no_zero():
    """The fusion matrices are the table: on D6 flip k = 2 no row holds a
    zero, the rows hold the 2066 non-zero coefficients that the CLI emits,
    and ``get`` reads a triple absent from its row as 0."""
    table = fusion_table(ctx_for("D6"), 2)
    weights = table.level.level_weights
    assert all(all(row.values()) for rows in table.rows for row in rows)
    assert sum(len(row) for rows in table.rows for row in rows) == 2066
    lam, mu, nu = next(
        (l, m, n) for l, m, n in itertools.product(range(len(weights)), repeat=3)
        if n not in table.rows[l][m]
    )
    assert table.get(weights[lam], weights[mu], weights[nu]) == 0


# ten tables across the foldings, levels 2-4, classical and exceptional orbits
MODULAR_TABLES = [
    ("A2", "flip", 3), ("A3", "flip", 4), ("A4", "flip", 2), ("A6", "flip", 2),
    ("D4", "rot", 2), ("D4", "rot", 3), ("D4", "swap34", 2), ("D5", "flip", 2),
    ("E6", "flip", 2), ("E6", "flip", 3),
]
# absolute on matrix entries (|S_{lam mu}| <= 1), relative on the genus sums;
# the largest defects measured are 1.6e-13 and 8e-15
MODULAR_TOL = 1e-10


def _mat_mul(a, b):
    return [[sum(x * y for x, y in zip(row, col)) for col in zip(*b)] for row in a]


@pytest.mark.parametrize("group,name,k", MODULAR_TABLES)
def test_level_data_satisfy_the_modular_relations(group, name, k):
    """S_{lam mu} = sqrt(w_mu) chi_lam(s_mu) from ``LevelData.characters`` and
    ``weights``, and the diagonal T_lam = exp 2 pi i (h_lam - c / 24) with
    h_lam = (lam, lam + 2 rho) / 2 (k + h^vee) in the basic form (the ambient
    form over ``rescale``) and c = k dim / (k + h^vee): S is symmetric, S^2
    is the charge conjugation lam -> lam* (a test-local -w0), and
    (ST)^3 = S^2, each entry within MODULAR_TOL; and the genus-g Verlinde dimensions sum_p w_p^(1-g),
    g = 2, 3, 4, are integers within MODULAR_TOL relative.  Criterion 12
    compares ``level_data`` with itself; these laws check its s-points, |T|
    and rescaling independently."""
    level = level_for((group, name), k)
    datum, chi, w = level.datum, level.characters, level.weights
    dual = dual_indices(level)
    n = len(level.labels)
    s = [[math.sqrt(w[mu]) * chi[lam][mu] for mu in range(n)] for lam in range(n)]
    height = k + level.dual_coxeter
    central = Fraction(k * (datum.rank + 2 * len(datum.positive_roots)), height)
    two_rho = vscale(2, datum.weyl_vector)
    t = [
        cmath.exp(2j * math.pi * float(
            datum.inner(lam, vadd(lam, two_rho)) / level.rescale / (2 * height)
            - central / 24
        ))
        for lam in level.level_weights
    ]
    s_t = [[x * t[mu] for mu, x in enumerate(row)] for row in s]
    s2 = _mat_mul(s, s)
    st3 = _mat_mul(_mat_mul(s_t, s_t), s_t)
    for lam in range(n):
        for mu in range(n):
            assert abs(s[lam][mu] - s[mu][lam]) <= MODULAR_TOL
            assert abs(s2[lam][mu] - (mu == dual[lam])) <= MODULAR_TOL
            assert abs(st3[lam][mu] - s2[lam][mu]) <= MODULAR_TOL
    for genus in (2, 3, 4):
        dimension = sum(x ** (1 - genus) for x in w)
        assert abs(dimension - round(dimension)) <= MODULAR_TOL * dimension


@lru_cache(maxsize=None)
def fixed_weights(case):
    ctx = checks.context(*case)
    return checks.fixed_dominant_weights(ctx, 6 if ctx.base.rank <= 4 else 3)


@settings(deadline=None, max_examples=60)
@given(case=st.sampled_from(FOLDING_CASES), k=st.integers(1, 4), data=st.data())
def test_phi_project_matches_alcove_fold(case, k, data):
    """The label-level Kac-Walton fold against the geometric one: lam + rho
    rescaled into the torus, ``fold_to_alcove``, strictly inside every wall
    by Fraction pairings with the wall covectors, back."""
    ctx = checks.context(*case)
    level = level_for(case, k)
    lam = data.draw(st.sampled_from(fixed_weights(case)))
    scale = Fraction(1, k + level.dual_coxeter) / level.rescale
    rho = ctx.orbit.datum.weyl_vector
    folded, g = fold_to_alcove(ctx, vscale(scale, vadd(lam, rho)))
    expected = None
    walls = map(fraction_wall, fundamental_alcove(ctx).walls)
    *floors, ceiling = (vdot(covector, folded) - k for covector, k, _ in walls)
    if all(h > 0 for h in floors) and ceiling < 0:
        expected = ((-1) ** len(g.word), vsub(vscale(1 / scale, folded), rho))
    assert phi_project(ctx, level, lam) == expected


# every folding whose orbit datum has a classical frame, and A2 flip, at
# k = 1-3; A7 flip (B4) and A12 flip (C6) at k = 1
ALTERNANT_TABLES = [
    (g, a, k) for g, a in FOLDING_CASES if (g, a) not in {("D4", "rot"), ("E6", "flip")}
    for k in (1, 2, 3)
] + [("A7", "flip", 1), ("A12", "flip", 1)]


@pytest.mark.parametrize("group,name,k", ALTERNANT_TABLES)
@settings(deadline=None, max_examples=5)
@given(data=st.data())
def test_alternant_characters_match_the_orbit_expansion(group, name, k, data):
    """Weyl's alternant in ``LevelData.characters`` against the Freudenthal
    character expanded over its Weyl orbits and summed term by term, for one
    level weight at every s-point, within 1e-10 relative (to max(1, |value|)):
    the two share nothing but the labels and the phases."""
    level = level_for((group, name), k)
    datum = level.datum
    assert datum.classical_frame is not None
    i = data.draw(st.integers(0, len(level.labels) - 1))
    terms = label_character(datum, level.labels[i]).items()
    for value, phases in zip(level.characters[i], level.phases):
        reference = evaluate_labels(terms, phases)
        assert abs(value - reference) <= 1e-10 * max(1.0, abs(reference))


def test_classical_frames():
    """A1, B_n and C_n orbit data carry the Bourbaki node map that carries
    their Cartan matrix to the standard one; F4, G2, the other simple types
    and reducible data have no frame, and keep the orbit route."""
    frames = {
        (g, a): checks.context(g, a).orbit.datum.classical_frame
        for g, a in FOLDING_CASES + [("A12", "flip"), ("C4", "id"), ("A3", "id"), ("D4", "id")]
    }
    assert frames["E6", "flip"] is None and frames["D4", "rot"] is None
    assert frames["A3", "id"] is None and frames["D4", "id"] is None
    assert frames["A2", "flip"] == ("A", (0,))
    assert frames["A3", "flip"] == ("B", (0, 1)) and frames["A4", "flip"] == ("C", (0, 1))
    assert frames["A12", "flip"][0] == "C" and frames["C4", "id"] == ("C", (0, 1, 2, 3))
    for (g, a), frame in frames.items():
        if frame is not None and frame[0] != "A":
            datum = checks.context(g, a).orbit.datum
            standard = standard_cartan_matrix(frame[0], datum.rank)
            p = frame[1]
            assert all(
                datum.cartan[p[i]][p[j]] == standard[i][j]
                for i in range(datum.rank) for j in range(datum.rank)
            )
    d4 = build_root_datum("D4")
    reducible = RootDatum(None, scaled_rows([d4.simple_roots[i] for i in (0, 2, 3)]), d4.gram_rows)
    assert reducible.classical_frame is None


@pytest.mark.parametrize("group,name,k", [("A3", "flip", 2), ("D4", "rot", 2)])
def test_one_verlinde_decision(group, name, k):
    """``verlinde_coefficient`` and ``fusion_table`` decide each entry by the
    same pair vector, on the alternant route (A3 flip) and the orbit route
    (D4 rot): equal coefficients, and the table's residual is the largest of
    the per-entry residuals."""
    ctx = ctx_for(group, name)
    table = fusion_table(ctx, k)
    level = table.level
    assert (level.datum.classical_frame is None) == (group == "D4")
    weights = level.level_weights
    residuals = []
    for lam, mu, nu in itertools.product(range(len(weights)), repeat=3):
        n = table.rows[lam][mu].get(nu, 0)
        assert verlinde_coefficient(ctx, level, weights[lam], weights[mu], weights[nu]) == n
        residuals.append(fusion._verlinde(level, fusion._pair_vector(level, lam, mu), nu)[1])
    assert table.max_residual == max(residuals)


def test_product_dimension_check_raises(monkeypatch):
    """A character missing one term fails the dimension check."""
    ctx = ctx_for("A2")
    theta = ctx.base.highest_root
    label_character = fusion.label_character

    def missing_lowest_weight(datum, lam):
        terms = dict(label_character(datum, lam))
        del terms[tuple(-m for m in lam)]  # w0 = -1 on the A1 orbit system
        return terms

    monkeypatch.setattr(fusion, "label_character", missing_lowest_weight)
    chi = {theta: 1}
    with pytest.raises(FusionError, match="dimension"):
        ring_product(ctx, chi, chi)


def test_fixed_weights_are_the_orbit_weights():
    # four identity foldings, A2 and A7 flip, and the nine foldings
    cases = [("A1", "id"), ("A2", "id"), ("B2", "id"), ("G2", "id"), ("A2", "flip"),
             ("A7", "flip")] + [(g, n) for g, n, *_ in checks.FOLDINGS]
    for label, name in cases:
        ctx = ctx_for(label, name)
        base = ctx.base
        orbit_sums = []
        for orb in ctx.node_orbits:
            acc = zero_vec(base.ambient_dim)
            for i in orb:
                acc = vadd(acc, base.fundamental_weights[i])
            orbit_sums.append(acc)
        assert tuple(orbit_sums) == ctx.orbit.datum.fundamental_weights
        assert tuple(orbit_sums) == ctx.lattices["fixed_weight"].basis
        theta = ctx.orbit.datum.highest_root
        level = level_data(ctx, 1)
        marks = [base.inner(g, theta) / level.rescale for g in orbit_sums]
        assert tuple(marks) == ctx.orbit.datum.comarks


@pytest.mark.parametrize(
    "group,name", [(g, n) for g, n, *_ in checks.FOLDINGS] + [("A2", "flip")]
)
def test_kappa_traces_on_base_tensor_products(group, name):
    """kappa acts on the multiplicity space of each kappa-fixed constituent
    of V_lam (x) V_mu, and the orbit datum's product gives its trace t.

    Over all pairs of the 8 lowest kappa-fixed dominant weights of base
    height <= 2 (<= 3 on D4 rot, which has only 3 of height <= 2): every
    orbit constituent is a base constituent; a kappa-fixed base constituent
    of multiplicity d has |t| <= d and t = d mod |kappa|, as the trace of an
    operator of order |kappa| with integer trace; and t != d somewhere, so
    the orbit product is no copy of the base one.  Both sides run
    ``_product_labels``, so a fault in its Racah-Speiser rule that both
    data share would go unseen here.
    """
    ctx = checks.context(group, name)
    height = 3 if (group, name) == ("D4", "rot") else 2
    weights = sorted(
        (sum(b), b)
        for m in itertools.product(range(height + 1), repeat=ctx.fixed_dim)
        if sum(b := ctx.base_labels(m)) <= height
    )[:8]
    moved = 0
    for (_, b1), (_, b2) in itertools.combinations_with_replacement(weights, 2):
        base = fusion._product_labels(ctx.base, b1, b2)
        orbit = fusion._product_labels(
            ctx.orbit.datum, ctx.orbit_labels(b1), ctx.orbit_labels(b2)
        )
        assert all(ctx.base_labels(nu) in base for nu in orbit), (b1, b2)
        for nu, d in base.items():
            if any(nu[i] != nu[orb[0]] for orb in ctx.node_orbits for i in orb):
                continue
            t = orbit.get(ctx.orbit_labels(nu), 0)
            assert abs(t) <= d and (t - d) % ctx.kappa.order == 0, (b1, b2, nu)
            moved += t != d
    assert moved > 0


def test_verlinde_rejects_a_weight_off_the_level():
    ctx = ctx_for("A2")
    table = fusion_table(ctx, 1)
    level = table.level
    zero = zero_vec(ctx.base.ambient_dim)
    beyond = vscale(2, ctx.base.highest_root)
    assert beyond not in level.level_weights
    for args in [(beyond, zero, zero), (zero, beyond, zero), (zero, zero, beyond)]:
        with pytest.raises(FusionError, match="weight is not a level weight"):
            verlinde_coefficient(ctx, level, *args)
        with pytest.raises(FusionError, match="weight is not a level weight"):
            table.get(*args)


def reference_level_data(ctx, k):
    """``level_data`` by ambient Fraction pairings: the comarks pair the
    fundamental weights with theta^vee, the rescaling is norm_sq(theta) / 2,
    each frame is ``coroot_coords`` of its s-point built in Fractions, and |T|
    is the index of the orbit coroot lattice in its sum with the rescaled
    weight lattice.  The comarks and theta's labels, which the level data
    read off the orbit datum, are checked against that datum here."""
    base, orbit = ctx.base, ctx.orbit.datum
    theta = orbit.highest_root
    theta_vee = base.coroot(theta)
    marks = [base.inner(w, theta_vee) for w in orbit.fundamental_weights]
    assert all(a.denominator == 1 and a > 0 for a in marks)
    marks = tuple(int(a) for a in marks)
    assert marks == orbit.comarks
    assert orbit.labels_of(theta) == orbit.theta_labels
    rescale = base.norm_sq(theta) / 2
    h = 1 + sum(marks)
    weights = sorted(
        (orbit.from_labels(combo), combo)
        for combo in itertools.product(*(range(k // a + 1) for a in marks))
        if sum(c * a for c, a in zip(combo, marks)) <= k
    )
    shift = Fraction(1, k + h) / rescale
    rho = orbit.weyl_vector
    points = tuple(TorusPoint(vscale(shift, vadd(lam, rho))) for lam, _ in weights)
    phases = tuple(orbit.coroot_coords(pt.xi) for pt in points)
    assert all(0 not in _root_residues(orbit, frame) for frame in phases)
    coroots = ctx.orbit.coroot_lattice
    scaled = [vscale(shift, w) for w in orbit.fundamental_weights]
    total = lattice_span(scaled + list(coroots.basis), coroots.ambient_dim)
    assert total.rank == coroots.rank
    level_weights, labels = zip(*weights)
    return LevelData(
        k=k,
        rescale=rescale,
        dual_coxeter=h,
        level_weights=level_weights,
        labels=labels,
        phases=phases,
        t_group_order=lattice_index(coroots, total),
        datum=orbit,
        label_index={m: i for i, m in enumerate(labels)},
        weight_index={lam: i for i, lam in enumerate(level_weights)},
    )


# (group, automorphism, level) for the integer level data against the reference
LEVEL_REFERENCE_CASES = [
    case + (k,)
    for case in FOLDING_CASES
    for k in ((1, 2) if case in {("E6", "flip"), ("D6", "flip")} else (1, 2, 3))
] + [(g, "id", k) for g in ("B3", "C3", "G2", "F4") for k in (1, 2)]


@pytest.mark.parametrize("group,name,k", LEVEL_REFERENCE_CASES)
def test_level_data_matches_fraction_reference(group, name, k):
    ctx = ctx_for(group, name)
    level, expected = level_data(ctx, k), reference_level_data(ctx, k)
    for f in dataclasses.fields(LevelData):
        if f.name != "by_id":
            assert getattr(level, f.name) == getattr(expected, f.name), f.name


def _copy(lam):
    """An equal vector sharing no object with ``lam``."""
    return tuple(Fraction(x.numerator, x.denominator) for x in lam)


@pytest.mark.parametrize("group,name,k", [("A3", "flip", 2), ("D4", "rot", 2)])
def test_lookups_resolve_copies_and_the_unit(group, name, k):
    ctx = ctx_for(group, name)
    table = fusion_table(ctx, k)
    level = table.level
    weights = level.level_weights
    unit = zero_vec(ctx.base.ambient_dim)
    for lam, mu, nu in itertools.product(weights, repeat=3):
        copies = _copy(lam), _copy(mu), _copy(nu)
        assert all(c == v and c is not v for c, v in zip(copies, (lam, mu, nu)))
        n = table.get(lam, mu, nu)
        assert table.get(*copies) == n
        assert verlinde_coefficient(ctx, level, *copies) == n
        assert verlinde_coefficient(ctx, level, lam, mu, nu) == n
    for mu, nu in itertools.product(weights, repeat=2):
        assert table.get(unit, mu, nu) == int(mu == nu)
        assert verlinde_coefficient(ctx, level, unit, mu, nu) == int(mu == nu)


def test_stored_level_weights_resolve_by_identity():
    """With the value index emptied, the stored vectors still resolve and
    equal copies no longer do."""
    level = level_data(ctx_for("A3"), 2)
    level.weight_index.clear()
    lam, mu, nu = level.level_weights[:3]
    assert tuple(fusion._index(level, v) for v in (lam, mu, nu)) == (0, 1, 2)
    with pytest.raises(FusionError):
        fusion._index(level, _copy(lam))


def test_fusion_table_pickle_round_trip():
    ctx = ctx_for("D4", "rot")
    table = fusion_table(ctx, 2)
    copy = pickle.loads(pickle.dumps(table))
    assert copy == table
    assert copy.level.weight_index == table.level.weight_index
    assert copy.level.by_id == {id(lam): i for i, lam in enumerate(copy.level.level_weights)}
    for triple in itertools.product(range(len(table.level.level_weights)), repeat=3):
        n = table.rows[triple[0]][triple[1]].get(triple[2], 0)
        stored = [copy.level.level_weights[i] for i in triple]
        assert copy.get(*stored) == n
        assert verlinde_coefficient(ctx, copy.level, *stored) == n
        assert copy.get(*(table.level.level_weights[i] for i in triple)) == n


VALUE_TABLES = ("characters", "weights")


def test_level_values_are_built_once_on_first_read(monkeypatch):
    level = level_data(ctx_for("D4", "rot"), 2)
    assert not any(name in level.__dict__ for name in VALUE_TABLES)
    tables = [getattr(level, name) for name in VALUE_TABLES]
    assert len(tables[0]) == len(tables[1]) == len(level.labels)

    def no_recomputation(*args):
        raise AssertionError("a value table was rebuilt")

    monkeypatch.setattr(fusion, "label_character", no_recomputation)
    monkeypatch.setattr(fusion, "_norm_sq_at", no_recomputation)
    assert all(getattr(level, n) is t for n, t in zip(VALUE_TABLES, tables))


def test_level_values_survive_pickle_and_deepcopy():
    """Copies taken before and after the tables are read give the same
    tables, and index their own level weights by identity."""
    ctx = ctx_for("A3")
    level = level_data(ctx, 2)
    unread = [pickle.loads(pickle.dumps(level)), copy.deepcopy(level)]
    tables = [getattr(level, name) for name in VALUE_TABLES]
    read = [pickle.loads(pickle.dumps(level)), copy.deepcopy(level)]
    for c in unread + read:
        assert c == level
        assert c.by_id == {id(lam): i for i, lam in enumerate(c.level_weights)}
        assert [getattr(c, name) for name in VALUE_TABLES] == tables
    for c in read:
        assert all(name in c.__dict__ for name in VALUE_TABLES)


def test_verlinde_values_come_from_the_level_alone():
    """A level read with another folding's context gives its own folding's
    coefficients, after that context has evaluated a level of its own."""
    a3, d4 = ctx_for("A3"), ctx_for("D4", "swap34")
    own = level_data(a3, 1)
    unit = own.level_weights[0]
    assert verlinde_coefficient(a3, own, unit, unit, unit) == 1
    level = level_data(d4, 1)
    w = level.level_weights
    assert [verlinde_coefficient(a3, level, w[1], w[1], nu) for nu in w] == [1, 0, 1, 0]
    fresh = level_data(ctx_for("D4", "swap34"), 1)
    for triple in itertools.product(range(len(w)), repeat=3):
        assert verlinde_coefficient(a3, level, *(w[i] for i in triple)) == (
            verlinde_coefficient(d4, fresh, *(fresh.level_weights[i] for i in triple))
        )


# (kappa-fixed base level-k weights, twisted level-k weights) at k = 1 and 2
LEVEL_COUNTS = {
    ("A3", "flip"): [(2, 3), (4, 6)], ("A4", "flip"): [(1, 3), (3, 6)],
    ("A5", "flip"): [(2, 3), (5, 7)], ("A6", "flip"): [(1, 4), (4, 10)],
    ("D5", "flip"): [(2, 5), (6, 15)], ("D6", "flip"): [(2, 6), (7, 21)],
    ("D4", "swap34"): [(2, 4), (5, 10)], ("D4", "rot"): [(1, 2), (2, 4)],
    ("E6", "flip"): [(1, 2), (3, 5)], ("A2", "flip"): [(1, 2), (2, 3)],
}


@pytest.mark.parametrize("group,name", list(LEVEL_COUNTS))
def test_level_k_is_the_orbit_groups_level(group, name):
    """level_data(ctx, k) is the orbit group's level k: it contains the
    kappa-fixed level-k weights of the base, taken to orbit labels by
    orbit_labels, and in general more of them."""
    ctx = ctx_for(group, name)
    base = fold(ctx.base, automorphism_by_name(ctx.base, "id"))
    counts = []
    for k in (1, 2):
        twisted = level_data(ctx, k).labels
        fixed = []
        for labels in level_data(base, k).labels:
            try:
                fixed.append(ctx.orbit_labels(labels))
            except RootSystemError:  # not kappa-fixed
                continue
        assert set(fixed) <= set(twisted)
        counts.append((len(fixed), len(twisted)))
    assert counts == LEVEL_COUNTS[group, name]
