"""End-to-end acceptance checks, one per headline identity.

The conftest hook prints one PASS/FAIL line per criterion in the terminal
summary, so verdicts can be read off the test log directly.  Tolerances:
exact arithmetic unless stated; 1e-12 for the alcove length float check;
1e-9 relative for numeric character evaluation; 1e-6 for Verlinde
integrality residuals (enforced inside the fusion routines).
"""

import math
import random
from fractions import Fraction

from twinefold.linalg import vadd, vscale, zero_vec
from twinefold.rootcore import (
    build_root_datum,
    is_sublattice,
    lattice_eq,
)
from twinefold.folding import automorphism_by_name, fold, fundamental_coweights
from twinefold.twining import (
    TorusPoint,
    adjoint_oracle,
    inner_product,
    is_regular,
    jantzen_eval,
    twining_character,
)
from twinefold.alcove import fundamental_alcove, stabilizer_datum
from twinefold.fusion import dual_coxeter_number, fusion_table

FOLDINGS = [
    ("A3", "flip", "C2", "B2"),
    ("A4", "flip", "BC2", "C2"),
    ("A5", "flip", "C3", "B3"),
    ("A6", "flip", "BC3", "C3"),
    ("D5", "flip", "B4", "C4"),
    ("D6", "flip", "B5", "C5"),
    ("D4", "swap34", "B3", "C3"),
    ("D4", "rot", "G2", "G2"),
    ("E6", "flip", "F4", "F4"),
]


def ctx_for(label, name):
    d = build_root_datum(label)
    return fold(d, automorphism_by_name(d, name))


def _report(name, ok):
    assert ok, f"criterion {name}: FAIL"


def test_criterion_01_folding_table():
    ok = True
    for label, name, folded, orbit in FOLDINGS:
        ctx = ctx_for(label, name)
        ok = ok and ctx.folded.label == folded
        ok = ok and ctx.orbit.datum.type_label == orbit
    _report("01 folding classification table", ok)


def test_criterion_02_half_sum_equality():
    ok = True
    for label, name, _, _ in FOLDINGS:
        ctx = ctx_for(label, name)
        half = zero_vec(ctx.base.ambient_dim)
        for a in ctx.orbit.datum.positive_roots:
            half = vadd(half, a)
        ok = ok and vscale(Fraction(1, 2), half) == ctx.base.weyl_vector
    _report("02 half-sum equality", ok)


def test_criterion_03_lattice_suite():
    ok = True
    for label, name, _, _ in FOLDINGS:
        ctx = ctx_for(label, name)
        lat = ctx.lattices
        ok = ok and is_sublattice(lat["QF"], lat["PF"])
        ok = ok and is_sublattice(lat["QFv"], lat["PFv"])
        ok = ok and is_sublattice(lat["QO"], lat["PO"])
        ok = ok and is_sublattice(lat["QOv"], lat["POv"])
        ok = ok and lattice_eq(lat["QOv"], lat["p_integral"])
        if ctx._is_a_even:
            ok = ok and len(ctx.index_two_quotients) == 4
            ok = ok and all(v == 2 for v in ctx.index_two_quotients.values())
        else:
            ok = ok and lattice_eq(lat["QFv"], lat["fixed_integral"])
            ok = ok and lattice_eq(lat["PFv"], lat["fixed_coweight"])
            ok = ok and lattice_eq(lat["PF"], lat["p_weight"])
            ok = ok and lattice_eq(lat["QO"], lat["fixed_root"])
            ok = ok and lattice_eq(lat["PO"], lat["fixed_weight"])
            ok = ok and lattice_eq(lat["POv"], lat["p_coweight"])
    _report("03 lattice inclusions and index-2 quotients", ok)


def test_criterion_04_finite_groups():
    ok = True
    for label, name, _, _ in FOLDINGS:
        ctx = ctx_for(label, name)
        expected = (3,) if ctx.kappa.order == 3 else (2,) * ctx.moving_dim
        ok = ok and ctx.fixed_intersection.invariant_factors == expected
        ok = ok and ctx.outer_weyl_order == (
            ctx.fixed_intersection.order * ctx.orbit_weyl_order
        )
    _report("04 torus intersection and outer Weyl order", ok)


def test_criterion_05_alcove_segment():
    ctx = ctx_for("A2", "flip")
    alc = fundamental_alcove(ctx)
    theta = ctx.base.highest_root
    ok = alc.vertices == (zero_vec(2), vscale(Fraction(1, 4), theta))
    length = math.sqrt(float(ctx.base.norm_sq(alc.vertices[1])))
    ok = ok and abs(length - math.sqrt(2) / 4) < 1e-12
    _report("05 rank-one alcove segment, length sqrt(2)/4", ok)


def test_criterion_06_stabilizer_rule():
    a4 = stabilizer_datum(ctx_for("A4", "flip"), zero_vec(4))
    e6 = stabilizer_datum(ctx_for("E6", "flip"), zero_vec(6))
    ok = a4.dual_label == "B2" and a4.pi1.invariant_factors == (2,)
    ok = ok and e6.dual_label == "F4" and e6.pi1.is_trivial
    _report("06 stabilizer deletion rule at the origin", ok)


def test_criterion_07_quotient_formula_vs_oracle():
    rng = random.Random(20260823)
    ok = True
    for label, name, _, _ in FOLDINGS:
        ctx = ctx_for(label, name)
        theta = ctx.base.highest_root
        chi = twining_character(ctx, theta)
        cws = fundamental_coweights(ctx.orbit.datum)
        done = 0
        while done < 20:
            xi = zero_vec(ctx.base.ambient_dim)
            for cw in cws:
                c = Fraction(rng.randint(1, 400), rng.randint(401, 997))
                xi = vadd(xi, vscale(c, cw))
            pt = TorusPoint(xi)
            if not is_regular(ctx, pt):
                continue
            done += 1
            poly_value = chi.eval(ctx, pt)
            ratio_value = jantzen_eval(ctx, theta, pt)
            oracle_value = adjoint_oracle(ctx, pt)
            scale = max(1.0, abs(poly_value))
            ok = ok and abs(poly_value - ratio_value) <= 1e-9 * scale
            ok = ok and abs(poly_value - oracle_value) <= 1e-9 * scale
    _report("07 quotient formula vs adjoint oracle, 20 points each", ok)


def _fixed_dominant_up_to_height(ctx, bound):
    rank = ctx.base.rank
    perm = ctx.kappa.permutation
    out = []

    def rec(i, coords, height):
        if i == rank:
            out.append(tuple(coords))
            return
        j = perm[i]
        if j < i:
            if coords[j] + height > bound and coords[j] > 0:
                return
            coords.append(coords[j])
            if sum(coords) <= bound:
                rec(i + 1, coords, height + coords[j])
            coords.pop()
            return
        for c in range(bound - height + 1):
            coords.append(c)
            rec(i + 1, coords, height + c)
            coords.pop()

    rec(0, [], 0)
    weights = []
    for coords in out:
        if sum(coords) > bound:
            continue
        lam = zero_vec(ctx.base.ambient_dim)
        for c, w in zip(coords, ctx.base.fundamental_weights):
            lam = vadd(lam, vscale(c, w))
        if ctx.apply_kappa(lam) == lam:
            weights.append(lam)
    return sorted(set(weights))


def test_criterion_08_exact_orthogonality():
    ok = True
    for label, name in [("A2", "flip"), ("A3", "flip"), ("A4", "flip"), ("D4", "rot")]:
        ctx = ctx_for(label, name)
        weights = _fixed_dominant_up_to_height(ctx, 3)
        polys = [twining_character(ctx, lam).poly for lam in weights]
        for i, f in enumerate(polys):
            for j, g in enumerate(polys):
                ok = ok and inner_product(ctx, f, g) == (1 if i == j else 0)
    _report("08 exact character orthogonality, height <= 3", ok)


def test_criterion_09_fusion_route_equivalence():
    ok = True
    for label, name, ks in [
        ("A2", "flip", (1, 2, 3, 4)),
        ("A3", "flip", (1, 2)),
        ("D4", "rot", (1, 2)),
    ]:
        ctx = ctx_for(label, name)
        for k in ks:
            # fusion_table raises on any route disagreement or residual > 1e-6
            table = fusion_table(ctx, k)
            zero = zero_vec(ctx.base.ambient_dim)
            for mu in table.level.level_weights:
                for nu in table.level.level_weights:
                    ok = ok and table.get(zero, mu, nu) == (1 if mu == nu else 0)
    _report("09 fusion route equivalence and unit axiom", ok)


def test_criterion_10_degenerate_recovery():
    d1 = build_root_datum("A1")
    trivial = fold(d1, automorphism_by_name(d1, "id"))
    ctx = ctx_for("A2", "flip")
    ok = True
    for k in (1, 2, 3, 4):
        ta = fusion_table(ctx, k)
        tb = fusion_table(trivial, k)
        wa, wb = ta.level.level_weights, tb.level.level_weights
        ok = ok and len(wa) == len(wb) == k + 1
        ia = {w: i for i, w in enumerate(wa)}
        ib = {w: i for i, w in enumerate(wb)}
        fa = {(ia[l], ia[m], ia[n]): v for (l, m, n), v in ta.coefficients.items()}
        fb = {(ib[l], ib[m], ib[n]): v for (l, m, n), v in tb.coefficients.items()}
        ok = ok and fa == fb
    _report("10 folded tables match the standalone rank-one group", ok)


def test_criterion_11_dual_coxeter_numbers():
    # the rank-2 orbit of the A3 folding has dual Coxeter number 3, matching
    # the independent orbit-datum evaluation below (both B2 and C2 give 3)
    expected = [("A2", "flip", 2), ("A3", "flip", 3), ("E6", "flip", 9), ("D4", "rot", 4)]
    ok = True
    for label, name, h in expected:
        ctx = ctx_for(label, name)
        ok = ok and dual_coxeter_number(ctx) == h
        orbit = ctx.orbit.datum
        theta = orbit.highest_root
        alt = 1 + ctx.base.inner(orbit.weyl_vector, orbit.coroot(theta))
        ok = ok and alt == h
    _report("11 dual Coxeter numbers by two routes", ok)
