import math
import random
import time
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from twinefold.linalg import identity, mat_det, vadd, vneg, vscale, vsub, zero_vec
from twinefold.rootcore import build_root_datum
from twinefold.folding import automorphism_by_name, fold, fundamental_coweights
from twinefold.alcove import (
    AffineElement,
    AlcoveError,
    affine_reflection,
    fold_to_alcove,
    fundamental_alcove,
    stabilizer_datum,
)
from twinefold.twining import TorusPoint, denominator_norm_sq, is_regular, weyl_denominator


def ctx_for(label, name="flip"):
    d = build_root_datum(label)
    return fold(d, automorphism_by_name(d, name))


def test_a2_alcove_segment():
    ctx = ctx_for("A2")
    alc = fundamental_alcove(ctx)
    theta = ctx.base.highest_root
    assert alc.vertices == (zero_vec(2), vscale(Fraction(1, 4), theta))
    length = math.sqrt(float(ctx.base.norm_sq(alc.vertices[1])))
    assert abs(length - math.sqrt(2) / 4) < 1e-12


def test_trivial_a1_alcove():
    d = build_root_datum("A1")
    ctx = fold(d, automorphism_by_name(d, "id"))
    alc = fundamental_alcove(ctx)
    endpoint = alc.vertices[1]
    assert endpoint == vscale(Fraction(1, 2), d.coroot(d.simple_roots[0]))
    assert ctx.base.inner(d.highest_root, endpoint) == 1


def test_e6_alcove_simplex():
    ctx = ctx_for("E6")
    alc = fundamental_alcove(ctx)
    assert len(alc.vertices) == 5  # 0 plus one per F4 node
    for v in alc.vertices:
        assert ctx.base.inner(alc.theta, v) <= 1
        assert alc.contains(v)


def test_fold_fixed_point():
    ctx = ctx_for("A2")
    alc = fundamental_alcove(ctx)
    xi = vscale(Fraction(1, 8), ctx.base.highest_root)
    assert alc.contains(xi)
    folded, g = fold_to_alcove(ctx, xi)
    assert folded == xi
    assert g.is_identity


def test_fold_negative_endpoint():
    ctx = ctx_for("A2")
    v = vscale(Fraction(1, 4), ctx.base.highest_root)
    folded, g = fold_to_alcove(ctx, vneg(v))
    assert folded == v
    assert g.linear_det == -1
    assert g.apply(vneg(v)) == v


def test_fold_lattice_periodicity():
    ctx = ctx_for("A3")
    alc = fundamental_alcove(ctx)
    interior = alc.vertices[1]
    xi = vscale(Fraction(1, 3), interior)
    lam = ctx.orbit.coroot_lattice.basis[0]
    folded, g = fold_to_alcove(ctx, vadd(xi, lam))
    assert folded == xi
    assert g.translation == vneg(lam)


def test_fold_is_retraction_random():
    for label, name in [("A2", "flip"), ("A3", "flip"), ("A4", "flip"),
                        ("D4", "rot"), ("E6", "flip")]:
        ctx = ctx_for(label, name)
        alc = fundamental_alcove(ctx)
        rng = random.Random(42)
        cws = fundamental_coweights(ctx.orbit.datum)
        for _ in range(10):
            xi = zero_vec(ctx.base.ambient_dim)
            for cw in cws:
                c = Fraction(rng.randint(-50, 50), rng.randint(1, 19))
                xi = vadd(xi, vscale(c, cw))
            folded, g = fold_to_alcove(ctx, xi)
            assert alc.contains(folded)
            assert g.apply(xi) == folded
            assert ctx.orbit.coroot_lattice.contains(g.translation)
            again, h = fold_to_alcove(ctx, folded)
            assert again == folded and h.is_identity


@pytest.mark.parametrize("case", [("A3", "flip"), ("D4", "rot")])
def test_far_fold_reduces_in_one_step(case):
    """Points at ~10^6 coweight units fold in a few reflections, in well
    under 0.1 s: the coroot-lattice part is removed in one step."""
    ctx = ctx_for(*case)
    alc = fundamental_alcove(ctx)
    rng = random.Random(6)
    for _ in range(5):
        xi = zero_vec(ctx.base.ambient_dim)
        for cw in fundamental_coweights(ctx.orbit.datum):
            c = rng.choice((-1, 1)) * 10**6 + Fraction(rng.randint(-97, 97), 23)
            xi = vadd(xi, vscale(c, cw))
        start = time.perf_counter()
        folded, g = fold_to_alcove(ctx, xi)
        assert time.perf_counter() - start < 0.1
        assert alc.contains(folded)
        assert g.apply(xi) == folded
        assert ctx.orbit.coroot_lattice.contains(g.translation)
        assert len(g.word) <= 20  # reflections after the translation


def test_fundamental_domain_property_a2():
    """No affine element of moderate size maps one alcove point to another."""
    ctx = ctx_for("A2")
    theta = ctx.base.highest_root
    points = [vscale(Fraction(k, 32), theta) for k in (1, 3, 5, 7)]
    base = ctx.base
    alpha = ctx.orbit.datum.simple_roots[0]
    gen = ctx.orbit.coroot_lattice.basis[0]
    assert gen == base.coroot(alpha)
    elements = []
    for k in range(-4, 5):
        shift = vscale(k, gen)
        # x -> x + shift and x -> s_alpha(x) + shift, as reflection words
        translate = AffineElement(
            2, (affine_reflection(base, alpha), affine_reflection(base, alpha, k))
        )
        reflect = AffineElement(2, (affine_reflection(base, alpha, k),))
        for g, det in ((translate, 1), (reflect, -1)):
            assert g.translation == shift and g.linear_det == det
            elements.append(g)
    assert len(elements) == 18
    for i, p in enumerate(points):
        for q in points[i + 1:]:
            for g in elements:
                assert g.apply(p) != q


def test_stabilizer_at_origin_full_system():
    ctx = ctx_for("A3")
    stab = stabilizer_datum(ctx, zero_vec(3))
    assert len(stab.surviving) == ctx.orbit.datum.rank
    assert not stab.includes_affine_node
    assert stab.subsystem_label == ctx.orbit.datum.type_label


def test_stabilizer_a4_origin():
    ctx = ctx_for("A4")
    stab = stabilizer_datum(ctx, zero_vec(4))
    assert stab.dual_label == "B2"
    assert stab.pi1.invariant_factors == (2,)
    assert stab.pi1_free_rank == 0


def test_stabilizer_e6_origin():
    ctx = ctx_for("E6")
    stab = stabilizer_datum(ctx, zero_vec(6))
    assert stab.dual_label == "F4"
    assert stab.pi1.is_trivial
    assert stab.pi1_free_rank == 0


def test_stabilizer_interior():
    ctx = ctx_for("A2")
    stab = stabilizer_datum(ctx, vscale(Fraction(1, 8), ctx.base.highest_root))
    assert stab.surviving == ()
    assert stab.dual_label == "maximal torus"
    assert stab.pi1.is_trivial
    assert stab.pi1_free_rank == 1


def test_stabilizer_a2_far_endpoint():
    ctx = ctx_for("A2")
    stab = stabilizer_datum(ctx, vscale(Fraction(1, 4), ctx.base.highest_root))
    assert stab.includes_affine_node
    assert stab.subsystem_label == "A1"
    assert stab.pi1.invariant_factors == (2,)


def test_stabilizer_outside_alcove():
    ctx = ctx_for("A2")
    with pytest.raises(AlcoveError):
        stabilizer_datum(ctx, vscale(2, ctx.base.highest_root))


def jacobian(ctx, xi):
    """The Jacobian of the twisted conjugation map at exp(xi):
    |T^kappa cap T_kappa| |Delta(exp xi)|^2."""
    return ctx.fixed_intersection.order * denominator_norm_sq(ctx, xi)


def test_det_diff_conj_values():
    ctx = ctx_for("A2")
    assert jacobian(ctx, zero_vec(2)) == 0
    mid = vscale(Fraction(1, 8), ctx.base.highest_root)
    assert abs(jacobian(ctx, mid) - 8) < 1e-9
    assert jacobian(ctx, vscale(Fraction(1, 16), ctx.base.highest_root)) > 0


def test_det_diff_conj_wall_zero():
    ctx = ctx_for("A3")
    alc = fundamental_alcove(ctx)
    # a vertex lies on affine walls, so the Jacobian vanishes there
    assert jacobian(ctx, alc.vertices[1]) < 1e-9


@pytest.mark.parametrize("label,name", [("A3", "flip"), ("A4", "flip"), ("D4", "rot")])
def test_det_diff_conj_matches_denominator_expansion(label, name):
    # the product formula against |T^k cap T_k| |Delta(exp xi)|^2 with Delta
    # expanded as a polynomial, at random regular points of the fixed subspace
    ctx = ctx_for(label, name)
    order = ctx.fixed_intersection.order
    delta = weyl_denominator(ctx)
    rng = random.Random(8)
    checked = 0
    while checked < 20:
        xi = zero_vec(ctx.base.ambient_dim)
        for w in ctx.orbit.datum.fundamental_weights:
            xi = vadd(xi, vscale(Fraction(rng.randrange(-2000, 2000), 1009), w))
        if not is_regular(ctx, TorusPoint(xi)):
            continue
        expected = order * abs(delta.eval(ctx, TorusPoint(xi))) ** 2
        assert math.isclose(jacobian(ctx, xi), expected, rel_tol=1e-9)
        checked += 1


@settings(deadline=None, max_examples=30)
@given(
    case=st.sampled_from([("A2", "flip"), ("A3", "flip"), ("D4", "rot")]),
    coeffs=st.lists(
        st.fractions(min_value=-60, max_value=60, max_denominator=23),
        min_size=3,
        max_size=3,
    ),
)
def test_fold_to_alcove_properties(case, coeffs):
    ctx = ctx_for(*case)
    alc = fundamental_alcove(ctx)
    dim = ctx.base.ambient_dim
    xi = zero_vec(dim)
    for c, cw in zip(coeffs, fundamental_coweights(ctx.orbit.datum)):
        xi = vadd(xi, vscale(c, cw))
    folded, g = fold_to_alcove(ctx, xi)
    assert alc.contains(folded)
    assert g.apply(xi) == folded
    again, h = fold_to_alcove(ctx, folded)
    assert again == folded and h.is_identity
    t = g.translation
    assert ctx.orbit.coroot_lattice.contains(t)
    # reference: the matrix of the linear part, column j = g(e_j) - g(0)
    cols = [vsub(g.apply(e), t) for e in identity(dim)]
    linear = tuple(tuple(col[r] for col in cols) for r in range(dim))
    assert mat_det(linear) == g.linear_det


@pytest.mark.parametrize(
    "label,name,pairs",
    [
        ("E6", "flip", [("F4", "F4"), ("A1+C3", "A1+B3"), ("B4", "C4"),
                        ("A2+A2", "A2+A2"), ("A1+A3", "A1+A3")]),
        ("A5", "flip", [("B3", "C3"), ("B3", "C3"), ("A1+A1+A1", "A1+A1+A1"),
                        ("A3", "A3")]),
        ("D4", "rot", [("G2", "G2"), ("A1+A1", "A1+A1"), ("A2", "A2")]),
    ],
)
def test_stabilizer_labels_at_alcove_vertices(label, name, pairs):
    ctx = ctx_for(label, name)
    got = [stabilizer_datum(ctx, v) for v in fundamental_alcove(ctx).vertices]
    assert [(s.subsystem_label, s.dual_label) for s in got] == pairs
