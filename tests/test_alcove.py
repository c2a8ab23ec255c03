import math
import random
import time
from fractions import Fraction
from functools import lru_cache
from operator import mul

import pytest
from hypothesis import given, settings, strategies as st

from twinefold.checks import FOLDINGS
from twinefold.linalg import mat_det, mat_vec, vadd, vdot, vneg, vscale, vsub, zero_vec
from twinefold.rootcore import RootDatum, _classify_system, build_root_datum, lattice_quotient
from twinefold.folding import (
    automorphism_by_name,
    coroot_lattice,
    fold,
    fundamental_coweights,
)
from twinefold.alcove import (
    FOLD_ITERATION_CAP,
    AffineElement,
    AffineReflection,
    AlcoveError,
    fold_to_alcove,
    fundamental_alcove,
    stabilizer_datum,
)
from twinefold.twining import TorusPoint, denominator_norm_sq, is_regular, weyl_denominator

from fraction_reference import identity


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
        assert ctx.base.inner(ctx.orbit.datum.highest_root, v) <= 1
        assert alc.contains(v)


def test_fold_fixed_point():
    ctx = ctx_for("A2")
    alc = fundamental_alcove(ctx)
    xi = vscale(Fraction(1, 8), ctx.base.highest_root)
    assert alc.contains(xi)
    folded, g = fold_to_alcove(ctx, xi)
    assert folded == xi
    assert g.word == () and not any(g.shift)


def test_fold_negative_endpoint():
    ctx = ctx_for("A2")
    v = vscale(Fraction(1, 4), ctx.base.highest_root)
    folded, g = fold_to_alcove(ctx, vneg(v))
    assert folded == v
    assert len(g.word) % 2 == 1
    assert g.apply(vneg(v)) == v


def test_fold_lattice_periodicity():
    ctx = ctx_for("A3")
    alc = fundamental_alcove(ctx)
    interior = alc.vertices[1]
    xi = vscale(Fraction(1, 3), interior)
    lam = ctx.orbit.coroot_lattice.basis[0]
    folded, g = fold_to_alcove(ctx, vadd(xi, lam))
    assert folded == xi
    assert g.apply(zero_vec(3)) == vneg(lam)


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
            assert ctx.orbit.coroot_lattice.contains(g.apply(zero_vec(ctx.base.ambient_dim)))
            again, h = fold_to_alcove(ctx, folded)
            assert again == folded and h.word == () and not any(h.shift)


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
        assert ctx.orbit.coroot_lattice.contains(g.apply(zero_vec(ctx.base.ambient_dim)))
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

    def affine_reflection(k):
        # the reflection in <alpha, x> = k
        return AffineReflection(mat_vec(base.ambient_gram, alpha), Fraction(k), base.coroot(alpha))

    for k in range(-4, 5):
        shift = vscale(k, gen)
        # x -> x + shift and x -> s_alpha(x) + shift, as reflection words
        translate = AffineElement((affine_reflection(0), affine_reflection(k)))
        reflect = AffineElement((affine_reflection(k),))
        for g, det in ((translate, 1), (reflect, -1)):
            assert g.apply(zero_vec(2)) == shift and (-1) ** len(g.word) == det
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
    assert again == folded and h.word == () and not any(h.shift)
    t = g.apply(zero_vec(dim))
    assert ctx.orbit.coroot_lattice.contains(t)
    # reference: the matrix of the linear part, column j = g(e_j) - g(0)
    cols = [vsub(g.apply(e), t) for e in identity(dim)]
    linear = tuple(tuple(col[r] for col in cols) for r in range(dim))
    assert mat_det(linear) == (-1) ** len(g.word)


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


# the nine foldings plus the flips of A2, A7 and D7, and three non-simply-laced
# identity folds, where the surviving roots and their coroots span different
# lattices, the affine node included
COROOT_CASES = [(g, n) for g, n, *_ in FOLDINGS] + [
    ("A2", "flip"), ("A7", "flip"), ("D7", "flip"), ("B3", "id"), ("C4", "id"), ("G2", "id")
]


def assert_stabilizer_is_coroot_datum(ctx, xi):
    """Reference: realize the stabilizer's roots on the fixed torus as a datum
    of their own (the coroots of the surviving roots, or untwisted the
    surviving roots themselves) and read its type and pi1 = (coroot lattice)
    in Lambda^kappa."""
    stab = stabilizer_datum(ctx, xi)
    if not stab.surviving:
        assert stab.dual_label == "maximal torus" and stab.pi1.is_trivial
        return
    base = ctx.base
    roots = stab.surviving if ctx.kappa.is_identity else [base.coroot(a) for a in stab.surviving]
    dual = RootDatum(None, roots, base.ambient_gram)
    coroots = coroot_lattice(dual)
    fixed_integral = ctx.lattices["fixed_integral"]
    assert stab.dual_label == dual.type_label
    assert stab.pi1 == lattice_quotient(coroots, fixed_integral)
    assert stab.pi1_free_rank == fixed_integral.rank - coroots.rank


@pytest.mark.parametrize("case", COROOT_CASES, ids="-".join)
def test_stabilizer_matches_coroot_datum_at_vertices(case):
    ctx = ctx_for(*case)
    for v in fundamental_alcove(ctx).vertices:
        assert_stabilizer_is_coroot_datum(ctx, v)


@settings(deadline=None, max_examples=40)
@given(
    case=st.sampled_from(COROOT_CASES),
    coeffs=st.lists(
        st.fractions(min_value=-3, max_value=3, max_denominator=4), min_size=6, max_size=6
    ),
)
def test_stabilizer_matches_coroot_datum_at_folded_points(case, coeffs):
    # small denominators put most folded points on walls of the alcove
    ctx = ctx_for(*case)
    xi = zero_vec(ctx.base.ambient_dim)
    for c, cw in zip(coeffs, fundamental_coweights(ctx.orbit.datum)):
        xi = vadd(xi, vscale(c, cw))
    folded, _ = fold_to_alcove(ctx, xi)
    assert_stabilizer_is_coroot_datum(ctx, folded)


# ---------------------------------------------------------------------------
# the integer walls and walk against Fraction pairings with the wall covectors
# ---------------------------------------------------------------------------

# the nine foldings, A2 flip, and identity folds with unequal root lengths
REFERENCE_CASES = [(g, n) for g, n, *_ in FOLDINGS] + [
    ("A2", "flip"), ("B3", "id"), ("C4", "id"), ("G2", "id")
]


@lru_cache(maxsize=None)
def cached_ctx(case):
    return ctx_for(*case)


def reference_heights(alc, xi):
    """<a, xi> for the floor walls, and <theta, xi>, by Fraction dot products."""
    *floors, ceiling = alc.walls
    return [vdot(w.covector, xi) for w in floors], vdot(ceiling.covector, xi)


def reference_contains(alc, xi):
    floors, top = reference_heights(alc, xi)
    return all(h >= 0 for h in floors) and top <= 1


def reference_fold(ctx, xi):
    """The fold by Fraction reflections in the alcove walls: the translation
    by the integer parts of <omega_j, xi>, rounded toward zero, for a point
    outside the alcove, then the first floor wall of negative height, else the
    ceiling, until none applies.  Returns (point, word, shift)."""
    alc = fundamental_alcove(ctx)
    *floors, ceiling = alc.walls
    gram = ctx.base.ambient_gram
    shift = zero_vec(ctx.base.ambient_dim)
    if not reference_contains(alc, xi):
        for w, wall in zip(ctx.orbit.datum.fundamental_weights, floors):
            n = int(vdot(mat_vec(gram, w), xi))
            if n:
                shift = vsub(shift, vscale(n, wall.coroot))
    word = []
    cur = vadd(xi, shift)
    for _ in range(FOLD_ITERATION_CAP):
        heights, top = reference_heights(alc, cur)
        i = next((i for i, h in enumerate(heights) if h < 0), None)
        if i is not None:
            cur = vsub(cur, vscale(heights[i], floors[i].coroot))
            word.append(floors[i])
        elif top > 1:
            cur = vsub(cur, vscale(top - 1, ceiling.coroot))
            word.append(ceiling)
        else:
            return cur, tuple(word), shift
    raise AssertionError("reference fold did not terminate")


def seeded_points(ctx, rng):
    """Kappa-fixed points: the alcove vertices, averages of 2 or more of them
    (edge and wall midpoints, interior points), and points at 1 to 10^6
    coweight units in every direction."""
    vertices = fundamental_alcove(ctx).vertices
    points = list(vertices)
    for _ in range(4):
        subset = rng.sample(vertices, rng.randint(2, len(vertices)))
        total = subset[0]
        for v in subset[1:]:
            total = vadd(total, v)
        points.append(vscale(Fraction(1, len(subset)), total))
    for scale in (1, 10, 10**6):
        xi = zero_vec(ctx.base.ambient_dim)
        for cw in fundamental_coweights(ctx.orbit.datum):
            c = Fraction(rng.randint(-97 * scale, 97 * scale), rng.randint(1, 29))
            xi = vadd(xi, vscale(c, cw))
        points.append(xi)
    return points


def unfixed_points(ctx, points, rng):
    """A random ambient vector of small entries and, for a nontrivial kappa,
    each of ``points`` plus a random non-zero vector that kappa averages to
    zero: that part is orthogonal to the fixed subspace, so a point on a wall
    stays on it."""
    dim = ctx.base.ambient_dim

    def draw():
        return tuple(Fraction(rng.randint(-9, 9), rng.randint(1, 7)) for _ in range(dim))

    out = [draw()]
    for xi in points if not ctx.kappa.is_identity else ():
        moving = zero_vec(dim)
        while not any(moving):
            v = draw()
            moving = vsub(v, ctx.project(v))
        out.append(vadd(xi, moving))
    return out


@settings(deadline=None, max_examples=40)
@given(case=st.sampled_from(REFERENCE_CASES), seed=st.integers(0, 2**32 - 1))
def test_integer_walls_match_fraction_pairings(case, seed):
    """The coroot-frame wall heights against Fraction pairings with the wall
    covectors, at kappa-fixed points, their folds, and points off the fixed
    subspace, which ``contains`` and ``stabilizer_datum`` accept too."""
    ctx = cached_ctx(case)
    orbit = ctx.orbit.datum
    alc = fundamental_alcove(ctx)
    rng = random.Random(seed)
    fixed = seeded_points(ctx, rng)
    assert all(ctx.kappa.apply(xi) == xi for xi in fixed)
    points = fixed + [fold_to_alcove(ctx, xi)[0] for xi in fixed]
    unfixed = unfixed_points(ctx, points, rng)
    if not ctx.kappa.is_identity:
        assert all(ctx.kappa.apply(xi) != xi for xi in unfixed[1:])
    for point in points + unfixed:
        floors, top = reference_heights(alc, point)
        inside = all(h >= 0 for h in floors) and top <= 1
        assert alc.contains(point) == inside
        if not inside:
            with pytest.raises(AlcoveError):
                stabilizer_datum(ctx, point)
            continue
        stab = stabilizer_datum(ctx, point)
        on_walls = tuple(a for a, h in zip(orbit.simple_roots, floors) if h == 0)
        if top == 1:
            on_walls += (vneg(orbit.highest_root),)
        assert stab.surviving == on_walls
        assert stab.includes_affine_node == (top == 1)


@settings(deadline=None, max_examples=40)
@given(case=st.sampled_from(REFERENCE_CASES), seed=st.integers(0, 2**32 - 1))
def test_fold_to_alcove_matches_fraction_walk(case, seed):
    ctx = cached_ctx(case)
    for xi in seeded_points(ctx, random.Random(seed)):
        folded, g = fold_to_alcove(ctx, xi)
        assert (folded, g.word, g.shift) == reference_fold(ctx, xi)


# ---------------------------------------------------------------------------
# the extended Cartan matrix against Fraction pairings of the alcove walls
# ---------------------------------------------------------------------------

# the nine foldings, the flips of A2, A7, A12 and D10, and identity folds with
# unequal root lengths
CARTAN_CASES = [(g, n) for g, n, *_ in FOLDINGS] + [
    ("A2", "flip"), ("A7", "flip"), ("A12", "flip"), ("D10", "flip"),
    ("B3", "id"), ("C4", "id"), ("F4", "id"), ("G2", "id"),
]


def reference_wall_cartan(alc, walls):
    """c_ij = <a_j, a_i^vee> over the given alcove walls, by Fraction pairings
    of each wall's covector with another wall's coroot.  The ceiling
    <theta, .> = 1 is the node -theta, so a pairing of it with another node
    changes sign."""
    ceiling = alc.walls[-1]
    signs = [-1 if w is ceiling else 1 for w in walls]
    return tuple(
        tuple(si * sj * vdot(wj.covector, wi.coroot) for sj, wj in zip(signs, walls))
        for si, wi in zip(signs, walls)
    )


def wall_points(alc, rng, count):
    """Points of random proper faces of the alcove: positive combinations of
    all but at least one of its vertices, on every wall that holds them."""
    points = []
    for _ in range(count):
        subset = rng.sample(alc.vertices, rng.randint(1, len(alc.vertices) - 1))
        weights = [rng.randint(1, 9) for _ in subset]
        total = zero_vec(len(subset[0]))
        for w, v in zip(weights, subset):
            total = vadd(total, vscale(w, v))
        points.append(vscale(Fraction(1, sum(weights)), total))
    return points


@pytest.mark.parametrize("case", CARTAN_CASES, ids="-".join)
def test_extended_cartan_matches_wall_pairings(case):
    """The orbit datum's extended Cartan matrix equals the walls' Fraction
    pairings, (comarks, 1) is a left null vector of it, and at every vertex
    and at random wall points its submatrix on the walls through the point is
    the reference matrix of the stabilizer, with the types it is read as."""
    ctx = cached_ctx(case)
    orbit = ctx.orbit.datum
    alc = fundamental_alcove(ctx)
    extended = orbit.extended_cartan
    assert extended == reference_wall_cartan(alc, alc.walls)
    null = orbit.comarks + (1,)
    assert all(sum(map(mul, null, col)) == 0 for col in zip(*extended))
    for xi in alc.vertices + tuple(wall_points(alc, random.Random(24), 20)):
        floors, top = reference_heights(alc, xi)
        nodes = [i for i, h in enumerate(floors + [top - 1]) if h == 0]
        assert nodes, "every face point lies on a wall"
        reference = reference_wall_cartan(alc, [alc.walls[i] for i in nodes])
        assert tuple(tuple(extended[i][j] for j in nodes) for i in nodes) == reference
        stab = stabilizer_datum(ctx, xi)
        dual = reference if ctx.kappa.is_identity else tuple(zip(*reference))
        assert (stab.subsystem_label, stab.dual_label) == (
            _classify_system(reference), _classify_system(dual)
        )
