import time
from fractions import Fraction

import pytest

from twinefold.checks import FOLDINGS
from twinefold.linalg import mat_mul, mat_vec, vadd, vscale
from twinefold.rootcore import build_root_datum, weyl_traverse
from twinefold.alcove import fundamental_alcove, stabilizer_datum
from twinefold.folding import (
    FoldingError,
    automorphism_by_name,
    coroot_lattice,
    fixed_intersection_group,
    fixed_subgroup_data,
    fold,
    list_automorphisms,
    special_roots,
)


def ctx_for(label, name="flip"):
    d = build_root_datum(label)
    return fold(d, automorphism_by_name(d, name))


# the nine foldings, A2 flip and every nontrivial automorphism of D4
PROJECTION_CASES = list(dict.fromkeys(
    [(g, n) for g, n, *_ in FOLDINGS] + [("A2", "flip")]
    + [("D4", n) for n in ("swap13", "swap14", "swap34", "rot", "rot2")]
))


def _expected_automorphism_count(label):
    if label == "D4":
        return 6
    if label[0] in "ADE" and label != "A1":
        return 2
    return 1


def test_automorphism_counts():
    labels = (
        [f"A{n}" for n in range(1, 13)] + [f"B{n}" for n in range(2, 9)]
        + [f"C{n}" for n in range(3, 9)] + [f"D{n}" for n in range(4, 11)]
        + ["E6", "F4", "G2"]
    )
    for label in labels:
        d = build_root_datum(label)
        autos = list_automorphisms(d)
        assert len(autos) == _expected_automorphism_count(label), label
        assert autos[0].permutation == tuple(range(d.rank))
        assert len({a.permutation for a in autos}) == len(autos)
        n = d.rank
        for a in autos:
            p = a.permutation
            assert all(
                d.cartan[p[i]][p[j]] == d.cartan[i][j] for i in range(n) for j in range(n)
            )


def test_automorphisms_of_a10_within_a_second():
    d = build_root_datum("A10")
    start = time.perf_counter()
    autos = list_automorphisms(d)
    assert time.perf_counter() - start < 1.0
    assert [a.name for a in autos] == ["id", "flip"]


def test_fold_a12_flip():
    ctx = ctx_for("A12")
    assert ctx.orbit.datum.type_label == "C6"
    assert ctx.folded.label == "BC6"


def test_automorphism_orders_and_names():
    autos = list_automorphisms(build_root_datum("D4"))
    orders = sorted(a.order for a in autos)
    assert orders == [1, 2, 2, 2, 3, 3]
    names = {a.name for a in autos}
    assert names == {"id", "swap13", "swap14", "swap34", "rot", "rot2"}
    a2 = build_root_datum("A2")
    assert automorphism_by_name(a2, "flip").permutation == (1, 0)
    with pytest.raises(FoldingError):
        automorphism_by_name(a2, "rot")


@pytest.mark.parametrize(
    "label,name,folded,orbit",
    [
        ("A3", "flip", "C2", "B2"),
        ("A4", "flip", "BC2", "C2"),
        ("A5", "flip", "C3", "B3"),
        ("A6", "flip", "BC3", "C3"),
        ("D5", "flip", "B4", "C4"),
        ("D6", "flip", "B5", "C5"),
        ("D4", "swap34", "B3", "C3"),
        ("D4", "rot", "G2", "G2"),
        ("E6", "flip", "F4", "F4"),
        ("A2", "flip", "A1+A1", "A1"),
    ],
)
def test_table_of_foldings(label, name, folded, orbit):
    ctx = ctx_for(label, name)
    assert ctx.folded.label == folded
    assert ctx.orbit.datum.type_label == orbit


def test_projection_a2():
    ctx = ctx_for("A2")
    a1 = ctx.base.simple_roots[0]
    assert ctx.project(a1) == vscale(Fraction(1, 2), vadd(a1, ctx.base.simple_roots[1]))


def test_projection_fixes_middle_node_a5():
    ctx = ctx_for("A5")
    a3 = ctx.base.simple_roots[2]
    assert ctx.project(a3) == a3


def test_projection_idempotent_and_selfadjoint():
    for label, name in PROJECTION_CASES:
        ctx = ctx_for(label, name)
        base = ctx.base
        for v in base.simple_roots + base.fundamental_weights + base.positive_roots:
            pv = ctx.project(v)
            assert ctx.project(pv) == pv
            assert ctx.apply_kappa(pv) == pv
        for u in base.simple_roots:
            for w in base.simple_roots:
                assert base.inner(ctx.project(u), w) == base.inner(u, ctx.project(w))


def _reference_projection(ctx):
    """(1/|kappa|) sum_{t=1}^{|kappa|} M^t with M the matrix e_i -> e_{perm(i)}."""
    n = ctx.base.ambient_dim
    m = [[Fraction(0)] * n for _ in range(n)]
    for i, j in enumerate(ctx.kappa.permutation):
        m[j][i] = Fraction(1)
    power = acc = tuple(map(tuple, m))
    for _ in range(ctx.kappa.order - 1):
        power = mat_mul(m, power)
        acc = tuple(tuple(x + y for x, y in zip(r, s)) for r, s in zip(acc, power))
    return tuple(tuple(x / ctx.kappa.order for x in row) for row in acc)


def test_projection_matches_matrix_average():
    for label, name in PROJECTION_CASES:
        ctx = ctx_for(label, name)
        p = _reference_projection(ctx)
        base = ctx.base
        for v in base.simple_roots + base.fundamental_weights + base.positive_roots:
            assert ctx.project(v) == mat_vec(p, v)


def test_a2_folded_and_orbit_vectors():
    ctx = ctx_for("A2")
    theta = ctx.base.highest_root
    half = vscale(Fraction(1, 2), theta)
    assert ctx.folded.roots == frozenset(
        [half, tuple(-e for e in half), theta, tuple(-e for e in theta)]
    )
    tl, ts = special_roots(ctx)
    assert tl == vscale(2, theta)
    assert ts == tl  # rank-1 orbit system


def test_special_roots_cases():
    ctx5 = ctx_for("A5")
    tl, ts = special_roots(ctx5)
    assert ts == ctx5.base.highest_root
    assert tl == vscale(2, ctx5.folded.datum.highest_short_root)

    ctx4 = ctx_for("A4")
    tl, ts = special_roots(ctx4)
    assert tl == vscale(2, ctx4.base.highest_root)
    # theta itself is not an orbit root here; the short dominant root is
    # beta1+beta2 of the realized C2 system
    assert ctx4.orbit.datum.is_dominant(ts)
    assert ctx4.orbit.datum.norm_sq(ts) == 4

    ctxd = ctx_for("D4", "rot")
    tl, ts = special_roots(ctxd)
    assert ts == ctxd.base.highest_root
    assert tl == vscale(3, ctxd.folded.datum.highest_short_root)


def test_rho_equality_everywhere():
    for label, name in [
        ("A3", "flip"), ("A4", "flip"), ("A5", "flip"), ("A6", "flip"),
        ("D5", "flip"), ("D6", "flip"), ("D4", "swap34"), ("D4", "rot"),
        ("E6", "flip"), ("A2", "flip"),
    ]:
        ctx = ctx_for(label, name)
        assert ctx.orbit.half_sum == ctx.base.weyl_vector


def test_fixed_intersection_groups():
    assert fixed_intersection_group(ctx_for("A3")).invariant_factors == (2,)
    assert fixed_intersection_group(ctx_for("A5")).invariant_factors == (2, 2)
    assert fixed_intersection_group(ctx_for("D4", "rot")).invariant_factors == (3,)
    assert fixed_intersection_group(ctx_for("E6")).invariant_factors == (2, 2)


def test_outer_weyl_order():
    ctx = ctx_for("A3")
    # orbit B2: |W| = 8; T^k cap T_k = Z2
    assert ctx.outer_weyl_order == 2 * 8
    orbit = ctx.orbit.datum
    assert ctx.orbit_weyl_order == sum(1 for _ in weyl_traverse(orbit, orbit.weyl_vector))


def test_index_two_quotients_a_even():
    for label in ("A4", "A6"):
        ctx = ctx_for(label)
        assert set(ctx.index_two_quotients.values()) == {2}
        assert len(ctx.index_two_quotients) == 4


def test_fixed_subgroup_data():
    t, pi1 = fixed_subgroup_data(ctx_for("A4"))
    assert t == "B2"
    assert pi1.invariant_factors == (2,)
    t, pi1 = fixed_subgroup_data(ctx_for("E6"))
    assert t == "F4"
    assert pi1.is_trivial
    t, pi1 = fixed_subgroup_data(ctx_for("A3"))
    assert t == "C2"
    assert pi1.is_trivial


def test_trivial_kappa_context():
    d = build_root_datum("A1")
    ctx = fold(d, automorphism_by_name(d, "id"))
    assert ctx.is_trivial
    assert ctx.folded.label == "A1"
    assert ctx.orbit.datum is d
    assert ctx.fixed_intersection.is_trivial
    assert ctx.outer_weyl_order == 2
    tl, ts = special_roots(ctx)
    assert tl == d.highest_root


def test_invalid_fold():
    b2 = build_root_datum("B2")
    flip = automorphism_by_name(build_root_datum("A2"), "flip")
    with pytest.raises(FoldingError):
        fold(b2, flip)


def test_fold_rejects_a_non_reduced_base():
    for label in ("BC1", "BC2"):
        bc = build_root_datum(label)
        with pytest.raises(FoldingError, match="not a reduced root system"):
            fold(bc, automorphism_by_name(bc, "id"))


def test_fold_needs_simple_root_coordinates():
    # an A3 realized inside the five-dimensional space of A5
    ctx = ctx_for("A5")
    sub = stabilizer_datum(ctx, fundamental_alcove(ctx).vertices[3]).subsystem
    assert sub.type_label == "A3" and sub.ambient_dim == 5
    with pytest.raises(FoldingError, match="simple roots as unit vectors"):
        fold(sub, automorphism_by_name(sub, "flip"))
    trivial = fold(sub, automorphism_by_name(sub, "id"))
    assert trivial.folded.label == "A3"
    assert len(trivial.kappa_fixed_roots()) == 2 * len(sub.positive_roots)
    assert all(trivial.project(a) == a for a in sub.positive_roots)


def test_kappa_fixed_roots_counts():
    # A3: theta and the middle simple root are fixed (plus negatives)
    ctx = ctx_for("A3")
    assert len(ctx.kappa_fixed_roots()) == 4
    # A2: only +-theta
    assert len(ctx_for("A2").kappa_fixed_roots()) == 2


def test_orbit_coroot_lattice_is_projected_integral():
    for label, name in [("A3", "flip"), ("A4", "flip"), ("D4", "rot"), ("E6", "flip")]:
        ctx = ctx_for(label, name)
        qov = ctx.orbit.coroot_lattice
        for b in coroot_lattice(ctx.base).basis:
            assert qov.contains(ctx.project(b))
