import dataclasses
import math
import time
from fractions import Fraction
from functools import lru_cache

import pytest
from hypothesis import given, settings, strategies as st

from twinefold.checks import FOLDINGS
from twinefold.linalg import (
    invariant_factors,
    mat_mul,
    mat_vec,
    scaled_rows,
    vadd,
    vscale,
    zero_vec,
)
from twinefold.rootcore import (
    RootDatum,
    RootSystemError,
    build_root_datum,
    lattice_eq,
    weyl_traverse,
)
from twinefold.alcove import fundamental_alcove, stabilizer_datum
from twinefold.folding import (
    DiagramAutomorphism,
    FoldingError,
    automorphism_by_name,
    fold,
    list_automorphisms,
    root_lattice,
    weight_lattice,
)

from fraction_reference import coords_in_basis, coroot_lattice, coweight_lattice, project


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


def _least_order(perm):
    """The least k >= 1 with perm^k = id, by composing with no bound."""
    identity = tuple(range(len(perm)))
    power, k = perm, 1
    while power != identity:
        power, k = tuple(perm[i] for i in power), k + 1
    return k


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
            assert a.order == _least_order(p), (label, a)


def test_order_is_derived_from_the_permutation():
    assert [f.name for f in dataclasses.fields(DiagramAutomorphism)] == ["permutation", "name"]
    labels = [f"A{n}" for n in range(2, 13)] + [f"D{n}" for n in range(4, 11)] + ["E6"]
    for label in labels:
        for a in list_automorphisms(build_root_datum(label)):
            # computed once and kept on the instance
            assert vars(a)["order"] == _least_order(a.permutation), (label, a)


def test_fold_with_a_constructed_automorphism():
    a3 = build_root_datum("A3")
    made = fold(a3, DiagramAutomorphism((2, 1, 0), "flip"))
    named = fold(a3, automorphism_by_name(a3, "flip"))
    assert made.kappa.order == 2
    types = (made.folded.label, made.orbit.datum.type_label)
    assert types == (named.folded.label, named.orbit.datum.type_label) == ("C2", "B2")
    assert made.lattices.keys() == named.lattices.keys()
    for key, lattice in named.lattices.items():
        assert lattice_eq(made.lattices[key], lattice), key
    assert made.fixed_intersection == named.fixed_intersection
    assert made.index_two_quotients == named.index_two_quotients == {}


@pytest.mark.parametrize(
    "perm,message",
    [
        ((1, 0, 2), "^permutation does not preserve the Cartan matrix$"),
        ((0, 2, 1), "^permutation does not preserve the Cartan matrix$"),
        ((0, 0, 0), r"^\(0, 0, 0\) is not a permutation of the nodes$"),
        ((3, 1, 0), r"^\(3, 1, 0\) is not a permutation of the nodes$"),
        ((1, 0), "^automorphism rank mismatch$"),
    ],
    ids=["swap01", "swap12", "repeated", "out-of-range", "short"],
)
def test_fold_rejects_a_permutation_that_is_no_automorphism(perm, message):
    with pytest.raises(FoldingError, match=message):
        fold(build_root_datum("A3"), DiagramAutomorphism(perm, "flip"))


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


def test_automorphisms_of_seven_orthogonal_a1():
    # the order of a 3-cycle times a 4-cycle, 12, exceeds the rank plus one
    n = 7
    units = tuple(tuple(int(i == j) for j in range(n)) for i in range(n))
    d = RootDatum(None, (1, units), (1, tuple(tuple(2 * x for x in row) for row in units)))
    assert d.type_label == "+".join(["A1"] * n)
    autos = list_automorphisms(d)
    assert len(autos) == math.factorial(n)
    assert max(a.order for a in autos) == 12
    for a in autos:
        assert a.order == _least_order(a.permutation), a
    assert autos[0].permutation == tuple(range(n))


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
        ("A2", "flip", "BC1", "A1"),
    ],
)
def test_table_of_foldings(label, name, folded, orbit):
    ctx = ctx_for(label, name)
    assert ctx.folded.label == folded
    assert ctx.orbit.datum.type_label == orbit


def test_projection_a2():
    ctx = ctx_for("A2")
    a1 = ctx.base.simple_roots[0]
    assert project(ctx, a1) == vscale(Fraction(1, 2), vadd(a1, ctx.base.simple_roots[1]))


def test_projection_fixes_middle_node_a5():
    ctx = ctx_for("A5")
    a3 = ctx.base.simple_roots[2]
    assert project(ctx, a3) == a3


def test_projection_idempotent_and_selfadjoint():
    for label, name in PROJECTION_CASES:
        ctx = ctx_for(label, name)
        base = ctx.base
        for v in base.simple_roots + base.fundamental_weights + base.positive_roots:
            pv = project(ctx, v)
            assert project(ctx, pv) == pv
            assert ctx.kappa.apply(pv) == pv
        for u in base.simple_roots:
            for w in base.simple_roots:
                assert base.inner(project(ctx, u), w) == base.inner(u, project(ctx, w))


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
            assert project(ctx, v) == mat_vec(p, v)


def test_a2_folded_and_orbit_vectors():
    ctx = ctx_for("A2")
    theta = ctx.base.highest_root
    half = vscale(Fraction(1, 2), theta)
    assert ctx.folded.roots == frozenset(
        [half, tuple(-e for e in half), theta, tuple(-e for e in theta)]
    )
    tl, ts = ctx.orbit.datum.highest_root, ctx.orbit.datum.highest_short_root
    assert tl == vscale(2, theta)
    assert ts == tl  # rank-1 orbit system


def test_special_roots_cases():
    ctx5 = ctx_for("A5")
    tl, ts = ctx5.orbit.datum.highest_root, ctx5.orbit.datum.highest_short_root
    assert ts == ctx5.base.highest_root
    assert tl == vscale(2, ctx5.folded.datum.highest_short_root)

    ctx4 = ctx_for("A4")
    tl, ts = ctx4.orbit.datum.highest_root, ctx4.orbit.datum.highest_short_root
    assert tl == vscale(2, ctx4.base.highest_root)
    # theta itself is not an orbit root here; the short dominant root is
    # beta1+beta2 of the realized C2 system
    assert min(ctx4.orbit.datum.labels_of(ts)) >= 0
    assert ctx4.orbit.datum.norm_sq(ts) == 4

    ctxd = ctx_for("D4", "rot")
    tl, ts = ctxd.orbit.datum.highest_root, ctxd.orbit.datum.highest_short_root
    assert ts == ctxd.base.highest_root
    assert tl == vscale(3, ctxd.folded.datum.highest_short_root)


def test_rho_equality_everywhere():
    for label, name in [
        ("A3", "flip"), ("A4", "flip"), ("A5", "flip"), ("A6", "flip"),
        ("D5", "flip"), ("D6", "flip"), ("D4", "swap34"), ("D4", "rot"),
        ("E6", "flip"), ("A2", "flip"),
    ]:
        ctx = ctx_for(label, name)
        assert ctx.orbit.datum.weyl_vector == ctx.base.weyl_vector


def test_fixed_intersection_groups():
    assert ctx_for("A3").fixed_intersection.invariant_factors == (2,)
    assert ctx_for("A5").fixed_intersection.invariant_factors == (2, 2)
    assert ctx_for("D4", "rot").fixed_intersection.invariant_factors == (3,)
    assert ctx_for("E6").fixed_intersection.invariant_factors == (2, 2)


def test_outer_weyl_order():
    ctx = ctx_for("A3")
    # orbit B2: |W| = 8; T^k cap T_k = Z2
    assert ctx.outer_weyl_order == 2 * 8
    orbit = ctx.orbit.datum
    assert orbit.weyl_order == sum(1 for _ in weyl_traverse(orbit, orbit.labels_of(orbit.weyl_vector)))


def test_index_two_quotients_a_even():
    for label in ("A4", "A6"):
        ctx = ctx_for(label)
        assert set(ctx.index_two_quotients.values()) == {2}
        assert len(ctx.index_two_quotients) == 4


def origin_stabilizer(ctx):
    """The fixed subgroup G^kappa: the twisted stabilizer of the origin."""
    return stabilizer_datum(ctx, zero_vec(ctx.base.ambient_dim))


def test_fixed_subgroup_is_the_origin_stabilizer():
    stab = origin_stabilizer(ctx_for("A4"))
    assert stab.dual_label == "B2"
    assert stab.pi1.invariant_factors == (2,)
    stab = origin_stabilizer(ctx_for("E6"))
    assert stab.dual_label == "F4"
    assert stab.pi1.is_trivial
    # B2 = C2: the classification names this shape B2
    stab = origin_stabilizer(ctx_for("A3"))
    assert stab.dual_label == "B2"
    assert stab.pi1.is_trivial


def test_trivial_kappa_context():
    d = build_root_datum("A1")
    ctx = fold(d, automorphism_by_name(d, "id"))
    assert ctx.kappa.is_identity
    assert ctx.folded.label == "A1"
    assert ctx.orbit.datum is d
    assert ctx.fixed_intersection.is_trivial
    assert ctx.outer_weyl_order == 2
    assert ctx.orbit.datum.highest_root == d.highest_root


def a3_inside_a5():
    """An A3 realized inside the five-dimensional space of A5."""
    ctx = ctx_for("A5")
    stab = stabilizer_datum(ctx, fundamental_alcove(ctx).vertices[3])
    return RootDatum(None, scaled_rows(stab.surviving), ctx.base.gram_rows)


@pytest.mark.parametrize("label", ["A1", "A2", "B3", "C4", "G2", "F4", "E6", "A3-in-A5"])
def test_identity_fold_lattices_are_the_base_lattices(label):
    base = a3_inside_a5() if label == "A3-in-A5" else build_root_datum(label)
    ctx = fold(base, automorphism_by_name(base, "id"))
    q, qv = root_lattice(base), coroot_lattice(base)
    p, pv = weight_lattice(base), coweight_lattice(base)
    # reference: every lattice of an identity fold is one of the four base lattices
    expected = {
        "QF": q, "QFv": qv, "PF": p, "PFv": pv,
        "QO": q, "QOv": qv, "PO": p, "POv": pv,
        "fixed_integral": qv, "p_integral": qv, "p_root": q,
        "p_weight": p, "fixed_weight": p,
        "fixed_root": q, "p_coweight": pv, "fixed_coweight": pv,
    }
    assert ctx.lattices.keys() == expected.keys()
    for key, lat in expected.items():
        assert lattice_eq(ctx.lattices[key], lat), key
    assert ctx.index_two_quotients == {}
    assert ctx.fixed_intersection.is_trivial
    assert ctx.orbit.datum is base and ctx.folded.datum is base
    stab = origin_stabilizer(ctx)
    assert stab.dual_label == base.type_label and stab.pi1.is_trivial


def test_invalid_fold():
    b2 = build_root_datum("B2")
    flip = automorphism_by_name(build_root_datum("A2"), "flip")
    with pytest.raises(FoldingError):
        fold(b2, flip)


def test_fold_needs_simple_root_coordinates():
    sub = a3_inside_a5()
    assert sub.type_label == "A3" and sub.ambient_dim == 5
    with pytest.raises(FoldingError, match="simple roots as unit vectors"):
        fold(sub, automorphism_by_name(sub, "flip"))
    trivial = fold(sub, automorphism_by_name(sub, "id"))
    assert trivial.folded.label == "A3"
    assert len(trivial.kappa_fixed_roots()) == 2 * len(sub.positive_roots)
    assert all(project(trivial, a) == a for a in sub.positive_roots)


@pytest.mark.parametrize("group,nodes,label,swap", [
    ("D4", (0, 2), "A1+A1", (1, 0)),
    ("A5", (0, 1, 3, 4), "A2+A2", (2, 3, 0, 1)),
])
def test_fold_refuses_a_reducible_base(group, nodes, label, swap):
    """A reducible base is refused under the identity and under the swap of
    its two components, before any of its data is read."""
    d = build_root_datum(group)
    sub = RootDatum(None, scaled_rows([d.simple_roots[i] for i in nodes]), d.gram_rows)
    assert sub.type_label == label and sub.marks is None
    for kappa in (DiagramAutomorphism(tuple(range(len(nodes))), "id"),
                  DiagramAutomorphism(swap, "swap")):
        with pytest.raises(FoldingError) as info:
            fold(sub, kappa)
        assert str(info.value) == f"the base must be simple, not of type {label}"


def test_only_a_d_and_e6_have_nontrivial_automorphisms():
    """Every supported type of rank at most 8 with a non-identity
    automorphism is A_n (n >= 2), D_n (n >= 4) or E6, so a twisted fold needs
    no family check."""
    twisted = set()
    for family, ranks in [("A", range(1, 9)), ("B", range(2, 9)), ("C", range(2, 9)),
                          ("D", range(4, 9)), ("E", [6]), ("F", [4]), ("G", [2])]:
        for n in ranks:
            d = build_root_datum(f"{family}{n}")
            if any(not a.is_identity for a in list_automorphisms(d)):
                twisted.add(d.type_label)
    assert twisted == {f"A{n}" for n in range(2, 9)} | {f"D{n}" for n in range(4, 9)} | {"E6"}


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
            assert qov.contains(project(ctx, b))


def _doubled(rows):
    """(den, rows) with every row doubled."""
    den, rows = rows
    return den, [tuple(2 * x for x in row) for row in rows]


def _corrupted(label, name, monkeypatch):
    """A built context whose ``_projected_rows`` now returns doubled rows, so
    the systems realized from the projected simple roots keep their type but
    not their roots."""
    ctx = ctx_for(label, name)
    real = ctx._projected_rows
    monkeypatch.setattr(ctx, "_projected_rows", lambda family: _doubled(real(family)))
    return ctx


@pytest.mark.parametrize("label", ["A4", "A6"])
def test_projected_root_identity_raises(label, monkeypatch):
    # doubled projections of the simple roots give B and C subsystems twice
    # the size of the projected base roots
    ctx = _corrupted(label, "flip", monkeypatch)
    with pytest.raises(FoldingError, match="^projected roots do not form the BC.* system$"):
        ctx._build_twisted()


@pytest.mark.parametrize("label,name", [("A3", "flip"), ("D4", "rot"), ("E6", "flip")])
def test_dual_identity_raises(label, name, monkeypatch):
    # a doubled folded system has halved coroots, which are no orbit roots
    ctx = _corrupted(label, name, monkeypatch)
    with pytest.raises(FoldingError, match="^orbit system is not the dual of the folded one$"):
        ctx._build_twisted()


@pytest.mark.parametrize("label,name", [("A3", "flip"), ("A4", "flip"), ("D4", "rot")])
def test_orbit_root_set_identity_raises(label, name, monkeypatch):
    # the orbit datum is the last one _build_twisted realizes; doubled simple
    # roots keep its type but not its roots
    ctx = ctx_for(label, name)
    real, labels = ctx._realize, []
    monkeypatch.setattr(ctx, "_realize", lambda lbl, roots: labels.append(lbl) or real(lbl, roots))
    ctx._build_twisted()
    calls = iter(range(1, len(labels) + 1))

    def realize(lbl, roots):
        if next(calls) == len(labels):
            roots = _doubled(roots)
        return real(lbl, roots)

    monkeypatch.setattr(ctx, "_realize", realize)
    with pytest.raises(FoldingError, match="^orbit root set mismatch$"):
        ctx._build_twisted()


# the nine foldings, A2, A12 and D10 flip, two more D4 automorphisms and
# identity folds with roots of several lengths
REFERENCE_CASES = list(dict.fromkeys(
    [(g, n) for g, n, *_ in FOLDINGS]
    + [("A2", "flip"), ("A12", "flip"), ("D10", "flip"), ("D4", "rot2"), ("D4", "swap13")]
    + [(g, "id") for g in ("B3", "C4", "F4", "G2", "E6")]
))


def _fraction_families(datum):
    """Simple roots, coroots 2 a / (a, a), fundamental weights and coweights
    (2 / (a_i, a_i)) omega_i of a datum, by the bilinear form in Fractions."""
    weights = datum.fundamental_weights
    return (
        datum.simple_roots,
        tuple(datum.coroot(a) for a in datum.simple_roots),
        weights,
        tuple(vscale(2 / datum.norm_sq(a), w) for a, w in zip(datum.simple_roots, weights)),
    )


def _reference_bases(ctx):
    """Every lattice basis of a context by the Fraction formulas: orbit sums
    and projections of the base families, and the families of the folded
    (for A_2n its B subsystem) and orbit data."""
    def orbit_sums(vectors):
        out = []
        for orb in ctx.node_orbits:
            acc = vectors[orb[0]]
            for i in orb[1:]:
                acc = vadd(acc, vectors[i])
            out.append(acc)
        return tuple(out)

    def projections(vectors):
        return tuple(project(ctx, vectors[orb[0]]) for orb in ctx.node_orbits)

    folded = ctx.folded.datum if ctx.folded.datum is not None else ctx.folded.b_subsystem
    roots, coroots, weights, coweights = _fraction_families(ctx.base)
    out = {
        "fixed_integral": orbit_sums(coroots), "fixed_root": orbit_sums(roots),
        "fixed_weight": orbit_sums(weights), "fixed_coweight": orbit_sums(coweights),
        "p_integral": projections(coroots), "p_root": projections(roots),
        "p_weight": projections(weights), "p_coweight": projections(coweights),
    }
    for tag, datum in (("F", folded), ("O", ctx.orbit.datum)):
        q, qv, p, pv = _fraction_families(datum)
        out |= {f"Q{tag}": q, f"Q{tag}v": qv, f"P{tag}": p, f"P{tag}v": pv}
    return out


def _reference_quotient(sub, sup):
    """Invariant factors above 1 of span(sup) / span(sub), from the rational
    coordinates of sub's vectors in sup's."""
    rows = [coords_in_basis(sup, b) for b in sub]
    assert all(x.denominator == 1 for c in rows for x in c)
    return tuple(d for d in invariant_factors([[int(x) for x in c] for c in rows]) if d != 1)


@pytest.mark.parametrize("label,name", REFERENCE_CASES)
def test_lattices_match_fraction_reference(label, name):
    ctx = ctx_for(label, name)
    ref = _reference_bases(ctx)
    assert ctx.lattices.keys() == ref.keys()
    for key, basis in ref.items():
        assert ctx.lattices[key].basis == basis, key
        assert ctx.lattices[key].ambient_dim == ctx.base.ambient_dim
    assert ctx.fixed_intersection.invariant_factors == _reference_quotient(
        ref["fixed_integral"], ref["p_integral"]
    )
    quotients = {}
    if ctx._is_a_even:
        pairs = {
            "Lambda^k / Q_Bv": ("QFv", "fixed_integral"),
            "P_B / p(Lambda*)": ("p_weight", "PF"),
            "POv / p(P^v)": ("p_coweight", "POv"),
            "Q^k / QO": ("QO", "fixed_root"),
        }
        quotients = {
            q: math.prod(_reference_quotient(ref[a], ref[b])) for q, (a, b) in pairs.items()
        }
    assert ctx.index_two_quotients == quotients


def _fold_with(monkeypatch, label, name, family, rows_of):
    """Fold a base whose integer ``family`` (den, rows) is replaced by
    (den', rows') = rows_of(den, rows)."""
    base = build_root_datum(label)
    perturbed = rows_of(*getattr(base, family)())
    monkeypatch.setattr(base, family, lambda: perturbed)
    return fold(base, automorphism_by_name(base, name))


@pytest.mark.parametrize("label,name", [("A3", "flip"), ("D4", "rot"), ("E6", "flip")])
def test_lattice_identity_check_is_live(label, name, monkeypatch):
    # a doubled coweight row changes the orbit sum (P^v)^k, but not the
    # folded system's coweights PFv
    def double_first(den, rows):
        return den, (tuple(2 * x for x in rows[0]),) + rows[1:]

    with pytest.raises(FoldingError, match=r"^lattice identity failed: PFv = \(P\^v\)\^k$"):
        _fold_with(monkeypatch, label, name, "coweight_rows", double_first)


def _shift_within_orbit(den, rows):
    """Row 0 doubled and taken off the last row: where node 0 and the last
    node form an orbit, every orbit sum is kept, but p of row 0 doubles."""
    first, last = rows[0], rows[-1]
    return den, (
        (tuple(2 * x for x in first),)
        + rows[1:-1]
        + (tuple(y - x for x, y in zip(first, last)),)
    )


@pytest.mark.parametrize("label", ["A4", "A6"])
def test_index_two_quotient_check_is_live(label, monkeypatch):
    # node 0 and the last node form an orbit of the reversal, so (P^v)^k
    # holds, but p(P^v) then has index 4 in POv
    with pytest.raises(FoldingError, match=r"^lattice identity failed: p\(P\^v\) in POv$"):
        _fold_with(monkeypatch, label, "flip", "coweight_rows", _shift_within_orbit)


@pytest.mark.parametrize("label", ["A3", "A5", "E6"])
def test_index_two_pair_equality_check_is_live(label, monkeypatch):
    # away from A_2n the same perturbation keeps the four identities of every
    # folding, (P^v)^k among them, but moves p(P^v) off POv
    with pytest.raises(FoldingError, match=r"^lattice identity failed: POv = p\(P\^v\)$"):
        _fold_with(monkeypatch, label, "flip", "coweight_rows", _shift_within_orbit)


def test_fixed_intersection_check_is_live(monkeypatch):
    # A4 flip, coroots c_0..c_3, node orbits (0, 3) and (1, 2).  Keeping rows 0
    # and 1 (so p(Lambda) = QOv still holds) but moving the orbit sums to
    # (c_0 + c_3) / 2 and 2 (c_1 + c_2) gives a Lambda^k that still contains
    # Q_Bv = <c_0 + c_3, 2 (c_1 + c_2)> with index 2, and p(Lambda) / Lambda^k
    # becomes Z/4 instead of (Z/2)^2
    def move_orbit_sums(den, rows):
        r0, r1, r2, r3 = rows
        return 2 * den, (
            tuple(2 * x for x in r0),
            tuple(2 * x for x in r1),
            tuple(2 * x + 4 * y for x, y in zip(r1, r2)),
            tuple(y - x for x, y in zip(r0, r3)),
        )

    with pytest.raises(
        FoldingError, match=r"^T\^k cap T_k has unexpected invariant factors \(4,\)$"
    ):
        _fold_with(monkeypatch, "A4", "flip", "coroot_rows", move_orbit_sums)


# the weight map between base and orbit labels: the nine foldings, A2, A7,
# A12 and D10 flip, and the identity folds of B3, C4, F4, G2 and E6
MAP_CASES = [(g, n) for g, n, *_ in FOLDINGS] + [
    ("A2", "flip"), ("A7", "flip"), ("A12", "flip"), ("D10", "flip"),
    ("B3", "id"), ("C4", "id"), ("F4", "id"), ("G2", "id"), ("E6", "id"),
]

map_context = lru_cache(maxsize=None)(ctx_for)


@pytest.mark.parametrize("label,name", MAP_CASES)
@settings(deadline=None, max_examples=20)
@given(data=st.data())
def test_base_labels_are_the_fraction_pairings(label, name, data):
    """base_labels(m) pairs the orbit weight with labels m with the base
    coroots, for rational m; orbit_labels inverts it on dominant integral m."""
    ctx = map_context(label, name)
    rank = ctx.orbit.datum.rank
    rational = st.fractions(min_value=-6, max_value=6, max_denominator=12)
    m = data.draw(st.tuples(*[rational] * rank))
    assert ctx.base_labels(m) == ctx.base.pairings(ctx.orbit.datum.from_labels(m))
    dominant = data.draw(st.tuples(*[st.integers(0, 5)] * rank))
    assert ctx.orbit_labels(ctx.base_labels(dominant)) == dominant


@pytest.mark.parametrize("label,name", MAP_CASES)
def test_base_labels_of_orbit_roots(label, name):
    """The orbit Cartan columns and theta's labels, in base labels, are the
    Fraction pairings of the orbit simple roots and highest root."""
    ctx = map_context(label, name)
    orbit = ctx.orbit.datum
    assert [ctx.base_labels(col) for col in zip(*orbit.cartan)] == [
        ctx.base.pairings(a) for a in orbit.simple_roots
    ]
    assert ctx.base_labels(orbit.theta_labels) == ctx.base.pairings(orbit.highest_root)


@pytest.mark.parametrize("labels,message", [
    ((1, 0, 0), "not kappa-fixed"),
    ((-1, 0, 0), "not kappa-fixed"),  # the kappa test comes first
    ((Fraction(1, 2), 0, Fraction(1, 2)), "not dominant integral for the base"),
    ((-1, 0, -1), "not dominant integral for the base"),
])
def test_orbit_labels_rejects_inadmissible_weights(labels, message):
    with pytest.raises(RootSystemError, match=message):
        map_context("A3", "flip").orbit_labels(labels)
