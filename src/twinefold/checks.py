"""The acceptance criteria: one ordered registry of the headline identities.

``twinefold verify`` and ``tests/test_acceptance.py`` both run it.  Each
criterion belongs to one ``verify`` suite and yields one row per folding or
case, ``(label, ok, observed, expected)`` with JSON-ready values; ``run`` adds
the ``error`` of a row that raised.

Tolerances: exact arithmetic unless stated; 1e-12 for the alcove length float
check; 1e-9 relative for numeric character evaluation; 1e-6 for Verlinde
integrality residuals (enforced inside the fusion routines).  The seed of
criterion 07's points, ``QUOTIENT_SEED``, is part of the criterion.
"""

from __future__ import annotations

import itertools
import math
import random
from fractions import Fraction
from functools import lru_cache, partial
from typing import Callable, Iterable, Iterator, NamedTuple

from .linalg import Vec, vadd, vscale, zero_vec
from .rootcore import build_root_datum, cartan_isomorphisms, is_sublattice, lattice_eq
from .folding import FoldingContext, automorphism_by_name, fold, fundamental_coweights
from .twining import (TorusPoint, adjoint_oracle, inner_product, is_regular, jantzen_eval,
                      twining_character)
from .alcove import fundamental_alcove, stabilizer_datum
from .fusion import dual_coxeter_number, fusion_table

# (group, automorphism, folded type, orbit type): the folding classification
FOLDINGS = [
    ("A3", "flip", "C2", "B2"), ("A4", "flip", "BC2", "C2"), ("A5", "flip", "C3", "B3"),
    ("A6", "flip", "BC3", "C3"), ("D5", "flip", "B4", "C4"), ("D6", "flip", "B5", "C5"),
    ("D4", "swap34", "B3", "C3"), ("D4", "rot", "G2", "G2"), ("E6", "flip", "F4", "F4"),
]

QUOTIENT_SEED = 20260823
QUOTIENT_POINTS = 20
REL_TOL = 1e-9
LENGTH_TOL = 1e-12

Outcome = tuple[bool, object, object]
Rows = Iterable[tuple[str, Callable[[], Outcome]]]


class Row(NamedTuple):
    label: str
    ok: bool
    observed: object
    expected: object
    error: str | None = None


class Criterion(NamedTuple):
    name: str
    suite: str
    rows: Callable[[], Rows]


@lru_cache(maxsize=None)
def context(group: str, automorphism: str) -> FoldingContext:
    """The folding context of every row; built once per process."""
    datum = build_root_datum(group)
    return fold(datum, automorphism_by_name(datum, automorphism))


def run(rows: Rows) -> Iterator[Row]:
    """Evaluate rows in order; an exception fails its row and is named."""
    for label, row in rows:
        try:
            yield Row(label, *row())
        except Exception as exc:
            yield Row(label, False, None, None, f"{type(exc).__name__}: {exc}")


def _cases(row, cases, label="{} {}") -> Rows:
    """One row per case: ``row(*case)``, labelled ``label.format(*case)``."""
    for case in cases:
        yield label.format(*case), partial(row, *case)


def _same(observed, expected) -> Outcome:
    return observed == expected, observed, expected


def _num(q: Fraction) -> int | str:
    return int(q) if q.denominator == 1 else str(q)


def _q(v: Vec) -> list[str]:
    return [str(c) for c in v]


# tables: 01-02


def _folded_types(group, name, folded, orbit) -> Outcome:
    ctx = context(group, name)
    return _same([ctx.folded.label, ctx.orbit.datum.type_label], [folded, orbit])


def _half_sum(group, name, *_) -> Outcome:
    ctx = context(group, name)
    half = zero_vec(ctx.base.ambient_dim)
    for a in ctx.orbit.datum.positive_roots:
        half = vadd(half, a)
    return _same(_q(vscale(Fraction(1, 2), half)), _q(ctx.base.weyl_vector))


# lattices: 03-04

_INCLUSIONS = [("QF", "PF"), ("QFv", "PFv"), ("QO", "PO"), ("QOv", "POv")]
# equalities that hold for every folding
_IDENTITIES = [("QF", "p_root"), ("PFv", "fixed_coweight"), ("QOv", "p_integral"),
               ("PO", "fixed_weight")]
# and those that hold for every folding but A_2n (which has index-2 quotients)
_EQUALITIES = [("QFv", "fixed_integral"), ("PF", "p_weight"), ("QO", "fixed_root"),
               ("POv", "p_coweight")]


def _lattices(group, name, *_) -> Outcome:
    ctx = context(group, name)
    lat = ctx.lattices
    observed = {f"{a} <= {b}": is_sublattice(lat[a], lat[b]) for a, b in _INCLUSIONS}
    equalities = _IDENTITIES + ([] if ctx._is_a_even else _EQUALITIES)
    observed |= {f"{a} == {b}": lattice_eq(lat[a], lat[b]) for a, b in equalities}
    expected = dict.fromkeys(observed, True)
    if ctx._is_a_even:
        observed["index-2 quotients"] = sorted(ctx.index_two_quotients.values())
        expected["index-2 quotients"] = [2] * 4
    return _same(observed, expected)


def _finite_groups(group, name, *_) -> Outcome:
    ctx = context(group, name)
    fixed = ctx.fixed_intersection
    factors = [3] if ctx.kappa.order == 3 else [2] * ctx.moving_dim
    return _same([list(fixed.invariant_factors), ctx.outer_weyl_order],
                 [factors, fixed.order * ctx.orbit.datum.weyl_order])


# characters: 05-08


def _alcove_segment(group, name) -> Outcome:
    ctx = context(group, name)
    vertices = fundamental_alcove(ctx).vertices
    length = math.sqrt(float(ctx.base.norm_sq(vertices[1])))
    want = [_q(zero_vec(2)), _q(vscale(Fraction(1, 4), ctx.base.highest_root))]
    observed = {"vertices": [_q(v) for v in vertices], "length": length}
    ok = observed["vertices"] == want and abs(length - math.sqrt(2) / 4) < LENGTH_TOL
    return ok, observed, {"vertices": want, "length": f"sqrt(2)/4 within {LENGTH_TOL}"}


def _stabilizer(group, name, dual, pi1) -> Outcome:
    ctx = context(group, name)
    stab = stabilizer_datum(ctx, zero_vec(ctx.base.ambient_dim))
    return _same([stab.dual_label, list(stab.pi1.invariant_factors)], [dual, pi1])


def _oracle(rng: random.Random, group, name, *_) -> Outcome:
    """Worst relative error of the quotient formula and the adjoint oracle."""
    ctx = context(group, name)
    theta = ctx.base.highest_root
    chi = twining_character(ctx, theta)
    cws = fundamental_coweights(ctx.orbit.datum)
    errors = []
    points = 0
    while points < QUOTIENT_POINTS:
        xi = zero_vec(ctx.base.ambient_dim)
        for cw in cws:
            c = Fraction(rng.randint(1, 400), rng.randint(401, 997))
            xi = vadd(xi, vscale(c, cw))
        pt = TorusPoint(xi)
        if not is_regular(ctx, pt):
            continue
        points += 1
        poly_value = chi.eval(ctx, pt)
        scale = max(1.0, abs(poly_value))
        for other in (jantzen_eval(ctx, theta, pt), adjoint_oracle(ctx, pt)):
            errors.append(abs(poly_value - other) / scale)
    return all(e <= REL_TOL for e in errors), max(errors), f"<= {REL_TOL}"


def quotient_formula_rows(rng: random.Random | None = None) -> Rows:
    """Criterion 07: the nine foldings, then A2 flip, all drawn from one rng."""
    rng = rng or random.Random(QUOTIENT_SEED)
    return _cases(partial(_oracle, rng), FOLDINGS + [("A2", "flip")])


def fixed_dominant_weights(ctx: FoldingContext, height: int) -> list[Vec]:
    """The kappa-fixed dominant weights whose Dynkin labels sum to <= height."""
    return sorted(
        ctx.base.from_labels(labels)
        for m in itertools.product(range(height + 1), repeat=ctx.fixed_dim)
        if sum(labels := ctx.base_labels(m)) <= height
    )


def _orthogonality(group, name, height) -> Outcome:
    ctx = context(group, name)
    polys = [twining_character(ctx, lam).poly for lam in fixed_dominant_weights(ctx, height)]
    gram = [[_num(inner_product(ctx, f, g)) for g in polys] for f in polys]
    return _same(gram, [[int(i == j) for j in range(len(polys))] for i in range(len(polys))])


# fusion: 09-12


def _unit_axiom(group, name, k) -> Outcome:
    ctx = context(group, name)
    # fusion_table raises on any route disagreement or residual > 1e-6
    table = fusion_table(ctx, k)
    zero = zero_vec(ctx.base.ambient_dim)
    weights = table.level.level_weights
    return _same([[table.get(zero, mu, nu) for nu in weights] for mu in weights],
                 [[int(mu == nu) for nu in weights] for mu in weights])


def _indexed_table(table) -> list[list[int]]:
    return sorted([l, m, n, v] for (l, m, n), v in table.coefficients.items())


def _rank_one_table(k) -> Outcome:
    """[level-weight counts, coefficients] of A2 flip against those of A1."""
    folded, standalone = (fusion_table(context(*g), k) for g in [("A2", "flip"), ("A1", "id")])
    sizes = [len(folded.level.level_weights), len(standalone.level.level_weights)]
    return _same([sizes, _indexed_table(folded)], [[k + 1, k + 1], _indexed_table(standalone)])


def _dual_coxeter(group, name, h) -> Outcome:
    # dual_coxeter_number sums the comarks <omega_i, theta^vee>; the
    # independent side pairs rho, the half-sum of the positive roots, with
    # theta^vee.  The rank-2 orbit of the A3 folding gives 3 (B2 and C2 both do)
    ctx = context(group, name)
    orbit = ctx.orbit.datum
    alt = 1 + ctx.base.inner(orbit.weyl_vector, orbit.coroot(orbit.highest_root))
    return _same([dual_coxeter_number(ctx), _num(alt)], [h, h])


def _orbit_group_table(group, name, orbit_type, k) -> Outcome:
    """[h^vee, number of nonzero coefficients, those missing from the other
    table] of the twisted level-k table and of the orbit type's own.

    A coefficient is [lam, mu, nu, N] with each weight named by the orbit
    type's labels: orbit labels m become (m[p[0]], ..., m[p[r-1]]), p the
    first node map from the orbit Cartan matrix to the orbit type's (the
    inverse map fails on E6 flip).  Twining characters are the orbit datum's
    by construction, so this checks the level data built from the base
    (rescaling, s-points, |T|, comarks) and the node identification.
    """
    ctx, standalone = context(group, name), context(orbit_type, "id")
    p = next(cartan_isomorphisms(ctx.orbit.datum.cartan, standalone.base.cartan))

    def nonzero(c, relabel) -> set:
        table = fusion_table(c, k)
        names = [relabel(m) for m in table.level.labels]
        return {(names[l], names[m], names[n], v)
                for (l, m, n), v in table.coefficients.items() if v}

    twisted = nonzero(ctx, lambda m: tuple(m[i] for i in p))
    own = nonzero(standalone, tuple)
    return _same(
        [dual_coxeter_number(ctx), len(twisted), [list(e) for e in sorted(twisted - own)]],
        [dual_coxeter_number(standalone), len(own), [list(e) for e in sorted(own - twisted)]],
    )


# the registry, in order; each row function is looked up when its criterion runs

_LEVELS = [("A2", "flip", k) for k in (1, 2, 3, 4)] + [
    ("A3", "flip", 1), ("A3", "flip", 2), ("D4", "rot", 1), ("D4", "rot", 2)
]
# the nine foldings and A2 flip, whose orbit type is A1, at levels 1 and 2
_ORBIT_GROUP_LEVELS = [
    (g, a, orbit, k) for g, a, *_, orbit in FOLDINGS + [("A2", "flip", "A1")] for k in (1, 2)
]

CRITERIA = [
    Criterion("01 folding table", "tables", lambda: _cases(_folded_types, FOLDINGS)),
    Criterion("02 half sum equality", "tables", lambda: _cases(_half_sum, FOLDINGS)),
    Criterion("03 lattice suite", "lattices", lambda: _cases(_lattices, FOLDINGS)),
    Criterion("04 finite groups", "lattices", lambda: _cases(_finite_groups, FOLDINGS)),
    Criterion("05 alcove segment", "characters",
              lambda: _cases(_alcove_segment, [("A2", "flip")])),
    Criterion("06 stabilizer rule", "characters", lambda: _cases(
        _stabilizer, [("A4", "flip", "B2", [2]), ("E6", "flip", "F4", [])], "{} {} origin")),
    Criterion("07 quotient formula vs oracle", "characters", quotient_formula_rows),
    # A2 flip to height 4, so that {0, theta, 2 theta} is covered
    Criterion("08 exact orthogonality", "characters", lambda: _cases(
        _orthogonality, [("A2", "flip", 4), ("A3", "flip", 3), ("A4", "flip", 3),
                         ("D4", "rot", 3), ("A5", "flip", 2), ("A6", "flip", 2),
                         ("D4", "swap34", 2)], "{} {} height <= {}")),
    Criterion("09 fusion route equivalence", "fusion",
              lambda: _cases(_unit_axiom, _LEVELS, "{} {} level {}")),
    Criterion("10 degenerate recovery", "fusion", lambda: _cases(
        _rank_one_table, [(1,), (2,), (3,), (4,)], "A2 flip vs A1 level {}")),
    Criterion("11 dual coxeter numbers", "fusion", lambda: _cases(
        _dual_coxeter, [("A2", "flip", 2), ("A3", "flip", 3), ("E6", "flip", 9),
                        ("D4", "rot", 4)])),
    Criterion("12 orbit group fusion ring", "fusion", lambda: _cases(
        _orbit_group_table, _ORBIT_GROUP_LEVELS, "{} {} vs {} level {}")),
]

SUITES = tuple(dict.fromkeys(c.suite for c in CRITERIA))
