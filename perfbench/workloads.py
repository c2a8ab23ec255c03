"""The four benchmark workloads.

Each workload is a ``setup`` that builds what every operation shares (and
warms its caches) and a ``round`` that turns a seeded ``random.Random`` into
a list of operations.  An operation is a ``(label, thunk)`` pair; the thunk
calls the public API of ``twinefold`` (or ``twinefold.cli.main``), checks its
own output and raises ``CheckFailed`` when the output is wrong.  A round is a
fixed multiset of operations whose order and inputs come from the seed, so
every run times the same kinds of work.

Library functions are looked up through their module on every call
(``tf.fold(...)``, never a name imported at load time), so the tracing
wrappers in ``tracing.py`` see every call the workloads make.
"""

from __future__ import annotations

import io
import itertools
import json
import math
import random
from collections import Counter
from fractions import Fraction

import twinefold as tf
import twinefold.cli
from twinefold.folding import fundamental_coweights
from twinefold.twining import is_regular

# criterion 01: (group, automorphism, folded type, orbit type)
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
ORBIT_TYPE = {(g, a): orbit for g, a, _, orbit in FOLDINGS}


class CheckFailed(AssertionError):
    """An operation returned a wrong result."""


def expect(ok: bool, what: str) -> None:
    if not ok:
        raise CheckFailed(what)


def context(group: str, automorphism: str):
    datum = tf.build_root_datum(group)
    return tf.fold(datum, tf.automorphism_by_name(datum, automorphism))


def zero(ctx):
    return tuple(Fraction(0) for _ in range(ctx.base.ambient_dim))


def combine(coeffs, vectors):
    out = None
    for c, v in zip(coeffs, vectors):
        term = tuple(c * e for e in v)
        out = term if out is None else tuple(a + b for a, b in zip(out, term))
    return out


# ---------------------------------------------------------------------------
# fusion: one fusion_table per operation, each on a freshly built context
# ---------------------------------------------------------------------------

# (group, automorphism, level) -> number of level-k weights at the seed commit;
# A2 flip has k + 1 (criterion 10).  A3 k=3, D4 rot k=3 and E6 k=1 are out of
# the mix: with them one round takes ~40 s, four times a run (see NOTES.md).
FUSION_TABLES = {
    **{("A2", "flip", k): k + 1 for k in range(1, 9)},
    ("A3", "flip", 1): 3,
    ("A3", "flip", 2): 6,
    ("D4", "rot", 1): 2,
    ("D4", "rot", 2): 4,
    ("A4", "flip", 1): 3,
    ("A4", "flip", 2): 6,
    ("A5", "flip", 1): 3,
    ("A6", "flip", 1): 4,
    ("D4", "swap34", 1): 4,
}


def fusion_setup():
    return None


def fusion_op(group: str, automorphism: str, k: int) -> None:
    ctx = context(group, automorphism)
    # fusion_table raises if the Verlinde and affine-folding routes disagree
    table = tf.fusion_table(ctx, k)
    weights = table.level.level_weights
    expect(
        len(weights) == FUSION_TABLES[(group, automorphism, k)],
        f"{len(weights)} level weights",
    )
    unit = zero(ctx)
    for mu in weights:
        for nu in weights:
            expect(table.get(unit, mu, nu) == (mu == nu), "unit axiom N_0mu^nu")
            for lam in weights:
                expect(
                    table.get(lam, mu, nu) == table.get(mu, lam, nu), "commutativity"
                )


def fusion_round(state, rng):
    # each table twice, so that the median and the 90th percentile of a round
    # are each the mean of two runs of one table (A2 k=6 and A4 k=2), not a
    # single run of whichever table lands in that rank
    keys = list(FUSION_TABLES) * 2
    rng.shuffle(keys)
    return [
        (f"fusion {g} {a} k={k}", lambda g=g, a=a, k=k: fusion_op(g, a, k))
        for g, a, k in keys
    ]


# ---------------------------------------------------------------------------
# characters: the theta-character at one seeded regular point, three ways
# ---------------------------------------------------------------------------

# D6 flip and E6 flip are out: set-up traverses their orbit Weyl groups
# (C5, 3840 elements, ~22 s; F4, 1152 elements, ~8 s) at least three times a
# run, which the time the benchmark may take does not allow (see NOTES.md).
# A5 appears three times and D5 twice so that, with the foldings sorted by
# cost (A3, A4, D4 rot, D4 swap34, A5, A6, D5), the median falls inside the A5
# block (40-70% of a round) and the 90th percentile in the middle of the D5
# block (80-100%), not on a boundary between two foldings of different cost.
CHARACTER_ROUND = [
    ("A3", "flip"), ("A4", "flip"), ("A5", "flip"), ("A5", "flip"),
    ("A5", "flip"), ("A6", "flip"), ("D5", "flip"), ("D5", "flip"),
    ("D4", "swap34"), ("D4", "rot"),
]
EVAL_RTOL = 1e-9
# jantzen_eval divides two floating-point alternating sums over the orbit Weyl
# group.  Near a wall the Weyl denominator J(rho)(xi) is small, both sums
# cancel, and the quotient misses EVAL_RTOL (D5 flip: |J(rho)| = 6.3e-8 gave a
# relative error of 7e-8; the error is about 7e-15 / |J(rho)|).  That is a
# known defect of the program (see NOTES.md); draws with |J(rho)| below
# MIN_DENOMINATOR (0.4-2% of criterion-07 draws, by folding) are redrawn and
# counted in NEAR_WALL_REDRAWN, which the run prints.
MIN_DENOMINATOR = 1e-3
NEAR_WALL_REDRAWN = Counter()


def denominator_abs(ctx, point):
    """|J(rho)(xi)| by the Weyl denominator product formula."""
    return math.prod(
        2 * abs(math.sin(math.pi * float(ctx.base.inner(alpha, point.xi) % 1)))
        for alpha in ctx.orbit.datum.positive_roots
    )


def regular_point(ctx, coweights, rng, name=None):
    """Criterion-07 recipe: random rational coweight coordinates in (0, 1),
    redrawn while the Weyl denominator is below MIN_DENOMINATOR."""
    while True:
        coeffs = [Fraction(rng.randint(1, 400), rng.randint(401, 997)) for _ in coweights]
        point = tf.TorusPoint(combine(coeffs, coweights))
        if not is_regular(ctx, point):
            continue
        if denominator_abs(ctx, point) >= MIN_DENOMINATOR:
            return point
        if name:
            NEAR_WALL_REDRAWN[name] += 1


def characters_setup():
    state = {}
    for key in dict.fromkeys(CHARACTER_ROUND):
        ctx = context(*key)
        theta = ctx.base.highest_root
        chi = tf.twining_character(ctx, theta)
        coweights = fundamental_coweights(ctx.orbit.datum)
        # the first quotient-formula call traverses the orbit Weyl group
        tf.jantzen_eval(ctx, theta, regular_point(ctx, coweights, random.Random(0)))
        state[key] = (ctx, theta, chi, coweights)
    return state


def characters_op(ctx, theta, chi, point) -> None:
    poly = chi.eval(ctx, point)
    ratio = tf.jantzen_eval(ctx, theta, point)
    oracle = tf.adjoint_oracle(ctx, point)
    scale = max(1.0, abs(poly))
    expect(abs(poly - ratio) <= EVAL_RTOL * scale, "quotient formula vs polynomial")
    expect(abs(poly - oracle) <= EVAL_RTOL * scale, "adjoint oracle vs polynomial")


def characters_round(state, rng):
    keys = list(CHARACTER_ROUND)
    rng.shuffle(keys)
    ops = []
    for key in keys:
        ctx, theta, chi, coweights = state[key]
        point = regular_point(ctx, coweights, rng, f"{key[0]} {key[1]}")
        ops.append(
            (
                f"characters {key[0]} {key[1]}",
                lambda c=ctx, t=theta, x=chi, p=point: characters_op(c, t, x, p),
            )
        )
    return ops


# ---------------------------------------------------------------------------
# geometry: cold CLI queries plus alcove folding of near and far points
# ---------------------------------------------------------------------------

# far points per folding: (alcove widths, count); 100 widths only where the
# orbit has rank 2, since the larger orbits take seconds per point there
NEAR_FAR = [(1, 4), (10, 1)]
FAR_RANK2 = [(100, 1)]
ORIGIN_STABILIZERS = {
    ("A4", "flip"): ("B2", [2]),
    ("E6", "flip"): ("F4", []),
}


def cli_json(argv):
    out = io.StringIO()
    code = twinefold.cli.main(argv, out=out)
    expect(code == 0, f"exit code {code}")
    return json.loads(out.getvalue())


def geometry_setup():
    state = {}
    for group, automorphism, _, _ in FOLDINGS:
        ctx = context(group, automorphism)
        alcove = tf.fundamental_alcove(ctx)
        vertices = [
            ",".join(twinefold.cli.format_vector(twinefold.cli.point_from_ambient(ctx, v)))
            for v in alcove.vertices
        ]
        state[(group, automorphism)] = (
            ctx,
            alcove,
            vertices,
            fundamental_coweights(ctx.orbit.datum),
        )
    return state


def cli_fold_op(group, automorphism, folded, orbit) -> None:
    doc = cli_json(["fold", group, automorphism])
    expect(doc["folded_type"] == folded, f"folded type {doc['folded_type']}")
    expect(doc["orbit_type"] == orbit, f"orbit type {doc['orbit_type']}")


def cli_alcove_op(group, automorphism, vertices) -> None:
    doc = cli_json(["alcove", group, automorphism])
    got = [",".join(v) for v in doc["vertices"]]
    expect(got == vertices, "alcove vertices differ from fundamental_alcove")
    expect(doc["orbit_type"] == ORBIT_TYPE[(group, automorphism)], "orbit type")


def cli_stabilizer_op(group, automorphism, vertex, rank, at_origin) -> None:
    doc = cli_json(["stabilizer", group, automorphism, "--point", vertex])
    # an alcove vertex lies on all walls but one of the extended diagram
    expect(doc["surviving_nodes"] == rank, f"{doc['surviving_nodes']} surviving nodes")
    expected = ORIGIN_STABILIZERS.get((group, automorphism)) if at_origin else None
    if expected:
        expect(
            (doc["stabilizer_type"], doc["pi1_invariant_factors"]) == expected,
            f"origin stabilizer {doc['stabilizer_type']} {doc['pi1_invariant_factors']}",
        )


def far_point(ctx, coweights, widths, rng):
    """A kappa-fixed point whose largest orbit-root pairing is exactly ``widths``."""
    while True:
        coeffs = [Fraction(rng.randint(-97, 97), 97) for _ in coweights]
        xi = combine(coeffs, coweights)
        height = max(abs(ctx.base.inner(a, xi)) for a in ctx.orbit.datum.positive_roots)
        if height:
            return tuple(widths / height * e for e in xi)


def fold_point_op(ctx, alcove, xi) -> None:
    folded, g = tf.fold_to_alcove(ctx, xi)
    expect(g.apply(xi) == folded, "g . xi differs from the folded point")
    expect(alcove.contains(folded), "folded point outside the closed alcove")
    tf.stabilizer_datum(ctx, folded)


def geometry_round(state, rng):
    ops = []
    for group, automorphism, folded, orbit in FOLDINGS:
        ctx, alcove, vertices, coweights = state[(group, automorphism)]
        name = f"{group} {automorphism}"
        rank = ctx.orbit.datum.rank
        ops.append(
            (f"cli fold {name}", lambda a=(group, automorphism, folded, orbit): cli_fold_op(*a))
        )
        ops.append(
            (f"cli alcove {name}", lambda a=(group, automorphism, vertices): cli_alcove_op(*a))
        )
        for i, v in enumerate(vertices):
            ops.append(
                (
                    f"cli stabilizer {name} {v}",
                    lambda a=(group, automorphism, v, rank, i == 0): cli_stabilizer_op(*a),
                )
            )
        for widths, count in NEAR_FAR + (FAR_RANK2 if rank == 2 else []):
            for _ in range(count):
                xi = far_point(ctx, coweights, widths, rng)
                ops.append(
                    (
                        f"fold_to_alcove {name} {widths}w",
                        lambda c=ctx, al=alcove, x=xi: fold_point_op(c, al, x),
                    )
                )
    rng.shuffle(ops)
    return ops


# ---------------------------------------------------------------------------
# orthogonality: one exact inner product per unordered pair of characters
# ---------------------------------------------------------------------------

# criterion 08 (height <= 3) plus A5/A6 at height 2 and D4 swap34 at height 1,
# so that a round fits in a run; D5 and E6 are out (see NOTES.md)
ORTHOGONALITY_SETS = [
    ("A2", "flip", 3), ("A3", "flip", 3), ("A4", "flip", 3), ("D4", "rot", 3),
    ("A5", "flip", 2), ("A6", "flip", 2), ("D4", "swap34", 1),
]


def fixed_dominant_weights(ctx, height):
    """Kappa-fixed dominant weights with fundamental coordinates summing to <= height."""
    perm = ctx.kappa.permutation
    out = []
    for coords in itertools.product(range(height + 1), repeat=ctx.base.rank):
        if sum(coords) <= height and all(coords[perm[i]] == c for i, c in enumerate(coords)):
            out.append(combine(coords, ctx.base.fundamental_weights))
    return out


def orthogonality_setup():
    state = []
    for group, automorphism, height in ORTHOGONALITY_SETS:
        ctx = context(group, automorphism)
        polys = [
            tf.twining_character(ctx, lam).poly
            for lam in fixed_dominant_weights(ctx, height)
        ]
        state.append((f"{group} {automorphism}", ctx, polys))
    return state


def orthogonality_op(ctx, f, g, expected) -> None:
    value = tf.inner_product(ctx, f, g)
    expect(value == expected, f"inner product {value}, expected {expected}")


def orthogonality_round(state, rng):
    ops = []
    for name, ctx, polys in state:
        for i, j in itertools.combinations_with_replacement(range(len(polys)), 2):
            ops.append(
                (
                    f"inner_product {name} {i},{j}",
                    lambda c=ctx, f=polys[i], g=polys[j], e=int(i == j): orthogonality_op(
                        c, f, g, e
                    ),
                )
            )
    rng.shuffle(ops)
    return ops


WORKLOADS = {
    "fusion": (fusion_setup, fusion_round),
    "characters": (characters_setup, characters_round),
    "geometry": (geometry_setup, geometry_round),
    "orthogonality": (orthogonality_setup, orthogonality_round),
}
