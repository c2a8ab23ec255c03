"""The twisted affine Weyl group, its fundamental alcove, and stabilizers.

The affine group is the semidirect product of translations by the orbit
coroot lattice with the orbit Weyl group; its fundamental alcove in the fixed
subspace parametrizes twisted conjugacy classes.  Point folding and
stabilizer root data from the extended-diagram deletion rule live here; the
Jacobian of the twisted conjugation map at exp(xi) is |T^kappa cap T_kappa|
times ``twining.denominator_norm_sq``.  Group elements are a translation by
the orbit coroot lattice followed by a word of affine reflections, never
matrices: the sign of the linear part is the parity of the word length.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import NamedTuple

from .linalg import Vec, identity, mat_vec, vadd, vdot, vscale, vsub, zero_vec
from .folding import FoldingContext, fundamental_coweights
from .rootcore import (
    FiniteAbelianGroup,
    RootDatum,
    invariant_factors,
    root_datum_from_simple_roots,
)

FOLD_ITERATION_CAP = 100000


class AlcoveError(ValueError):
    pass


class AffineReflection(NamedTuple):
    """x -> x - (<alpha, x> - k) alpha^vee, the reflection in <alpha, x> = k."""

    covector: Vec  # G alpha, so <alpha, x> is one dot product
    k: Fraction
    coroot: Vec


def affine_reflection(datum: RootDatum, alpha: Vec, k: int = 0) -> AffineReflection:
    return AffineReflection(
        mat_vec(datum.ambient_gram, alpha), Fraction(k), datum.coroot(alpha)
    )


@dataclass(frozen=True)
class AffineElement:
    """The translation by ``shift``, then the affine reflections of ``word``
    in order.

    Each reflection has linear part of determinant -1 and a translation has
    determinant 1, so ``linear_det`` is the parity of the word length.
    ``fold_to_alcove`` shifts by the orbit coroot lattice and builds its words
    from the alcove walls, so its translations lie in that lattice.
    """

    dim: int
    word: tuple[AffineReflection, ...] = ()
    shift: Vec = ()  # () for no translation

    def apply(self, v: Vec) -> Vec:
        if self.shift:
            v = vadd(v, self.shift)
        for covector, k, coroot in self.word:
            v = vsub(v, vscale(vdot(covector, v) - k, coroot))
        return v

    @property
    def translation(self) -> Vec:
        return self.apply(zero_vec(self.dim))

    @property
    def linear_det(self) -> int:
        return -1 if len(self.word) % 2 else 1

    @property
    def is_identity(self) -> bool:
        # an affine map is fixed by its values at 0 and the unit vectors
        points = (zero_vec(self.dim), *identity(self.dim))
        return all(self.apply(p) == p for p in points)


@dataclass(frozen=True)
class AlcoveDescription:
    """0 <= <alpha, xi> for simple orbit roots, <theta, xi> <= 1.

    ``walls`` holds the reflection in each wall: one per simple orbit root,
    then the ceiling <theta, xi> = 1.  Each wall's covector G alpha makes
    <alpha, xi> one dot product; ``weight_covectors`` does the same for the
    orbit fundamental weights.
    """

    simple_roots: tuple[Vec, ...]
    theta: Vec
    vertices: tuple[Vec, ...]
    walls: tuple[AffineReflection, ...]
    weight_covectors: tuple[Vec, ...]

    def contains(self, xi: Vec) -> bool:
        *floors, ceiling = self.walls
        return all(vdot(w.covector, xi) >= 0 for w in floors) and vdot(
            ceiling.covector, xi
        ) <= 1

    def is_interior(self, xi: Vec) -> bool:
        *floors, ceiling = self.walls
        return all(vdot(w.covector, xi) > 0 for w in floors) and vdot(
            ceiling.covector, xi
        ) < 1


def fundamental_alcove(ctx: FoldingContext) -> AlcoveDescription:
    """Vertices are 0 and the rescaled fundamental coweights of the orbit system.

    Built once per context.
    """
    if ctx._alcove is not None:
        return ctx._alcove
    orbit = ctx.orbit.datum
    theta = ctx.orbit.highest_root
    vertices = [zero_vec(ctx.base.ambient_dim)]
    for cw in fundamental_coweights(orbit):
        c = ctx.base.inner(theta, cw)
        if c <= 0:
            raise AlcoveError("highest root pairs non-positively with a coweight")
        vertices.append(vscale(1 / c, cw))
    walls = tuple(affine_reflection(ctx.base, a) for a in orbit.simple_roots)
    walls += (affine_reflection(ctx.base, theta, 1),)
    weight_covectors = tuple(
        mat_vec(ctx.base.ambient_gram, w) for w in orbit.fundamental_weights
    )
    alc = AlcoveDescription(
        orbit.simple_roots, theta, tuple(vertices), walls, weight_covectors
    )
    for v in alc.vertices:
        if not alc.contains(v):
            raise AlcoveError("computed vertex violates the alcove constraints")
    ctx._alcove = alc
    return alc


def fold_to_alcove(ctx: FoldingContext, xi: Vec) -> tuple[Vec, AffineElement]:
    """Affine-Weyl representative in the closed alcove, with the group element.

    A point outside the alcove first loses sum_j n_j alpha_j^vee, with n_j
    the integer part of <omega_j, xi> rounded toward zero: an element of the
    orbit coroot lattice that moves xi into the box -1 < <omega_j, .> < 1 in
    one step, whatever its distance.  Then the fold alternates the
    dominant-chamber phase (simple orbit reflections) with the affine
    reflection in the ceiling wall until all constraints hold.  A point of
    the closed alcove, and a point of the box, get no translation: on a wall
    the folding element is not unique, and these keep the one the walk gives.
    """
    if ctx.apply_kappa(xi) != xi:
        raise AlcoveError("point does not lie in the fixed subspace")
    dim = ctx.base.ambient_dim
    alc = fundamental_alcove(ctx)
    *floors, ceiling = alc.walls
    shift = zero_vec(dim)
    if not alc.contains(xi):
        for covector, wall in zip(alc.weight_covectors, floors):
            n = int(vdot(covector, xi))
            if n:
                shift = vsub(shift, vscale(n, wall.coroot))
    word = []
    cur = vadd(xi, shift)
    for _ in range(FOLD_ITERATION_CAP):
        moved = False
        for wall in floors:
            height = vdot(wall.covector, cur)
            if height < 0:
                cur = vsub(cur, vscale(height, wall.coroot))
                word.append(wall)
                moved = True
                break
        if moved:
            continue
        height = vdot(ceiling.covector, cur)
        if height > 1:
            # reflection in the affine wall <theta, xi> = 1
            cur = vsub(cur, vscale(height - 1, ceiling.coroot))
            word.append(ceiling)
            continue
        g = AffineElement(dim, tuple(word), shift)
        if g.apply(xi) != cur:
            raise AlcoveError("affine bookkeeping drifted from the folded point")
        return cur, g
    raise AlcoveError("alcove folding did not terminate within the iteration cap")


@dataclass(frozen=True)
class StabilizerDatum:
    """Root data of the stabilizer of exp(xi) under the twisted action.

    ``subsystem`` collects the surviving extended-diagram nodes inside the
    orbit system; ``dual_subsystem`` carries their coroot directions, which
    are the actual infinitesimal roots of the stabilizer on the fixed torus.
    """

    surviving: tuple[Vec, ...]
    includes_affine_node: bool
    subsystem: RootDatum | None
    subsystem_label: str
    dual_subsystem: RootDatum | None
    dual_label: str
    pi1: FiniteAbelianGroup
    pi1_free_rank: int


def stabilizer_datum(ctx: FoldingContext, xi: Vec) -> StabilizerDatum:
    """Extended-diagram deletion rule at a point of the closed alcove."""
    alc = fundamental_alcove(ctx)
    if not alc.contains(xi):
        raise AlcoveError("point lies outside the fundamental alcove")
    base = ctx.base
    surviving = [a for a in alc.simple_roots if base.inner(a, xi) == 0]
    includes_affine = base.inner(alc.theta, xi) == 1
    if includes_affine:
        surviving.append(tuple(-e for e in alc.theta))

    fixed_integral = ctx.lattices["fixed_integral"]
    if not surviving:
        return StabilizerDatum(
            surviving=(),
            includes_affine_node=False,
            subsystem=None,
            subsystem_label="0",
            dual_subsystem=None,
            dual_label="maximal torus",
            pi1=FiniteAbelianGroup(()),
            pi1_free_rank=fixed_integral.rank,
        )

    sub = root_datum_from_simple_roots(tuple(surviving), base.ambient_gram)
    duals = tuple(base.coroot(a) for a in surviving)
    if ctx.is_trivial:
        # untwisted case: the stabilizer's roots are the surviving roots
        # themselves, so the "dual" realization coincides with the subsystem
        stab_simple = tuple(surviving)
    else:
        stab_simple = duals
    dual_sub = root_datum_from_simple_roots(stab_simple, base.ambient_gram)

    # coroot lattice of the stabilizer system, inside Lambda^kappa
    coroots = tuple(dual_sub.coroot(a) for a in dual_sub.simple_roots)
    rows = []
    for c in coroots:
        coords = fixed_integral.coords_of(c)
        if coords is None or any(e.denominator != 1 for e in coords):
            raise AlcoveError("stabilizer coroot lattice escapes the integral lattice")
        rows.append([int(e) for e in coords])
    torsion = tuple(d for d in invariant_factors(rows) if d != 1)
    return StabilizerDatum(
        surviving=tuple(surviving),
        includes_affine_node=includes_affine,
        subsystem=sub,
        subsystem_label=sub.type_label,
        dual_subsystem=dual_sub,
        dual_label=dual_sub.type_label,
        pi1=FiniteAbelianGroup(torsion),
        pi1_free_rank=fixed_integral.rank - len(rows),
    )

