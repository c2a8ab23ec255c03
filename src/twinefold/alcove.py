"""The twisted affine Weyl group, its fundamental alcove, and stabilizers.

The affine group is the semidirect product of translations by the orbit
coroot lattice with the orbit Weyl group; its fundamental alcove in the fixed
subspace parametrizes twisted conjugacy classes.  Point folding and
stabilizers by the extended-diagram deletion rule live here.
``fold_to_alcove`` refuses a point off the fixed subspace (``require_fixed``),
while the walls, and so ``stabilizer_datum``, see only a point's projection
onto it.  A stabilizer is read off the alcove walls through its point, with no
root system realized for it.  The Jacobian of the twisted conjugation map at
exp(xi) is |T^kappa cap T_kappa| times ``twining.denominator_norm_sq``.  Group
elements are a translation by the orbit coroot lattice followed by a word of
affine reflections, never matrices: the sign of the linear part is the parity
of the word length.

The orbit datum is the one source of the affine data.  A point meets the
walls in its integer coroot coordinates (N, D) = ``RootDatum.coroot_coords``:
the height of the floor alpha_i is N dotted with alpha_i's labels, and that of
the ceiling is N dotted with theta's labels, less D (``_wall_heights``), so
membership and the walls through a point make no ``Fraction`` per wall.
``fold_to_alcove`` walks in those coordinates, reflecting by theta's comarks
at the ceiling, and a stabilizer's Cartan matrix is the submatrix of the
datum's ``extended_cartan`` on the nodes whose walls contain its point.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from operator import mul
from typing import NamedTuple

from .linalg import Vec, scaled_rows, vadd, vdot, vneg, vscale, vsub, zero_vec
from .folding import FoldingContext
from .rootcore import (
    FiniteAbelianGroup,
    RootDatum,
    _classify_system,
    is_sublattice,
    lattice,
    lattice_quotient,
)

FOLD_ITERATION_CAP = 100000


class AlcoveError(ValueError):
    pass


class AffineReflection(NamedTuple):
    """x -> x - (<alpha, x> - k) alpha^vee, the reflection in <alpha, x> = k."""

    covector: Vec  # G alpha, so <alpha, x> is one dot product
    k: Fraction
    coroot: Vec


@dataclass(frozen=True)
class AffineElement:
    """The translation by ``shift``, then the affine reflections of ``word``
    in order.

    Each reflection has linear part of determinant -1, so the determinant of
    the linear part is the parity of the word length.  ``fold_to_alcove``
    shifts by the orbit coroot lattice and builds its words from the alcove
    walls, so its translations lie in that lattice.
    """

    word: tuple[AffineReflection, ...] = ()
    shift: Vec = ()  # () for no translation

    def apply(self, v: Vec) -> Vec:
        if self.shift:
            v = vadd(v, self.shift)
        for covector, k, coroot in self.word:
            v = vsub(v, vscale(vdot(covector, v) - k, coroot))
        return v


def _wall_heights(orbit: RootDatum, n, d: int) -> tuple[list[int], int]:
    """The heights of the point with ``coroot_coords`` (n, d) over the alcove
    walls: n . (labels of alpha_i) = d <alpha_i, xi> for each floor, and
    n . (labels of theta) - d = d (<theta, xi> - 1) for the ceiling.  As
    d > 0, their signs are those of the walls' equations."""
    floors = [sum(map(mul, n, c)) for c in orbit._alpha_labels]
    return floors, sum(map(mul, n, orbit.theta_labels)) - d


def _inside(floors: list[int], ceiling: int) -> bool:
    return min(floors) >= 0 and ceiling <= 0


@dataclass(frozen=True)
class AlcoveDescription:
    """0 <= <alpha, xi> for simple orbit roots, <theta, xi> <= 1.

    ``walls`` holds the reflection in each wall: one per simple orbit root,
    then the ceiling <theta, xi> = 1.  ``datum`` is the orbit datum, which
    every wall height is read from (``_wall_heights``).
    """

    datum: RootDatum = field(compare=False, repr=False)
    vertices: tuple[Vec, ...]
    walls: tuple[AffineReflection, ...]

    def contains(self, xi: Vec) -> bool:
        return _inside(*_wall_heights(self.datum, *self.datum.coroot_coords(xi)))


def fundamental_alcove(ctx: FoldingContext) -> AlcoveDescription:
    """Vertices are 0 and the fundamental coweights cw_i of the orbit system,
    each divided by (theta, cw_i), the coefficient of alpha_i in theta.

    Built once per context, from the integer rows of the orbit datum's
    simple roots, coroots and coweights: with the ambient form
    G = g / g_den (``RootDatum.gram_rows``), each covector G v is one integer
    product g v over its denominator, and a ``Fraction`` is made once per
    entry of the walls' reflections.
    """
    if ctx._alcove is not None:
        return ctx._alcove
    orbit = ctx.orbit.datum
    theta = orbit.highest_root
    g_den, g = orbit.gram_rows

    def g_times(row) -> tuple[int, ...]:
        return tuple(sum(map(mul, gr, row)) for gr in g)

    def covector(row, den: int) -> Vec:
        # G (row / den) for an integer row
        return tuple(Fraction(x, g_den * den) for x in g_times(row))

    t_den, (t,) = scaled_rows([theta])
    gt = g_times(t)
    cw_den, coweights = orbit.coweight_rows()
    vertices = [zero_vec(ctx.base.ambient_dim)]
    for cw in coweights:
        c = Fraction(sum(map(mul, gt, cw)), g_den * t_den * cw_den)
        if c <= 0:
            raise AlcoveError("highest root pairs non-positively with a coweight")
        vertices.append(
            tuple(Fraction(x * c.denominator, cw_den * c.numerator) for x in cw)
        )
    (a_den, roots), (v_den, coroots) = orbit.root_rows(), orbit.coroot_rows()
    walls = tuple(
        AffineReflection(covector(a, a_den), Fraction(0), tuple(Fraction(x, v_den) for x in v))
        for a, v in zip(roots, coroots)
    )
    # theta^vee = 2 theta / (theta, theta) = 2 g_den t_den t / (t . g t)
    t_norm = sum(map(mul, gt, t))
    walls += (
        AffineReflection(
            covector(t, t_den),
            Fraction(1),
            tuple(Fraction(2 * g_den * t_den * x, t_norm) for x in t),
        ),
    )
    alc = AlcoveDescription(orbit, tuple(vertices), walls)
    for v in alc.vertices:
        if not alc.contains(v):
            raise AlcoveError("computed vertex violates the alcove constraints")
    ctx._alcove = alc
    return alc


def require_fixed(ctx: FoldingContext, xi: Vec) -> Vec:
    """xi, after an AlcoveError unless it lies in the kappa-fixed subspace."""
    if ctx.kappa.apply(xi) != xi:
        raise AlcoveError("point does not lie in the fixed subspace")
    return xi


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

    The walk runs on integers: xi = sum_j (N_j / D) alpha_j^vee, with
    N_j / D = <omega_j, xi>.  The reflection s_i sets N_i to
    N_i - sum_j N_j <alpha_i, alpha_j^vee>, and the ceiling reflection, with
    H / D = <theta, xi>, subtracts (H - D) times the comarks.  It takes the
    first floor wall of negative height, and otherwise the ceiling, as the
    reflection in those walls would; the heights are ``_wall_heights``.
    N / D is the orbit datum's ``coroot_coords`` of xi, computed once, and
    its ``from_coroot_coords`` builds the translation and, once, the folded
    point; the group element is checked against it.
    """
    orbit = ctx.orbit.datum
    *floors, ceiling = fundamental_alcove(ctx).walls
    marks = orbit.comarks
    n, d = orbit.coroot_coords(require_fixed(ctx, xi))
    n = list(n)
    steps = [0] * len(n)
    if not _inside(*_wall_heights(orbit, n, d)):
        for j, c in enumerate(n):
            # the integer part of c / d, rounded toward zero
            steps[j] = q = c // d if c >= 0 else -(-c // d)
            n[j] -= q * d
    shift = orbit.from_coroot_coords([-q for q in steps], 1)
    word = []
    for _ in range(FOLD_ITERATION_CAP):
        heights, excess = _wall_heights(orbit, n, d)
        i = next((i for i, h in enumerate(heights) if h < 0), None)
        if i is not None:
            n[i] -= heights[i]
            word.append(floors[i])
        elif excess > 0:
            # reflection in the affine wall <theta, xi> = 1
            n = [c - excess * a for c, a in zip(n, marks)]
            word.append(ceiling)
        else:
            cur = orbit.from_coroot_coords(n, d)
            g = AffineElement(tuple(word), shift)
            if g.apply(xi) != cur:
                raise AlcoveError("affine bookkeeping drifted from the folded point")
            return cur, g
    raise AlcoveError("alcove folding did not terminate within the iteration cap")


@dataclass(frozen=True)
class StabilizerDatum:
    """The stabilizer of exp(xi) under the twisted action.

    ``surviving`` holds the extended-diagram nodes whose walls contain xi:
    simple orbit roots, then -theta when ``includes_affine_node``.
    ``subsystem_label`` is the type of their Cartan matrix.  ``dual_label``
    is the type of the stabilizer's roots on the fixed torus: the coroots of
    those nodes, or untwisted the nodes themselves.
    """

    surviving: tuple[Vec, ...]
    includes_affine_node: bool
    subsystem_label: str
    dual_label: str
    pi1: FiniteAbelianGroup
    pi1_free_rank: int


def stabilizer_datum(ctx: FoldingContext, xi: Vec) -> StabilizerDatum:
    """Extended-diagram deletion rule at a point of the closed alcove.

    Everything is read off the nodes of the extended Dynkin diagram whose
    walls contain xi: their submatrix of the orbit datum's extended Cartan
    matrix c_ij = <a_j, a_i^vee> gives the types, and their roots or coroots
    span the stabilizer's coroot lattice inside Lambda^kappa.
    """
    alc = fundamental_alcove(ctx)
    orbit = ctx.orbit.datum
    floors, ceiling = _wall_heights(orbit, *orbit.coroot_coords(xi))
    if not _inside(floors, ceiling):
        raise AlcoveError("point lies outside the fundamental alcove")
    # the walls through xi, simple nodes then the ceiling (the node -theta):
    # each wall's height is zero there
    nodes = [i for i, h in enumerate((*floors, ceiling)) if h == 0]
    includes_affine = ceiling == 0

    fixed_integral = ctx.lattices["fixed_integral"]
    if not nodes:
        return StabilizerDatum(
            surviving=(),
            includes_affine_node=False,
            subsystem_label="0",
            dual_label="maximal torus",
            pi1=FiniteAbelianGroup(()),
            pi1_free_rank=fixed_integral.rank,
        )

    roots = orbit.simple_roots + (vneg(orbit.highest_root),)
    surviving = tuple(roots[i] for i in nodes)
    extended = orbit.extended_cartan
    cartan = tuple(tuple(extended[i][j] for j in nodes) for i in nodes)
    label = _classify_system(cartan)
    dim = ctx.base.ambient_dim
    # the stabilizer's coroot lattice, inside Lambda^kappa
    if ctx.kappa.is_identity:
        # untwisted case: the stabilizer's roots are the surviving roots
        dual_label, coroots = label, lattice([alc.walls[i].coroot for i in nodes], dim)
    else:
        # its roots are the coroots a^v, with the transposed Cartan matrix,
        # and their coroots are the surviving roots again: (a^v)^v = a
        dual_label = _classify_system(tuple(zip(*cartan)))
        coroots = lattice(surviving, dim)
    if not is_sublattice(coroots, fixed_integral):
        raise AlcoveError("stabilizer coroot lattice escapes the integral lattice")
    return StabilizerDatum(
        surviving=surviving,
        includes_affine_node=includes_affine,
        subsystem_label=label,
        dual_label=dual_label,
        pi1=lattice_quotient(coroots, fixed_integral),
        pi1_free_rank=fixed_integral.rank - coroots.rank,
    )
