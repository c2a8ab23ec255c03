"""Level-k fusion of twining characters by two independent routes.

The ring of kappa-fixed highest weights multiplies through orbit-system
character polynomials.  At level k the basic rescaling of the invariant form
fixes the dual Coxeter number, the finite set of level weights, and the
regular torus points s_lambda; fusion coefficients come out of the
Verlinde-type sum over those points and, independently, out of the shifted
affine folding of ordinary tensor multiplicities.  The two must agree.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
import itertools
import math
from operator import add

from .linalg import Vec, vadd, vneg, vscale, zero_vec
from .folding import FoldingContext
from .rootcore import Labels, decompose_labels
from .twining import (
    TorusPoint,
    denominator_norm_sq,
    evaluate_labels,
    is_regular,
    label_phases,
    twining_labels,
)
from .alcove import fold_to_alcove, fundamental_alcove

INTEGRALITY_TOL = 1e-6


class FusionError(ValueError):
    pass


# ---------------------------------------------------------------------------
# the representation ring of kappa-fixed weights
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class RingElement:
    """Finite integer combination of kappa-fixed dominant highest weights."""

    coeffs: tuple[tuple[Vec, int], ...]

    @classmethod
    def from_dict(cls, d: dict[Vec, int]) -> "RingElement":
        return cls(tuple(sorted((k, v) for k, v in d.items() if v != 0)))

    @classmethod
    def basis(cls, lam: Vec) -> "RingElement":
        return cls(((lam, 1),))

    def as_dict(self) -> dict[Vec, int]:
        return dict(self.coeffs)

    def __add__(self, other: "RingElement") -> "RingElement":
        out = self.as_dict()
        for k, v in other.coeffs:
            out[k] = out.get(k, 0) + v
        return RingElement.from_dict(out)


def ring_product(ctx: FoldingContext, a: RingElement, b: RingElement) -> RingElement:
    """Product via character multiplication and exact peel-off decomposition.

    Characters are multiplied and peeled in the orbit system's Dynkin labels;
    only the factors' and the result's highest weights are ambient vectors.
    """
    total: dict[Labels, int] = {}
    for lam, m in a.coeffs:
        pa = twining_labels(ctx, lam)
        for mu, n in b.coeffs:
            small, big = sorted((pa, twining_labels(ctx, mu)), key=len)
            for ka, va in small.items():
                c = m * n * va
                for kb, vb in big.items():
                    k = tuple(map(add, ka, kb))
                    total[k] = total.get(k, 0) + c * vb
    datum = ctx.orbit.datum
    out: dict[Vec, int] = {}
    for labels, c in decompose_labels(datum, total).items():
        lam = datum.from_labels(labels)
        if ctx.apply_kappa(lam) != lam:
            raise FusionError("product decomposition left the kappa-fixed cone")
        out[lam] = c
    return RingElement.from_dict(out)


def dual_weight(ctx: FoldingContext, lam: Vec) -> Vec:
    """-w0(lam) on the orbit system."""
    return ctx.orbit.datum.make_dominant(vneg(lam))


def involution(ctx: FoldingContext, a: RingElement) -> RingElement:
    out: dict[Vec, int] = {}
    for lam, m in a.coeffs:
        d = dual_weight(ctx, lam)
        out[d] = out.get(d, 0) + m
    return RingElement.from_dict(out)


def trace0(ctx: FoldingContext, a: RingElement) -> int:
    dim = ctx.base.ambient_dim
    return a.as_dict().get(zero_vec(dim), 0)


# ---------------------------------------------------------------------------
# level structure
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class LevelData:
    k: int
    rescale: Fraction            # basic form = rescale * ambient form
    dual_coxeter: int
    level_weights: tuple[Vec, ...]
    s_points: tuple[TorusPoint, ...]
    t_group_order: int


def _fixed_weight_generators(ctx: FoldingContext) -> tuple[Vec, ...]:
    """Basis of the kappa-fixed weight lattice: orbit sums of fundamentals."""
    gens = []
    for orb in ctx.node_orbits:
        acc = zero_vec(ctx.base.ambient_dim)
        for i in orb:
            acc = vadd(acc, ctx.base.fundamental_weights[i])
        gens.append(acc)
    return tuple(gens)


def basic_rescale(ctx: FoldingContext) -> Fraction:
    """Factor making the orbit highest root have squared length 2."""
    theta = ctx.orbit.highest_root
    return ctx.base.norm_sq(theta) / 2


def dual_coxeter_number(ctx: FoldingContext) -> int:
    c = basic_rescale(ctx)
    rho = ctx.orbit.half_sum
    value = 1 + ctx.base.inner(rho, ctx.orbit.highest_root) / c
    if value.denominator != 1:
        raise FusionError("dual Coxeter number came out non-integral")
    return int(value)


def _sum_lattice_index(ctx: FoldingContext, scale: Fraction) -> int:
    """Order of (scale * fixed-weight lattice + orbit coroot lattice) modulo
    the orbit coroot lattice, via Smith normal form."""
    from .linalg import invariant_factors

    target = ctx.orbit.coroot_lattice
    gens = [vscale(scale, g) for g in _fixed_weight_generators(ctx)]
    coords = []
    den = 1
    for g in gens:
        c = target.coords_of(g)
        if c is None:
            raise FusionError("rescaled weight lattice escapes the fixed subspace")
        coords.append(c)
        for e in c:
            den = math.lcm(den, e.denominator)
    r = target.rank
    rows = [[int(e * den) for e in c] for c in coords]
    rows += [[den * int(i == j) for j in range(r)] for i in range(r)]
    factors = invariant_factors(rows)
    if len(factors) != r:
        raise FusionError("degenerate lattice sum")
    order = den**r
    for d in factors:
        if order % d != 0:
            raise FusionError("non-integral lattice index")
        order //= d
    return order


def level_data(ctx: FoldingContext, k: int) -> LevelData:
    if k < 1:
        raise FusionError("level must be a positive integer")
    c = basic_rescale(ctx)
    h = dual_coxeter_number(ctx)
    theta = ctx.orbit.highest_root
    gens = _fixed_weight_generators(ctx)
    marks = [ctx.base.inner(g, theta) / c for g in gens]
    if any(m <= 0 for m in marks):
        raise FusionError("a weight generator pairs non-positively with theta")

    weights = []
    bounds = [int(Fraction(k) / m) for m in marks]
    for combo in itertools.product(*(range(b + 1) for b in bounds)):
        if sum(ci * m for ci, m in zip(combo, marks)) > k:
            continue
        lam = zero_vec(ctx.base.ambient_dim)
        for ci, g in zip(combo, gens):
            lam = vadd(lam, vscale(ci, g))
        weights.append(lam)
    weights.sort()

    shift = Fraction(1, (k + h)) / c
    rho = ctx.orbit.half_sum
    points = []
    for lam in weights:
        pt = TorusPoint(vscale(shift, vadd(lam, rho)))
        if not is_regular(ctx, pt):
            raise FusionError("level point is not regular")
        points.append(pt)

    order = _sum_lattice_index(ctx, shift)
    return LevelData(
        k=k,
        rescale=c,
        dual_coxeter=h,
        level_weights=tuple(weights),
        s_points=tuple(points),
        t_group_order=order,
    )


# ---------------------------------------------------------------------------
# the shifted affine projection
# ---------------------------------------------------------------------------


def phi_project(
    ctx: FoldingContext, level: LevelData, lam: Vec
) -> tuple[int, Vec] | None:
    """Fold lam through the rho-shifted affine action at level k.

    Returns (sign, level weight) or None when lam + rho lands on an affine
    wall; the sign is the determinant of the folding element's linear part.
    """
    if ctx.apply_kappa(lam) != lam or not ctx.base.is_dominant_integral(lam):
        raise FusionError("weight is not kappa-fixed dominant integral")
    scale = Fraction(1, level.k + level.dual_coxeter) / level.rescale
    rho = ctx.orbit.half_sum
    xi = vscale(scale, vadd(lam, rho))
    folded, g = fold_to_alcove(ctx, xi)
    alc = fundamental_alcove(ctx)
    if not alc.is_interior(folded):
        return None
    shifted = vscale(1 / scale, folded)
    out = tuple(a - b for a, b in zip(shifted, rho))
    if out not in level.level_weights:
        raise FusionError("affine folding left the level weight set")
    return g.linear_det, out


# ---------------------------------------------------------------------------
# fusion coefficients
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class LevelValues:
    """Everything the Verlinde sum at one level reads, each value computed once.

    ``characters[lam][i]`` is chi_lam(s_i) for every level weight lam;
    ``weights[i]`` is |J(rho)(s_i)|^2 / |T|; ``dual`` maps nu to nu*.
    """

    characters: dict[Vec, tuple[complex, ...]]
    weights: tuple[float, ...]
    dual: dict[Vec, Vec]


def level_values(ctx: FoldingContext, level: LevelData) -> LevelValues:
    """The value table of ``level``, built on first use and kept on the context."""
    table = ctx._level_values.get(level.k)
    if table is not None:
        return table
    phases = [label_phases(ctx, pt.xi) for pt in level.s_points]
    characters = {}
    for lam in level.level_weights:
        terms = twining_labels(ctx, lam).items()
        characters[lam] = tuple(evaluate_labels(terms, ph) for ph in phases)
    weights = tuple(
        denominator_norm_sq(ctx, pt.xi) / level.t_group_order for pt in level.s_points
    )
    dual = {nu: dual_weight(ctx, nu) for nu in level.level_weights}
    for nu, nu_star in dual.items():
        if nu_star not in characters:
            raise FusionError(f"the dual of level weight {nu} is not a level weight")
    table = ctx._level_values[level.k] = LevelValues(characters, weights, dual)
    return table


def verlinde_coefficient(
    ctx: FoldingContext, level: LevelData, lam: Vec, mu: Vec, nu: Vec
) -> int:
    """N_{lam mu}^nu by the Verlinde sum over the s-points of ``level``."""
    return _verlinde(ctx, level, lam, mu, nu)[0]


def _verlinde(
    ctx: FoldingContext, level: LevelData, lam: Vec, mu: Vec, nu: Vec
) -> tuple[int, float]:
    """Verlinde coefficient and the distance of its sum to that integer."""
    for w in (lam, mu, nu):
        if w not in level.level_weights:
            raise FusionError("weight is not a level weight")
    table = level_values(ctx, level)
    chi = table.characters
    total = sum(
        w * a * b * c
        for w, a, b, c in zip(table.weights, chi[lam], chi[mu], chi[table.dual[nu]])
    )
    nearest = round(total.real)
    residual = abs(total - nearest)
    if residual > INTEGRALITY_TOL:
        raise FusionError(
            f"Verlinde sum is not integral: value {total}, "
            f"|T| = {level.t_group_order}"
        )
    if nearest < 0:
        raise FusionError(f"negative fusion coefficient {nearest}")
    return int(nearest), residual


def algebraic_coefficient(
    ctx: FoldingContext, level: LevelData, lam: Vec, mu: Vec, nu: Vec
) -> int:
    """Coefficient of nu in the affine-folded tensor product of lam and mu."""
    product = ring_product(ctx, RingElement.basis(lam), RingElement.basis(mu))
    total = 0
    for sigma, m in product.coeffs:
        projected = phi_project(ctx, level, sigma)
        if projected is None:
            continue
        sign, sigma0 = projected
        if sigma0 == nu:
            total += sign * m
    return total


@dataclass(frozen=True)
class FusionTable:
    level: LevelData
    coefficients: dict[tuple[Vec, Vec, Vec], int]
    max_residual: float  # largest |Verlinde sum - nearest integer| over entries

    def get(self, lam: Vec, mu: Vec, nu: Vec) -> int:
        return self.coefficients[(lam, mu, nu)]


def fusion_table(ctx: FoldingContext, k: int) -> FusionTable:
    """Full table with every entry computed by both routes; they must agree."""
    level = level_data(ctx, k)
    coeffs: dict[tuple[Vec, Vec, Vec], int] = {}
    max_residual = 0.0
    for lam, mu in itertools.combinations_with_replacement(level.level_weights, 2):
        product = ring_product(ctx, RingElement.basis(lam), RingElement.basis(mu))
        folded: dict[Vec, int] = {}
        for sigma, m in product.coeffs:
            projected = phi_project(ctx, level, sigma)
            if projected is None:
                continue
            sign, sigma0 = projected
            folded[sigma0] = folded.get(sigma0, 0) + sign * m
        for nu in level.level_weights:
            n_verlinde, residual = _verlinde(ctx, level, lam, mu, nu)
            max_residual = max(max_residual, residual)
            n_phi = folded.get(nu, 0)
            if n_verlinde != n_phi:
                raise FusionError(
                    "route disagreement at "
                    f"({lam}, {mu}, {nu}): Verlinde {n_verlinde}, folded {n_phi}"
                )
            coeffs[(lam, mu, nu)] = n_verlinde
            coeffs[(mu, lam, nu)] = n_verlinde
    return FusionTable(level, coeffs, max_residual)
