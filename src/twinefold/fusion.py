"""Level-k fusion of twining characters by two independent routes.

The ring of kappa-fixed highest weights multiplies through orbit-system
character polynomials.  At level k the basic rescaling of the invariant form
fixes the dual Coxeter number, the finite set of level weights, and the
regular torus points s_lambda; fusion coefficients come out of the
Verlinde-type sum over those points and, independently, out of the shifted
affine folding of ordinary tensor multiplicities.  The two must agree.

The affine route is the Kac-Walton formula (Kac, Infinite-Dimensional Lie
Algebras, Ex. 13.35; Walton, Nucl. Phys. B 340 (1990) 777) and runs on the
orbit system's integer Dynkin labels: tensor products by the Racah-Speiser
rule (``_product_labels``), then the rho-shifted level-k affine folding
(``_fold_labels``).  Ambient vectors appear only at the API boundary.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
import itertools
import math

from .linalg import Vec, vadd, vneg, vscale, zero_vec
from .folding import FoldingContext
from .rootcore import (
    Labels,
    RootDatum,
    dominant_labels,
    label_character,
    label_dimension,
    regular_dominant_labels,
)
from .twining import (
    TorusPoint,
    denominator_norm_sq,
    evaluate_labels,
    highest_labels,
    is_regular,
    label_phases,
    twining_labels,
)

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


def _product_labels(datum: RootDatum, lam: Labels, mu: Labels) -> dict[Labels, int]:
    """chi_lam chi_mu as a combination of irreducibles, by Racah-Speiser.

    Brauer-Klimyk: the product is the sum, over the weights sigma of one
    factor with multiplicity c, of c det(w) chi_{w(other + sigma + rho) - rho},
    where w makes other + sigma + rho dominant; terms on a wall drop.  The
    sum runs over the factor with fewer terms.  A product of irreducibles has
    non-negative multiplicities and dimension dim lam * dim mu; both are
    checked (Racah 1962, Speiser 1964, Klimyk 1968; Humphreys, Introduction
    to Lie Algebras and Representation Theory, 24.4).
    """
    a, b = label_character(datum, lam), label_character(datum, mu)
    other, small = (lam, b) if len(b) <= len(a) else (mu, a)
    shifted = [x + 1 for x in other]
    total: dict[Labels, int] = {}
    for sigma, c in small.items():
        folded = regular_dominant_labels(
            datum, tuple(x + y for x, y in zip(shifted, sigma))
        )
        if folded is not None:
            sign, nu = folded
            nu = tuple(x - 1 for x in nu)
            total[nu] = total.get(nu, 0) + sign * c
    out = {nu: c for nu, c in total.items() if c}
    if any(c < 0 for c in out.values()):
        raise FusionError(f"negative multiplicity in the product of {lam} and {mu}")
    dim = sum(c * label_dimension(datum, nu) for nu, c in out.items())
    if dim != label_dimension(datum, lam) * label_dimension(datum, mu):
        raise FusionError(
            f"the product of {lam} and {mu} has dimension {dim}, not "
            f"{label_dimension(datum, lam)} * {label_dimension(datum, mu)}"
        )
    return out


def ring_product(ctx: FoldingContext, a: RingElement, b: RingElement) -> RingElement:
    """Product in the representation ring, by the Racah-Speiser rule.

    Each pair of basis elements is multiplied in the orbit system's Dynkin
    labels (``_product_labels``); only the factors' and the result's highest
    weights are ambient vectors.
    """
    datum = ctx.orbit.datum
    total: dict[Labels, int] = {}
    for lam, m in a.coeffs:
        la = highest_labels(ctx, lam)
        for mu, n in b.coeffs:
            for nu, c in _product_labels(datum, la, highest_labels(ctx, mu)).items():
                total[nu] = total.get(nu, 0) + m * n * c
    out: dict[Vec, int] = {}
    for labels, c in total.items():
        if c:
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
    """The level-k weights and s-points, and the affine alcove in labels.

    With m = labels(lam + rho) on the orbit system, the open alcove of the
    rho-shifted action is m_i > 0 and sum comarks_i m_i < k + dual_coxeter.
    """

    k: int
    rescale: Fraction            # basic form = rescale * ambient form
    dual_coxeter: int
    level_weights: tuple[Vec, ...]
    s_points: tuple[TorusPoint, ...]
    t_group_order: int
    comarks: tuple[int, ...]     # <omega_i, theta^vee> of the orbit system
    theta_labels: Labels         # the orbit highest root theta in labels
    by_labels: dict[Labels, Vec] = field(compare=False, repr=False)


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
    the orbit coroot lattice, via Smith normal form.  The fixed-weight lattice
    is the weight lattice of the orbit datum."""
    from .linalg import invariant_factors

    target = ctx.orbit.coroot_lattice
    gens = [vscale(scale, g) for g in ctx.orbit.datum.fundamental_weights]
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
    orbit = ctx.orbit.datum
    # the kappa-fixed weights are the weights of the orbit datum, so a level
    # weight is sum c_i omega_i with sum c_i <omega_i, theta^vee> <= k
    gens = orbit.fundamental_weights
    comarks = [ctx.base.pair_coroot(w, theta) for w in gens]
    if any(a.denominator != 1 for a in comarks):
        raise FusionError("a comark of the orbit system is not an integer")
    comarks = [int(a) for a in comarks]
    if any(a <= 0 for a in comarks):
        raise FusionError("a weight generator pairs non-positively with theta")

    weights = []
    for combo in itertools.product(*(range(k // a + 1) for a in comarks)):
        if sum(ci * a for ci, a in zip(combo, comarks)) > k:
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

    return LevelData(
        k=k,
        rescale=c,
        dual_coxeter=h,
        level_weights=tuple(weights),
        s_points=tuple(points),
        t_group_order=_sum_lattice_index(ctx, shift),
        comarks=tuple(comarks),
        theta_labels=orbit.labels_of(theta),
        by_labels={dominant_labels(orbit, lam): lam for lam in weights},
    )


# ---------------------------------------------------------------------------
# the shifted affine projection
# ---------------------------------------------------------------------------


def _fold_labels(
    datum: RootDatum, level: LevelData, m: Labels
) -> tuple[int, Vec] | None:
    """Fold m = labels(sigma + rho) into the open alcove of ``level``.

    Finite simple reflections make m dominant; the affine wall
    sum a_i^vee m_i = k + h reflects m -> m - (sum a_i^vee m_i - (k + h)) theta,
    which is the reflection of ``fundamental_alcove``'s ceiling rescaled by
    k + h.  Returns (sign, level weight m - rho), the sign the parity of the
    reflections, or None when m lies on a wall.
    """
    height = level.k + level.dual_coxeter
    sign = 1
    while True:
        folded = regular_dominant_labels(datum, m)
        if folded is None:
            return None
        s, m = folded
        sign *= s
        excess = sum(a * x for a, x in zip(level.comarks, m)) - height
        if excess < 0:
            break
        if excess == 0:
            return None
        m = tuple(x - excess * t for x, t in zip(m, level.theta_labels))
        sign = -sign
    lam = level.by_labels.get(tuple(x - 1 for x in m))
    if lam is None:
        raise FusionError("affine folding left the level weight set")
    return sign, lam


def phi_project(
    ctx: FoldingContext, level: LevelData, lam: Vec
) -> tuple[int, Vec] | None:
    """Fold lam through the rho-shifted affine action at level k.

    Returns (sign, level weight) or None when lam + rho lands on an affine
    wall; the sign is the determinant of the folding element's linear part.
    """
    if ctx.apply_kappa(lam) != lam or not ctx.base.is_dominant_integral(lam):
        raise FusionError("weight is not kappa-fixed dominant integral")
    datum = ctx.orbit.datum
    return _fold_labels(datum, level, tuple(x + 1 for x in datum.labels_of(lam)))


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
    table = level_values(ctx, level)
    chi = table.characters
    try:
        values = chi[lam], chi[mu], chi[table.dual[nu]]
    except KeyError:
        raise FusionError("weight is not a level weight") from None
    total = sum(w * a * b * c for w, a, b, c in zip(table.weights, *values))
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


def _folded_product(
    datum: RootDatum, level: LevelData, lam: Labels, mu: Labels
) -> dict[Vec, int]:
    """The affine-folded tensor product of two highest weights given by labels."""
    folded: dict[Vec, int] = {}
    for sigma, m in _product_labels(datum, lam, mu).items():
        projected = _fold_labels(datum, level, tuple(x + 1 for x in sigma))
        if projected is not None:
            sign, nu = projected
            folded[nu] = folded.get(nu, 0) + sign * m
    return folded


def algebraic_coefficient(
    ctx: FoldingContext, level: LevelData, lam: Vec, mu: Vec, nu: Vec
) -> int:
    """Coefficient of nu in the affine-folded tensor product of lam and mu."""
    la, lb = highest_labels(ctx, lam), highest_labels(ctx, mu)
    return _folded_product(ctx.orbit.datum, level, la, lb).get(nu, 0)


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
    datum = ctx.orbit.datum
    labels = {lam: m for m, lam in level.by_labels.items()}
    coeffs: dict[tuple[Vec, Vec, Vec], int] = {}
    max_residual = 0.0
    for lam, mu in itertools.combinations_with_replacement(level.level_weights, 2):
        folded = _folded_product(datum, level, labels[lam], labels[mu])
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
