"""Level-k fusion of twining characters by two independent routes.

The ring of kappa-fixed highest weights multiplies by the Racah-Speiser rule
in the orbit system's Dynkin labels.  At level k the basic rescaling of the
invariant form fixes the dual Coxeter number, the finite set of level weights,
and the regular torus points s_lambda; fusion coefficients come out of the
Verlinde-type sum over those points and, independently, out of the shifted
affine folding of ordinary tensor multiplicities.  The two must agree.

The affine route is the Kac-Walton formula (Kac, Infinite-Dimensional Lie
Algebras, Ex. 13.35; Walton, Nucl. Phys. B 340 (1990) 777) and runs on the
orbit system's integer Dynkin labels: tensor products by the Racah-Speiser
rule (``_product_labels``), then the rho-shifted level-k affine folding
(``_fold_labels``).  Inside a level, a weight is its index in
``LevelData.level_weights``; ambient vectors appear only at the API boundary.
Both routes read the level alone: ``LevelData`` keeps its orbit datum and
builds the characters and weights at its s-points on first read.
Theta's labels and comarks, and so the dual Coxeter number and the affine
wall, are read off the orbit datum (``RootDatum.theta_labels``,
``RootDatum.comarks``).

Level k is the orbit group's level, not the set of kappa-fixed base level-k
weights (which ``orbit_labels`` maps into it): on A2 flip at k = 1 the base has
one kappa-fixed level-1 weight (0), and ``level_data`` two, those of orbit A1.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property
import itertools
from math import gcd, prod
from operator import mul

from .linalg import Vec, smith_normal_form
from .folding import FoldingContext
from .rootcore import (
    Labels,
    RootDatum,
    RootSystemError,
    dominant_conjugate,
    label_character,
    label_dimension,
    regular_dominant_labels,
)
from .twining import (
    _norm_sq_at,
    _root_residues,
    evaluate_labels,
)

INTEGRALITY_TOL = 1e-6


class FusionError(ValueError):
    pass


# ---------------------------------------------------------------------------
# the representation ring of kappa-fixed weights
# ---------------------------------------------------------------------------


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


def ring_product(
    ctx: FoldingContext, a: dict[Vec, int], b: dict[Vec, int]
) -> dict[Vec, int]:
    """Product in the representation ring, by the Racah-Speiser rule.

    A ring element is a dict from kappa-fixed dominant highest weights to
    integer coefficients; the product has no zero coefficient.  Each pair of
    basis elements is multiplied in the orbit system's Dynkin labels
    (``_product_labels``), each factor's read once; only the factors' and the
    result's highest weights are ambient vectors.
    """
    datum = ctx.orbit.datum
    left = [(ctx.orbit_labels(ctx.base.pairings(lam)), m) for lam, m in a.items()]
    right = [(ctx.orbit_labels(ctx.base.pairings(mu)), n) for mu, n in b.items()]
    total: dict[Labels, int] = {}
    for la, m in left:
        for lb, n in right:
            for nu, c in _product_labels(datum, la, lb).items():
                total[nu] = total.get(nu, 0) + m * n * c
    out: dict[Vec, int] = {}
    for labels, c in total.items():
        if c:
            lam = datum.from_labels(labels)
            if ctx.kappa.apply(lam) != lam:
                raise FusionError("product decomposition left the kappa-fixed cone")
            out[lam] = c
    return out


def _dual_labels(datum: RootDatum, m: Labels) -> Labels:
    """-w0 on labels: the dominant conjugate of -m."""
    return dominant_conjugate(datum, tuple(-x for x in m))[1]


# ---------------------------------------------------------------------------
# level structure
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class LevelData:
    """The level-k weights and s-points, and the affine alcove in labels.

    Level weight i has orbit Dynkin labels ``labels[i]``, and its s-point
    has coroot coordinates ``phases[i]`` (``RootDatum.coroot_coords``); every
    value at an s-point is computed from that frame, so the point itself is
    never built.  With m = labels(lam + rho), the open alcove of the
    rho-shifted action is m_i > 0 and sum comarks_i m_i < k + dual_coxeter.
    ``_index`` resolves a weight to its index (``by_id``, ``weight_index``).

    The Verlinde sum reads three tables of the orbit datum ``datum``, each
    built on first read: ``characters[i][p]`` is chi_i(s_p) for level weights
    i and p, ``weights[p]`` is |J(rho)(s_p)|^2 / |T|, and ``dual[i]`` is the
    index of i*.
    """

    k: int
    rescale: Fraction            # basic form = rescale * ambient form
    dual_coxeter: int
    level_weights: tuple[Vec, ...]
    labels: tuple[Labels, ...]
    phases: tuple[tuple[tuple[int, ...], int], ...]
    t_group_order: int
    datum: RootDatum = field(compare=False, repr=False)  # the orbit datum
    label_index: dict[Labels, int] = field(compare=False, repr=False)
    weight_index: dict[Vec, int] = field(compare=False, repr=False)  # public getters
    by_id: dict[int, int] = field(init=False, compare=False, repr=False)

    def __post_init__(self):
        ids = {id(lam): i for i, lam in enumerate(self.level_weights)}
        object.__setattr__(self, "by_id", ids)

    def __setstate__(self, state):
        # object ids do not survive a pickle or a copy: index the new vectors
        self.__dict__.update(state)
        self.__post_init__()

    @cached_property
    def characters(self) -> tuple[tuple[complex, ...], ...]:
        return tuple(
            tuple(evaluate_labels(terms, ph) for ph in self.phases)
            for terms in (label_character(self.datum, m).items() for m in self.labels)
        )

    @cached_property
    def weights(self) -> tuple[float, ...]:
        return tuple(_norm_sq_at(self.datum, ph) / self.t_group_order for ph in self.phases)

    @cached_property
    def dual(self) -> tuple[int, ...]:
        dual = []
        for lam, m in zip(self.level_weights, self.labels):
            i = self.label_index.get(_dual_labels(self.datum, m))
            if i is None:
                raise FusionError(f"the dual of level weight {lam} is not a level weight")
            dual.append(i)
        return tuple(dual)


def dual_coxeter_number(ctx: FoldingContext) -> int:
    """h^vee = 1 + sum_i a_i^vee (Kac, Infinite-Dimensional Lie Algebras, 6.1)."""
    return 1 + sum(ctx.orbit.datum.comarks)


def level_data(ctx: FoldingContext, k: int) -> LevelData:
    """The level-k data of the orbit datum, from its integer form F over D.

    With c = tFt / 2D the basic rescaling and E = (k + h) tFt, the s-point of
    lam is xi = (lam + rho) / ((k + h) c), so over m = labels(lam + rho),
    <omega_j, xi> = 2 (F m)_j / E.  |T| is the index of the orbit coroot
    lattice in its sum with (1 / ((k + h) c)) times the weight lattice; paired
    with D omega_j that is the index of Z^r in Z^r + (2F / E) Z^r, which is
    prod_i E / gcd(E, d_i) over the invariant factors d_i of 2F.
    """
    if k < 1:
        raise FusionError("level must be a positive integer")
    orbit = ctx.orbit.datum
    form = orbit._form
    marks = orbit.comarks
    h = dual_coxeter_number(ctx)
    # D (theta, theta), the squared length of theta over D = _form_den
    tft = orbit._pos_norms[orbit._theta_index]
    height = (k + h) * tft

    # the kappa-fixed weights are the weights of the orbit datum, so a level
    # weight is sum c_i omega_i with sum c_i <omega_i, theta^vee> <= k; they
    # are sorted as ambient vectors, which share the denominator of
    # ``from_labels``, so by their integer numerators
    def numerators(m: Labels) -> tuple[int, ...]:
        return tuple(sum(map(mul, m, row)) for row in orbit._omega_num)

    labels = tuple(sorted(
        (
            combo
            for combo in itertools.product(*(range(k // a + 1) for a in marks))
            if sum(map(mul, combo, marks)) <= k
        ),
        key=numerators,
    ))

    phases = []
    for m in labels:
        shifted = tuple(x + 1 for x in m)
        frame = [2 * sum(map(mul, row, shifted)) for row in form]
        g = gcd(height, *frame)
        frame = tuple(x // g for x in frame), height // g
        if 0 in _root_residues(orbit, frame):
            raise FusionError("level point is not regular")
        phases.append(frame)

    level_weights = tuple(orbit.from_labels(m) for m in labels)
    twice_form = [[2 * x for x in row] for row in form]
    return LevelData(
        k=k,
        rescale=Fraction(tft, 2 * orbit._form_den),
        dual_coxeter=h,
        level_weights=level_weights,
        labels=labels,
        phases=tuple(phases),
        t_group_order=prod(height // gcd(height, d) for d in smith_normal_form(twice_form)),
        datum=orbit,
        label_index={m: i for i, m in enumerate(labels)},
        weight_index={lam: i for i, lam in enumerate(level_weights)},
    )


# ---------------------------------------------------------------------------
# the shifted affine projection
# ---------------------------------------------------------------------------


def _fold_labels(level: LevelData, m: Labels) -> tuple[int, int] | None:
    """Fold m = labels(sigma + rho) into the open alcove of ``level``.

    Finite simple reflections make m dominant; the affine wall
    sum a_i^vee m_i = k + h reflects m -> m - (sum a_i^vee m_i - (k + h)) theta,
    which is the reflection of ``fundamental_alcove``'s ceiling rescaled by
    k + h.  Returns (sign, index of the level weight m - rho), the sign the
    parity of the reflections, or None when m lies on a wall.
    """
    marks, theta = level.datum.comarks, level.datum.theta_labels
    height = level.k + level.dual_coxeter
    sign = 1
    while True:
        folded = regular_dominant_labels(level.datum, m)
        if folded is None:
            return None
        s, m = folded
        sign *= s
        excess = sum(a * x for a, x in zip(marks, m)) - height
        if excess < 0:
            break
        if excess == 0:
            return None
        m = tuple(x - excess * t for x, t in zip(m, theta))
        sign = -sign
    i = level.label_index.get(tuple(x - 1 for x in m))
    if i is None:
        raise FusionError("affine folding left the level weight set")
    return sign, i


def phi_project(
    ctx: FoldingContext, level: LevelData, lam: Vec
) -> tuple[int, Vec] | None:
    """Fold lam through the rho-shifted affine action at level k.

    Returns (sign, level weight) or None when lam + rho lands on an affine
    wall; the sign is the determinant of the folding element's linear part.
    """
    try:
        labels = ctx.orbit_labels(ctx.base.pairings(lam))
    except RootSystemError as exc:
        raise FusionError("weight is not kappa-fixed dominant integral") from exc
    folded = _fold_labels(level, tuple(x + 1 for x in labels))
    return None if folded is None else (folded[0], level.level_weights[folded[1]])


# ---------------------------------------------------------------------------
# fusion coefficients
# ---------------------------------------------------------------------------


def _index(level: LevelData, lam: Vec) -> int:
    """Index of a level weight: a stored vector by identity, any other by value."""
    i = level.by_id.get(id(lam))
    if i is None:
        i = level.weight_index.get(lam)
        if i is None:
            raise FusionError("weight is not a level weight")
    return i


def verlinde_coefficient(
    ctx: FoldingContext, level: LevelData, lam: Vec, mu: Vec, nu: Vec
) -> int:
    """N_{lam mu}^nu by the Verlinde sum over the s-points of ``level``, which
    alone determines it."""
    return _verlinde(level, _index(level, lam), _index(level, mu), _index(level, nu))[0]


def _verlinde(level: LevelData, lam: int, mu: int, nu: int) -> tuple[int, float]:
    """Verlinde coefficient of level-weight indices and the distance of its
    sum to that integer."""
    chi = level.characters
    values = chi[lam], chi[mu], chi[level.dual[nu]]
    total = sum(w * a * b * c for w, a, b, c in zip(level.weights, *values))
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


def _folded_product(level: LevelData, lam: Labels, mu: Labels) -> dict[int, int]:
    """The affine-folded tensor product of two highest weights given by
    labels, keyed by level-weight index."""
    folded: dict[int, int] = {}
    for sigma, m in _product_labels(level.datum, lam, mu).items():
        projected = _fold_labels(level, tuple(x + 1 for x in sigma))
        if projected is not None:
            sign, nu = projected
            folded[nu] = folded.get(nu, 0) + sign * m
    return folded


@dataclass(frozen=True)
class FusionTable:
    level: LevelData
    coefficients: dict[tuple[int, int, int], int]  # by level-weight indices
    max_residual: float  # largest |Verlinde sum - nearest integer| over entries

    def get(self, lam: Vec, mu: Vec, nu: Vec) -> int:
        """N_{lam mu}^nu of three level weights.

        A vector of ``level.level_weights`` resolves by identity, any equal
        vector by value; a weight off the level raises FusionError.
        """
        level = self.level
        return self.coefficients[_index(level, lam), _index(level, mu), _index(level, nu)]


def fusion_table(ctx: FoldingContext, k: int) -> FusionTable:
    """Full table with every entry computed by both routes; they must agree."""
    level = level_data(ctx, k)
    labels = level.labels
    n = len(labels)
    coeffs: dict[tuple[int, int, int], int] = {}
    max_residual = 0.0
    for lam, mu in itertools.combinations_with_replacement(range(n), 2):
        folded = _folded_product(level, labels[lam], labels[mu])
        for nu in range(n):
            n_verlinde, residual = _verlinde(level, lam, mu, nu)
            max_residual = max(max_residual, residual)
            n_phi = folded.get(nu, 0)
            if n_verlinde != n_phi:
                a, b, c = (level.level_weights[i] for i in (lam, mu, nu))
                raise FusionError(
                    "route disagreement at "
                    f"({a}, {b}, {c}): Verlinde {n_verlinde}, folded {n_phi}"
                )
            coeffs[lam, mu, nu] = coeffs[mu, lam, nu] = n_verlinde
    return FusionTable(level, coeffs, max_residual)
