"""Level-k fusion of twining characters by two independent routes.

The ring of kappa-fixed highest weights multiplies by the Racah-Speiser rule
in the orbit system's Dynkin labels.  At level k the basic rescaling of the
invariant form fixes the dual Coxeter number, the finite set of level weights,
and the regular torus points s_lambda.  ``fusion_table`` computes every
coefficient twice and requires the two to agree:

- the Verlinde route sums over those points, one sum per entry, and decides
  each coefficient by rounding within ``INTEGRALITY_TOL``.  It reads
  chi_{nu*}(s) as the conjugate of chi_nu(s), so no dual weight is formed;
- the folded route builds the fusion matrices (``_fusion_rows``), which
  become the table (``FusionTable.rows``).  The rows of the unit and of the
  fundamental weights that are level weights come from the Kac-Walton
  formula (Kac, Infinite-Dimensional Lie Algebras, Ex. 13.35; Walton,
  Nucl. Phys. B 340 (1990) 777): tensor products by the Racah-Speiser rule
  (``_product_labels``), then the rho-shifted level-k affine folding
  (``_fold_labels``), in the orbit system's integer Dynkin labels.  Every
  other row follows from the product law of the fusion matrices, which
  takes the ring to be associative and commutative; the folded route does
  not test those laws on its own.  Comparing each Verlinde value with the
  folded entry in both orders of its first two weights does.

Inside a level, a weight is its index in ``LevelData.level_weights``, which
lists the level weights in the lexicographic order of their orbit labels;
ambient vectors appear only at the API boundary.  Both routes read the level
alone: ``LevelData`` keeps its orbit datum and builds the characters and
weights at its s-points on first read.  Theta's labels and comarks, and so
the dual Coxeter number and the affine wall, are read off the orbit datum
(``RootDatum.theta_labels``, ``RootDatum.comarks``).

Level k is the orbit group's level, not the set of kappa-fixed base level-k
weights (which ``orbit_labels`` maps into it): on A2 flip at k = 1 the base has
one kappa-fixed level-1 weight (0), and ``level_data`` two, those of orbit A1.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property
import itertools
from math import gcd, pi, prod, sin
from operator import add, mul

from .linalg import Vec, smith_normal_form
from .folding import FoldingContext
from .rootcore import (
    Labels,
    RootDatum,
    RootSystemError,
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
    sum runs over the factor of smaller Weyl dimension, whose character alone
    is built.  A product of irreducibles has non-negative multiplicities and
    dimension dim lam * dim mu; both are checked (Racah 1962, Speiser 1964,
    Klimyk 1968; Humphreys, Introduction to Lie Algebras and Representation
    Theory, 24.4).
    """
    dim_lam, dim_mu = label_dimension(datum, lam), label_dimension(datum, mu)
    other, small = (lam, mu) if dim_mu <= dim_lam else (mu, lam)
    shifted = [x + 1 for x in other]
    total: dict[Labels, int] = {}
    for sigma, c in label_character(datum, small).items():
        folded = regular_dominant_labels(datum, tuple(map(add, shifted, sigma)))
        if folded is not None:
            sign, nu = folded
            nu = tuple(x - 1 for x in nu)
            total[nu] = total.get(nu, 0) + sign * c
    out = {nu: c for nu, c in total.items() if c}
    if any(c < 0 for c in out.values()):
        raise FusionError(f"negative multiplicity in the product of {lam} and {mu}")
    dim = sum(c * label_dimension(datum, nu) for nu, c in out.items())
    if dim != dim_lam * dim_mu:
        raise FusionError(
            f"the product of {lam} and {mu} has dimension {dim}, not "
            f"{dim_lam} * {dim_mu}"
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


# ---------------------------------------------------------------------------
# level structure
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class LevelData:
    """The level-k weights and s-points, and the affine alcove in labels.

    Level weight i has orbit Dynkin labels ``labels[i]``, which increase
    lexicographically with i, and its s-point has coroot coordinates
    ``phases[i]`` (``RootDatum.coroot_coords``); every
    value at an s-point is computed from that frame, so the point itself is
    never built.  With m = labels(lam + rho), the open alcove of the
    rho-shifted action is m_i > 0 and sum comarks_i m_i < k + dual_coxeter.
    ``_index`` resolves a weight to its index (``by_id``, ``weight_index``).

    The Verlinde sum reads two tables of the orbit datum ``datum``, each
    built on first read: ``characters[i][p]`` is chi_i(s_p) for level weights
    i and p, and ``weights[p]`` is |J(rho)(s_p)|^2 / |T|.  No dual index is
    kept, as chi_{i*}(s_p) is the conjugate of chi_i(s_p).
    """

    k: int
    rescale: Fraction            # basic form = ambient form / rescale
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
        """chi_i(s_p): by Weyl's alternant where the orbit datum has a
        classical frame (A1, B_n, C_n), else by the Weyl-orbit expansion of
        the label character, term by term."""
        frame = self.datum.classical_frame
        if frame is not None:
            return _alternant_characters(frame, self.labels, self.phases)
        return tuple(
            tuple(evaluate_labels(terms, ph) for ph in self.phases)
            for terms in (label_character(self.datum, m).items() for m in self.labels)
        )

    @cached_property
    def weights(self) -> tuple[float, ...]:
        return tuple(_norm_sq_at(self.datum, ph) / self.t_group_order for ph in self.phases)


def _alternant_characters(
    frame: tuple[str, tuple[int, ...]],
    labels: tuple[Labels, ...],
    phases: tuple[tuple[tuple[int, ...], int], ...],
) -> tuple[tuple[float, ...], ...]:
    """chi_m(s) = J(l_m)(s) / J(l_rho)(s) for a datum of type A1, B_n or C_n,
    at every level weight m and s-point s.

    In the Bourbaki frame (family, p) of ``RootDatum.classical_frame``, the
    point has epsilon-coordinates t_j = x_j - x_{j-1} (x_0 = 0, and
    t_n = 2 x_n - x_{n-1} for B_n) over x_i = nums[p[i]] / den, and m + rho
    has l_j = sum_{i >= j} (m_{p[i]} + 1), the i = n term halved for B_n.
    The Weyl group acts by signed permutations, so the signed orbit sum is
    J(l) = (2i)^n det[sin 2 pi l_i t_j] (Fulton and Harris, Representation
    Theory, 24.2); the (2i)^n cancel in the ratio.  Each l_i t_j is reduced
    modulo its integer denominator before ``sin``.
    """
    family, p = frame
    # q l_j and den t_j are integers, and l_i t_j = (q l_i)(den t_j) / (q den)
    q = 2 if family == "B" else 1

    def shifted(m: Labels) -> list[int]:
        terms = [q * (m[i] + 1) for i in p]
        terms[-1] //= q
        return list(itertools.accumulate(reversed(terms)))[::-1]

    def angles(nums: tuple[int, ...]) -> list[int]:
        x = [0] + [nums[i] for i in p]
        t = [b - a for a, b in zip(x, x[1:])]
        if family == "B":
            t[-1] += x[-1]
        return t

    def alternant(l: list[int], t: list[int], d: int) -> float:
        return _det([[sin(2 * pi * ((a * b) % d / d)) for b in t] for a in l])

    points = [(angles(nums), q * den) for nums, den in phases]
    rho = shifted((0,) * len(p))
    denominators = [alternant(rho, *point) for point in points]
    return tuple(
        tuple(alternant(l, *point) / j for point, j in zip(points, denominators))
        for l in map(shifted, labels)
    )


def _det(rows: list[list[float]]) -> float:
    """Determinant of a float matrix by Gaussian elimination with partial
    pivoting; ``rows`` is consumed."""
    det = 1.0
    n = len(rows)
    for c in range(n):
        r = max(range(c, n), key=lambda i: abs(rows[i][c]))
        if r != c:
            rows[c], rows[r] = rows[r], rows[c]
            det = -det
        pivot = rows[c]
        if not pivot[c]:
            return 0.0
        det *= pivot[c]
        for row in rows[c + 1:]:
            f = row[c] / pivot[c]
            for j in range(c + 1, n):
                row[j] -= f * pivot[j]
    return det


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
    prod_i E / gcd(E, d_i) over the invariant factors d_i of 2F.  The level
    weights, their labels and their phases are listed in the lexicographic
    order of the labels.
    """
    if isinstance(k, bool) or not isinstance(k, int) or k < 1:
        raise FusionError("level must be a positive integer")
    orbit = ctx.orbit.datum
    form = orbit._form
    marks = orbit.comarks
    h = dual_coxeter_number(ctx)
    # D (theta, theta), the squared length of theta over D = _form_den
    tft = orbit._pos_norms[orbit._theta_index]
    height = (k + h) * tft

    # the kappa-fixed weights are the weights of the orbit datum, so a level
    # weight is sum c_i omega_i with sum c_i <omega_i, theta^vee> <= k, in
    # the lexicographic order of its labels that ``product`` yields
    labels = tuple(
        combo
        for combo in itertools.product(*(range(k // a + 1) for a in marks))
        if sum(map(mul, combo, marks)) <= k
    )

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
    lam, mu, nu = (_index(level, v) for v in (lam, mu, nu))
    return _verlinde(level, _pair_vector(level, lam, mu), nu)[0]


def _pair_vector(level: LevelData, lam: int, mu: int) -> list[complex]:
    """The conjugates of w_p chi_lam(s_p) chi_mu(s_p) over the s-points p, for
    level-weight indices: each Verlinde sum of the pair is the conjugate of
    its dot with one chi_nu, as chi_{nu*} is the conjugate of chi_nu."""
    chi = level.characters
    return [x.conjugate() for x in map(mul, map(mul, level.weights, chi[lam]), chi[mu])]


def _verlinde(level: LevelData, pair: list[complex], nu: int) -> tuple[int, float]:
    """Verlinde coefficient of a pair (``_pair_vector``) and the level-weight
    index nu, and the distance of its sum to that integer."""
    total = sum(map(mul, pair, level.characters[nu])).conjugate()
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
    labels, keyed by level-weight index; a coefficient whose signed terms
    cancel is dropped, so no value is zero."""
    folded: dict[int, int] = {}
    for sigma, m in _product_labels(level.datum, lam, mu).items():
        projected = _fold_labels(level, tuple(x + 1 for x in sigma))
        if projected is not None:
            sign, nu = projected
            folded[nu] = folded.get(nu, 0) + sign * m
    return {nu: c for nu, c in folded.items() if c}


def _fusion_rows(level: LevelData) -> list[list[dict[int, int]]]:
    """The fusion matrices of ``level``: rows[lam][mu] = {nu: N_{lam mu}^nu}
    over level-weight indices, with no zero value.

    The unit and each fundamental weight omega_i that is a level weight (its
    comark is at most k) are the generators: their rows come from Kac-Walton,
    ``_folded_product(omega_i, mu)`` for every mu.  Every other level weight
    lam is visited by increasing height (lam, rho) and takes the i with
    m_i > 0 whose omega_i has the least dimension, so that
    ``_product_labels`` expands the character of omega_i alone.  In the
    character ring
    chi_{lam - omega_i} chi_{omega_i} = chi_lam + sum_nu c_nu chi_nu
    (``_product_labels``), and since fusion matrices multiply as
    N_a N_b = sum_c N_{ab}^c N_c,

        N_lam = N_{lam - omega_i} N_{omega_i} - sum_nu c_nu N_nu.

    Each nu lies below lam, so it has smaller height and is a level weight
    (<nu, theta^vee> <= <lam, theta^vee> <= k): its row is built, and no
    affine reflection acts (Walton, Nucl. Phys. B 340 (1990); Di Francesco,
    Mathieu and Senechal, Conformal Field Theory, ch. 16).  The recursion
    assumes the fusion ring is associative and commutative; ``fusion_table``
    checks every entry of both N[lam][mu] and N[mu][lam] against the
    Verlinde sum.
    """
    datum, labels, index = level.datum, level.labels, level.label_index
    n, r = len(labels), datum.rank
    units = [tuple(int(j == i) for j in range(r)) for i in range(r)]
    generators = {i: index[u] for i, u in enumerate(units) if u in index}
    rows: list[list[dict[int, int]] | None] = [None] * n
    for g in [index[(0,) * r], *generators.values()]:
        rows[g] = [_folded_product(level, labels[g], mu) for mu in labels]

    def height(lam: int) -> int:
        return sum(map(mul, labels[lam], datum._rho_covector))

    for lam in sorted(range(n), key=height):
        if rows[lam] is not None:
            continue
        m = labels[lam]
        i = min(
            (i for i, x in enumerate(m) if x),
            key=lambda i: label_dimension(datum, units[i]),
        )
        rest = index[tuple(x - (j == i) for j, x in enumerate(m))]
        lower = _product_labels(datum, labels[rest], units[i])
        del lower[m]  # chi_lam, once
        lower_rows = [(c, rows[index[nu]]) for nu, c in lower.items()]
        left, gen = rows[rest], rows[generators[i]]
        new = []
        for mu in range(n):
            acc: dict[int, int] = {}
            # omega_i mu = sum_x N_{omega_i mu}^x x, then (lam - omega_i) x
            for x, a in gen[mu].items():
                for nu, b in left[x].items():
                    acc[nu] = acc.get(nu, 0) + a * b
            for c, row in lower_rows:
                for nu, b in row[mu].items():
                    acc[nu] = acc.get(nu, 0) - c * b
            new.append({nu: c for nu, c in acc.items() if c})
        rows[lam] = new
    return rows


@dataclass(frozen=True)
class FusionTable:
    """The level-k fusion ring as its fusion matrices: ``rows[lam][mu]`` is
    {nu: N_{lam mu}^nu} over level-weight indices, with no zero value."""

    level: LevelData
    rows: list[list[dict[int, int]]]
    max_residual: float  # largest |Verlinde sum - nearest integer| over entries

    def get(self, lam: Vec, mu: Vec, nu: Vec) -> int:
        """N_{lam mu}^nu of three level weights.

        A vector of ``level.level_weights`` resolves by identity, any equal
        vector by value; a weight off the level raises FusionError.
        """
        level = self.level
        return self.rows[_index(level, lam)][_index(level, mu)].get(_index(level, nu), 0)


def fusion_table(ctx: FoldingContext, k: int) -> FusionTable:
    """Full level-k table; every entry is decided by the Verlinde sum and
    must equal the folded route's in both orders of its first two weights.

    The folded route is ``_fusion_rows``: Kac-Walton on the generator rows,
    the fusion ring's product law for the rest.  It takes associativity and
    commutativity for granted, so it does not test them on its own; the
    comparison of N[lam][mu] and N[mu][lam] with the one Verlinde value of
    each pair does, entry by entry.  Once compared, those rows are the table.
    """
    level = level_data(ctx, k)
    n = len(level.labels)
    rows = _fusion_rows(level)
    max_residual = 0.0
    for lam, mu in itertools.combinations_with_replacement(range(n), 2):
        pair = _pair_vector(level, lam, mu)
        for nu in range(n):
            n_verlinde, residual = _verlinde(level, pair, nu)
            max_residual = max(max_residual, residual)
            for a, b in (lam, mu), (mu, lam):
                n_phi = rows[a][b].get(nu, 0)
                if n_verlinde != n_phi:
                    a, b, c = (level.level_weights[i] for i in (a, b, nu))
                    raise FusionError(f"route disagreement at ({a}, {b}, {c}): "
                                      f"Verlinde {n_verlinde}, folded {n_phi}")
    return FusionTable(level, rows, max_residual)
