"""Twining characters, the twisted Weyl denominator, and exact orthogonality.

A twining character is the character of the orbit system's irreducible with
the same highest weight, supported on the kappa-fixed weight lattice of the
base.  It keeps its highest weight's orbit Dynkin labels (from its base labels
by ``FoldingContext.orbit_labels``) and is evaluated from the label-keyed
character; ``.poly``, built on first access, is that character in ambient vectors.
Evaluation at torus points is numeric; all structural identities
(orthogonality, decomposition) are exact.

A torus point exp(xi) meets the orbit datum only in its coroot coordinates
<omega_j, xi> (``RootDatum.coroot_coords``: integer numerators over one
denominator): characters, J(rho), regularity and |J(rho)|^2 there read that
frame; ``adjoint_oracle`` alone keeps an ambient pairing.

The signed rho-orbit J(rho) = sum_w det w e^{w rho} = e^rho prod (1 - e^{-alpha})
of the orbit Weyl group, keyed by integer orbit Dynkin labels, is read off the
orbit datum (``rootcore.signed_orbit``, memoized there) at rho's labels
(1, ..., 1), as J(lam + rho) is at m + 1.  It is
e^rho times the Weyl denominator, the denominator of the quotient formula
(``jantzen_eval``) and the density of the inner product: since |e^rho| = 1,
<f, g> = (1/|W_O|) sum_u F_u G_u, F = f J(rho), G = g J(rho).
"""

from __future__ import annotations

from collections.abc import Iterable
from dataclasses import dataclass, field
from fractions import Fraction
from math import cos, fsum, pi, prod, sin
from operator import add, mul

from .linalg import Vec, mat_vec, vdot
from .folding import FoldingContext
from .rootcore import (
    FourierPolynomial,
    Labels,
    RootDatum,
    RootSystemError,
    irreducible_character,
    label_character,
    label_dimension,
    signed_orbit,
)

class SingularPointError(ValueError):
    """Raised when a quotient-formula evaluation hits a denominator zero."""


@dataclass(frozen=True)
class TorusPoint:
    """exp(xi) for an exact rational xi in the fixed subspace."""

    xi: Vec


@dataclass(frozen=True)
class Denominator:
    poly: FourierPolynomial
    label_terms: list[tuple[Labels, int]] = field(repr=False, compare=False)  # poly, in labels

    def eval(self, ctx: FoldingContext, point: TorusPoint) -> complex:
        return evaluate_labels(self.label_terms, ctx.orbit.datum.coroot_coords(point.xi))


@dataclass(frozen=True)
class TwiningCharacter:
    highest_weight: Vec
    labels: Labels  # orbit Dynkin labels of the highest weight
    datum: RootDatum = field(repr=False, compare=False)  # the orbit datum

    @property
    def poly(self) -> FourierPolynomial:
        """The character in ambient vectors, built on first access and
        memoized per datum by ``irreducible_character``."""
        return irreducible_character(self.datum, self.highest_weight)

    def eval(self, ctx: FoldingContext, point: TorusPoint) -> complex:
        terms = label_character(ctx.orbit.datum, self.labels)
        return evaluate_labels(terms.items(), ctx.orbit.datum.coroot_coords(point.xi))

    @property
    def dimension_at_identity(self) -> int:
        return label_dimension(self.datum, self.labels)


def weyl_denominator(ctx: FoldingContext) -> Denominator:
    """prod over positive orbit roots of (1 - e^{-alpha}), read off the signed
    rho-orbit as e^{-rho} J(rho) (each label lowered by one), with its keys
    taken to ambient vectors."""
    datum = ctx.orbit.datum
    rho_orbit = signed_orbit(datum, (1,) * datum.rank)
    terms = [(tuple(m - 1 for m in u), sign) for u, sign in rho_orbit]
    return Denominator(FourierPolynomial({datum.from_labels(u): c for u, c in terms}), terms)


def twining_character(ctx: FoldingContext, lam: Vec) -> TwiningCharacter:
    return TwiningCharacter(lam, ctx.orbit_labels(ctx.base.pairings(lam)), ctx.orbit.datum)


def _root_residues(datum: RootDatum, phases: tuple[tuple[int, ...], int]) -> list[int]:
    """den <alpha, xi> mod den for the positive roots alpha of ``datum``, in
    ``positive_roots`` order: alpha with labels a pairs to a . nums / den."""
    nums, den = phases
    return [sum(map(mul, a, nums)) % den for a in datum._pos_labels]


def is_regular(ctx: FoldingContext, point: TorusPoint) -> bool:
    """Exact test: no positive orbit root pairs integrally with xi."""
    datum = ctx.orbit.datum
    return 0 not in _root_residues(datum, datum.coroot_coords(point.xi))


def denominator_norm_sq(ctx: FoldingContext, xi: Vec) -> float:
    """|J(rho)(exp xi)|^2 by the Weyl denominator product formula.

    J(rho) = e^rho prod (1 - e^{-alpha}) over positive orbit roots, and
    |1 - e^{2 pi i t}|^2 = 4 sin^2(pi t); no Weyl-group traversal is needed.
    """
    return _norm_sq_at(ctx.orbit.datum, ctx.orbit.datum.coroot_coords(xi))


def _norm_sq_at(datum: RootDatum, phases: tuple[tuple[int, ...], int]) -> float:
    """|J(rho)|^2 of ``datum`` at the point whose ``coroot_coords`` are ``phases``."""
    return prod(4 * sin(pi * (r / phases[1])) ** 2 for r in _root_residues(datum, phases))


def evaluate_labels(
    terms: Iterable[tuple[Labels, int]], phases: tuple[tuple[int, ...], int]
) -> complex:
    """sum c e^{2 pi i <u, xi>} over the (labels u, coefficient c) pairs of
    ``terms``, at the point whose ``coroot_coords`` are ``phases``.

    Equal to ``FourierPolynomial.evaluate`` of the same polynomial: each angle
    is the same correctly rounded fraction, and fsum is order-independent.
    """
    nums, den = phases
    res, ims = [], []
    for labels, c in terms:
        angle = 2 * pi * ((sum(m * a for m, a in zip(labels, nums)) % den) / den)
        res.append(c * cos(angle))
        ims.append(c * sin(angle))
    return complex(fsum(res), fsum(ims))


def jantzen_eval(ctx: FoldingContext, lam: Vec, point: TorusPoint) -> complex:
    """Quotient-formula value of the twining character at a regular point."""
    labels = ctx.orbit_labels(ctx.base.pairings(lam))
    datum = ctx.orbit.datum
    phases = datum.coroot_coords(point.xi)
    if 0 in _root_residues(datum, phases):
        raise SingularPointError(
            "point pairs integrally with an orbit root; use the polynomial instead"
        )
    num = evaluate_labels(signed_orbit(datum, tuple(m + 1 for m in labels)), phases)
    return num / evaluate_labels(signed_orbit(datum, (1,) * datum.rank), phases)


def adjoint_oracle(ctx: FoldingContext, point: TorusPoint) -> complex:
    """Trace of kappa composed with the adjoint action of exp(xi).

    Computed directly from the root-space decomposition: only the Cartan part
    and the kappa-fixed root spaces contribute, with signs given by the action
    of kappa on the Chevalley generators ((-1)^{ht+1} for the even A cases,
    +1 otherwise).  Independent of the orbit-system construction.
    """
    a_even = ctx._is_a_even
    fixed_nodes = sum(1 for i, j in enumerate(ctx.kappa.permutation) if i == j)
    gx = mat_vec(ctx.base.ambient_gram, point.xi)
    total: complex = complex(fixed_nodes)
    for alpha in ctx.kappa_fixed_roots():
        # _check_supported requires unit simple roots, so alpha is its own coordinates
        sign = (-1) ** (int(sum(alpha)) + 1) if a_even else 1
        angle = 2 * pi * float(vdot(alpha, gx) % 1)
        total += sign * complex(cos(angle), sin(angle))
    eps = -1 if a_even else 1
    return eps * total


def _times_signed_rho_orbit(
    ctx: FoldingContext, f: FourierPolynomial
) -> dict[Labels, int]:
    """f J(rho) keyed by orbit Dynkin labels."""
    datum = ctx.orbit.datum
    try:
        labels = [(datum.labels_of(mu), c) for mu, c in f.terms.items()]
    except RootSystemError as exc:
        raise RootSystemError(
            "polynomial support lies outside the fixed weight lattice"
        ) from exc
    out: dict[Labels, int] = {}
    for u, sign in signed_orbit(datum, (1,) * datum.rank):
        for mu, c in labels:
            key = tuple(map(add, mu, u))
            out[key] = out.get(key, 0) + sign * c
    return out


def inner_product(
    ctx: FoldingContext, f: FourierPolynomial, g: FourierPolynomial
) -> Fraction:
    """Exact L2 inner product of class functions restricted to the fixed torus.

    (1/|W_O|) CT(conj(f) g Delta conj(Delta)) over the orbit Weyl group W_O,
    with conj negating all weights.  As e^rho Delta = J(rho) and
    |e^rho| = 1, this is (1/|W_O|) sum_u F_u G_u for F = f J(rho) and
    G = g J(rho), both keyed by integer orbit Dynkin labels.  Raises
    RootSystemError when f or g has a weight off the orbit weight lattice PO.
    """
    ff = _times_signed_rho_orbit(ctx, f)
    gg = _times_signed_rho_orbit(ctx, g)
    ct = sum(c * gg.get(u, 0) for u, c in ff.items())
    return Fraction(ct, ctx.orbit.datum.weyl_order)
