"""Root data, Weyl orbits and exact character computations.

All vectors live in a single rational ambient space: the coefficient space of
the simple roots of some base system, with the invariant form given by a Gram
matrix normalized so long roots of the base have squared length 2.  Subsystems
(folded and orbit systems) are realized in the same ambient space and reuse
the same form.

No Weyl-group element is built as a matrix: ``weyl_traverse`` walks the orbit
of a regular dominant weight from its integer Dynkin labels, which is in
bijection with the group, and reads det w = (-1)^length(w) off the search
depth.  ``signed_orbit`` keeps that walk, J(labels), memoized on the datum.

Every ``RootDatum`` is a reduced root system, the reflection closure of its
simple roots; the one non-reduced system of a folding, BC_n, lives in
``folding.FoldedSystem``.  A ``RootDatum`` knows its own type: it classifies
its Cartan matrix, or checks the type it is given against it, so every
realized system (base, folded, orbit) computes its Cartan pairings once.
It is built from integer numerators: the simple roots over their common
denominator and the ambient form over its own give the Gram and Cartan
matrices, A^-1 comes from fraction-free elimination
(``linalg.integer_inverse``), and the positive roots and their labels are
reached by one reflection closure on integer simple-root coordinates.
Construction and its checks read only integers; the ``Fraction`` views of them
(roots, rho, fundamental weights, the coroot covectors) and the roots' integer
covectors are built on a datum's first read of each, and the lattice
generators (``root_rows`` and its siblings) stay integer rows over one
denominator, from which a ``Lattice`` is built with no ``Fraction`` round
trip.

A point xi meets a datum through its simple-coroot coordinates
<omega_j, xi> (``coroot_coords``, integer numerators over one denominator,
from the fundamental weights' integer covectors; ``from_coroot_coords``
inverts it).  Theta's labels, the comarks and the extended Cartan matrix
(``theta_labels``, ``comarks``, ``extended_cartan``) are integer data of the
datum too, with the comarks' integrality and positivity checked there once,
all built on first read, as is the Bourbaki node map of an A1, B_n or C_n
datum (``classical_frame``).  |W| (``weyl_order``) is read off the positive
roots at construction, and a stabilizer's order off those of its Cartan
submatrix, from which ``weyl_traverse`` and ``label_character`` size each
orbit against ``TWINEFOLD_WEYL_CAP`` before they enumerate it.

Characters are computed in the same integer labels m_i = <mu, alpha_i^vee>:
Freudenthal's recursion, the Weyl-orbit expansion and the peel-off
decomposition run on integer tuples, with the form as one integer matrix over
a common denominator.  Ambient vectors appear only at the API boundary
(``RootDatum.labels_of``, ``from_labels`` and ``pairings``); a kappa-fixed
weight crosses from base to orbit labels in integers (``folding``).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import cached_property, lru_cache
from fractions import Fraction
from heapq import heapify, heappop, heappush
from math import cos, fsum, gcd, lcm, pi, prod, sin
from operator import mul

from .linalg import (
    Matrix,
    Vec,
    ZERO,
    bilinear,
    hermite_coords,
    hermite_normal_form,
    integer_inverse,
    invariant_factors,
    mat_vec,
    reduced_rows,
    scaled_rows,
    vadd,
    vdot,
    vneg,
    vscale,
    zero_vec,
)

DEFAULT_WEYL_CAP = 10**6

# a weight by its integer Dynkin labels <mu, alpha_i^vee>
Labels = tuple[int, ...]


def resolve_weyl_cap() -> int:
    """The TWINEFOLD_WEYL_CAP env var, else the default.

    The cap bounds the size of a Weyl orbit enumerated by ``weyl_traverse``
    or by the orbit expansion of ``label_character``.
    """
    import os

    env = os.environ.get("TWINEFOLD_WEYL_CAP")
    if not env:
        return DEFAULT_WEYL_CAP
    try:
        cap = int(env)
        if cap < 0:
            raise ValueError
    except ValueError:
        raise RootSystemError(
            f"TWINEFOLD_WEYL_CAP must be a non-negative integer, got {env!r}"
        ) from None
    return cap


class RootSystemError(ValueError):
    pass


def parse_type_label(label: str) -> tuple[str, int]:
    """Split e.g. 'C3' into ('C', 3)."""
    family = label.rstrip("0123456789")
    rank = label[len(family):]
    if not family.isalpha() or not rank:
        raise RootSystemError(
            f"bad type label {label!r}: expected a family and a rank, e.g. A5"
        )
    return family, int(rank)


# ---------------------------------------------------------------------------
# Cartan matrices of the simple types
# ---------------------------------------------------------------------------


@lru_cache(maxsize=None)
def standard_cartan_matrix(family: str, rank: int) -> tuple[tuple[int, ...], ...]:
    """Cartan matrix A[i][j] = <alpha_j, alpha_i^vee> in Bourbaki numbering."""
    n = rank
    a = [[2 * int(i == j) for j in range(n)] for i in range(n)]

    def chain(i, j):
        a[i][j] = -1
        a[j][i] = -1

    if family == "A":
        if n < 1:
            raise RootSystemError("A_n needs n >= 1")
        for i in range(n - 1):
            chain(i, i + 1)
    elif family in ("B", "C"):
        if n < 2:
            raise RootSystemError(f"{family}_n needs n >= 2")
        for i in range(n - 1):
            chain(i, i + 1)
        # B: last simple root short; C: last simple root long
        if family == "B":
            a[n - 2][n - 1] = -1
            a[n - 1][n - 2] = -2
        else:
            a[n - 2][n - 1] = -2
            a[n - 1][n - 2] = -1
    elif family == "D":
        if n < 4:
            raise RootSystemError("D_n needs n >= 4")
        for i in range(n - 3):
            chain(i, i + 1)
        chain(n - 3, n - 2)
        chain(n - 3, n - 1)
    elif family == "E":
        if n != 6:
            raise RootSystemError("only E6 is supported")
        # Bourbaki: node 2 attaches to node 4 of the chain 1-3-4-5-6
        pairs = [(0, 2), (2, 3), (3, 4), (4, 5), (1, 3)]
        for i, j in pairs:
            chain(i, j)
    elif family == "F":
        if n != 4:
            raise RootSystemError("only F4 is supported")
        chain(0, 1)
        chain(2, 3)
        a[1][2] = -1
        a[2][1] = -2
    elif family == "G":
        if n != 2:
            raise RootSystemError("only G2 is supported")
        # alpha_1 long, alpha_2 short
        a[0][1] = -1
        a[1][0] = -3
    else:
        raise RootSystemError(f"unknown family {family!r}")
    return tuple(tuple(row) for row in a)


def _root_half_lengths(cartan) -> tuple[Fraction, ...]:
    """d_i = (alpha_i, alpha_i)/2 of an irreducible Cartan matrix, with the
    longest roots at squared length 2: d_i A_ij = d_j A_ji solved along the
    edges of the Dynkin diagram from node 0, then scaled."""
    d = {0: Fraction(1)}
    stack = [0]
    while stack:
        i = stack.pop()
        for j, a in enumerate(cartan[i]):
            if a and j not in d:
                d[j] = d[i] * a / cartan[j][i]
                stack.append(j)
    top = max(d.values())
    return tuple(d[i] / top for i in range(len(cartan)))


# ---------------------------------------------------------------------------
# core containers
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class FiniteAbelianGroup:
    """Invariant-factor form d_1 | d_2 | ... of a finite abelian group."""

    invariant_factors: tuple[int, ...]

    def __post_init__(self):
        for d, e in itertools.pairwise(self.invariant_factors):
            if e % d != 0:
                raise ValueError("invariant factors must form a divisor chain")
        if any(d <= 1 for d in self.invariant_factors):
            raise ValueError("invariant factors must exceed 1")

    @property
    def order(self) -> int:
        return prod(self.invariant_factors)

    @property
    def is_trivial(self) -> bool:
        return not self.invariant_factors


class Lattice:
    """Z-span of linearly independent rational vectors: integer rows over one
    denominator ``den`` (the vectors row / den), kept in lowest terms, with
    their Hermite normal form built once (``linalg.hermite_normal_form``).
    The rank of that form is the independence check, and ``hermite``, the
    form over ``den``, is the same pair for every basis of the lattice, so
    ``lattice_eq`` compares it.  v lies in the lattice exactly when den v is
    an integer vector that reduces to zero against the form, so membership
    never solves a rational system; sublattice tests and quotients read the
    rows of the smaller lattice in those coordinates, and the ``Fraction``
    basis is built only when read.
    """

    def __init__(self, den: int, rows, ambient_dim: int):
        self._den, self._rows = reduced_rows(den, rows)
        self.ambient_dim = ambient_dim
        self._hnf = hermite_normal_form(self._rows)
        if len(self._hnf) != len(self._rows):
            raise ValueError("lattice basis must be linearly independent")
        self.hermite = (self._den, tuple(row for _, row in self._hnf))

    @cached_property
    def basis(self) -> tuple[Vec, ...]:
        den = self._den
        return tuple(tuple(Fraction(x, den) for x in r) for r in self._rows)

    def __repr__(self) -> str:
        return f"Lattice(basis={self.basis!r}, ambient_dim={self.ambient_dim!r})"

    @property
    def rank(self) -> int:
        return len(self._rows)

    def _row_coords(self, row, den: int) -> list[int] | None:
        """Integer coordinates of the vector row / den in the Hermite rows,
        for an integer row; None when it is off the lattice."""
        w = []
        for x in row:
            q, r = divmod(x * self._den, den)
            if r:
                return None
            w.append(q)
        return hermite_coords(self._hnf, w)

    def contains(self, v: Vec) -> bool:
        den, (row,) = scaled_rows([v])
        return self._row_coords(row, den) is not None


def is_sublattice(sub: Lattice, sup: Lattice) -> bool:
    return all(sup._row_coords(r, sub._den) is not None for r in sub._rows)


def lattice_eq(a: Lattice, b: Lattice) -> bool:
    return a.hermite == b.hermite


def lattice_quotient(sub: Lattice, sup: Lattice) -> FiniteAbelianGroup:
    """Torsion of sup/sub for a sublattice of any rank: the invariant factors
    above 1 of sub's basis in the coordinates of sup's Hermite rows, which
    differ from those in any other basis of sup by a unimodular change.  At
    equal ranks this is the whole quotient."""
    rows = []
    for r in sub._rows:
        c = sup._row_coords(r, sub._den)
        if c is None:
            raise ValueError("first lattice is not contained in the second")
        rows.append(c)
    return FiniteAbelianGroup(tuple(d for d in invariant_factors(rows) if d != 1))


def lattice_index(sub: Lattice, sup: Lattice) -> int:
    if sub.rank != sup.rank:
        raise ValueError("lattice ranks differ; quotient is infinite")
    return lattice_quotient(sub, sup).order


# ---------------------------------------------------------------------------
# sparse exponential-sum polynomials
# ---------------------------------------------------------------------------


class FourierPolynomial:
    """Sparse integer combination of formal exponentials e^mu.

    Keys are ambient vectors (the weights mu); multiplication is convolution,
    conjugation negates all weights.  This is the exact carrier of characters
    restricted to a torus.
    """

    __slots__ = ("terms",)

    def __init__(self, terms=None):
        self.terms: dict[Vec, int] = {}
        if terms:
            for k, v in dict(terms).items():
                if v != 0:
                    self.terms[k] = int(v)

    @classmethod
    def constant(cls, dim: int, value: int = 1) -> "FourierPolynomial":
        return cls({zero_vec(dim): value} if value else {})

    def constant_term(self, dim: int) -> int:
        return self.terms.get(zero_vec(dim), 0)

    @property
    def total_mass(self) -> int:
        return sum(self.terms.values())

    def __bool__(self) -> bool:
        return bool(self.terms)

    def __eq__(self, other) -> bool:
        return isinstance(other, FourierPolynomial) and self.terms == other.terms

    def __add__(self, other: "FourierPolynomial") -> "FourierPolynomial":
        out = dict(self.terms)
        for k, v in other.terms.items():
            c = out.get(k, 0) + v
            if c:
                out[k] = c
            else:
                out.pop(k, None)
        return FourierPolynomial(out)

    def __sub__(self, other: "FourierPolynomial") -> "FourierPolynomial":
        return self + other.scaled(-1)

    def scaled(self, c: int) -> "FourierPolynomial":
        if c == 0:
            return FourierPolynomial({})
        return FourierPolynomial({k: c * v for k, v in self.terms.items()})

    def __mul__(self, other: "FourierPolynomial") -> "FourierPolynomial":
        out: dict[Vec, int] = {}
        small, big = sorted((self.terms, other.terms), key=len)
        for ka, va in small.items():
            for kb, vb in big.items():
                k = vadd(ka, kb)
                c = out.get(k, 0) + va * vb
                if c:
                    out[k] = c
                else:
                    out.pop(k, None)
        return FourierPolynomial(out)

    def conj(self) -> "FourierPolynomial":
        return FourierPolynomial({vneg(k): v for k, v in self.terms.items()})

    def evaluate(self, gram: Matrix, xi: Vec) -> complex:
        """Numeric value sum_mu c_mu e^{2 pi i (mu, xi)}.

        Phases are reduced mod 1 exactly before exponentiation and the parts
        are accumulated with fsum, so the result is accurate to a few ulps
        even with heavy cancellation.
        """
        gx = mat_vec(gram, xi)
        res, ims = [], []
        for muv, c in self.terms.items():
            phase = sum((a * b for a, b in zip(muv, gx)), ZERO)
            angle = 2 * pi * float(phase - (phase.numerator // phase.denominator))
            res.append(c * cos(angle))
            ims.append(c * sin(angle))
        return complex(fsum(res), fsum(ims))

    def __repr__(self):
        return f"FourierPolynomial({len(self.terms)} terms)"


class WeylOverflowError(RuntimeError):
    pass


# ---------------------------------------------------------------------------
# RootDatum
# ---------------------------------------------------------------------------


class RootDatum:
    """A realized root system with the exact form of its ambient space.

    The system is reduced: its roots are the reflection closure of the
    simple roots.  The Cartan matrix is computed once, from the simple roots.
    A given ``type_label`` is checked against it (RootSystemError "... not of
    type ..." on a mismatch); ``None`` classifies the system instead,
    reducible ones as 'X+Y' (sorted).

    It is built from the simple roots and the ambient form as integer rows
    over one denominator, (den, rows) pairs (``linalg.scaled_rows`` makes
    one from ``Fraction`` vectors).  Construction computes the integer data
    and runs every check on it: the Cartan matrix, the positive roots as
    integer numerators ``_pos_num`` and labels ``_pos_labels`` (both from one
    closure), the form ``_form`` over ``_form_den``, the squared lengths
    ``_pos_norms``, |W| from the root heights (``weyl_order``) and the rows
    of the ambient form (``gram_rows``), roots, coroots, weights and
    coweights.  ``highest_root`` and ``highest_short_root`` are picked by
    those integer lengths.  The ``Fraction`` views (``simple_roots`` and
    ``ambient_gram`` among them) and the data of points and of theta are
    built on first read (``functools.cached_property``).  No value changes
    after construction, and every operation is a pure function of the inputs.
    """

    def __init__(self, type_label: str | None, simple_rows, gram_rows):
        # integer numerators: alpha_i = a[i] / alpha_den and G = g / g_den, so
        # G alpha_i = ga[i] / (g_den alpha_den) and (alpha_i, alpha_j) =
        # gram[i][j] / (g_den alpha_den^2)
        alpha_den, a = reduced_rows(*simple_rows)
        g_den, g = self.gram_rows = gram_rows
        self.rank, self.ambient_dim = len(a), len(g)
        ga = [[sum(map(mul, row, ai)) for row in g] for ai in a]
        gram = [[sum(map(mul, ai, gb)) for gb in ga] for ai in a]
        self.cartan = tuple(
            tuple(_as_int(2 * gij, row[i]) for gij in row) for i, row in enumerate(gram)
        )
        if type_label is None:
            type_label = _classify_system(self.cartan)
        else:
            _check_type(self.cartan, type_label)
        self.type_label = type_label

        closure = _positive_roots_by_closure(self.cartan)
        pos_coords = list(closure)
        self._pos_labels = tuple(closure.values())
        expected = sum(
            _ROOT_COUNTS[family](rank)
            for family, rank in map(parse_type_label, type_label.split("+"))
        )
        if 2 * len(pos_coords) != expected:
            raise RootSystemError(
                f"{type_label}: closure produced {2 * len(pos_coords)} roots, "
                f"expected {expected}"
            )
        self.weyl_order = _weyl_order(pos_coords)
        # ambient coordinate k of sum_j c_j alpha_j is (c . alpha_num[k]) / alpha_den
        alpha_num = tuple(zip(*a))
        self._alpha_den = alpha_den
        self._simple_num = tuple(map(tuple, a))
        # 2 / (alpha_i, alpha_i) = 2 g_den alpha_den^2 / gram[i][i], written
        # as scale[i] alpha_den / norm_den over one denominator
        norm_den = lcm(*(row[i] for i, row in enumerate(gram)))
        self._coroot_scale = norm_den, tuple(
            2 * g_den * alpha_den * (norm_den // row[i]) for i, row in enumerate(gram)
        )
        # the positive roots' numerators over alpha_den, in _pos_labels order
        self._pos_num = tuple(
            tuple(sum(map(mul, c, row)) for row in alpha_num) for c in pos_coords
        )
        # twice rho in simple-root coordinates, then its numerators over alpha_den
        rho2 = [sum(col) for col in zip(*pos_coords)]
        self._rho2_num = tuple(sum(map(mul, rho2, row)) for row in alpha_num)

        # fundamental weights: <w_i, alpha_j^vee> = delta_ij inside the span,
        # i.e. the columns of A^-1 in simple-root coordinates
        cinv_num, cinv_den = integer_inverse(self.cartan)
        gram_den = g_den * alpha_den * alpha_den
        self._init_label_frame(cinv_num, cinv_den, gram, gram_den, alpha_num)
        # rho = sum_i omega_i, cross-multiplied over alpha_den cinv_den
        if any(
            cinv_den * x != 2 * sum(row) for x, row in zip(self._rho2_num, self._omega_num)
        ):
            raise RootSystemError(
                "half-sum of positive roots disagrees with the sum of "
                "fundamental weights"
            )
        # squared lengths, each once, over D = _form_den: with coordinates c
        # and labels m, (beta, beta) = sum_i c_i m_i (alpha_i, alpha_i) / 2, and
        # (alpha_i, alpha_i) is gram[i][i] / gram_den; _pos_norms[i] is that of
        # the root _pos_num[i].  theta and the highest short root are the
        # dominant roots of the largest and the smallest length (None for
        # reducible systems).
        half = [self._form_den * row[i] for i, row in enumerate(gram)]
        self._pos_norms = tuple(
            _as_int(sum(map(mul, map(mul, c, m), half)), 2 * gram_den)
            for c, m in closure.items()
        )
        self._theta_index = self._dominant_index(max(self._pos_norms))
        self.highest_root = self._root_vector(self._theta_index)
        self.highest_short_root = self._root_vector(
            self._dominant_index(min(self._pos_norms))
        )

        self._char_cache: dict[Vec, FourierPolynomial] = {}
        self._label_char_cache: dict[Labels, dict[Labels, int]] = {}
        self._signed_orbit_cache: dict[Labels, list[tuple[Labels, int]]] = {}
        self._label_dim_cache: dict[Labels, int] = {}

    def _init_label_frame(
        self, cinv_num, cinv_den: int, gram, gram_den: int, alpha_num
    ) -> None:
        """Integer data for weights given by their Dynkin labels.

        A weight mu = sum_i m_i omega_i is the integer tuple m with
        m_i = <mu, alpha_i^vee>.  Column j of the Cartan matrix holds the
        labels of alpha_j, so s_j is m -> m - m_j * column j.  The form is
        (mu, nu) = m^T F n / D with the integer matrix F = D (omega_i, omega_j),
        where (omega_i, omega_j) = (A^-1)_ij (alpha_i, alpha_i) / 2; A^-1 is
        ``cinv_num / cinv_den`` and (alpha_i, alpha_i) is
        ``gram[i][i] / gram_den``.
        """
        self._alpha_labels = tuple(zip(*self.cartan))
        # D is the least common denominator: F and D share no factor
        form = [[x * gram[i][i] for x in row] for i, row in enumerate(cinv_num)]
        self._form_den, self._form = reduced_rows(2 * cinv_den * gram_den, form)
        # D (nu, rho) = nu . (F rho), with rho = (1, ..., 1) in labels
        self._rho_covector = tuple(sum(row) for row in self._form)
        # ambient coordinate k of sum_i m_i omega_i is (m . omega_num[k]) / omega_den:
        # omega_i has simple-root coordinates column i of A^-1 = cinv_num / cinv_den
        self._omega_num = tuple(
            tuple(sum(map(mul, row, col)) for col in zip(*cinv_num)) for row in alpha_num
        )
        self._omega_den = self._alpha_den * cinv_den

    # -- Fraction views of the integer data, each built on first read ------

    @cached_property
    def simple_roots(self) -> tuple[Vec, ...]:
        den = self._alpha_den
        return tuple(tuple(Fraction(x, den) for x in row) for row in self._simple_num)

    @cached_property
    def ambient_gram(self) -> Matrix:
        den, rows = self.gram_rows
        return tuple(tuple(Fraction(x, den) for x in row) for row in rows)

    @cached_property
    def positive_roots(self) -> tuple[Vec, ...]:
        """The positive roots, by height and then simple-root coordinates."""
        return tuple(map(self._root_vector, range(len(self._pos_num))))

    @cached_property
    def weyl_vector(self) -> Vec:
        return tuple(Fraction(x, 2 * self._alpha_den) for x in self._rho2_num)

    @cached_property
    def fundamental_weights(self) -> tuple[Vec, ...]:
        return tuple(
            self.from_labels(tuple(int(i == j) for j in range(self.rank)))
            for i in range(self.rank)
        )

    @cached_property
    def _root_covectors(self) -> tuple[tuple[int, ...], ...]:
        # D (nu, alpha) = nu . (F a) for each positive root alpha, in _pos_labels order
        return tuple(
            tuple(sum(map(mul, row, a)) for row in self._form) for a in self._pos_labels
        )

    @cached_property
    def _coroot_covectors(self) -> tuple[Vec, ...]:
        # G alpha_i^vee = g c_i / (g_den c_den) for the coroot rows c_i, so
        # each pairing <v, alpha_i^vee> is one dot product
        (g_den, g), (c_den, coroots) = self.gram_rows, self.coroot_rows()
        return tuple(
            tuple(Fraction(sum(map(mul, row, c)), g_den * c_den) for row in g)
            for c in coroots
        )

    # -- basic geometry ----------------------------------------------------

    def inner(self, u: Vec, v: Vec) -> Fraction:
        return bilinear(self.ambient_gram, u, v)

    def norm_sq(self, v: Vec) -> Fraction:
        return self.inner(v, v)

    def coroot(self, alpha: Vec) -> Vec:
        return vscale(2 / self.norm_sq(alpha), alpha)

    def pairings(self, v: Vec) -> tuple[Fraction, ...]:
        """The pairings <v, alpha_i^vee> with the simple coroots, one dot each."""
        return tuple(vdot(v, c) for c in self._coroot_covectors)

    def labels_of(self, v: Vec) -> Labels:
        """Dynkin labels of the weight v of this datum.

        Raises RootSystemError when v is off the weight lattice or outside the
        root span (the labels alone would drop the orthogonal part).
        """
        labels = self.pairings(v)
        if any(m.denominator != 1 for m in labels):
            raise RootSystemError(f"{v} is not on the weight lattice")
        labels = tuple(int(m) for m in labels)
        if self.from_labels(labels) != tuple(v):
            raise RootSystemError(f"{v} lies outside the root span")
        return labels

    def from_labels(self, labels: Labels) -> Vec:
        """The ambient vector sum_i m_i omega_i."""
        den = self._omega_den
        return tuple(
            Fraction(sum(m * w for m, w in zip(labels, row)), den)
            for row in self._omega_num
        )

    # -- lattice generators: (den, rows), the vectors row / den, one per node

    def root_rows(self) -> tuple[int, tuple[tuple[int, ...], ...]]:
        """The simple roots."""
        return self._alpha_den, self._simple_num

    def coroot_rows(self) -> tuple[int, tuple[tuple[int, ...], ...]]:
        """The simple coroots 2 alpha_i / (alpha_i, alpha_i)."""
        den, scale = self._coroot_scale
        return den, tuple(tuple(s * x for x in a) for s, a in zip(scale, self._simple_num))

    def weight_rows(self) -> tuple[int, tuple[tuple[int, ...], ...]]:
        """The fundamental weights."""
        return self._omega_den, tuple(zip(*self._omega_num))

    def coweight_rows(self) -> tuple[int, tuple[tuple[int, ...], ...]]:
        """The fundamental coweights (2 / (alpha_i, alpha_i)) omega_i, the
        basis dual to the simple roots."""
        (den, scale), ad = self._coroot_scale, self._alpha_den
        return den * self._omega_den, tuple(
            tuple(s * ad * x for x in w) for s, w in zip(scale, zip(*self._omega_num))
        )

    # -- points in simple-coroot coordinates, built on first read ------------

    @cached_property
    def _weight_covectors(self) -> tuple[int, tuple[tuple[int, ...], ...]]:
        # G omega_j = g w_j / (g_den w_den): one integer row per weight
        (g_den, g), (w_den, weights) = self.gram_rows, self.weight_rows()
        return g_den * w_den, tuple(
            tuple(sum(map(mul, row, w)) for row in g) for w in weights
        )

    def coroot_coords(self, xi: Vec) -> tuple[tuple[int, ...], int]:
        """The pairings <omega_j, xi> as integer numerators over their least
        common denominator.

        For xi in the coroot span these are its coordinates in the simple
        coroots, as <omega_j, alpha_i^vee> = delta_ij.  A weight with labels m
        pairs with xi as sum_j m_j nums_j / den, so each phase is reduced
        mod 1 in integers.
        """
        den, rows = self._weight_covectors
        x_den, (x,) = scaled_rows([xi])
        nums = [sum(map(mul, row, x)) for row in rows]
        g = gcd(den * x_den, *nums)
        return tuple(n // g for n in nums), den * x_den // g

    def from_coroot_coords(self, nums, den: int) -> Vec:
        """sum_j (nums_j / den) alpha_j^vee, the inverse of ``coroot_coords``
        on the coroot span."""
        c_den, rows = self.coroot_rows()
        return tuple(Fraction(sum(map(mul, nums, col)), den * c_den) for col in zip(*rows))

    # -- theta and the extended Dynkin diagram, built on first read ---------

    @cached_property
    def theta_labels(self) -> Labels:
        """The Dynkin labels t of the highest root theta."""
        return self._pos_labels[self._theta_index]

    @cached_property
    def comarks(self) -> tuple[int, ...]:
        """a_i^vee = <omega_i, theta^vee> = 2 (F t)_i / tFt, the coefficients
        of theta^vee in the simple coroots: positive integers."""
        i = self._theta_index
        marks = [divmod(2 * x, self._pos_norms[i]) for x in self._root_covectors[i]]
        if any(r for _, r in marks):
            raise RootSystemError(
                "theta^vee is not an integer combination of the simple coroots"
            )
        if any(a <= 0 for a, _ in marks):
            raise RootSystemError("a fundamental weight pairs non-positively with theta")
        return tuple(a for a, _ in marks)

    @cached_property
    def extended_cartan(self) -> tuple[tuple[int, ...], ...]:
        """c_ij = <a_j, a_i^vee> over the nodes of the extended Dynkin
        diagram: the simple roots, then -theta (Kac, Infinite-Dimensional Lie
        Algebras, 6.1).  <-theta, alpha_i^vee> = -t_i, and as
        theta^vee = sum_i a_i^vee alpha_i^vee, <alpha_j, -theta^vee> is
        -sum_i a_i^vee A_ij."""
        marks = self.comarks
        last = tuple(-sum(map(mul, marks, col)) for col in self._alpha_labels)
        return tuple(
            row + (-t,) for row, t in zip(self.cartan, self.theta_labels)
        ) + (last + (2,),)

    @cached_property
    def classical_frame(self) -> tuple[str, tuple[int, ...]] | None:
        """(family, p) for a datum of type A1, B_n or C_n, where Bourbaki node
        i is node p[i] of this datum (the first of ``cartan_isomorphisms``);
        None for every other type, reducible ones included.  Weyl's alternant
        for these types is read in this frame (``fusion``)."""
        if "+" in self.type_label:
            return None
        family, rank = parse_type_label(self.type_label)
        if (family, rank) == ("A", 1):
            return family, (0,)
        if family not in ("B", "C"):
            return None
        return family, next(
            cartan_isomorphisms(self.cartan, standard_cartan_matrix(family, rank))
        )

    # -- misc ----------------------------------------------------------------

    def _dominant_index(self, target: int) -> int | None:
        """Index of the dominant positive root with D (alpha, alpha) =
        ``target``; None for reducible systems.  Dominance is read off the
        integer labels of the roots."""
        for i, (n, m) in enumerate(zip(self._pos_norms, self._pos_labels)):
            if n == target and all(x >= 0 for x in m):
                return i
        return None

    def _root_vector(self, i: int | None) -> Vec | None:
        """The ambient vector of positive root i, None for None."""
        if i is None:
            return None
        den = self._alpha_den
        return tuple(Fraction(x, den) if x else ZERO for x in self._pos_num[i])

    def __repr__(self):
        return f"RootDatum({self.type_label}, rank={self.rank})"


def _as_int(n: int, d: int) -> int:
    """n / d as an int; RootSystemError when d does not divide n."""
    q, r = divmod(n, d)
    if r:
        raise RootSystemError(f"expected an integer, got {Fraction(n, d)}")
    return q


def _positive_roots_by_closure(cartan) -> dict[tuple[int, ...], Labels]:
    """Positive roots as integer simple-root coordinate tuples, each mapped
    to its Dynkin labels, by height and then coordinates.

    Reflection closure upward from the simple roots.  For a positive root
    beta other than alpha_i, s_i beta = beta - <beta, alpha_i^vee> alpha_i is
    positive; it is higher when the pairing is negative.  A positive root
    that is not simple pairs positively with some alpha_i (its squared length
    is positive), and s_i lowers it, so every positive root is reached from a
    simple root by raising steps alone (Humphreys, Introduction to Lie
    Algebras and Representation Theory, 10.2).  The pairings the closure
    reads are beta's labels.
    """
    rank = len(cartan)
    # the labels of alpha_i are column i of A, and gamma = beta - p alpha_i
    # has the labels of beta less p times that column
    columns = tuple(zip(*cartan))
    labels = {tuple(int(i == j) for j in range(rank)): columns[i] for i in range(rank)}
    frontier = list(labels)
    while frontier:
        nxt = []
        for beta in frontier:
            pairings = labels[beta]
            for i, p in enumerate(pairings):
                if p < 0:
                    gamma = beta[:i] + (beta[i] - p,) + beta[i + 1:]
                    if gamma not in labels:
                        labels[gamma] = tuple(m - p * c for m, c in zip(pairings, columns[i]))
                        nxt.append(gamma)
        frontier = nxt
    return {r: labels[r] for r in sorted(labels, key=lambda r: (sum(r), r))}


def _weyl_order(pos_coords) -> int:
    """|W| = prod over the positive roots of (ht a + 1) / ht a, from their
    simple-root coordinates (Macdonald, Math. Ann. 199 (1972)); it holds for
    reducible systems, and is 1 for rank 0."""
    heights = [sum(c) for c in pos_coords]
    return prod(h + 1 for h in heights) // prod(heights)


# ---------------------------------------------------------------------------
# construction and classification
# ---------------------------------------------------------------------------

_ROOT_COUNTS = {
    "A": lambda n: n * (n + 1),
    "B": lambda n: 2 * n * n,
    "C": lambda n: 2 * n * n,
    "D": lambda n: 2 * n * (n - 1),
    "E": lambda n: 72,
    "F": lambda n: 48,
    "G": lambda n: 12,
}


def build_root_datum(type_label: str) -> RootDatum:
    """Realize a simple type in its simple-root coefficient space.

    Long roots have squared length 2.  Every family is reduced: the
    non-reduced BC_n, the folded system of A_2n, exists only inside a folding
    (``folding.FoldedSystem``), and 'BC' is an unknown family here.
    """
    family, rank = parse_type_label(type_label)
    label = f"{family}{rank}"
    cartan = standard_cartan_matrix(family, rank)
    # the Gram matrix d_i A_ij over the common denominator of the d_i
    den, (d,) = scaled_rows([_root_half_lengths(cartan)])
    gram = [[x * a for a in row] for x, row in zip(d, cartan)]
    # sanity: the Gram matrix must come out symmetric
    if gram != [list(col) for col in zip(*gram)]:
        raise RootSystemError("inconsistent length assignment")
    units = tuple(tuple(int(i == j) for j in range(rank)) for i in range(rank))
    return RootDatum(label, (1, units), reduced_rows(den, gram))


def cartan_isomorphisms(a, b):
    """Yield every permutation p with a[p[i]][p[j]] == b[i][j], in
    lexicographic order.

    Backtracking over the nodes of b: node k goes to an unused node c of a
    only where a[c][c] == b[k][k] and c pairs with the images of nodes
    0..k-1 as k pairs with those nodes, so only partial isomorphisms are
    ever extended.
    """
    n = len(a)
    if len(b) != n:
        return
    perm: list[int] = []
    used = [False] * n

    def extend(k: int):
        if k == n:
            yield tuple(perm)
            return
        for c in range(n):
            if not used[c] and a[c][c] == b[k][k] and all(
                a[p][c] == b[j][k] and a[c][p] == b[k][j] for j, p in enumerate(perm)
            ):
                used[c] = True
                perm.append(c)
                yield from extend(k + 1)
                perm.pop()
                used[c] = False

    yield from extend(0)


def cartan_matrices_match(a, b) -> bool:
    """Permutation equivalence of two integer Cartan matrices."""
    return next(cartan_isomorphisms(a, b), None) is not None


def _check_type(cartan, label: str) -> None:
    """Raise RootSystemError unless the Cartan matrix is of type ``label``."""
    family, rank = parse_type_label(label)
    if not cartan_matrices_match(cartan, standard_cartan_matrix(family, rank)):
        raise RootSystemError(f"simple system is not of type {label}")


def _classify_cartan(cartan) -> str:
    """Type label of an irreducible integer Cartan matrix: the first family,
    A to G, whose ``standard_cartan_matrix`` at that rank exists and matches.

    B2/C2 are abstractly isomorphic; this returns 'B2' for that shape.
    """
    n = len(cartan)
    # a relabeling permutes the off-diagonal entries, so their sorted list
    # rejects most wrong candidates before the search
    entries = _off_diagonal(cartan)
    for family in "ABCDEFG":
        try:
            standard = standard_cartan_matrix(family, n)
        except RootSystemError:
            continue
        if _off_diagonal(standard) == entries and cartan_matrices_match(cartan, standard):
            return f"{family}{n}"
    raise RootSystemError("simple system does not match any supported type")


def _off_diagonal(cartan) -> list[int]:
    return sorted(x for i, row in enumerate(cartan) for j, x in enumerate(row) if i != j)


def _classify_system(cartan) -> str:
    """Type label of an integer Cartan matrix, reducible ones as 'X+Y'
    (sorted): one label per connected component of the Dynkin diagram."""
    n = len(cartan)
    # connected components of the Dynkin diagram: the non-zero Cartan entries
    comps: list[list[int]] = []
    seen: set[int] = set()
    for start in range(n):
        if start in seen:
            continue
        comp = [start]
        seen.add(start)
        stack = [start]
        while stack:
            i = stack.pop()
            for j in range(n):
                if cartan[i][j] and j not in seen:
                    seen.add(j)
                    comp.append(j)
                    stack.append(j)
        comps.append(sorted(comp))
    labels = [
        _classify_cartan([[cartan[i][j] for j in comp] for i in comp]) for comp in comps
    ]
    return "+".join(sorted(labels))


# ---------------------------------------------------------------------------
# signed Weyl orbits
# ---------------------------------------------------------------------------


def _orbit_levels(datum: RootDatum, labels: Labels):
    """Yield the Weyl orbit of dominant ``labels`` one length at a time.

    Reflecting u by s_i only where its label m_i > 0 lengthens the minimal
    coset representative of u by one, so the orbit is reached breadth-first
    and elements of different depths never coincide.
    """
    alpha_labels = datum._alpha_labels
    frontier = [labels]
    while frontier:
        yield frontier
        # one dict per depth keeps the order and drops repeats
        nxt: dict[Labels, None] = {}
        for u in frontier:
            for m, a in zip(u, alpha_labels):
                if m > 0:
                    nxt[tuple(x - m * y for x, y in zip(u, a))] = None
        frontier = list(nxt)


def _check_orbit(datum: RootDatum, mu: Labels, cap: int) -> None:
    """WeylOverflowError when the orbit of dominant labels mu, of size
    |W| / |W_mu|, exceeds ``cap``; W_mu is the Weyl group of the Cartan
    submatrix at the zero labels of mu, whose order is read off its
    positive roots only when |W| > cap."""
    if datum.weyl_order > cap:
        zeros = [i for i, m in enumerate(mu) if m == 0]
        stabilizer = [[datum.cartan[i][j] for j in zeros] for i in zeros]
        if datum.weyl_order // _weyl_order(_positive_roots_by_closure(stabilizer)) > cap:
            raise WeylOverflowError(f"Weyl orbit exceeds the traversal cap {cap}")


def weyl_traverse(datum: RootDatum, labels: Labels):
    """Yield (det w, w.v) once for every Weyl element w, identity first.

    ``labels`` are the integer Dynkin labels <v, alpha_i^vee> of a regular
    dominant weight v, so w -> w.v is a bijection and the orbit stands in for
    the group; w.v is given by its labels too.  The search reflects u
    by s_i only when its label m_i > 0, which lengthens w by one, so
    det w = (-1)^length(w) is the parity of the breadth-first depth (Humphreys,
    Reflection Groups and Coxeter Groups, 1.6-1.8).  A regular orbit has
    |W| elements, so ``_check_orbit`` raises before the first one when
    ``datum.weyl_order`` exceeds ``resolve_weyl_cap()``.
    """
    cap = resolve_weyl_cap()
    if any(m <= 0 for m in labels):
        raise RootSystemError("weight must be regular dominant integral")
    _check_orbit(datum, labels, cap)
    sign = 1
    for level in _orbit_levels(datum, labels):
        for u in level:
            yield sign, u
        sign = -sign


def signed_orbit(datum: RootDatum, labels: Labels) -> list[tuple[Labels, int]]:
    """J(labels) = sum_w det w e^{w.labels} as (labels of w.labels, det w)
    pairs, from ``weyl_traverse``.  Memoized on the datum: callers must not
    mutate the result."""
    orbit = datum._signed_orbit_cache.get(labels)
    if orbit is None:
        orbit = datum._signed_orbit_cache[labels] = [
            (u, sign) for sign, u in weyl_traverse(datum, labels)
        ]
    return orbit


# ---------------------------------------------------------------------------
# dimensions, multiplicities, characters
# ---------------------------------------------------------------------------


def dominant_labels(datum: RootDatum, lam: Vec) -> Labels:
    """Dynkin labels of a dominant integral highest weight."""
    labels = datum.labels_of(lam)
    if any(m < 0 for m in labels):
        raise RootSystemError("weight must be dominant and integral")
    return labels


def label_dimension(datum: RootDatum, lam: Labels) -> int:
    """Weyl dimension of the irrep with dominant labels ``lam``, in integers.

    prod (lam+rho, alpha) / (rho, alpha) over the positive roots, each pairing
    one dot product of lam + rho with D (., alpha) (``_root_covectors``).
    Memoized on the datum.
    """
    dim = datum._label_dim_cache.get(lam)
    if dim is None:
        shifted = [x + 1 for x in lam]
        num = den = 1
        for cov in datum._root_covectors:
            num *= sum(x * c for x, c in zip(shifted, cov))
            den *= sum(cov)
        dim, rest = divmod(num, den)
        if rest:
            raise RootSystemError(f"Weyl dimension of {lam} is not an integer")
        datum._label_dim_cache[lam] = dim
    return dim


def dominant_conjugate(datum: RootDatum, labels: Labels) -> tuple[int, Labels]:
    """(det w, w.labels) with w.labels in the closed dominant chamber.

    Reflects by the first s_i whose label m_i is negative until none is;
    each step is one more reflection, so det w = (-1)^(number of steps).
    """
    alpha_labels = datum._alpha_labels
    cur, sign = labels, 1
    while True:
        for m, a in zip(cur, alpha_labels):
            if m < 0:
                cur = tuple(x - m * y for x, y in zip(cur, a))
                sign = -sign
                break
        else:
            return sign, cur


def regular_dominant_labels(
    datum: RootDatum, labels: Labels
) -> tuple[int, Labels] | None:
    """(det w, w.labels) with w.labels dominant, or None on a wall.

    A weight lies on a wall exactly when its dominant conjugate has a zero
    label: the stabilizer of a dominant weight is generated by the simple
    reflections that fix it.  A zero label of the weight itself already puts
    it on a wall, which ends most Racah-Speiser terms before any walk.
    """
    if 0 in labels:
        return None
    sign, dom = dominant_conjugate(datum, labels)
    return None if 0 in dom else (sign, dom)


def _dominant_multiplicities(datum: RootDatum, lam: Labels) -> dict[Labels, int]:
    """Freudenthal's formula in Dynkin labels, over the common denominator D.

    m(mu) [(lam+rho, lam+rho) - (mu+rho, mu+rho)]
        = 2 sum_{alpha > 0} sum_{j >= 1} m(mu + j alpha) (mu + j alpha, alpha)

    The dominant weights below lam are closed downward under subtracting
    positive roots (Stembridge, "The partial order of dominant weights",
    Adv. Math. 136 (1998), Cor. 2.7), and they are visited by decreasing
    height (mu, rho), so every m(dom(mu + j alpha)) is known when read.
    """
    form, rho_cov = datum._form, datum._rho_covector
    dominant = {lam}
    frontier = [lam]
    while frontier:
        nxt = []
        for mu in frontier:
            for a in datum._pos_labels:
                nu = tuple(x - y for x, y in zip(mu, a))
                if nu not in dominant and min(nu) >= 0:
                    dominant.add(nu)
                    nxt.append(nu)
        frontier = nxt
    order = sorted(
        dominant, key=lambda mu: (-sum(x * y for x, y in zip(mu, rho_cov)), mu)
    )

    def norm_shifted(mu: Labels) -> int:
        # D (mu + rho, mu + rho)
        v = [x + 1 for x in mu]
        return sum(x * sum(f * y for f, y in zip(row, v)) for x, row in zip(v, form))

    to_dominant: dict[Labels, Labels] = {}
    nlam = norm_shifted(lam)
    mults = {lam: 1}
    for mu in order[1:]:
        total = 0
        for a, cov in zip(datum._pos_labels, datum._root_covectors):
            nu = tuple(x + y for x, y in zip(mu, a))
            while True:
                dom = to_dominant.get(nu)
                if dom is None:
                    dom = to_dominant[nu] = dominant_conjugate(datum, nu)[1]
                # alpha-strings are unbroken: the first non-weight ends the string
                if dom not in dominant:
                    break
                total += mults[dom] * sum(x * c for x, c in zip(nu, cov))
                nu = tuple(x + y for x, y in zip(nu, a))
        mult, rest = divmod(2 * total, nlam - norm_shifted(mu))
        if rest:
            raise RootSystemError(
                f"Freudenthal multiplicity of {mu} in {lam} is not an integer"
            )
        mults[mu] = mult
    return mults


def freudenthal_multiplicities(datum: RootDatum, lam: Vec) -> dict[Vec, int]:
    """Weight multiplicities of the irrep with highest weight ``lam``.

    Returns dominant-weight multiplicities, keyed by ambient vectors; the full
    weight system is the union of the Weyl orbits of the keys.
    """
    mults = _dominant_multiplicities(datum, dominant_labels(datum, lam))
    return {datum.from_labels(mu): m for mu, m in mults.items() if m}


def label_character(datum: RootDatum, lam: Labels) -> dict[Labels, int]:
    """Character of the irrep with dominant highest weight ``lam``, in labels.

    Freudenthal multiplicities on the dominant cone, then Weyl-orbit
    expansion.  Memoized on the datum: callers must not mutate the result.
    Each orbit is checked against the cap before it is expanded, and lam's
    before the recursion (``_check_orbit``).
    """
    terms = datum._label_char_cache.get(lam)
    if terms is None:
        cap = resolve_weyl_cap()
        _check_orbit(datum, lam, cap)
        terms = {}
        for mu, m in _dominant_multiplicities(datum, lam).items():
            if m:
                _check_orbit(datum, mu, cap)
                for level in _orbit_levels(datum, mu):
                    terms.update(dict.fromkeys(level, m))
        datum._label_char_cache[lam] = terms
    return terms


def irreducible_character(datum: RootDatum, lam: Vec) -> FourierPolynomial:
    """Exact character of the irrep with highest weight ``lam``.

    ``label_character`` with its keys taken to ambient vectors; the result is
    W-invariant with highest coefficient 1.  Memoized on the datum: callers
    share the returned polynomial and must not mutate it.
    """
    poly = datum._char_cache.get(lam)
    if poly is None:
        terms = label_character(datum, dominant_labels(datum, lam))
        poly = FourierPolynomial(
            {datum.from_labels(mu): m for mu, m in terms.items()}
        )
        datum._char_cache[lam] = poly
    return poly


def decompose_labels(datum: RootDatum, terms: dict[Labels, int]) -> dict[Labels, int]:
    """Write a label-keyed W-invariant polynomial as a combination of characters.

    Highest-term peel-off: the dominant terms are taken by decreasing height
    (mu, rho), and each peels its character off the whole polynomial.  A
    W-invariant polynomial is then used up; a remainder means the input was
    not W-invariant, and raises.
    """
    rho_cov = datum._rho_covector

    def height(mu: Labels) -> int:
        return sum(x * y for x, y in zip(mu, rho_cov))

    remaining = {mu: c for mu, c in terms.items() if c}
    heap = [(-height(mu), mu) for mu in remaining if min(mu, default=0) >= 0]
    heapify(heap)
    queued = {mu for _, mu in heap}
    out: dict[Labels, int] = {}
    while heap:
        mu = heappop(heap)[1]
        m = remaining.get(mu)
        if not m:
            continue
        out[mu] = m
        # chi_mu has coefficient 1 at mu and lower terms elsewhere
        for v, c in label_character(datum, mu).items():
            r = remaining.get(v, 0) - m * c
            if r:
                remaining[v] = r
            else:
                remaining.pop(v, None)
            if v not in queued and min(v, default=0) >= 0:
                queued.add(v)
                heappush(heap, (-height(v), v))
    if remaining:
        mu = max(remaining, key=lambda v: (height(v), v))
        raise RootSystemError(
            "input is not Weyl-invariant: highest remaining term "
            f"{datum.from_labels(mu)} is not dominant integral"
        )
    return out


def decompose_into_irreducibles(
    datum: RootDatum, poly: FourierPolynomial
) -> dict[Vec, int]:
    """Write a W-invariant polynomial as an integer combination of characters.

    Highest-term peel-off in Dynkin labels (``decompose_labels``); raises if
    the input is not a virtual character on the weight lattice of the datum.
    """
    terms = {datum.labels_of(v): c for v, c in poly.terms.items()}
    return {
        datum.from_labels(mu): m for mu, m in decompose_labels(datum, terms).items()
    }
