"""Dynkin diagram automorphisms and folded/orbit root systems.

A diagram automorphism kappa is a node permutation, and only that: its
cycles are the node orbits, and its order is the lcm of their lengths.

Everything is realized inside the simple-root coordinate space of the base
system, where kappa permutes coordinates: the fixed subspace of the node
permutation, the projection onto it (each coordinate averaged over its node
orbit), the folded root system (projection image), the orbit root system
(coroot-direction rescaling), and the whole family of lattices these carry.
The lattices are built from integer rows: each datum's simple roots,
coroots, fundamental weights and coweights over one denominator
(``RootDatum.root_rows`` and its siblings), summed over node orbits or
projected in units of 1/|kappa|; equal rows give one ``Lattice`` per fold,
and the identities compare Hermite normal forms (``rootcore.lattice_eq``).
The names, identities and index-2 quotients are written once, in the tables
``LATTICES``, ``LATTICE_IDENTITIES`` and ``INDEX_TWO_PAIRS``.
The folded and orbit data are realized from such rows too: the projected
simple roots, then the folded datum's coroots.  The finite group
T^kappa ∩ T_kappa is obtained as an exact lattice quotient.
kappa = id takes the same path, with the base as folded and orbit system.
A kappa-fixed weight crosses between base and orbit in integer Dynkin labels,
in one place (``FoldingContext.orbit_labels`` and ``base_labels``): the orbit
simple coroots p(alpha_i) pair with it as the base coroots alpha_i^vee do.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from math import lcm
from operator import mul

from .linalg import Vec, reduced_rows, vneg, vscale
from .rootcore import (
    Labels,
    Lattice,
    RootDatum,
    RootSystemError,
    cartan_isomorphisms,
    lattice_eq,
    lattice_index,
    lattice_quotient,
    parse_type_label,
)


class FoldingError(ValueError):
    pass


# ---------------------------------------------------------------------------
# diagram automorphisms
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class DiagramAutomorphism:
    """A Cartan-matrix-preserving permutation of the simple-root nodes, and a
    name; the node orbits and ``order`` are derived from the permutation."""

    permutation: tuple[int, ...]
    name: str

    def __post_init__(self):
        if sorted(self.permutation) != list(range(len(self.permutation))):
            raise FoldingError(f"{self.permutation} is not a permutation of the nodes")

    @cached_property
    def order(self) -> int:
        return lcm(*map(len, self.orbits()))

    @property
    def is_identity(self) -> bool:
        return self.order == 1

    def apply(self, v: Vec) -> Vec:
        """Action on simple-root coordinates: e_i -> e_{perm(i)}."""
        out = list(v)
        for i, j in enumerate(self.permutation):
            out[j] = v[i]
        return tuple(out)

    def orbits(self) -> tuple[tuple[int, ...], ...]:
        """Node orbits, the cycles of the permutation, each listed from its
        smallest member, in node order."""
        perm, seen, out = self.permutation, set(), []
        for i in range(len(perm)):
            if i in seen:
                continue
            cycle, j = [i], perm[i]
            while j != i:
                cycle.append(j)
                j = perm[j]
            seen.update(cycle)
            out.append(tuple(cycle))
        return tuple(out)


def _preserves_cartan(cartan, perm) -> bool:
    n = len(cartan)
    return all(
        cartan[perm[i]][perm[j]] == cartan[i][j]
        for i in range(n)
        for j in range(n)
    )


def _automorphism_name(datum: RootDatum, perm: tuple[int, ...]) -> str:
    moved = [i for i, j in enumerate(perm) if i != j]
    if not moved:
        return "id"
    if datum.type_label == "D4":
        if len(moved) == 2:
            # transposition of two of the three leaf nodes (1-based names)
            return f"swap{moved[0] + 1}{moved[1] + 1}"
        # the two 3-cycles of the leaves 0, 2, 3: "rot" sends 0 to 2
        return "rot" if perm[0] == 2 else "rot2"
    return "flip"


def list_automorphisms(datum: RootDatum) -> tuple[DiagramAutomorphism, ...]:
    """All Cartan-preserving node permutations, identity first, then by
    order and permutation."""
    found = [
        DiagramAutomorphism(perm, _automorphism_name(datum, perm))
        for perm in cartan_isomorphisms(datum.cartan, datum.cartan)
    ]
    found.sort(key=lambda k: (k.order, k.permutation))
    return tuple(found)


def automorphism_by_name(datum: RootDatum, name: str) -> DiagramAutomorphism:
    autos = {a.name: a for a in list_automorphisms(datum)}
    if datum.type_label == "D4" and name == "flip":
        name = "swap34"
    if name not in autos:
        raise FoldingError(
            f"{datum.type_label} has no automorphism named {name!r}; "
            f"available: {sorted(autos)}"
        )
    return autos[name]


# ---------------------------------------------------------------------------
# base lattices
# ---------------------------------------------------------------------------


def root_lattice(datum: RootDatum) -> Lattice:
    return Lattice(*datum.root_rows(), datum.ambient_dim)


def weight_lattice(datum: RootDatum) -> Lattice:
    return Lattice(*datum.weight_rows(), datum.ambient_dim)


def fundamental_coweights(datum: RootDatum) -> tuple[Vec, ...]:
    """Dual basis to the simple roots under the invariant form: as
    <omega_i, alpha_j^vee> = delta_ij, it is (2 / (alpha_i, alpha_i)) omega_i."""
    den, rows = datum.coweight_rows()
    return tuple(tuple(Fraction(x, den) for x in row) for row in rows)


# ---------------------------------------------------------------------------
# folded / orbit systems
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class FoldedSystem:
    """The projected root system R_F, possibly non-reduced.

    For the generic foldings ``datum`` is the reduced realization; for a base
    of type A_{2n} the set is of BC type and ``b_subsystem``/``c_subsystem``
    hold the two reduced subsystems instead.
    """

    label: str
    datum: RootDatum | None
    b_subsystem: RootDatum | None = None
    c_subsystem: RootDatum | None = None

    @cached_property
    def roots(self) -> frozenset[Vec]:
        """All roots, positive and negative, built on first read: those of
        ``datum``, or for BC_n the union of the B and C subsystems'."""
        if self.datum is not None:
            return _roots(self.datum)
        return _roots(self.b_subsystem) | _roots(self.c_subsystem)


@dataclass(frozen=True)
class OrbitDatum:
    """The orbit root system with the lattice making its group simply connected."""

    datum: RootDatum
    coroot_lattice: Lattice


# Each generator family (a ``RootDatum`` method) spans four of the sixteen
# lattices: the folded datum's (the B subsystem for A_2n), the orbit datum's,
# and the base's kappa-fixed part (orbit sums of its rows) and projection p
LATTICES = {
    "root_rows": ("QF", "QO", "fixed_root", "p_root"),
    "coroot_rows": ("QFv", "QOv", "fixed_integral", "p_integral"),
    "weight_rows": ("PF", "PO", "fixed_weight", "p_weight"),
    "coweight_rows": ("PFv", "POv", "fixed_coweight", "p_coweight"),
}

# (lattice, lattice, name): the identities that hold on every folding
LATTICE_IDENTITIES = (
    ("QF", "p_root", "QF = p(Q)"),
    ("PFv", "fixed_coweight", "PFv = (P^v)^k"),
    ("QOv", "p_integral", "QOv = p(Lambda)"),
    ("PO", "fixed_weight", "PO = (Lambda*)^k"),
)

# (sublattice, lattice, name; on A_2n: name, quotient name): equal on every
# folding but A_2n, where the sublattice has index 2
INDEX_TWO_PAIRS = (
    ("QFv", "fixed_integral", "QFv = Lambda^k", "Q_Bv in Lambda^k", "Lambda^k / Q_Bv"),
    ("p_weight", "PF", "PF = p(Lambda*)", "p(Lambda*) in P_B", "P_B / p(Lambda*)"),
    ("p_coweight", "POv", "POv = p(P^v)", "p(P^v) in POv", "POv / p(P^v)"),
    ("QO", "fixed_root", "QO = Q^k", "QO in Q^k", "Q^k / QO"),
)


class FoldingContext:
    """Everything derived from a base root datum and a diagram automorphism."""

    def __init__(self, base: RootDatum, kappa: DiagramAutomorphism):
        if len(kappa.permutation) != base.rank:
            raise FoldingError("automorphism rank mismatch")
        if not _preserves_cartan(base.cartan, kappa.permutation):
            raise FoldingError("permutation does not preserve the Cartan matrix")
        self.base = base
        self.kappa = kappa
        self._is_a_even = False
        self._alcove = None  # alcove.fundamental_alcove of this folding, built on first use
        self.node_orbits = kappa.orbits()
        self._orbit_of = sorted((i, j) for j, orb in enumerate(self.node_orbits) for i in orb)
        self.fixed_dim = len(self.node_orbits)
        self.moving_dim = base.rank - self.fixed_dim

        if kappa.is_identity:
            folded_datum = orbit_datum = base
            self.folded = FoldedSystem(base.type_label, base)
        else:
            self._check_supported()
            folded_datum, orbit_datum = self._build_twisted()
        self._assemble_lattices(folded_datum, orbit_datum)
        if orbit_datum.weyl_vector != base.weyl_vector:
            raise FoldingError("orbit half-sum of positive roots differs from base rho")
        self.orbit = OrbitDatum(orbit_datum, self.lattices["QOv"])
        self.outer_weyl_order = self.fixed_intersection.order * orbit_datum.weyl_order

    # -- helpers -----------------------------------------------------------

    def orbit_labels(self, b) -> Labels:
        """The orbit Dynkin labels of the highest weight with base labels b: b
        on each orbit's first node.  RootSystemError unless b is constant on
        node orbits (kappa-fixed), then unless it is dominant integral."""
        if any(b[i] != b[orb[0]] for orb in self.node_orbits for i in orb):
            raise RootSystemError("highest weight is not kappa-fixed")
        if any(x < 0 or x.denominator != 1 for x in b):
            raise RootSystemError("highest weight is not dominant integral for the base")
        return tuple(int(b[orb[0]]) for orb in self.node_orbits)

    def base_labels(self, m) -> tuple:
        """The base labels of orbit labels m: m_j on every node of orbit j."""
        return tuple(m[j] for _, j in self._orbit_of)

    def kappa_fixed_roots(self) -> list[Vec]:
        """All base roots (positive and negative) fixed by kappa."""
        out = []
        for beta in self.base.positive_roots:
            if self.kappa.apply(beta) == beta:
                out.append(beta)
                out.append(tuple(-e for e in beta))
        return out

    def _check_supported(self):
        family, rank = parse_type_label(self.base.type_label)
        ok = (
            (family == "A" and rank >= 2)
            or (family == "D" and rank >= 4)
            or self.base.type_label == "E6"
        )
        if not ok:
            raise FoldingError(
                f"{self.base.type_label} admits no nontrivial diagram automorphism"
            )
        dim = self.base.ambient_dim
        units = tuple(tuple(int(i == j) for j in range(dim)) for i in range(dim))
        if self.base.root_rows() != (1, units):
            raise FoldingError(
                "a nontrivial automorphism permutes simple-root coordinates, so "
                "the base needs its simple roots as unit vectors"
            )
        self._family, self._rank = family, rank
        self._is_a_even = family == "A" and rank % 2 == 0

    def _fixed_rows(self, family):
        """Generators of the fixed sublattice of a lattice whose basis kappa
        permutes, given as integer rows over one denominator: the orbit sums
        of the rows."""
        den, rows = family
        return den, [tuple(map(sum, zip(*(rows[i] for i in orb)))) for orb in self.node_orbits]

    def _scaled_projection(self, a: tuple[int, ...]) -> tuple[int, ...]:
        """L p(a) for an integer vector a, L = |kappa|: each coordinate
        replaced by L / |orbit| times its node orbit's sum, an integer."""
        out, scale = list(a), self.kappa.order
        for orb in self.node_orbits:
            total = scale // len(orb) * sum(a[i] for i in orb)
            for i in orb:
                out[i] = total
        return tuple(out)

    def _projected_rows(self, family):
        """Generators of the image p(L) for the same kind of lattice: p of one
        row per orbit, as L p(row) over den L."""
        den, rows = family
        return den * self.kappa.order, [
            self._scaled_projection(rows[orb[0]]) for orb in self.node_orbits
        ]

    # -- construction branches --------------------------------------------

    def _expected_labels(self) -> tuple[str, str]:
        """(folded, orbit) type labels from the base type and |kappa|."""
        fam, r = self._family, self._rank
        if fam == "A":
            if r % 2 == 0:
                n = r // 2
                return f"BC{n}", _rank_one_as_a1("C", n)
            n = (r + 1) // 2
            return f"C{n}", f"B{n}"
        if fam == "D":
            if self.kappa.order == 3:
                return "G2", "G2"
            n = r - 1
            return f"B{n}", f"C{n}"
        return "F4", "F4"

    def _realize(self, label: str, simple_rows) -> RootDatum:
        """The datum of the simple roots ``simple_rows`` (den, rows) in the
        base's ambient space, which must be of type ``label``."""
        try:
            return RootDatum(label, simple_rows, self.base.gram_rows)
        except RootSystemError as exc:
            raise FoldingError(
                f"a simple system realized from {self.base.type_label} is not "
                f"of type {label}"
            ) from exc

    def _build_twisted(self):
        """Realize the folded system from the projected simple roots and the
        orbit system from its simple coroots, and compare them with the root
        sets they must have: the projected base roots, and the orbit roots
        built from the base roots.

        Only the folded datum and the expected orbit roots depend on the case.
        For a base of type A_{2n} the projected set is BC_n, realized as its B
        and C subsystems, and the orbit roots are doubled fixed roots plus
        doubled projections of the roots orthogonal to their kappa-image.
        Otherwise the orbit roots are the fixed roots plus |kappa|-scaled
        projections of the rest, and the orbit system is the dual of the
        folded one.  Returns the folded datum (the B subsystem for A_{2n})
        and the orbit datum, after their highest-root identities.

        The root sets are compared as integer tuples in units of 1/L, L =
        |kappa|: the base roots are integral, and a projection's denominator,
        a node-orbit length, divides L.
        """
        base = self.base
        scale = self.kappa.order
        folded_label, orbit_label = self._expected_labels()
        # L p(a) for each positive base root a (its integer coordinates)
        projected = [self._scaled_projection(a) for a in base._pos_num]
        # p(alpha) for one simple root per node orbit
        p_den, p_simple = self._projected_rows(base.root_rows())
        if self._is_a_even:
            n = self._rank // 2
            b_datum = self._realize(_rank_one_as_a1("B", n), (p_den, p_simple))
            c_datum = self._realize(
                _rank_one_as_a1("C", n),
                (p_den, p_simple[:-1] + [tuple(2 * x for x in p_simple[-1])]),
            )
            folded = FoldedSystem(folded_label, None, b_datum, c_datum)
            folded_roots = _scaled_roots(b_datum, scale) | _scaled_roots(c_datum, scale)
            # 2a for a fixed root a (where 2a = 2 p(a)), 2 p(a) for a root
            # orthogonal to kappa a; A_2n is simply laced, so (kappa a, a) is
            # a positive multiple of kappa a paired with a's Dynkin labels
            expected_orbit = _with_negatives(
                tuple(2 * x for x in pa)
                for a, pa, labels in zip(base._pos_num, projected, base._pos_labels)
                if (ka := self.kappa.apply(a)) == a or sum(map(mul, ka, labels)) == 0
            )
            # the B subsystem carries the folded lattices QF, QFv, PF and PFv
            folded_datum = b_datum
        else:
            folded_datum = self._realize(folded_label, (p_den, p_simple))
            folded = FoldedSystem(folded_label, folded_datum)
            folded_roots = _scaled_roots(folded_datum, scale)
            # a fixed root a (where L a = L p(a)), |kappa| p(a) for the rest
            expected_orbit = _with_negatives(
                pa if self.kappa.apply(a) == a else tuple(scale * x for x in pa)
                for a, pa in zip(base._pos_num, projected)
            )
            # the coroot 2 b / (b, b) of each folded root is an orbit root; the
            # negative roots follow, as both sets are closed under negation;
            # (b, b) is the integer norm over the datum's _form_den
            den, norm_den = folded_datum._alpha_den, folded_datum._form_den
            for b, norm in zip(folded_datum._pos_num, folded_datum._pos_norms):
                coroot = _exact_tuple([2 * scale * norm_den * x for x in b], den * norm)
                if coroot not in expected_orbit:
                    raise FoldingError("orbit system is not the dual of the folded one")

        if _with_negatives(projected) != folded_roots:
            raise FoldingError(f"projected roots do not form the {folded_label} system")
        self.folded = folded

        # the orbit simple roots are the coroots p(alpha)^vee of the projected
        # simple roots (Fuchs, Schellekens and Schweigert, Commun. Math. Phys.
        # 180 (1996)), the folded datum's simple coroots
        orbit_datum = self._realize(orbit_label, folded_datum.coroot_rows())
        if _scaled_roots(orbit_datum, scale) != expected_orbit:
            raise FoldingError("orbit root set mismatch")

        theta_l = orbit_datum.highest_root
        if self._is_a_even:
            # the orbit highest root is 2*theta; the orbit system contains no
            # copy of theta itself, so no short-root identity is imposed here
            if theta_l != vscale(2, base.highest_root):
                raise FoldingError("orbit highest root is not 2*theta")
        else:
            if theta_l != vscale(self.kappa.order, folded_datum.highest_short_root):
                raise FoldingError("orbit highest root mismatch with the folded system")
            if orbit_datum.highest_short_root != base.highest_root:
                raise FoldingError("orbit highest short root is not theta")
        return folded_datum, orbit_datum

    def _assemble_lattices(self, folded_datum: RootDatum, orbit_datum: RootDatum):
        """The lattices of ``LATTICES``, checked against ``LATTICE_IDENTITIES``
        and ``INDEX_TWO_PAIRS``.  Generator rows that are equal in lowest terms
        give one ``Lattice``, so each distinct set is row-reduced once."""
        base, built = self.base, {}

        def lat(family) -> Lattice:
            key = reduced_rows(*family)
            if key not in built:
                built[key] = Lattice(*key, base.ambient_dim)
            return built[key]

        self.lattices = lats = {}
        for family, (f, o, fixed, p) in LATTICES.items():
            rows = getattr(base, family)()
            lats[f] = lat(getattr(folded_datum, family)())
            lats[o] = lat(getattr(orbit_datum, family)())
            lats[fixed] = lat(self._fixed_rows(rows))
            lats[p] = lat(self._projected_rows(rows))
        checks = [(name, lattice_eq(lats[a], lats[b])) for a, b, name in LATTICE_IDENTITIES]
        self.index_two_quotients = {}
        for sub, sup, name, inclusion, quotient in INDEX_TWO_PAIRS:
            if self._is_a_even:
                index = lattice_index(lats[sub], lats[sup])
                self.index_two_quotients[quotient] = index
                checks.append((inclusion, index == 2))
            else:
                checks.append((name, lattice_eq(lats[sub], lats[sup])))
        for name, ok in checks:
            if not ok:
                raise FoldingError(f"lattice identity failed: {name}")

        # T^k cap T_k = Lambda_(k) / Lambda^k with Lambda_(k) = p(Lambda)
        self.fixed_intersection = lattice_quotient(lats["fixed_integral"], lats["p_integral"])
        expected = (3,) if self.kappa.order == 3 else (2,) * self.moving_dim
        if self.fixed_intersection.invariant_factors != expected:
            raise FoldingError(
                "T^k cap T_k has unexpected invariant factors "
                f"{self.fixed_intersection.invariant_factors}"
            )


def _roots(datum: RootDatum) -> frozenset[Vec]:
    """All roots of a datum, positive and negative."""
    return frozenset(datum.positive_roots).union(map(vneg, datum.positive_roots))


def _with_negatives(roots) -> set[tuple[int, ...]]:
    """Integer tuples and their negatives."""
    out = set()
    for r in roots:
        out.add(r)
        out.add(tuple(-x for x in r))
    return out


def _exact_tuple(nums, den: int) -> tuple[int, ...] | None:
    """The integer tuple nums / den, or None when den does not divide every
    entry."""
    if any(x % den for x in nums):
        return None
    return tuple(x // den for x in nums)


def _scaled_roots(datum: RootDatum, scale: int) -> set:
    """All roots of a reduced datum times ``scale``, as integer tuples.  A
    root that is not integral there enters as None, so the set then equals
    no set of integer roots."""
    den = datum._alpha_den
    out = set()
    for num in datum._pos_num:
        b = _exact_tuple([scale * x for x in num], den)
        out.add(b)
        if b is not None:
            out.add(tuple(-x for x in b))
    return out


def _rank_one_as_a1(family: str, n: int) -> str:
    """The label B_n or C_n, which at n = 1 is A_1."""
    return f"{family}{n}" if n >= 2 else "A1"


def fold(datum: RootDatum, kappa: DiagramAutomorphism) -> FoldingContext:
    return FoldingContext(datum, kappa)
