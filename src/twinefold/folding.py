"""Dynkin diagram automorphisms and folded/orbit root systems.

Everything is realized inside the simple-root coordinate space of the base
system, where kappa permutes coordinates: the fixed subspace of the node
permutation, the projection onto it (each coordinate averaged over its node
orbit), the folded root system (projection image), the orbit root system
(coroot-direction rescaling), and the whole family of lattices these carry.
The finite group T^kappa ∩ T_kappa is obtained as an exact lattice quotient.
"""

from __future__ import annotations

from dataclasses import dataclass

from .linalg import Vec, vadd, vscale, zero_vec
from .rootcore import (
    FiniteAbelianGroup,
    Lattice,
    RootDatum,
    cartan_isomorphisms,
    classical_weyl_order,
    is_of_type,
    lattice,
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
    """A Cartan-matrix-preserving permutation of the simple-root nodes."""

    permutation: tuple[int, ...]
    order: int
    name: str

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
        """Node orbits, each listed from its smallest member, in node order."""
        seen = set()
        out = []
        for i in range(len(self.permutation)):
            if i in seen:
                continue
            orb = [i]
            j = self.permutation[i]
            while j != i:
                orb.append(j)
                j = self.permutation[j]
            seen.update(orb)
            out.append(tuple(orb))
        return tuple(out)


def _perm_order(perm: tuple[int, ...]) -> int:
    n = len(perm)
    cur = list(range(n))
    for k in range(1, n + 2):
        cur = [perm[i] for i in cur]
        if cur == list(range(n)):
            return k
    raise AssertionError("not a permutation")


def _preserves_cartan(cartan, perm) -> bool:
    n = len(cartan)
    return all(
        cartan[perm[i]][perm[j]] == cartan[i][j]
        for i in range(n)
        for j in range(n)
    )


def _automorphism_name(datum: RootDatum, perm: tuple[int, ...], order: int) -> str:
    if order == 1:
        return "id"
    if datum.type_label == "D4":
        moved = [i for i in range(4) if perm[i] != i]
        if order == 2:
            # transposition of two of the three leaf nodes (1-based names)
            return f"swap{moved[0] + 1}{moved[-1] + 1}"
        # the two 3-cycles: "rot" sends the lowest moved leaf to the next leaf
        leaves = [0, 2, 3]
        return "rot" if perm[leaves[0]] == leaves[1] else "rot2"
    return "flip"


def list_automorphisms(datum: RootDatum) -> tuple[DiagramAutomorphism, ...]:
    """All Cartan-preserving node permutations, identity first."""
    found = []
    for perm in cartan_isomorphisms(datum.cartan, datum.cartan):
        order = _perm_order(perm)
        found.append(
            DiagramAutomorphism(perm, order, _automorphism_name(datum, perm, order))
        )
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
    return lattice(datum.simple_roots, datum.ambient_dim)


def weight_lattice(datum: RootDatum) -> Lattice:
    return lattice(datum.fundamental_weights, datum.ambient_dim)


def coroot_lattice(datum: RootDatum) -> Lattice:
    return lattice(
        tuple(datum.coroot(a) for a in datum.simple_roots), datum.ambient_dim
    )


def fundamental_coweights(datum: RootDatum) -> tuple[Vec, ...]:
    """Dual basis to the simple roots under the invariant form: as
    <omega_i, alpha_j^vee> = delta_ij, it is (2 / (alpha_i, alpha_i)) omega_i."""
    return tuple(
        vscale(2 / datum.gram[i][i], w) for i, w in enumerate(datum.fundamental_weights)
    )


def coweight_lattice(datum: RootDatum) -> Lattice:
    return lattice(fundamental_coweights(datum), datum.ambient_dim)


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
    roots: frozenset[Vec]
    datum: RootDatum | None
    b_subsystem: RootDatum | None = None
    c_subsystem: RootDatum | None = None


@dataclass(frozen=True)
class OrbitDatum:
    """The orbit root system with the lattices making its group simply connected."""

    datum: RootDatum
    coroot_lattice: Lattice
    weight_lattice: Lattice
    highest_root: Vec
    highest_short_root: Vec
    half_sum: Vec


class FoldingContext:
    """Everything derived from a base root datum and a diagram automorphism."""

    def __init__(self, base: RootDatum, kappa: DiagramAutomorphism):
        if not base.reduced:
            raise FoldingError(f"{base.type_label} is not a reduced root system")
        if len(kappa.permutation) != base.rank:
            raise FoldingError("automorphism rank mismatch")
        if not _preserves_cartan(base.cartan, kappa.permutation):
            raise FoldingError("permutation does not preserve the Cartan matrix")
        self.base = base
        self.kappa = kappa
        self._is_a_even = False
        # per-context caches, filled on first use: signed Weyl orbits for
        # twining._signed_orbit, the alcove.fundamental_alcove description,
        # and the fusion.level_values table of each level k
        self._alt_sum_cache: dict[Vec, list] = {}
        self._alcove = None
        self._level_values: dict[int, object] = {}
        self.node_orbits = kappa.orbits()
        self.fixed_dim = len(self.node_orbits)
        self.moving_dim = base.rank - self.fixed_dim

        if kappa.is_identity:
            self._build_trivial()
        else:
            self._check_supported()
            if self._is_a_even:
                self._build_a_even()
            else:
                self._build_generic()
        self._finish()

    # -- helpers -----------------------------------------------------------

    def project(self, v: Vec) -> Vec:
        """The kappa-average (1/|kappa|) sum_t kappa^t v: each simple-root
        coordinate replaced by its mean over the node orbit."""
        out = list(v)
        for orb in self.node_orbits:
            if len(orb) > 1:
                mean = sum(v[i] for i in orb) / len(orb)
                for i in orb:
                    out[i] = mean
        return tuple(out)

    def apply_kappa(self, v: Vec) -> Vec:
        return self.kappa.apply(v)

    @property
    def is_trivial(self) -> bool:
        return self.kappa.is_identity

    def kappa_fixed_roots(self) -> list[Vec]:
        """All base roots (positive and negative) fixed by kappa."""
        out = []
        for beta in self.base.positive_roots:
            if self.apply_kappa(beta) == beta:
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
        if self.base.simple_roots != units:
            raise FoldingError(
                "a nontrivial automorphism permutes simple-root coordinates, so "
                "the base needs its simple roots as unit vectors"
            )
        self._family, self._rank = family, rank
        self._is_a_even = family == "A" and rank % 2 == 0

    def _fixed_sublattice(self, vectors: tuple[Vec, ...]) -> Lattice:
        """Fixed sublattice of a lattice whose basis kappa permutes: orbit sums."""
        basis = []
        for orb in self.node_orbits:
            acc = zero_vec(self.base.ambient_dim)
            for i in orb:
                acc = vadd(acc, vectors[i])
            basis.append(acc)
        return lattice(basis, self.base.ambient_dim)

    def _orbit_simple_roots(self) -> tuple[Vec, ...]:
        """The coroots p(alpha)^vee of the projected simple roots, one per
        node orbit: the rescaling that defines the orbit root system (Fuchs,
        Schellekens and Schweigert, Commun. Math. Phys. 180 (1996))."""
        base = self.base
        return tuple(
            base.coroot(self.project(base.simple_roots[orb[0]]))
            for orb in self.node_orbits
        )

    def _projected_lattice(self, vectors: tuple[Vec, ...]) -> Lattice:
        """Image p(L) for the same kind of lattice: p of one vector per orbit."""
        basis = [self.project(vectors[orb[0]]) for orb in self.node_orbits]
        return lattice(basis, self.base.ambient_dim)

    # -- construction branches --------------------------------------------

    def _build_trivial(self):
        base = self.base
        qv = coroot_lattice(base)
        p_lat = weight_lattice(base)
        pv = coweight_lattice(base)
        q = root_lattice(base)
        self.folded = FoldedSystem(
            label=base.type_label,
            roots=frozenset(
                list(base.positive_roots)
                + [tuple(-e for e in b) for b in base.positive_roots]
            ),
            datum=base,
        )
        self.orbit = OrbitDatum(
            datum=base,
            coroot_lattice=qv,
            weight_lattice=p_lat,
            highest_root=base.highest_root,
            highest_short_root=base.highest_short_root,
            half_sum=base.weyl_vector,
        )
        self.lattices = {
            "QF": q, "QFv": qv, "PF": p_lat, "PFv": pv,
            "QO": q, "QOv": qv, "PO": p_lat, "POv": pv,
            "fixed_integral": qv, "p_integral": qv,
            "p_weight": p_lat, "fixed_weight": p_lat,
            "fixed_root": q, "p_coweight": pv, "fixed_coweight": pv,
        }
        self.index_two_quotients = {}
        self.fixed_intersection = FiniteAbelianGroup(())

    def _expected_labels(self) -> tuple[str, str]:
        """(folded, orbit) type labels from the base type and |kappa|."""
        fam, r = self._family, self._rank
        if fam == "A":
            if r == 2:
                return "A1+A1", "A1"
            if r % 2 == 0:
                n = r // 2
                return f"BC{n}", f"C{n}"
            n = (r + 1) // 2
            return (f"C{n}" if n >= 2 else "A1"), (f"B{n}" if n >= 2 else "A1")
        if fam == "D":
            if self.kappa.order == 3:
                return "G2", "G2"
            n = r - 1
            return f"B{n}", f"C{n}"
        return "F4", "F4"

    def _build_generic(self):
        base = self.base
        folded_label, orbit_label = self._expected_labels()
        perm = self.kappa.permutation

        pi_f = [self.project(base.simple_roots[orb[0]]) for orb in self.node_orbits]
        if not is_of_type(pi_f, base.ambient_gram, folded_label):
            raise FoldingError(
                f"folded simple system of {base.type_label} is not of type {folded_label}"
            )
        folded_datum = RootDatum(folded_label, tuple(pi_f), base.ambient_gram)

        all_roots = list(base.positive_roots) + [
            tuple(-e for e in b) for b in base.positive_roots
        ]
        projected = frozenset(self.project(a) for a in all_roots)
        folded_set = frozenset(
            list(folded_datum.positive_roots)
            + [tuple(-e for e in b) for b in folded_datum.positive_roots]
        )
        if projected != folded_set:
            raise FoldingError("projected roots do not match the folded closure")
        self.folded = FoldedSystem(folded_label, projected, folded_datum)

        pi_o = self._orbit_simple_roots()
        if not is_of_type(pi_o, base.ambient_gram, orbit_label):
            raise FoldingError(
                f"orbit simple system of {base.type_label} is not of type {orbit_label}"
            )
        orbit_datum = RootDatum(orbit_label, pi_o, base.ambient_gram)

        # orbit roots = fixed roots plus |kappa|-scaled projections of the rest;
        # equivalently the coroot-direction rescaling 2p(a)/||p(a)||^2
        expected_orbit = set()
        for a in all_roots:
            if self.apply_kappa(a) == a:
                expected_orbit.add(a)
            else:
                expected_orbit.add(vscale(self.kappa.order, self.project(a)))
        orbit_set = set(orbit_datum.positive_roots) | {
            tuple(-e for e in b) for b in orbit_datum.positive_roots
        }
        if expected_orbit != orbit_set:
            raise FoldingError("orbit root set mismatch")
        for a in all_roots:
            if base.coroot(self.project(a)) not in orbit_set:
                raise FoldingError("orbit system is not the dual of the folded one")

        self._assemble_lattices(folded_datum, orbit_datum, a_even=False)
        self._make_orbit(orbit_datum)

    def _build_a_even(self):
        base = self.base
        n = self._rank // 2
        folded_label, orbit_label = self._expected_labels()
        b_label = f"B{n}" if n >= 2 else "A1"
        c_label = f"C{n}" if n >= 2 else "A1"

        # orbits of the reversal are (alpha_i, alpha_{2n+1-i}); project the
        # first n of them
        p_alpha = [self.project(base.simple_roots[i]) for i in range(n)]
        pi_b = tuple(p_alpha)
        pi_c = tuple(p_alpha[: n - 1] + [vscale(2, p_alpha[n - 1])])
        if not is_of_type(pi_b, base.ambient_gram, b_label):
            raise FoldingError("B subsystem of the folded BC system not found")
        if not is_of_type(pi_c, base.ambient_gram, c_label):
            raise FoldingError("C subsystem of the folded BC system not found")
        b_datum = RootDatum(b_label, pi_b, base.ambient_gram)
        c_datum = RootDatum(c_label, pi_c, base.ambient_gram)

        all_roots = list(base.positive_roots) + [
            tuple(-e for e in b) for b in base.positive_roots
        ]
        projected = frozenset(self.project(a) for a in all_roots)
        union = set(b_datum.positive_roots) | set(c_datum.positive_roots)
        union |= {tuple(-e for e in b) for b in union}
        if projected != union:
            raise FoldingError("projected roots do not form the expected BC set")
        self.folded = FoldedSystem(
            folded_label, projected, None, b_subsystem=b_datum, c_subsystem=c_datum
        )

        pi_o = self._orbit_simple_roots()
        if not is_of_type(pi_o, base.ambient_gram, orbit_label):
            raise FoldingError("orbit simple system is not of the expected type")
        orbit_datum = RootDatum(orbit_label, pi_o, base.ambient_gram)

        # orbit roots: doubled fixed roots plus doubled projections of the
        # orthogonal-orbit roots
        expected_orbit = set()
        for a in all_roots:
            ka = self.apply_kappa(a)
            if ka == a:
                expected_orbit.add(vscale(2, a))
            elif base.inner(ka, a) == 0:
                expected_orbit.add(vscale(2, self.project(a)))
        orbit_set = set(orbit_datum.positive_roots) | {
            tuple(-e for e in b) for b in orbit_datum.positive_roots
        }
        if expected_orbit != orbit_set:
            raise FoldingError("orbit root set mismatch for the A_even case")

        self._assemble_lattices(b_datum, orbit_datum, a_even=True)
        self._make_orbit(orbit_datum)

    def _assemble_lattices(self, folded_datum: RootDatum, orbit_datum: RootDatum, a_even: bool):
        base = self.base
        simple = base.simple_roots
        coroots = tuple(base.coroot(a) for a in simple)
        weights = base.fundamental_weights
        coweights = fundamental_coweights(base)

        fixed_integral = self._fixed_sublattice(coroots)          # Lambda^k
        fixed_root = self._fixed_sublattice(simple)               # Q^k
        fixed_weight = self._fixed_sublattice(weights)            # (Lambda*)^k
        fixed_coweight = self._fixed_sublattice(coweights)        # (P^v)^k
        p_integral = self._projected_lattice(coroots)             # p(Lambda)
        p_root = self._projected_lattice(simple)                  # p(Q)
        p_weight = self._projected_lattice(weights)               # p(Lambda*)
        p_coweight = self._projected_lattice(coweights)           # p(P^v)

        qf = root_lattice(folded_datum)
        qfv = coroot_lattice(folded_datum)
        pf = weight_lattice(folded_datum)
        pfv = coweight_lattice(folded_datum)
        qo = root_lattice(orbit_datum)
        qov = coroot_lattice(orbit_datum)
        po = weight_lattice(orbit_datum)
        pov = coweight_lattice(orbit_datum)

        checks = [
            ("QF = p(Q)", lattice_eq(qf, p_root)),
            ("PFv = (P^v)^k", lattice_eq(pfv, fixed_coweight)),
            ("QOv = p(Lambda)", lattice_eq(qov, p_integral)),
            ("PO = (Lambda*)^k", lattice_eq(po, fixed_weight)),
        ]
        self.index_two_quotients = {}
        if a_even:
            # (check name, quotient name, sublattice, lattice)
            quotients = [
                ("Q_Bv in Lambda^k", "Lambda^k / Q_Bv", qfv, fixed_integral),
                ("p(Lambda*) in P_B", "P_B / p(Lambda*)", p_weight, pf),
                ("p(P^v) in POv", "POv / p(P^v)", p_coweight, pov),
                ("QO in Q^k", "Q^k / QO", qo, fixed_root),
            ]
            self.index_two_quotients = {
                q: lattice_index(sub, sup) for _, q, sub, sup in quotients
            }
            checks += [
                (name, self.index_two_quotients[q] == 2) for name, q, _, _ in quotients
            ]
        else:
            checks += [
                ("QFv = Lambda^k", lattice_eq(qfv, fixed_integral)),
                ("PF = p(Lambda*)", lattice_eq(pf, p_weight)),
                ("POv = p(P^v)", lattice_eq(pov, p_coweight)),
                ("QO = Q^k", lattice_eq(qo, fixed_root)),
            ]
        for name, ok in checks:
            if not ok:
                raise FoldingError(f"lattice identity failed: {name}")

        self.lattices = {
            "QF": qf, "QFv": qfv, "PF": pf, "PFv": pfv,
            "QO": qo, "QOv": qov, "PO": po, "POv": pov,
            "fixed_integral": fixed_integral, "fixed_root": fixed_root,
            "fixed_weight": fixed_weight, "fixed_coweight": fixed_coweight,
            "p_integral": p_integral, "p_weight": p_weight,
            "p_coweight": p_coweight,
        }

        # T^k cap T_k = Lambda_(k) / Lambda^k with Lambda_(k) = p(Lambda)
        self.fixed_intersection = lattice_quotient(fixed_integral, p_integral)
        expected = (3,) if self.kappa.order == 3 else (2,) * self.moving_dim
        if self.fixed_intersection.invariant_factors != expected:
            raise FoldingError(
                "T^k cap T_k has unexpected invariant factors "
                f"{self.fixed_intersection.invariant_factors}"
            )

    def _make_orbit(self, orbit_datum: RootDatum):
        base = self.base
        if orbit_datum.weyl_vector != base.weyl_vector:
            raise FoldingError("orbit half-sum of positive roots differs from base rho")
        theta_l = orbit_datum.highest_root
        theta_s = orbit_datum.highest_short_root
        if self._is_a_even:
            # the orbit highest root is 2*theta; the orbit system contains no
            # copy of theta itself, so no short-root identity is imposed here
            if theta_l != vscale(2, base.highest_root):
                raise FoldingError("orbit highest root is not 2*theta")
        else:
            folded = self.folded.datum
            if theta_l != vscale(self.kappa.order, folded.highest_short_root):
                raise FoldingError("orbit highest root mismatch with the folded system")
            if theta_s != base.highest_root:
                raise FoldingError("orbit highest short root is not theta")
        self.orbit = OrbitDatum(
            datum=orbit_datum,
            coroot_lattice=self.lattices["QOv"],
            weight_lattice=self.lattices["PO"],
            highest_root=theta_l,
            highest_short_root=theta_s,
            half_sum=orbit_datum.weyl_vector,
        )

    def _finish(self):
        # the orbit group is simply connected: Lambda_(k)/Q_O^v trivial
        if not lattice_quotient(
            self.orbit.coroot_lattice, self.lattices["p_integral"]
        ).is_trivial:
            raise FoldingError("orbit group is not simply connected")
        self.orbit_weyl_order = classical_weyl_order(self.orbit.datum.type_label)
        self.outer_weyl_order = self.fixed_intersection.order * self.orbit_weyl_order


def fold(datum: RootDatum, kappa: DiagramAutomorphism) -> FoldingContext:
    return FoldingContext(datum, kappa)


def special_roots(ctx: FoldingContext) -> tuple[Vec, Vec]:
    """Highest and highest-short root of the orbit system."""
    return ctx.orbit.highest_root, ctx.orbit.highest_short_root


def fixed_intersection_group(ctx: FoldingContext) -> FiniteAbelianGroup:
    return ctx.fixed_intersection


def fixed_subgroup_data(ctx: FoldingContext) -> tuple[str, FiniteAbelianGroup]:
    """Root system type of the kappa-fixed subgroup and its fundamental group."""
    if ctx.is_trivial:
        return ctx.base.type_label, FiniteAbelianGroup(())
    if ctx.folded.datum is not None:
        sub = ctx.folded.datum
    else:
        sub = ctx.folded.b_subsystem
    pi1 = lattice_quotient(coroot_lattice(sub), ctx.lattices["fixed_integral"])
    return sub.type_label, pi1
