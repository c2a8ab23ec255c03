"""Command-line interface: folding reports, alcove/stabilizer queries,
twining character evaluation, fusion tables, and self-verification.

Conventions: weights are read and written in fundamental-weight coordinates
of the base group, crossing to the orbit's by ``FoldingContext.orbit_labels``
and ``base_labels``; torus points in simple-coroot coordinates, kappa-fixed
(``alcove.require_fixed``).  Rationals are serialized as "p/q" strings and
complex numbers as [re, im] pairs.  Output is JSON by default or flat CSV with
``--format csv``; field and row ordering is deterministic.
"""

from __future__ import annotations

import argparse
import json
import sys
from fractions import Fraction
from functools import lru_cache

from .linalg import Vec, scaled_rows
from .rootcore import (
    RootSystemError,
    WeylOverflowError,
    build_root_datum,
    label_character,
    label_dimension,
    lattice_index,
)
from .folding import (
    FoldingContext,
    FoldingError,
    automorphism_by_name,
    fold,
    root_lattice,
    weight_lattice,
)
from .twining import (
    SingularPointError,
    TorusPoint,
    is_regular,
    jantzen_eval,
    twining_character,
)
from .alcove import AlcoveError, fundamental_alcove, require_fixed, stabilizer_datum
from .fusion import FusionError, fusion_table

EXIT_OK = 0
EXIT_COMPUTE = 1
EXIT_PARSE = 2


class ParseError(ValueError):
    pass


# ---------------------------------------------------------------------------
# serialization
# ---------------------------------------------------------------------------


def format_rational(q: Fraction) -> str:
    return f"{q.numerator}/{q.denominator}"


def parse_rational(text: str) -> Fraction:
    try:
        return Fraction(text.strip())
    except (ValueError, ZeroDivisionError) as exc:
        raise ParseError(f"bad rational {text!r}") from exc


def format_vector(v: Vec) -> list[str]:
    return [f"{e.numerator}/{e.denominator}" for e in v]


def parse_vector(text: str, expected_len: int) -> Vec:
    parts = text.split(",")
    for i, p in enumerate(parts, 1):
        if not p.strip():
            raise ParseError(f"coordinate {i} of {text!r} is empty")
    if len(parts) != expected_len:
        raise ParseError(f"expected {expected_len} coordinates, got {len(parts)}")
    return tuple(parse_rational(p) for p in parts)


def format_complex(z: complex) -> list[float]:
    return [z.real, z.imag]


# ---------------------------------------------------------------------------
# coordinate conversions
# ---------------------------------------------------------------------------


def point_to_ambient(ctx: FoldingContext, coords: Vec) -> Vec:
    # sum_i c_i alpha_i^vee, which must be kappa-fixed
    den, (c,) = scaled_rows([coords])
    return require_fixed(ctx, ctx.base.from_coroot_coords(c, den))


def point_from_ambient(ctx: FoldingContext, xi: Vec) -> Vec:
    # the coefficient of alpha_i^vee is <omega_i, xi>
    nums, den = ctx.base.coroot_coords(xi)
    return tuple(Fraction(n, den) for n in nums)


# ---------------------------------------------------------------------------
# context construction
# ---------------------------------------------------------------------------


def build_context(group: str, automorphism: str) -> FoldingContext:
    try:
        datum = build_root_datum(group)
    except (RootSystemError, ValueError) as exc:
        raise ParseError(str(exc)) from exc
    try:
        kappa = automorphism_by_name(datum, automorphism)
    except FoldingError as exc:
        raise ParseError(str(exc)) from exc
    return fold(datum, kappa)


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------


def cmd_fold(args) -> dict:
    ctx = build_context(args.group, args.automorphism)
    lat = ctx.lattices
    return {
        "group": ctx.base.type_label,
        "automorphism": ctx.kappa.name,
        "automorphism_order": ctx.kappa.order,
        "node_orbits": [list(o) for o in ctx.node_orbits],
        "folded_type": ctx.folded.label,
        "orbit_type": ctx.orbit.datum.type_label,
        "fixed_rank": ctx.fixed_dim,
        "lattice_indices": {
            "base_weight_over_root": lattice_index(
                root_lattice(ctx.base), weight_lattice(ctx.base)
            ),
            "orbit_weight_over_root": lattice_index(lat["QO"], lat["PO"]),
            "orbit_coweight_over_coroot": lattice_index(lat["QOv"], lat["POv"]),
            "folded_weight_over_root": lattice_index(lat["QF"], lat["PF"]),
        },
        "index_two_quotients": dict(ctx.index_two_quotients),
        "fixed_intersection": {
            "invariant_factors": list(ctx.fixed_intersection.invariant_factors),
            "order": ctx.fixed_intersection.order,
        },
        "orbit_weyl_order": ctx.orbit.datum.weyl_order,
        "outer_weyl_order": ctx.outer_weyl_order,
    }


def cmd_alcove(args) -> dict:
    ctx = build_context(args.group, args.automorphism)
    alc = fundamental_alcove(ctx)
    orbit = ctx.orbit.datum
    return {
        "group": ctx.base.type_label,
        "automorphism": ctx.kappa.name,
        "orbit_type": orbit.type_label,
        "simple_roots": [format_vector(ctx.base_labels(a)) for a in zip(*orbit.cartan)],
        "highest_root": format_vector(ctx.base_labels(orbit.theta_labels)),
        "vertices": [
            format_vector(point_from_ambient(ctx, v)) for v in alc.vertices
        ],
    }


def cmd_stabilizer(args) -> dict:
    ctx = build_context(args.group, args.automorphism)
    xi = point_to_ambient(ctx, parse_vector(args.point, ctx.base.rank))
    stab = stabilizer_datum(ctx, xi)
    return {
        "group": ctx.base.type_label,
        "automorphism": ctx.kappa.name,
        "point": format_vector(point_from_ambient(ctx, xi)),
        "surviving_nodes": len(stab.surviving),
        "includes_affine_node": stab.includes_affine_node,
        "subsystem_type": stab.subsystem_label,
        "stabilizer_type": stab.dual_label,
        "pi1_invariant_factors": list(stab.pi1.invariant_factors),
        "pi1_free_rank": stab.pi1_free_rank,
    }


def cmd_char(args) -> dict:
    ctx = build_context(args.group, args.automorphism)
    weight = parse_vector(args.weight, ctx.base.rank)
    labels, orbit = ctx.orbit_labels(weight), ctx.orbit.datum
    terms = sorted((ctx.base_labels(u), c) for u, c in label_character(orbit, labels).items())
    return {
        "group": ctx.base.type_label,
        "automorphism": ctx.kappa.name,
        "highest_weight": format_vector(weight),
        "orbit_weight": format_vector(labels),
        "dimension_at_identity": label_dimension(orbit, labels),
        "terms": [[format_vector(mu), c] for mu, c in terms],
    }


def cmd_eval(args) -> dict:
    ctx = build_context(args.group, args.automorphism)
    weight = parse_vector(args.weight, ctx.base.rank)
    lam = ctx.base.from_labels(weight)
    point = TorusPoint(point_to_ambient(ctx, parse_vector(args.point, ctx.base.rank)))
    value = twining_character(ctx, lam).eval(ctx, point)
    doc = {
        "group": ctx.base.type_label,
        "automorphism": ctx.kappa.name,
        "highest_weight": format_vector(weight),
        "point": format_vector(point_from_ambient(ctx, point.xi)),
        "regular": is_regular(ctx, point),
        "value": format_complex(value),
    }
    if doc["regular"]:
        ratio = jantzen_eval(ctx, lam, point)
        doc["quotient_formula_value"] = format_complex(ratio)
        doc["cross_check_residual"] = abs(value - ratio)
    return doc


def cmd_fusion(args) -> dict:
    ctx = build_context(args.group, args.automorphism)
    if args.level < 1:
        raise ParseError("--level must be a positive integer")
    table = fusion_table(ctx, args.level)
    level = table.level

    coords = [ctx.base_labels(m) for m in level.labels]
    weights = sorted(range(len(coords)), key=coords.__getitem__)
    name = [format_vector(c) for c in coords]
    entries = []
    for lam in weights:
        for mu in weights:
            row = table.rows[lam][mu]
            entries += ([name[lam], name[mu], name[nu], row[nu]] for nu in weights if nu in row)
    return {
        "group": ctx.base.type_label,
        "automorphism": ctx.kappa.name,
        "level": level.k,
        "rescale": format_rational(level.rescale),
        "dual_coxeter": level.dual_coxeter,
        "t_group_order": level.t_group_order,
        "max_residual": table.max_residual,
        "level_weights": [name[l] for l in weights],
        "coefficients": entries,
    }


# ---------------------------------------------------------------------------
# verification: the acceptance criteria of ``checks``
# ---------------------------------------------------------------------------


def cmd_verify(args) -> dict:
    # imported here: no other command needs the registry, and loading it adds
    # several milliseconds to the start of every command
    from . import checks

    if args.suite not in (*checks.SUITES, "all"):
        raise ParseError(f"unknown suite {args.suite!r}")
    names = list(checks.SUITES) if args.suite == "all" else [args.suite]
    entries = []
    for criterion in checks.CRITERIA:
        if criterion.suite not in names:
            continue
        for row in checks.run(criterion.rows()):
            entry = {"suite": criterion.suite, "criterion": criterion.name,
                     "check": row.label, "pass": row.ok,
                     "observed": row.observed, "expected": row.expected}
            if row.error is not None:
                entry["error"] = row.error
            entries.append(entry)
    failed = sum(1 for e in entries if not e["pass"])
    return {
        "suites": names,
        "checks": entries,
        "failed": failed,
        "ok": failed == 0,
    }


# ---------------------------------------------------------------------------
# output + driver
# ---------------------------------------------------------------------------


def _emit_csv(doc: dict, out) -> None:
    import csv

    writer = csv.writer(out)

    def walk(prefix, value):
        if isinstance(value, dict):
            for k in value:
                walk(f"{prefix}.{k}" if prefix else str(k), value[k])
        elif isinstance(value, list) and value and isinstance(value[0], (list, dict)):
            for i, item in enumerate(value):
                walk(f"{prefix}[{i}]", item)
        elif isinstance(value, list):
            writer.writerow([prefix] + value)
        else:
            writer.writerow([prefix, value])

    walk("", doc)


def emit(doc: dict, fmt: str, out) -> None:
    if fmt == "csv":
        _emit_csv(doc, out)
    else:
        out.write(json.dumps(doc, indent=2) + "\n")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="twinefold",
        description="Twisted conjugation, twining characters, and fusion rings.",
    )
    parser.add_argument("--format", choices=["json", "csv"], default="json")
    sub = parser.add_subparsers(dest="command", required=True)

    def group_args(p):
        p.add_argument("group", help="type label, e.g. A5, D4, E6")
        p.add_argument("automorphism", help="diagram automorphism name, e.g. flip, rot, id")

    p = sub.add_parser("fold", help="folded/orbit systems, lattices, finite groups")
    group_args(p)
    p = sub.add_parser("alcove", help="fundamental alcove of the twisted affine group")
    group_args(p)
    p = sub.add_parser("stabilizer", help="stabilizer data at an alcove point")
    group_args(p)
    p.add_argument("--point", required=True, help="simple-coroot coordinates, e.g. 1/8,0")
    p = sub.add_parser("char", help="twining character polynomial")
    group_args(p)
    p.add_argument("--weight", required=True, help="fundamental-weight coordinates, e.g. 1,0,1")
    p = sub.add_parser("eval", help="evaluate a twining character at a torus point")
    group_args(p)
    p.add_argument("--weight", required=True)
    p.add_argument("--point", required=True)
    p = sub.add_parser("fusion", help="level-k fusion table (both routes)")
    group_args(p)
    p.add_argument("--level", type=int, required=True)
    p = sub.add_parser("verify", help="run the acceptance criteria")
    p.add_argument("--suite", default="all", help="tables, lattices, characters, fusion or all")
    return parser


@lru_cache(maxsize=1)
def _shared_parser() -> argparse.ArgumentParser:
    """``build_parser()``, built once per process: parsing leaves no state in
    the parser, and building it costs about a millisecond per call."""
    return build_parser()


_HANDLERS = {
    "fold": cmd_fold,
    "alcove": cmd_alcove,
    "stabilizer": cmd_stabilizer,
    "char": cmd_char,
    "eval": cmd_eval,
    "fusion": cmd_fusion,
    "verify": cmd_verify,
}


def main(argv: list[str] | None = None, out=None) -> int:
    out = out or sys.stdout
    try:
        args = _shared_parser().parse_args(argv)
    except SystemExit as exc:
        return EXIT_PARSE if exc.code else EXIT_OK
    try:
        doc = _HANDLERS[args.command](args)
    except ParseError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except (RootSystemError, FoldingError, AlcoveError, FusionError,
            SingularPointError, WeylOverflowError) as exc:
        emit({"error": {"type": type(exc).__name__, "message": str(exc)}}, args.format, out)
        return EXIT_COMPUTE
    emit(doc, args.format, out)
    if args.command == "verify" and not doc["ok"]:
        return EXIT_COMPUTE
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
