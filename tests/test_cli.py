import io
import json
import os
import subprocess
import sys
import time
from fractions import Fraction

import pytest

import twinefold
from twinefold import checks
from twinefold.alcove import fundamental_alcove
from twinefold.cli import (
    EXIT_COMPUTE,
    EXIT_OK,
    EXIT_PARSE,
    build_context,
    format_rational,
    main,
    parse_rational,
    parse_vector,
    point_from_ambient,
)
from twinefold.fusion import fusion_table
from twinefold.rootcore import RootSystemError, build_root_datum
from twinefold.twining import twining_character


def run(argv):
    out = io.StringIO()
    code = main(argv, out=out)
    return code, out.getvalue()


def run_json(argv):
    code, text = run(argv)
    return code, json.loads(text)


def test_module_entry_point_matches_main():
    """``python -m twinefold`` runs the same command line as ``cli.main``."""
    src = os.path.dirname(os.path.dirname(os.path.abspath(twinefold.__file__)))
    path = os.environ.get("PYTHONPATH")
    env = dict(os.environ, PYTHONPATH=src + (os.pathsep + path if path else ""))
    proc = subprocess.run(
        [sys.executable, "-m", "twinefold", "fold", "A3", "flip"],
        capture_output=True, text=True, env=env, timeout=60, check=False,
    )
    assert proc.returncode == EXIT_OK, proc.stderr
    assert proc.stdout == run(["fold", "A3", "flip"])[1]


def test_rational_round_trip():
    for q in [Fraction(0), Fraction(3), Fraction(-5, 7), Fraction(22, 4)]:
        assert parse_rational(format_rational(q)) == q


def test_fold_a5():
    code, doc = run_json(["fold", "A5", "flip"])
    assert code == EXIT_OK
    assert doc["folded_type"] == "C3"
    assert doc["orbit_type"] == "B3"
    assert doc["fixed_intersection"]["order"] == 4


def test_fold_a4_reports_index_two_quotients():
    code, doc = run_json(["fold", "A4", "flip"])
    assert code == EXIT_OK
    assert len(doc["index_two_quotients"]) == 4
    assert all(v == 2 for v in doc["index_two_quotients"].values())


def test_alcove_round_trip():
    code, doc = run_json(["alcove", "A2", "flip"])
    assert code == EXIT_OK
    # endpoint of the segment in simple-coroot coordinates: theta/4 = (alpha1+alpha2)/4
    assert [parse_rational(c) for c in doc["vertices"][1]] == [
        Fraction(1, 4),
        Fraction(1, 4),
    ]


def labels(vectors):
    return [[parse_rational(c) for c in v] for v in vectors]


def test_alcove_roots_in_base_labels():
    # the orbit B3's alcove walls and theta, paired with the A5 simple coroots
    code, doc = run_json(["alcove", "A5", "flip"])
    assert code == EXIT_OK
    assert labels(doc["simple_roots"]) == [
        [2, -1, 0, -1, 2], [-1, 2, -2, 2, -1], [0, -1, 2, -1, 0]
    ]
    assert labels([doc["highest_root"]]) == [[0, 1, 0, 1, 0]]


def test_alcove_vertices_with_unequal_root_lengths():
    # the coordinates read (omega_i, xi) through the ambient form, so the root
    # lengths d_i != 1 of B3 and G2 enter them
    code, doc = run_json(["alcove", "B3", "id"])
    assert code == EXIT_OK
    assert doc["vertices"] == [
        ["0/1", "0/1", "0/1"], ["1/1", "1/1", "1/2"], ["1/2", "1/1", "1/2"],
        ["1/2", "1/1", "3/4"],
    ]
    code, doc = run_json(["alcove", "G2", "id"])
    assert code == EXIT_OK
    assert doc["vertices"] == [["0/1", "0/1"], ["1/1", "1/2"], ["1/1", "2/3"]]


def test_stabilizer_round_trip_c4():
    # simple-coroot coordinates -> ambient point -> coordinates, where the
    # short roots of C4 have d_i = 1/2
    code, doc = run_json(["stabilizer", "C4", "id", "--point", "1/2,1,5/4,5/4"])
    assert code == EXIT_OK
    assert doc["point"] == ["1/2", "1/1", "5/4", "5/4"]
    assert (doc["surviving_nodes"], doc["includes_affine_node"]) == (3, True)
    assert doc["stabilizer_type"] == "A1+B2"
    assert (doc["pi1_invariant_factors"], doc["pi1_free_rank"]) == ([], 1)
    _, alcove = run_json(["alcove", "C4", "id"])
    for vertex in alcove["vertices"]:
        code, doc = run_json(["stabilizer", "C4", "id", "--point", ",".join(vertex)])
        assert code == EXIT_OK
        assert doc["point"] == vertex


def test_parser_keeps_no_state_between_calls():
    # one parser serves every call in a process
    assert run(["stabilizer", "A2", "flip"])[0] == EXIT_PARSE
    code, doc = run_json(["fold", "A3", "flip"])
    assert code == EXIT_OK and doc["orbit_type"] == "B2"
    assert run(["fold", "A3"])[0] == EXIT_PARSE
    code, text = run(["--format", "csv", "stabilizer", "A2", "flip", "--point", "1/8,1/8"])
    assert code == EXIT_OK and "point,1/8,1/8" in text.splitlines()
    # the default format is back to JSON
    code, doc = run_json(["stabilizer", "A2", "flip", "--point", "1/8,1/8"])
    assert code == EXIT_OK and doc["point"] == ["1/8", "1/8"]


def test_stabilizer_interior_point():
    code, doc = run_json(["stabilizer", "A2", "flip", "--point", "1/8,1/8"])
    assert code == EXIT_OK
    assert doc["stabilizer_type"] == "maximal torus"
    assert doc["pi1_free_rank"] == 1


def test_char_dimension():
    code, doc = run_json(["char", "A3", "flip", "--weight", "1,0,1"])
    assert code == EXIT_OK
    assert doc["dimension_at_identity"] == 5
    # base labels, and the labels of the same weight in the orbit B2
    assert labels([doc["highest_weight"], doc["orbit_weight"]]) == [[1, 0, 1], [1, 0]]
    assert sum(c for _, c in doc["terms"]) == 5


def test_eval_cross_check():
    code, doc = run_json(["eval", "A2", "flip", "--weight", "1,1", "--point", "1/9,1/9"])
    assert code == EXIT_OK
    assert doc["regular"] is True
    assert doc["cross_check_residual"] < 1e-9


def test_negative_point_is_written_with_equals():
    # "--point -1/9,-1/9" would read as an option; "--point=" keeps the sign
    code, doc = run_json(["eval", "A2", "flip", "--weight", "1,1", "--point=-1/9,-1/9"])
    assert code == EXIT_OK
    # -1/9 and 8/9 differ by a coroot, so exp(xi) is the same torus element
    _, shifted = run_json(["eval", "A2", "flip", "--weight", "1,1", "--point", "8/9,8/9"])
    assert doc["value"] == shifted["value"]


def test_fusion_su2_level_one():
    code, doc = run_json(["fusion", "A2", "flip", "--level", "1"])
    assert code == EXIT_OK
    assert doc["dual_coxeter"] == 2
    assert doc["t_group_order"] == 6
    assert len(doc["level_weights"]) == 2
    # four nonzero coefficients, all 1: the SU(2) level-1 table
    assert len(doc["coefficients"]) == 4
    assert all(entry[3] == 1 for entry in doc["coefficients"])
    assert 0 <= doc["max_residual"] < 1e-6


def test_deterministic_output():
    a = run(["fusion", "A2", "flip", "--level", "2"])
    b = run(["fusion", "A2", "flip", "--level", "2"])
    assert a == b


def test_csv_format():
    code, text = run(["--format", "csv", "fold", "A5", "flip"])
    assert code == EXIT_OK
    rows = dict(
        line.split(",", 1) for line in text.strip().splitlines() if "," in line
    )
    assert rows["folded_type"] == "C3"


def test_parse_errors_exit_two():
    assert run(["fold", "Z9", "flip"])[0] == EXIT_PARSE
    assert run(["fold", "A2", "nosuch"])[0] == EXIT_PARSE
    assert run(["stabilizer", "A2", "flip", "--point", "1/8"])[0] == EXIT_PARSE
    assert run(["nosuchcommand"])[0] == EXIT_PARSE
    assert run(["--seed", "3", "verify"])[0] == EXIT_PARSE
    assert run(["verify", "--suite", "nosuch"])[0] == EXIT_PARSE


def test_empty_coordinate_is_named(capsys):
    for point, index in (("1/8,,1/8", 2), ("1/8,1/8,", 3)):
        assert run(["stabilizer", "A2", "flip", "--point", point])[0] == EXIT_PARSE
        assert f"coordinate {index} of {point!r} is empty" in capsys.readouterr().err


def test_type_label_without_rank_or_family_is_named(capsys):
    for label in ("A", "3"):
        assert run(["fold", label, "id"])[0] == EXIT_PARSE
        err = capsys.readouterr().err
        assert f"bad type label {label!r}" in err and "e.g. A5" in err


def test_compute_errors_exit_one():
    # a non-kappa-fixed weight is a domain error, reported structurally
    code, doc = run_json(["char", "A3", "flip", "--weight", "1,0,0"])
    assert code == EXIT_COMPUTE
    assert "error" in doc


# the former route of every weight field, kept as the reference: ambient
# vectors paired with the base coroots in Fractions
def fractions(v):
    return [format_rational(q) for q in v]


def reference_char(group, name, weight):
    ctx = build_context(group, name)
    lam = ctx.base.from_labels(parse_vector(weight, ctx.base.rank))
    chi = twining_character(ctx, lam)
    terms = sorted((ctx.base.pairings(mu), c) for mu, c in chi.poly.terms.items())
    return {
        "group": ctx.base.type_label,
        "automorphism": ctx.kappa.name,
        "highest_weight": fractions(ctx.base.pairings(lam)),
        "orbit_weight": fractions(ctx.orbit.datum.pairings(lam)),
        "dimension_at_identity": chi.dimension_at_identity,
        "terms": [[fractions(mu), c] for mu, c in terms],
    }


def reference_alcove(group, name):
    ctx = build_context(group, name)
    orbit = ctx.orbit.datum
    return {
        "group": ctx.base.type_label,
        "automorphism": ctx.kappa.name,
        "orbit_type": orbit.type_label,
        "simple_roots": [fractions(ctx.base.pairings(a)) for a in orbit.simple_roots],
        "highest_root": fractions(ctx.base.pairings(orbit.highest_root)),
        "vertices": [
            fractions(point_from_ambient(ctx, v)) for v in fundamental_alcove(ctx).vertices
        ],
    }


def reference_fusion(group, name, k):
    ctx = build_context(group, name)
    table = fusion_table(ctx, k)
    level = table.level
    coords = [ctx.base.pairings(lam) for lam in level.level_weights]
    order = sorted(range(len(coords)), key=coords.__getitem__)
    names = [fractions(c) for c in coords]
    return {
        "group": ctx.base.type_label,
        "automorphism": ctx.kappa.name,
        "level": k,
        "rescale": format_rational(level.rescale),
        "dual_coxeter": level.dual_coxeter,
        "t_group_order": level.t_group_order,
        "max_residual": table.max_residual,
        "level_weights": [names[i] for i in order],
        "coefficients": [
            [names[a], names[b], names[c], table.coefficients[a, b, c]]
            for a in order for b in order for c in order if table.coefficients[a, b, c]
        ],
    }


def same_bytes(argv, reference):
    code, text = run(argv)
    assert code == EXIT_OK
    assert text == json.dumps(reference, indent=2) + "\n"


@pytest.mark.parametrize("group,name,weight", [
    ("A3", "flip", "1,1,1"), ("D4", "rot", "1,1,1,1"), ("E6", "flip", "1,0,0,0,0,1"),
    ("A7", "flip", "0,1,0,1,0,1,0"),
])
def test_char_matches_fraction_route(group, name, weight):
    same_bytes(["char", group, name, "--weight", weight], reference_char(group, name, weight))


@pytest.mark.parametrize("group,name", [(g, n) for g, n, *_ in checks.FOLDINGS])
def test_alcove_matches_fraction_route(group, name):
    same_bytes(["alcove", group, name], reference_alcove(group, name))


@pytest.mark.parametrize("group,name,k", [("A2", "flip", 1), ("D4", "rot", 2)])
def test_fusion_matches_fraction_route(group, name, k):
    same_bytes(["fusion", group, name, "--level", str(k)], reference_fusion(group, name, k))


@pytest.mark.parametrize("weight,message", [
    ("1,0,0", "highest weight is not kappa-fixed"),
    ("1/2,0,1/2", "highest weight is not dominant integral for the base"),
    ("-1,0,-1", "highest weight is not dominant integral for the base"),
])
def test_char_rejects_inadmissible_weights(weight, message):
    code, text = run(["char", "A3", "flip", f"--weight={weight}"])
    assert code == EXIT_COMPUTE
    error = {"error": {"type": "RootSystemError", "message": message}}
    assert text == json.dumps(error, indent=2) + "\n"


@pytest.mark.parametrize("argv", [
    ["stabilizer", "A3", "flip", "--point", "1/4,1/4,0"],
    ["eval", "A3", "flip", "--weight", "1,0,1", "--point", "1/4,1/4,0"],
])
def test_point_off_the_fixed_subspace_is_refused(argv):
    """A point that is not constant on node orbits exits 1 with an
    AlcoveError, rather than being read as its projection 1/8,1/4,1/8, which
    the same command accepts."""
    code, text = run(argv)
    assert code == EXIT_COMPUTE
    error = {"error": {"type": "AlcoveError",
                       "message": "point does not lie in the fixed subspace"}}
    assert text == json.dumps(error, indent=2) + "\n"
    projected = [a if a != "1/4,1/4,0" else "1/8,1/4,1/8" for a in argv]
    assert run(projected)[0] == EXIT_OK


def test_bc_is_not_a_root_datum_type(capsys):
    # BC_n exists only as the folded system of A_2n, never as a base
    for label in ("BC1", "BC2"):
        with pytest.raises(RootSystemError, match="unknown family 'BC'"):
            build_root_datum(label)
    code, text = run(["fold", "BC2", "id"])
    captured = capsys.readouterr()
    assert code == EXIT_PARSE
    assert text == "" and captured.out == ""
    assert captured.err.startswith("error:") and "Traceback" not in captured.err


def test_verify_suites():
    for suite in ["tables", "lattices"]:
        code, doc = run_json(["verify", "--suite", suite])
        assert code == EXIT_OK
        assert doc["ok"] is True
        assert all(c["pass"] for c in doc["checks"])


def test_verify_all_passes(verify_run):
    code, doc = verify_run
    assert code == EXIT_OK
    assert doc["ok"] is True
    assert doc["failed"] == 0


def test_weyl_cap_env(monkeypatch):
    argv = ["eval", "A2", "flip", "--weight", "1,1", "--point", "1/9,1/9"]
    monkeypatch.setenv("TWINEFOLD_WEYL_CAP", "1")
    code, text = run(argv)
    assert code == EXIT_COMPUTE
    for bad in ("abc", "-3"):
        monkeypatch.setenv("TWINEFOLD_WEYL_CAP", bad)
        code, doc = run_json(argv)
        assert code == EXIT_COMPUTE
        assert doc["error"]["type"] == "RootSystemError"
        assert "TWINEFOLD_WEYL_CAP" in doc["error"]["message"]


@pytest.mark.parametrize("weight", ["0,0,0,0,0,0,0,0,0,0", "1,1,1,1,1,1,1,1,1,1"])
def test_weyl_overflow_fails_fast(weight, monkeypatch):
    """|W(C9)| = 185794560 exceeds the default cap: the quotient formula at
    weight 0, and the orbit expansion of the regular weight, raise up front,
    before any orbit element is enumerated (walking 10^6 of them took ~9 s)."""
    monkeypatch.delenv("TWINEFOLD_WEYL_CAP", raising=False)
    argv = ["eval", "D10", "flip", "--weight", weight,
            "--point", "1/3,1/5,1/7,1/9,1/11,1/13,1/17,1/19,1/23,1/23"]
    start = time.perf_counter()
    code, doc = run_json(argv)
    assert time.perf_counter() - start < 5
    assert code == EXIT_COMPUTE
    assert doc["error"] == {
        "type": "WeylOverflowError",
        "message": "Weyl orbit exceeds the traversal cap 1000000",
    }


def test_char_sizes_each_orbit_by_its_stabilizer(monkeypatch):
    """|W(C9)| exceeds the default cap, so every orbit of the character of
    omega_9 + omega_10 (orbit labels omega_9) is sized through its stabilizer
    before it is expanded; all of them are within the cap."""
    monkeypatch.delenv("TWINEFOLD_WEYL_CAP", raising=False)
    code, doc = run_json(["char", "D10", "flip", "--weight", "0,0,0,0,0,0,0,0,1,1"])
    assert code == EXIT_OK
    assert doc["dimension_at_identity"] == 16796
    assert len(doc["terms"]) == 9842


def test_verify_names_the_exception(monkeypatch):
    def broken(group, automorphism):
        raise ZeroDivisionError(f"no context for {group}")

    monkeypatch.setattr("twinefold.checks.context", broken)
    code, doc = run_json(["verify", "--suite", "tables"])
    assert code == EXIT_COMPUTE
    assert doc["checks"] and not any(c["pass"] for c in doc["checks"])
    for c in doc["checks"]:
        assert c["error"].startswith("ZeroDivisionError: no context for ")
