import hashlib
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
            [names[a], names[b], names[c], table.rows[a][b].get(c, 0)]
            for a in order for b in order for c in order if table.rows[a][b].get(c, 0)
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

# sha256 of the JSON output of `fold`, `alcove` and `stabilizer` at every
# alcove vertex, pinned before the walls and the lattice identities moved to
# integer rows; the nine foldings, D4 rot2, A2 flip, and G2 and B3 id
PINNED_GEOMETRY_OUTPUTS = {
    "fold A3 flip":
        "3bb896b5af601cc261664c5696bf706d205e7fc79502e5529281eeba49397c93",
    "alcove A3 flip":
        "0fd3db39455992646d2bab57d858889bdee659bedfd14179b6b9b487196efbd8",
    "stabilizer A3 flip --point 0/1,0/1,0/1":
        "6566441f7737e12f3098e48c232cbb5b6f9b00cfcd2c2a30a61a22d6d98717df",
    "stabilizer A3 flip --point 1/2,1/2,1/2":
        "59798ad9ee376cc6a9363871400c1d23b5858e10c9d1be40f59f95b352b69e9f",
    "stabilizer A3 flip --point 1/4,1/2,1/4":
        "d066ae01fb41bacbc75ba134689f18f0fdff5549a1d495b2a4a9274bde31d38c",
    "fold A4 flip":
        "beba5cc5a427296f885b5e94c58b4660b064d3959ba82e82dcd9cc3b86db673e",
    "alcove A4 flip":
        "38b7583b6535f3f7cd8471d76c5b3df7d8f53e64072579f2122af9bd52898232",
    "stabilizer A4 flip --point 0/1,0/1,0/1,0/1":
        "3374b8e99aee369234767f0eadf0b9b63d3e4025028481445da79b42c892edef",
    "stabilizer A4 flip --point 1/4,1/4,1/4,1/4":
        "bebee1759d1092acb5074d5130b2380972d68606d568ae01ac0dfa26a661743a",
    "stabilizer A4 flip --point 1/4,1/2,1/2,1/4":
        "99c9fbd3ed00c3f94949628189342f88f25f34ea0bf67b761c4217046b904a72",
    "fold A5 flip":
        "09c57924cb6d152ec2390c8acbdef9d4331756c05cf9c3e5430e81d603391054",
    "alcove A5 flip":
        "67a4b9fd2847414ffbcdedcf1b00f5e91784bcb5e5ac43662209ccf542f442bc",
    "stabilizer A5 flip --point 0/1,0/1,0/1,0/1,0/1":
        "fceb4df5d34b9c482c27f7a7268cc24f0747d02f0b4464f0cedd205286cf8711",
    "stabilizer A5 flip --point 1/2,1/2,1/2,1/2,1/2":
        "3821f747a7f42a7ed62422f98280a772ed8145ac3d6a2451d31f3dc447d0b771",
    "stabilizer A5 flip --point 1/4,1/2,1/2,1/2,1/4":
        "68e4c6911eb54a9750b752c2865706c548208874e9f78bcea77b5a2fee21faef",
    "stabilizer A5 flip --point 1/4,1/2,3/4,1/2,1/4":
        "2c29637b1676d38553547feb8e22707a148bc6822a1e650ef9c8e9764886f940",
    "fold A6 flip":
        "ca6656289f5b18e1a4f308e3090afd6d2f451539178d7fb3e71365c5b6b2f672",
    "alcove A6 flip":
        "4c5c1c44d523315ef01987bd84689101cbdecef5a1fd886ac9fc567ec0fac51d",
    "stabilizer A6 flip --point 0/1,0/1,0/1,0/1,0/1,0/1":
        "41972809b3a56f8333f622c15ca56a95e725367c9fb168fa551e9cc558f9075d",
    "stabilizer A6 flip --point 1/4,1/4,1/4,1/4,1/4,1/4":
        "9244c45c4653c6386edcf524f9d03b6ebfd08c621dee6e9ae3fc01fa1e209f1a",
    "stabilizer A6 flip --point 1/4,1/2,1/2,1/2,1/2,1/4":
        "c97e4188398270bfdbaacd35ace02dc6e7ffbddc241100464c9c8c20661785f8",
    "stabilizer A6 flip --point 1/4,1/2,3/4,3/4,1/2,1/4":
        "673c2fed7c003a1c8af744179a5c39debb7dd4e5775916d89f7601f4c1912574",
    "fold D5 flip":
        "be842475520790312b0a33df903be47e194ed2dac0467145938c69b2d6ce3223",
    "alcove D5 flip":
        "5884f1505d14d45af2b6ac2e240f4efd28c6d657741af17f67db2e01f80900d1",
    "stabilizer D5 flip --point 0/1,0/1,0/1,0/1,0/1":
        "860d72f01c4511d048322fa490f1393e457a9809872bc126f72e898d891b2240",
    "stabilizer D5 flip --point 1/2,1/2,1/2,1/4,1/4":
        "46b8b51690bc228b21bed765fd3f9b6f4c91fc48bb19a2d37e06bbb786105925",
    "stabilizer D5 flip --point 1/2,1/1,1/1,1/2,1/2":
        "ba88b03f2e8578861fc3b653eb98da6ef3ea6b230a30ba1d66be96d01136fc6b",
    "stabilizer D5 flip --point 1/2,1/1,3/2,3/4,3/4":
        "4b7cc5e2fce7cd35ba66794a7c2076cd8883268efa99956eb888c89043ae9443",
    "stabilizer D5 flip --point 1/2,1/1,3/2,1/1,1/1":
        "4f79a992b4917ad1651c7b42b8274d9a89cb5a24a03ad1842c5b67f5aefd1e46",
    "fold D6 flip":
        "0291d8699804c30c544f3ef3054ab363ef74d4697c0cf200c532d2d3a69cb250",
    "alcove D6 flip":
        "99f2cec0f2e17b8f3d8960c452d8b1642b4f67f08f8e16d3392c6cbfdab95e03",
    "stabilizer D6 flip --point 0/1,0/1,0/1,0/1,0/1,0/1":
        "63dbef4e35ffb36ff970d3f99c516a2b412a26d3aca318b02d45dc0dda023627",
    "stabilizer D6 flip --point 1/2,1/2,1/2,1/2,1/4,1/4":
        "00a810e8688376a29099c1d72debd0d016e75d62655c4f55a4ce8bdf92130880",
    "stabilizer D6 flip --point 1/2,1/1,1/1,1/1,1/2,1/2":
        "4c6295cfe114d7e4ed60717906ec6fa1498303d103365575600c8e5f08e51d8a",
    "stabilizer D6 flip --point 1/2,1/1,3/2,3/2,3/4,3/4":
        "f44077bd64dbfbc49a43c8200f0da2b6a69adf2852c2f961ea067a5ac0700471",
    "stabilizer D6 flip --point 1/2,1/1,3/2,2/1,1/1,1/1":
        "cc75b4a01c1f79f544211e5dd336abc904ee451bae4b4fe45e87659f53af0b6d",
    "stabilizer D6 flip --point 1/2,1/1,3/2,2/1,5/4,5/4":
        "84969e94e8f0d6c9d9677041a2669d5aa8829b09665ab8d5cdcdb8998686fa11",
    "fold D4 swap34":
        "a21c573a67d3f51f600ebf5f84525a3af45adf9e05e992d22241abd2bdd9e70b",
    "alcove D4 swap34":
        "059bd540c8c26f3b286e8feefdbe05e2d2ffa5deba170c2188c701c8f7ab25ef",
    "stabilizer D4 swap34 --point 0/1,0/1,0/1,0/1":
        "6474437f026b4fac0f31c6df6c518531cce413dd1d67314cdc7ceded7ad51252",
    "stabilizer D4 swap34 --point 1/2,1/2,1/4,1/4":
        "f3f7faab544334ed32a1d15ab9fa139a00f49a927eaf74ce9d9f8501466bbf17",
    "stabilizer D4 swap34 --point 1/2,1/1,1/2,1/2":
        "fb9dae4971cced6aca519c63b9b431039b83665afec53449cdf447595e097670",
    "stabilizer D4 swap34 --point 1/2,1/1,3/4,3/4":
        "9eb68337f4520c6cc85ddfebaba3fb787c05bc3174080014e794eaed4ae8dd13",
    "fold D4 rot":
        "3cce3ece395d4119bffb09cb4a215ad19541b21999b8af96238102b83d8db833",
    "alcove D4 rot":
        "818989b4b03bbc09f52f4ad5e02091da5294f14e7c1f31fe2a8dd732be4de885",
    "stabilizer D4 rot --point 0/1,0/1,0/1,0/1":
        "f7117a1af6d3ad6622f6c2cd90ba2f863eb4569d0d6add3476e076964af13e36",
    "stabilizer D4 rot --point 1/3,1/2,1/3,1/3":
        "ac69118a2920554d8d0daeb2518bc2ea6f76d2013e118fd1b27e64fd59d6f38e",
    "stabilizer D4 rot --point 1/3,2/3,1/3,1/3":
        "a4718954071ef2440338ebe1fac79fb4c7a134ee6eb24d44399f265d0d6e4c83",
    "fold E6 flip":
        "7153f8d9fcc86c8fe011feb85c83e1112129b7b1dc23fa6e15418534f757a3db",
    "alcove E6 flip":
        "d3c8568309966384c561fb06354a268598355237264b0d3898c5910dc6ad96e1",
    "stabilizer E6 flip --point 0/1,0/1,0/1,0/1,0/1,0/1":
        "2a059b137b715039eec5e8a593e74acc724d926c907ecb63326afb3bbaaa60fa",
    "stabilizer E6 flip --point 1/2,1/2,3/4,1/1,3/4,1/2":
        "b9282dde299a9562d74484eaf0dd80821c18523dada35b5a39b32a88a4e017b7",
    "stabilizer E6 flip --point 1/2,1/1,1/1,3/2,1/1,1/2":
        "1330beb5e33457b0659d5e21bbab6d72592bb1af75d9529dbab4ddb1850c9306",
    "stabilizer E6 flip --point 1/2,2/3,1/1,4/3,1/1,1/2":
        "85d1a95cd7226b6b77a7f2d62b8f8a8e859b1bdb491a8af243d63ebdc9fd8a85",
    "stabilizer E6 flip --point 1/2,3/4,1/1,3/2,1/1,1/2":
        "276593a128f51a2d263eca2f00615b6829cdb3384f18b565da67fcb0a28af752",
    "fold D4 rot2":
        "6bc70074712d868f4da61a611f99138c1b78f7ac15950909643b87a089cb0710",
    "alcove D4 rot2":
        "117552e7df68872c6036655e5f9971d17c68f53da257e94eba288ff08f75bc58",
    "stabilizer D4 rot2 --point 0/1,0/1,0/1,0/1":
        "4408c381c995354242e4138ebf8750a0c00a6da4c19c4f54ff636ba5eb6bcc57",
    "stabilizer D4 rot2 --point 1/3,1/2,1/3,1/3":
        "0c01128c880b0031f2dcaac4ae466ca9a8e5db347ba85dced577f6e40411287d",
    "stabilizer D4 rot2 --point 1/3,2/3,1/3,1/3":
        "7a543ee1acafb4e4c35dd2b79035c32bcdda6da3619e53a2b8bee6ba4e8e7570",
    "fold A2 flip":
        "12e2aed2418483c987b1de6d82815b60ab12eb4dff57cca6e6aadc596f639a84",
    "alcove A2 flip":
        "f1a999907fe0cc801d43dababcb9295dcb97469dfd09a6e5c5f9958b2a958ea8",
    "stabilizer A2 flip --point 0/1,0/1":
        "1074a5be3ed3af188a75c531084b71c0a34ae575b5a51b65095620b5f8c75cf5",
    "stabilizer A2 flip --point 1/4,1/4":
        "c4e9715feb5061201f84f777c1ef8f7157da0a0b37a740affea9032ed82f83af",
    "fold G2 id":
        "c04e79a313fb649fbeb15b86aec4fb1ef8f11081acb2889f9791b6e8d4c8e750",
    "alcove G2 id":
        "551611fb646f5fe4e90d74e6962eed773d8c04620a3c4c56e946f17a234cf572",
    "stabilizer G2 id --point 0/1,0/1":
        "a7a900637c2af26993297073f9be30eb3b31a1246ccf4466d0f1c57da098d70b",
    "stabilizer G2 id --point 1/1,1/2":
        "1a0bfec17ab322802e1d048c558a4393c2ae802462d78ae55c707cab3f60ee05",
    "stabilizer G2 id --point 1/1,2/3":
        "bdf8a5e8dae305c16557e4cabb4b8052b18adbb3377859bf3d56ee1129f45131",
    "fold B3 id":
        "dc57f759b17c27d64aa168e472e937fbf8bf1bbeecf48dceef3172867ccdc8d9",
    "alcove B3 id":
        "51fc9616761913c66bd807868de2ce3e0f2208209bfa28967016c0d7a9d80ecd",
    "stabilizer B3 id --point 0/1,0/1,0/1":
        "247c60682983e38b3310e5e7786fbbc0d2fbcf4b08e41f4ad67d680486ce896d",
    "stabilizer B3 id --point 1/1,1/1,1/2":
        "cb9ac2063afdfbee7a19c7b7f55098ad8af46f1ec7adae6fa44fa57de99ce0dd",
    "stabilizer B3 id --point 1/2,1/1,1/2":
        "028e221c1180d7b8c3d14f25e39c76f4e05e3db1c558702f5f6723704754eef1",
    "stabilizer B3 id --point 1/2,1/1,3/4":
        "f803aa8b2518dec56a07ecade1565f211124e43149dc254269a70fe3c5c6b0aa",
}


@pytest.mark.parametrize("command", list(PINNED_GEOMETRY_OUTPUTS))
def test_geometry_outputs_match_their_pinned_hashes(command):
    code, text = run(command.split())
    assert code == EXIT_OK
    assert hashlib.sha256(text.encode()).hexdigest() == PINNED_GEOMETRY_OUTPUTS[command]
