import io
import json
from fractions import Fraction

from twinefold.cli import (
    EXIT_COMPUTE,
    EXIT_OK,
    EXIT_PARSE,
    format_rational,
    main,
    parse_rational,
    parse_vector,
)


def run(argv):
    out = io.StringIO()
    code = main(argv, out=out)
    return code, out.getvalue()


def run_json(argv):
    code, text = run(argv)
    return code, json.loads(text)


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


def test_stabilizer_interior_point():
    code, doc = run_json(["stabilizer", "A2", "flip", "--point", "1/8,1/8"])
    assert code == EXIT_OK
    assert doc["stabilizer_type"] == "maximal torus"
    assert doc["pi1_free_rank"] == 1


def test_char_dimension():
    code, doc = run_json(["char", "A3", "flip", "--weight", "1,0,1"])
    assert code == EXIT_OK
    assert doc["dimension_at_identity"] == 5
    assert sum(c for _, c in doc["terms"]) == 5


def test_eval_cross_check():
    code, doc = run_json(["eval", "A2", "flip", "--weight", "1,1", "--point", "1/9,1/9"])
    assert code == EXIT_OK
    assert doc["regular"] is True
    assert doc["cross_check_residual"] < 1e-9


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


def test_compute_errors_exit_one():
    # a non-kappa-fixed weight is a domain error, reported structurally
    code, doc = run_json(["char", "A3", "flip", "--weight", "1,0,0"])
    assert code == EXIT_COMPUTE
    assert "error" in doc


def test_non_reduced_base_is_a_compute_error():
    for command in ("fold", "alcove"):
        code, doc = run_json([command, "BC2", "id"])
        assert code == EXIT_COMPUTE
        assert doc["error"]["type"] == "FoldingError"


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


def test_verify_names_the_exception(monkeypatch):
    def broken(group, automorphism):
        raise ZeroDivisionError(f"no context for {group}")

    monkeypatch.setattr("twinefold.checks.context", broken)
    code, doc = run_json(["verify", "--suite", "tables"])
    assert code == EXIT_COMPUTE
    assert doc["checks"] and not any(c["pass"] for c in doc["checks"])
    for c in doc["checks"]:
        assert c["error"].startswith("ZeroDivisionError: no context for ")
