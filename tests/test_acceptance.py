"""One test per acceptance criterion of ``twinefold.checks``.

All verdicts come from one shared ``twinefold verify --suite all`` run (the
``verify_run`` fixture), so each criterion runs once per session; the conftest
hook prints one PASS/FAIL line per criterion.
"""

import io
import json
import random

import pytest

from twinefold import checks
from twinefold.cli import EXIT_COMPUTE, EXIT_OK, main


def check_criterion(name, doc):
    """Assert that every row of one criterion passed, listing each failed row."""
    rows = [e for e in doc["checks"] if e["criterion"] == name]
    failed = [
        f"  {e['check']}: observed {e['observed']!r}, expected {e['expected']!r}, "
        f"error {e.get('error')}"
        for e in rows if not e["pass"]
    ]
    assert rows and not failed, "\n".join([f"criterion {name}: FAIL", *failed])


def _criterion_test(name):
    def test(verify_run):
        check_criterion(name, verify_run[1])

    return test


for _name in [c.name for c in checks.CRITERIA]:
    globals()["test_criterion_" + _name.replace(" ", "_")] = _criterion_test(_name)


def run_json(argv):
    out = io.StringIO()
    code = main(argv, out=out)
    return code, json.loads(out.getvalue())


def test_registry_layout(monkeypatch):
    assert [c.name[:2] for c in checks.CRITERIA] == [f"{i:02d}" for i in range(1, 13)]
    assert checks.SUITES == ("tables", "lattices", "characters", "fusion")
    # 01-02 tables, 03-04 lattices, 05-08 characters, 09-12 fusion
    assert [c.suite for c in checks.CRITERIA] == [
        s for s, n in zip(checks.SUITES, (2, 2, 4, 4)) for _ in range(n)
    ]
    # one stub row per criterion: --suite all must run them in registry order
    stub = [c._replace(rows=lambda: [("stub", lambda: (True, 0, 0))]) for c in checks.CRITERIA]
    monkeypatch.setattr(checks, "CRITERIA", stub)
    code, doc = run_json(["verify", "--suite", "all"])
    assert code == EXIT_OK
    assert doc["suites"] == list(checks.SUITES)
    assert [e["criterion"] for e in doc["checks"]] == [c.name for c in stub]


def test_failed_rows_carry_observed_expected_and_error(monkeypatch):
    def wrong(group, name, folded, orbit):
        if group == "A3":
            raise ZeroDivisionError("no A3")
        return checks._same(["A1", orbit], [folded, orbit])

    monkeypatch.setattr(checks, "_folded_types", wrong)
    code, doc = run_json(["verify", "--suite", "tables"])
    assert code == EXIT_COMPUTE
    rows = [e for e in doc["checks"] if e["criterion"] == "01 folding table"]
    assert rows[0]["error"] == "ZeroDivisionError: no A3"
    assert rows[1]["check"] == "A4 flip"
    assert rows[1]["observed"] == ["A1", "C2"]
    assert rows[1]["expected"] == ["BC2", "C2"]
    assert "error" not in rows[1]
    assert len(rows) == 9 and not any(e["pass"] for e in rows)

    with pytest.raises(AssertionError) as failure:
        check_criterion("01 folding table", doc)
    lines = [line.strip() for line in str(failure.value).splitlines()]
    assert lines[:3] == [
        "criterion 01 folding table: FAIL",
        "A3 flip: observed None, expected None, error ZeroDivisionError: no A3",
        "A4 flip: observed ['A1', 'C2'], expected ['BC2', 'C2'], error None",
    ]
    assert all(": observed " in line for line in lines[3:10])


def test_fixed_dominant_weights_height_3():
    expected = {
        ("A2", "flip"): {(0, 0), (1, 1)},
        ("A3", "flip"): {(0, 0, 0), (0, 1, 0), (1, 0, 1), (0, 2, 0), (1, 1, 1), (0, 3, 0)},
        ("A4", "flip"): {(0, 0, 0, 0), (1, 0, 0, 1), (0, 1, 1, 0)},
        ("D4", "rot"): {(0, 0, 0, 0), (0, 1, 0, 0), (1, 0, 1, 1), (0, 2, 0, 0), (0, 3, 0, 0)},
    }
    for (group, name), labels in expected.items():
        ctx = checks.context(group, name)
        weights = checks.fixed_dominant_weights(ctx, 3)
        got = [ctx.base.pairings(w) for w in weights]
        assert len(got) == len(labels) and set(got) == labels


@pytest.mark.xfail(
    strict=True,
    reason="jantzen_eval loses relative accuracy near walls; see perfbench/NOTES.md, "
    "'Known defect: the quotient formula near walls'",
)
def test_quotient_formula_rows_at_seed_3():
    # D6 flip misses the 1e-9 bound: relative error 1.25e-9 at |J(rho)(xi)| = 4.6e-6
    assert all(row.ok for row in checks.run(checks.quotient_formula_rows(random.Random(3))))
