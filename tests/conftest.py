import io
import json

import pytest

from twinefold.cli import main

_CRITERION_RESULTS = []


@pytest.fixture(scope="session")
def verify_run():
    """(exit code, JSON) of one `twinefold verify --suite all`, shared by the session."""
    out = io.StringIO()
    code = main(["verify", "--suite", "all"], out=out)
    return code, json.loads(out.getvalue())


@pytest.hookimpl(hookwrapper=True)
def pytest_runtest_makereport(item, call):
    outcome = yield
    report = outcome.get_result()
    if report.when == "call" and item.name.startswith("test_criterion_"):
        label = item.name.removeprefix("test_criterion_").replace("_", " ")
        _CRITERION_RESULTS.append((label, report.passed))


def pytest_terminal_summary(terminalreporter):
    """One pass/fail line per acceptance criterion at the end of the run."""
    if not _CRITERION_RESULTS:
        return
    terminalreporter.section("acceptance criteria")
    for label, passed in sorted(_CRITERION_RESULTS):
        terminalreporter.write_line(
            f"criterion {label}: {'PASS' if passed else 'FAIL'}"
        )
