"""Each suite's default check count, pinned by name, and the workflow's
`verify <suite> --json` asserts held to the same table."""

import re
from pathlib import Path

from coxlehmer import verify

WORKFLOW = Path(__file__).resolve().parent.parent / ".github" / "workflows" / "tests.yml"

SUITE_CHECKS = {
    "codes": 39409,
    "shellings": 3806,
    "vd": 4439,
    "flag": 186,
    "routes": 1161,
    "catalan": 6542,
    "unimodal": 478,
    "smooth": 97,
    "h3-unimodal": 4,
    "d-factorization": 12,
    "h3-quotients": 11,
    "strict-inclusions": 5,
    "msequence": 496,
    "exponents": 38,
}


def test_every_suite_runs_its_pinned_check_count():
    assert {key: verify.run_suite(key).instances for key in verify.SUITES} == SUITE_CHECKS
    assert sum(SUITE_CHECKS.values()) == 56684


def workflow_pins(text):
    """(suite, count) for each `verify <suite> --json` row whose next line
    asserts doc["instances"] == count."""
    return re.findall(r'verify ([\w-]+) --json \\\n[^\n]*doc\["instances"\] == (\d+)', text)


def test_workflow_pins_match_the_table():
    pins = workflow_pins(WORKFLOW.read_text())
    assert [suite for suite, _ in pins] == ["routes", "shellings", "vd", "flag", "exponents",
                                            "codes", "catalan", "unimodal", "smooth"]
    assert {suite: int(n) for suite, n in pins} == {suite: SUITE_CHECKS[suite] for suite, _ in pins}
