"""tests/pins.py, the one table of pinned CLI outputs: its rows up to D6
hold in a child that sees only the stdlib, `src` and `tests`, its `verify`
rows cover every suite, and the workflow runs the whole table."""

import subprocess
import sys
from pathlib import Path

from coxlehmer import verify

import pins

ROOT = Path(__file__).resolve().parent.parent
WORKFLOW = ROOT / ".github" / "workflows" / "tests.yml"


def test_the_table_runs_without_site_packages():
    # -S keeps site-packages out and -E any PYTHONPATH, so a third-party
    # import on a pinned path fails here; -B writes no bytecode into the tree
    script = ("import sys; sys.path[:0] = sys.argv[1:3]; import pins; "
              "sys.exit(pins.run(pins.ROWS))")
    done = subprocess.run([sys.executable, "-S", "-E", "-B", "-c", script,
                           str(ROOT / "src"), str(ROOT / "tests")],
                          capture_output=True, text=True)
    assert done.returncode == 0, done.stdout + done.stderr


def test_the_verify_rows_are_the_suite_registry():
    counts = [(argv[1], *want) for _, argv, _, _, want in pins.ROWS + pins.LARGE_ROWS
              if argv[0] == "verify"]
    assert sorted(suite for suite, _, _ in counts) == sorted(verify.SUITES)
    assert all(passed is True for _, passed, _ in counts)
    assert sum(n for _, _, n in counts) == 56684


def test_the_workflow_runs_the_table():
    step = WORKFLOW.read_text().split("- name: Runtime without the test extra", 1)[1]
    step = step.split("- name:", 1)[0]
    assert "tests/pins.py" in step
    assert "python -c" not in step
