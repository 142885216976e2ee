"""CI runs the checks at scale from ``scale/``, not from inline scripts: a
check that only the workflow holds cannot be run before a change is merged.
The workflow is read as text, since CI installs no YAML parser."""

import re
from pathlib import Path

WORKFLOW = (Path(__file__).resolve().parent.parent / ".github" / "workflows" / "tests.yml").read_text(encoding="utf-8")
STEPS = re.split(r"\n      - ", WORKFLOW.split("\n    steps:\n", 1)[1])


def test_one_step_runs_the_scale_checks():
    assert sum("python -m pytest scale" in step for step in STEPS) == 1


def test_no_step_but_the_installed_package_holds_a_timeout_bounded_call():
    bounded = [step.splitlines()[0] for step in STEPS
               if re.search(r"\btimeout\s+\d+\s+(python|liefoliate)\b", step) and "pip install --no-deps ." not in step]
    assert bounded == []
