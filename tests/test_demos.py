"""The narrated demos run to completion, warnings counted as errors."""

from pathlib import Path

import pytest

from conftest import run_isolated

DEMOS = sorted((Path(__file__).resolve().parent.parent / "demos").glob("*.py"))


def test_demos_found():
    assert len(DEMOS) >= 6


@pytest.mark.parametrize("demo", DEMOS, ids=[d.stem for d in DEMOS])
def test_demo_runs(demo):
    proc = run_isolated(["-W", "error", str(demo)])
    assert proc.returncode == 0, proc.stderr
