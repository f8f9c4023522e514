"""Every narrative script in demos/ runs to completion."""

import pytest

from conftest import ROOT, run_python

DEMOS = sorted((ROOT / "demos").glob("*.py"))


@pytest.mark.parametrize("demo", DEMOS, ids=[d.name for d in DEMOS])
def test_demo_runs(demo, tmp_path):
    # cwd is a scratch directory because some demos write files there
    proc = run_python(str(demo), cwd=tmp_path)
    assert proc.returncode == 0, proc.stderr
