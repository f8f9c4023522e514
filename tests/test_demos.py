"""Every narrative script in demos/ runs to completion."""

import pytest

from conftest import ROOT, run_python

DEMOS = sorted((ROOT / "demos").glob("*.py"))


@pytest.mark.parametrize("demo", DEMOS, ids=[d.name for d in DEMOS])
def test_demo_runs(demo, tmp_path):
    # cwd is a scratch directory because some demos write files there
    proc = run_python(str(demo), cwd=tmp_path)
    assert proc.returncode == 0, proc.stderr


def test_mesh_demo_prints_the_marked_cells(tmp_path):
    proc = run_python(str(ROOT / "demos" / "hom_table_and_mesh.py"), cwd=tmp_path)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-3:] == [
        "  at the vanished pole:  mesh=+1  mult delta=+1",
        "  at the created arc:    mesh=-1  mult delta=-1",
        "  full report over the window: empty, as expected",
    ]
