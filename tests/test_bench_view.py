"""The bench traces library functions and reads library caches by name.

``bench/tracing.py`` lists them in ``LAYERS`` (functions wrapped per
layer) and ``CACHES`` (functions whose ``cache_info`` it reports).  A
name that no longer resolves is skipped there without a word and its
metrics vanish, so this test fails instead.  It loads the two tables in
a fresh interpreter that writes no bytecode, so nothing under ``bench/``
changes and no bench module stays imported here.

The bench's own tests (``bench/test_*.py``) also pin library behaviour
the bench relies on, such as the ``hom_leq`` calls that
``reduction_chain`` makes, so the suite runs them too, in a fresh
interpreter that writes nothing under ``bench/``.
"""

import json

from conftest import ROOT, run_python

BENCH_VIEW = """
import importlib, json, sys
sys.path.insert(0, sys.argv[1])
from tracing import CACHES, LAYERS
missing = []
for layer, names in LAYERS.items():
    module = importlib.import_module(f"arcdeg.{layer}")
    for name in names:
        if "." in name:
            # a dotted name is a classmethod, wrapped on its class
            cls_name, attr = name.split(".")
            found = isinstance(vars(getattr(module, cls_name, object)).get(attr), classmethod)
        else:
            found = callable(getattr(module, name, None))
        if not found:
            missing.append(f"{layer}.{name}")
for module, name, prefix in CACHES:
    if not hasattr(getattr(importlib.import_module(f"arcdeg.{module}"), name, None), "cache_info"):
        missing.append(f"{prefix} ({module}.{name}.cache_info)")
print(json.dumps({"layers": sum(map(len, LAYERS.values())), "caches": len(CACHES), "missing": missing}))
"""


def test_bench_layers_and_caches_resolve_in_the_library():
    proc = run_python("-B", "-c", BENCH_VIEW, str(ROOT / "bench"))
    assert proc.returncode == 0, proc.stderr
    view = json.loads(proc.stdout)
    assert view["layers"] > 0 and view["caches"] > 0
    assert view["missing"] == []


def test_bench_tests_pass_and_leave_bench_unchanged(monkeypatch):
    # the bench tests start interpreters of their own; none writes bytecode
    monkeypatch.setenv("PYTHONDONTWRITEBYTECODE", "1")
    bench = ROOT / "bench"
    before = {path: path.stat().st_mtime_ns for path in bench.rglob("*")}
    proc = run_python("-B", "-m", "pytest", "-q", "-p", "no:cacheprovider", "bench", cwd=ROOT)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert " passed" in proc.stdout and " failed" not in proc.stdout
    assert {path: path.stat().st_mtime_ns for path in bench.rglob("*")} == before
