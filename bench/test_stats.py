"""Tests of the benchmark's own arithmetic on tiny synthetic inputs.

    python3 -m pytest -q bench
"""

import json
import os
import signal
import subprocess
import sys
import time

import pytest

import hostspeed
from hostspeed import Meter
from run import END_TO_END, ROOT, per_layer_units
from stats import OpLog, parse_importtime, self_times, tail_percentile
from worker import Ops


def test_self_time_subtracts_direct_children_only():
    # root [0,10] > a [1,4] > a1 [2,3];  root > b [5,9]
    starts = [0.0, 1.0, 2.0, 5.0]
    ends = [10.0, 4.0, 3.0, 9.0]
    parents = [-1, 0, 1, 0]
    assert self_times(starts, ends, parents) == [3.0, 2.0, 1.0, 4.0]


def test_self_times_of_nested_spans_add_up_to_the_root():
    starts = [0.0, 0.5, 0.75, 2.0, 2.5]
    ends = [4.0, 1.5, 1.25, 3.5, 3.0]
    parents = [-1, 0, 1, 0, 3]
    assert sum(self_times(starts, ends, parents)) == pytest.approx(4.0)


def test_tail_leaves_at_least_ten_samples_above():
    # 1..100: p99 leaves 1 above, p95 leaves 5, p90 leaves 10.
    assert tail_percentile(range(1, 101)) == (90.0, 90, 10)
    # 1..1000: p99.9 leaves 1 above, p99 leaves 10.
    assert tail_percentile(range(1, 1001)) == (99.0, 990, 10)


def test_tail_is_order_independent():
    values = list(range(1, 101))
    assert tail_percentile(reversed(values)) == tail_percentile(values)


def test_tail_needs_twenty_samples():
    assert tail_percentile(range(19)) is None
    assert tail_percentile(range(1, 21)) == (50.0, 10, 10)
    assert tail_percentile([]) is None


def test_fail_ratio_base_counts_every_operation():
    log = OpLog()
    for ok in (True, True, False, True):
        log.record(ok, "bad")
    assert (log.attempted, log.failed) == (4, 1)
    assert log.fail_ratio == 0.25
    log.merge(6, 0)
    assert log.fail_ratio == 0.1


def test_fail_ratio_needs_a_base():
    with pytest.raises(ValueError):
        OpLog().fail_ratio


def test_exception_and_failed_check_both_count_as_failures():
    ops = Ops(tracer=None)
    ok = lambda out: (True, "")
    ops.run("fine", lambda: 1, ok)
    ops.run("wrong", lambda: 2, lambda out: (out == 3, f"got {out}"))
    ops.run("raises", lambda: 1 / 0, ok)
    ops.run("check raises", lambda: 4, lambda out: out / 0)
    assert ops.log.attempted == 1  # the exception; checks wait for check_all
    ops.check_all()
    assert (ops.log.attempted, ops.log.failed) == (4, 3)
    assert "ZeroDivisionError" in ops.log.messages[0]
    assert ops.log.messages[1] == "wrong: got 2"
    assert "ZeroDivisionError" in ops.log.messages[2]


def _meter(starts, ends, kernel_s):
    m = Meter()
    m.starts, m.ends, m.kernel_s = starts, ends, kernel_s
    return m


def test_stretches_leave_the_samples_out():
    m = _meter([0.0, 1.0, 3.0], [0.5, 1.25, 3.5], [0.001] * 3)
    assert m.stretches() == [0.5, 1.75]
    assert m.work_s == 2.25


def test_reference_time_rescales_each_stretch_by_its_own_samples():
    ref = hostspeed.REFERENCE_KERNEL_S
    # at the reference speed throughout, the rescaled time is the raw time
    m = _meter([0.0, 1.0, 3.0], [0.0, 1.0, 3.0], [ref] * 3)
    assert m.reference_s == pytest.approx(3.0)
    # stretch 1 between samples at 1x and 2x (mean 1.5x), stretch 2 at 2x
    m = _meter([0.0, 1.5, 3.5], [0.0, 1.5, 3.5], [ref, 2 * ref, 2 * ref])
    assert m.reference_s == pytest.approx(1.5 / 1.5 + 2.0 / 2.0)


def test_meter_samples_during_the_work_and_restores_the_signal():
    before = signal.getsignal(signal.SIGALRM)
    with Meter() as m:
        time.sleep(0.35)
    assert len(m.kernel_s) >= 4  # before, about three ticks, after
    assert m.work_s == pytest.approx(0.35, abs=0.05)
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
    assert signal.getsignal(signal.SIGALRM) in (before, signal.SIG_DFL)
    with Meter(sampling=False) as m:
        time.sleep(0.2)
    assert len(m.kernel_s) == 2


def test_digest_depends_on_outputs():
    a, b = Ops(None), Ops(None)
    a.run("x", lambda: [1, 2], lambda out: (True, ""))
    b.run("x", lambda: [1, 3], lambda out: (True, ""))
    assert a.digest() != b.digest()


def test_importtime_parsing():
    text = "\n".join(
        [
            "import time: self [us] | cumulative | imported package",
            "import time:       447 |        447 |   arcdeg.errors",
            "import time:      2635 |      78840 |     numpy",
            "import time:       891 |     216852 | arcdeg",
            "Traceback (most recent call last):",
        ]
    )
    times = parse_importtime(text)
    assert times["numpy"] == pytest.approx(0.07884)
    assert times["arcdeg"] == pytest.approx(0.216852)
    assert "self [us]" not in " ".join(times)


def test_metric_lists_match_benchmark_json():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == per_layer_units()


def test_tracer_sees_calls_through_every_binding():
    """reduction calls hom_leq through its own binding; the traced count
    must include those calls, not only the direct one."""
    code = (
        "import sys; sys.path[:0] = [sys.argv[1], sys.argv[2]]\n"
        "import arcdeg as A\n"
        "from tracing import Tracer\n"
        "t = Tracer(); t.install()\n"
        "y = A.S2Object.from_text('P2(2)+P0(1)'); z = A.S2Object.from_text('P1(2)+P1(1)')\n"
        "chain = A.reduction_chain(y, z)\n"
        "m = t.layer_metrics()\n"
        "print(len(chain), m['homcalc.hom_leq.calls'], m['reduction.find_descent_move.calls'],"
        " m['objects.S2Object.from_text.calls'])\n"
    )
    here = os.path.dirname(os.path.abspath(__file__))
    out = subprocess.run(
        [sys.executable, "-c", code, os.path.join(ROOT, "src"), here],
        capture_output=True, text=True, timeout=60, check=True,
    ).stdout.split()
    steps, hom_leq_calls, descent_calls, parsed = map(int, out)
    assert steps >= 1
    assert descent_calls == steps
    # one call on entry plus one per step inside reduction_chain
    assert hom_leq_calls == 1 + steps
    assert parsed == 2
