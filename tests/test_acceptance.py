"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines; all
checks are exact (integer equalities), and the stated wall-clock
budgets are asserted.
"""

import time
from collections import Counter

import pytest

from arcdeg.geometry import stratum_dim
from arcdeg.homcalc import delta_hom, hom_leq, hom_obj, mesh_defect_report, test_set as hom_test_set
from arcdeg.lr import lr_coefficient
from arcdeg.moves import Move, apply_down, extrema, hasse, region
from arcdeg.objects import (
    B2,
    P0,
    P1,
    P2,
    S2Object,
    diagram_of_object,
    enumerate_objects,
    object_of_diagram,
    object_type,
)
from arcdeg.oracle import oracle_hom_dim
from arcdeg.partitions import Partition, is_column_strip
from arcdeg.reduction import reduction_chain
from arcdeg.verify import random_same_type_pairs, random_unit_pairs

from conftest import DESCENT_Y, DESCENT_Z, ROOT, run_python


def _report(n: int, detail: str = ""):
    print(f"[criterion {n:2d}] PASS {detail}".rstrip())


def test_criterion_01_reference_poset_reproduction():
    t0 = time.time()
    beta, gamma = Partition.of(4, 3, 3, 2, 1), Partition.of(3, 2, 1, 1)
    objs = enumerate_objects(beta, gamma)
    assert len(objs) == 10
    dims = Counter(stratum_dim(o) for o in objs)
    assert dims == Counter({160: 2, 159: 4, 158: 2, 157: 1, 156: 1})
    maximal, minimal = extrema(beta, gamma)
    assert len(maximal) == 1
    top = maximal[0]
    assert stratum_dim(top) == 156
    d = diagram_of_object(top)
    assert d.arcs == () and d.poles and d.loops
    assert len(minimal) == 2
    assert all(stratum_dim(o) == 160 for o in minimal)
    elapsed = time.time() - t0
    assert elapsed < 1.0
    _report(1, f"10 strata, extrema and dimensions exact ({elapsed:.2f}s)")


def test_criterion_02_worked_chain_replay():
    t0 = time.time()
    beta, gamma = object_type(DESCENT_Y)
    chain = [
        Move("A", (6, 5, 3, 1)),
        Move("B", (6, 2, 1)),
        Move("E", (7, 1)),
        Move("B", (5, 4, 3)),
        Move("B", (7, 3, 1)),
    ]
    expected = [
        S2Object.of(B2(6, 1), B2(5, 3), P1(7), P1(4), P1(2)),
        S2Object.of(B2(6, 2), B2(5, 3), P1(7), P1(4), P1(1)),
        S2Object.of(B2(7, 1), B2(6, 2), B2(5, 3), P1(4)),
        S2Object.of(B2(7, 1), B2(6, 2), P2(5), P0(4), P1(3)),
        DESCENT_Y,
    ]
    current = DESCENT_Z
    for move, want in zip(chain, expected):
        current = object_of_diagram(apply_down(diagram_of_object(current), move), beta, gamma)
        assert current == want
    produced = reduction_chain(DESCENT_Y, DESCENT_Z)
    current = DESCENT_Z
    for move in produced:
        current = object_of_diagram(apply_down(diagram_of_object(current), move), beta, gamma)
        assert hom_leq(DESCENT_Y, current)
    assert current == DESCENT_Y
    elapsed = time.time() - t0
    assert elapsed < 1.0
    _report(2, f"five-move replay and produced chain of length {len(produced)} ({elapsed:.2f}s)")


def test_criterion_03_order_equivalence(weight8_sweep):
    assert weight8_sweep.failures.get("order-equivalence") is None
    assert weight8_sweep.pairs_checked > 1000
    _report(3, f"arc = hom on {weight8_sweep.pairs_checked} ordered pairs")


def test_criterion_04_strip_hypothesis_necessity():
    t0 = time.time()
    beta, gamma = Partition.of(3, 3, 2, 1), Partition.of(2, 2, 1)
    objs = enumerate_objects(beta, gamma)
    assert len(objs) == 5
    edges = {
        (diagram_of_object(u).to_text(), diagram_of_object(v).to_text())
        for u, v in hasse(beta, gamma)
    }
    assert edges == {
        ("arcs:; poles:3,3,2,1; loops:", "arcs:3-1; poles:3,2; loops:"),
        ("arcs:3-1; poles:3,2; loops:", "arcs:3-2; poles:3,1; loops:"),
        ("arcs:3-1; poles:3,2; loops:", "arcs:2-1; poles:3,3; loops:"),
        ("arcs:3-2; poles:3,1; loops:", "arcs:3-2,3-1; poles:; loops:"),
    }
    _, minimal = extrema(beta, gamma)
    assert len(minimal) == 2
    assert lr_coefficient(Partition.of(2, 2), gamma, beta) == 1
    assert not is_column_strip(beta, gamma)
    elapsed = time.time() - t0
    assert elapsed < 1.0
    _report(4, f"5 elements, 4 cover edges, 2 minima vs coefficient 1 ({elapsed:.2f}s)")


def test_criterion_05_dimension_monotonicity(weight8_sweep):
    assert weight8_sweep.failures.get("dimension-monotonicity") is None
    assert weight8_sweep.failures.get("dimension-identity") is None
    assert weight8_sweep.move_edges > 100
    _report(5, f"dimension grows along all {weight8_sweep.move_edges} move edges; identity exact")


def test_criterion_06_mesh_identity_random_pairs():
    count = 0
    for y, z in random_same_type_pairs(1000, 10, seed=64001):
        beta = object_type(y)[0]
        assert mesh_defect_report(y, z, beta.max_part + 4) == []
        count += 1
    assert count == 1000
    _report(6, "mesh identity exact on 1000 random same-type pairs")


def test_criterion_07_region_formulas_random_unit_pairs():
    count = 0
    for move, smaller, larger in random_unit_pairs(500, 10, seed=64002):
        beta = object_type(smaller)[0]
        pred = region(move)
        for x in hom_test_set(beta):
            assert delta_hom(smaller, larger, x) == (1 if pred(x) else 0)
        count += 1
    assert count == 500
    _report(7, "region indicator matches hom deltas on 500 random unit pairs")


def test_criterion_08_oracle_agreement():
    t0 = time.time()
    indecs = []
    for m in range(1, 11):
        indecs.append(P0(m))
        indecs.append(P1(m))
        if m >= 2:
            indecs.append(P2(m))
        indecs.extend(B2(m, r) for r in range(1, m - 1))
    pairs = 0
    for p in (2, 101):
        for x in indecs:
            for y in indecs:
                ox, oy = S2Object.of(x), S2Object.of(y)
                assert oracle_hom_dim(ox, oy, p) == hom_obj(ox, oy), f"[{x.to_text()}, {y.to_text()}] at p = {p}"
                pairs += 1
    assert oracle_hom_dim(S2Object.of(B2(5, 2)), S2Object.of(B2(4, 2)), 2) == 9
    elapsed = time.time() - t0
    assert elapsed < 30.0
    _report(8, f"oracle equals table on {pairs} solves over two primes ({elapsed:.1f}s)")


# One table entry beyond part 6 one too large, patched into a fresh
# interpreter before any hom value is computed: criterion 8 must fail on
# it and name it.  The random mesh stream of ``verify`` (100 pairs, seed
# 20_26) reports no failure under this fault.
ORACLE_FAULT = """
import sys
sys.path.insert(0, sys.argv[1])
from arcdeg import homcalc
from arcdeg.objects import B2
table = homcalc.hom_indec
homcalc.hom_indec = lambda x, y: table(x, y) + (x == B2(9, 4) and y == B2(8, 5))
from test_acceptance import test_criterion_08_oracle_agreement
try:
    test_criterion_08_oracle_agreement()
except AssertionError as exc:
    print(exc)
"""


def test_criterion_08_names_a_table_fault_beyond_part_6():
    proc = run_python("-c", ORACLE_FAULT, str(ROOT / "tests"))
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "[B(9,4), B(8,5)] at p = 2\n"


def test_criterion_09_cross_type_hom_fixtures():
    # same subspace and ambient types, different quotients
    x = S2Object.of(B2(4, 2))
    partner = S2Object.of(P0(4), P2(2))
    probes = hom_test_set(Partition.of(4, 2))
    assert all(hom_obj(S2Object.of(t), x) - hom_obj(S2Object.of(t), partner) >= 0 for t in probes)
    assert len(x) == 1 and len(partner) == 2
    # same subspace and quotient types, different ambients
    partner2 = S2Object.of(P2(5), P0(1))
    probes2 = hom_test_set(Partition.of(5, 1))
    assert all(hom_obj(S2Object.of(t), x) - hom_obj(S2Object.of(t), partner2) >= 0 for t in probes2)
    assert len(partner2) == 2
    assert object_type(x)[1] == object_type(partner2)[1]
    assert object_type(x)[0] == object_type(partner)[0]
    _report(9, "one-sided hom relations hold across both fixed-pair fixtures")


def test_criterion_10_dimension_gap_family():
    t0 = time.time()
    for n in range(0, 51):
        beta = Partition((3,) + (1,) * (n + 1))
        gamma = Partition.of(2)
        objs = enumerate_objects(beta, gamma)
        assert len(objs) == 2
        arc_side = S2Object.of(B2(3, 1), *(P1(1) for _ in range(n)))
        pole_side = S2Object.of(P1(3), *(P1(1) for _ in range(n + 1)))
        assert set(objs) == {arc_side, pole_side}
        assert stratum_dim(arc_side) - stratum_dim(pole_side) == n + 1
    elapsed = time.time() - t0
    assert elapsed < 1.0
    _report(10, f"gap equals n + 1 for n = 0..50 ({elapsed:.2f}s)")


def test_criterion_11_test_set_bound_soundness(weight8_sweep):
    assert weight8_sweep.failures.get("test-set-bound") is None
    _report(11, f"cutoff and widened cutoff agree on {weight8_sweep.pairs_checked} pairs")


def test_sweep_has_no_failures_at_all(weight8_sweep):
    assert weight8_sweep.ok, weight8_sweep.failures
