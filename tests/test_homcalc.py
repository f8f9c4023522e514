import json

import pytest
from hypothesis import given
from hypothesis import strategies as st

from arcdeg.errors import TypeMismatch
from arcdeg.homcalc import (
    MeshViolation,
    _hom_rows,
    delta_hom,
    delta_mult,
    delta_profile,
    hom_indec,
    hom_leq,
    hom_obj,
    mesh_defect_report,
    table_entry,
    test_set as hom_test_set,
)
from arcdeg.moves import Move, unit_pair
from arcdeg.objects import B2, P0, P1, P2, S2Object, enumerate_objects, object_type
from arcdeg.partitions import Partition
from arcdeg.verify import random_same_type_pairs

from conftest import DESCENT_Y, DESCENT_Z, ORDER_PATCH, ROOT, run_python


def test_hom_indec_table_values():
    assert hom_indec(P2(5), P0(2)) == 2
    assert hom_indec(B2(5, 2), B2(4, 2)) == 9  # correction term active
    for m in (1, 3, 6):
        assert hom_indec(P1(m), P1(m)) == m
    assert hom_indec(P0(3), B2(5, 2)) == 5
    assert hom_indec(P1(4), B2(6, 3)) == 7


def test_hom_obj_examples():
    p11 = S2Object.of(P1(1))
    assert hom_obj(p11, DESCENT_Y) == 4
    assert hom_obj(p11, DESCENT_Z) == 5
    assert hom_obj(DESCENT_Y, S2Object()) == 0
    assert hom_obj(S2Object(), DESCENT_Y) == 0
    assert hom_obj(S2Object.of(B2(4, 2)), DESCENT_Y) == 31


def test_delta_hom_examples():
    assert delta_hom(DESCENT_Y, DESCENT_Z, P1(1)) == 1
    for m in range(2, 12):
        assert delta_hom(DESCENT_Y, DESCENT_Z, P2(m)) == 0
        assert delta_hom(DESCENT_Y, DESCENT_Z, P0(m)) == 0
    assert delta_hom(DESCENT_Y, DESCENT_Y, B2(5, 2)) == 0


def test_delta_mult_examples():
    assert delta_mult(DESCENT_Y, DESCENT_Z, B2(6, 3)) == 1
    assert delta_mult(DESCENT_Y, DESCENT_Z, B2(7, 3)) == -1
    assert delta_mult(DESCENT_Y, DESCENT_Y, P1(7)) == 0


def test_delta_requires_same_type():
    other = S2Object.of(P0(3))
    with pytest.raises(TypeMismatch):
        delta_hom(DESCENT_Y, other, P1(1))
    with pytest.raises(TypeMismatch):
        delta_mult(DESCENT_Y, other, P1(1))
    with pytest.raises(TypeMismatch):
        hom_leq(DESCENT_Y, other)
    with pytest.raises(TypeMismatch):
        delta_profile(DESCENT_Y, other)


def test_delta_profile_matches_delta_hom():
    for y, z in random_same_type_pairs(200, 8, seed=11):
        beta = object_type(y)[0]
        for bound in (None, beta.max_part + 4):
            expected = [delta_hom(y, z, x) for x in hom_test_set(beta, bound)]
            assert list(delta_profile(y, z, bound)) == expected


def test_test_set_examples():
    assert hom_test_set(Partition.of(2, 1)) == (P1(1), P1(2), B2(3, 1))
    assert hom_test_set(Partition.of(1)) == (P1(1),)
    assert hom_test_set(Partition()) == ()
    wide = hom_test_set(Partition.of(2, 1), bound=6)
    assert P1(5) in wide and B2(6, 4) in wide


def test_hom_leq_examples():
    assert hom_leq(DESCENT_Y, DESCENT_Z)
    assert not hom_leq(DESCENT_Z, DESCENT_Y)
    assert hom_leq(DESCENT_Y, DESCENT_Y)


def test_hom_leq_is_partial_order_at_desk_scale():
    beta, gamma = Partition.of(3, 2, 1), Partition.of(2, 1)
    objs = enumerate_objects(beta, gamma)
    assert len(objs) >= 3
    for a in objs:
        assert hom_leq(a, a)
        for b in objs:
            if hom_leq(a, b) and hom_leq(b, a):
                assert a == b
            for c in objs:
                if hom_leq(a, b) and hom_leq(b, c):
                    assert hom_leq(a, c)


@given(st.integers(min_value=2, max_value=9), st.integers(min_value=1, max_value=9),
       st.integers(min_value=1, max_value=9), st.integers(min_value=0, max_value=8))
def test_composite_consistency(m, ym, yr, side):
    # the bipicket formula at the boundary parameter r = m - 1 equals the
    # sum over the picket pair P2(m), P0(m-1), on either side
    others = [("P0", ym, 0), ("P1", ym, 0)]
    if ym >= 2:
        others.append(("P2", ym, 0))
    if yr < ym - 1:
        others.append(("B2", ym, yr))
    for kind, a, b in others:
        lhs = table_entry("B2", m, m - 1, kind, a, b)
        rhs = table_entry("P2", m, 0, kind, a, b) + table_entry("P0", m - 1, 0, kind, a, b)
        assert lhs == rhs
        lhs = table_entry(kind, a, b, "B2", m, m - 1)
        rhs = table_entry(kind, a, b, "P2", m, 0) + table_entry(kind, a, b, "P0", m - 1, 0)
        assert lhs == rhs


def test_stabilization():
    beta = Partition.of(7, 6, 5, 4, 3, 2, 1)
    b1 = beta.max_part
    for t in range(1, b1 + 1):
        expected = delta_hom(DESCENT_Y, DESCENT_Z, P1(t))
        for ell in range(max(b1 + 2, t + 2), b1 + 6):
            assert delta_hom(DESCENT_Y, DESCENT_Z, B2(ell, t)) == expected
    for ell in range(b1 + 1, b1 + 5):
        assert delta_hom(DESCENT_Y, DESCENT_Z, P1(ell)) == 0


def test_band_cells():
    # cell (ell, t) is labelled P1(ell) at t = 0, B2(ell, t) inside the band
    # and P2(ell) + P0(ell-1) at t = ell - 1; the mesh with window n reads
    # cells up to ell = n, whose single labels are test-set members at n + 1
    n = 10
    members = set(hom_test_set(Partition.of(7), n + 1))
    for ell in range(2, n + 1):
        assert {P1(ell), *(B2(ell, t) for t in range(1, ell - 1))} <= members
    # the composite cells carry hom delta 0
    for y, z in ((DESCENT_Y, DESCENT_Z), (DESCENT_Z, DESCENT_Y)):
        for ell in range(2, n + 1):
            assert delta_hom(y, z, P2(ell)) + delta_hom(y, z, P0(ell - 1)) == 0


def test_mesh_unit_move_cells():
    m, r = 5, 2
    smaller, larger = unit_pair(Move("E", (m, r)))

    def dh(x):
        return delta_hom(smaller, larger, x)

    # at the cell of the vanished pole: +1 (cell (m, 1) is B2(m, 1))
    mesh = dh(P1(m)) + dh(B2(m + 1, 1)) - dh(P1(m + 1)) - dh(B2(m, 1))
    assert mesh == 1 == delta_mult(smaller, larger, P1(m))
    # at the cell of the created arc: -1
    mesh = dh(B2(m, r)) + dh(B2(m + 1, r + 1)) - dh(B2(m + 1, r)) - dh(B2(m, r + 1))
    assert mesh == -1 == delta_mult(smaller, larger, B2(m, r))


def _mesh_reference(y, z, n):
    """The mesh report computed cell by cell: one label per band cell,
    each hom delta from ``delta_hom`` and each multiplicity delta from
    ``delta_mult``; composite cells (t = ell - 1) give 0."""

    def label(ell, t):
        if t == 0:
            return P1(ell)
        return B2(ell, t) if t < ell - 1 else None

    def dh(ell, t):
        x = label(ell, t)
        return 0 if x is None else delta_hom(y, z, x)

    violations = []
    for ell in range(2, n):
        for t in range(ell - 1):
            lhs = delta_mult(y, z, label(ell, t))
            rhs = dh(ell, t) + dh(ell + 1, t + 1) - dh(ell + 1, t) - dh(ell, t + 1)
            if lhs != rhs:
                violations.append(MeshViolation(ell, t, label(ell, t), lhs, rhs))
    return violations


def test_mesh_defect_report_matches_the_per_cell_reference():
    pairs = [*random_same_type_pairs(300, 9, seed=19), (S2Object(), S2Object())]
    for y, z in pairs:
        top = object_type(y)[0].max_part
        for n in (top + 3, top + 4):
            assert mesh_defect_report(y, z, n) == _mesh_reference(y, z, n) == []


# Under the order fault the mesh fails at many cells; the one-vector report
# and the per-cell reference must name the same cells with the same values.
MESH_UNDER_ORDER_FAULT = ORDER_PATCH + """
import sys
sys.path.insert(0, sys.argv[1])
from test_homcalc import _mesh_reference
from arcdeg.homcalc import mesh_defect_report
from arcdeg.objects import object_type
from arcdeg.verify import random_same_type_pairs
violations = 0
for y, z in random_same_type_pairs(200, 8, seed=19):
    n = object_type(y)[0].max_part + 3
    report = mesh_defect_report(y, z, n)
    assert report == _mesh_reference(y, z, n), (y, z)
    violations += len(report)
print(violations)
"""


def test_mesh_defect_report_matches_the_reference_under_an_order_fault():
    proc = run_python("-c", MESH_UNDER_ORDER_FAULT, str(ROOT / "tests"))
    assert proc.returncode == 0, proc.stderr
    assert int(proc.stdout) > 0


def test_mesh_defect_report_empty_cases():
    assert mesh_defect_report(DESCENT_Y, DESCENT_Y, 10) == []
    assert mesh_defect_report(DESCENT_Y, DESCENT_Z, 10) == []
    with pytest.raises(ValueError):
        mesh_defect_report(DESCENT_Y, DESCENT_Z, 9)  # window below max part + 3


def test_mesh_defect_report_over_a_type():
    beta, gamma = Partition.of(4, 2, 1), Partition.of(3, 1)
    objs = enumerate_objects(beta, gamma)
    for y in objs:
        for z in objs:
            for n in (beta.max_part + 3, beta.max_part + 4):
                assert mesh_defect_report(y, z, n) == _mesh_reference(y, z, n) == []


# Each query kind runs alone in a fresh interpreter whose hom_indec is
# scaled by 1000, so its hom tables are empty when the patch goes in and
# any value that bypasses hom_indec comes out unscaled.
SCALED_HOM = """
import json, sys
from arcdeg import homcalc
from arcdeg.objects import S2Object
table = homcalc.hom_indec
homcalc.hom_indec = lambda x, y: 1000 * table(x, y)
y, z = (S2Object.from_text(t) for t in sys.argv[2:4])
xs = homcalc.test_set(homcalc.object_type(y)[0])
queries = {
    "hom_obj": lambda: homcalc.hom_obj(y, z),
    "delta_hom": lambda: [homcalc.delta_hom(y, z, x) for x in xs],
    "delta_profile": lambda: homcalc.delta_profile(y, z),
    "_hom_rows": lambda: homcalc._hom_rows(xs, (y, z)),
}
print(json.dumps(queries[sys.argv[1]]()))
"""


@pytest.mark.parametrize("query", ["hom_obj", "delta_hom", "delta_profile", "_hom_rows"])
def test_hom_tables_are_filled_through_hom_indec(query):
    y, z = DESCENT_Y, DESCENT_Z
    xs = hom_test_set(object_type(y)[0])
    expected = {
        "hom_obj": lambda: hom_obj(y, z),
        "delta_hom": lambda: [delta_hom(y, z, x) for x in xs],
        "delta_profile": lambda: list(delta_profile(y, z)),
        "_hom_rows": lambda: [list(row) for row in _hom_rows(xs, (y, z))],
    }[query]()
    proc = run_python("-c", SCALED_HOM, query, y.to_text(), z.to_text())
    assert proc.returncode == 0, proc.stderr

    def scale(value):
        return [scale(v) for v in value] if isinstance(value, list) else 1000 * value

    assert scale(expected) != expected  # some value is nonzero, so the patch shows
    assert json.loads(proc.stdout) == scale(expected)


# One fresh interpreter, one fault in the pair table, patched before any
# hom value is computed; every path then runs in turn, hom_leq first, so
# a path that kept a table of its own, filled apart from hom_indec, would
# show the unfaulted value.
ONE_ENTRY_FAULT = """
import json, sys
from arcdeg import homcalc
from arcdeg.objects import B2, P2, S2Object
table = homcalc.hom_indec
homcalc.hom_indec = lambda x, y: table(x, y) + (x == B2(3, 1) and y == P2(5))
y, z = (S2Object.from_text(t) for t in sys.argv[1:3])
xs = homcalc.test_set(homcalc.object_type(y)[0])
print(json.dumps({
    "hom_leq": homcalc.hom_leq(y, z),
    "delta_profile": homcalc.delta_profile(y, z),
    "delta_hom": [homcalc.delta_hom(y, z, x) for x in xs],
    "hom_obj": homcalc.hom_obj(S2Object.of(B2(3, 1)), y),
    "_hom_rows": homcalc._hom_rows(xs, (y, z)),
}))
"""


def test_one_hom_table_carries_a_fault_to_every_path():
    y, z = DESCENT_Y, DESCENT_Z
    xs = hom_test_set(object_type(y)[0])

    def answers(pair):
        def row(o):
            return [sum(pair(x, s) for s in o) for x in xs]

        profile = [b - a for a, b in zip(row(y), row(z))]
        return {
            "hom_leq": min(profile) >= 0,
            "delta_profile": profile,
            "delta_hom": profile,
            "hom_obj": sum(pair(B2(3, 1), s) for s in y),
            "_hom_rows": [row(y), row(z)],
        }

    clean = answers(hom_indec)
    faulty = answers(lambda x, s: hom_indec(x, s) + (x == B2(3, 1) and s == P2(5)))
    assert clean["hom_leq"] and not faulty["hom_leq"]
    assert all(faulty[path] != clean[path] for path in clean)
    proc = run_python("-c", ONE_ENTRY_FAULT, y.to_text(), z.to_text())
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout) == faulty
