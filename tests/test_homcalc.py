import json
from operator import le

import pytest
from hypothesis import given
from hypothesis import strategies as st

from arcdeg.errors import TypeMismatch
from arcdeg.homcalc import (
    MeshViolation,
    _hom_rows,
    _row_width,
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
from arcdeg.verify import _picket_probes, all_partitions, random_same_type_pairs

from conftest import DESCENT_Y, DESCENT_Z, ORDER_PATCH, ROOT, pack_row, run_python, tuple_hom_rows, unpack_row


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


def test_table_entry_refuses_an_unknown_source_kind():
    for kind in ("Q1", "B", "p1"):
        with pytest.raises(ValueError) as raised:
            table_entry(kind, 3, 0, "P1", 2, 0)
        assert str(raised.value) == f"unknown kind {kind!r}"


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


def _guard_bits(n, w):
    """The top bit of each of n fields of w bits, packed independently of homcalc."""
    return pack_row([1 << w - 1] * n, w)


def test_packed_rows_unpack_to_the_tuple_reference_up_to_weight_9():
    # the picket, default and wide tables the sweep packs, per ambient type
    for beta in all_partitions(9)[1:]:
        objects, w = enumerate_objects(beta), _row_width(beta)
        for xs in (_picket_probes(beta.max_part), hom_test_set(beta), hom_test_set(beta, beta.max_part + 4)):
            rows = [unpack_row(row, len(xs), w) for row in _hom_rows(xs, objects, w)]
            assert rows == tuple_hom_rows(xs, objects), (beta, len(xs))


def test_packed_verdicts_equal_the_tuple_reference_up_to_weight_10():
    # every ordered pair of objects of one ambient type, across quotients
    pairs = 0
    for beta in all_partitions(10)[1:]:
        objects, w = enumerate_objects(beta), _row_width(beta)
        for xs in (_picket_probes(beta.max_part), hom_test_set(beta), hom_test_set(beta, beta.max_part + 4)):
            guard = _guard_bits(len(xs), w)
            rows, ref = _hom_rows(xs, objects, w), tuple_hom_rows(xs, objects)
            for y, ref_y in zip(rows, ref):
                for z, ref_z in zip(rows, ref):
                    assert (((z | guard) - y) & guard == guard) == all(map(le, ref_y, ref_z)), (beta, len(xs))
                    pairs += 1
    assert pairs == 3 * 118_659


def test_point_queries_equal_the_tuple_reference():
    pairs = [*random_same_type_pairs(300, 10, seed=23), (S2Object(), S2Object())]
    for y, z in pairs:
        beta = object_type(y)[0]
        for bound in (None, beta.max_part + 4):
            ref_y, ref_z = tuple_hom_rows(hom_test_set(beta, bound), (y, z))
            assert delta_profile(y, z, bound) == tuple(b - a for a, b in zip(ref_y, ref_z)), (y, z, bound)
            if bound is None:
                assert hom_leq(y, z) == all(map(le, ref_y, ref_z)), (y, z)


# Each query kind runs alone in a fresh interpreter whose hom_indec is
# transformed ("x1000" scales it, "half" halves it), so its hom tables are
# empty when the patch goes in and any value that bypasses hom_indec comes
# out untransformed.  The tuple reference then runs under the same patch.
SCALED_HOM = """
import json, sys
sys.path.insert(0, sys.argv[1])
from conftest import tuple_hom_rows
from arcdeg import homcalc
from arcdeg.errors import InternalInvariantViolation
from arcdeg.objects import S2Object
table = homcalc.hom_indec
homcalc.hom_indec = {"x1000": lambda x, y: 1000 * table(x, y), "half": lambda x, y: table(x, y) // 2}[sys.argv[2]]
y, z = (S2Object.from_text(t) for t in sys.argv[4:6])
beta = homcalc.object_type(y)[0]
xs = homcalc.test_set(beta)
queries = {
    "hom_obj": lambda: homcalc.hom_obj(y, z),
    "delta_hom": lambda: [homcalc.delta_hom(y, z, x) for x in xs],
    "delta_profile": lambda: homcalc.delta_profile(y, z),
    "_hom_rows": lambda: homcalc._hom_rows(xs, (y, z), homcalc._row_width(beta)),
}
try:
    answer = queries[sys.argv[3]]()
except InternalInvariantViolation as exc:
    answer = {"error": str(exc)}
print(json.dumps({"answer": answer, "reference": tuple_hom_rows(xs, (y, z))}))
"""


def _scaled_hom(transform, query, y, z):
    proc = run_python("-c", SCALED_HOM, str(ROOT / "tests"), transform, query, y.to_text(), z.to_text())
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout)


def _out_of_bound(x, s, value):
    return f"hom table entry [{x.to_text()}, {s.to_text()}] = {value} lies outside [0, {2 * sum(s.ambient_parts())}]"


@pytest.mark.parametrize("query", ["hom_obj", "delta_hom", "delta_profile", "_hom_rows"])
def test_hom_tables_are_filled_through_hom_indec(query):
    y, z = DESCENT_Y, DESCENT_Z
    xs = hom_test_set(object_type(y)[0])
    answer = _scaled_hom("x1000", query, y, z)["answer"]
    if query in ("delta_profile", "_hom_rows"):
        # x1000 fits no field width: the packed paths name the first
        # nonzero entry of the first row they build (z's for the profile)
        s = (z if query == "delta_profile" else y)[0]
        x = next(x for x in xs if hom_indec(x, s))
        assert answer == {"error": _out_of_bound(x, s, 1000 * hom_indec(x, s))}
        return
    expected = {
        "hom_obj": lambda: hom_obj(y, z),
        "delta_hom": lambda: [delta_hom(y, z, x) for x in xs],
    }[query]()

    def scale(value):
        return [scale(v) for v in value] if isinstance(value, list) else 1000 * value

    assert scale(expected) != expected  # some value is nonzero, so the patch shows
    assert answer == scale(expected)


@pytest.mark.parametrize("query", ["delta_profile", "_hom_rows"])
def test_packed_paths_are_filled_through_hom_indec_within_the_bound(query):
    # halving keeps every entry in [0, 2|s|], so the packed paths answer,
    # and each answer is the tuple reference's under the same patch
    y, z = DESCENT_Y, DESCENT_Z
    beta = object_type(y)[0]
    out = _scaled_hom("half", query, y, z)
    ref_y, ref_z = out["reference"]
    assert [ref_y, ref_z] != [list(row) for row in tuple_hom_rows(hom_test_set(beta), (y, z))]
    expected = {
        "delta_profile": [b - a for a, b in zip(ref_y, ref_z)],
        "_hom_rows": [pack_row(ref_y, _row_width(beta)), pack_row(ref_z, _row_width(beta))],
    }[query]
    assert out["answer"] == expected


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
beta = homcalc.object_type(y)[0]
xs = homcalc.test_set(beta)
print(json.dumps({
    "hom_leq": homcalc.hom_leq(y, z),
    "delta_profile": homcalc.delta_profile(y, z),
    "delta_hom": [homcalc.delta_hom(y, z, x) for x in xs],
    "hom_obj": homcalc.hom_obj(S2Object.of(B2(3, 1)), y),
    "_hom_rows": homcalc._hom_rows(xs, (y, z), homcalc._row_width(beta)),
}))
"""


def test_one_hom_table_carries_a_fault_to_every_path():
    y, z = DESCENT_Y, DESCENT_Z
    beta = object_type(y)[0]
    xs = hom_test_set(beta)

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
    got = json.loads(proc.stdout)
    got["_hom_rows"] = [list(unpack_row(row, len(xs), _row_width(beta))) for row in got["_hom_rows"]]
    assert got == faulty


def _indecomposables(max_part):
    """Every indecomposable with parts at most max_part."""
    out = []
    for m in range(1, max_part + 1):
        out += [P0(m), P1(m), *([P2(m)] if m >= 2 else []), *(B2(m, r) for r in range(1, m - 1))]
    return out


def test_hom_table_entries_lie_within_the_packing_bound():
    # the field width of a packed row rests on 0 <= [x, s] <= 2|s|
    indecs = _indecomposables(16)
    assert len(indecs) == 152
    reached = 0
    for s in indecs:
        cap = 2 * sum(s.ambient_parts())
        for x in indecs:
            assert 0 <= hom_indec(x, s) <= cap, (x, s)
            reached += hom_indec(x, s) == cap
    assert reached  # the bound is sharp


# One entry of the pair table pushed out of [0, 2|s|] in a fresh
# interpreter: every packed path refuses the entry by name, and the CLI
# turns the refusal into exit code 2 with no traceback.
OUT_OF_BOUND_FAULT = """
import json, sys
from arcdeg import homcalc
from arcdeg.cli import main
from arcdeg.errors import InternalInvariantViolation
from arcdeg.objects import S2Object
y, z, x, s = (S2Object.from_text(t) for t in sys.argv[1:5])
fault, value = (x[0], s[0]), int(sys.argv[5])
table = homcalc.hom_indec
homcalc.hom_indec = lambda a, b: value if (a, b) == fault else table(a, b)
beta = homcalc.object_type(y)[0]
paths = {
    "_hom_rows": lambda: homcalc._hom_rows(homcalc.test_set(beta), (y,), homcalc._row_width(beta)),
    "delta_profile": lambda: homcalc.delta_profile(y, z),
    "hom_leq": lambda: homcalc.hom_leq(y, z),
}
errors = {}
for name, path in paths.items():
    try:
        path()
    except InternalInvariantViolation as exc:
        errors[name] = str(exc)
print(json.dumps(errors))
print(main(["hom", "--x", y.to_text(), "--y", z.to_text()]))
"""


@pytest.mark.parametrize("x, s, value", [(B2(3, 1), P2(5), 11), (P1(2), P0(4), -1)])
def test_an_entry_outside_the_bound_is_refused_by_name(x, s, value):
    # one entry at 2|s| + 1, one at -1; s is a summand of y alone
    y, z = DESCENT_Y, DESCENT_Z
    assert value in (-1, 2 * sum(s.ambient_parts()) + 1) and s in y and s not in z
    texts = (y.to_text(), z.to_text(), x.to_text(), s.to_text(), str(value))
    proc = run_python("-c", OUT_OF_BOUND_FAULT, *texts)
    assert proc.returncode == 0, proc.stderr
    errors, code = proc.stdout.splitlines()
    message = _out_of_bound(x, s, value)
    assert json.loads(errors) == dict.fromkeys(["_hom_rows", "delta_profile", "hom_leq"], message)
    assert code == "2"
    assert proc.stderr == f"error: {message}\n"
