import hashlib
import json

import pytest

from arcdeg.cli import main
from arcdeg.homcalc import _guard, _hom_rows, _row_width, delta_profile, hom_leq, hom_obj, test_set as hom_test_set
from arcdeg.geometry import stratum_dim
from arcdeg.moves import _reach_ids, _type_graph, arc_leq, down_moves
from arcdeg.objects import ArcDiagram, S2Object, alpha_of, diagram_of_object, enumerate_objects, object_type
from arcdeg.partitions import Partition
from arcdeg.verify import all_partitions, mesh_check, region_check, subpartitions

from conftest import DESCENT_Y, DESCENT_Z, ORDER_PATCH, iter_types, run_python, tuple_hom_rows, unpack_row

# Faults are injected in a fresh interpreter: patched in this process they
# would leave wrong entries in the session-wide type-graph, closure and
# hom-profile caches.
# enumeration drops B2(4,1), so some moves lead to an object never enumerated
ROLES_PATCH = """
from arcdeg import objects
from arcdeg.objects import B2
roles = objects._roles
objects._roles = lambda m, rest: (role for role in roles(m, rest) if role != B2(4, 1))
"""

ROLES_FAULT = ROLES_PATCH + """
import sys
from arcdeg.cli import main
sys.exit(main(["verify", "--beta-max", "6"]))
"""

# every pole adds 2 to the stratum dimension, so an E move, which fuses
# two poles into an arc, can lower it
MONOTONICITY_PATCH = """
from arcdeg import geometry
dims = geometry._stratum_dim_less_crossings
geometry._stratum_dim_less_crossings = lambda alpha, beta, gamma: (
    dims(alpha, beta, gamma) + 2 * alpha.count(1)
)
"""

# the type record's diagrams lose their loops, so the diagram of an
# object with an unpaired P2 completes to a different quotient type
DIAGRAM_FAULT = """
import sys
from arcdeg import moves, objects
from arcdeg.objects import ArcDiagram
diagram = objects.diagram_of_object
moves.diagram_of_object = lambda o: ArcDiagram(diagram(o).arcs, diagram(o).poles, ())
from arcdeg.cli import main
sys.exit(main(["verify", "--beta-max", "4"]))
"""

SWEEP_REPORT = """
import json
from arcdeg.verify import equivalence_sweep
report = equivalence_sweep(6)
counts = [report.types_seen, report.types_realizable, report.objects_total, report.pairs_checked, report.move_edges]
print(json.dumps([counts, report.failures]))
"""

HOM_FAULT = """
import json
from arcdeg import homcalc
from arcdeg.objects import P0
from arcdeg.verify import equivalence_sweep
table = homcalc.hom_indec
homcalc.hom_indec = lambda x, y: table(x, y) + (x == P0(2) and y.kind == "B2")
print(json.dumps(equivalence_sweep(6).failures.get("picket-delta-zero", [])))
"""

# the record's code for an E move on poles (m, r) gives a loop at m
# instead of the arc (m, r), so the record takes the result for a diagram
# of another type or of none; down_moves applies the move itself and
# stays right
DELTA_FAULT = """
import json
from arcdeg import moves
from arcdeg.verify import equivalence_sweep
delta = moves._move_delta
moves._move_delta = lambda w, kind, pts: (
    moves._code(w, (), (), pts[:1]) - moves._code(w, (), pts) if kind == "E" else delta(w, kind, pts)
)
report = equivalence_sweep(5)
counts = [report.types_seen, report.types_realizable, report.objects_total, report.pairs_checked, report.move_edges]
print(json.dumps([counts, report.failures]))
"""

ORDER_FAULT = ORDER_PATCH + """
import json
from arcdeg.verify import equivalence_sweep
print(json.dumps(equivalence_sweep(6).failures))
"""

ORDER_FAULT_MESH = ORDER_PATCH + """
import json
from arcdeg.verify import mesh_check
print(json.dumps(mesh_check(100, 8, seed=20_26)))
"""

ORDER_FAULT_VERIFY = ORDER_PATCH + """
import sys
from arcdeg.cli import main
sys.exit(main(["verify", "--beta-max", "6"]))
"""

# [P1(5), B2(5, r)] one too large, for every r: a fault that the random
# mesh stream misses and the region stream and the sweep catch
MESH_MISS_PATCH = """
from arcdeg import homcalc
entry = homcalc.table_entry
homcalc.table_entry = lambda xkind, xl, xt, ykind, ym, yr: (
    entry(xkind, xl, xt, ykind, ym, yr) + (xkind == "P1" and xl == 5 and ykind == "B2" and ym == 5)
)
"""

MESH_MISS_FAULT = MESH_MISS_PATCH + """
import sys
from arcdeg.cli import main
sys.exit(main(["verify", "--beta-max", "10"]))
"""

# [B2(6, t), P1(4)] one too small, for every t
B2_6_PATCH = """
from arcdeg import homcalc
entry = homcalc.table_entry
homcalc.table_entry = lambda xkind, xl, xt, ykind, ym, yr: (
    entry(xkind, xl, xt, ykind, ym, yr) - (xkind == "B2" and xl == 6 and ykind == "P1" and ym == 4)
)
"""

# the region check of ``arcdeg verify``: its failure count, first and last
# failure, and the sha256 of all failures joined by newlines
REGION_REPORT = """
import hashlib
from arcdeg.verify import region_check
failures = region_check(100, 10, seed=20_27)
digest = hashlib.sha256("\\n".join(failures).encode()).hexdigest()
print(len(failures), *failures[:1], *failures[-1:], digest, sep="\\n")
"""


def test_all_partitions_counts():
    # 1 + p(1) + ... + p(5) = 1 + 1 + 2 + 3 + 5 + 7
    assert len(all_partitions(5)) == 19
    assert Partition() in all_partitions(3)


def test_subpartitions():
    subs = subpartitions(Partition.of(2, 1))
    assert set(subs) == {
        Partition(),
        Partition.of(1),
        Partition.of(2),
        Partition.of(1, 1),
        Partition.of(2, 1),
    }


def test_iter_types_small():
    types = list(iter_types(2))
    assert (Partition.of(2), Partition.of(1)) in types
    assert all(b.contains(g) for b, g in types)


def test_mesh_and_region_checks_pass_small():
    assert mesh_check(25, 6, seed=7) == []
    assert region_check(25, 8, seed=8) == []


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_cli_enumerate_plain_and_json(capsys):
    code, out, _ = run_cli(capsys, "enumerate", "--beta", "2", "--gamma", "2")
    assert code == 0
    assert out.splitlines() == ["P0(2)\talpha=()\tx=0\tdim=2"]
    code, out, _ = run_cli(capsys, "enumerate", "--beta", "2,1", "--gamma", "1", "--json")
    rows = json.loads(out)
    assert [r["object"] for r in rows] == ["P2(2)+P0(1)", "P1(2)+P1(1)"]


def test_cli_enumerate_reference_poset(capsys):
    code, out, _ = run_cli(
        capsys, "enumerate", "--beta", "4,3,3,2,1", "--gamma", "3,2,1,1", "--json"
    )
    rows = json.loads(out)
    assert len(rows) == 10
    dims = sorted(r["dimension"] for r in rows)
    assert dims == [156, 157, 158, 158, 159, 159, 159, 159, 160, 160]


def test_cli_output_is_deterministic(capsys):
    _, out1, _ = run_cli(capsys, "enumerate", "--beta", "3,2,1", "--gamma", "2,1", "--json")
    _, out2, _ = run_cli(capsys, "enumerate", "--beta", "3,2,1", "--gamma", "2,1", "--json")
    assert out1 == out2


def test_cli_order(capsys):
    code, out, _ = run_cli(
        capsys,
        "order",
        "--y", "B(7,3)+B(6,2)+P2(5)+P0(4)+P1(1)",
        "--z", "B(6,3)+B(5,1)+P1(7)+P1(4)+P1(2)",
    )
    assert code == 0
    data = json.loads(out)
    assert data["arc_leq"] is True and data["hom_leq"] is True and data["agree"] is True


def test_cli_reduce(capsys):
    code, out, _ = run_cli(
        capsys,
        "reduce",
        "--y", "P2(2)+P0(1)",
        "--z", "P1(2)+P1(1)",
    )
    assert code == 0
    data = json.loads(out)
    assert data["chain"] == [
        {"kind": "E", "points": [2, 1], "before": "P1(2)+P1(1)", "after": "P2(2)+P0(1)"}
    ]

    code, out, _ = run_cli(capsys, "reduce", "--y", DESCENT_Y.to_text(), "--z", DESCENT_Z.to_text())
    assert code == 0
    steps = json.loads(out)["chain"]
    assert steps
    assert steps[0]["before"] == DESCENT_Z.to_text()
    for prev, step in zip(steps, steps[1:]):
        assert step["before"] == prev["after"]
    assert steps[-1]["after"] == DESCENT_Y.to_text()


def test_cli_dim(capsys):
    code, out, _ = run_cli(capsys, "dim", "--object", "P1(1)")
    data = json.loads(out)
    assert data == {
        "aut_degree": 1,
        "hall_degree": 0,
        "object": "P1(1)",
        "stratum_dim": 1,
        "subspace_orbit_dim": 1,
    }


def test_cli_hom_same_type_pair(capsys):
    code, out, _ = run_cli(capsys, "hom", "--x", "P2(2)+P0(1)", "--y", "P1(2)+P1(1)")
    data = json.loads(out)
    assert data["hom"] == 4
    assert data["delta_hom"] == {"P1(1)": 1, "P1(2)": 0, "B(3,1)": 1}


def test_cli_oracle(capsys):
    code, out, _ = run_cli(capsys, "oracle", "--x", "B(5,2)", "--y", "B(4,2)", "--prime", "101")
    data = json.loads(out)
    assert data["oracle"] == 9 and data["table"] == 9 and data["agree"] is True


def test_cli_lr(capsys):
    code, out, _ = run_cli(capsys, "lr", "--alpha", "2,2", "--gamma", "2,2,1", "--beta", "3,3,2,1")
    assert code == 0 and out.strip() == "1"


def test_cli_hasse_dot(tmp_path, capsys):
    path = tmp_path / "poset.dot"
    code, out, _ = run_cli(capsys, "hasse", "--beta", "3,3,2,1", "--gamma", "2,2,1", "--dot", str(path))
    assert code == 0
    dot = path.read_text()
    assert dot.count("->") == 4
    assert dot.startswith("digraph")


def test_cli_hasse_dot_is_byte_identical_on_staircase_8(capsys):
    # digest recorded from the frozenset-closure implementation
    code, out, _ = run_cli(
        capsys, "hasse", "--beta", "8,7,6,5,4,3,2,1", "--gamma", "7,6,5,4,3,2,1", "--dot", "-"
    )
    assert code == 0
    assert out.count("->") == 3181
    assert hashlib.sha256(out.encode()).hexdigest() == (
        "7d6b36d0e888ec593633d090dfa00c7dc09593c1a7985ec8e34a8e105dfab8fd"
    )


def test_cli_hasse_dot_is_byte_identical_on_staircase_9(capsys):
    # digest recorded from the record that built every move result as a tuple
    code, out, _ = run_cli(
        capsys, "hasse", "--beta", "9,8,7,6,5,4,3,2,1", "--gamma", "8,7,6,5,4,3,2,1", "--dot", "-"
    )
    assert code == 0
    assert out.count("->") == 13018
    assert hashlib.sha256(out.encode()).hexdigest() == (
        "28440042d2949e8b4eae2b1a6fdc494b95262107deda23d439bbe192943895dd"
    )


def test_cli_verify_is_byte_identical_at_weight_8(capsys):
    # digest recorded from the two-pass diagram round trip and the stratum
    # dimension summed from three orbit dimensions
    code, out, _ = run_cli(capsys, "verify", "--beta-max", "8")
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == (
        "d4fe43a50eacd71dc258309a87f381834c81e18dd59e7f4ccd169778d68052db"
    )


def test_cli_enumerate_json_is_byte_identical_on_staircase_8(capsys):
    # digest recorded from the enumerator that rebuilt each summand per step
    code, out, _ = run_cli(
        capsys, "enumerate", "--beta", "8,7,6,5,4,3,2,1", "--gamma", "7,6,5,4,3,2,1", "--json"
    )
    assert code == 0
    assert len(json.loads(out)) == 764
    assert hashlib.sha256(out.encode()).hexdigest() == (
        "13095d14a1cc44507cbaad84c37e52503bd103eb112f850812f5c36c1fb49db9"
    )


# digests recorded from the dataclass-keyed hom caches, the recursive
# diagram closure and the dense numpy elimination
POINT_QUERY_DIGESTS = {
    "order": "15cd50c58ba83696a0bfc83a2a995511e9e7bdfc500e58a20499a56d26343f4c",
    "hom": "4f8878c0e8c70b6695881e0e6140c3dadb238ba325c8b5c152c8a6b0b56fd2e3",
    "reduce": "d2bb544ac8dedfa1a73b7d0a9e85f7f7b1a5a4b86df08bbf47c9bcdca2221f92",
    "oracle": "ba3fc36cb6d474d5f2af2f937610c63a190d708a2fcf23562eebe6696d41445a",
}


@pytest.mark.parametrize("command", sorted(POINT_QUERY_DIGESTS))
def test_cli_point_queries_are_byte_identical_on_the_descent_pair(capsys, command):
    first, second = ("--x", "--y") if command in ("hom", "oracle") else ("--y", "--z")
    code, out, _ = run_cli(capsys, command, first, DESCENT_Y.to_text(), second, DESCENT_Z.to_text())
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == POINT_QUERY_DIGESTS[command]


def test_cli_hasse_dot_unwritable_path_exit_code(tmp_path, capsys):
    path = tmp_path / "missing" / "x.dot"
    code, out, err = run_cli(capsys, "hasse", "--beta", "2,1", "--gamma", "1", "--dot", str(path))
    assert code == 2
    assert err.startswith("error: ") and "Traceback" not in err
    assert out == ""


def test_cli_enumerate_more_parts_than_recursion_limit(capsys):
    code, out, _ = run_cli(capsys, "enumerate", "--beta", ",".join(["1"] * 1500), "--gamma", "")
    assert code == 0
    assert len(out.splitlines()) == 1


@pytest.mark.parametrize(
    "argv",
    [
        ["--beta-max", "-1"],
        ["--beta-max", "0"],
    ],
)
def test_cli_verify_rejects_inputs_that_check_nothing(capsys, argv):
    code, out, err = run_cli(capsys, "verify", *argv)
    assert code == 2
    assert err.startswith("error: ") and argv[-2] in err
    assert out == ""


def test_cli_oracle_rejects_composite_modulus(capsys):
    code, out, err = run_cli(capsys, "oracle", "--x", "B(5,2)", "--y", "B(4,2)", "--prime", "4")
    assert code == 2
    assert "prime" in err and out == ""


@pytest.mark.parametrize(
    "argv, code, text",
    [
        # a prime far past the bound is refused before any trial division
        (["--x", "B(5,2)", "--y", "B(4,2)", "--prime", "1000000000000000003"], 2, "2**40"),
        # the largest prime below 2**40
        (["--x", "B(5,2)", "--y", "B(4,2)", "--prime", "1099511627689"], 0, '"agree": true'),
        # an empty system still reaches the prime check
        (["--x", "", "--y", "", "--prime", "4"], 2, "prime"),
    ],
)
def test_cli_oracle_checks_the_prime_in_bounded_time(argv, code, text):
    # a fresh interpreter with a short timeout, so that a slow prime
    # check fails the test instead of hanging it
    proc = run_python("-m", "arcdeg", "oracle", *argv, timeout=10)
    assert proc.returncode == code, proc.stderr
    assert text in (proc.stdout if code == 0 else proc.stderr)


def test_cli_parse_error_exit_code(capsys):
    code, _, err = run_cli(capsys, "dim", "--object", "Q(3)")
    assert code == 2
    assert "error" in err


def test_cli_verify_reports_a_move_that_leaves_the_type():
    proc = run_python("-c", ROLES_FAULT)
    assert proc.returncode == 1, proc.stderr
    assert "FAILED move-type" in proc.stdout
    assert "Traceback" not in proc.stderr


def test_cli_verify_reports_a_diagram_that_completes_to_another_type():
    # the sweep records every such object as a round-trip failure and goes
    # on, instead of exiting 2 at the first one as on bad input
    proc = run_python("-c", DIAGRAM_FAULT)
    assert proc.returncode == 1, proc.stderr
    assert "FAILED roundtrip: 10 case(s); first: P2(4)" in proc.stdout.splitlines()
    assert "error:" not in proc.stderr and "Traceback" not in proc.stderr


def test_sweep_move_type_fault_report():
    # report recorded from the sweep that regenerated every move per object
    proc = run_python("-c", ROLES_PATCH + SWEEP_REPORT)
    assert proc.returncode == 0, proc.stderr
    counts, failures = json.loads(proc.stdout)
    assert counts == [229, 195, 231, 311, 41]
    assert failures == {
        "move-type": [
            "E(4,1) leaves the type from P1(4)+P1(1)",
            "E(4,1) leaves the type from P1(4)+P1(1)+P1(1)",
            "E(4,1) leaves the type from P1(4)+P1(1)+P0(1)",
        ]
    }


def test_sweep_monotonicity_fault_report():
    proc = run_python("-c", MONOTONICITY_PATCH + SWEEP_REPORT)
    assert proc.returncode == 0, proc.stderr
    counts, failures = json.loads(proc.stdout)
    assert counts == [229, 195, 234, 320, 41]
    # reference: every move of every object, with the faulty dimension
    def dim(o):
        return stratum_dim(o) + 2 * alpha_of(o).count(1)

    expected = []
    for beta, gamma in iter_types(6):
        objects = enumerate_objects(beta, gamma)
        by_diagram = {diagram_of_object(o): o for o in objects}
        for o in objects:
            for move, nxt in down_moves(diagram_of_object(o)):
                target = by_diagram[nxt]
                if dim(target) < dim(o) + 1:
                    expected.append(f"{move} from {o.to_text()} ({dim(o)} -> {dim(target)})")
    assert failures == {"dimension-monotonicity": expected}
    # as recorded from the sweep that regenerated every move per object
    assert len(expected) == 39
    assert expected[0] == "E(5,1) from P1(5)+P1(1) (36 -> 33)"


def test_sweep_reports_a_record_that_disagrees_with_down_moves():
    proc = run_python("-c", DELTA_FAULT)
    assert proc.returncode == 0, proc.stderr
    counts, failures = json.loads(proc.stdout)
    assert counts == [109, 97, 111, 139, 14]
    # recorded from the sweep that built one record per type, which wrote
    # no move-type line for this fault
    assert {kind: msgs for kind, msgs in failures.items() if kind != "move-type"} == {
        "order-equivalence": [
            "B(4,1) vs P1(4)+P1(1)",
            "P2(3)+P0(2) vs P1(3)+P1(2)",
            "B(3,1) vs P1(3)+P1(1)",
            "B(3,1)+P1(1) vs P1(3)+P1(1)+P1(1)",
            "B(3,1)+P0(1) vs P1(3)+P1(1)+P0(1)",
            "P2(2)+P0(2)+P0(1) vs P1(2)+P1(1)+P0(2)",
            "P2(2)+P2(2)+P0(1) vs P2(2)+P1(2)+P1(1)",
            "P2(2)+P1(2)+P0(1) vs P1(2)+P1(2)+P1(1)",
            "P2(2)+P0(1) vs P1(2)+P1(1)",
            "P2(2)+P1(1)+P0(1) vs P1(2)+P1(1)+P1(1)",
            "P2(2)+P0(1)+P0(1) vs P1(2)+P1(1)+P0(1)",
            "P2(2)+P1(1)+P1(1)+P0(1) vs P1(2)+P1(1)+P1(1)+P1(1)",
            "P2(2)+P1(1)+P0(1)+P0(1) vs P1(2)+P1(1)+P1(1)+P0(1)",
            "P2(2)+P0(1)+P0(1)+P0(1) vs P1(2)+P1(1)+P0(1)+P0(1)",
        ],
        "unique-maximal": [
            "type (4,1;3)",
            "type (3,2;2,1)",
            "type (3,1;2)",
            "type (3,1,1;2)",
            "type (3,1,1;2,1)",
            "type (2,2,1;2,1)",
            "type (2,2,1;1)",
            "type (2,2,1;1,1)",
            "type (2,1;1)",
            "type (2,1,1;1)",
            "type (2,1,1;1,1)",
            "type (2,1,1,1;1)",
            "type (2,1,1,1;1,1)",
            "type (2,1,1,1;1,1,1)",
        ],
        "minimal-count": [
            "type (4,1;3): predicted 1, found 2",
            "type (3,2;2,1): predicted 1, found 2",
            "type (3,1;2): predicted 1, found 2",
            "type (3,1,1;2,1): predicted 1, found 2",
            "type (2,2,1;2,1): predicted 1, found 2",
            "type (2,1;1): predicted 1, found 2",
            "type (2,1,1;1,1): predicted 1, found 2",
            "type (2,1,1,1;1,1,1): predicted 1, found 2",
        ],
    }
    # reference: per object, the E moves whose faulted result is no
    # diagram of its type; down_moves finds every result in the type
    expected = []
    for beta, gamma in iter_types(5):
        objects = enumerate_objects(beta, gamma)
        diagrams = set(map(diagram_of_object, objects))
        for o in objects:
            d = diagram_of_object(o)
            leaving = 0
            for move, result in down_moves(d):
                assert result in diagrams
                if move.kind == "E":
                    m, r = move.points
                    poles = list(d.poles)
                    poles.remove(m)
                    poles.remove(r)
                    leaving += ArcDiagram(d.arcs, poles, d.loops + (m,)) not in diagrams
            if leaving:
                expected.append(f"moves leaving the type from {o.to_text()}: {leaving} in the record, 0 in down_moves")
    assert len(expected) == 14
    assert failures["move-type"] == expected


def test_sweep_builds_one_record_per_ambient_type(monkeypatch):
    from arcdeg import verify

    built, sizes = [], []
    table = verify._type_table

    def counting(nodes):
        built.append(object_type(nodes[0])[0])
        sizes.append(len(nodes))
        return table(nodes)

    monkeypatch.setattr(verify, "_type_table", counting)
    report = verify.equivalence_sweep(6)
    assert report.ok
    counts = (report.types_seen, report.types_realizable, report.objects_total, report.pairs_checked)
    assert counts == (229, 195, 234, 320)
    # one record per non-empty beta, in walk order, of all its objects
    assert built == all_partitions(6)[1:]
    assert len(built) == 29
    assert sum(sizes) == report.objects_total


def test_sweep_picket_check_names_each_failing_object_once():
    # [P0(2), B2] one too large makes [P0(2), o] grow with the bipicket
    # count of o, so it differs from the first object's value exactly where
    # the bipicket counts differ
    proc = run_python("-c", HOM_FAULT)
    assert proc.returncode == 0, proc.stderr
    expected = []
    for beta, gamma in iter_types(6):
        objects = enumerate_objects(beta, gamma)
        counts = [sum(s.kind == "B2" for s in o) for o in objects]
        expected += [
            f"P0(2) on {objects[0].to_text()} vs {o.to_text()}"
            for o, count in zip(objects, counts)
            if count != counts[0]
        ]
    assert expected
    assert json.loads(proc.stdout) == expected


def test_sweep_order_fault_report():
    proc = run_python("-c", ORDER_FAULT)
    assert proc.returncode == 0, proc.stderr
    failures = json.loads(proc.stdout)
    assert {kind: len(msgs) for kind, msgs in failures.items()} == {
        "dimension-identity": 1,
        "order-equivalence": 13,
    }
    assert failures["order-equivalence"][0] == "B(5,1) vs P1(5)+P1(1)"


def test_mesh_check_order_fault_report():
    # every other mesh test expects an empty report; this one pins a failing
    # report, as recorded from the per-cell band walk
    proc = run_python("-c", ORDER_FAULT_MESH)
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout) == [
        "B(3,1)+P1(1)+P0(1)+P0(1) vs P1(3)+P1(1)+P1(1)+P0(1)+P0(1): MeshViolation(ell=2, t=0, "
        "label=Indecomposable(kind='P1', m=2, r=0), mult_delta=0, mesh_value=-1)",
        "P2(2)+P2(2)+P1(3)+P1(1) vs B(3,1)+P2(2)+P2(2): MeshViolation(ell=2, t=0, "
        "label=Indecomposable(kind='P1', m=2, r=0), mult_delta=0, mesh_value=1)",
        "P1(4)+P1(2)+P1(2) vs B(4,2)+P1(2): MeshViolation(ell=2, t=0, "
        "label=Indecomposable(kind='P1', m=2, r=0), mult_delta=-1, mesh_value=0)",
        "B(3,1)+P0(2)+P0(1) vs P1(3)+P1(1)+P0(2)+P0(1): MeshViolation(ell=2, t=0, "
        "label=Indecomposable(kind='P1', m=2, r=0), mult_delta=0, mesh_value=-1)",
        "P1(3)+P1(1)+P0(1) vs B(3,1)+P0(1): MeshViolation(ell=2, t=0, "
        "label=Indecomposable(kind='P1', m=2, r=0), mult_delta=0, mesh_value=1)",
    ]
    proc = run_python("-c", ORDER_FAULT_VERIFY)
    assert proc.returncode == 1, proc.stderr
    assert "mesh identity on 100 random pairs: FAILED" in proc.stdout.splitlines()


def test_cli_verify_report_under_a_fault_the_mesh_stream_misses():
    # pinned whole, so that a change of the mesh line shows as a diff here
    proc = run_python("-c", MESH_MISS_FAULT)
    assert (proc.returncode, proc.stderr) == (1, "")
    assert proc.stdout.splitlines() == [
        "types seen:       2887",
        "types realizable: 2087",
        "objects:          3169",
        "ordered pairs:    6497",
        "move edges:       1352",
        "FAILED order-equivalence: 88 case(s); first: B(5,1)+P0(4) vs P1(5)+P1(1)+P0(4)",
        "mesh identity on 100 random pairs: ok",
        "region indicator on 100 random unit pairs: FAILED",
    ]


def test_region_check_failures_under_single_entry_faults_are_pinned():
    # recorded, each in a fresh interpreter, from the region check that
    # compared delta_profile with region(move) member by member
    expected = {
        "": ["0", "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"],
        MESH_MISS_PATCH: [
            "8",
            "C(9,5,4,2) at P1(5)",
            "C(7,6,5,3) at P1(5)",
            "6875432c1e04537192a7a3606672c5838739666cc98bebfe0a2aee1fa746c480",
        ],
        ORDER_PATCH: [
            "48",
            "B(6,5,3) at P1(2)",
            "E(10,4) at P1(2)",
            "8fae571b6da40efd1f02afa2239b616e06a53d4b5b3bc0237b4a9ef100db2a8c",
        ],
        B2_6_PATCH: [
            "15",
            "B(7,5,4) at B(6,1)",
            "B(8,5,4) at B(6,1)",
            "4816a1d5c8dd835d5ec592abfb50b07dc59ae9a44cd0e1fb3b8f5257bb86ec24",
        ],
    }
    for patch, report in expected.items():
        proc = run_python("-c", patch + REGION_REPORT)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.splitlines() == report


def test_sweep_tables_match_point_queries_up_to_weight_7():
    # the sweep reads both orders from whole-type tables; the tuple
    # reference rows and the per-pair hom_leq and arc_leq check them
    pairs = 0
    for beta, gamma in iter_types(7):
        graph = _type_graph(beta, gamma)
        objects = graph.nodes
        if not objects:
            continue
        w = _row_width(beta)
        xs = hom_test_set(beta)
        rows, ref = _hom_rows(xs, objects, w), tuple_hom_rows(xs, objects)
        for o, row, ref_row in zip(objects, rows, ref):
            assert unpack_row(row, len(xs), w) == ref_row == tuple(hom_obj(S2Object.of(x), o) for x in xs)
        wide = beta.max_part + 4
        wide_xs = hom_test_set(beta, wide)
        wide_rows, wide_ref = _hom_rows(wide_xs, objects, w), tuple_hom_rows(wide_xs, objects)
        guard, wide_guard = _guard(len(xs), w), _guard(len(wide_xs), w)
        reach = _reach_ids(graph)
        for i, y in enumerate(objects):
            for j, z in enumerate(objects):
                pairs += 1
                hom = ((rows[j] | guard) - rows[i]) & guard == guard
                assert hom == all(a <= b for a, b in zip(ref[i], ref[j])) == hom_leq(y, z)
                wide_hom = ((wide_rows[j] | wide_guard) - wide_rows[i]) & wide_guard == wide_guard
                wide_leq = min(delta_profile(y, z, wide), default=0) >= 0
                assert wide_hom == all(a <= b for a, b in zip(wide_ref[i], wide_ref[j])) == wide_leq
                assert bool(reach[j] >> i & 1) == arc_leq(y, z)
    assert pairs == 703  # as in equivalence_sweep(7)


def test_cli_verify_small(capsys):
    code, out, _ = run_cli(capsys, "verify", "--beta-max", "4")
    assert code == 0
    assert "all checks passed" in out
    assert "mesh identity on 100 random pairs: ok" in out
    assert "region indicator on 100 random unit pairs: ok" in out
