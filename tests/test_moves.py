import json
import random
from collections.abc import Callable
from itertools import combinations
from math import inf

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from arcdeg import moves
from arcdeg.errors import InternalInvariantViolation, MoveNotApplicable, TypeMismatch
from arcdeg.geometry import stratum_dim
from arcdeg.homcalc import delta_hom, delta_profile, hom_obj, mesh_defect_report, test_set as hom_test_set
from arcdeg.moves import (
    MOVE_ARITY,
    Move,
    _MOVE_PIECES,
    _REGIONS,
    _code,
    _down_closure,
    _extrema_ids,
    _move_delta,
    _node_dims,
    _reach_ids,
    _type_graph,
    _type_table,
    apply_down,
    arc_leq,
    down_moves,
    extrema,
    hasse,
    hasse_dot,
    region,
    ses_witness,
    unit_pair,
)
from arcdeg.objects import (
    B2,
    P0,
    P1,
    P2,
    ArcDiagram,
    Indecomposable,
    S2Object,
    alpha_of,
    crossings,
    diagram_of_object,
    enumerate_objects,
    object_type,
)
from arcdeg.partitions import Partition
from arcdeg.verify import all_partitions, subpartitions

from conftest import DESCENT_Y, DESCENT_Z, down_closure, iter_types, object_key


def moves_strategy():
    def build(kind, pts):
        return Move(kind, tuple(sorted(pts, reverse=True)))

    point_sets = {
        "A": st.lists(st.integers(1, 9), min_size=4, max_size=4, unique=True),
        "B": st.lists(st.integers(1, 9), min_size=3, max_size=3, unique=True),
        "C": st.lists(st.integers(1, 9), min_size=4, max_size=4, unique=True),
        "D": st.lists(st.integers(1, 9), min_size=3, max_size=3, unique=True),
        "E": st.lists(st.integers(1, 9), min_size=2, max_size=2, unique=True),
    }
    return st.sampled_from("ABCDE").flatmap(
        lambda k: point_sets[k].map(lambda pts: build(k, pts))
    )


def test_move_validation():
    with pytest.raises(ValueError):
        Move("A", (5, 5, 3, 1))
    with pytest.raises(ValueError):
        Move("E", (2, 2))
    with pytest.raises(ValueError):
        Move("B", (1, 2, 3))
    # points are ints, as partition parts and summand parameters are
    for points in [(2.0, 1), (2, True), (2, "1"), (2, None)]:
        with pytest.raises(ValueError, match="integer points"):
            Move("E", points)
    listed = Move("E", [2, 1])
    assert listed == Move("E", (2, 1)) and hash(listed) == hash(Move("E", (2, 1)))
    assert type(listed.points) is tuple and str(listed) == "E(2,1)"
    assert Move("A", (6, 4, 2, 1)).display_kind == "A"
    assert Move("A", (6, 4, 3, 2)).display_kind == "A'"


def test_move_refusals_give_their_exact_messages():
    # an unknown kind, a wrong number of points, and a point below 1
    cases = [
        ("F", (2, 1), "unknown move kind 'F'"),
        ("a", (6, 4, 2, 1), "unknown move kind 'a'"),
        ("E", [3, 2, 1], "move E takes 2 points, got (3, 2, 1)"),
        ("A", (3, 2, 1), "move A takes 4 points, got (3, 2, 1)"),
        ("E", (1, 0), "move points must be >= 1, got (1, 0)"),
        ("B", (3, -1, -2), "move points must be >= 1, got (3, -1, -2)"),
    ]
    for kind, points, message in cases:
        with pytest.raises(ValueError) as raised:
            Move(kind, points)
        assert str(raised.value) == message


def test_move_equality_hash_and_repr():
    move = Move("A", (6, 4, 2, 1))
    assert move == Move("A", (6, 4, 2, 1)) and hash(move) == hash(("A", (6, 4, 2, 1)))
    assert move != Move("C", (6, 4, 2, 1)) and move != Move("A", (7, 4, 2, 1))
    # a move is no tuple, so it never equals one and JSON writes its text
    assert move != ("A", (6, 4, 2, 1)) and not isinstance(move, tuple)
    assert json.dumps([move], default=str) == '["A(6,4,2,1)"]'
    assert len({move, Move("A", (6, 4, 2, 1)), Move("E", (2, 1))}) == 2
    assert repr(move) == "Move(kind='A', points=(6, 4, 2, 1))"
    assert str(move) == "A(6,4,2,1)"


def test_down_moves_contains_the_pole_slide():
    d_prime = ArcDiagram([(5, 1), (4, 2)], [3, 3], [])
    d = ArcDiagram([(5, 3), (4, 2)], [3, 1], [])
    results = down_moves(d_prime)
    assert (Move("B", (5, 3, 1)), d) in results


def test_down_moves_pole_split_example():
    d = ArcDiagram([(3, 1)], [3, 2], [])
    results = down_moves(d)
    assert (Move("D", (3, 2, 1)), ArcDiagram([(2, 1)], [3, 3], [])) in results


def test_down_moves_empty_diagram():
    assert down_moves(ArcDiagram()) == []


def test_down_moves_canonical_order():
    d = ArcDiagram([(6, 3), (5, 1)], [7, 4, 2], [])
    kinds = [mv.kind for mv, _ in down_moves(d)]
    assert kinds == sorted(kinds)
    a_moves = [mv for mv, _ in down_moves(d) if mv.kind == "B"]
    assert [mv.points for mv in a_moves] == sorted(mv.points for mv in a_moves)


def test_apply_down_worked_steps():
    dz = diagram_of_object(DESCENT_Z)
    d1 = apply_down(dz, Move("A", (6, 5, 3, 1)))
    assert d1 == ArcDiagram([(6, 1), (5, 3)], [7, 4, 2], [])
    d3 = ArcDiagram([(6, 2), (5, 3)], [7, 4, 1], [])
    d4 = apply_down(d3, Move("E", (7, 1)))
    assert d4 == ArcDiagram([(7, 1), (6, 2), (5, 3)], [4], [])


def test_apply_down_needs_distinct_poles():
    with pytest.raises(MoveNotApplicable):
        apply_down(ArcDiagram([], [3, 3], []), Move("E", (3, 1)))


def test_apply_down_checks_multiplicity():
    d = ArcDiagram([(4, 1)], [2], [])
    with pytest.raises(MoveNotApplicable):
        apply_down(d, Move("B", (5, 3, 1)))


def test_ses_witness_examples():
    u, m, v = ses_witness(Move("A", (7, 5, 3, 1)))
    assert (u, m, v) == (
        S2Object.of(B2(5, 1)),
        S2Object.of(B2(7, 1), B2(5, 3)),
        S2Object.of(B2(7, 3)),
    )
    u, m, v = ses_witness(Move("D", (6, 4, 2)))
    assert (u, m, v) == (
        S2Object.of(P1(4)),
        S2Object.of(P1(6), B2(4, 2)),
        S2Object.of(B2(6, 2)),
    )
    u, m, v = ses_witness(Move("E", (6, 2)))
    assert (u, m, v) == (S2Object.of(P1(6)), S2Object.of(B2(6, 2)), S2Object.of(P1(2)))


def test_ses_witness_composite_middles():
    # nested arc at the boundary parameter expands to its picket pair
    _, mid, _ = ses_witness(Move("A", (6, 4, 3, 1)))
    assert mid == S2Object.of(B2(6, 1), P2(4), P0(3))
    _, mid, _ = ses_witness(Move("E", (4, 3)))
    assert mid == S2Object.of(P2(4), P0(3))


def test_region_examples():
    pred = region(Move("E", (6, 2)))
    assert all(pred(P1(ell)) == (ell <= 2) for ell in range(1, 9))
    pred = region(Move("A", (6, 5, 3, 1)))
    assert pred(B2(6, 2))
    assert not pred(B2(7, 2))
    pred = region(Move("D", (6, 4, 2)))
    assert not any(pred(P1(ell)) for ell in range(1, 10))


@settings(max_examples=150)
@given(moves_strategy())
def test_ses_witness_type_additivity(move):
    u, mid, v = ses_witness(move)
    bu, gu = object_type(u)
    bv, gv = object_type(v)
    bm, gm = object_type(mid)
    assert Partition(bu + bv) == bm
    assert Partition(gu + gv) == gm
    assert alpha_of(u).weight() + alpha_of(v).weight() == alpha_of(mid).weight()
    # left exactness bounds the middle by the ends
    beta = bm
    for x in hom_test_set(beta):
        xo = S2Object.of(x)
        assert hom_obj(xo, mid) <= hom_obj(xo, u) + hom_obj(xo, v)


@settings(max_examples=150, deadline=None)
@given(moves_strategy())
def test_region_matches_unit_delta(move):
    smaller, larger = unit_pair(move)
    beta = object_type(smaller)[0]
    pred = region(move)
    for x in hom_test_set(beta):
        assert delta_hom(smaller, larger, x) == (1 if pred(x) else 0)


# the region of each kind written out as its own closure: the reference
# that the boxes of ``moves._REGIONS`` are compared with
def _reference_region(move: Move) -> Callable[[Indecomposable], bool]:
    """The indicator of the test objects on which the hom delta of a
    unit pair for this move equals 1 (it is 0 elsewhere)."""
    k, pts = move.kind, move.points

    if k == "A":
        m, n, r, s = pts

        def pred(x: Indecomposable) -> bool:
            return x.kind == "B2" and n < x.m <= m and s < x.r <= r

    elif k == "B":
        m, r, s = pts

        def pred(x: Indecomposable) -> bool:
            if x.kind == "B2":
                return x.m > m and s < x.r <= r
            return x.kind == "P1" and s < x.m <= r

    elif k == "C":
        m, n, r, s = pts

        def pred(x: Indecomposable) -> bool:
            if x.kind == "B2":
                return (x.m > m and r < x.r <= n) or (r < x.m <= n and x.r <= s)
            return x.kind == "P1" and r < x.m <= n

    elif k == "D":
        m, r, s = pts

        def pred(x: Indecomposable) -> bool:
            return x.kind == "B2" and r < x.m <= m and x.r <= s

    else:
        m, r = pts

        def pred(x: Indecomposable) -> bool:
            if x.kind == "B2":
                return x.m > m and x.r <= r
            return x.kind == "P1" and x.m <= r

    return pred


def _moves_up_to(max_point):
    """Every move with points <= max_point, in canonical order."""
    return [
        Move(kind, points)
        for kind, arity in MOVE_ARITY.items()
        for points in combinations(range(max_point, 0, -1), arity)
    ]


@pytest.mark.parametrize("weight, count", [(8, 20), (9, 30)])
def test_move_list_is_the_sweep_move_population(weight, count):
    # the moves on the edges of every type up to a weight are exactly the
    # moves whose unit pair fits in that weight
    seen = {
        (move.kind, move.points)
        for beta, gamma in iter_types(weight)
        for o in enumerate_objects(beta, gamma)
        for move, _ in down_moves(diagram_of_object(o))
    }
    listed = {
        (move.kind, move.points)
        for move in _moves_up_to(weight)
        if object_type(unit_pair(move)[0])[0].weight() <= weight
    }
    assert seen == listed
    assert len(seen) == count


def test_move_tables_list_the_kinds_in_canonical_order():
    # random unit-pair streams draw kinds from tuple(MOVE_ARITY), so a
    # reordered table would re-draw every stream and every report on one
    assert MOVE_ARITY == {"A": 4, "B": 3, "C": 4, "D": 3, "E": 2}
    assert list(MOVE_ARITY) == list(_MOVE_PIECES) == list(_REGIONS) == list("ABCDE")


def test_region_matches_reference_on_every_move_up_to_10():
    members = hom_test_set(Partition((12,)))
    assert len(members) == 78
    all_moves = _moves_up_to(10)
    assert len(all_moves) == 705
    for move in all_moves:
        pred, reference = region(move), _reference_region(move)
        assert [pred(x) for x in members] == [reference(x) for x in members], move


def test_every_move_up_to_10_has_its_region_and_mesh_identity():
    # hom is additive over summands, so a unit pair's delta and mesh
    # report depend on the move alone: the finite move list covers them
    for move in _moves_up_to(10):
        smaller, larger = unit_pair(move)
        beta = object_type(smaller)[0]
        pred = region(move)
        assert delta_profile(smaller, larger) == tuple(int(pred(x)) for x in hom_test_set(beta)), move
        assert mesh_defect_report(smaller, larger, move.points[0] + 4) == [], move


_context = st.lists(
    st.one_of(
        st.integers(1, 9).map(P1),
        st.integers(2, 9).map(P2),
        st.integers(1, 9).map(P0),
        st.tuples(st.integers(3, 9), st.integers(1, 7)).filter(lambda t: t[1] <= t[0] - 2).map(lambda t: B2(*t)),
    ),
    max_size=3,
)


@settings(max_examples=200)
@given(moves_strategy(), _context)
def test_moves_decrease_poles_then_crossings(move, context):
    smaller, larger = unit_pair(move, context)
    before = diagram_of_object(larger)
    after = apply_down(before, move)
    assert after == diagram_of_object(smaller)
    if move.kind == "E":
        assert len(after.poles) == len(before.poles) - 2
    else:
        assert len(after.poles) == len(before.poles)
        assert crossings(after) < crossings(before)
    assert (len(after.poles), crossings(after)) < (len(before.poles), crossings(before))


# small points, so that arcs and poles often repeat
_diagrams = st.builds(
    ArcDiagram,
    st.lists(st.sampled_from([(m, r) for m in range(2, 7) for r in range(1, m)]), max_size=6).map(tuple),
    st.lists(st.integers(1, 6), max_size=6).map(tuple),
    st.lists(st.integers(2, 6), max_size=2).map(tuple),
)


@settings(max_examples=300, deadline=None)
@given(_diagrams)
@example(ArcDiagram(((5, 2), (5, 2), (4, 1), (4, 1)), (3, 3, 2, 2), (4,)))
def test_down_moves_give_distinct_results_at_their_code_deltas(d):
    # the type record finds each result at the source's code plus the
    # move's delta, and counts the moves that leave it as its moves less
    # its successors, which needs distinct results
    found = down_moves(d)
    assert len({nxt for _, nxt in found}) == len(found)
    w = (2 * len(d.arcs) + len(d.poles) + len(d.loops)).bit_length()
    for move, nxt in found:
        assert _move_delta(w, move.kind, move.points) == _code(w, *nxt) - _code(w, *d)


def test_arc_leq_examples():
    assert arc_leq(DESCENT_Y, DESCENT_Z)
    assert not arc_leq(DESCENT_Z, DESCENT_Y)
    assert arc_leq(DESCENT_Y, DESCENT_Y)
    low = S2Object.of(B2(5, 3), B2(4, 2), P1(3), P1(1))
    high = S2Object.of(B2(5, 1), B2(4, 2), P1(3), P1(3))
    assert arc_leq(low, high)
    with pytest.raises(TypeMismatch):
        arc_leq(DESCENT_Y, S2Object.of(P0(1)))


def _arc_leq_matches_reach_ids(beta, gamma):
    graph = _type_graph(beta, gamma)
    nodes = graph.nodes
    reach = _reach_ids(graph)
    for i, y in enumerate(nodes):
        for j, z in enumerate(nodes):
            assert arc_leq(y, z) == bool(reach[j] >> i & 1), (y.to_text(), z.to_text())
    return nodes


def test_arc_leq_matches_reach_ids_on_staircase_6():
    nodes = _arc_leq_matches_reach_ids(Partition.of(6, 5, 4, 3, 2, 1), Partition.of(5, 4, 3, 2, 1))
    assert len(nodes) == 76


def test_arc_leq_on_objects_that_differ_only_in_loops():
    # adding P2(7) to every object of (5,4,3,2,1; 4,3,2,1) gives every
    # object of (7,5,4,3,2,1; 5,4,3,2,1): the same diagrams plus a loop at 7
    beta, gamma = Partition.of(5, 4, 3, 2, 1), Partition.of(4, 3, 2, 1)
    plain = enumerate_objects(beta, gamma)
    looped = _arc_leq_matches_reach_ids(Partition.of(7, 5, 4, 3, 2, 1), Partition.of(5, 4, 3, 2, 1))
    assert sorted(looped, key=object_key) == sorted(
        (S2Object(o + (P2(7),)) for o in plain), key=object_key
    )
    for y in plain:
        for z in plain:
            ly, lz = S2Object(y + (P2(7),)), S2Object(z + (P2(7),))
            assert diagram_of_object(ly).loops == (7,)
            assert arc_leq(ly, lz) == arc_leq(y, z)


def test_down_closure_is_keyed_by_arcs_and_poles():
    # each kept value is the (arcs, poles) one down-move below, as plain
    # tuples, one per move: distinct moves give distinct results
    for beta, gamma in iter_types(8):
        for o in enumerate_objects(beta, gamma):
            d = diagram_of_object(o)
            below = _down_closure(d.arcs, d.poles)
            assert all(type(a) is tuple and type(p) is tuple for a, p in below)
            assert len(set(below)) == len(below)
            assert set(below) == {(x.arcs, x.poles) for _, x in down_moves(d)}, d.to_text()


def _reference_leq(y, z):
    dy, dz = diagram_of_object(y), diagram_of_object(z)
    return dy.loops == dz.loops and (dy.arcs, dy.poles) in down_closure(dz.arcs, dz.poles)


def test_arc_leq_reuses_one_move_lists_and_matches_the_full_closure(monkeypatch):
    # every ordered pair of every realizable type up to weight 8, and 300
    # seeded staircase-7 pairs (half of them comparable), each with its
    # answer from the type's bitset closure
    cases = []
    for beta, gamma in iter_types(8):
        graph = _type_graph(beta, gamma)
        reach = _reach_ids(graph)
        cases += [
            (y, z, bool(reach[j] >> i & 1)) for i, y in enumerate(graph.nodes) for j, z in enumerate(graph.nodes)
        ]
    graph = _type_graph(Partition.of(7, 6, 5, 4, 3, 2, 1), Partition.of(6, 5, 4, 3, 2, 1))
    reach, nodes = _reach_ids(graph), graph.nodes
    rng = random.Random(7)
    for k in range(300):
        j = rng.randrange(len(nodes))
        below = [i for i in range(len(nodes)) if reach[j] >> i & 1]
        i = rng.choice(below) if k % 2 else rng.randrange(len(nodes))
        cases.append((nodes[i], nodes[j], bool(reach[j] >> i & 1)))
    assert len(cases) == 1510 + 300
    rng.shuffle(cases)

    # the pole counts of the states each query expands, read where the
    # search asks for a state's one-move list, kept or not
    expanded = []

    def recording(arcs, poles):
        expanded.append(len(poles))
        return _down_closure(arcs, poles)

    monkeypatch.setattr(moves, "_down_closure", recording)
    hits = _down_closure.cache_info().hits
    answers = []
    for y, z, below in cases:
        expanded.clear()
        answer = arc_leq(y, z)
        assert answer == below == _reference_leq(y, z), (y.to_text(), z.to_text())
        # no move adds a pole, so no state with fewer poles than y is needed
        assert min(expanded, default=inf) >= len(diagram_of_object(y).poles), (y.to_text(), z.to_text())
        answers.append(answer)
    assert 0 < sum(answers) < len(answers)
    # most queries reuse one-move lists that an earlier query kept
    assert _down_closure.cache_info().hits - hits > len(cases) // 2


def test_arc_order_search_stops_when_a_move_changes_the_point_count(monkeypatch):
    real = moves._apply
    calls = []

    def keep_first_removed_piece(kind, pts, arcs, poles):
        # without the check, the search grows without end: stop it here
        # rather than when memory runs out
        calls.append(kind)
        if len(calls) > 100:
            pytest.fail("the search applied 100 moves without the point-count check stopping it")
        arcs_after, poles_after = real(kind, pts, arcs, poles)
        arcs_out, poles_out, _, _ = moves._MOVE_PIECES[kind]
        if arcs_out:
            i, j = arcs_out[0]
            return tuple(sorted(arcs_after + ((pts[i], pts[j]),), reverse=True)), poles_after
        return arcs_after, tuple(sorted(poles_after + (pts[poles_out[0]],), reverse=True))

    z = S2Object.from_text("B(5,1)+P1(4)+P1(3)+P1(2)")
    y = S2Object.from_text("B(5,1)+B(4,2)+P1(3)")
    monkeypatch.setattr(moves, "_apply", keep_first_removed_piece)
    _down_closure.cache_clear()
    message = r"^B\(5,4,1\) changes the point count of arcs:5-1; poles:4,3,2; loops:$"
    try:
        with pytest.raises(InternalInvariantViolation, match=message):
            arc_leq(y, z)
    finally:
        _down_closure.cache_clear()
    # the check stops the search at the first faulty move
    assert calls == ["B"]


def test_arc_order_search_stops_when_a_move_adds_a_pole(monkeypatch):
    real = moves._apply

    def split_added_arc(kind, pts, arcs, poles):
        # a D move leaves the ends of the arc it adds as two poles: the
        # point count holds, the pole count rises by two
        arcs_after, poles_after = real(kind, pts, arcs, poles)
        if kind != "D":
            return arcs_after, poles_after
        arc = (pts[1], pts[2])
        rest = list(arcs_after)
        rest.remove(arc)
        return tuple(rest), tuple(sorted(poles_after + arc, reverse=True))

    z = S2Object.from_text("B(7,1)+P1(6)+P1(5)+P1(4)+P1(3)+P1(2)")
    objects = enumerate_objects(*object_type(z))
    y = next(y for y in objects if y != z)
    monkeypatch.setattr(moves, "_apply", split_added_arc)
    _down_closure.cache_clear()
    # the search raises while expanding z, after adding the result of B(7,6,1)
    message = r"^D\(7,6,1\) adds a pole to arcs:7-1; poles:6,5,4,3,2; loops:$"
    with pytest.raises(InternalInvariantViolation, match=message):
        arc_leq(y, z)
    monkeypatch.setattr(moves, "_apply", real)
    # the call that raised kept no one-move list for z
    assert [arc_leq(y, z) for y in objects] == [_reference_leq(y, z) for y in objects]


def test_hasse_five_element_poset():
    beta, gamma = Partition.of(3, 3, 2, 1), Partition.of(2, 2, 1)
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


def test_hasse_ten_element_poset():
    # transitive reduction of the ten-element reference poset; the edge
    # set was cross-checked by eye against the published picture
    beta, gamma = Partition.of(4, 3, 3, 2, 1), Partition.of(3, 2, 1, 1)
    edges = {
        (diagram_of_object(u).to_text(), diagram_of_object(v).to_text())
        for u, v in hasse(beta, gamma)
    }
    assert edges == {
        ("arcs:; poles:4,3,2,1; loops:3", "arcs:4-1; poles:3,2; loops:3"),
        ("arcs:4-1; poles:3,2; loops:3", "arcs:3-1; poles:4,2; loops:3"),
        ("arcs:4-1; poles:3,2; loops:3", "arcs:4-2; poles:3,1; loops:3"),
        ("arcs:3-1; poles:4,2; loops:3", "arcs:2-1; poles:4,3; loops:3"),
        ("arcs:3-1; poles:4,2; loops:3", "arcs:3-2; poles:4,1; loops:3"),
        ("arcs:3-1; poles:4,2; loops:3", "arcs:4-2,3-1; poles:; loops:3"),
        ("arcs:4-2; poles:3,1; loops:3", "arcs:3-2; poles:4,1; loops:3"),
        ("arcs:4-2; poles:3,1; loops:3", "arcs:4-3; poles:2,1; loops:3"),
        ("arcs:4-2; poles:3,1; loops:3", "arcs:4-2,3-1; poles:; loops:3"),
        ("arcs:2-1; poles:4,3; loops:3", "arcs:4-3,2-1; poles:; loops:3"),
        ("arcs:3-2; poles:4,1; loops:3", "arcs:4-1,3-2; poles:; loops:3"),
        ("arcs:4-3; poles:2,1; loops:3", "arcs:4-3,2-1; poles:; loops:3"),
        ("arcs:4-2,3-1; poles:; loops:3", "arcs:4-1,3-2; poles:; loops:3"),
        ("arcs:4-2,3-1; poles:; loops:3", "arcs:4-3,2-1; poles:; loops:3"),
    }


def test_hasse_single_element_type():
    beta = Partition.of(3, 1)
    assert hasse(beta, beta) == []


def _reference_hasse(beta, gamma):
    """The cover relation computed the slow way: one recursive frozenset
    closure of diagrams per node, a membership test per sibling pair,
    then a sort of the edges by the objects' sort keys."""
    nodes = enumerate_objects(beta, gamma)
    by_diagram = {diagram_of_object(o): o for o in nodes}
    closures = {}

    def closure(d):
        if d not in closures:
            reach = {d}
            for _, nxt in down_moves(d):
                reach |= closure(nxt)
            closures[d] = frozenset(reach)
        return closures[d]

    edges = []
    for u in nodes:
        succ = list(dict.fromkeys(
            by_diagram[nxt] for _, nxt in down_moves(diagram_of_object(u)) if nxt in by_diagram
        ))
        for v in succ:
            dv = diagram_of_object(v)
            if not any(w != v and dv in closure(diagram_of_object(w)) for w in succ):
                edges.append((u, v))
    edges.sort(key=lambda e: (object_key(e[0]), object_key(e[1])))
    return edges


def test_type_graph_matches_down_moves_up_to_weight_8():
    for beta, gamma in iter_types(8):
        graph = _type_graph(beta, gamma)
        nodes, succ = graph.nodes, graph.succ
        ids = {diagram_of_object(o): i for i, o in enumerate(nodes)}
        assert list(nodes) == sorted(nodes, key=object_key)
        for i, o in enumerate(nodes):
            d = diagram_of_object(o)
            expected = sorted({ids[nxt] for _, nxt in down_moves(d) if nxt in ids})
            assert list(succ[i]) == expected
            # every move lowers (poles, crossings): the closure order is topological
            rank = (len(d.poles), crossings(d))
            for j in succ[i]:
                dj = diagram_of_object(nodes[j])
                assert (len(dj.poles), crossings(dj)) < rank


def test_type_graph_columns_match_point_functions_up_to_weight_8():
    for beta, gamma in iter_types(8):
        graph = _type_graph(beta, gamma)
        assert list(graph.nodes) == enumerate_objects(beta, gamma)
        columns = (graph.diagrams, graph.crossings, graph.succ, graph.moves)
        assert {len(column) for column in columns} <= {len(graph.nodes)}
        for o, key, x, count in zip(graph.nodes, graph.diagrams, graph.crossings, graph.moves):
            d = diagram_of_object(o)
            assert key == (d.arcs, d.poles, d.loops)
            assert x == crossings(d)
            assert count == len(down_moves(d))
        # an enumerated type is closed under the moves
        assert graph.moves == tuple(map(len, graph.succ))


def _record_from_down_moves(nodes):
    """(succ, moves) of a record of these objects, from the point path:
    each node's down_moves results looked up as diagrams."""
    ids = {diagram_of_object(o): i for i, o in enumerate(nodes)}
    succ, moves = [], []
    for o in nodes:
        found = down_moves(diagram_of_object(o))
        succ.append(tuple(sorted({ids[nxt] for _, nxt in found if nxt in ids})))
        moves.append(len(found))
    return tuple(succ), tuple(moves)


def test_type_table_records_the_moves_that_leave_its_objects():
    # a record of part of a type counts, per node, the moves to the
    # objects left out as its moves less its successors: here every other
    # object, then each object alone, so that all its moves leave
    for beta, gamma in iter_types(7):
        nodes = enumerate_objects(beta, gamma)
        for kept in [nodes[::2]] + [[o] for o in nodes]:
            graph = _type_table(kept)
            assert (graph.succ, graph.moves) == _record_from_down_moves(kept)
            kept_diagrams = set(graph.diagrams)
            for o, count, targets in zip(kept, graph.moves, graph.succ):
                found = down_moves(diagram_of_object(o))
                assert count - len(targets) == sum(nxt not in kept_diagrams for _, nxt in found)


def test_type_table_codes_are_exact_at_the_width_boundary():
    # seven poles at 2: the record's largest point count is 7 = 2**3 - 1,
    # so its codes have 3-bit digits and this multiplicity fills one
    boundary = enumerate_objects(Partition.of(*[2] * 7), Partition.of(*[1] * 7))
    assert [diagram_of_object(o) for o in boundary] == [ArcDiagram((), (2,) * 7)]
    # a nearby type with moves: E(3,2) takes poles 3,2,2,2,2 to arc 3-2
    # with poles 2,2,2, whose code equals the seven poles' at 2-bit digits;
    # in one record with them, either object may come first
    nearby = enumerate_objects(Partition.of(3, 2, 2, 2, 2), Partition.of(2, 1, 1, 1, 1))
    assert ArcDiagram(((3, 2),), (2, 2, 2)) in map(diagram_of_object, nearby)
    for nodes in (boundary, nearby, boundary + nearby, nearby + boundary):
        graph = _type_table(nodes)
        assert (graph.succ, graph.moves) == _record_from_down_moves(nodes)


def test_ambient_record_restricted_to_a_type_is_the_type_record():
    # the sweep's one record of every object of beta holds the record of
    # each type (beta, gamma) on that gamma's ids: the same nodes in the
    # same order, diagrams, crossings, move counts, dimensions and
    # extrema, and the same successors once the ids are mapped
    for beta in all_partitions(8)[1:]:
        whole = _type_table(enumerate_objects(beta))
        whole_dims = _node_dims(whole, beta)
        covered = 0
        for gamma in subpartitions(beta):
            ids = [i for i, o in enumerate(whole.nodes) if object_type(o)[1] == gamma]
            graph = _type_table(enumerate_objects(beta, gamma))
            assert [whole.nodes[i] for i in ids] == list(graph.nodes)
            assert [whole.diagrams[i] for i in ids] == list(graph.diagrams)
            assert [whole.crossings[i] for i in ids] == list(graph.crossings)
            assert [whole.moves[i] for i in ids] == list(graph.moves)
            local = {i: k for k, i in enumerate(ids)}
            assert [tuple(local.get(j) for j in whole.succ[i]) for i in ids] == list(graph.succ)
            assert [whole_dims[i] for i in ids] == _node_dims(graph, beta)
            maximal, minimal = _extrema_ids(whole, ids)
            assert ([local[i] for i in maximal], [local[i] for i in minimal]) == _extrema_ids(graph)
            covered += len(ids)
        assert covered == len(whole.nodes)


def test_type_graph_matches_down_moves_on_staircase_9():
    beta, gamma = Partition.of(9, 8, 7, 6, 5, 4, 3, 2, 1), Partition.of(8, 7, 6, 5, 4, 3, 2, 1)
    graph = _type_graph(beta, gamma)
    assert len(graph.nodes) == 2620
    assert (graph.succ, graph.moves) == _record_from_down_moves(graph.nodes)


def test_node_dims_match_alpha_of_and_stratum_dim_per_node():
    # the record reads alpha off each class key (arcs + loops, poles);
    # alpha_of and stratum_dim, which read the summands, are the reference
    staircase_9 = (Partition.of(9, 8, 7, 6, 5, 4, 3, 2, 1), Partition.of(8, 7, 6, 5, 4, 3, 2, 1))
    for beta, gamma in [*iter_types(8), staircase_9]:
        graph = _type_graph(beta, gamma)
        dims = _node_dims(graph, beta)
        assert dims == [(alpha_of(o), stratum_dim(o)) for o in graph.nodes]
        assert all(type(alpha) is Partition and alpha == Partition(alpha) for alpha, _ in dims)


def test_hasse_matches_reference_up_to_weight_8():
    for beta, gamma in iter_types(8):
        assert hasse(beta, gamma) == _reference_hasse(beta, gamma)


def test_hasse_matches_reference_on_staircase_7():
    beta, gamma = Partition.of(7, 6, 5, 4, 3, 2, 1), Partition.of(6, 5, 4, 3, 2, 1)
    edges = hasse(beta, gamma)
    assert edges and edges == _reference_hasse(beta, gamma)


def test_extrema_examples():
    maximal, minimal = extrema(Partition.of(2, 1), Partition.of(1))
    assert maximal == [S2Object.of(P1(2), P1(1))]
    assert minimal == [S2Object.of(P2(2), P0(1))]
    maximal, minimal = extrema(Partition.of(3, 3, 2, 1), Partition.of(2, 2, 1))
    assert len(maximal) == 1 and len(minimal) == 2


def test_hasse_dot_export():
    dot = hasse_dot(Partition.of(2, 1), Partition.of(1))
    assert dot.startswith("digraph")
    assert dot.count("->") == 1
    assert "dim=" in dot and "alpha=" in dot
