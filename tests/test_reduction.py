from collections import Counter

import pytest

import arcdeg.reduction
from arcdeg.errors import ArcDegError, InternalInvariantViolation, NoDescentMove, NotComparable, TypeMismatch
from arcdeg.homcalc import _test_set, delta_hom, hom_leq, test_set as hom_test_set
from arcdeg.moves import Move, apply_down, down_moves, region
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
from arcdeg.partitions import Partition
from arcdeg.reduction import find_descent_move, reduction_chain, reduction_steps

from conftest import DESCENT_Y, DESCENT_Z, ROOT, iter_types, reference_find_descent_move, run_python

# the 150 reduce pairs of the bench query generator at seed 2
# (``bench/gen_queries.py --seed 2``): comparable pairs of the types of
# ambient (8,7,...,1), z a random walk of up to 8 down-moves above y
SEED2_REDUCE_PAIRS = ROOT / "tests" / "queries_seed2_reduce_pairs.json"

# every chain of SEED2_REDUCE_PAIRS, one line of move texts per pair, hashed
CHAIN_DIGEST = """
import hashlib, json, sys
from arcdeg.objects import S2Object
from arcdeg.reduction import reduction_chain
with open(sys.argv[1], encoding="utf-8") as fh:
    pairs = json.load(fh)
lines = [" ".join(m.to_text() for m in reduction_chain(*map(S2Object.from_text, p))) for p in pairs]
print(len(pairs), sum(len(line.split()) for line in lines))
print(hashlib.sha256("\\n".join(lines).encode()).hexdigest())
"""


def replay(z, chain):
    beta, gamma = object_type(z)
    current = z
    out = [z]
    for move in chain:
        current = object_of_diagram(apply_down(diagram_of_object(current), move), beta, gamma)
        out.append(current)
    return out


def test_find_descent_move_pinned_first_step():
    assert find_descent_move(DESCENT_Y, DESCENT_Z) == Move("A", (6, 5, 3, 1))


def test_find_descent_move_pinned_late_step():
    z3 = S2Object.of(B2(7, 1), B2(6, 2), B2(5, 3), P1(4))
    assert find_descent_move(DESCENT_Y, z3) == Move("B", (5, 4, 3))


def test_find_descent_move_passes_over_an_earlier_move_that_is_not_admissible():
    # E(5,1) comes first in canonical order and its result stays above y,
    # but E(5,2) is the first move that passes (P1) and (P2)
    y = S2Object.of(B2(5, 2), P1(1))
    z = S2Object.of(P1(5), P1(2), P1(1))
    beta, gamma = object_type(z)
    moves = [move for move, _ in down_moves(diagram_of_object(z))]
    assert moves.index(Move("E", (5, 1))) < moves.index(Move("E", (5, 2)))
    earlier = object_of_diagram(apply_down(diagram_of_object(z), Move("E", (5, 1))), beta, gamma)
    assert hom_leq(y, earlier)
    assert find_descent_move(y, z) == Move("E", (5, 2))


def test_find_descent_move_trivial_and_incomparable():
    with pytest.raises(NoDescentMove):
        find_descent_move(DESCENT_Y, DESCENT_Y)
    with pytest.raises(NotComparable):
        find_descent_move(DESCENT_Z, DESCENT_Y)
    with pytest.raises(TypeMismatch):
        find_descent_move(DESCENT_Y, S2Object.of(P0(2)))


def test_reduction_chain_two_element_poset():
    y = S2Object.of(P2(2), P0(1))
    z = S2Object.of(P1(2), P1(1))
    assert reduction_chain(y, z) == [Move("E", (2, 1))]
    assert reduction_chain(y, y) == []


def test_reduction_chain_worked_pair_is_sound_and_monotone():
    chain = reduction_chain(DESCENT_Y, DESCENT_Z)
    assert chain
    states = replay(DESCENT_Z, chain)
    assert states[-1] == DESCENT_Y
    for before, after in zip(states, states[1:]):
        assert hom_leq(DESCENT_Y, after)
        assert hom_leq(after, before)


def test_reduction_chain_rejects_incomparable():
    with pytest.raises(NotComparable):
        reduction_chain(DESCENT_Z, DESCENT_Y)


def test_descent_stops_at_the_first_move_that_does_not_lower_poles_and_crossings(monkeypatch):
    applied = []

    def stuck(diagram, move):
        applied.append(move)
        return diagram

    monkeypatch.setattr(arcdeg.reduction, "apply_down", stuck)
    with pytest.raises(InternalInvariantViolation, match=r"^move A\(6,5,3,1\) does not lower \(poles, crossings\)"):
        reduction_steps(DESCENT_Y, DESCENT_Z)
    assert applied == [Move("A", (6, 5, 3, 1))]


def test_descent_reports_a_pair_with_no_admissible_move(monkeypatch):
    # a region mask with every field set asks for a hom delta of at least
    # 1 on every test member, which no move of the worked pair meets
    def every_field(move, bound, w):
        return sum(1 << w * k for k in range(len(_test_set(bound))))

    monkeypatch.setattr(arcdeg.reduction, "_region_mask", every_field)
    with pytest.raises(InternalInvariantViolation) as raised:
        find_descent_move(DESCENT_Y, DESCENT_Z)
    assert str(raised.value) == (
        "no admissible move for B(7,3)+B(6,2)+P2(5)+P1(1)+P0(4) <= B(6,3)+B(5,1)+P1(7)+P1(4)+P1(2)"
    )


def test_descent_stops_at_the_first_move_that_leaves_the_hom_up_set_of_y(monkeypatch):
    # C(6,5,3,1) applies to the diagram of z and lowers its crossings, but
    # its result is not above y
    chosen = []

    def faulty(y, z):
        chosen.append(z)
        return Move("C", (6, 5, 3, 1))

    monkeypatch.setattr(arcdeg.reduction, "find_descent_move", faulty)
    with pytest.raises(InternalInvariantViolation) as raised:
        reduction_steps(DESCENT_Y, DESCENT_Z)
    assert str(raised.value) == "move C(6,5,3,1) broke hom monotonicity"
    assert chosen == [DESCENT_Z]


def test_published_five_move_chain_validates():
    # the known five-move chain for the worked pair, validated step by step
    chain = [
        Move("A", (6, 5, 3, 1)),
        Move("B", (6, 2, 1)),
        Move("E", (7, 1)),
        Move("B", (5, 4, 3)),
        Move("B", (7, 3, 1)),
    ]
    expected = [
        DESCENT_Z,
        S2Object.of(B2(6, 1), B2(5, 3), P1(7), P1(4), P1(2)),
        S2Object.of(B2(6, 2), B2(5, 3), P1(7), P1(4), P1(1)),
        S2Object.of(B2(7, 1), B2(6, 2), B2(5, 3), P1(4)),
        S2Object.of(B2(7, 1), B2(6, 2), P2(5), P0(4), P1(3)),
        DESCENT_Y,
    ]
    states = replay(DESCENT_Z, chain)
    assert states == expected
    for state in states:
        assert hom_leq(DESCENT_Y, state)


def test_delta_update_law_along_canonical_descent():
    beta, gamma = object_type(DESCENT_Y)
    members = hom_test_set(beta)
    current = DESCENT_Z
    while current != DESCENT_Y:
        move = find_descent_move(DESCENT_Y, current)
        pred = region(move)
        nxt = object_of_diagram(apply_down(diagram_of_object(current), move), beta, gamma)
        for x in members:
            drop = 1 if pred(x) else 0
            assert delta_hom(DESCENT_Y, nxt, x) == delta_hom(DESCENT_Y, current, x) - drop
        current = nxt


def test_descent_produces_valid_chains():
    pairs = [(DESCENT_Y, DESCENT_Z)]
    for beta, gamma in [
        (Partition.of(3, 2, 1), Partition.of(2, 1)),
        (Partition.of(4, 2, 1), Partition.of(3, 1)),
        (Partition.of(2, 2, 1, 1), Partition.of(1, 1)),
        (Partition.of(3, 3, 2, 1), Partition.of(2, 2, 1)),
    ]:
        objs = enumerate_objects(beta, gamma)
        pairs.extend((y, z) for y in objs for z in objs if y != z and hom_leq(y, z))
    assert len(pairs) > 10
    for y, z in pairs:
        chain = reduction_chain(y, z)
        states = replay(z, chain)
        assert states[-1] == y
        for before, after in zip(states, states[1:]):
            assert hom_leq(y, after) and hom_leq(after, before)


def test_completeness_at_desk_scale():
    # whenever the hom order holds, a chain exists (and conversely a chain
    # forces the hom order)
    beta, gamma = Partition.of(3, 2, 2, 1), Partition.of(2, 1, 1)
    objs = enumerate_objects(beta, gamma)
    for y in objs:
        for z in objs:
            if hom_leq(y, z):
                states = replay(z, reduction_chain(y, z))
                assert states[-1] == y
            else:
                with pytest.raises(NotComparable):
                    reduction_chain(y, z)


def _descent_outcome(find, y, z):
    """The move found, or the class and message of the error raised."""
    try:
        return find(y, z)
    except ArcDegError as exc:
        return type(exc), str(exc)


def test_find_descent_move_matches_the_per_member_reference():
    # every ordered pair of every type up to weight 8 and of staircase-6:
    # the packed (P1) check picks the reference's move or raises its error
    types = [*iter_types(8), (Partition.of(6, 5, 4, 3, 2, 1), Partition.of(5, 4, 3, 2, 1))]
    found = Counter()
    for beta, gamma in types:
        objs = enumerate_objects(beta, gamma)
        for y in objs:
            for z in objs:
                outcome = _descent_outcome(find_descent_move, y, z)
                assert outcome == _descent_outcome(reference_find_descent_move, y, z), (y.to_text(), z.to_text())
                found[outcome[0] if isinstance(outcome, tuple) else Move] += 1
    assert set(found) == {Move, NoDescentMove, NotComparable}
    assert sum(found.values()) == 1510 + 5776 and found[Move] > 1500


def test_reduction_chains_on_the_seed_2_bench_pairs_are_pinned():
    # digest recorded, in a fresh interpreter, from the descent that
    # checked (P1) member by member over the results of down_moves
    proc = run_python("-c", CHAIN_DIGEST, str(SEED2_REDUCE_PAIRS))
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == [
        "150",
        "339",
        "657c0da13fccf079d4c78d1e7d1d17e7bd6c358b07e6fef58c200f8bcf27b46c",
    ]
