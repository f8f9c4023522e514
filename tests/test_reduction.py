import pytest

import arcdeg.reduction
from arcdeg.errors import InternalInvariantViolation, NoDescentMove, NotComparable, TypeMismatch
from arcdeg.homcalc import delta_hom, hom_leq, test_set as hom_test_set
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

from conftest import DESCENT_Y, DESCENT_Z


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
