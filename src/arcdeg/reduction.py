"""Descent: given same-type objects with y below z in the hom order,
produce an explicit chain of down-moves carrying the diagram of z to
the diagram of y.

A candidate move is admissible for the pair (y, z) when

* (P1) the hom delta of (y, z) is >= 1 everywhere on the move's region
  (checked on the finite test set, which covers the region by
  stabilization), and
* (P2) both end terms of the move's sequence witness occur more often
  in z than in y.

Applying an admissible move subtracts exactly 1 from the hom delta on
the region and leaves it unchanged elsewhere, so the new pair is again
in hom order.  The process terminates because every move strictly
decreases (pole count, crossing count) lexicographically, and a type
has finitely many diagrams.  The chain checks that strict drop at every
step, so a move that fails to make progress is reported at once.

The search tries the applicable moves of the diagram of z in canonical
order and returns the first admissible one; (P1) and (P2) are checked
explicitly, so every returned move is valid.
"""

from __future__ import annotations

from .errors import InternalInvariantViolation, NoDescentMove, NotComparable
from .homcalc import delta_profile, hom_leq, test_set
from .moves import Move, apply_down, down_moves, region, ses_witness
from .objects import S2Object, crossings, diagram_of_object, object_of_diagram, object_type


def _admissible(y: S2Object, z: S2Object, move: Move, members, deltas) -> bool:
    # the caller has checked that y and z share a type
    left, _, right = ses_witness(move)
    for end in (left[0], right[0]):
        if z.count(end) <= y.count(end):
            return False
    pred = region(move)
    return all(d >= 1 for x, d in zip(members, deltas) if pred(x))


def find_descent_move(y: S2Object, z: S2Object) -> Move:
    """The first admissible move, in canonical order, applicable to the
    diagram of z: (P1) and (P2) hold for it, so its result z' satisfies
    hom_leq(y, z').  An earlier move whose result is also above y is
    passed over when it is not admissible.  Raises
    :class:`NoDescentMove` when y and z are isomorphic and
    :class:`NotComparable` when y is not below z."""
    deltas = delta_profile(y, z)
    if y == z:
        raise NoDescentMove("the objects are isomorphic; nothing to descend")
    if min(deltas) < 0:
        raise NotComparable("y is not below z in the hom order")
    members = test_set(object_type(z)[0])
    for move, _ in down_moves(diagram_of_object(z)):
        if _admissible(y, z, move, members, deltas):
            return move
    raise InternalInvariantViolation(f"no admissible move for {y.to_text()} <= {z.to_text()}")


def reduction_steps(y: S2Object, z: S2Object) -> list[tuple[Move, S2Object]]:
    """The moves carrying the diagram of z down to the diagram of y,
    each with the object it leads to; empty exactly when the objects are
    isomorphic.  Every intermediate object stays above y in the hom
    order, and the last one is y.  Raises
    :class:`InternalInvariantViolation` at the first move that does not
    strictly lower (pole count, crossing count)."""
    beta, gamma = object_type(y)
    if not hom_leq(y, z):
        raise NotComparable("y is not below z in the hom order")
    steps: list[tuple[Move, S2Object]] = []
    current, diagram = z, diagram_of_object(z)
    rank = (len(diagram.poles), crossings(diagram))
    while current != y:
        move = find_descent_move(y, current)
        diagram = apply_down(diagram, move)
        nxt_rank = (len(diagram.poles), crossings(diagram))
        if nxt_rank >= rank:
            raise InternalInvariantViolation(f"move {move} does not lower (poles, crossings) from {rank}")
        current, rank = object_of_diagram(diagram, beta, gamma), nxt_rank
        if not hom_leq(y, current):
            raise InternalInvariantViolation(f"move {move} broke hom monotonicity")
        steps.append((move, current))
    return steps


def reduction_chain(y: S2Object, z: S2Object) -> list[Move]:
    """The moves of :func:`reduction_steps` alone."""
    return [move for move, _ in reduction_steps(y, z)]
