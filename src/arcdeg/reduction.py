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
explicitly, so every returned move is valid.  It builds no move result.
(P1) is one integer compare on the pair's packed hom delta diff, with
guard bits G (``homcalc._packed_delta``, whose module describes the
packing), and the move's region mask R (``moves._region_mask``): (P1)
holds iff (diff - R) & G == G.
"""

from __future__ import annotations

from .errors import InternalInvariantViolation, NoDescentMove, NotComparable
from .homcalc import _packed_delta, hom_leq
from .moves import Move, _move_candidates, _region_mask, apply_down, ses_witness
from .objects import S2Object, crossings, diagram_of_object, object_of_diagram, object_type


def find_descent_move(y: S2Object, z: S2Object) -> Move:
    """The first admissible move, in canonical order, applicable to the
    diagram of z: (P1) and (P2) hold for it, so its result z' satisfies
    hom_leq(y, z').  An earlier move whose result is also above y is
    passed over when it is not admissible.  Raises
    :class:`NoDescentMove` when y and z are isomorphic and
    :class:`NotComparable` when y is not below z."""
    diff, guard, w = _packed_delta(y, z)
    if y == z:
        raise NoDescentMove("the objects are isomorphic; nothing to descend")
    if diff & guard != guard:
        raise NotComparable("y is not below z in the hom order")
    # the default test set is the one at cutoff max_part + 1
    bound = object_type(z)[0].max_part + 1
    diagram = diagram_of_object(z)
    for kind, pts in sorted(_move_candidates(diagram.arcs, diagram.poles)):
        move = Move(kind, pts)
        left, _, right = ses_witness(move)
        if (
            z.count(left[0]) > y.count(left[0])
            and z.count(right[0]) > y.count(right[0])
            and (diff - _region_mask(move, bound, w)) & guard == guard
        ):
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
