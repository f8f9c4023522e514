import os
import subprocess
import sys
from functools import lru_cache
from operator import attrgetter
from pathlib import Path

import pytest

from arcdeg import homcalc
from arcdeg.errors import InternalInvariantViolation, NoDescentMove, NotComparable
from arcdeg.homcalc import delta_profile, test_set
from arcdeg.moves import Move, _apply, _move_candidates, down_moves, region, ses_witness
from arcdeg.objects import ArcDiagram, S2Object, diagram_of_object, object_type

ROOT = Path(__file__).resolve().parent.parent

# The standard worked pair used by the hom and reduction tests: two
# objects of type ((7,6,5,4,3,2,1); (6,5,4,3,2,1)) with DESCENT_Y
# strictly below DESCENT_Z in every order.
DESCENT_Y = S2Object.from_text("B(7,3)+B(6,2)+P2(5)+P0(4)+P1(1)")
DESCENT_Z = S2Object.from_text("B(6,3)+B(5,1)+P1(7)+P1(4)+P1(2)")

# Patched into a fresh interpreter before any hom value is computed:
# [P1(2), B2] one too large breaks the hom order itself, not only a picket,
# and with it the mesh identity at the cells labelled P1(2).
ORDER_PATCH = """
from arcdeg import homcalc
from arcdeg.objects import P1
table = homcalc.hom_indec
homcalc.hom_indec = lambda x, y: table(x, y) + (x == P1(2) and y.kind == "B2")
"""


def canonical_summands(summands) -> tuple:
    """The summands in canonical order, sorted on their sort keys: the
    reference for the tuple-order sort in ``S2Object``."""
    return tuple(sorted(summands, key=attrgetter("sort_key")))


def object_key(obj):
    """The canonical order on objects: the summands' sort keys, in order."""
    return tuple(s.sort_key for s in obj)


@lru_cache(maxsize=None)
def down_closure(arcs, poles) -> frozenset:
    """Every (arcs, poles) reachable from these by down-moves, the start
    included, found by an explicit-stack search (moves leave loops
    alone): the slow full-closure reference for ``moves._reaches``.  It
    reads the move table bound at import, so a patched ``moves._apply``
    does not reach it.  Every move keeps the point count 2·arcs + poles;
    a state with another count raises."""
    start = (arcs, poles)
    count = 2 * len(arcs) + len(poles)
    reach = {start}
    stack = [start]
    while stack:
        arcs, poles = stack.pop()
        for kind, pts in _move_candidates(arcs, poles):
            nxt = _apply(kind, pts, arcs, poles)
            if nxt not in reach:
                if 2 * len(nxt[0]) + len(nxt[1]) != count:
                    state = ArcDiagram(arcs, poles).to_text()
                    raise InternalInvariantViolation(f"{Move(kind, pts)} changes the point count of {state}")
                reach.add(nxt)
                stack.append(nxt)
    return frozenset(reach)


def reference_admissible(y: S2Object, z: S2Object, move: Move, members, deltas) -> bool:
    """(P2), then (P1) member by member over the hom deltas: the
    per-member reference for the packed check of
    ``reduction.find_descent_move``."""
    # the caller has checked that y and z share a type
    left, _, right = ses_witness(move)
    for end in (left[0], right[0]):
        if z.count(end) <= y.count(end):
            return False
    pred = region(move)
    return all(d >= 1 for x, d in zip(members, deltas) if pred(x))


def reference_find_descent_move(y: S2Object, z: S2Object) -> Move:
    """The first admissible move, in canonical order, over the tuple
    hom deltas of ``delta_profile`` and the built results of
    ``down_moves``: the per-member reference for
    ``reduction.find_descent_move``, with the same errors in the same
    order."""
    deltas = delta_profile(y, z)
    if y == z:
        raise NoDescentMove("the objects are isomorphic; nothing to descend")
    if min(deltas) < 0:
        raise NotComparable("y is not below z in the hom order")
    members = test_set(object_type(z)[0])
    for move, _ in down_moves(diagram_of_object(z)):
        if reference_admissible(y, z, move, members, deltas):
            return move
    raise InternalInvariantViolation(f"no admissible move for {y.to_text()} <= {z.to_text()}")


# per member list, per summand, the tuple column of [x, s]; see tuple_hom_rows
_TUPLE_COLUMNS: dict = {}


def tuple_hom_rows(xs, objects) -> list[tuple[int, ...]]:
    """For each object o, the tuple of [x, o] over the indecomposables xs:
    one column of ``hom_indec`` values per distinct summand, summed.  The
    tuple reference for the packed rows of ``homcalc._hom_rows``; it
    reads ``homcalc.hom_indec`` at call time, so a patched table reaches
    it, and keeps its columns apart from the library's."""
    cols = _TUPLE_COLUMNS.setdefault(tuple(xs), {})
    rows = []
    for o in objects:
        summed = []
        for s in o:
            col = cols.get(s)
            if col is None:
                col = cols[s] = tuple(homcalc.hom_indec(x, s) for x in xs)
            summed.append(col)
        # the zero object has no column to sum
        rows.append(tuple(map(sum, zip(*summed))) if summed else (0,) * len(xs))
    return rows


def pack_row(values, w: int) -> int:
    """The packed row holding ``values`` in fields of w bits, field 0 lowest."""
    return sum(v << w * k for k, v in enumerate(values))


def unpack_row(row: int, n: int, w: int) -> tuple[int, ...]:
    """The n fields of w bits of a packed row, field 0 first."""
    return tuple(row >> w * k & (1 << w) - 1 for k in range(n))


def iter_types(max_weight: int):
    """All (beta, gamma) with 1 <= |beta| <= max_weight and gamma inside beta."""
    from arcdeg.verify import all_partitions, subpartitions

    for beta in all_partitions(max_weight):
        if beta:
            yield from ((beta, gamma) for gamma in subpartitions(beta))


@pytest.fixture(scope="session")
def descent_pair():
    return DESCENT_Y, DESCENT_Z


@pytest.fixture(scope="session")
def weight8_sweep():
    """The exhaustive property sweep shared by several acceptance criteria."""
    from arcdeg.verify import equivalence_sweep

    return equivalence_sweep(8)


def run_python(*args, cwd=None, timeout=120):
    """Run a fresh interpreter with src/ on the import path; returns the
    completed process with its text output captured.  Raises
    :class:`subprocess.TimeoutExpired` after ``timeout`` seconds."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, *args], cwd=cwd, env=env, capture_output=True, text=True, timeout=timeout
    )
