"""The five rewriting moves on arc diagrams, oriented downward (each
move strictly decreases the pair (pole count, crossing count)
lexicographically):

* ``A(m,n,r,s)``: crossing arcs (m,r), (n,s) become nested (m,s), (n,r);
* ``B(m,r,s)``:  arc (m,s) with a pole strictly inside at r becomes
  arc (m,r) plus a pole at s;
* ``C(m,n,r,s)``: crossing arcs (m,r), (n,s) become disjoint (m,n), (r,s);
* ``D(m,r,s)``:  arc (m,s) with a pole inside at r becomes arc (r,s)
  plus a pole at m;
* ``E(m,r)``:    poles at two distinct points m > r fuse into arc (m,r).

Each move carries a short exact sequence witness whose middle term is
the smaller side's replaced summands and whose end terms are the larger
side's, and a region of test objects on which the hom delta of a pair
differing by the move alone equals 1.  Both are read off one row per
kind in the indices of its points: the pieces it replaces
(``_MOVE_PIECES``), which fix its arity too, and its region, a row of
boxes (``_REGIONS``).  Packed over a test set, in the fields of the
packed hom rows of ``homcalc``, a region is ``_region_mask``; the
descent's (P1) check and ``verify``'s region check both read it.  The
reflexive-transitive closure of the moves is the arc order.  Moves act
on the integer (arcs, poles) tuples of a diagram and never touch its
loops.  Only E changes the pole count, and
it lowers it, so a point query (``arc_leq``) for y below z searches
down from z only through states with at least as many poles as y, and
stops when it meets y.  A query keeps no search; it reuses the
one-move lists of recently expanded states.  A list of objects has one
record (``TypeGraph``), built once: per object id, the diagram,
crossings, successor ids and move count, which exceeds the successor
count by the moves that leave the type.  It finds a move's result by an
exact integer code of the diagram, the source's code plus the move's
delta, read off the pieces the move replaces, so it builds no result.
No move changes the quotient type gamma, so a result is looked up only
among its source's gamma, and a record of every object of one ambient
type beta is the disjoint union of the records of its types
(beta, gamma).  The record's closure is one bitset per object
(``_reach_ids``), built in ascending (poles, crossings) order, which is
topological since every move lowers that pair.  From the record come
Hasse diagrams (single moves need not be covers, so the transitive
reduction is taken), poset extrema and stratum dimensions: a point
query builds the record of one type, the verification sweep one record
per ambient type.
"""

from __future__ import annotations

from collections import namedtuple
from collections.abc import Callable, Iterable
from functools import lru_cache
from math import inf
from operator import itemgetter

from . import geometry
from .errors import InternalInvariantViolation, MoveNotApplicable
from .homcalc import _test_set
from .objects import (
    B2,
    P1,
    ArcDiagram,
    Indecomposable,
    S2Object,
    arc_summands,
    crossings,
    diagram_of_object,
    enumerate_objects,
    object_type,
    require_same_type,
)
from .partitions import Partition

# the pieces each move kind replaces, as indices into its points, in
# canonical kind order: (arcs removed, poles removed, arcs added, poles added)
_MOVE_PIECES = {
    "A": (((0, 2), (1, 3)), (), ((0, 3), (1, 2)), ()),
    "B": (((0, 2),), (1,), ((0, 1),), (2,)),
    "C": (((0, 2), (1, 3)), (), ((0, 1), (2, 3)), ()),
    "D": (((0, 2),), (1,), ((1, 2),), (0,)),
    "E": ((), (0, 1), ((0, 1),), ()),
}
# each move kind's region as boxes in the same indices: (summand kind,
# x.m range, x.r range), a range (i, j) holding pts[i] < v <= pts[j] and
# None leaving that end open; a P1 box bounds x.m only
_REGIONS = {
    "A": (("B2", (1, 0), (3, 2)),),
    "B": (("B2", (0, None), (2, 1)), ("P1", (2, 1))),
    "C": (("B2", (0, None), (2, 1)), ("B2", (2, 1), (None, 3)), ("P1", (2, 1))),
    "D": (("B2", (1, 0), (None, 2)),),
    "E": (("B2", (0, None), (None, 1)), ("P1", (None, 1))),
}
# number of points each move kind takes: one past the largest index its pieces use
MOVE_ARITY = {
    kind: 1 + max(max(p) if isinstance(p, tuple) else p for side in pieces for p in side)
    for kind, pieces in _MOVE_PIECES.items()
}


def _getters(pieces):
    # an arc getter reads (m, r) from a move's points, a pole getter m
    return tuple(itemgetter(*p) if isinstance(p, tuple) else itemgetter(p) for p in pieces)


# per kind, each side it changes: (0 for arcs or 1 for poles, getters of
# the pieces removed, getters of the pieces added)
_MOVE_EDITS = {
    kind: tuple(
        (side, _getters(pieces[side]), _getters(pieces[side + 2]))
        for side in (0, 1)
        if pieces[side] or pieces[side + 2]
    )
    for kind, pieces in _MOVE_PIECES.items()
}


class Move:
    """A tagged down-move with its point parameters.

    Kinds A and C take four points m > n > r > s, kinds B and D take
    three points m > r > s, kind E takes two points m > r.  An A move
    with n = r + 1 produces a decomposable nested arc; it acts on the
    diagram like any other A move and only its sequence witness differs.
    A move is not a tuple: JSON output writes it through its text form.
    """

    __slots__ = ("kind", "points")

    def __init__(self, kind: str, points: tuple[int, ...]):
        need = MOVE_ARITY.get(kind)
        if need is None:
            raise ValueError(f"unknown move kind {kind!r}")
        points = tuple(points)
        if len(points) != need:
            raise ValueError(f"move {kind} takes {need} points, got {points}")
        if any(type(p) is not int for p in points):
            raise ValueError(f"move {kind} takes integer points, got {points!r}")
        if any(p < 1 for p in points):
            raise ValueError(f"move points must be >= 1, got {points}")
        if list(points) != sorted(points, reverse=True) or len(set(points)) != need:
            raise ValueError(f"move {kind}{points} needs strictly decreasing points")
        self.kind = kind
        self.points = points

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self.kind == other.kind and self.points == other.points

    def __hash__(self) -> int:
        return hash((self.kind, self.points))

    def __repr__(self) -> str:
        return f"Move(kind={self.kind!r}, points={self.points!r})"

    @property
    def display_kind(self) -> str:
        if self.kind == "A" and self.points[1] == self.points[2] + 1:
            return "A'"
        return self.kind

    def to_text(self) -> str:
        return f"{self.display_kind}({','.join(str(p) for p in self.points)})"

    def __str__(self) -> str:
        return self.to_text()


def _move_candidates(arcs, poles):
    """(kind, points) of every down-move on a diagram with these arcs
    and poles (each in descending order, repeats allowed), unordered."""
    arc_values = tuple(dict.fromkeys(arcs))
    pole_values = tuple(dict.fromkeys(poles))
    for i, (m1, r1) in enumerate(arc_values):
        for m2, r2 in arc_values[i + 1:]:
            # arc_values is sorted descending, so (m1, r1) >= (m2, r2)
            if m1 > m2 > r1 > r2:
                yield "A", (m1, m2, r1, r2)
                yield "C", (m1, m2, r1, r2)
    for m, s in arc_values:
        for r in pole_values:
            if m > r > s:
                yield "B", (m, r, s)
                yield "D", (m, r, s)
    for i, m in enumerate(pole_values):
        for r in pole_values[i + 1:]:
            yield "E", (m, r)


def _apply(kind, pts, arcs, poles):
    """The (arcs, poles) of a move applied to these arcs and poles
    (descending tuples), as descending tuples; raises ValueError when a
    removed piece is missing (with multiplicity)."""
    target = [arcs, poles]
    for side, out, into in _MOVE_EDITS[kind]:
        edited = list(target[side])
        for piece in out:
            edited.remove(piece(pts))
        for piece in into:
            edited.append(piece(pts))
        edited.sort(reverse=True)
        target[side] = tuple(edited)
    return tuple(target)


def apply_down(diagram: ArcDiagram, move: Move) -> ArcDiagram:
    """Apply a down-move; raises :class:`MoveNotApplicable` when the
    required arcs or poles are missing (with multiplicity)."""
    try:
        arcs, poles = _apply(move.kind, move.points, diagram.arcs, diagram.poles)
    except ValueError:
        raise MoveNotApplicable(f"{move} does not apply to {diagram}") from None
    return ArcDiagram(arcs, poles, diagram.loops)


def down_moves(diagram: ArcDiagram) -> list[tuple[Move, ArcDiagram]]:
    """All distinct applicable down-moves with their results, ordered by
    kind A < B < C < D < E and then lexicographically on the points."""
    arcs, poles = diagram.arcs, diagram.poles
    return [
        (Move(kind, pts), ArcDiagram(*_apply(kind, pts, arcs, poles), diagram.loops))
        for kind, pts in sorted(_move_candidates(arcs, poles))
    ]


def ses_witness(move: Move) -> tuple[S2Object, S2Object, S2Object]:
    """The short exact sequence attached to a move, as a triple
    (left end, middle, right end).

    The ends are the larger side's removed pieces, one each (kinds A
    and D put the second one on the left); the middle is the smaller
    side's added pieces, where a nested arc at the boundary parameter
    expands into its picket pair (this is the only difference between
    an A move and its n = r + 1 variant).
    """
    arcs_out, poles_out, arcs_in, poles_in = _MOVE_PIECES[move.kind]
    pts = move.points
    ends = [S2Object.of(B2(pts[i], pts[j])) for i, j in arcs_out]
    ends += [S2Object.of(P1(pts[i])) for i in poles_out]
    left, right = ends[::-1] if move.kind in "AD" else ends
    middle = S2Object.of(
        *(x for i, j in arcs_in for x in arc_summands(pts[i], pts[j])),
        *(P1(pts[i]) for i in poles_in),
    )
    return left, middle, right


def region(move: Move) -> Callable[[Indecomposable], bool]:
    """The indicator of the test objects on which the hom delta of a
    unit pair for this move equals 1 (it is 0 elsewhere): the summands
    inside one of the boxes of its kind's ``_REGIONS`` row."""
    pts = move.points

    def ends(lo, hi):
        return (-inf if lo is None else pts[lo], inf if hi is None else pts[hi])

    boxes = [(kind, *ends(*m), *(ends(*r[0]) if r else (-inf, inf))) for kind, m, *r in _REGIONS[move.kind]]

    def pred(x: Indecomposable) -> bool:
        kind, m, r = x
        for box_kind, m_lo, m_hi, r_lo, r_hi in boxes:
            if kind == box_kind and m_lo < m <= m_hi and r_lo < r <= r_hi:
                return True
        return False

    return pred


# per (move, test-set cutoff, width), the packed region mask over that test
# set; the moves and cutoffs in use are few
@lru_cache(maxsize=4096)
def _region_mask(move: Move, bound: int, w: int) -> int:
    """A 1 in field k of w bits when the k-th member of the test set at
    cutoff ``bound`` lies in the move's region, 0 elsewhere."""
    pred = region(move)
    return sum(1 << w * k for k, x in enumerate(_test_set(bound)) if pred(x))


@lru_cache(maxsize=1024)
def _down_closure(arcs, poles) -> tuple[tuple, ...]:
    """The (arcs, poles) states one down-move below these arcs and poles,
    one per move, kept for the 1024 most recently expanded states.  The
    bench reads this cache by its name, which is older than its one-move
    lists.  A result that changes the point count 2·arcs + poles, or has
    more poles than its source, raises, and the cache keeps nothing from
    a call that raises."""
    count = 2 * len(arcs) + len(poles)
    below = []
    for kind, pts in _move_candidates(arcs, poles):
        nxt = _apply(kind, pts, arcs, poles)
        if 2 * len(nxt[0]) + len(nxt[1]) != count:
            state = ArcDiagram(arcs, poles).to_text()
            raise InternalInvariantViolation(f"{Move(kind, pts)} changes the point count of {state}")
        if len(nxt[1]) > len(poles):
            state = ArcDiagram(arcs, poles).to_text()
            raise InternalInvariantViolation(f"{Move(kind, pts)} adds a pole to {state}")
        below.append(nxt)
    return tuple(below)


def _reaches(start, goal) -> bool:
    """True when the (arcs, poles) state goal is reached from start by
    down-moves (moves leave loops alone): a depth-first search over the
    one-move lists of ``_down_closure``.  No move adds a pole, so it
    expands only states with at least as many poles as goal, none when
    start has fewer, and stops once it meets goal.  Nothing of the
    search outlives the query."""
    if start == goal:
        return True
    floor = len(goal[1])
    seen = {start}
    stack = [start] if len(start[1]) >= floor else []
    while stack:
        for nxt in _down_closure(*stack.pop()):
            if len(nxt[1]) >= floor and nxt not in seen:
                if nxt == goal:
                    return True
                seen.add(nxt)
                stack.append(nxt)
    return False


def arc_leq(y: S2Object, z: S2Object) -> bool:
    """True when the diagram of y is reachable from the diagram of z by
    a (possibly empty) sequence of down-moves."""
    require_same_type(y, z)
    dy, dz = diagram_of_object(y), diagram_of_object(z)
    return dy.loops == dz.loops and _reaches((dz.arcs, dz.poles), (dy.arcs, dy.poles))


# the record of a list of objects and one column entry per object id,
# its position in ``nodes``: the diagram, the crossings, the sorted ids of
# the move results of its quotient type (``succ``) and the down-move
# count (``moves``), of which ``moves[i] - len(succ[i])`` leave them
TypeGraph = namedtuple("TypeGraph", "nodes diagrams crossings succ moves")


def _code(w: int, arcs, poles, loops=()) -> int:
    """The integer code of a multiset of pieces: the multiplicity of each
    piece in its own digit of w bits, arc (m, r) at digit
    2·(m(m-1)/2 + r), pole p at 4p+1 and loop q at 4q+3.  It is exact
    while no multiplicity reaches 2**w."""
    code = 0
    for m, r in arcs:
        code += 1 << w * (m * (m - 1) + 2 * r)
    for p in poles:
        code += 1 << w * (4 * p + 1)
    for q in loops:
        code += 1 << w * (4 * q + 3)
    return code


def _move_delta(w: int, kind: str, pts: tuple[int, ...]) -> int:
    """What a move adds to the code of every diagram it applies to: the
    code of the pieces it adds less the code of the pieces it removes."""
    arcs_out, poles_out, arcs_in, poles_in = _MOVE_PIECES[kind]
    added = _code(w, [(pts[i], pts[j]) for i, j in arcs_in], [pts[i] for i in poles_in])
    return added - _code(w, [(pts[i], pts[j]) for i, j in arcs_out], [pts[i] for i in poles_out])


def _type_table(nodes) -> TypeGraph:
    """The record of objects of one ambient type in canonical order, of
    one type (beta, gamma) or of all types of that beta: the one place
    that derives their diagrams, crossings and moves.  The codes' digits
    are as wide as the largest point count 2·arcs + poles + loops, which
    bounds every multiplicity and which no move changes, so every code
    here, and every move result's, is exact.  A move's removed and added
    pieces are disjoint and fix its kind and points, so distinct moves on
    one diagram give distinct results.  A result is looked up only among
    the nodes of its source's quotient type, so one of another type leaves
    like a missing one, and the moves that leave each node's type number
    its move count less its successor count."""
    diagrams = tuple(diagram_of_object(o) for o in nodes)
    w = max((2 * len(a) + len(p) + len(q) for a, p, q in diagrams), default=0).bit_length()
    # a node's key is its code times the number of quotient types plus the
    # label of its own, and a move adds its delta times that number, so the
    # label of a result's key is its source's
    gammas: dict[Partition, int] = {}
    labels = [gammas.setdefault(object_type(o)[1], len(gammas)) for o in nodes]
    keys = [_code(w, *d) * len(gammas) + label for d, label in zip(diagrams, labels)]
    ids = {k: i for i, k in enumerate(keys)}
    deltas: dict[tuple[str, tuple[int, ...]], int] = {}
    succ, counts = [], []
    for (arcs, poles, _), key in zip(diagrams, keys):
        targets = []
        for move in _move_candidates(arcs, poles):
            delta = deltas.get(move)
            if delta is None:
                delta = deltas[move] = _move_delta(w, *move) * len(gammas)
            targets.append(ids.get(key + delta))
        succ.append(tuple(sorted(j for j in targets if j is not None)))
        counts.append(len(targets))
    return TypeGraph(tuple(nodes), diagrams, tuple(map(crossings, diagrams)), tuple(succ), tuple(counts))


@lru_cache(maxsize=16)
def _type_graph(beta: Partition, gamma: Partition) -> TypeGraph:
    """The record of a type, from its enumerated objects.

    Each caller reads a type right after building it, so a few recent
    types are kept."""
    return _type_table(enumerate_objects(beta, gamma))


def _reach_ids(graph: TypeGraph) -> list[int]:
    """The reflexive-transitive closure of a type graph, as one bitset
    per node: bit j of ``reach[i]`` is set iff node j lies below node i
    in the arc order."""
    # every move lowers (poles, crossings), so successors come first
    rank = [(len(d.poles), x) for d, x in zip(graph.diagrams, graph.crossings)]
    reach = [0] * len(rank)
    for i in sorted(range(len(rank)), key=rank.__getitem__):
        bits = 1 << i
        for j in graph.succ[i]:
            bits |= reach[j]
        reach[i] = bits
    return reach


def _cover_ids(graph: TypeGraph) -> list[tuple[int, int]]:
    """Cover edges (i, j) of a type graph, in (i, j) order: its
    transitive reduction, from one bitset closure per node."""
    reach = _reach_ids(graph)
    edges = []
    for i, targets in enumerate(graph.succ):
        # the targets some other successor reaches are not covers
        below = 0
        for k in targets:
            below |= reach[k] ^ (1 << k)
        edges += [(i, j) for j in targets if not below >> j & 1]
    return edges


def _extrema_ids(graph: TypeGraph, ids=None) -> tuple[list[int], list[int]]:
    """(maximal, minimal) among the node ids of one type (all nodes by
    default), in the order given: nodes with no up-move, respectively no
    down-move, inside the type.  Successors keep the quotient type, so
    the ids of a type hold every successor of each."""
    if ids is None:
        ids = range(len(graph.succ))
    has_incoming = {j for i in ids for j in graph.succ[i]}
    maximal = [i for i in ids if i not in has_incoming]
    minimal = [i for i in ids if not graph.succ[i]]
    return maximal, minimal


def hasse(beta: Partition, gamma: Partition) -> list[tuple[S2Object, S2Object]]:
    """Cover edges of the arc order on all objects of the type, directed
    from the greater object to the smaller, in canonical order."""
    graph = _type_graph(beta, gamma)
    return [(graph.nodes[i], graph.nodes[j]) for i, j in _cover_ids(graph)]


def extrema(beta: Partition, gamma: Partition) -> tuple[list[S2Object], list[S2Object]]:
    """(maximal, minimal) elements of the arc order on the type: objects
    with no up-move, respectively no down-move."""
    graph = _type_graph(beta, gamma)
    maximal, minimal = _extrema_ids(graph)
    return [graph.nodes[i] for i in maximal], [graph.nodes[i] for i in minimal]


def _node_dims(graph: TypeGraph, beta: Partition) -> list[tuple[Partition, int]]:
    """Per node of a record of objects of ambient type beta, its subspace
    type alpha and its stratum dimension, read with the node's own
    quotient type gamma."""
    # alpha has a 2 per arc or loop and a 1 per pole (alpha_of's rule), so
    # it and the crossing-free part of the dimension are shared by each such
    # class of one gamma; the formula is read from its module, so a patched
    # one reaches here
    by_class: dict[tuple[Partition, int, int], tuple[Partition, int]] = {}
    out = []
    for node, (arcs, poles, loops), x in zip(graph.nodes, graph.diagrams, graph.crossings):
        gamma = object_type(node)[1]
        key = (gamma, len(arcs) + len(loops), len(poles))
        if key not in by_class:
            # twos before ones: already canonical
            alpha = tuple.__new__(Partition, (2,) * key[1] + (1,) * key[2])
            by_class[key] = (alpha, geometry._stratum_dim_less_crossings(alpha, beta, gamma))
        alpha, uncrossed_dim = by_class[key]
        out.append((alpha, uncrossed_dim - x))
    return out


def hasse_dot(beta: Partition, gamma: Partition) -> str:
    """DOT source for the Hasse diagram; one node per diagram labeled
    with its text form, subspace type, crossings and stratum dimension."""
    graph = _type_graph(beta, gamma)
    lines = ["digraph hasse {", "  rankdir=TB;", "  node [shape=box];"]
    dims = _node_dims(graph, beta)
    # one text per subspace type: the types are few, the nodes many
    alpha_text = {alpha: alpha.to_text() or "()" for alpha in {a for a, _ in dims}}
    for i, (d, x, (alpha, dim)) in enumerate(zip(graph.diagrams, graph.crossings, dims)):
        label = f"{d.to_text()}\\nalpha={alpha_text[alpha]} x={x} dim={dim}"
        lines.append(f'  n{i} [label="{label}"];')
    lines += [f"  n{i} -> n{j};" for i, j in _cover_ids(graph)]
    lines.append("}")
    return "\n".join(lines) + "\n"


def unit_pair(move: Move, context: Iterable[Indecomposable] = ()) -> tuple[S2Object, S2Object]:
    """The pair (smaller, larger) of objects differing by one move, with
    optional shared extra summands."""
    left, middle, right = ses_witness(move)
    extra = tuple(context)
    smaller = S2Object(middle + extra)
    larger = S2Object(left + right + extra)
    return smaller, larger
